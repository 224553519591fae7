(** End-to-end packet scenarios: the backpressure-LR rate sweep and the
    geographic-void recovery run — the drivers behind [linkrev packet]
    and the D-B1 packet bench.

    Both are single-threaded and fully deterministic from their spec
    (seeded RNG, synchronous plane slots; churn toggles and the mid-run
    occupancy sample fall on fixed slot indices). *)

(** {2 Backpressure rate sweep} *)

type bp_spec = {
  nodes : int;
  extra_edges : int;
  dests : int;  (** Forwarding planes (destinations [0 .. dests-1]). *)
  seed : int;
  slots : int;  (** Injection slots. *)
  drain : int;  (** Extra injection-free slots (early exit when empty). *)
  rate : int;  (** Packets offered per slot, across all planes. *)
  skew : float;  (** Zipf exponent over destinations. *)
  qcap : int;
  cap : int;  (** Per-node transmissions per slot. *)
  churn_every : int;  (** Toggle one random link down/up every so many
                          slots; [0] disables.  Any link still down when
                          injection ends is restored before draining. *)
}

val default_bp : bp_spec
(** 64 nodes, 64 extra edges, 4 planes, seed 42, 512 slots, drain
    budget 8192, rate 8, skew 0.9, qcap 16, cap 1, no churn. *)

type bp_result = {
  rate : int;
  offered : int;
  injected : int;  (** Accepted (offered minus dropped). *)
  dropped : int;
  delivered : int;
  reversals : int;
  queued_mid : int;  (** Total occupancy at the middle of injection. *)
  queued_end : int;  (** Total occupancy when injection ends. *)
  remaining : int;  (** Still queued after the drain budget. *)
  high_water : int;
  hops_sum : int;
  dist_sum : int;
  diverged : bool;
      (** Queues diverged: drops occurred, packets survived the drain
          budget, or end-of-injection occupancy kept growing past twice
          the mid-point sample (plus two slots' rate of slack). *)
}

val run_backpressure : bp_spec -> bp_result
(** One run at [spec.rate].  Each plane's heights seed from a stabilized
    {!Lr_routing.Fast_maintenance} engine via its [height] hook.
    @raise Invalid_argument on non-positive sizes or [dests > nodes]. *)

val sweep : ?trace_dir:string -> bp_spec -> rates:int list -> bp_result list
(** [run_backpressure] at each rate ([spec.rate] ignored).  When
    [trace_dir] is given, each plane's initial stabilization at the
    first rate is recorded there as a replayable LRT1 trace
    ([plane-NNN.lrt]) — the queue-driven reversals themselves are not
    replayable events (replay enforces sink preconditions; these
    reversals re-point non-sinks). *)

val stability_threshold : bp_result list -> int option
(** The largest swept rate [r] such that every result at rate [<= r]
    delivered at least 99% of offered packets without diverging —
    [None] when even the smallest rate is unstable. *)

val delivery : bp_result -> float
(** Delivered over {e offered} (drops count against delivery). *)

val stretch : bp_result -> float

(** {2 Geographic void} *)

type void_spec = {
  vnodes : int;
  radius : float;
  vseed : int;
  sources : int;  (** Leftmost nodes used as traffic sources. *)
  per_source : int;
  max_slots : int;
  vqcap : int;
  void_ : float * float * float * float;
}

val default_void : void_spec
(** 180 nodes, radius 0.14, seed 7, 6 sources x 4 packets, qcap 8,
    4096 slots, void rectangle (0.38, 0.12, 0.62, 0.88). *)

type void_result = {
  greedy : Geo.result;
  recovery : Geo.result;
  minima : int;  (** Greedy local minima in the instance. *)
}

val run_void : void_spec -> void_result
(** Generate the void instance ({!Geo.generate}) and run both modes on
    identical traffic.  The default spec strands greedy packets
    (instances are redrawn until the void creates at least one local
    minimum) while recovery delivers everything. *)
