(** The service's typed operation stream and response vocabulary.

    One line of a workload file is one op; the textual form below is the
    workload wire format ({!to_line} / {!of_line}) and the canonical
    response rendering ({!response_to_string}) is what determinism
    fingerprints hash, so both must stay stable. *)

type t =
  | Route of { shard : int; src : int }
      (** Serve a route request from [src] to the shard's destination. *)
  | Link_down of { shard : int; u : int; v : int }
      (** The link [{u,v}] failed.  A no-op if absent. *)
  | Link_up of { shard : int; u : int; v : int }
      (** The link [{u,v}] appeared.  A no-op if present or touching a
          crashed node. *)
  | Crash_destination of { shard : int }
      (** The shard's destination crashed; elect a replacement
          ({!Shard.elect}) and re-orient toward it. *)
  | Inject of { shard : int; src : int; count : int }
      (** Offer [count] packets at [src] to the shard's forwarding
          plane ({!Lr_packet.Plane}); a full source queue drops the
          excess. *)
  | Forward of { shard : int; slots : int }
      (** Run [slots] synchronous forwarding rounds on the shard's
          plane: backpressure transmissions plus queue-driven partial
          reversals. *)
  | Corrupt of { shard : int; seed : int; magnitude : int }
      (** Chaos fault: overwrite every height of the shard's
          maintenance engine with a hostile pseudo-random assignment
          derived from [(seed, node)] and bounded by [magnitude], then
          self-heal ({!Maintenance.adopt_heights}). *)
  | Flip of { shard : int; node : int; bit : int }
      (** Chaos fault: flip one bit of [node]'s primary height
          component (a targeted single-node corruption, e.g. a route
          bit-flip in flight), then self-heal. *)
  | Stats  (** Snapshot the service-wide counters (a dispatch barrier). *)

val shard_of : t -> int option
(** [None] for [Stats], which is handled by the dispatcher. *)

type response =
  | Path of int list
      (** A validated route: strictly height- and orientation-descending
          from the source to the shard's destination. *)
  | No_route  (** The source is honestly cut off from the destination. *)
  | Repaired of { node_steps : int }
      (** Link failure absorbed; the reversal cascade ran to quiescence. *)
  | Cut of { lost : int }
      (** Link failure partitioned [lost] nodes away from the
          destination. *)
  | Linked of { node_steps : int }
      (** Link added (and any newly enabled reversals run). *)
  | New_destination of { leader : int; node_steps : int }
      (** Failover outcome: the elected leader and the re-orientation
          work spent adopting it. *)
  | Injected of { accepted : int; dropped : int }
      (** Packets enqueued vs refused by the bounded source queue. *)
  | Forwarded of { delivered : int; reversals : int; queued : int; hops : int }
      (** Forwarding-round outcome: deliveries, queue-driven reversals
          and hop count in these slots, plus the plane's remaining
          occupancy. *)
  | Healed of { node_steps : int }
      (** Fault absorbed: the engine adopted the corrupted heights and
          re-stabilized in [node_steps] reversal steps. *)
  | Noop  (** The op was inapplicable in the current shard state. *)
  | Snapshot of Metrics.totals
  | Rejected of [ `Overloaded ]
      (** Backpressure: the shard's bounded queue was full at admission. *)

val to_line : t -> string
(** Workload-file line: ["route S SRC"], ["down S U V"], ["up S U V"],
    ["crash S"], ["inject S SRC K"], ["forward S K"],
    ["corrupt S SEED MAG"], ["flip S NODE BIT"], ["stats"]. *)

val of_line : string -> (t, string) result
(** Inverse of {!to_line}; rejects malformed lines with a message. *)

val response_to_string : response -> string
(** Canonical deterministic rendering (used for fingerprints). *)

val pp : Format.formatter -> t -> unit
val pp_response : Format.formatter -> response -> unit
