(** The service's metrics registry.

    Counters are split per shard so that shard loops update them
    without contention (a shard's ops are serialized — only the domain
    holding the shard's ownership token touches its counter record,
    and token handoffs are acquire/release edges), and so that totals
    are aggregated in fixed shard order — deterministic regardless of
    the domain count.

    Two families are deliberately {e non}-deterministic and therefore
    excluded from {!totals_line} (which determinism fingerprints
    hash): latency samples, and the ring-occupancy / steal counters of
    {!ring_counters} — queue depth under free-running dispatch is a
    wall-clock fact, not a function of the op stream. *)

type counters = {
  mutable served : int;  (** Ops executed (rejected ops excluded). *)
  mutable routes : int;  (** [Path] responses. *)
  mutable no_routes : int;  (** Honest [No_route] responses. *)
  mutable link_events : int;  (** Link ops that changed the graph. *)
  mutable noops : int;  (** Inapplicable ops (absent link, dead node…). *)
  mutable crashes : int;  (** Destination crashes handled. *)
  mutable partitions : int;  (** Link failures that cut nodes off. *)
  mutable reversal_steps : int;  (** Node reversal work performed. *)
  mutable rejected : int;  (** Backpressure [Rejected `Overloaded]. *)
  mutable validation_failures : int;
      (** Route responses that failed the in-service acyclicity check —
          any nonzero value is a bug in the reversal engine. *)
  mutable packets_in : int;  (** Packets accepted by [Inject] ops. *)
  mutable packets_dropped : int;  (** Refused by a full source queue. *)
  mutable packets_out : int;  (** Packets delivered by [Forward] ops. *)
  mutable packet_reversals : int;
      (** Queue-differential reversals on the forwarding plane. *)
  mutable packet_hops : int;  (** Transmissions behind the deliveries. *)
  mutable packet_queue_peak : int;
      (** Highest plane occupancy reported by a [Forward] response. *)
  mutable faults : int;
      (** Chaos faults healed ([Corrupt]/[Flip] ops that adopted and
          re-stabilized).  Deterministic: a function of the op stream. *)
}

(** Immutable aggregate of {!counters}; [stats_ops] counts service-level
    [Stats] snapshots (never attributed to a shard). *)
type totals = {
  served : int;
  routes : int;
  no_routes : int;
  link_events : int;
  noops : int;
  crashes : int;
  partitions : int;
  reversal_steps : int;
  rejected : int;
  validation_failures : int;
  packets_in : int;
  packets_dropped : int;
  packets_out : int;
  packet_reversals : int;
  packet_hops : int;
  packet_queue_peak : int;  (** Aggregated with [max], not [+]. *)
  faults : int;
  stats_ops : int;
}

(** Per-shard op-ring observability.  Occupancy fields are sampled by
    the single dispatcher after each push; steal counters are atomics
    because any idle loop may act as the thief. *)
type ring_counters = {
  mutable max_depth : int;  (** High-water occupancy. *)
  mutable depth_sum : int;
  mutable depth_samples : int;
  steal_attempts : int Atomic.t;
      (** Token claims tried by non-owner loops (successful or not). *)
  stolen : int Atomic.t;  (** Ops drained from this ring by thieves. *)
}

(** Immutable aggregate of {!ring_counters}. *)
type ring_totals = {
  max_depth : int;
  mean_depth : float;  (** [depth_sum / depth_samples] ([0.] if none). *)
  depth_samples : int;
  steal_attempts : int;
  stolen : int;
}

type t

val create : shards:int -> t
val num_shards : t -> int

val shard : t -> int -> counters
(** The mutable counter record of one shard. *)

val ring : t -> int -> ring_counters
(** The mutable ring-observability record of one shard. *)

val bump_stats : t -> unit
(** Count one served [Stats] snapshot. *)

val record_depth : t -> shard:int -> int -> unit
(** Sample one post-push ring occupancy (dispatcher side). *)

val note_steal_attempt : t -> shard:int -> unit
(** One thief token claim against the shard (whether or not it won). *)

val note_stolen : t -> shard:int -> int -> unit
(** [n] ops drained from the shard's ring by a thief. *)

val record_latency : t -> shard:int -> int -> unit
(** Append one admission-to-completion latency sample (nanoseconds). *)

val record_recovery : t -> shard:int -> int -> unit
(** Append one chaos-heal duration sample (nanoseconds, fault adoption
    to re-stabilization) — the recovery-time SLO's sample set. *)

val totals : t -> totals
(** Aggregated over shards in index order (deterministic). *)

val per_shard : t -> totals array
(** Each shard's counters as immutable totals ([stats_ops = 0]). *)

val per_shard_rings : t -> ring_totals array
val rings_total : t -> ring_totals
(** Aggregate ring observability: max of maxes, global mean, summed
    steal counters. *)

type snapshot = {
  snapshot_totals : totals;
  snapshot_per_shard : totals array;
  snapshot_rings : ring_totals array;
  rings_totals : ring_totals;
  latency : Lr_analysis.Stats.percentiles;  (** Seconds, over all samples. *)
  latency_samples : int;
  recovery : Lr_analysis.Stats.percentiles;
      (** Chaos-heal durations, seconds (the recovery SLO). *)
  recovery_samples : int;
}

val snapshot : t -> snapshot

val totals_line : totals -> string
(** Canonical one-line rendering of every deterministic counter — the
    unit determinism fingerprints are built from.  Latency and ring
    observability never appear here. *)

val ring_line : ring_totals -> string
(** One-line rendering of the (non-deterministic) ring counters, for
    reports only — never part of a fingerprint. *)
