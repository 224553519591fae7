(** The sharded, domain-parallel routing service.

    {2 Execution model}

    With one domain ([jobs = 1], or a host that clamps [jobs] to 1)
    the dispatcher {b serves at admission}: it stamps each op, applies
    it to its shard and goes on to the next.  Nothing is queued, so an
    op's sojourn is its own service time, no op is ever rejected, and
    a [Stats] op snapshots at once — every op before it has already
    completed.  No ring, token or loop exists on this path.

    With more domains, dispatch is {b free-running}: each destination
    shard owns a bounded lock-free SPSC op ring
    ({!Lr_parallel.Spsc}).  The dispatcher pushes op indices into the
    rings while [jobs - 1] resident run-to-completion loops (launched
    once on the persistent pool, alive until the shutdown sentinel)
    drain them — there is no cross-shard barrier anywhere.
    Backpressure is per-ring occupancy: an op arriving at a full ring
    is answered [Rejected `Overloaded] on the spot, so queue depth is
    the overload signal.

    {b Per-shard serialization} survives the loss of the barrier via
    ownership tokens: a loop may pop a shard's ring and touch its
    engine only while holding the shard's token (an [Atomic] CAS), and
    token handoffs are acquire/release edges.  That is also what makes
    {b work stealing} safe for Zipf-skewed workloads: an idle loop
    claims a busy shard's token and drains a batch (64 ops) on
    the owner's behalf — consumption migrates, interleaving never
    happens.  Each loop's pops are checked against a per-shard
    sequence (op indices must strictly increase), so a serialization
    break is an immediate failure, not a silent corruption.

    A [Stats] op quiesces the service (every admitted op completed,
    the dispatcher moonlighting as a thief while it waits) before
    snapshotting, so snapshots count exactly the ops admitted before
    them.

    Sojourn (admission to completion) and chaos-heal times are stamped
    in nanoseconds on the monotonic clock and stored in {!Metrics} as
    seconds.

    {2 Determinism}

    Responses land in per-op slots and every shard's ops execute in
    admission order, so on any stream where nothing is rejected the
    responses, counters and {!fingerprint} equal those of applying
    each op to its own shard in stream order — at every [jobs] value.
    The test suite checks that against a sequential replay, and the
    bench and CI compare [jobs] values.  {e Which} ops are rejected
    under genuine overload, and the ring-occupancy/steal observability
    in {!Metrics.ring_totals}, are wall-clock facts and the two
    deliberately non-deterministic parts of the service. *)

type config = {
  jobs : int;
      (** Domains: one dispatcher plus [jobs - 1] resident shard
          loops. *)
  queue_bound : int;
      (** Per-shard ring capacity, from 1 to
          {!Lr_parallel.Spsc.max_capacity} (2^24); the ring rounds it up
          to a power of two, and the rounded value is the effective
          bound.  Validated at every [jobs] value, though only a run
          with more than one domain builds rings. *)
  rule : Lr_routing.Maintenance.rule;
  engine : Shard.engine_kind;
      (** Maintenance tier for every shard ({!Shard.engine_kind}).
          Responses, counters and the fingerprint are byte-identical
          across the two. *)
  pin_loops : bool;
      (** By default ([false]) the service spawns at most
          [available domains - 1] resident loops no matter how large
          [jobs] is: in OCaml 5 {e every} live domain — even one
          parked in a blocking section — is woken into each minor-GC
          stop-the-world barrier, so domains beyond the hardware are
          pure tax (measured 15–25% on one core).  Requested [jobs]
          beyond the clamp run as if the hardware were the limit;
          responses and counters are unaffected (jobs never change
          results).  [true] pins exactly [jobs - 1] loops regardless,
          so tests and benches can exercise the token/steal protocol
          on any host. *)
}

val default_config : config
(** [jobs = 1], [queue_bound = 128], Partial Reversal, the fast
    engine, loops clamped to the hardware.  Every route is validated
    in-service; a thief drains at most 64 ops per stolen token
    claim. *)

type t

val create : ?trace_dir:string -> config -> Linkrev.Config.t array -> t
(** One shard per instance, each stabilized on creation.  When
    [trace_dir] is given, the stabilization of every shard's initial
    orientation is recorded there as a replayable LRT1 trace
    ([shard-NNN.lrt], via {!Lr_trace.Record.fast} — auditable with
    [linkrev trace audit]).  @raise Invalid_argument on an empty
    instance array, a non-positive [jobs] or a [queue_bound] that is
    non-positive or above {!Lr_parallel.Spsc.max_capacity}. *)

val num_shards : t -> int
val shard : t -> int -> Shard.t

val run : t -> Op.t array -> Op.response array
(** Execute the stream; slot [i] answers op [i].  Ops must name shards
    in range ([Workload.load]/[generate] guarantee it).
    @raise Invalid_argument on an out-of-range shard id.
    @raise Failure if a shard loop breaks per-shard serialization or
    loses an op in flight (both are engine bugs, checked live). *)

val metrics : t -> Metrics.snapshot

val fingerprint : Op.response array -> Metrics.snapshot -> string
(** Hex digest over the canonical rendering of all responses plus all
    deterministic counters (latency and ring observability excluded) —
    byte-identical across [jobs] settings whenever the rejection sets
    agree (always, absent overload). *)

val rejected_in : Op.response array -> int
(** Count of [Rejected] responses — must equal the metrics' rejected
    counter (the "no leaked rejections" check). *)

val shutdown : t -> unit
(** Join the pool's domains.  Idempotent. *)
