(** Deterministic workload generation for the routing service.

    Everything — shard topologies, op mix, shard popularity — derives
    from the spec's seed alone, so a workload can be regenerated
    bit-identically anywhere, and a saved workload file replays the
    exact same op stream.  Shard popularity follows a Zipf-like power
    law ([weight(i) = (i+1)^-skew]): real route traffic is skewed, and
    a hot shard is exactly what exercises bounded-queue backpressure. *)

type mix = {
  route : int;  (** Weight of route queries. *)
  churn : int;  (** Weight of link down/up events (split evenly). *)
  crash : int;  (** Weight of destination crashes. *)
}

type pmix = {
  inject : int;  (** Weight of packet injections ([Inject]). *)
  forward : int;  (** Weight of forwarding rounds ([Forward]). *)
}

type spec = {
  shards : int;
  nodes : int;  (** Nodes per shard graph. *)
  extra_edges : int;  (** Chords beyond the spanning tree, per shard. *)
  seed : int;
  ops : int;
  mix : mix;
  pmix : pmix;  (** Packet-op weights, rolled with [mix] in one die. *)
  burst : int;
      (** Packets per [Inject] op and slots per [Forward] op
          (must be in [1 .. Shard.max_burst] even when [pmix] is all
          zeros). *)
  skew : float;  (** Zipf exponent; [0.] = uniform shard popularity. *)
  stats_every : int;  (** Emit a [Stats] op every K ops; [0] = never. *)
}

val default_mix : mix
(** 90 route / 9 churn / 1 crash. *)

val no_packets : pmix
(** 0/0 — a pure routing workload (what old [lrw1] files decode to). *)

val default_pmix : pmix
(** 30 inject / 10 forward, for packet-heavy loadgen runs. *)

val generate : spec -> Op.t array
(** The spec's op stream.  @raise Invalid_argument on a nonsensical
    spec (no shards, fewer than 2 nodes, negative counts, empty mix,
    a burst outside [1 .. Shard.max_burst]). *)

val shard_config : spec -> int -> Linkrev.Config.t
(** The initial instance of one shard: a random connected DAG seeded
    from [(spec.seed, shard)]. *)

val shard_configs : spec -> Linkrev.Config.t array

val valid_op : spec -> Op.t -> (unit, string) result
(** Check one op against the spec's shard and node ranges, and its
    packet count, forward slots or corruption magnitude against
    {!Shard.max_burst} and {!Shard.max_magnitude}. *)

val save : string -> spec -> Op.t array -> unit
(** Write the [lrw1] text format: a spec header followed by one
    {!Op.to_line} per op.  The [pmix]/[burst] header lines postdate the
    format and always appear in saved files. *)

val load : string -> (spec * Op.t array, string) result
(** Parse a workload file, validating the magic, header completeness,
    op count and every op's shard/node ranges.  Files written before
    the packet extension (no [pmix]/[burst] headers) load with
    [pmix = no_packets]. *)

val describe : spec -> string
(** One-line human summary. *)
