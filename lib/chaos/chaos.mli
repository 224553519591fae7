(** The self-stabilization harness: corrupt, recover, measure, audit.

    The property under test is the link-reversal self-stabilization
    theorem: because orientations are {e derived} from heights and any
    height assignment is a total order, every corrupted state is still
    acyclic, and the ordinary maintenance engines converge back to a
    destination-oriented graph from {e arbitrary} adopted heights —
    within {!Lr_routing.Maintenance.adoption_budget}, the
    spread-aware generalization of the O(n^2) worst-case work bound of
    the partial-reversal analysis (Busch et al. / Bernard et al.):
    [4 n (n + spread) + 1000], reducing to the classic bound when the
    corrupted heights range over O(n) values.

    {!differential} runs one corruption against {e both} engine tiers
    from the same stabilized start and demands byte-identical
    recoveries: same step count, same recovered fingerprint.  The fast
    engine's recovery can be recorded as an LRT1 [Maint] trace — the
    corruption itself appears as [Perturb] events (the orientation
    diff the adopted heights induce), each recovery step as a [Step] —
    so {!Lr_trace.Replay} re-derives the exact recovery and
    {!Lr_trace.Audit} checks acyclicity of every intermediate state.

    All measurements are returned, never printed; the [linkrev chaos]
    command and the D-C1 bench render them. *)

open Lr_routing

type recovery = {
  n : int;  (** Nodes in the instance. *)
  steps : int;  (** Reversal steps from adoption to re-stabilization. *)
  rounds : int;
      (** Stabilization rounds = max steps taken by any single node. *)
  perturbed_edges : int;
      (** Edges the corruption itself flipped (the fault's blast
          radius, before any recovery work). *)
  wall_ns : int;  (** Violation-to-recovery wall time. *)
  fingerprint : int64;  (** Recovered orientation. *)
  destination_oriented : bool;  (** Must be [true] — convergence. *)
  budget : int;
      (** The spread-aware adoption budget
          ({!Lr_routing.Maintenance.adoption_budget}) for this
          assignment. *)
  within_budget : bool;  (** [steps <= budget]. *)
}

type differential = {
  fast : recovery;
  ref_steps : int;
  ref_wall_ns : int;
  ref_fingerprint : int64;
  agree : bool;
      (** Fast and reference recovered to the same fingerprint in the
          same number of steps — the cross-engine oracle. *)
  trace_path : string option;
}

val differential :
  ?trace:string ->
  Maintenance.rule ->
  Linkrev.Config.t ->
  seed:int ->
  magnitude:int ->
  differential
(** Corrupt every node with {!Lr_service.Shard.hostile_height} [~seed
    ~magnitude] and recover on both engines: the fast engine adopts the
    heights and stabilizes, then the reference engine does the same.
    With [?trace], the fast recovery is recorded as an LRT1 [Maint]
    trace: header = pre-corruption orientation, [Perturb] events = the
    corruption's orientation diff, [Step] events = the recovery ([seed]
    is stamped into the header).  If adoption raises, the trace is
    aborted (left truncated) and the exception rethrown. *)

val differential_flip :
  Maintenance.rule ->
  Linkrev.Config.t ->
  node:int ->
  bit:int ->
  differential
(** Single-event upset: flip [bit] of [node]'s stabilized [pa] height
    and recover on both engines.  @raise Invalid_argument when [node]
    or [bit] (0..61) is out of range. *)

type scenario = {
  name : string;
  config : Linkrev.Config.t;
  seed : int;
  magnitude : int;
}

val scenarios : ?n:int -> ?seed:int -> unit -> scenario list
(** The D-C1 battery: chain, ring, grid, tree, sparse and dense random
    DAGs of ~[n] nodes, with corruption magnitudes sweeping from
    degenerate ties (everything in [+-1], maximal id tie-breaking) to
    widely spread heights.  Recovery work grows linearly with the
    spread, so magnitudes are capped at 4096 to keep the battery
    CI-cheap. *)

(** {1 The battery check}

    One judge for every caller of the battery — the [linkrev chaos]
    command and the D-C1 bench render what it returns. *)

type failure =
  | Not_converged
  | Diverged  (** Fast and reference recoveries disagree. *)
  | Over_budget
  | Audit_violation  (** The recorded recovery visited a bad state. *)
  | Audit_error of string  (** The trace did not replay. *)

val judge : differential -> failure list
(** The recovery gates: convergence, cross-engine agreement and the
    adoption budget, in that order. *)

val failure_message : differential -> failure -> string

type checked = {
  scenario : scenario;
  result : differential;
  spread : int;
      (** Height spread of the corruption
          ({!Lr_routing.Maintenance.height_spread}). *)
  audited : int option;
      (** States the audit checked, clean or not; [None] when it did
          not run or the trace did not replay. *)
  failures : failure list;  (** {!judge}'s, then the audit's. *)
}

val audit_cell : checked -> string
(** The audit column of a rendered battery: [clean/<states checked>],
    [VIOLATED], [ERROR], or [-] when the audit did not run. *)

val battery :
  ?trace_dir:string ->
  audit:bool ->
  Maintenance.rule ->
  n:int ->
  seed:int ->
  (checked list, string) result
(** Corrupt and recover every scenario of [scenarios ~n ~seed ()]
    ({!differential}) and judge each.  With [audit], each recovery is
    recorded and audited for per-state acyclicity at stride
    [max 1 (steps / 200)] (about 200 states plus the endpoints).  The
    trace goes to [trace_dir/chaos_<name>.lrt] when a directory is
    given (created if missing) and is kept; otherwise a temporary file
    is used and removed whatever happens.  [Error] for [n < 3], which
    the ring generator refuses. *)
