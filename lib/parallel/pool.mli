(** Domain-parallel trial running (OCaml 5 multicore).

    The experiment suite is embarrassingly parallel: hundreds of
    independent trials, each deriving everything it needs — instance,
    scheduler, RNG — from its own index.  This pool spreads such index
    ranges over a fixed set of {!Domain}s with chunked work-stealing,
    and guarantees {e scheduling-independent results}: outputs are
    written to per-index slots and per-trial RNGs are seeded from the
    trial index alone, so [jobs = 1] and [jobs = 64] produce identical
    values in identical order.

    Trial functions must be self-contained: build state from the index
    (or the provided RNG), share nothing mutable, and in particular
    never touch the global [Random] state. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], floored at 1. *)

val map_range : ?chunk:int -> jobs:int -> int -> (int -> 'a) -> 'a array
(** [map_range ~jobs n f] is [[| f 0; ...; f (n-1) |]], computed by
    [jobs] domains (the caller participates; [jobs - 1] are spawned).
    [chunk] is the number of consecutive indices a worker claims at a
    time (default [n / (jobs * 8)], floored at 1); larger chunks
    amortize cursor contention, smaller chunks balance ragged trial
    times.  If any [f i] raises, the first exception observed is
    re-raised in the caller after all workers stop.
    @raise Invalid_argument on a negative [n] or non-positive chunk. *)

exception Trial_error of { trial : int; exn : exn }
(** Raised by {!run_trials} when a trial function raises: wraps the
    original exception with the index of the trial that died, so a
    failure deep in a pooled sweep is attributable.  A printer is
    registered, so uncaught it reads
    ["Pool.run_trials: trial 57 raised ..."]. *)

val run_trials :
  jobs:int ->
  trials:int ->
  (trial:int -> rng:Random.State.t -> 'a) ->
  'a list
(** [run_trials ~jobs ~trials f] maps [f] over trial indices
    [0 .. trials-1], handing each trial a private RNG deterministically
    seeded from its index ({!trial_rng}); results in trial order.  If a
    trial raises, the first failure observed is re-raised in the caller
    as {!Trial_error} carrying the failing trial index. *)

val trial_rng : int -> Random.State.t
(** The per-trial RNG [run_trials] provides: seeded from the trial
    index only, hence reproducible across runs, job counts and
    scheduling orders. *)

val timed : (unit -> 'a) -> 'a * float
(** Result plus wall-clock seconds ([Unix.gettimeofday], not
    [Sys.time]: CPU time aggregates across domains and would hide any
    parallel speedup). *)

(** A resident domain pool for long-lived services.

    {!map_range} spawns and joins its domains on every call, which is
    fine for one-shot experiment sweeps but wrong for a service that
    keeps loops running for a whole op stream, run after run: domain
    spawn costs would dwarf the work.  A persistent pool spawns its
    [jobs - 1] worker domains once; each {!Persistent.launch} wakes
    them for one {e resident} round — worker [i] runs loop [i] to
    completion while the caller keeps executing — and
    {!Persistent.await} joins it.  The domains park between rounds and
    are reused until {!Persistent.shutdown}. *)
module Persistent : sig
  type t

  val create : jobs:int -> t
  (** Spawns [jobs - 1] worker domains (none when [jobs = 1]: the
      caller is never a worker, so such a pool cannot {!launch}).
      @raise Invalid_argument when [jobs < 1]. *)

  val launch : t -> int -> (int -> unit) -> unit
  (** [launch t n f] starts a resident round and returns immediately:
      worker domain [i] (for [i < n]) runs [f i] once, to completion,
      while the caller keeps executing — the service uses this to keep
      [n] run-to-completion shard loops draining their op rings while
      the caller dispatches into them.  Loop [i] is pinned to worker
      [i]; there is no work-stealing cursor.  The round ends only when
      every [f i] returns (loops must watch their own shutdown
      sentinel); end it with {!await}.
      @raise Invalid_argument when the pool is shut down, a launched
      round is already live, [n < 1], or [n > jobs - 1]. *)

  val failed : t -> bool
  (** Whether any loop of the live launched round has raised — a
      dispatcher polls this so it can stop feeding queues nobody will
      ever drain.  The exception itself is re-raised by {!await}. *)

  val await : t -> unit
  (** Join the launched round: blocks until every loop has returned,
      then re-raises the first loop failure, if any.  No-op when no
      round is live; the pool can {!launch} again afterwards. *)

  val shutdown : t -> unit
  (** Joins the worker domains.  Idempotent; the pool is unusable
      afterwards.  A launched round must be {!await}ed first. *)
end
