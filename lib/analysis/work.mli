(** Work measurements: how many reversal steps an algorithm needs on a
    graph family, and how that scales — the quantitative context of the
    paper's Section 1 (the Θ(n_b²) worst case shared by FR and PR, and
    PR's practical advantage). *)

open Lr_graph

type algorithm = FR | PR | NewPR | FR_heights | PR_heights

val algorithm_name : algorithm -> string

val run_one :
  ?seed:int ->
  ?max_steps:int ->
  algorithm ->
  Linkrev.Config.t ->
  Linkrev.Executor.outcome
(** One run to quiescence under a seeded random single-node scheduler. *)

type row = {
  n : int;  (** Requested family size. *)
  nodes : int;
  bad : int;  (** Initially route-less nodes ([n_b]). *)
  work : int;  (** Total node steps. *)
  edge_reversals : int;
  quiescent : bool;
  oriented : bool;
}

val sweep :
  ?seed:int ->
  ?max_steps:int ->
  ?jobs:int ->
  algorithm ->
  family:(int -> Generators.instance) ->
  sizes:int list ->
  unit ->
  row list
(** With [jobs > 1] the sizes run on a domain pool
    ({!Lr_parallel.Pool.map_range}); rows come back in size order
    either way.  [family] must then be domain-safe: derive any
    randomness from [n] and the seed, never from shared mutable
    state. *)

val sweep_fast :
  ?max_steps:int ->
  ?jobs:int ->
  algorithm ->
  family:(int -> Generators.instance) ->
  sizes:int list ->
  unit ->
  row list
(** [sweep] served by the mutable array engine ({!Lr_fast.Fast_engine},
    under the matching rule) instead of the persistent executor.  Work
    is schedule-independent for FR, PR and NewPR, and the fast engine
    is differentially tested against the persistent automata, so the
    rows are identical to {!sweep}'s — just orders of magnitude sooner
    on the quadratic families.  Supports [FR]/[PR]/[NewPR] only;
    @raise Invalid_argument for the heights variants (no fast engine
    implements them). *)

val exponent : row list -> float
(** Growth exponent of [work] against [bad] (log-log slope); rows with
    zero work or zero bad nodes are ignored. *)

val rows_to_table : algorithm -> row list -> Table.t
