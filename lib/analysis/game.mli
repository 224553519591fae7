(** The link reversal game of Charron-Bost, Welch and Widder ("Link
    reversal: how to play better to work less"), in executable form.

    Every non-destination node picks a strategy — play Full Reversal or
    Partial Reversal whenever it is a sink — and pays its own number of
    reversal steps until the system quiesces.  The cited results this
    module reproduces on small graphs:

    - the all-FR profile is a Nash equilibrium, and among the costliest;
    - the all-PR profile costs no more than all-FR, and when it is an
      equilibrium it attains the social optimum.

    Play is deterministic (lowest-id sink first), so unilateral
    deviations are directly comparable.  Mixed profiles are not covered
    by either of the paper's acyclicity proofs, so the engine monitors
    acyclicity and termination at every step and reports violations
    rather than assuming them. *)

open Lr_graph

type strategy = Full | Partial

type profile = strategy Node.Map.t

type result = {
  costs : int Node.Map.t;  (** Steps taken per node. *)
  social_cost : int;
  terminated : bool;  (** Quiesced within the step budget. *)
  acyclic_throughout : bool;
}

val uniform : strategy -> Linkrev.Config.t -> profile

val play : Linkrev.Config.t -> profile -> result
(** Budget: [4·n² + 1000] steps. *)

val all_profiles : Linkrev.Config.t -> profile list
(** All [2^(n-1)] strategy assignments to non-destination nodes (the
    destination never plays).  Intended for small [n]. *)

val best_response_violations :
  Linkrev.Config.t -> profile -> (Node.t * int * int) list
(** Nodes that can strictly lower their own cost by switching strategy:
    [(node, current cost, deviation cost)].  Empty iff the profile is a
    Nash equilibrium. *)

val is_nash : Linkrev.Config.t -> profile -> bool

val social_optimum : Linkrev.Config.t -> profile * result
(** Exhaustive minimum over {!all_profiles} (small graphs only). *)
