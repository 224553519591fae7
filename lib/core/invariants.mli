(** Machine-checkable statements of the paper's invariants, corollaries
    and theorems.

    Each value is an {!Lr_automata.Invariant.t} whose [check] returns a
    human-readable description of the first violation.  The test suite
    and benchmark harness apply them to every state of random
    executions; the model checker applies them to {e every reachable
    state} of small instances, which is the exact quantification the
    paper's statements use. *)

open Lr_graph

(** {1 Generic} *)

val acyclic : graph_of:('s -> Digraph.t) -> 's Lr_automata.Invariant.t
(** Theorem 4.3 / 5.5: the underlying directed graph is acyclic. *)

val skeleton_preserved :
  Config.t -> graph_of:('s -> Digraph.t) -> 's Lr_automata.Invariant.t
(** The system-model assumption: [G] never changes, only orientations. *)

(** {1 PR (Section 3)} *)

val pr_inv_3_1 : Config.t -> Pr.state Lr_automata.Invariant.t
(** Invariant 3.1: [dir\[u,v\] = in] iff [dir\[v,u\] = out], for every
    skeleton edge.  (Our orientation representation discharges this by
    construction; the executable check confirms both views are
    consistent and every skeleton edge is oriented.) *)

val pr_inv_3_2 : Config.t -> Pr.state Lr_automata.Invariant.t
(** Invariant 3.2: for every node exactly one of the two list
    characterizations holds.  A node with no neighbours, which
    satisfies both vacuously, is skipped: the paper's graphs are
    connected, but {!Config.make} accepts isolated nodes. *)

val pr_cor_3_3 : Config.t -> Pr.state Lr_automata.Invariant.t
(** Corollary 3.3: [list\[u\] ⊆ in-nbrs_u] or [list\[u\] ⊆ out-nbrs_u]. *)

val pr_cor_3_4 : Config.t -> Pr.state Lr_automata.Invariant.t
(** Corollary 3.4: at a sink, [list\[u\] = in-nbrs_u] or
    [= out-nbrs_u]. *)

val pr_all : Config.t -> Pr.state Lr_automata.Invariant.t
(** Conjunction of all PR invariants plus acyclicity. *)

(** {1 NewPR (Section 4)} *)

val newpr_inv_4_1 : Config.t -> New_pr.state Lr_automata.Invariant.t
(** Invariant 4.1: equal even parities ⇒ the shared edge points left to
    right in the fixed embedding; equal odd parities ⇒ right to left. *)

val newpr_inv_4_2 : Config.t -> New_pr.state Lr_automata.Invariant.t
(** Invariant 4.2 (a)–(d) on neighbouring step counts and directions. *)

val newpr_all : Config.t -> New_pr.state Lr_automata.Invariant.t
