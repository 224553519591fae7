(** Executable checkers for the classic link reversal metatheorems that
    surround the paper — the facts its introduction takes as given.

    Each checker runs the relevant algorithm(s) on one instance and
    returns [Ok ()] or a description of the discrepancy.  They are used
    by the test suite and the experiment harness; none of them is
    expected to ever fail on correct algorithms (that is the point). *)


val confluence : ?seed:int -> Config.t -> (unit, string) result
(** Gafni–Bertsekas determinism: every fair execution of PR reaches the
    {e same} quiescent orientation with the {e same} per-node step
    counts.  Compares five different schedulers. *)

val schedule_independent_work : ?seed:int -> Config.t -> (unit, string) result
(** The per-node work part of {!confluence} alone. *)

val good_nodes_never_reverse :
  ?seed:int -> Config.t -> (unit, string) result
(** Busch et al.: a node with an initial route to the destination takes
    no steps, under PR and FR alike. *)

val termination_upper_bound : ?seed:int -> Config.t -> (unit, string) result
(** Total work is at most [n_b * (n_b + 1)] for PR on any instance
    (a safe form of the Θ(n_b²) bound: [n_b] bad nodes each step at
    most... the measured run must stay within [n_b² + n_b]), and FR
    within the same envelope.  Violations would contradict the cited
    worst-case analysis. *)

val quiescence_is_destination_orientation :
  ?seed:int -> Config.t -> (unit, string) result
(** On connected instances: the run is quiescent iff every node has a
    route (the correctness property routing needs). *)

val all : ?seed:int -> Config.t -> (string * (unit, string) result) list
(** Every checker above, labelled. *)
