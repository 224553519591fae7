(** Seeded link-churn tapes for the maintenance engines.

    One churn model drives the D-S2 ladder and [linkrev storm]: every
    41st event fails a random non-destination node, every other even
    event takes down a link drawn uniformly from the present edge set,
    and the remaining events try to link a random absent pair.  Random
    pairs alone would almost never hit a present link at scale, hence
    the edge-set draw for link-downs.

    A tape is generated from a pure edge-set model, never from an
    engine, so it depends only on the RNG state and the initial
    topology and replays identically on both tiers. *)

type op =
  | Down of int * int  (** Take down the present link [{u, v}]. *)
  | Up of int * int  (** Add the absent link [{u, v}]. *)
  | Fail of int  (** Fail a non-destination node with all its links. *)

val tape : Random.State.t -> events:int -> Linkrev.Config.t -> op array
(** [events] draws of the churn model, starting from the initial
    topology of the configuration (node ids [0 .. n-1]).  An [Up] draw
    that hits a present pair or a self-loop emits nothing, so the tape
    can be shorter than [events].  Its [Down] links have [u < v]. *)

val apply_fast : Fast_maintenance.t -> op -> bool
(** Apply one op to the fast tier; [true] when it cut nodes off the
    destination's component ([Partitioned]). *)

val apply_reference : Maintenance.t -> op -> bool
(** {!apply_fast} on the persistent reference tier. *)
