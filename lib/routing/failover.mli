(** Leader election after a destination crash.

    When the destination of a link reversal routing structure fails,
    each surviving connected component must agree on a replacement and
    re-orient toward it — the leader-election application of link
    reversal from Welch–Walter.  The election rule here is the simple
    deterministic one (highest node id wins); the interesting part is
    the re-orientation, which is plain Partial/Full Reversal with the
    new leader as destination.

    Each component re-orients in its own {!Maintenance} session, seeded
    with {!Maintenance.initial_heights} on the crash-stripped graph, so
    the work counted is exactly {!Maintenance.stabilize}'s.  This is the
    persistent reference: the service's fast tier fails over natively
    ({!Fast_maintenance.survivor_components},
    {!Fast_maintenance.reroot}) and tests and benches check it against
    this module. *)

open Lr_graph

type outcome = {
  leader : Node.t;
  members : Node.Set.t;
  node_steps : int;  (** Reversal work to re-orient the component. *)
  oriented : bool;   (** All members have a route to the leader. *)
}

val elect_after_destination_failure :
  Maintenance.rule -> Linkrev.Config.t -> outcome list
(** Crash the configuration's destination, then for every surviving
    component elect the highest-id member and run reversals until the
    component is leader-oriented.  One outcome per component (singleton
    components elect themselves with zero work). *)
