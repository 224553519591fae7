(** An asynchronous message-passing network simulator.

    Nodes of an undirected topology exchange messages over FIFO links
    with configurable (possibly jittered) latency.  The engine delivers
    one message at a time in simulated-time order; node behaviour is a
    pure handler returning the new local state plus messages to send to
    neighbours.  Everything is deterministic given the RNG seed.

    This is the substrate for the asynchronous height protocol of
    [lr_routing]: the paper's automata take atomic global steps, while a
    real ad-hoc network — link reversal's motivating deployment — runs
    exactly this kind of message-driven loop. *)

open Lr_graph

type 'msg send = { dest : Node.t; msg : 'msg }

type ('state, 'msg) handler = {
  init : Node.t -> Node.Set.t -> 'state * 'msg send list;
      (** Called once per node with its neighbour set. *)
  on_message :
    Node.t -> 'state -> from:Node.t -> 'msg -> 'state * 'msg send list;
}

type ('state, 'msg) t

type stats = {
  delivered : int;
  sent : int;
  final_time : float;
  completed : bool;  (** False when stopped by a delivery budget. *)
}

val create :
  topology:Undirected.t ->
  latency:(Node.t -> Node.t -> float) ->
  ?jitter:(Random.State.t * float) ->
  ?drop:(Random.State.t * float) ->
  ?timer:(float * (Node.t -> 'state -> 'state * 'msg send list)) ->
  ('state, 'msg) handler ->
  ('state, 'msg) t
(** [latency u v] is the base one-way delay of link [{u,v}].  With
    [~jitter:(rng, j)] each message adds a uniform extra delay in
    [0, j); FIFO order per link is still enforced.  With
    [~drop:(rng, p)] each message is lost with probability [p] (the
    send still counts in [stats.sent]; a [dropped] counter records the
    losses).  With [~timer:(interval, tick)] every node receives a
    periodic tick — the substrate for beacons and retransmission;
    timed runs must bound time via {!run}'s [until].  Sends to
    non-neighbours raise [Invalid_argument] at send time. *)

val run : ?max_deliveries:int -> ?until:float -> ('state, 'msg) t -> stats
(** Deliver messages until the network is quiet (default budget
    [1_000_000]).  With [~until:t] delivery stops at simulated time [t]
    — required for runs with a timer, which are never quiet. *)

val dropped : ('state, 'msg) t -> int

val state : ('state, 'msg) t -> Node.t -> 'state
(** @raise Not_found for nodes outside the topology. *)

val states : ('state, 'msg) t -> (Node.t * 'state) list
