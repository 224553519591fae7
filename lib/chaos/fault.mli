(** The typed fault model of the chaos harness.

    Each fault names one way a deployed link-reversal service can be
    damaged; {!compile} lowers it to the ordinary service op stream so
    faults flow through the same shard dispatch, metrics and
    determinism fingerprints as regular traffic:

    - [Corrupt_heights]: overwrite a whole shard's height arrays with
      the canonical hostile assignment
      ({!Lr_service.Shard.hostile_height}) — memory corruption of the
      routing state, the self-stabilization paper's "arbitrary initial
      state".
    - [Flip_route_bit]: flip one bit of one node's [pa] height — a
      mid-flight single-event upset.
    - [Partition] / [Heal_partition]: tear down (resp. restore) the
      edge cut around a seeded BFS ball — a component partition and
      its heal.  Both sides re-derive the same cut from the same seed.
    - [Crash_burst]: a burst of destination crashes and failovers.
    - [Poison_queue]: flood one source queue far past its capacity,
      then drain — exercises packet backpressure and drop honesty.

    Everything here is deterministic: the compiled op list is a pure
    function of the fault and the per-shard base topologies. *)

open Lr_graph
open Lr_service

type t =
  | Corrupt_heights of { shard : int; seed : int; magnitude : int }
  | Flip_route_bit of { shard : int; node : int; bit : int }
  | Partition of { shard : int; seed : int }
  | Heal_partition of { shard : int; seed : int }
  | Crash_burst of { shard : int; count : int }
  | Poison_queue of { shard : int; src : int; count : int }

val shard_of : t -> int

val cut : Digraph.t -> seed:int -> (Node.t * Node.t) list
(** The deterministic boundary-edge list of a seeded BFS ball of
    roughly a quarter of the component — the edges a [Partition] fault
    tears down and its [Heal_partition] restores.  Ascending id order
    on both endpoints; empty for graphs with fewer than two nodes. *)

val compile : graphs:Digraph.t array -> t -> Op.t list
(** Lower the fault to service ops against the given per-shard base
    topologies ([graphs.(i)] = shard [i]'s initial graph).
    @raise Invalid_argument when the fault's shard is out of range. *)
