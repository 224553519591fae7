(** The asynchronous translation of {e list-based} Partial Reversal:
    nodes keep local views of their incident edge directions plus the
    PR list, reverse when the view says "sink", and notify neighbours
    with [Reversed] messages.

    Two findings, both exercised by the test suite:

    - {b With reliable FIFO links the protocol is correct}, and performs
      {e exactly} the sequential algorithm's per-run work.  The reason
      is structural: an edge can only be flipped by the endpoint it
      currently points at, and the only way to believe an edge points at
      you is to have received the flip notification itself — so flips
      of one edge are serialized by its own message channel, and the
      atomic-step model's "no two neighbouring sinks" carries over.

    - {b Under message loss it breaks}: a lost [Reversed] leaves the two
      endpoint views permanently inconsistent (both can believe the
      shared edge is outgoing), and nothing in the list protocol can
      repair that — unlike the height protocol, where a periodic beacon
      of the current height restores any stale view
      ({!Height_protocol.run}'s [~beacon]).  This is an executable
      account of why deployed link reversal (Gafni–Bertsekas, TORA)
      ships totally ordered heights rather than raw edge flips. *)


type result = {
  stats : Lr_sim.Network.stats;
  view_consistent : bool;
      (** Every edge's two endpoint views agree on its direction. *)
  destination_oriented : bool;
      (** Judged on the union of local views when they are consistent;
          [false] whenever views disagree. *)
  reversals : int;
}

val run : ?jitter:Random.State.t * float -> Linkrev.Config.t -> result
(** One run over reliable links of latency [1.0]. *)

val find_inconsistency :
  ?attempts:int -> ?drop_rate:float -> n:int -> unit -> (int * result) option
(** Search seeds for a random instance on which the {e lossy} protocol
    (default [drop_rate] 0.3) ends inconsistent or unconverged; returns
    the first bad seed and its run.  With reliable links no seed fails
    — that contrast is the module's point. *)
