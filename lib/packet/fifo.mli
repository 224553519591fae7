(** A bounded FIFO of non-negative ints (packet ids), backed by one
    flat circular buffer — no allocation after [create].  The bound is
    the backpressure signal of the forwarding layer: a full queue
    refuses arrivals, and refusals are what drive both drop accounting
    and the queue-differential reversal trigger. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val push : t -> int -> bool
(** Enqueue at the tail; [false] (and no change) when full. *)

val pop : t -> int
(** Dequeue the head, or [-1] when empty (ids are non-negative, so the
    sentinel is unambiguous). *)

val peek : t -> int
(** The head without removing it, or [-1] when empty. *)

val iter : (int -> unit) -> t -> unit
(** Head-to-tail order. *)
