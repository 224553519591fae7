(** A bounded, lock-free single-producer / single-consumer ring.

    The op-queue primitive of the barrier-free service: the dispatcher
    (single producer) pushes op indices into one ring per shard, and
    whichever loop currently holds the shard's ownership token (single
    consumer {e at a time}) pops them.  Head and tail are monotonically
    increasing atomics masked into a power-of-two buffer; the producer
    publishes a slot by advancing [tail], the consumer frees it by
    advancing [head], and the OCaml memory model's acquire/release
    guarantees for atomics make every slot read see a fully-written
    value.  No locks, no blocking: a full ring refuses the push — that
    refusal {e is} the service's backpressure signal.

    The single-consumer requirement is per {e moment}, not per domain:
    consumption may migrate between domains provided each handoff
    happens through an acquire/release edge (the service's ownership
    tokens are [Atomic] CASes, which qualify).  Concurrent pops from
    two domains without such an edge are a protocol violation. *)

type 'a t

val max_capacity : int
(** [2^24], the largest capacity {!create} accepts. *)

val create : capacity:int -> 'a -> 'a t
(** [create ~capacity dummy] is an empty ring of at least [capacity]
    slots (rounded up to the next power of two).  [dummy] fills unused
    slots so popped values are never retained.
    @raise Invalid_argument when [capacity < 1] or exceeds
    {!max_capacity}. *)

val capacity : 'a t -> int
(** Actual slot count (the rounded-up power of two). *)

val length : 'a t -> int
(** Occupancy snapshot.  Racy by nature: concurrent pushes may be
    missed; exact when the caller is the only active side. *)

val is_empty : 'a t -> bool
(** [length t = 0], slightly cheaper.  Same raciness caveat. *)

val try_push : 'a t -> 'a -> bool
(** Producer only.  [false] means the ring is full right now — the
    caller decides whether that is a rejection or a retry. *)

val try_pop : 'a t -> 'a option
(** Consumer (current token holder) only.  [None] means empty right
    now. *)
