(** Growable flat-array union-find with seniority-ranked
    representatives and per-class dirty bits.

    This is the component index behind {e Fast_maintenance}: merges
    (link-up) are O(α) unions, membership is O(α) finds, and splits
    (link-down) — which classic union-find cannot express — are handled
    by {e re-identification}: the detached members {!retire} their old
    slots and move to {!fresh} ones.  The retired slots stay behind as
    {e ghosts}, still wired into the old class's parent tree, so
    surviving members whose find paths run through them keep resolving
    to the right representative without any repair sweep.

    Representatives are chosen by {e seniority} (cf. the
    keelung-compiler [Seniority] ranking): {!union} keeps the root with
    the higher rank (ties: the lower slot), so the most stable element
    — in the routing engine: the shard destination, then the
    highest-degree node, then the lowest id — anchors its class and
    per-node caches keyed near it survive merges untouched.

    Each class root also carries a {e dirty} bit for lazy split
    handling: a caller that cannot (or chooses not to) resolve a
    disconnection immediately calls {!mark_dirty}, turning the class
    into a sound {e over-approximation} of connectivity — membership of
    a dirty class means "was connected when last exact".  Queries
    against a clean class are exact.  A dirty class is never cleaned in
    place: the caller re-identifies the side it can enumerate onto
    {!fresh} (clean) slots when exactness starts to matter, and the
    rest keeps the dirty class. *)

type t

val create : int -> t
(** [create n] is [n] singleton classes on slots [0 .. n-1], every
    rank 0, all clean.  @raise Invalid_argument when [n < 0]. *)

val reset : t -> int -> unit
(** [reset t n] turns [t] into [create n] in place: [n] clean
    singletons of rank 0 on slots [0 .. n-1], every ghost and later
    slot dropped.  The backing arrays keep their capacity, so a reset
    to at most the slots [t] already holds allocates nothing.
    @raise Invalid_argument when [n < 0]. *)

val length : t -> int
(** Slots allocated so far (initial [n] plus every {!fresh} since
    {!create} or the last {!reset}).  Grows monotonically in between —
    callers watching for compaction pressure compare this against their
    live-element count. *)

val find : t -> int -> int
(** Representative slot of the class of a slot (path halving,
    amortized O(α)). *)

val same : t -> int -> int -> bool
(** [same t a b] iff the two slots are in one class. *)

val size : t -> int -> int
(** Live members of the slot's class (retired ghosts not counted). *)

val rank : t -> int -> int
(** The slot's own seniority rank (meaningful at representatives). *)

val set_rank : t -> int -> int -> unit
(** Update a slot's seniority rank (e.g. after a degree change).
    Affects only future {!union} decisions. *)

val union : t -> int -> int -> int
(** Merge two classes and return the surviving representative: the
    root of higher rank (ties: lower slot).  Sizes add, and dirtiness
    is inherited from either side.  Returns the common root unchanged
    when already joined. *)

val fresh : t -> rank:int -> int
(** Allocate a new singleton slot (clean) with the given rank.
    Backing arrays grow by doubling. *)

val retire : t -> int -> unit
(** Remove one live member from the slot's class: its size drops by
    one.  The slot itself becomes a ghost — it keeps forwarding [find]
    traffic through the old tree, but the caller must never use it as
    an identity again (pair with {!fresh} to give the element its next
    identity). *)

val mark_dirty : t -> int -> unit
(** Mark the slot's class dirty — its membership is now an
    over-approximation (a disconnection happened inside it that has
    not been resolved). *)

val dirty : t -> int -> bool
(** Whether the slot's class is dirty. *)
