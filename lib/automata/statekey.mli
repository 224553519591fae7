(** Compact hashed state keys for explicit-state model checking.

    The original model checker keyed visited sets with strings built by
    [Buffer]/[Printf] — one fresh string per state per frontier pop.
    A [Statekey.t] is an int array (typically a few words: orientation
    bitsets, counters, list masks) with its hash precomputed at build
    time, so hashing is O(1) and equality touches the payload only on a
    hash collision.

    Keys are only meaningful within one automaton: two states of the
    same automaton are equal iff their keys are equal.  Encoders must
    ensure injectivity themselves (fixed-width prefixes, explicit
    length markers). *)

type t

(** {1 Building} *)

type builder

val builder : unit -> builder
val add : builder -> int -> unit
val add_array : builder -> int array -> unit

val build : builder -> t
(** Freezes the words added so far; the builder may be reused but keys
    already built are unaffected. *)

(** {1 Hashed containers} *)

module Table : Hashtbl.S with type key = t
