(** Lexicographic chains of comparison results.

    Heights compare lexicographically — PR heights [(pa, pb, pid)] with
    {!lex3}, FR heights [(fa, fid)] with {!lex2} — both in {!Heights}
    and on the fast maintenance engine's flat arrays.  These chain the
    components' already computed [int] comparisons without allocating. *)

val lex2 : int -> int -> int
(** [lex2 c1 c2] is the lexicographic chain of two comparison results:
    [c1] if nonzero, else [c2].  Both arguments are evaluated — intended
    for cheap (int) component comparisons on hot paths. *)

val lex3 : int -> int -> int -> int
(** Three-component chain, same contract as {!lex2}. *)
