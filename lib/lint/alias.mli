(** The module aliases of one unit's typed tree, shared by
    {!Callgraph} and {!Surface}: [module M = P], [module M = F (X)] and
    [let module M = P in] make [M] stand for [P] and [F], so [M.f]
    names [P.f] (or the functor body's [F.f]).  Names are dotted and
    unmangled ([Lr_parallel.Pool.map_range]). *)

type t

val create : unit -> t

val head : Typedtree.module_expr -> Path.t option
(** The module a module expression names, through constraints and
    functor applications ([F (X)] names [F]); [None] for a structure,
    a functor or an unpacked first-class value. *)

val bind : t -> Ident.t -> Typedtree.module_expr -> unit
(** [bind t m me]: [m] stands for [head me], itself expanded through
    the aliases bound so far.  Nothing when [me] has no head. *)

val qualify : t -> Path.t -> string
(** A path's dotted name with a leading alias expanded. *)
