(** ASCII tables and CSV output for the experiment harness. *)

type t

val make : headers:string list -> string list list -> t
(** @raise Invalid_argument when a row's width differs from the
    header's. *)

val render : t -> string
(** Fixed-width ASCII table with a header separator. *)

val to_csv : t -> string

val print : ?title:string -> t -> unit
(** Render to [Format.std_formatter] with an optional underlined title,
    flushing at the end. *)
