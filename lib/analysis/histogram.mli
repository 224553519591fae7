(** ASCII bar charts — the harness's "figures".

    Renders labeled series as horizontal bars scaled to a fixed width,
    so a work-vs-size sweep reads as a shape (linear vs quadratic) right
    in the terminal output. *)

type series = { label : string; value : float }

val render : ?width:int -> series list -> string
(** Horizontal bars scaled so the largest value spans [width] (default
    50) characters.  Empty input renders as a note. *)

val of_int_series : (string * int) list -> series list

val render_compare : labels:string * string -> (string * float * float) list -> string
(** Paired bars per row ([labels] names the two series), 40 characters
    at the longest — used for the FR-vs-PR figures. *)
