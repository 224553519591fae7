(** Rule L9, unused surface: exports of the reported interfaces that
    no other unit uses, and optional parameters of exports that no
    other unit's call supplies.

    Uses count from every unit given, whatever its directory.  A value
    counts as used when another unit names it, includes its module,
    packs that module as a first-class value, passes it as a functor
    argument or seals it with a signature that takes the value.  An
    export only units under [test/] (outside the reported dirs) use is
    listed in [test_only] and not flagged; so is an optional parameter
    only they supply. *)

type finding = { loc : Location.t; message : string }

type t = {
  exports : int;  (** values the reported interfaces export *)
  optionals : int;  (** optional parameters of those values *)
  findings : finding list;
      (** unused exports at their [val] line, never-passed optional
          parameters at their label *)
  test_only : string list;
      (** ["Shard.apply"], ["Table.print ?ppf"]: used only by tests *)
}

val analyse : report_dirs:string list -> Cmt_unit.t list -> t
(** [analyse ~report_dirs units] reads the [.cmti] of every unit under
    [report_dirs] and the typed trees of all [units]. *)
