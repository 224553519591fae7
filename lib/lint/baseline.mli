(** Lint baselines: a JSON file of accepted findings.

    [linkrev lint --baseline lint_baseline.json] subtracts the recorded
    findings from the report and exits zero when nothing new appeared;
    [--write-baseline] records the current findings.  Entries are keyed
    by {!Diagnostic.t.key} (no line numbers), so unrelated edits to a
    file do not invalidate its baseline, while a {e second} copy of a
    baselined defect is still reported. *)

type t

val save : string -> Diagnostic.t list -> unit
val load : string -> (t, string) result

val apply : t -> Diagnostic.t list -> Diagnostic.t list * int
(** [apply t diags] is [(kept, suppressed)]: the findings not covered
    by the baseline, in input order, and how many were suppressed. *)
