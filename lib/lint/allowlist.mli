(** The lint allowlist: serialized-by-design state the rules must not
    report (shard queues, worklists, ...).

    File format, one entry per line:
    {v
    # comment
    L2 Lr_service.Shard.queue      # one rule, one qualified name
    Lr_fast.*                      # trailing * is a prefix wildcard
    v}
    An entry without a rule id applies to every rule.  Qualified names
    are dot-separated module paths as the linter reports them
    ([Lib.Module.value]). *)

type t

val empty : t

val mem : t -> rule:Rule.t -> string -> bool
(** Is [name] allowlisted for [rule]?  Matching entries are marked
    used (see {!unused}). *)

val of_lines : string list -> (t, string) result
val load : string -> (t, string) result

val unused : t -> string list
(** Entries never matched by any {!mem} call since loading, rendered
    back in file syntax ([\[RULE \]pattern]).  A lint run that ends
    with unused entries is carrying dead suppressions; [--allow-strict]
    turns that into a failure. *)
