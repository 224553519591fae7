(** Structured lint findings: rule, location, severity, message, and a
    line-number-free baseline key. *)

type severity = Error | Warning

type t = {
  rule : Rule.t;
  severity : severity;
  file : string;  (** source path as recorded by the compiler, repo-relative *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
  key : string;
      (** stable identity for baselines: [rule:file:message], with a
          [#k] suffix for repeated identical findings in one file; empty
          until {!finalize} runs *)
}

val make :
  rule:Rule.t ->
  severity:severity ->
  file:string ->
  line:int ->
  col:int ->
  string ->
  t

val of_location : rule:Rule.t -> severity:severity -> Location.t -> string -> t

val finalize : t list -> t list
(** Sorts by file, line, column, rule, message and assigns baseline
    keys (occurrence-indexed per rule/file/message). *)

val to_human : t -> string
(** [file:line:col: [rule/severity] message]. *)

val to_json : t -> Json.t
