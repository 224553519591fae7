(** Streaming trace decoder.

    Reads a trace file incrementally (64 KiB buffer — a 10⁷-event D-F9
    trace is never resident in memory) and validates as it goes: magic,
    version, engine tag, node ids against the header's [n], and the
    mandatory end-of-trace summary.  Every malformation — including a
    truncated or bit-flipped file — is reported as [Error message]
    carrying the byte offset; no exception escapes decode internals.

    Consumers ({!Replay}, {!Audit}) open a trace with {!with_file} and
    walk its events with {!fold}, the one event loop. *)

type t

val with_file : string -> (t -> ('a, string) result) -> ('a, string) result
(** [with_file path f] opens [path], decodes its header, applies [f] to
    the reader and always closes the file, also when [f] raises.  A
    file that cannot be opened or whose header does not decode is an
    [Error]; [f] is not called. *)

val header : t -> Event.header

val bytes_read : t -> int
(** Bytes consumed so far (the whole file once {!fold} has returned
    [Ok]). *)

val fold :
  t ->
  init:'a ->
  f:('a -> int -> Event.t -> ('a, string) result) ->
  finish:('a -> Event.summary -> ('b, string) result) ->
  ('b, string) result
(** The one event loop every trace consumer runs on: applies [f] to
    each remaining event with its index (from 0), requires a
    well-formed end record with nothing after it, and passes it to
    [finish].  The first [Error] — from decoding, [f] or [finish] —
    stops the pass. *)
