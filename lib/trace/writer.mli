(** Buffered binary trace writer.

    Wire format (all integers unsigned LEB128 varints unless noted):
    {v
    "LRT1"  version  engine-tag(byte)  seed+1  n  destination
    |edges|  (u v)*  fingerprint(8 bytes LE)
    event*  end-record
    v}
    Every event starts with a tag byte whose low 2 bits name the kind.
    A step is [tag node slot*] with the slot count packed into the tag
    byte's high 6 bits ([0x3f] = escape: an explicit varint count
    follows the tag); slots index the node's sorted adjacency row, so
    the common small-degree step costs 1 tag byte + 1 byte per slot
    regardless of [n].  Dummy and stale are [0x02 node] / [0x03 node]
    (high bits zero); the end record is [0x00 work edge_reversals
    wall_ns final_fingerprint(8 bytes LE)].  A file without an end
    record is a truncated recording and {!Reader} rejects it.

    Version 2 adds the perturbation event on the end-record's tag bits
    with a {e non-zero} count field: [hi = slot-count + 1] (escape
    [0x3f] as in steps), then [node slot*].  The end record always has
    high bits zero, so the two cannot collide; version-1 files never
    contain perturbations and version-1 readers reject version-2 files
    up front by version number.  {!Reader} accepts both versions.

    The writer buffers 64 KiB and never allocates on the per-event
    path, so recording keeps the engines' step loops allocation-free
    (D-O1 measures the residual overhead). *)

type t

type stats = { events : int; bytes : int }

val magic : string

val version : int
(** The version written to new files. *)

val min_version : int
(** The oldest version {!Reader} still accepts. *)

val tag_end : int
val tag_step : int
val tag_dummy : int
val tag_stale : int

val create : string -> Event.header -> t
(** Opens the file and writes the header. *)

val step : t -> node:int -> slots:int array -> len:int -> unit
(** Appends a step event reversing the first [len] entries of
    [slots] (ascending indices into [node]'s sorted adjacency row; the
    array may be a larger scratch buffer). *)

val dummy : t -> int -> unit
val stale : t -> int -> unit

val perturb : t -> node:int -> slots:int array -> len:int -> unit
(** Appends a perturbation event (chaos fault injection): the first
    [len] entries of [slots] are the ascending adjacency-row indices of
    the incoming edges of [node] that were forcibly flipped outward. *)

val close : t -> Event.summary -> stats
(** Writes the end record, flushes and closes the file. *)

val abort : t -> unit
(** Flush and close {e without} an end record — the file is left
    deliberately truncated (e.g. when the recorded run raised). *)
