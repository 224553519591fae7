(* Buffered varint encoder.  The step loop of a recorded engine calls
   into this once per event, so the hot path is branch-light: one
   capacity check per bounded write group, unsafe byte stores into a
   64 KiB scratch buffer, no allocation. *)

type t = {
  oc : out_channel;
  buf : Bytes.t;
  mutable pos : int;
  mutable flushed : int;
  mutable events : int;
  mutable closed : bool;
}

type stats = { events : int; bytes : int }

let magic = "LRT1"
let version = 2
let min_version = 1
let tag_end = 0
let tag_step = 1
let tag_dummy = 2
let tag_stale = 3
let buf_size = 1 lsl 16

let flush t =
  if t.pos > 0 then begin
    output t.oc t.buf 0 t.pos;
    t.flushed <- t.flushed + t.pos;
    t.pos <- 0
  end

(* Room for [k] more bytes.  Callers reserve before a bounded group of
   puts; a varint needs at most 10 bytes. *)
let ensure t k = if t.pos + k > buf_size then flush t

let put_byte t b =
  Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (b land 0xff));
  t.pos <- t.pos + 1

(* Unsigned LEB128; requires [v >= 0] (all wire quantities are). *)
let rec put_varint t v =
  if v < 0x80 then put_byte t v
  else begin
    put_byte t (v land 0x7f lor 0x80);
    put_varint t (v lsr 7)
  end

let put_fixed64 t x =
  ensure t 8;
  for i = 0 to 7 do
    put_byte t (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff)
  done

let create path (h : Event.header) =
  let oc = open_out_bin path in
  let t =
    { oc; buf = Bytes.create buf_size; pos = 0; flushed = 0; events = 0;
      closed = false }
  in
  Bytes.blit_string magic 0 t.buf 0 4;
  t.pos <- 4;
  put_varint t version;
  put_byte t (Event.engine_tag h.Event.engine);
  put_varint t (h.Event.seed + 1);
  (* -1 = unknown, stored as 0 *)
  put_varint t h.Event.n;
  put_varint t h.Event.destination;
  put_varint t (List.length h.Event.edges);
  List.iter
    (fun (u, v) ->
      ensure t 20;
      put_varint t u;
      put_varint t v)
    h.Event.edges;
  put_fixed64 t h.Event.fingerprint;
  t

(* A step's tag byte packs the slot count into its high 6 bits
   ([0x3f] = escape: explicit varint count follows), so the common
   small-degree step costs one byte for tag + count together. *)
let step (t : t) ~node ~slots ~len =
  t.events <- t.events + 1;
  ensure t 31;
  if len < 0x3f then put_byte t (tag_step lor (len lsl 2))
  else begin
    put_byte t (tag_step lor (0x3f lsl 2));
    put_varint t len
  end;
  put_varint t node;
  for i = 0 to len - 1 do
    ensure t 10;
    put_varint t (Array.unsafe_get slots i)
  done

let event1 (t : t) tag u =
  t.events <- t.events + 1;
  ensure t 11;
  put_byte t tag;
  put_varint t u

let dummy t u = event1 t tag_dummy u
let stale t u = event1 t tag_stale u

(* A perturbation reuses [tag_end]'s tag bits with a non-zero count
   field: the end record is always written with high bits 0, so
   [hi = k+1] (escape 0x3f as in steps) is unambiguous.  Version-1
   readers reject these files by version, never misparse them. *)
let perturb (t : t) ~node ~slots ~len =
  t.events <- t.events + 1;
  ensure t 31;
  if len + 1 < 0x3f then put_byte t (tag_end lor ((len + 1) lsl 2))
  else begin
    put_byte t (tag_end lor (0x3f lsl 2));
    put_varint t len
  end;
  put_varint t node;
  for i = 0 to len - 1 do
    ensure t 10;
    put_varint t (Array.unsafe_get slots i)
  done

(* Events and bytes written so far (buffered bytes included). *)
let stats (t : t) = { events = t.events; bytes = t.flushed + t.pos }

let close t (s : Event.summary) =
  if t.closed then invalid_arg "Writer.close: already closed";
  ensure t 31;
  put_byte t tag_end;
  put_varint t s.Event.work;
  put_varint t s.Event.edge_reversals;
  put_varint t s.Event.wall_ns;
  put_fixed64 t s.Event.final_fingerprint;
  let r = stats t in
  flush t;
  close_out t.oc;
  t.closed <- true;
  r

let abort t =
  if not t.closed then begin
    flush t;
    close_out t.oc;
    t.closed <- true
  end
