(* Streaming decoder.  All decode failures — truncation, bad magic,
   varint overflow, out-of-range ids — are raised internally as
   [Corrupt] and surface as [Error] at every public entry point, so a
   damaged file can never leak an exception from decode internals. *)

exception Corrupt of string

type t = {
  ic : in_channel;
  buf : Bytes.t;
  mutable pos : int;  (* cursor within [buf.(0 .. len-1)] *)
  mutable len : int;
  mutable base : int;  (* file offset of buf.(0) *)
  mutable eof : bool;
  header : Event.header;
}

type item = Event of Event.t | End of Event.summary

let buf_size = 1 lsl 16

let corrupt t fmt =
  Printf.ksprintf (fun m ->
      raise (Corrupt (Printf.sprintf "byte %d: %s" (t.base + t.pos) m)))
    fmt

let refill t =
  if t.pos >= t.len && not t.eof then begin
    t.base <- t.base + t.len;
    t.pos <- 0;
    t.len <- input t.ic t.buf 0 buf_size;
    if t.len = 0 then t.eof <- true
  end

let at_eof t =
  refill t;
  t.eof && t.pos >= t.len

let byte t =
  refill t;
  if t.pos >= t.len then corrupt t "truncated file";
  let b = Char.code (Bytes.unsafe_get t.buf t.pos) in
  t.pos <- t.pos + 1;
  b

let varint t =
  let rec go shift acc =
    if shift > 62 then corrupt t "varint overflow";
    let b = byte t in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let fixed64 t =
  let x = ref 0L in
  for i = 0 to 7 do
    x := Int64.logor !x (Int64.shift_left (Int64.of_int (byte t)) (8 * i))
  done;
  !x

let node_id t n what =
  let u = varint t in
  if u >= n then corrupt t "%s %d out of range (n = %d)" what u n;
  u

let read_header raw =
  let m = Bytes.create 4 in
  (try really_input raw.ic m 0 4
   with End_of_file -> raise (Corrupt "truncated file: no magic"));
  if Bytes.to_string m <> Writer.magic then
    raise (Corrupt "bad magic: not an lr_trace file");
  raw.base <- 4;
  let version = varint raw in
  if version < Writer.min_version || version > Writer.version then
    raise (Corrupt (Printf.sprintf "unsupported trace version %d" version));
  let engine =
    let tag = byte raw in
    match Event.engine_of_tag tag with
    | Some e -> e
    | None -> corrupt raw "unknown engine tag %d" tag
  in
  let seed = varint raw - 1 in
  let n = varint raw in
  let destination = node_id raw n "destination" in
  let num_edges = varint raw in
  if num_edges > n * n then corrupt raw "implausible edge count %d" num_edges;
  let edges =
    List.init num_edges (fun _ ->
        let u = node_id raw n "edge endpoint" in
        let v = node_id raw n "edge endpoint" in
        if u = v then corrupt raw "self-loop %d-%d" u v;
        (u, v))
  in
  let fingerprint = fixed64 raw in
  { Event.engine; seed; n; destination; edges; fingerprint }

let open_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      let raw =
        {
          ic;
          buf = Bytes.create buf_size;
          pos = 0;
          len = 0;
          base = 0;
          eof = false;
          header =
            (* placeholder, replaced below *)
            { Event.engine = Event.Pr; seed = -1; n = 0; destination = 0;
              edges = []; fingerprint = 0L };
        }
      in
      match read_header raw with
      | header -> Ok { raw with header }
      | exception Corrupt m ->
          close_in_noerr ic;
          Error m)

let header t = t.header
let bytes_read t = t.base + t.pos
let close t = close_in_noerr t.ic

let next t =
  let n = t.header.Event.n in
  match
    if at_eof t then corrupt t "truncated file: missing end-of-trace summary";
    let b = byte t in
    let tag = b land 0x03 in
    let hi = b lsr 2 in
    if tag = Writer.tag_step then begin
      let k = if hi = 0x3f then varint t else hi in
      if k > n then corrupt t "step reverses %d edges (n = %d)" k n;
      let node = node_id t n "step node" in
      let slots = Array.init k (fun _ -> node_id t n "reversed slot") in
      Event (Event.Step { node; slots })
    end
    else if tag = Writer.tag_end && hi <> 0 then begin
      (* Version-2 perturbation: count field is [k + 1], 0x3f escapes
         to an explicit varint (see Writer). *)
      let k = if hi = 0x3f then varint t else hi - 1 in
      if k > n then corrupt t "perturb flips %d edges (n = %d)" k n;
      let node = node_id t n "perturb node" in
      let slots = Array.init k (fun _ -> node_id t n "flipped slot") in
      Event (Event.Perturb { node; slots })
    end
    else if hi <> 0 then corrupt t "unknown event tag %d" b
    else if tag = Writer.tag_dummy then Event (Event.Dummy (node_id t n "node"))
    else if tag = Writer.tag_stale then Event (Event.Stale (node_id t n "node"))
    else if tag = Writer.tag_end then begin
      let work = varint t in
      let edge_reversals = varint t in
      let wall_ns = varint t in
      let final_fingerprint = fixed64 t in
      if not (at_eof t) then corrupt t "trailing bytes after summary";
      End { Event.work; edge_reversals; wall_ns; final_fingerprint }
    end
    else corrupt t "unknown event tag %d" tag
  with
  | item -> Ok item
  | exception Corrupt m -> Error m

let with_file path f =
  match open_file path with
  | Error _ as e -> e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let fold t ~init ~f ~finish =
  let rec loop i acc =
    match next t with
    | Error _ as e -> e
    | Ok (End summary) -> finish acc summary
    | Ok (Event e) -> (
        match f acc i e with Error _ as e -> e | Ok acc -> loop (i + 1) acc)
  in
  loop 0 init
