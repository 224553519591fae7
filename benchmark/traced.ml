(* The traced replay behind the per-layer metrics.

   Every op of the stream is applied in order, single-threaded, to fresh
   [Shard.t]s, with a span around each [Shard.apply].  Each shard has an
   engine twin: a bare [Fast_maintenance.t] that receives the same ops
   through the engine's own public calls (and, on a crash, the failover
   sequence the shard performs).  Twin spans carry the op's index, so a
   shard op's wrapper self time is its span minus its twin's; and every
   twin answer must equal the shard's response. *)

open Lr_graph
module Shard = Lr_service.Shard
module Op = Lr_service.Op
module FM = Lr_routing.Fast_maintenance
module Maintenance = Lr_routing.Maintenance
module Failover = Lr_routing.Failover

let rule = Maintenance.Partial_reversal

type span = {
  op : int;  (* index of the op in the stream *)
  name : string;
  parent : string;  (* enclosing span's name; "" for a top-level span *)
  t0 : int;  (* monotonic ns *)
  t1 : int;
}

(* Spans stay in memory during the replay and are summarized (and
   optionally written) after it. *)
type recorder = { mutable buf : span array; mutable len : int }

let push r s =
  if r.len = Array.length r.buf then begin
    let grown = Array.make (2 * r.len) s in
    Array.blit r.buf 0 grown 0 r.len;
    r.buf <- grown
  end;
  r.buf.(r.len) <- s;
  r.len <- r.len + 1

let span r ~op ?(parent = "") name f =
  let t0 = Workloads.now_ns () in
  let x = f () in
  push r { op; name; parent; t0; t1 = Workloads.now_ns () };
  x

let kind_name = function
  | Op.Route _ -> "route"
  | Op.Link_down _ -> "link_down"
  | Op.Link_up _ -> "link_up"
  | Op.Crash_destination _ -> "crash"
  | Op.Inject _ -> "inject"
  | Op.Forward _ -> "forward"
  | Op.Corrupt _ -> "corrupt"
  | Op.Flip _ -> "flip"
  | Op.Stats -> "stats"

let kinds =
  [ "route"; "link_down"; "link_up"; "crash"; "inject"; "forward"; "corrupt"; "flip" ]

(* One shard's twin: its engine session plus the bookkeeping [Shard]
   keeps beside its own (crashed destinations, retired work). *)
type twin = { mutable fm : FM.t; mutable dead : Node.Set.t }

type counts = {
  mutable work : int;  (* reversal steps across all twin sessions *)
  mutable failover_steps : int;  (* the election's re-orientation work *)
  mutable twinned : int;
  mutable agreed : int;
  mutable heal_steps : int;
}

let crash r ~op tw =
  let sub name f = span r ~op ~parent:"engine.crash" name f in
  let old = FM.destination tw.fm in
  let g = sub "failover.graph" (fun () -> FM.graph tw.fm) in
  let live u = not (Node.Set.mem u tw.dead) in
  if not (Node.Set.exists (fun u -> live u && u <> old) (Digraph.nodes g)) then
    (Op.Noop, [])
  else
    match sub "failover.config" (fun () -> Linkrev.Config.make g ~destination:old) with
    | Error _ -> (Op.Noop, [])
    | Ok config -> (
        let outcomes =
          sub "failover.elect" (fun () -> Failover.elect_after_destination_failure rule config)
        in
        (* Shard's rule: most members, then the greater leader id. *)
        let better (o : Failover.outcome) (b : Failover.outcome) =
          let co = Node.Set.cardinal o.members and cb = Node.Set.cardinal b.members in
          if co <> cb then co > cb else Node.compare o.leader b.leader > 0
        in
        let primary =
          List.fold_left
            (fun best (o : Failover.outcome) ->
              if not (live o.leader) then best
              else
                match best with Some b when not (better o b) -> best | _ -> Some o)
            None outcomes
        in
        match primary with
        | None -> (Op.Noop, outcomes)
        | Some o ->
            let fm =
              sub "failover.rebuild" (fun () ->
                  let stripped =
                    Node.Set.fold
                      (fun v g -> Digraph.remove_edge g old v)
                      (Digraph.neighbors g old) g
                  in
                  FM.create rule (Linkrev.Config.make_exn stripped ~destination:o.leader))
            in
            tw.fm <- fm;
            tw.dead <- Node.Set.add old tw.dead;
            (Op.New_destination { leader = o.leader; node_steps = FM.total_work fm }, outcomes))

let heal r ~op tw f =
  match span r ~op "engine.adopt" (fun () -> FM.adopt_heights tw.fm f) with
  | Maintenance.Stabilized { node_steps; _ } -> Op.Healed { node_steps }
  | Maintenance.Partitioned _ -> Op.Noop

(* The twin's answer to [op], mirroring [Shard]'s preconditions; [None]
   for packet ops, which have no engine counterpart. *)
let twin_apply r c ~op tw = function
  | Op.Route { src; _ } ->
      if not (FM.mem_node tw.fm src) then Some Op.Noop
      else
        Some
          (match span r ~op "engine.route" (fun () -> FM.route tw.fm src) with
          | Some path -> Op.Path path
          | None -> Op.No_route)
  | Op.Link_down { u; v; _ } ->
      let f = tw.fm in
      if u = v || (not (FM.mem_node f u)) || (not (FM.mem_node f v)) || not (FM.mem_edge f u v)
      then Some Op.Noop
      else
        Some
          (match span r ~op "engine.fail_link" (fun () -> FM.fail_link f u v) with
          | Maintenance.Stabilized { node_steps; _ } -> Op.Repaired { node_steps }
          | Maintenance.Partitioned lost -> Op.Cut { lost = Node.Set.cardinal lost })
  | Op.Link_up { u; v; _ } ->
      let f = tw.fm in
      if u = v || (not (FM.mem_node f u)) || (not (FM.mem_node f v)) || FM.mem_edge f u v
         || Node.Set.mem u tw.dead || Node.Set.mem v tw.dead
      then Some Op.Noop
      else begin
        let before = FM.total_work f in
        span r ~op "engine.add_link" (fun () -> FM.add_link f u v);
        Some (Op.Linked { node_steps = FM.total_work f - before })
      end
  | Op.Crash_destination _ ->
      let response, outcomes =
        span r ~op "engine.crash" (fun () -> crash r ~op tw)
      in
      c.failover_steps <-
        List.fold_left
          (fun acc (o : Failover.outcome) -> acc + o.node_steps)
          c.failover_steps outcomes;
      Some response
  | Op.Corrupt { seed; magnitude; _ } ->
      if magnitude < 0 then Some Op.Noop
      else Some (heal r ~op tw (Shard.hostile_height ~seed ~magnitude))
  | Op.Flip { node; bit; _ } ->
      if (not (FM.mem_node tw.fm node)) || bit < 0 || bit > 61 then Some Op.Noop
      else begin
        let pa, pb = FM.height tw.fm node in
        let flipped = (pa lxor (1 lsl bit), pb) in
        Some (heal r ~op tw (fun u -> if u = node then flipped else FM.height tw.fm u))
      end
  | Op.Inject _ | Op.Forward _ | Op.Stats -> None

type t = {
  spans : span array;
  counts : counts;
  wall_s : float;  (* both passes *)
  create_s : float;  (* [FM.create] over the initial shard configs *)
  cache : FM.cache_stats;  (* summed over the shards' live sessions *)
  index : FM.index_stats;  (* summed over the twins *)
  disagreements : string list;  (* first few, for the error report *)
}

(* Two passes over the stream: the shards alone, then the twins, so
   neither pollutes the other's caches inside a span.  Sums pair up by
   op index across the passes. *)
let replay (inputs : Workloads.inputs) =
  let r = { buf = Array.make 1024 { op = 0; name = ""; parent = ""; t0 = 0; t1 = 0 }; len = 0 } in
  let c =
    { work = 0; failover_steps = 0; twinned = 0; agreed = 0; heal_steps = 0 }
  in
  let shards = Array.mapi (fun id cfg -> Shard.create ~rule ~id cfg) inputs.configs in
  let responses = Array.make (Array.length inputs.ops) Op.Noop in
  let (), shards_s =
    Workloads.timed (fun () ->
        Array.iteri
          (fun op o ->
            match Op.shard_of o with
            | None -> ()
            | Some s ->
                let out =
                  span r ~op ("shard." ^ kind_name o) (fun () -> Shard.apply shards.(s) o)
                in
                responses.(op) <- out.Shard.response;
                match out.Shard.response with
                | Op.Healed { node_steps } -> c.heal_steps <- c.heal_steps + node_steps
                | _ -> ())
          inputs.ops)
  in
  let create_s = ref 0.0 in
  let twins =
    Array.map
      (fun cfg ->
        let fm, dt = Workloads.timed (fun () -> FM.create rule cfg) in
        create_s := !create_s +. dt;
        { fm; dead = Node.Set.empty })
      inputs.configs
  in
  let disagreements = ref [] in
  let (), twins_s =
    Workloads.timed (fun () ->
        Array.iteri
          (fun op o ->
            match Op.shard_of o with
            | None -> ()
            | Some s -> (
                let tw = twins.(s) in
                let session = tw.fm in
                let before = FM.total_work session in
                match twin_apply r c ~op tw o with
                | None -> ()
                | Some expected ->
                    c.work <-
                      c.work
                      + (if tw.fm == session then FM.total_work tw.fm - before
                         else FM.total_work tw.fm);
                    c.twinned <- c.twinned + 1;
                    let got = Op.response_to_string responses.(op)
                    and want = Op.response_to_string expected in
                    if got = want then c.agreed <- c.agreed + 1
                    else if List.compare_length_with !disagreements 5 < 0 then
                      disagreements :=
                        Printf.sprintf "op %d (%s): shard %s, twin %s" op (Op.to_line o)
                          got want
                        :: !disagreements))
          inputs.ops)
  in
  let cache =
    Array.fold_left
      (fun (acc : FM.cache_stats) sh ->
        match Shard.cache_stats sh with
        | None -> acc
        | Some (s : FM.cache_stats) ->
            { hits = acc.hits + s.hits; misses = acc.misses + s.misses;
              invalidations = acc.invalidations + s.invalidations })
      { FM.hits = 0; misses = 0; invalidations = 0 }
      shards
  in
  let index =
    Array.fold_left
      (fun (acc : FM.index_stats) tw ->
        let s = FM.index_stats tw.fm in
        { FM.slots = acc.slots + s.slots; rebuilds = acc.rebuilds + s.rebuilds })
      { FM.slots = 0; rebuilds = 0 }
      twins
  in
  {
    spans = Array.sub r.buf 0 r.len;
    counts = c;
    wall_s = shards_s +. twins_s;
    create_s = !create_s;
    cache;
    index;
    disagreements = List.rev !disagreements;
  }

(* Per-name span totals, and each shard op kind's durations and wrapper
   self time: its shard spans minus the top-level twin spans of the
   same ops. *)
type summary = {
  total : (string, float) Hashtbl.t;  (* seconds, by span name *)
  self : (string, float) Hashtbl.t;  (* seconds, by op kind *)
  durations : (string, float list) Hashtbl.t;  (* seconds, by op kind *)
}

let summarize (inputs : Workloads.inputs) t =
  let total = Hashtbl.create 32 and self = Hashtbl.create 16 and durations = Hashtbl.create 16 in
  let add tbl k d = Hashtbl.replace tbl k (d +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0) in
  Array.iter
    (fun s ->
      let d = float_of_int (s.t1 - s.t0) *. 1e-9 in
      let kind = kind_name inputs.ops.(s.op) in
      add total s.name d;
      if String.starts_with ~prefix:"shard." s.name then begin
        add self kind d;
        Hashtbl.replace durations kind
          (d :: Option.value (Hashtbl.find_opt durations kind) ~default:[])
      end
      else if s.parent = "" then add self kind (-.d))
    t.spans;
  { total; self; durations }

let write_spans path t =
  Out_channel.with_open_text path (fun oc ->
      Array.iter
        (fun s ->
          Printf.fprintf oc
            "{\"op\": %d, \"name\": %S, \"parent\": %s, \"start_ns\": %d, \"end_ns\": %d}\n"
            s.op s.name
            (if s.parent = "" then "null" else Printf.sprintf "%S" s.parent)
            s.t0 s.t1)
        t.spans)

(* [Lr_trace.Record.fast] over every shard config: what
   [Service.create ~trace_dir] adds to set-up.  The trace file is
   scratch, written in the working directory and removed. *)
let record_s (inputs : Workloads.inputs) =
  let path = ".benchmark-record.lrt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Array.fold_left
        (fun acc cfg ->
          let _, dt =
            Workloads.timed (fun () ->
                Lr_trace.Record.fast ~seed:0 ~path ~rule:Lr_fast.Fast_engine.Partial cfg)
          in
          acc +. dt)
        0.0 inputs.configs)
