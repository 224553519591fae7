open Lr_graph
module F = Lr_fast.Fast_engine

(* Pending-step accumulator: the engine reports a step as
   [on_step u; on_flip u i w; ...], so the recorder buffers the reversed
   slots of the current step in a reusable scratch array and emits one
   Step event when the next notification (or the final flush) closes
   it. *)
type pending = {
  writer : Writer.t;
  mutable node : int;
  mutable len : int;
  mutable ids : int array;
  mutable active : bool;
}

let flush_pending p =
  if p.active then begin
    p.active <- false;
    Writer.step p.writer ~node:p.node ~slots:p.ids ~len:p.len
  end

let sink writer =
  let p = { writer; node = 0; len = 0; ids = Array.make 64 0; active = false } in
  let on_step u =
    flush_pending p;
    p.active <- true;
    p.node <- u;
    p.len <- 0
  in
  let on_flip _u i _w =
    if p.len = Array.length p.ids then begin
      let ids = Array.make (2 * p.len) 0 in
      Array.blit p.ids 0 ids 0 p.len;
      p.ids <- ids
    end;
    p.ids.(p.len) <- i;
    p.len <- p.len + 1
  in
  let on_dummy u =
    flush_pending p;
    Writer.dummy p.writer u
  in
  let on_stale u =
    flush_pending p;
    Writer.stale p.writer u
  in
  ( { F.on_step; on_flip; on_dummy; on_stale },
    fun () -> flush_pending p )

let wall_ns t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)

let engine_of_rule = function
  | F.Partial -> Event.Pr
  | F.Full -> Event.Fr
  | F.New_pr -> Event.New_pr

(* The engine and the header, which both refuse node ids other than
   0..n-1, are built before the file is created: an instance the wire
   format cannot carry leaves no file behind. *)
let fast ?max_steps ?seed ~path ~rule config =
  let engine = F.of_config rule config in
  let writer =
    Writer.create path
      (Event.header_of_config ?seed (engine_of_rule rule) config)
  in
  match
    let s, flush = sink writer in
    F.set_sink engine (Some s);
    let t0 = Unix.gettimeofday () in
    let out = F.run ?max_steps engine in
    let dt = wall_ns t0 in
    F.set_sink engine None;
    flush ();
    (out, dt)
  with
  | out, dt ->
      let stats =
        Writer.close writer
          {
            Event.work = out.F.work;
            edge_reversals = out.F.edge_reversals;
            wall_ns = dt;
            final_fingerprint = F.fingerprint engine;
          }
      in
      (out, stats)
  | exception e ->
      F.set_sink engine None;
      Writer.abort writer;
      raise e

(* {2 Recording persistent executions} *)

let reversed_by before after u =
  Node.Set.filter
    (fun w ->
      not (Digraph.direction_equal (Digraph.dir before u w) (Digraph.dir after u w)))
    (Digraph.neighbors before u)

let rows_of_config config = Undirected.rows (Digraph.skeleton config.Linkrev.Config.initial)

let slot_of (row : int array) w =
  (* invariant: if present, w is in row.[lo, hi) *)
  let lo = ref 0 and hi = ref (Array.length row) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if row.(mid) <= w then lo := mid else hi := mid
  done;
  if !lo < Array.length row && row.(!lo) = w then !lo
  else invalid_arg "slot_of: not a neighbour"

(* Serializes each persistent step as one event per actor. *)
let observer ~writer ~rows ~graph_of ~actors =
  fun { Lr_automata.Execution.before; action; after } ->
    let gb = graph_of before and ga = graph_of after in
    Node.Set.iter
      (fun u ->
        let rev = reversed_by gb ga u in
        if Node.Set.is_empty rev then
          (* only NewPR steps legitimately reverse nothing; replay
             rejects a Dummy under any other engine *)
          Writer.dummy writer u
        else
          let slots =
            Array.of_list
              (List.map (slot_of rows.(u)) (Node.Set.elements rev))
          in
          Writer.step writer ~node:u ~slots ~len:(Array.length slots))
      (actors action)

let persistent (type s a) ?max_steps ?seed ~path ~engine ~scheduler config
    (algo : (s, a) Linkrev.Algo.t) =
  let writer = Writer.create path (Event.header_of_config ?seed engine config) in
  match
    let t0 = Unix.gettimeofday () in
    let out =
      Linkrev.Executor.run ?max_steps
        ~observe:
          (observer ~writer ~rows:(rows_of_config config)
             ~graph_of:algo.Linkrev.Algo.graph_of
             ~actors:algo.Linkrev.Algo.actors)
        ~scheduler ~destination:config.Linkrev.Config.destination algo
    in
    (out, wall_ns t0)
  with
  | out, dt ->
      let stats =
        Writer.close writer
          {
            Event.work = out.Linkrev.Executor.total_node_steps;
            edge_reversals = out.Linkrev.Executor.edge_reversals;
            wall_ns = dt;
            final_fingerprint =
              Digraph.fingerprint out.Linkrev.Executor.final_graph;
          }
      in
      (out, stats)
  | exception e ->
      Writer.abort writer;
      raise e
