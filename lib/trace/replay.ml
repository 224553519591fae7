open Lr_graph
module FG = Lr_fast.Fast_graph

(* {1 Fast cursor} *)

type cursor = {
  header : Event.header;
  core : FG.t;
  out_ : bool array array;
  in_deg : int array;
  (* PR list state *)
  listed : bool array array;
  list_count : int array;
  (* NewPR counter state *)
  counts : int array;
  init_in_slots : int array array;
  init_out_slots : int array array;
  steps_per_node : int array;
  mutable work : int;
  mutable steps : int;
  mutable dummies : int;
  mutable stales : int;
  mutable perturbs : int;
  mutable edge_reversals : int;
}

let cursor header =
  let inst = Event.instance_of_header header in
  match FG.of_instance inst with
  | exception Invalid_argument m -> Error ("header: " ^ m)
  | core ->
      if FG.fingerprint core core.FG.out0 <> header.Event.fingerprint then
        Error "header: instance does not match its fingerprint"
      else
        let n = core.FG.n in
        Ok
          {
            header;
            core;
            out_ = FG.initial_out core;
            in_deg = FG.initial_in_degree core;
            listed = Array.init n (fun u -> Array.make (FG.degree core u) false);
            list_count = Array.make n 0;
            counts = Array.make n 0;
            init_in_slots = FG.initial_slots core false;
            init_out_slots = FG.initial_slots core true;
            steps_per_node = Array.make n 0;
            work = 0;
            steps = 0;
            dummies = 0;
            stales = 0;
            perturbs = 0;
            edge_reversals = 0;
          }

let degree c u = FG.degree c.core u
let is_sink c u = degree c u > 0 && c.in_deg.(u) = degree c u
let fingerprint c = FG.fingerprint c.core c.out_

let flip c u i =
  let w = c.core.FG.nbrs.(u).(i) in
  let j = c.core.FG.mirror.(u).(i) in
  c.out_.(u).(i) <- true;
  c.out_.(w).(j) <- false;
  c.in_deg.(u) <- c.in_deg.(u) - 1;
  c.in_deg.(w) <- c.in_deg.(w) + 1;
  c.edge_reversals <- c.edge_reversals + 1;
  if not c.listed.(w).(j) then begin
    c.listed.(w).(j) <- true;
    c.list_count.(w) <- c.list_count.(w) + 1
  end

let errf fmt = Printf.ksprintf (fun m -> Error m) fmt

(* The slots a step of [u] must reverse under the trace's engine. *)
let expected_slots c u =
  let d = degree c u in
  match c.header.Event.engine with
  | Event.Fr -> Ok (Array.init d Fun.id)
  | Event.Pr ->
      let full = c.list_count.(u) = d in
      let k = ref 0 in
      for i = 0 to d - 1 do
        if full || not c.listed.(u).(i) then incr k
      done;
      let slots = Array.make !k 0 in
      let j = ref 0 in
      for i = 0 to d - 1 do
        if full || not c.listed.(u).(i) then begin
          slots.(!j) <- i;
          incr j
        end
      done;
      Ok slots
  | Event.New_pr ->
      let slots =
        if c.counts.(u) land 1 = 0 then c.init_in_slots.(u)
        else c.init_out_slots.(u)
      in
      if Array.length slots = 0 then
        errf "node %d: parity set is empty — expected a dummy step" u
      else Ok slots
  | Event.Maint ->
      (* Unreachable from [apply_step], which validates maint steps by
         shape (heights are not in the trace). *)
      errf "node %d: maint traces carry no expected reversal set" u

let sink_precondition c u what =
  if u < 0 || u >= c.core.FG.n then errf "%s at invalid node %d" what u
  else if u = c.core.FG.destination then
    errf "%s at the destination (node %d)" what u
  else if not (is_sink c u) then
    errf "%s at node %d, which is not a sink (in-degree %d of %d)" what u
      c.in_deg.(u) (degree c u)
  else Ok ()

(* Shape check shared by maint steps and perturbations: slots strictly
   ascending, in range, and currently incoming at [u]. *)
let check_flippable c u (recorded : int array) what =
  let d = degree c u in
  let res = ref (Ok ()) in
  Array.iteri
    (fun i s ->
      if Result.is_ok !res then
        if s < 0 || s >= d then
          res := errf "node %d: %s slot %d out of range (degree %d)" u what s d
        else if i > 0 && recorded.(i - 1) >= s then
          res := errf "node %d: %s slots not strictly ascending" u what
        else if c.out_.(u).(s) then
          res := errf "node %d: %s slot %d is not incoming" u what s)
    recorded;
  !res

let step_epilogue c u =
  (match c.header.Event.engine with
  | Event.Pr | Event.Fr | Event.Maint ->
      let d = degree c u in
      if c.list_count.(u) > 0 then begin
        Array.fill c.listed.(u) 0 d false;
        c.list_count.(u) <- 0
      end
  | Event.New_pr -> c.counts.(u) <- c.counts.(u) + 1);
  c.steps_per_node.(u) <- c.steps_per_node.(u) + 1;
  c.work <- c.work + 1;
  c.steps <- c.steps + 1;
  Ok ()

let apply_step c u (recorded : int array) =
  match sink_precondition c u "step" with
  | Error _ as e -> e
  | Ok () -> (
      match c.header.Event.engine with
      | Event.Maint -> (
          (* A maintenance step's reversal set depends on heights the
             trace does not carry: check the shape — at least one edge,
             ascending slots, each currently incoming — and leave the
             per-state acyclicity of the result to the audit layer. *)
          if Array.length recorded = 0 then
            errf "node %d: maint step reverses no edges" u
          else
            match check_flippable c u recorded "reversed" with
            | Error _ as e -> e
            | Ok () ->
                Array.iter (fun i -> flip c u i) recorded;
                step_epilogue c u)
      | Event.Pr | Event.Fr | Event.New_pr -> (
          match expected_slots c u with
          | Error _ as e -> e
          | Ok slots ->
              let k = Array.length slots in
              if Array.length recorded <> k then
                errf "node %d: step reverses %d edges, engine %s expects %d" u
                  (Array.length recorded)
                  (Event.engine_name c.header.Event.engine)
                  k
              else begin
                let mismatch = ref (-1) in
                for i = 0 to k - 1 do
                  if !mismatch < 0 && slots.(i) <> recorded.(i) then
                    mismatch := i
                done;
                if !mismatch >= 0 then
                  errf "node %d: reversed slot #%d is %d, expected %d" u
                    !mismatch
                    recorded.(!mismatch)
                    slots.(!mismatch)
                else begin
                  Array.iter (fun i -> flip c u i) slots;
                  step_epilogue c u
                end
              end))

let apply_dummy c u =
  match c.header.Event.engine with
  | Event.Pr | Event.Fr | Event.Maint ->
      errf "dummy step at node %d in a %s trace (NewPR only)" u
        (Event.engine_name c.header.Event.engine)
  | Event.New_pr -> (
      match sink_precondition c u "dummy step" with
      | Error _ as e -> e
      | Ok () ->
          let slots =
            if c.counts.(u) land 1 = 0 then c.init_in_slots.(u)
            else c.init_out_slots.(u)
          in
          if Array.length slots > 0 then
            errf "node %d: dummy step but parity set has %d edges" u
              (Array.length slots)
          else begin
            c.counts.(u) <- c.counts.(u) + 1;
            c.steps_per_node.(u) <- c.steps_per_node.(u) + 1;
            c.work <- c.work + 1;
            c.dummies <- c.dummies + 1;
            Ok ()
          end)

let apply_stale c u =
  if u < 0 || u >= c.core.FG.n then errf "stale pop at invalid node %d" u
  else if is_sink c u && u <> c.core.FG.destination then
    errf "stale pop at node %d, which is a live non-destination sink" u
  else begin
    c.stales <- c.stales + 1;
    Ok ()
  end

(* An external fault flipped [recorded] incoming edges of [u] outward:
   no sink precondition (faults strike anywhere), no work counted. *)
let apply_perturb c u (recorded : int array) =
  if u < 0 || u >= c.core.FG.n then errf "perturb at invalid node %d" u
  else if
    match c.header.Event.engine with Event.Maint -> false | _ -> true
  then
    errf "perturb event in a %s trace (maint only)"
      (Event.engine_name c.header.Event.engine)
  else
    match check_flippable c u recorded "flipped" with
    | Error _ as e -> e
    | Ok () ->
        Array.iter (fun i -> flip c u i) recorded;
        c.perturbs <- c.perturbs + 1;
        Ok ()

let apply c = function
  | Event.Step { node; slots } -> apply_step c node slots
  | Event.Dummy u -> apply_dummy c u
  | Event.Stale u -> apply_stale c u
  | Event.Perturb { node; slots } -> apply_perturb c node slots

let check_summary c (s : Event.summary) =
  if c.work <> s.Event.work then
    errf "summary: work %d, replay counted %d" s.Event.work c.work
  else if c.edge_reversals <> s.Event.edge_reversals then
    errf "summary: %d edge reversals, replay counted %d" s.Event.edge_reversals
      c.edge_reversals
  else if fingerprint c <> s.Event.final_fingerprint then
    errf "summary: final orientation fingerprint %Lx, replay reached %Lx"
      s.Event.final_fingerprint (fingerprint c)
  else Ok ()

let to_digraph c = FG.to_digraph c.core c.out_

(* Materialize the PR list state: [list[u]] = neighbours whose shared
   edge reversed toward [u] since [u]'s last step (absent = empty). *)
let lists c =
  let m = ref Node.Map.empty in
  for u = 0 to c.core.FG.n - 1 do
    if c.list_count.(u) > 0 then begin
      let s = ref Node.Set.empty in
      Array.iteri
        (fun i w -> if c.listed.(u).(i) then s := Node.Set.add w !s)
        c.core.FG.nbrs.(u);
      m := Node.Map.add u !s !m
    end
  done;
  !m

let counts c =
  let m = ref Node.Map.empty in
  for u = 0 to c.core.FG.n - 1 do
    if c.counts.(u) > 0 then m := Node.Map.add u c.counts.(u) !m
  done;
  !m

let metrics c = (c.steps, c.dummies, c.stales, c.edge_reversals)
let perturbs c = c.perturbs
let steps_per_node c = Array.copy c.steps_per_node

(* {1 Whole-file replay} *)

type report = {
  header : Event.header;
  summary : Event.summary;
  events : int;
  steps : int;
  dummies : int;
  stales : int;
  perturbs : int;
  edge_reversals : int;
  steps_per_node : int array;
  bytes : int;
}

let with_context i = function
  | Ok _ as ok -> ok
  | Error m -> Error (Printf.sprintf "event %d: %s" i m)

let file path =
  Reader.with_file path (fun r ->
      match cursor (Reader.header r) with
      | Error _ as e -> e
      | Ok c ->
          Reader.fold r ~init:()
            ~f:(fun () i e -> with_context i (apply c e))
            ~finish:(fun () summary ->
              match check_summary c summary with
              | Error _ as e -> e
              | Ok () ->
                  Ok
                    {
                      header = c.header;
                      summary;
                      events = c.steps + c.dummies + c.stales + c.perturbs;
                      steps = c.steps;
                      dummies = c.dummies;
                      stales = c.stales;
                      perturbs = c.perturbs;
                      edge_reversals = c.edge_reversals;
                      steps_per_node = Array.copy c.steps_per_node;
                      bytes = Reader.bytes_read r;
                    }))

(* {1 Differential replay against the persistent automata} *)

(* Decode a step's slot indices back to neighbour ids via the node's
   sorted adjacency row. *)
let set_of_slots (row : int array) slots =
  let d = Array.length row in
  if Array.exists (fun i -> i < 0 || i >= d) slots then
    Error (Printf.sprintf "reversed slot out of range (degree %d)" d)
  else
    Ok
      (Array.fold_left (fun s i -> Node.Set.add row.(i) s) Node.Set.empty slots)

let pp_set s =
  "{"
  ^ String.concat "," (List.map string_of_int (Node.Set.elements s))
  ^ "}"

let live_sink graph destination u =
  (not (Node.Set.is_empty (Digraph.neighbors graph u)))
  && Digraph.is_sink graph u
  && u <> destination

(* One generic fold, parameterized over the automaton's state by three
   closures: the expected reversal set of a step of [u] (Error when the
   step is not even enabled), the dummy-step check, and the transition.
   The accumulator is the state with the work and reversals so far. *)
let replay_automaton (type s) r config ~(initial : s)
    ~(expected : s -> int -> (Node.Set.t, string) result)
    ~(dummy_ok : s -> int -> (unit, string) result)
    ~(step : s -> int -> s) ~(graph_of : s -> Digraph.t) =
  let destination = config.Linkrev.Config.destination in
  let rows = Record.rows_of_config config in
  let event (state : s) = function
    | Event.Step { node = u; slots } ->
        if not (live_sink (graph_of state) destination u) then
          errf "step at node %d, which is not a live sink" u
        else (
          match expected state u with
          | Error _ as err -> err
          | Ok want -> (
              match set_of_slots rows.(u) slots with
              | Error m -> errf "node %d: %s" u m
              | Ok got ->
                  if not (Node.Set.equal want got) then
                    errf "node %d: trace reverses %s, automaton expects %s" u
                      (pp_set got) (pp_set want)
                  else Ok (step state u, 1, Node.Set.cardinal want)))
    | Event.Dummy u ->
        if not (live_sink (graph_of state) destination u) then
          errf "dummy step at node %d, which is not a live sink" u
        else (
          match dummy_ok state u with
          | Error _ as err -> err
          | Ok () -> Ok (step state u, 1, 0))
    | Event.Stale u ->
        if live_sink (graph_of state) destination u then
          errf "stale pop at node %d, which is a live sink" u
        else Ok (state, 0, 0)
    | Event.Perturb { node = u; _ } ->
        errf
          "perturb event at node %d: the persistent automata have no \
           fault-injection transition"
          u
  in
  Reader.fold r ~init:(initial, 0, 0)
    ~f:(fun (state, work, reversals) i e ->
      match with_context i (event state e) with
      | Error _ as err -> err
      | Ok (state, w, rv) -> Ok (state, work + w, reversals + rv))
    ~finish:(fun (state, work, reversals) summary ->
      if work <> summary.Event.work then
        errf "summary: work %d, automaton replay counted %d" summary.Event.work
          work
      else if reversals <> summary.Event.edge_reversals then
        errf "summary: %d edge reversals, automaton replay counted %d"
          summary.Event.edge_reversals reversals
      else
        let g = graph_of state in
        if Digraph.fingerprint g <> summary.Event.final_fingerprint then
          errf
            "summary: final orientation fingerprint %Lx, automaton reached %Lx"
            summary.Event.final_fingerprint (Digraph.fingerprint g)
        else Ok (g, work, reversals))

type differential = {
  final_graph : Digraph.t;
  automaton_work : int;
  automaton_reversals : int;
}

let against_automaton path =
  Reader.with_file path (fun r ->
      let header = Reader.header r in
      match Event.config_of_header header with
      | Error _ as e -> e
      | Ok config -> (
          let run =
            match header.Event.engine with
            | Event.Maint ->
                Error
                  "maint traces replay against the maintenance engines, not \
                   the persistent automata (use Replay.file or Audit.run)"
            | Event.Pr ->
                replay_automaton r config
                  ~initial:(Linkrev.Pr.initial config)
                  ~expected:(fun state u ->
                    let nbrs = Linkrev.Config.nbrs config u in
                    let l = Linkrev.Pr.list_of state u in
                    Ok
                      (if Node.Set.equal l nbrs then nbrs
                       else Node.Set.diff nbrs l))
                  ~dummy_ok:(fun _ u ->
                    errf "dummy step at node %d in a pr trace" u)
                  ~step:(fun state u -> Linkrev.One_step_pr.apply config state u)
                  ~graph_of:(fun s -> s.Linkrev.Pr.graph)
            | Event.Fr ->
                replay_automaton r config
                  ~initial:(Linkrev.Full_reversal.initial config)
                  ~expected:(fun _ u -> Ok (Linkrev.Config.nbrs config u))
                  ~dummy_ok:(fun _ u ->
                    errf "dummy step at node %d in a fr trace" u)
                  ~step:(fun state u -> Linkrev.Full_reversal.apply state u)
                  ~graph_of:(fun s -> s.Linkrev.Full_reversal.graph)
            | Event.New_pr ->
                replay_automaton r config
                  ~initial:(Linkrev.New_pr.initial config)
                  ~expected:(fun state u ->
                    if Linkrev.New_pr.is_dummy_step config state u then
                      errf "node %d: automaton expects a dummy step" u
                    else Ok (Linkrev.New_pr.reversal_set config state u))
                  ~dummy_ok:(fun state u ->
                    if Linkrev.New_pr.is_dummy_step config state u then Ok ()
                    else
                      errf
                        "node %d: trace has a dummy step, automaton would \
                         reverse %s"
                        u
                        (pp_set (Linkrev.New_pr.reversal_set config state u)))
                  ~step:(fun state u -> Linkrev.New_pr.apply config state u)
                  ~graph_of:(fun s -> s.Linkrev.New_pr.graph)
          in
          match run with
          | Error _ as e -> e
          | Ok (final_graph, work, reversals) ->
              Ok
                {
                  final_graph;
                  automaton_work = work;
                  automaton_reversals = reversals;
                }))
