module I = Lr_automata.Invariant

type violation = { event : int; invariant : string; message : string }

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
  histogram : (int * int) list;
  checked_states : int;
  violations : violation list;
  summary_ok : bool;
  bytes : int;
}

let histogram_of steps_per_node =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun k -> Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    steps_per_node;
  List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl [])

(* The per-state check, materializing the persistent state the paper's
   invariants are stated over.  [event] is the index of the last applied
   event (-1 for the initial state). *)
let checker config header =
  let check inv state_of cursor event =
    match inv.I.check (state_of cursor) with
    | Ok () -> None
    | Error message -> Some { event; invariant = inv.I.name; message }
  in
  match header.Event.engine with
  | Event.Pr ->
      check (Linkrev.Invariants.pr_all config) (fun cursor ->
          { Linkrev.Pr.graph = Replay.to_digraph cursor; lists = Replay.lists cursor })
  | Event.New_pr ->
      check (Linkrev.Invariants.newpr_all config) (fun cursor ->
          { Linkrev.New_pr.graph = Replay.to_digraph cursor;
            counts = Replay.counts cursor })
  | Event.Fr | Event.Maint ->
      (* Maint: heights are not in the trace, so the strongest per-state
         invariant is the one the paper's abstraction rests on — every
         intermediate orientation stays acyclic.  The corrupted state
         itself is acyclic too (heights are a total order, so even
         adversarial corruption cannot create a cycle), but only as a
         whole: the run loop treats a burst of consecutive perturb
         events as one atomic fault injection and never audits the
         mixed states inside it. *)
      check (Linkrev.Invariants.acyclic ~graph_of:Fun.id) Replay.to_digraph

let run ?(stride = 1) path =
  if stride < 1 then invalid_arg "Audit.run: stride must be >= 1";
  Reader.with_file path (fun r ->
      let header = Reader.header r in
      match Event.config_of_header header with
      | Error _ as e -> e
      | Ok config -> (
          match Replay.cursor header with
          | Error _ as e -> e
          | Ok cursor ->
              let check = checker config header in
              let violations = ref [] in
              let checked = ref 0 in
              let check_state event =
                incr checked;
                match check cursor event with
                | None -> ()
                | Some v -> violations := v :: !violations
              in
              check_state (-1);
              (* Inside a run of consecutive perturb events the
                 orientation mixes corrupted and pre-corruption heights
                 — only the state after the whole burst is
                 height-derived (hence provably acyclic), so the burst
                 is audited atomically.  The accumulator is the number
                 of events applied and whether the last one was a
                 perturb. *)
              Reader.fold r ~init:(0, false)
                ~f:(fun (_, in_burst) i e ->
                  let is_perturb =
                    match e with Event.Perturb _ -> true | _ -> false
                  in
                  if in_burst && not is_perturb then check_state (i - 1);
                  match Replay.apply cursor e with
                  | Error m -> Error (Printf.sprintf "event %d: %s" i m)
                  | Ok () ->
                      if (not is_perturb) && (i + 1) mod stride = 0 then
                        check_state i;
                      Ok (i + 1, is_perturb))
                ~finish:(fun (events, in_burst) summary ->
                  (* make sure the final state is always audited,
                     whatever the stride *)
                  if in_burst || events mod stride <> 0 then
                    check_state (events - 1);
                  let steps, dummies, stales, edge_reversals =
                    Replay.metrics cursor
                  in
                  let steps_per_node = Replay.steps_per_node cursor in
                  let summary_ok =
                    match Replay.check_summary cursor summary with
                    | Ok () -> true
                    | Error message ->
                        violations :=
                          { event = events; invariant = "summary"; message }
                          :: !violations;
                        false
                  in
                  Ok
                    {
                      header;
                      summary;
                      events;
                      steps;
                      dummies;
                      stales;
                      perturbs = Replay.perturbs cursor;
                      edge_reversals;
                      steps_per_node;
                      histogram = histogram_of steps_per_node;
                      checked_states = !checked;
                      violations = List.rev !violations;
                      summary_ok;
                      bytes = Reader.bytes_read r;
                    })))

let clean r =
  r.summary_ok && match r.violations with [] -> true | _ :: _ -> false

(* {1 Single-pass scan (no replay, no invariant checks)} *)

type scan = {
  scan_header : Event.header;
  scan_summary : Event.summary;
  scan_events : int;
  scan_steps : int;
  scan_dummies : int;
  scan_stales : int;
  scan_perturbs : int;
  scan_reversed_edges : int;
  scan_bytes : int;
}

let scan path =
  Reader.with_file path (fun r ->
      let steps = ref 0
      and dummies = ref 0
      and stales = ref 0
      and perturbs = ref 0
      and rev = ref 0 in
      Reader.fold r ~init:0
        ~f:(fun _ i e ->
          (match e with
          | Event.Step { slots; _ } ->
              incr steps;
              rev := !rev + Array.length slots
          | Event.Dummy _ -> incr dummies
          | Event.Stale _ -> incr stales
          | Event.Perturb { slots; _ } ->
              incr perturbs;
              rev := !rev + Array.length slots);
          Ok (i + 1))
        ~finish:(fun events summary ->
          Ok
            {
              scan_header = Reader.header r;
              scan_summary = summary;
              scan_events = events;
              scan_steps = !steps;
              scan_dummies = !dummies;
              scan_stales = !stales;
              scan_perturbs = !perturbs;
              scan_reversed_edges = !rev;
              scan_bytes = Reader.bytes_read r;
            }))

let pp_histogram ppf histogram =
  List.iter
    (fun (steps, nodes) ->
      Format.fprintf ppf "  %6d step%s : %d node%s@." steps
        (if steps = 1 then " " else "s")
        nodes
        (if nodes = 1 then "" else "s"))
    histogram
