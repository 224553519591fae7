(* linkrev — command-line driver for the link reversal library.

   Subcommands:
     run    run one algorithm on one instance, print the outcome
     sweep  run a size sweep and print the work table
     check  model-check the paper's statements on small instances
     game   analyse FR/PR strategy profiles on a small instance *)

open Lr_graph
open Linkrev
open Cmdliner

(* {1 Shared argument parsing} *)

(* A size the generator refuses is a typed error, like an unknown name. *)
let family_of_string rng name n =
  try
    match name with
    | "bad-chain" -> Ok (Generators.bad_chain n)
    | "good-chain" -> Ok (Generators.good_chain n)
    | "sawtooth" -> Ok (Generators.sawtooth n)
    | "half-bad-chain" -> Ok (Generators.half_bad_chain n)
    | "ring" -> Ok (Generators.ring n)
    | "star" -> Ok (Generators.star ~center:0 ~leaves:(max 1 (n - 1)) ~inward:false)
    | "tree" ->
        let depth = max 1 (int_of_float (Float.log2 (float_of_int (max 2 n)))) in
        Ok (Generators.binary_tree ~depth)
    | "grid" ->
        let side = max 2 (int_of_float (sqrt (float_of_int n))) in
        Ok (Generators.grid ~rows:side ~cols:side)
    | "random" -> Ok (Generators.random_connected_dag rng ~n ~extra_edges:(n / 2))
    | other -> Error (Printf.sprintf "unknown family %S" other)
  with Invalid_argument e -> Error (Printf.sprintf "family %s, n = %d: %s" name n e)

let all_families =
  [ "bad-chain"; "good-chain"; "sawtooth"; "half-bad-chain"; "ring"; "star";
    "tree"; "grid"; "random" ]

let algo_conv =
  let parse = function
    | "fr" -> Ok Lr_analysis.Work.FR
    | "pr" -> Ok Lr_analysis.Work.PR
    | "newpr" -> Ok Lr_analysis.Work.NewPR
    | "fr-heights" -> Ok Lr_analysis.Work.FR_heights
    | "pr-heights" -> Ok Lr_analysis.Work.PR_heights
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf (Lr_analysis.Work.algorithm_name a))

let family_arg =
  let doc =
    "Graph family: " ^ String.concat ", " all_families ^ "."
  in
  Arg.(value & opt string "random" & info [ "family"; "f" ] ~docv:"FAMILY" ~doc)

let n_arg =
  Arg.(value & opt int 20 & info [ "n"; "size" ] ~docv:"N" ~doc:"Instance size.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run independent work items on $(docv) domains \
           (Lr_parallel.Pool; results are identical for every N).")

let algo_arg =
  Arg.(
    value
    & opt algo_conv Lr_analysis.Work.PR
    & info [ "algo"; "a" ] ~docv:"ALGO"
        ~doc:"Algorithm: fr, pr, newpr, fr-heights, pr-heights.")

let graph_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "graph-file"; "g" ] ~docv:"FILE"
        ~doc:
          "Read the instance from $(docv) (lines: 'destination D', 'U V' \
           directed edges, 'node U'; see Serial) instead of generating one.")

let instance ?graph_file ~family ~n ~seed () =
  let from_generator () =
    let rng = Random.State.make [| 0xc11; seed |] in
    match family_of_string rng family n with
    | Error e -> Error e
    | Ok inst ->
        Config.make inst.Generators.graph
          ~destination:inst.Generators.destination
  in
  match graph_file with
  | None -> from_generator ()
  | Some path -> (
      match Serial.load_instance path with
      | Error e -> Error e
      | Ok inst ->
          Config.make inst.Generators.graph
            ~destination:inst.Generators.destination)

(* {1 run} *)

let run_cmd =
  let dot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the final graph as DOT to $(docv).")
  in
  let invariants_arg =
    Arg.(
      value & flag
      & info [ "check-invariants" ]
          ~doc:"Check the paper's invariants at every state of the run.")
  in
  let run family n seed algo dot check_invs graph_file =
    match instance ?graph_file ~family ~n ~seed () with
    | Error e -> `Error (false, e)
    | Ok config ->
        let out = Lr_analysis.Work.run_one ~seed algo config in
        let source =
          match graph_file with
          | Some f -> Printf.sprintf "file %s" f
          | None -> Printf.sprintf "family %s, n = %d" family n
        in
        Format.printf "%s, destination = %a, bad nodes = %d@." source Node.pp
          config.Config.destination
          (Node.Set.cardinal (Config.bad_nodes config));
        Format.printf "%a@." Executor.pp out;
        (match dot with
        | Some file ->
            Dot.to_file file
              (Dot.of_digraph ~destination:config.Config.destination
                 out.Executor.final_graph);
            Format.printf "wrote %s@." file
        | None -> ());
        if check_invs then begin
          let exec =
            Lr_automata.Execution.run
              ~scheduler:(Lr_automata.Scheduler.random (Random.State.make [| seed |]))
              (Pr.automaton ~mode:Pr.Singletons config)
          in
          match
            Lr_automata.Invariant.check_execution (Invariants.pr_all config) exec
          with
          | None -> Format.printf "PR invariants: OK on a fresh random execution@."
          | Some v ->
              Format.printf "PR invariants: %a@."
                Lr_automata.Invariant.pp_violation v
        end;
        `Ok ()
  in
  let term =
    Term.(ret (const run $ family_arg $ n_arg $ seed_arg $ algo_arg $ dot_arg
               $ invariants_arg $ graph_file_arg))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one algorithm on one instance.") term

(* {1 sweep} *)

let sweep_cmd =
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 8; 16; 32; 64 ]
      & info [ "sizes" ] ~docv:"SIZES" ~doc:"Comma-separated instance sizes.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the rows as CSV to $(docv).")
  in
  let sweep family sizes seed algo csv jobs =
    (* one RNG per size, derived from (seed, n): domain-safe under the
       pool and reproducible whatever the job count *)
    let family_fn n =
      family_of_string (Random.State.make [| 0xc11; seed; n |]) family n
    in
    (* a bad family or size is refused before the pool starts *)
    let refused n = Result.fold ~ok:(fun _ -> None) ~error:Option.some (family_fn n) in
    match List.find_map refused sizes with
    | Some e -> `Error (false, e)
    | None ->
        let rows =
          Lr_analysis.Work.sweep ~seed ~jobs algo
            ~family:(fun n -> Result.get_ok (family_fn n))
            ~sizes ()
        in
        let table = Lr_analysis.Work.rows_to_table algo rows in
        Lr_analysis.Table.print
          ~title:(Printf.sprintf "%s on %s"
                    (Lr_analysis.Work.algorithm_name algo) family)
          table;
        (try
           Format.printf "growth exponent (work vs bad nodes): %.2f@."
             (Lr_analysis.Work.exponent rows)
         with Invalid_argument _ -> ());
        (match csv with
        | Some file ->
            let oc = open_out file in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (Lr_analysis.Table.to_csv table));
            Format.printf "wrote %s@." file
        | None -> ());
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const sweep $ family_arg $ sizes_arg $ seed_arg $ algo_arg $ csv_arg
        $ jobs_arg))
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Work scaling over a size sweep.") term

(* {1 check} *)

let check_cmd =
  let max_nodes_arg =
    Arg.(
      value & opt int 4
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Model-check every connected DAG instance up to $(docv) nodes (4 is fast, 5 is slow).")
  in
  let check max_nodes jobs =
    let fams =
      Array.of_list (Lr_modelcheck.Modelcheck.exhaustive_families ~max_nodes)
    in
    Format.printf "model checking %d instances (<= %d nodes, %d jobs)...@."
      (Array.length fams) max_nodes jobs;
    (* each instance's checks are independent: fan the instances out
       over the pool, print in deterministic instance order after *)
    let reports =
      (* lr:owner instance: each model-checked instance explores its own
         state space; reports meet only in the result array. *)
      Lr_parallel.Pool.map_range ~jobs (Array.length fams) (fun i ->
          Lr_modelcheck.Modelcheck.check_all fams.(i))
    in
    let checks = ref 0 and violations = ref 0 in
    Array.iteri
      (fun i rs ->
        List.iter
          (fun r ->
            incr checks;
            match r.Lr_modelcheck.Modelcheck.violation with
            | None -> ()
            | Some v ->
                incr violations;
                Format.printf "VIOLATION: %s — %s@.  on instance %a@."
                  r.Lr_modelcheck.Modelcheck.automaton v Config.pp fams.(i))
          rs)
      reports;
    Format.printf "%d checks, %d violations@." !checks !violations;
    if !violations = 0 then `Ok () else `Error (false, "violations found")
  in
  let term = Term.(ret (const check $ max_nodes_arg $ jobs_arg)) in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Exhaustively verify the paper's invariants and theorems on small instances.")
    term

(* {1 game} *)

let game_cmd =
  let game family n seed =
    match instance ~family ~n ~seed () with
    | Error e -> `Error (false, e)
    | Ok config ->
        if Node.Set.cardinal (Config.nodes config) > 12 then
          `Error (false, "game analysis is exhaustive; use n <= 12")
        else begin
          let module G = Lr_analysis.Game in
          let fr = G.uniform G.Full config and pr = G.uniform G.Partial config in
          let rf = G.play config fr and rp = G.play config pr in
          Format.printf "all-FR: social cost %d, Nash equilibrium: %b@."
            rf.G.social_cost (G.is_nash config fr);
          Format.printf "all-PR: social cost %d, Nash equilibrium: %b@."
            rp.G.social_cost (G.is_nash config pr);
          let _, opt = G.social_optimum config in
          Format.printf "social optimum over all %d profiles: %d@."
            (List.length (G.all_profiles config))
            opt.G.social_cost;
          `Ok ()
        end
  in
  let term = Term.(ret (const game $ family_arg $ n_arg $ seed_arg)) in
  Cmd.v
    (Cmd.info "game"
       ~doc:"FR/PR strategy game: social costs, equilibria, optimum (small n).")
    term

(* {1 stats} *)

let stats_cmd =
  let stats family n seed graph_file =
    match instance ?graph_file ~family ~n ~seed () with
    | Error e -> `Error (false, e)
    | Ok config ->
        let g = config.Config.initial in
        Format.printf "%s@."
          (Properties.orientation_profile g config.Config.destination);
        Format.printf "density: %.2f, diameter: %s@."
          (Properties.density (Config.skeleton config))
          (match Path.diameter (Config.skeleton config) with
          | Some d -> string_of_int d
          | None -> "inf (disconnected)");
        if Digraph.num_nodes g <= 20 then
          print_string (Ascii.render ~destination:config.Config.destination g);
        if Digraph.num_nodes g <= 8 then begin
          match Lr_modelcheck.Modelcheck.state_space_stats config with
          | Ok s ->
              Format.printf
                "state space: %d PR states, %d NewPR states, exact worst-case work %d@."
                s.Lr_modelcheck.Modelcheck.pr_states
                s.Lr_modelcheck.Modelcheck.newpr_states
                s.Lr_modelcheck.Modelcheck.longest_execution
          | Error e -> Format.printf "state space: %s@." e
        end;
        `Ok ()
  in
  let term =
    Term.(ret (const stats $ family_arg $ n_arg $ seed_arg $ graph_file_arg))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Structural and state-space statistics of an instance.")
    term

(* {1 theorems} *)

let theorems_cmd =
  let theorems family n seed graph_file =
    match instance ?graph_file ~family ~n ~seed () with
    | Error e -> `Error (false, e)
    | Ok config ->
        let failures = ref 0 in
        List.iter
          (fun (label, result) ->
            match result with
            | Ok () -> Format.printf "%-45s OK@." label
            | Error e ->
                incr failures;
                Format.printf "%-45s FAILED: %s@." label e)
          (Linkrev.Theorems.all ~seed config);
        if !failures = 0 then `Ok ()
        else `Error (false, "theorem checks failed")
  in
  let term =
    Term.(ret (const theorems $ family_arg $ n_arg $ seed_arg $ graph_file_arg))
  in
  Cmd.v
    (Cmd.info "theorems"
       ~doc:"Check the classic link reversal metatheorems on an instance.")
    term

(* {1 tora} *)

let tora_cmd =
  let failures_arg =
    Arg.(
      value & opt int 20
      & info [ "failures" ] ~docv:"K" ~doc:"Number of random link failures.")
  in
  let tora family n seed failures =
    match instance ~family ~n ~seed () with
    | Error e -> `Error (false, e)
    | Ok config ->
        let module T = Lr_routing.Tora in
        let t = T.create config in
        let r = Random.State.make [| 0x70; seed |] in
        let repaired = ref 0 and partitions = ref 0 in
        for _ = 1 to failures do
          let edges =
            Lr_graph.Edge.Set.elements
              (Undirected.edges (T.skeleton t))
          in
          if edges <> [] then begin
            let e = List.nth edges (Random.State.int r (List.length edges)) in
            let u, v = Lr_graph.Edge.endpoints e in
            match T.fail_link t u v with
            | T.Maintained _ -> incr repaired
            | T.Partition_detected { cleared; _ } -> (
                incr partitions;
                match Node.Set.choose_opt cleared with
                | Some w
                  when not
                         (Undirected.mem_edge (T.skeleton t) w
                            (T.destination t)) ->
                    ignore (T.add_link t w (T.destination t))
                | _ -> ())
          end
        done;
        Format.printf
          "%d failures: %d repaired, %d partitions (healed); %d reactions; routed %.0f%%; acyclic %b@."
          failures !repaired !partitions (T.reactions_total t)
          (100.0 *. T.routed_fraction t)
          (T.acyclic t);
        `Ok ()
  in
  let term =
    Term.(ret (const tora $ family_arg $ n_arg $ seed_arg $ failures_arg))
  in
  Cmd.v (Cmd.info "tora" ~doc:"TORA route maintenance under a failure storm.") term

(* {1 generate} *)

let generate_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the instance to $(docv).")
  in
  let generate family n seed out =
    let rng = Random.State.make [| 0xc11; seed |] in
    match family_of_string rng family n with
    | Error e -> `Error (false, e)
    | Ok inst ->
        Serial.save_instance out inst;
        Format.printf "wrote %s (%s)@." out
          (Properties.orientation_profile inst.Generators.graph
             inst.Generators.destination);
        `Ok ()
  in
  let term =
    Term.(ret (const generate $ family_arg $ n_arg $ seed_arg $ out_arg))
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate an instance file (readable back with --graph-file).")
    term

(* {1 trace} *)

module Trace_cli = struct
  module Event = Lr_trace.Event
  module Record = Lr_trace.Record
  module Replay = Lr_trace.Replay
  module Audit = Lr_trace.Audit
  module F = Lr_fast.Fast_engine

  let engine_conv =
    let parse s =
      match Event.engine_of_string s with
      | Some e -> Ok e
      | None -> Error (`Msg (Printf.sprintf "unknown engine %S (pr, fr, newpr)" s))
    in
    Arg.conv (parse, fun ppf e -> Fmt.string ppf (Event.engine_name e))

  let engine_arg =
    Arg.(
      value
      & opt engine_conv Event.Pr
      & info [ "algo"; "a" ] ~docv:"ALGO" ~doc:"Engine to record: pr, fr, newpr.")

  let trace_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file (written by 'trace record').")

  let pp_stats ppf (s : Lr_trace.Writer.stats) =
    Format.fprintf ppf "%d events, %d bytes" s.Lr_trace.Writer.events
      s.Lr_trace.Writer.bytes

  let record_cmd =
    let out_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the trace to $(docv).")
    in
    let via_arg =
      Arg.(
        value & flag
        & info [ "via-automaton" ]
            ~doc:
              "Record a run of the persistent automaton under a random \
               scheduler instead of the flat engine (slower; exercises \
               concurrent steps for pr).")
    in
    let record family n seed engine via out graph_file =
      match instance ?graph_file ~family ~n ~seed () with
      | Error e -> `Error (false, e)
      | Ok _ when engine = Event.Maint ->
          `Error
            ( false,
              "maint traces are recorded by the chaos harness ('linkrev \
               chaos'), not 'trace record'" )
      | Ok config -> (
          (* the wire format addresses nodes as 0..n-1, and a run ends
             only if every linked node is in the destination's component
             (a component without it reverses forever); refuse either
             before a file is created *)
          let skel = Config.skeleton config in
          let reach = Undirected.component_of skel config.Config.destination in
          let stranded =
            Node.Set.filter
              (fun u -> Undirected.degree skel u > 0 && not (Node.Set.mem u reach))
              (Config.nodes config)
          in
          match Event.header_of_config engine config with
          | exception Invalid_argument e ->
              `Error (false, Printf.sprintf "cannot record this instance: %s" e)
          | (_ : Event.header) when not (Node.Set.is_empty stranded) ->
              `Error
                ( false,
                  Printf.sprintf
                    "cannot record this instance: node %d has links but no \
                     path to destination %d, so the run never ends"
                    (Node.Set.min_elt stranded) config.Config.destination )
          | (_ : Event.header) ->
              let work, reversals, stats =
                if via then
                  let scheduler () =
                    Lr_automata.Scheduler.random (Random.State.make [| 0x7a; seed |])
                  in
                  let outcome, stats =
                    match engine with
                    | Event.Pr ->
                        Record.persistent ~seed ~path:out ~engine
                          ~scheduler:(scheduler ()) config (One_step_pr.algo config)
                    | Event.Fr ->
                        Record.persistent ~seed ~path:out ~engine
                          ~scheduler:(scheduler ()) config
                          (Full_reversal.algo config)
                    | Event.New_pr ->
                        Record.persistent ~seed ~path:out ~engine
                          ~scheduler:(scheduler ()) config (New_pr.algo config)
                    | Event.Maint -> assert false (* rejected above *)
                  in
                  ( outcome.Executor.total_node_steps,
                    outcome.Executor.edge_reversals,
                    stats )
                else
                  let rule =
                    match engine with
                    | Event.Pr -> F.Partial
                    | Event.Fr -> F.Full
                    | Event.New_pr -> F.New_pr
                    | Event.Maint -> assert false (* rejected above *)
                  in
                  let outcome, stats = Record.fast ~seed ~path:out ~rule config in
                  (outcome.F.work, outcome.F.edge_reversals, stats)
              in
              Format.printf "recorded %s: work %d, edge reversals %d, %a@."
                (Event.engine_name engine) work reversals pp_stats stats;
              Format.printf "wrote %s@." out;
              `Ok ())
    in
    let term =
      Term.(
        ret
          (const record $ family_arg $ n_arg $ seed_arg $ engine_arg $ via_arg
          $ out_arg $ graph_file_arg))
    in
    Cmd.v
      (Cmd.info "record" ~doc:"Run an engine and record a binary trace.")
      term

  let replay_cmd =
    let target_arg =
      Arg.(
        value
        & opt (enum [ ("fast", `Fast); ("automaton", `Automaton); ("both", `Both) ])
            `Both
        & info [ "target" ] ~docv:"TARGET"
            ~doc:
              "Replay target: 'fast' (flat-array cursor), 'automaton' (the \
               persistent reference automaton), or 'both'.")
    in
    let replay path target =
      let fast () =
        match Replay.file path with
        | Error e -> Error e
        | Ok r ->
            Format.printf
              "fast replay: OK — %d events (%d steps, %d dummy, %d stale, %d \
               perturb), %d edge reversals, fingerprint %Lx@."
              r.Replay.events r.Replay.steps r.Replay.dummies r.Replay.stales
              r.Replay.perturbs r.Replay.edge_reversals
              r.Replay.summary.Event.final_fingerprint;
            Ok ()
      in
      let automaton () =
        match Replay.against_automaton path with
        | Error e -> Error e
        | Ok d ->
            Format.printf
              "automaton replay: OK — work %d, %d edge reversals, final graph \
               acyclic %b@."
              d.Replay.automaton_work d.Replay.automaton_reversals
              (Lr_graph.Digraph.is_acyclic d.Replay.final_graph);
            Ok ()
      in
      let result =
        match target with
        | `Fast -> fast ()
        | `Automaton -> automaton ()
        | `Both -> ( match fast () with Error e -> Error e | Ok () -> automaton ())
      in
      match result with Error e -> `Error (false, e) | Ok () -> `Ok ()
    in
    let term = Term.(ret (const replay $ trace_file_arg $ target_arg)) in
    Cmd.v
      (Cmd.info "replay"
         ~doc:
           "Deterministically re-execute a trace, checking every event's \
            precondition and the final orientation.")
      term

  let audit_cmd =
    let stride_arg =
      Arg.(
        value & opt int 1
        & info [ "stride" ] ~docv:"K"
            ~doc:"Check invariants every $(docv)-th event (1 = every state).")
    in
    let audit path stride =
      match Audit.run ~stride path with
      | Error e -> `Error (false, e)
      | Ok r ->
          let h = r.Audit.header in
          Format.printf "%s trace, n = %d, destination = %d, seed %s@."
            (Event.engine_name h.Event.engine)
            h.Event.n h.Event.destination
            (if h.Event.seed < 0 then "unknown" else string_of_int h.Event.seed);
          Format.printf
            "%d events: %d steps, %d dummy, %d stale, %d perturb; %d edge \
             reversals@."
            r.Audit.events r.Audit.steps r.Audit.dummies r.Audit.stales
            r.Audit.perturbs r.Audit.edge_reversals;
          Format.printf "recorded wall clock: %.3f ms; file: %d bytes@."
            (float_of_int r.Audit.summary.Event.wall_ns /. 1e6)
            r.Audit.bytes;
          Format.printf "work histogram (steps per node):@.%a"
            Audit.pp_histogram r.Audit.histogram;
          Format.printf "checked %d states: %d violation%s%s@."
            r.Audit.checked_states
            (List.length r.Audit.violations)
            (if List.length r.Audit.violations = 1 then "" else "s")
            (if r.Audit.summary_ok then "" else " (summary mismatch)");
          List.iter
            (fun v ->
              Format.printf "  after event %d, %s: %s@." v.Audit.event
                v.Audit.invariant v.Audit.message)
            r.Audit.violations;
          if Audit.clean r then `Ok ()
          else `Error (false, "audit found violations")
    in
    let term = Term.(ret (const audit $ trace_file_arg $ stride_arg)) in
    Cmd.v
      (Cmd.info "audit"
         ~doc:
           "Replay a trace and check the paper's invariants offline, with run \
            metrics.")
      term

  let stats_cmd =
    let stats path =
      match Audit.scan path with
      | Error e -> `Error (false, e)
      | Ok s ->
          let h = s.Audit.scan_header in
          Format.printf "%s trace, n = %d, destination = %d, %d edges@."
            (Event.engine_name h.Event.engine)
            h.Event.n h.Event.destination
            (List.length h.Event.edges);
          Format.printf
            "%d events (%d steps, %d dummy, %d stale, %d perturb), %d \
             reversed edges@."
            s.Audit.scan_events s.Audit.scan_steps s.Audit.scan_dummies
            s.Audit.scan_stales s.Audit.scan_perturbs
            s.Audit.scan_reversed_edges;
          Format.printf
            "summary: work %d, edge reversals %d, wall %.3f ms, fingerprint %Lx@."
            s.Audit.scan_summary.Event.work
            s.Audit.scan_summary.Event.edge_reversals
            (float_of_int s.Audit.scan_summary.Event.wall_ns /. 1e6)
            s.Audit.scan_summary.Event.final_fingerprint;
          Format.printf "%d bytes (%.1f bytes/event)@." s.Audit.scan_bytes
            (float_of_int s.Audit.scan_bytes
            /. float_of_int (max 1 s.Audit.scan_events));
          `Ok ()
    in
    let term = Term.(ret (const stats $ trace_file_arg)) in
    Cmd.v
      (Cmd.info "stats" ~doc:"Decode-only statistics of a trace file.")
      term

  let cmd =
    Cmd.group
      (Cmd.info "trace"
         ~doc:"Binary execution traces: record, replay, audit, stats.")
      [ record_cmd; replay_cmd; audit_cmd; stats_cmd ]
end

(* {1 serve / loadgen} *)

module Service_cli = struct
  module Wl = Lr_service.Workload
  module Svc = Lr_service.Service
  module Metrics = Lr_service.Metrics

  let rule_conv =
    let parse = function
      | "partial" | "pr" -> Ok Lr_routing.Maintenance.Partial_reversal
      | "full" | "fr" -> Ok Lr_routing.Maintenance.Full_reversal
      | s -> Error (`Msg (Printf.sprintf "unknown rule %S (partial, full)" s))
    in
    Arg.conv
      ( parse,
        fun ppf r ->
          Fmt.string ppf
            (match r with
            | Lr_routing.Maintenance.Partial_reversal -> "partial"
            | Lr_routing.Maintenance.Full_reversal -> "full") )

  let engine_conv =
    let parse = function
      | "fast" -> Ok Lr_service.Shard.Fast
      | "reference" | "ref" -> Ok Lr_service.Shard.Reference
      | s -> Error (`Msg (Printf.sprintf "unknown engine %S (fast, reference)" s))
    in
    Arg.conv
      ( parse,
        fun ppf e ->
          Fmt.string ppf
            (match e with
            | Lr_service.Shard.Fast -> "fast"
            | Lr_service.Shard.Reference -> "reference") )

  (* workload spec arguments, shared by serve and loadgen *)
  let shards_arg =
    Arg.(value & opt int 16
         & info [ "shards" ] ~docv:"K" ~doc:"Number of destination shards.")

  let nodes_arg =
    Arg.(value & opt int 24
         & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Nodes per shard graph.")

  let extra_edges_arg =
    Arg.(value & opt int 16
         & info [ "extra-edges" ] ~docv:"E"
             ~doc:"Chords beyond the spanning tree, per shard.")

  let ops_arg =
    Arg.(value & opt int 20_000
         & info [ "ops" ] ~docv:"N" ~doc:"Length of the op stream.")

  let mix_arg =
    Arg.(
      value
      & opt (t3 ~sep:'/' int int int) (90, 9, 1)
      & info [ "mix" ] ~docv:"R/C/X"
          ~doc:
            "Op mix weights route/churn/crash (churn splits evenly into \
             link-down and link-up).")

  let pmix_arg =
    Arg.(
      value
      & opt (t2 ~sep:'/' int int) (0, 0)
      & info [ "pmix" ] ~docv:"I/F"
          ~doc:
            "Packet-op mix weights inject/forward, rolled together with \
             $(b,--mix) in a single die (0/0 = pure routing workload).")

  let burst_arg =
    Arg.(value & opt int 4
         & info [ "burst" ] ~docv:"K"
             ~doc:
               "Packets per inject op and slots per forward op (must be >= \
                1).")

  let skew_arg =
    Arg.(value & opt float 0.8
         & info [ "skew" ] ~docv:"S"
             ~doc:
               "Zipf exponent of shard popularity; 0 = uniform, larger = \
                hotter hot shards.")

  let stats_every_arg =
    Arg.(value & opt int 0
         & info [ "stats-every" ] ~docv:"K"
             ~doc:"Insert a stats barrier op every $(docv) ops (0 = never).")

  let spec_term =
    let make shards nodes extra_edges seed ops (route, churn, crash)
        (inject, forward) burst skew stats_every =
      { Wl.shards; nodes; extra_edges; seed; ops;
        mix = { Wl.route; churn; crash }; pmix = { Wl.inject; forward };
        burst; skew; stats_every }
    in
    Term.(
      const make $ shards_arg $ nodes_arg $ extra_edges_arg $ seed_arg
      $ ops_arg $ mix_arg $ pmix_arg $ burst_arg $ skew_arg
      $ stats_every_arg)

  let chaos_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Weave a deterministic fault-injection schedule into the op \
             stream: $(docv) is COUNT[:SEED[:MAGNITUDE]] faults (corrupted \
             shard heights, route-bit flips, partitions with later heals, \
             destination-crash bursts, queue poisoning) spread over the \
             run.  The woven stream is a pure function of the spec, so \
             fingerprints stay comparable across engines, dispatchers and \
             job counts.")

  (* Weave the --chaos schedule into a generated-or-loaded op stream;
     the spec's op count tracks the woven length so the result saves
     and validates like any other workload. *)
  let apply_chaos chaos (spec, ops) =
    match chaos with
    | None -> Ok (spec, ops, 0)
    | Some text -> (
        match Lr_chaos.Schedule.spec_of_string text with
        | Error e -> Error e
        | Ok cspec ->
            let sched =
              Lr_chaos.Schedule.generate cspec ~shards:spec.Wl.shards
                ~nodes:spec.Wl.nodes
            in
            let graphs =
              Array.map
                (fun (c : Linkrev.Config.t) -> c.Linkrev.Config.initial)
                (Wl.shard_configs spec)
            in
            let woven = Lr_chaos.Schedule.weave sched ~graphs ops in
            Ok
              ( { spec with Wl.ops = Array.length woven },
                woven,
                Array.length woven - Array.length ops ))

  let loadgen_cmd =
    let out_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "output"; "o" ] ~docv:"FILE"
            ~doc:"Write the workload to $(docv).")
    in
    let loadgen spec chaos out =
      match Wl.generate spec with
      | exception Invalid_argument e -> `Error (false, e)
      | ops -> (
          match apply_chaos chaos (spec, ops) with
          | Error e -> `Error (false, e)
          | Ok (spec, ops, injected) ->
              Wl.save out spec ops;
              Format.printf "wrote %s: %s@." out (Wl.describe spec);
              if injected > 0 then
                Format.printf "wove %d chaos ops into the stream@." injected;
              `Ok ())
    in
    let term = Term.(ret (const loadgen $ spec_term $ chaos_arg $ out_arg)) in
    Cmd.v
      (Cmd.info "loadgen"
         ~doc:
           "Generate a deterministic service workload file (replayed \
            bit-identically by 'serve --workload').")
      term

  let serve_cmd =
    let workload_arg =
      Arg.(
        value
        & opt (some file) None
        & info [ "workload"; "w" ] ~docv:"FILE"
            ~doc:
              "Replay the op stream from $(docv) (written by 'linkrev \
               loadgen') instead of generating one; the file's spec \
               overrides the generation flags.")
    in
    let queue_bound_conv =
      let parse s =
        if s = "auto" then Ok None
        else
          match int_of_string_opt s with
          | Some n -> Ok (Some n)
          | None ->
              Error (`Msg (Printf.sprintf "expected an integer or 'auto', got %S" s))
      in
      let print ppf = function
        | None -> Format.pp_print_string ppf "auto"
        | Some n -> Format.pp_print_int ppf n
      in
      Arg.conv (parse, print)
    in
    let queue_bound_arg =
      Arg.(
        value
        & opt queue_bound_conv (Some Svc.default_config.Svc.queue_bound)
        & info [ "queue-bound" ] ~docv:"B"
            ~doc:
              "Per-shard op-ring capacity, at most 2^24 = 16777216 \
               (rounded up to a power of two); an op arriving at a full \
               ring is answered 'rejected overloaded' on the spot instead \
               of queueing unboundedly.  $(b,auto) sets the bound to the \
               op count + 1, which makes rejection impossible by \
               construction — so runs of the same stream at different \
               $(b,--jobs) must agree byte-for-byte (the CI differential \
               uses this); a stream of 2^24 ops or more is then too long \
               for $(b,auto).")
    in
    let pin_loops_arg =
      Arg.(
        value & flag
        & info [ "pin-loops" ]
            ~doc:
              "Spawn exactly jobs-1 resident shard loops even beyond the \
               host's domain count.  By default loops are clamped to the \
               hardware: every live domain joins each minor-GC \
               stop-the-world barrier, so overprovisioned domains only \
               slow the service down.")
    in
    let rule_arg =
      Arg.(
        value & opt rule_conv Lr_routing.Maintenance.Partial_reversal
        & info [ "rule" ] ~docv:"RULE"
            ~doc:"Maintenance rule: partial (PR) or full (FR).")
    in
    let engine_arg =
      Arg.(
        value & opt engine_conv Svc.default_config.Svc.engine
        & info [ "engine" ] ~docv:"ENGINE"
            ~doc:
              "Maintenance engine: fast (flat-array worklist engine with \
               the next-hop route cache, the default) or reference (the \
               persistent oracle).  Responses, counters and the \
               fingerprint are byte-identical across the two.")
    in
    let trace_dir_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "trace-dir" ] ~docv:"DIR"
            ~doc:
              "Record each shard's initial-orientation stabilization as a \
               replayable LRT1 trace in $(docv) (audit with 'linkrev trace \
               audit').")
    in
    let serve spec workload chaos jobs queue_bound rule engine pin_loops
        trace_dir =
      let loaded =
        match workload with
        | None -> (
            match Wl.generate spec with
            | exception Invalid_argument e -> Error e
            | ops -> Ok (spec, ops))
        | Some path -> Wl.load path
      in
      let loaded = Result.bind loaded (apply_chaos chaos) in
      match loaded with
      | Error e -> `Error (false, e)
      | Ok (spec, ops, _injected) ->
          let queue_bound =
            match queue_bound with
            | Some b -> b
            | None -> Array.length ops + 1
          in
          let cfg = { Svc.jobs; queue_bound; rule; engine; pin_loops } in
          let svc =
            try Ok (Svc.create ?trace_dir cfg (Wl.shard_configs spec))
            with Invalid_argument e -> Error e
          in
          (match svc with
          | Error e -> `Error (false, e)
          | Ok svc ->
              Fun.protect
                ~finally:(fun () -> Svc.shutdown svc)
                (fun () ->
                  Format.printf "%s@." (Wl.describe spec);
                  let responses, seconds =
                    Lr_parallel.Pool.timed (fun () -> Svc.run svc ops)
                  in
                  let snap = Svc.metrics svc in
                  let t = snap.Metrics.snapshot_totals in
                  let rows =
                    Array.to_list
                      (Array.mapi
                         (fun i per ->
                           let ring = snap.Metrics.snapshot_rings.(i) in
                           [
                             string_of_int i;
                             string_of_int per.Metrics.served;
                             string_of_int per.Metrics.routes;
                             string_of_int per.Metrics.no_routes;
                             string_of_int per.Metrics.link_events;
                             string_of_int per.Metrics.crashes;
                             string_of_int per.Metrics.rejected;
                             string_of_int per.Metrics.reversal_steps;
                             string_of_int ring.Metrics.max_depth;
                             string_of_int ring.Metrics.stolen;
                           ])
                         snap.Metrics.snapshot_per_shard)
                  in
                  Lr_analysis.Table.print
                    ~title:
                      (Printf.sprintf
                         "per-shard metrics (%d domains, rule %s, engine %s)"
                         jobs
                         (match rule with
                         | Lr_routing.Maintenance.Partial_reversal -> "partial"
                         | Lr_routing.Maintenance.Full_reversal -> "full")
                         (match engine with
                         | Lr_service.Shard.Fast -> "fast"
                         | Lr_service.Shard.Reference -> "reference"))
                    (Lr_analysis.Table.make
                       ~headers:
                         [ "shard"; "served"; "routes"; "no-route"; "links";
                           "crashes"; "rejected"; "rev steps"; "max ring";
                           "stolen" ]
                       rows);
                  Format.printf "totals: %s@." (Metrics.totals_line t);
                  Format.printf "rings: %s@."
                    (Metrics.ring_line snap.Metrics.rings_totals);
                  Format.printf
                    "latency (us over %d samples): p50 %.3f, p95 %.3f, p99 \
                     %.3f, p99.9 %.3f, max %.3f@."
                    snap.Metrics.latency_samples
                    (1e6 *. snap.Metrics.latency.Lr_analysis.Stats.p50)
                    (1e6 *. snap.Metrics.latency.Lr_analysis.Stats.p95)
                    (1e6 *. snap.Metrics.latency.Lr_analysis.Stats.p99)
                    (1e6 *. snap.Metrics.latency.Lr_analysis.Stats.p999)
                    (1e6 *. snap.Metrics.latency.Lr_analysis.Stats.max);
                  if snap.Metrics.recovery_samples > 0 then
                    Format.printf
                      "recovery (ms over %d heals): p50 %.3f, p95 %.3f, p99 \
                       %.3f, p99.9 %.3f, max %.3f@."
                      snap.Metrics.recovery_samples
                      (1000.0 *. snap.Metrics.recovery.Lr_analysis.Stats.p50)
                      (1000.0 *. snap.Metrics.recovery.Lr_analysis.Stats.p95)
                      (1000.0 *. snap.Metrics.recovery.Lr_analysis.Stats.p99)
                      (1000.0 *. snap.Metrics.recovery.Lr_analysis.Stats.p999)
                      (1000.0 *. snap.Metrics.recovery.Lr_analysis.Stats.max);
                  Format.printf "throughput: %.0f ops/s (%.3f s wall)@."
                    (float_of_int (Array.length ops) /. Float.max 1e-9 seconds)
                    seconds;
                  Format.printf "fingerprint: %s@."
                    (Svc.fingerprint responses snap);
                  let leaked = Svc.rejected_in responses <> t.Metrics.rejected in
                  if leaked then
                    Format.printf
                      "FAILURE: %d rejected responses vs %d rejected in \
                       metrics@."
                      (Svc.rejected_in responses) t.Metrics.rejected;
                  if t.Metrics.validation_failures > 0 then
                    Format.printf "FAILURE: %d route validation failures@."
                      t.Metrics.validation_failures;
                  if leaked || t.Metrics.validation_failures > 0 then
                    `Error (false, "service correctness check failed")
                  else `Ok ()))
    in
    let term =
      Term.(
        ret
          (const serve $ spec_term $ workload_arg $ chaos_arg $ jobs_arg
          $ queue_bound_arg $ rule_arg $ engine_arg $ pin_loops_arg
          $ trace_dir_arg))
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Run the sharded routing service over a workload and print its \
            metrics report (validated routes, backpressure, latency \
            percentiles).")
      term
end

(* {1 lint} *)

module Lint_cli = struct
  open Lr_lint

  let parse_rules = function
    | None -> Ok Rule.all
    | Some s when String.equal (String.lowercase_ascii (String.trim s)) "all"
      ->
        Ok Rule.all
    | Some s ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | id :: rest -> (
              match Rule.of_string (String.trim id) with
              | Some r -> go (r :: acc) rest
              | None ->
                  Error
                    (Printf.sprintf "unknown rule %S (expected l1..l9 or all)"
                       id))
        in
        go [] (String.split_on_char ',' s)

  let load_allow root = function
    | Some file -> Allowlist.load file
    | None ->
        let default = Filename.concat root "lint_allow.conf" in
        if Sys.file_exists default then Allowlist.load default
        else Ok Allowlist.empty

  let lint_cmd =
    let rules_arg =
      Arg.(
        value & opt (some string) None
        & info [ "rules" ] ~docv:"IDS"
            ~doc:
              "Comma-separated subset of rules to run (l1 poly-ops, l2 \
               toplevel mutable state, l3 interface hygiene, l4 forbidden \
               constructs, l5 race candidates, l6 resident-loop blocking, \
               l7 escaping exceptions, l8 atomic overhead, l9 unused \
               surface), or $(b,all). Default: all nine.")
    in
    let json_arg =
      Arg.(
        value & flag
        & info [ "json" ] ~doc:"Print the report as JSON instead of text.")
    in
    let output_arg =
      Arg.(
        value & opt (some string) None
        & info [ "output" ] ~docv:"FILE"
            ~doc:"Also write the JSON report to $(docv).")
    in
    let baseline_arg =
      Arg.(
        value & opt (some string) None
        & info [ "baseline" ] ~docv:"FILE"
            ~doc:
              "Subtract the findings recorded in $(docv); only new findings \
               fail the lint.")
    in
    let write_baseline_arg =
      Arg.(
        value & opt (some string) None
        & info [ "write-baseline" ] ~docv:"FILE"
            ~doc:"Record the current findings to $(docv) and exit 0.")
    in
    let allow_arg =
      Arg.(
        value & opt (some string) None
        & info [ "allow" ] ~docv:"FILE"
            ~doc:
              "Allowlist file (default: lint_allow.conf at the root, if \
               present).")
    in
    let root_arg =
      Arg.(
        value & opt string "."
        & info [ "root" ] ~docv:"DIR" ~doc:"Repository root.")
    in
    let build_dir_arg =
      Arg.(
        value & opt (some string) None
        & info [ "build-dir" ] ~docv:"DIR"
            ~doc:"Dune context root (default: ROOT/_build/default).")
    in
    let dir_arg =
      Arg.(
        value & opt_all string []
        & info [ "dir" ] ~docv:"DIR"
            ~doc:
              "Source directory to report on, relative to the root \
               (repeatable; default: lib).")
    in
    let allow_strict_arg =
      Arg.(
        value & flag
        & info [ "allow-strict" ]
            ~doc:
              "Fail when the allowlist carries entries no finding matched: \
               dead suppressions hide future regressions.")
    in
    let lint rules json output baseline write_baseline allow allow_strict root
        build_dir dirs =
      let ( let* ) r f = match r with Error e -> `Error (false, e) | Ok v -> f v in
      let* rules = parse_rules rules in
      let* allow = load_allow root allow in
      let config =
        let c = Lint.default_config ~root in
        {
          c with
          Lint.rules;
          allow;
          build_dir = Option.value build_dir ~default:c.Lint.build_dir;
          dirs = (match dirs with [] -> c.Lint.dirs | ds -> ds);
        }
      in
      let* report = Lint.run config in
      let all = report.Lint.diagnostics in
      match write_baseline with
      | Some file ->
          Baseline.save file all;
          Printf.printf "wrote %d finding(s) to %s\n" (List.length all) file;
          `Ok ()
      | None ->
          let* kept, suppressed =
            match baseline with
            | None -> Ok (all, 0)
            | Some file ->
                Result.map (fun b -> Baseline.apply b all) (Baseline.load file)
          in
          let units = report.Lint.units in
          let doc =
            Lint.report_json ~units ~suppressed ~safety:report.Lint.safety
              ~surface:report.Lint.surface kept
          in
          Option.iter
            (fun file ->
              Out_channel.with_open_text file (fun oc ->
                  Out_channel.output_string oc (Json.to_string doc)))
            output;
          if json then print_endline (Json.to_string doc)
          else (
            List.iter (fun d -> print_endline (Diagnostic.to_human d)) kept;
            print_endline (Lint.summary ~units ~suppressed kept));
          let unused = if allow_strict then Allowlist.unused allow else [] in
          List.iter
            (fun e -> Printf.eprintf "unused allowlist entry: %s\n" e)
            unused;
          if
            List.compare_length_with kept 0 = 0
            && List.compare_length_with unused 0 = 0
          then `Ok ()
          else if List.compare_length_with kept 0 > 0 then
            `Error
              ( false,
                Printf.sprintf "lint failed with %d finding(s)"
                  (List.length kept) )
          else
            `Error
              ( false,
                Printf.sprintf "lint failed: %d unused allowlist entr%s"
                  (List.length unused)
                  (if List.compare_length_with unused 1 = 0 then "y" else "ies")
              )
    in
    let term =
      Term.(
        ret
          (const lint $ rules_arg $ json_arg $ output_arg $ baseline_arg
          $ write_baseline_arg $ allow_arg $ allow_strict_arg $ root_arg
          $ build_dir_arg $ dir_arg))
    in
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Static analysis over the dune-produced typed trees: hot-path \
            purity (l1), toplevel mutable state (l2), interface hygiene (l3), \
            forbidden constructs (l4), plus the interprocedural \
            domain-safety rules over the cross-module call graph: race \
            candidates (l5), resident-loop blocking (l6), escaping \
            exceptions (l7), single-context atomics (l8); and unused \
            exports and never-passed optional parameters (l9).")
      term

  let callgraph_cmd =
    let dot_arg =
      Arg.(
        value & opt (some string) None
        & info [ "dot" ] ~docv:"FILE"
            ~doc:
              "Write the domain-safety subgraph (roots, crossing/resident \
               sets, owner boundaries) as Graphviz DOT to $(docv).")
    in
    let root_arg =
      Arg.(
        value & opt string "."
        & info [ "root" ] ~docv:"DIR" ~doc:"Repository root.")
    in
    let build_dir_arg =
      Arg.(
        value & opt (some string) None
        & info [ "build-dir" ] ~docv:"DIR"
            ~doc:"Dune context root (default: ROOT/_build/default).")
    in
    let callgraph dot root build_dir =
      let config =
        let c = Lint.default_config ~root in
        {
          c with
          Lint.build_dir = Option.value build_dir ~default:c.Lint.build_dir;
        }
      in
      match Lint.callgraph_analysis config with
      | Error e -> `Error (false, e)
      | Ok analysis ->
          let s = Domain_safety.stats analysis in
          Printf.printf
            "callgraph: %d node(s), %d edge(s), %d root(s); crossing %d, \
             resident %d, owner boundaries %d\n"
            s.Domain_safety.nodes s.Domain_safety.edges s.Domain_safety.roots
            s.Domain_safety.crossing s.Domain_safety.resident
            s.Domain_safety.boundaries;
          Option.iter
            (fun file ->
              Out_channel.with_open_text file (fun oc ->
                  Out_channel.output_string oc
                    (Domain_safety.to_dot analysis));
              Printf.printf "wrote %s\n" file)
            dot;
          `Ok ()
    in
    let term =
      Term.(ret (const callgraph $ dot_arg $ root_arg $ build_dir_arg)) in
    Cmd.v
      (Cmd.info "callgraph"
         ~doc:
           "Debug view of the interprocedural call graph behind the \
            domain-safety lint rules: prints its size and the \
            crossing/resident set sizes, optionally dumping DOT.")
      term
end

(* {1 packet} *)

module Packet_cli = struct
  module Ps = Lr_packet.Scenario
  module Geo = Lr_packet.Geo

  let sweep_cmd =
    let d = Ps.default_bp in
    let nodes_arg =
      Arg.(value & opt int d.Ps.nodes
           & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Nodes in the random DAG.")
    in
    let extra_edges_arg =
      Arg.(value & opt int d.Ps.extra_edges
           & info [ "extra-edges" ] ~docv:"E"
               ~doc:"Chords beyond the spanning tree.")
    in
    let dests_arg =
      Arg.(value & opt int d.Ps.dests
           & info [ "dests" ] ~docv:"D"
               ~doc:"Forwarding planes (destinations 0..D-1).")
    in
    let bseed_arg =
      Arg.(value & opt int d.Ps.seed
           & info [ "seed" ] ~docv:"SEED"
               ~doc:"Seed for topology, injection and churn streams.")
    in
    let slots_arg =
      Arg.(value & opt int d.Ps.slots
           & info [ "slots" ] ~docv:"T" ~doc:"Injection slots.")
    in
    let drain_arg =
      Arg.(value & opt int d.Ps.drain
           & info [ "drain" ] ~docv:"T"
               ~doc:
                 "Injection-free slot budget after the run (early exit once \
                  queues empty).")
    in
    let rates_arg =
      Arg.(
        value
        & opt (list int) [ 1; 2; 4; 8; 16; 24; 32 ]
        & info [ "rates" ] ~docv:"R1,R2,..."
            ~doc:"Injection rates (packets per slot) to sweep, ascending.")
    in
    let skew_arg =
      Arg.(value & opt float d.Ps.skew
           & info [ "skew" ] ~docv:"S"
               ~doc:"Zipf exponent over destinations; 0 = uniform.")
    in
    let qcap_arg =
      Arg.(value & opt int d.Ps.qcap
           & info [ "qcap" ] ~docv:"Q"
               ~doc:"Per-node per-destination packet queue bound.")
    in
    let cap_arg =
      Arg.(value & opt int d.Ps.cap
           & info [ "cap" ] ~docv:"C"
               ~doc:"Transmissions per node per slot.")
    in
    let churn_arg =
      Arg.(value & opt int d.Ps.churn_every
           & info [ "churn-every" ] ~docv:"K"
               ~doc:
                 "Toggle one tracked link down/up every $(docv) slots \
                  (0 = no churn; a downed link is restored before \
                  draining).")
    in
    let trace_dir_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "trace-dir" ] ~docv:"DIR"
            ~doc:
              "Record each plane's initial stabilization as a replayable \
               LRT1 trace in $(docv) (queue-driven reversals themselves \
               are not replayable events).")
    in
    let sweep nodes extra_edges dests seed slots drain rates skew qcap cap
        churn_every trace_dir =
      let spec =
        { Ps.nodes; extra_edges; dests; seed; slots; drain; rate = 1; skew;
          qcap; cap; churn_every }
      in
      match Ps.sweep ?trace_dir spec ~rates with
      | exception Invalid_argument e -> `Error (false, e)
      | results ->
          let rows =
            List.map
              (fun (r : Ps.bp_result) ->
                [
                  string_of_int r.Ps.rate;
                  string_of_int r.Ps.offered;
                  string_of_int r.Ps.delivered;
                  Printf.sprintf "%.4f" (Ps.delivery r);
                  string_of_int r.Ps.dropped;
                  string_of_int r.Ps.queued_end;
                  string_of_int r.Ps.remaining;
                  string_of_int r.Ps.high_water;
                  string_of_int r.Ps.reversals;
                  Printf.sprintf "%.3f" (Ps.stretch r);
                  (if r.Ps.diverged then "yes" else "no");
                ])
              results
          in
          Lr_analysis.Table.print
            ~title:
              (Printf.sprintf
                 "backpressure sweep: %d nodes, %d planes, %d slots, qcap \
                  %d, churn every %d"
                 nodes dests slots qcap churn_every)
            (Lr_analysis.Table.make
               ~headers:
                 [ "rate"; "offered"; "delivered"; "delivery"; "dropped";
                   "queued@end"; "undrained"; "high water"; "reversals";
                   "stretch"; "diverged" ]
               rows);
          (match Ps.stability_threshold results with
          | Some r -> Format.printf "stability threshold: rate %d@." r
          | None ->
              Format.printf
                "stability threshold: none (unstable at every swept rate)@.");
          `Ok ()
    in
    let term =
      Term.(
        ret
          (const sweep $ nodes_arg $ extra_edges_arg $ dests_arg $ bseed_arg
          $ slots_arg $ drain_arg $ rates_arg $ skew_arg $ qcap_arg $ cap_arg
          $ churn_arg $ trace_dir_arg))
    in
    Cmd.v
      (Cmd.info "sweep"
         ~doc:
           "Sweep injection rates through the backpressure link-reversal \
            forwarding planes and report the stability threshold.")
      term

  let void_cmd =
    let d = Ps.default_void in
    let nodes_arg =
      Arg.(value & opt int d.Ps.vnodes
           & info [ "nodes"; "n" ] ~docv:"N"
               ~doc:"Nodes in the geometric random graph.")
    in
    let radius_arg =
      Arg.(value & opt float d.Ps.radius
           & info [ "radius" ] ~docv:"R" ~doc:"Connection radius.")
    in
    let sources_arg =
      Arg.(value & opt int d.Ps.sources
           & info [ "sources" ] ~docv:"K"
               ~doc:"Leftmost nodes used as traffic sources.")
    in
    let per_source_arg =
      Arg.(value & opt int d.Ps.per_source
           & info [ "per-source" ] ~docv:"P" ~doc:"Packets per source.")
    in
    let max_slots_arg =
      Arg.(value & opt int d.Ps.max_slots
           & info [ "max-slots" ] ~docv:"T" ~doc:"Forwarding slot budget.")
    in
    let qcap_arg =
      Arg.(value & opt int d.Ps.vqcap
           & info [ "qcap" ] ~docv:"Q" ~doc:"Per-node packet queue bound.")
    in
    let vseed_arg =
      Arg.(value & opt int d.Ps.vseed
           & info [ "seed" ] ~docv:"SEED"
               ~doc:
                 "Placement seed (the default is tuned so greedy strands \
                  packets).")
    in
    let void_arg =
      let x0, y0, x1, y1 = d.Ps.void_ in
      Arg.(
        value
        & opt (t4 ~sep:',' float float float float) (x0, y0, x1, y1)
        & info [ "void" ] ~docv:"X0,Y0,X1,Y1"
            ~doc:"Rectangular void kept free of nodes.")
    in
    let void nodes radius seed sources per_source max_slots qcap void_ =
      let spec =
        { Ps.vnodes = nodes; radius; vseed = seed; sources; per_source;
          max_slots; vqcap = qcap; void_ }
      in
      match Ps.run_void spec with
      | exception Invalid_argument e -> `Error (false, e)
      | { Ps.greedy; recovery; minima } ->
          let row (g : Geo.result) =
            [
              (match g.Geo.mode with Geo.Greedy -> "greedy" | Geo.Recovery -> "recovery");
              string_of_int g.Geo.injected;
              string_of_int g.Geo.delivered;
              Printf.sprintf "%.4f" (Geo.delivery g);
              string_of_int g.Geo.remaining;
              string_of_int g.Geo.slots_used;
              string_of_int g.Geo.max_level;
              Printf.sprintf "%.3f" (Geo.stretch g);
            ]
          in
          Lr_analysis.Table.print
            ~title:
              (Printf.sprintf
                 "geographic void: %d nodes, radius %.2f, %d greedy local \
                  minima"
                 nodes radius minima)
            (Lr_analysis.Table.make
               ~headers:
                 [ "mode"; "injected"; "delivered"; "delivery"; "stranded";
                   "slots"; "max level"; "stretch" ]
               [ row greedy; row recovery ]);
          if recovery.Geo.delivered < recovery.Geo.injected then
            `Error (false, "recovery mode failed to deliver every packet")
          else `Ok ()
    in
    let term =
      Term.(
        ret
          (const void $ nodes_arg $ radius_arg $ vseed_arg $ sources_arg
          $ per_source_arg $ max_slots_arg $ qcap_arg $ void_arg))
    in
    Cmd.v
      (Cmd.info "void"
         ~doc:
           "Run greedy geographic forwarding and neighbour-oblivious \
            link-reversal recovery over the same void instance; greedy \
            strands packets at local minima, recovery must deliver all.")
      term

  let cmd =
    Cmd.group
      (Cmd.info "packet"
         ~doc:
           "Packet forwarding over link-reversal routes: backpressure rate \
            sweeps and geographic-void recovery.")
      [ sweep_cmd; void_cmd ]
end

(* {1 chaos} *)

module Chaos_cli = struct
  module C = Lr_chaos.Chaos

  let nodes_arg =
    Arg.(
      value & opt int 48
      & info [ "nodes"; "n" ] ~docv:"N"
          ~doc:"Approximate instance size of each scenario.")

  let cseed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:"Base seed of the scenario battery (instances and corruptions).")

  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Keep each scenario's recovery as a replayable LRT1 maint trace \
             in $(docv) (chaos_<scenario>.lrt) instead of a deleted temp \
             file.")

  let no_audit_arg =
    Arg.(
      value & flag
      & info [ "no-audit" ]
          ~doc:
            "Skip the per-state acyclicity audit of the recorded recovery \
             traces.")

  let rule_arg =
    Arg.(
      value
      & opt Service_cli.rule_conv Lr_routing.Maintenance.Partial_reversal
      & info [ "rule" ] ~docv:"RULE"
          ~doc:"Maintenance rule: partial (PR) or full (FR).")

  let chaos nodes seed rule trace_dir no_audit =
    match C.battery ?trace_dir ~audit:(not no_audit) rule ~n:nodes ~seed with
    | Error e -> `Error (false, e)
    | Ok checked -> (
        let rows =
          List.map
            (fun (c : C.checked) ->
              let d = c.C.result in
              [
                c.C.scenario.C.name;
                string_of_int d.C.fast.C.n;
                string_of_int c.C.scenario.C.magnitude;
                string_of_int d.C.fast.C.perturbed_edges;
                string_of_int d.C.fast.C.steps;
                string_of_int d.C.fast.C.rounds;
                string_of_int d.C.fast.C.budget;
                (if d.C.agree then "yes" else "NO");
                Printf.sprintf "%.2f" (float_of_int d.C.fast.C.wall_ns /. 1e6);
                C.audit_cell c;
              ])
            checked
        in
        Lr_analysis.Table.print
          ~title:
            (Printf.sprintf
               "chaos battery: corrupt-all recovery, rule %s, fast vs reference"
               (match rule with
               | Lr_routing.Maintenance.Partial_reversal -> "partial"
               | Lr_routing.Maintenance.Full_reversal -> "full"))
          (Lr_analysis.Table.make
             ~headers:
               [ "scenario"; "n"; "mag"; "perturbed"; "steps"; "rounds";
                 "budget"; "agree"; "ms"; "audit" ]
             rows);
        let failures =
          List.concat_map
            (fun (c : C.checked) ->
              List.map
                (fun f -> c.C.scenario.C.name ^ ": " ^ C.failure_message c.C.result f)
                c.C.failures)
            checked
        in
        match failures with
        | [] ->
            Format.printf
              "all scenarios converged within budget, engines agree@.";
            `Ok ()
        | fs -> `Error (false, String.concat "; " fs))

  let cmd =
    let term =
      Term.(
        ret
          (const chaos $ nodes_arg $ cseed_arg $ rule_arg $ trace_dir_arg
          $ no_audit_arg))
    in
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Run the self-stabilization battery: corrupt every height with \
            an adversarial seeded assignment, recover on both maintenance \
            engines, and demand convergence within the spread-aware work \
            budget, byte-identical fast-vs-reference recoveries and a \
            clean per-state acyclicity audit of the recorded traces.")
      term
end

(* {1 storm} *)

(* A link-churn storm on the fast maintenance engine alone, at sizes
   the persistent reference cannot replay: streaming seeded churn with
   the full component-index cross-check at every phase boundary.  The
   CI smoke gate runs this at n=10^4. *)
module Storm_cli = struct
  module Churn = Lr_routing.Churn
  module FM = Lr_routing.Fast_maintenance

  let nodes_arg =
    Arg.(
      value & opt int 10_000
      & info [ "nodes" ] ~docv:"N" ~doc:"Instance size.")

  let events_arg =
    Arg.(
      value & opt int 0
      & info [ "events" ] ~docv:"K"
          ~doc:"Churn events to stream (0 means 2N).")

  let phases_arg =
    Arg.(
      value & opt int 4
      & info [ "phases" ] ~docv:"P"
          ~doc:
            "Split the storm into $(docv) phases and run the full \
             component-index consistency cross-check after each.")

  let sseed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

  (* The D-S2 ladder's churn model ({!Lr_routing.Churn}), replayed
     phase by phase with the full cross-check after each phase. *)
  let storm nodes events rule seed phases =
    if nodes < 2 then `Error (false, "--nodes must be at least 2")
    else begin
      let events = if events <= 0 then 2 * nodes else events in
      let phases = max 1 phases in
      let rng = Random.State.make [| 0x57; seed |] in
      let inst =
        Generators.random_connected_dag rng ~n:nodes ~extra_edges:(nodes / 2)
      in
      let config = Config.of_instance inst in
      let fm, create_s =
        Lr_parallel.Pool.timed (fun () -> FM.create rule config)
      in
      let tape =
        Churn.tape (Random.State.make [| 0x57; 0xbad; seed |]) ~events config
      in
      let count p = Array.fold_left (fun k op -> if p op then k + 1 else k) 0 tape in
      let len = Array.length tape in
      let per_phase = (len + phases - 1) / phases in
      let partitions = ref 0 and bad_phase = ref (-1) in
      let (), storm_s =
        Lr_parallel.Pool.timed (fun () ->
            for p = 0 to phases - 1 do
              let last = min len ((p + 1) * per_phase) in
              for i = p * per_phase to last - 1 do
                if Churn.apply_fast fm tape.(i) then incr partitions
              done;
              if !bad_phase < 0 && not (FM.consistent fm) then bad_phase := last
            done)
      in
      Format.printf
        "storm: n=%d, %d events (%d down, %d up, %d node-fail), %d \
         partitions@."
        nodes events
        (count (function Churn.Down _ -> true | _ -> false))
        (count (function Churn.Up _ -> true | _ -> false))
        (count (function Churn.Fail _ -> true | _ -> false))
        !partitions;
      Format.printf
        "create %.3f s; storm %.3f s (%.0f events/s); component %d/%d; \
         work %d@."
        create_s storm_s
        (float_of_int len /. Float.max 1e-9 storm_s)
        (FM.component_size fm) nodes (FM.total_work fm);
      if !bad_phase >= 0 then
        `Error
          ( false,
            Printf.sprintf
              "component index inconsistent after op %d (of %d)" !bad_phase
              len )
      else begin
        Format.printf "consistent at every phase boundary (%d phases)@."
          phases;
        `Ok ()
      end
    end

  let cmd =
    let term =
      Term.(
        ret
          (const storm $ nodes_arg $ events_arg
          $ Arg.(
              value
              & opt Service_cli.rule_conv Lr_routing.Maintenance.Partial_reversal
              & info [ "rule" ] ~docv:"RULE" ~doc:"partial (pr) or full (fr).")
          $ sseed_arg $ phases_arg))
    in
    Cmd.v
      (Cmd.info "storm"
         ~doc:
           "Stream a seeded link-churn storm through the fast maintenance \
            engine, drawing link-downs from the present edge set, and \
            cross-check its membership bitmap of the destination's \
            component against a fresh BFS at every phase boundary (exit 1 \
            on divergence).")
      term
end

let main_cmd =
  let doc = "link reversal algorithms (Partial Reversal Acyclicity reproduction)" in
  Cmd.group (Cmd.info "linkrev" ~version:"1.0.0" ~doc)
    [ run_cmd; sweep_cmd; check_cmd; game_cmd; stats_cmd; theorems_cmd;
      tora_cmd; generate_cmd; Trace_cli.cmd; Service_cli.serve_cmd;
      Service_cli.loadgen_cmd; Packet_cli.cmd; Chaos_cli.cmd;
      Storm_cli.cmd; Lint_cli.lint_cmd; Lint_cli.callgraph_cmd ]

(* An output path the OS refuses (a missing directory, a regular file
   where a directory should be) is the user's error, reported here once
   for every command that writes; any other exception is still an
   internal error. *)
let () =
  exit
    (try Cmd.eval ~catch:false main_cmd with
    | Sys_error msg ->
        Format.eprintf "linkrev: %s@." msg;
        Cmd.Exit.cli_error
    | e ->
        let bt =
          Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
        in
        Format.eprintf "linkrev: internal error, uncaught exception:@\n%s@."
          (String.trim (Printexc.to_string e ^ "\n" ^ bt));
        Cmd.Exit.internal_error)
