(* D-L1: the static analyser over the whole library tree — wall clock,
   L9's export counts and a hard failure if the tree stopped linting
   clean.  D-L2: the interprocedural domain-safety pass (call-graph
   construction plus rules L5-L8), gated at five seconds end to end. *)

open Harness
module T = Lr_analysis.Table
module Lint = Lr_lint.Lint
module Diagnostic = Lr_lint.Diagnostic
module Rule = Lr_lint.Rule
module Ds = Lr_lint.Domain_safety

let safety_gate = 5.0

(* The D-L2 section for one analysis: its tables, its gate, and its
   BENCH_lint.json object. *)
let domain_safety g (r : Lint.report) (safety : Lint.safety) =
  let st = safety.Lint.stats in
  let rule_count rule =
    List.length
      (List.filter
         (fun (d : Diagnostic.t) -> Rule.equal d.Diagnostic.rule rule)
         r.Lint.diagnostics)
  in
  section "D-L2" "domain-safety analysis (cross-module call graph, L5-L8)";
  T.print ~title:"interprocedural call graph"
    (T.make
       ~headers:
         [ "nodes"; "edges"; "roots"; "crossing"; "resident"; "boundaries";
           "suppressed"; "analyse" ]
       [
         [
           string_of_int st.Ds.nodes;
           string_of_int st.Ds.edges;
           string_of_int st.Ds.roots;
           string_of_int st.Ds.crossing;
           string_of_int st.Ds.resident;
           string_of_int st.Ds.boundaries;
           string_of_int st.Ds.owner_suppressed;
           Printf.sprintf "%.3f s" safety.Lint.analyse_seconds;
         ];
       ]);
  T.print ~title:"findings and wall clock per safety rule"
    (T.make
       ~headers:[ "rule"; "findings"; "wall" ]
       (List.map
          (fun (rule, rule_seconds) ->
            [
              Rule.id rule;
              string_of_int (rule_count rule);
              Printf.sprintf "%.6f s" rule_seconds;
            ])
          safety.Lint.timings));
  let total =
    List.fold_left
      (fun acc (_, t) -> acc +. t)
      safety.Lint.analyse_seconds safety.Lint.timings
  in
  if total >= safety_gate then
    fail g "domain-safety analysis took %.3f s (gate %.1f s)" total safety_gate;
  Json.Obj
    [
      ("nodes", Json.Int st.Ds.nodes);
      ("edges", Json.Int st.Ds.edges);
      ("roots", Json.Int st.Ds.roots);
      ("crossing", Json.Int st.Ds.crossing);
      ("resident", Json.Int st.Ds.resident);
      ("boundaries", Json.Int st.Ds.boundaries);
      ("owner_suppressed", Json.Int st.Ds.owner_suppressed);
      ("analyse_seconds", Json.Float safety.Lint.analyse_seconds);
      ( "rules",
        Json.Arr
          (List.map
             (fun (rule, rule_seconds) ->
               Json.Obj
                 [
                   ("rule", Json.Str (Rule.id rule));
                   ("findings", Json.Int (rule_count rule));
                   ("seconds", Json.Float rule_seconds);
                 ])
             safety.Lint.timings) );
      ("total_seconds", Json.Float total);
      ("gate_seconds", Json.Float safety_gate);
      ("within_gate", Json.Bool (total < safety_gate));
    ]

let run s =
  section "D-L1" "lr_lint static analysis of lib/ (typed-tree walk)";
  let root = if Sys.file_exists "_build/default" then "." else "../.." in
  let result, seconds = Lr_parallel.Pool.timed (fun () -> Lint.run (Lint.default_config ~root)) in
  let g = gate () in
  (match result with
  | Error e -> fail g "%s" e
  | Ok r ->
      let errors = Lint.count Diagnostic.Error r.Lint.diagnostics in
      let warnings = Lint.count Diagnostic.Warning r.Lint.diagnostics in
      T.print ~title:"typed-tree lint over lib/"
        (T.make
           ~headers:[ "units"; "errors"; "warnings"; "wall" ]
           [
             [
               string_of_int r.Lint.units;
               string_of_int errors;
               string_of_int warnings;
               Printf.sprintf "%.3f s" seconds;
             ];
           ]);
      let safety_json =
        match r.Lint.safety with
        | None ->
            fail g "the domain-safety rules did not run";
            Json.Null
        | Some safety -> domain_safety g r safety
      in
      let surface_json =
        match r.Lint.surface with
        | None ->
            fail g "the unused-surface rule did not run";
            Json.Null
        | Some s ->
            T.print ~title:"unused surface (L9): lib/ exports and their uses"
              (T.make
                 ~headers:[ "exports"; "optional params"; "findings"; "test-only" ]
                 [
                   [
                     string_of_int s.Lr_lint.Surface.exports;
                     string_of_int s.Lr_lint.Surface.optionals;
                     string_of_int (List.length s.Lr_lint.Surface.findings);
                     string_of_int (List.length s.Lr_lint.Surface.test_only);
                   ];
                 ]);
            Json.Obj
              [
                ("exports", Json.Int s.Lr_lint.Surface.exports);
                ("optionals", Json.Int s.Lr_lint.Surface.optionals);
                ("findings", Json.Int (List.length s.Lr_lint.Surface.findings));
                ("test_only", Json.Int (List.length s.Lr_lint.Surface.test_only));
              ]
      in
      let file = file_of "lint" in
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc
            (Json.to_string
               (Json.Obj
                  (header s ~experiment:"lint" ~jobs:1
                  @ [
                      ("units", Json.Int r.Lint.units);
                      ("errors", Json.Int errors);
                      ("warnings", Json.Int warnings);
                      ("seconds", Json.Float seconds);
                      ("domain_safety", safety_json);
                      ("unused_surface", surface_json);
                    ]))));
      Printf.printf "wrote %s\n" file;
      List.iter
        (fun d -> Printf.printf "%s\n" (Diagnostic.to_human d))
        r.Lint.diagnostics;
      if errors > 0 || warnings > 0 then
        fail g "the library tree no longer lints clean");
  finish g
