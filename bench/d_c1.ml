(* D-C1 — self-stabilization under fault injection.  Corrupt every
   height of each scenario with the canonical adversarial assignment,
   recover on both engine tiers, and gate on: convergence back to a
   destination-oriented graph, the spread-aware adoption budget
   4n(n+spread)+1000, byte-identical fast-vs-reference recoveries, and
   a clean per-state acyclicity audit of the recorded LRT1 trace.  A
   single-event-upset row (one flipped height bit) covers the
   small-blast-radius end, where recovery work is Θ(n·2^bit) — the
   tail of the chain must ladder-climb above the flipped node.  Writes
   BENCH_chaos.json; exits 1 on any gate. *)

open Harness
module T = Lr_analysis.Table
module C = Lr_chaos.Chaos
module M = Lr_routing.Maintenance

let audit_clean (c : C.checked) =
  List.for_all
    (function C.Audit_violation | C.Audit_error _ -> false | _ -> true)
    c.C.failures

let run s =
  section "D-C1" "chaos: self-stabilization from corrupted heights";
  let n = if smoke s then 24 else 48 in
  let g = gate () in
  let run_rule rule =
    let rname =
      match rule with
      | M.Partial_reversal -> "partial"
      | M.Full_reversal -> "full"
    in
    let checked =
      match C.battery ~audit:true rule ~n ~seed:1 with
      | Ok checked -> checked
      | Error e ->
          fail g "%s" e;
          []
    in
    List.iter
      (fun (c : C.checked) ->
        List.iter
          (fun f ->
            fail g "%s/%s: %s" rname c.C.scenario.C.name
              (C.failure_message c.C.result f))
          c.C.failures)
      checked;
    T.print
      ~title:
        (Printf.sprintf "corrupt-all recovery, rule %s (n~%d)" rname n)
      (T.make
         ~headers:
           [ "scenario"; "mag"; "spread"; "perturbed"; "steps"; "rounds";
             "budget"; "agree"; "ms"; "audit" ]
         (List.map
            (fun (c : C.checked) ->
              let d = c.C.result in
              [
                c.C.scenario.C.name;
                string_of_int c.C.scenario.C.magnitude;
                string_of_int c.C.spread;
                string_of_int d.C.fast.C.perturbed_edges;
                string_of_int d.C.fast.C.steps;
                string_of_int d.C.fast.C.rounds;
                string_of_int d.C.fast.C.budget;
                (if d.C.agree then "yes" else "NO");
                Printf.sprintf "%.2f" (float_of_int d.C.fast.C.wall_ns /. 1e6);
                C.audit_cell c;
              ])
            checked));
    (rname, checked)
  in
  let rules = [ run_rule M.Partial_reversal; run_rule M.Full_reversal ] in
  (* -- single-event upset -------------------------------------------- *)
  let seu_bit = if smoke s then 8 else 10 in
  let seu_node = n / 2 in
  let chain_cfg =
    match C.scenarios ~n ~seed:1 () with
    | sc :: _ -> sc.C.config
    | [] -> assert false
  in
  let seu =
    C.differential_flip M.Partial_reversal chain_cfg ~node:seu_node
      ~bit:seu_bit
  in
  Printf.printf
    "single-event upset (chain, node %d, bit %d): %d steps, %d rounds, \
     budget %d, agree %b\n"
    seu_node seu_bit seu.C.fast.C.steps seu.C.fast.C.rounds
    seu.C.fast.C.budget seu.C.agree;
  List.iter (fun f -> fail g "seu: %s" (C.failure_message seu f)) (C.judge seu);
  (* -- JSON ---------------------------------------------------------- *)
  write_json s ~experiment:"chaos" ~jobs:1 (fun oc ->
      Printf.fprintf oc "  \"nodes\": %d,\n  \"rules\": [\n" n;
      List.iteri
        (fun ri (rname, checked) ->
          Printf.fprintf oc "    {\"rule\": \"%s\", \"scenarios\": [\n" rname;
          List.iteri
            (fun i (c : C.checked) ->
              let d = c.C.result in
              Printf.fprintf oc
                "      {\"name\": \"%s\", \"n\": %d, \"magnitude\": %d, \
                 \"spread\": %d, \"perturbed_edges\": %d, \"steps\": %d, \
                 \"rounds\": %d, \"budget\": %d, \"within_budget\": %b, \
                 \"converged\": %b, \"agree\": %b, \"ref_steps\": %d, \
                 \"wall_ms\": %.3f, \"ref_wall_ms\": %.3f, \
                 \"audit_checked\": %d, \"audit_clean\": %b}%s\n"
                c.C.scenario.C.name d.C.fast.C.n c.C.scenario.C.magnitude
                c.C.spread d.C.fast.C.perturbed_edges d.C.fast.C.steps
                d.C.fast.C.rounds d.C.fast.C.budget d.C.fast.C.within_budget
                d.C.fast.C.destination_oriented d.C.agree d.C.ref_steps
                (float_of_int d.C.fast.C.wall_ns /. 1e6)
                (float_of_int d.C.ref_wall_ns /. 1e6)
                (Option.value c.C.audited ~default:0)
                (audit_clean c)
                (if i = List.length checked - 1 then "" else ","))
            checked;
          Printf.fprintf oc "    ]}%s\n"
            (if ri = List.length rules - 1 then "" else ","))
        rules;
      Printf.fprintf oc
        "  ],\n\
        \  \"seu\": {\"scenario\": \"chain\", \"node\": %d, \"bit\": %d, \
         \"steps\": %d, \"rounds\": %d, \"budget\": %d, \"within_budget\": \
         %b, \"agree\": %b},\n"
        seu_node seu_bit seu.C.fast.C.steps seu.C.fast.C.rounds
        seu.C.fast.C.budget seu.C.fast.C.within_budget seu.C.agree;
      Printf.fprintf oc "  \"all_clean\": %b\n}\n" (g.failures = []));
  finish g
