(* The lint rules, exercised against the deliberately broken modules in
   test/lint_fixtures/ and against the real library tree.

   Runs from _build/default/test, so the dune context root (where both
   the copied sources and the .cmt files live) is [".."]. *)

module Rule = Lr_lint.Rule
module Lint = Lr_lint.Lint
module Diagnostic = Lr_lint.Diagnostic
module Allowlist = Lr_lint.Allowlist
module Baseline = Lr_lint.Baseline
module Json = Lr_lint.Json
module Domain_safety = Lr_lint.Domain_safety

let context_root =
  if Sys.file_exists "../test/lint_fixtures" then ".."
  else Filename.concat (Sys.getcwd ()) "_build/default"

let config ?(dirs = [ "test/lint_fixtures" ]) ?(rules = Rule.all)
    ?(allow = Allowlist.empty) () =
  {
    (Lint.default_config ~root:context_root) with
    Lint.build_dir = context_root;
    dirs;
    capture_dirs = [];
    rules;
    allow;
  }

let run_report cfg =
  match Lint.run cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "lint run failed: %s" e

let run cfg = (run_report cfg).Lint.diagnostics

let locs rule diags =
  List.filter_map
    (fun (d : Diagnostic.t) ->
      if Rule.equal d.Diagnostic.rule rule then
        Some (Filename.basename d.Diagnostic.file, d.Diagnostic.line)
      else None)
    diags

let loc_list = Alcotest.(list (pair string int))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.equal (String.sub s i m) sub || at (i + 1)) in
  at 0

(* {1 The rules} *)

let test_l1_poly_ops () =
  let diags = run (config ~rules:[ Rule.L1 ] ()) in
  Alcotest.check loc_list "L1 fires exactly on the five poly applications"
    [
      ("fix_poly.ml", 5);
      ("fix_poly.ml", 6);
      ("fix_poly.ml", 7);
      ("fix_poly.ml", 8);
      ("fix_poly.ml", 9);
    ]
    (locs Rule.L1 diags);
  List.iteri
    (fun i op ->
      let d = List.nth diags i in
      let msg = d.Diagnostic.message in
      if not (contains ~sub:op msg) then
        Alcotest.failf "finding %d should mention %s: %s" i op msg)
    [ "="; "compare"; "List.mem"; "Hashtbl.hash"; "max" ]

let test_l2_race_surface () =
  let diags = run (config ~rules:[ Rule.L2 ] ()) in
  Alcotest.check loc_list
    "L2 fires on every toplevel mutable of the Pool-calling units"
    [
      ("fix_domain_race.ml", 8);
      ("fix_domain_race.ml", 9);
      ("fix_domain_race.ml", 10);
      ("fix_races.ml", 4);
      ("fix_races.ml", 5);
      ("fix_races.ml", 9);
      ("fix_races.ml", 10);
      ("fix_races.ml", 13);
    ]
    (locs Rule.L2 diags)

let test_l2_allowlist () =
  let allow =
    match
      Allowlist.of_lines
        [
          "# serialized by design";
          "L2 Lint_fixtures.Fix_races.allowed_cache";
        ]
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "allowlist parse: %s" e
  in
  let diags = run (config ~rules:[ Rule.L2 ] ~allow ()) in
  Alcotest.check loc_list "the allowlisted binding no longer fires"
    [
      ("fix_domain_race.ml", 8);
      ("fix_domain_race.ml", 9);
      ("fix_domain_race.ml", 10);
      ("fix_races.ml", 4);
      ("fix_races.ml", 5);
      ("fix_races.ml", 9);
      ("fix_races.ml", 13);
    ]
    (locs Rule.L2 diags)

let test_l2_wildcard_allowlist () =
  let allow =
    match Allowlist.of_lines [ "L2 Lint_fixtures.Fix_races.*" ] with
    | Ok a -> a
    | Error e -> Alcotest.failf "allowlist parse: %s" e
  in
  let diags = run (config ~rules:[ Rule.L2 ] ~allow ()) in
  Alcotest.check loc_list "a trailing * suppresses the whole unit"
    [
      ("fix_domain_race.ml", 8);
      ("fix_domain_race.ml", 9);
      ("fix_domain_race.ml", 10);
    ]
    (locs Rule.L2 diags)

let test_l3_missing_mli () =
  let diags = run (config ~rules:[ Rule.L3 ] ()) in
  Alcotest.check loc_list "only the module without an .mli fires"
    [ ("fix_no_mli.ml", 1) ]
    (locs Rule.L3 diags)

let test_l4_forbidden () =
  let diags = run (config ~rules:[ Rule.L4 ] ()) in
  Alcotest.check loc_list
    "L4 fires on stdout printing, Obj.magic and bare exit"
    [
      ("fix_forbidden.ml", 4);
      ("fix_forbidden.ml", 5);
      ("fix_forbidden.ml", 7);
      ("fix_forbidden.ml", 8);
    ]
    (locs Rule.L4 diags)

(* {1 The domain-safety rules (interprocedural)} *)

let message rule diags =
  match
    List.find_opt (fun (d : Diagnostic.t) -> Rule.equal d.Diagnostic.rule rule)
      diags
  with
  | Some d -> d.Diagnostic.message
  | None -> Alcotest.failf "no %s finding" (Rule.id rule)

let test_l5_race_candidates () =
  let diags = run (config ~rules:[ Rule.L5 ] ()) in
  Alcotest.check loc_list
    "L5 fires on the helper write and the three closure writes"
    [
      ("fix_domain_race.ml", 11);
      ("fix_races.ml", 21);
      ("fix_races.ml", 22);
      ("fix_races.ml", 23);
    ]
    (locs Rule.L5 diags);
  let msg = message Rule.L5 diags in
  if not (contains ~sub:"Fix_domain_race.record" msg) then
    Alcotest.failf "L5 should name the writing function: %s" msg

let test_l5_owner_annotation () =
  (* [record_owned] races exactly like [record] but carries an
     lr:owner annotation: no finding, one counted suppression, one
     owner boundary. *)
  let report = run_report (config ~rules:[ Rule.L5 ] ()) in
  List.iter
    (fun (d : Diagnostic.t) ->
      if contains ~sub:"record_owned" d.Diagnostic.message then
        Alcotest.failf "annotated writer must stay quiet: %s"
          d.Diagnostic.message)
    report.Lint.diagnostics;
  match report.Lint.safety with
  | None -> Alcotest.fail "safety stats missing from the report"
  | Some s ->
      Alcotest.(check int) "the suppression is counted, not silent" 1
        s.Lint.stats.Domain_safety.owner_suppressed;
      Alcotest.(check int) "the annotation is an owner boundary" 1
        s.Lint.stats.Domain_safety.boundaries

let test_l6_blocking_in_resident_loop () =
  let diags = run (config ~rules:[ Rule.L6 ] ()) in
  Alcotest.check loc_list "L6 fires on the sleep reached through [nap]"
    [ ("fix_escape.ml", 7) ]
    (locs Rule.L6 diags);
  let msg = message Rule.L6 diags in
  List.iter
    (fun sub ->
      if not (contains ~sub msg) then
        Alcotest.failf "L6 message should mention %s: %s" sub msg)
    [ "Unix.sleepf"; "Fix_escape.nap" ]

let test_l7_escaping_exception () =
  let diags = run (config ~rules:[ Rule.L7 ] ()) in
  Alcotest.check loc_list "L7 fires on the unhandled raise in [boom]"
    [ ("fix_escape.ml", 6) ]
    (locs Rule.L7 diags);
  let msg = message Rule.L7 diags in
  List.iter
    (fun sub ->
      if not (contains ~sub msg) then
        Alcotest.failf "L7 message should mention %s: %s" sub msg)
    [ "failwith"; "Fix_escape.boom"; "Fix_escape.spin" ];
  (* The sibling loop wraps the same call in try/with: its root must
     not be blamed. *)
  List.iter
    (fun (d : Diagnostic.t) ->
      if contains ~sub:"careful" d.Diagnostic.message then
        Alcotest.failf "handled raise must stay quiet: %s"
          d.Diagnostic.message)
    diags

(* The same rule through first-class modules: a [let module E = (val
   ...)] and a [(module E : S)] parameter each hide one raise, and the
   call graph must resolve [E.f] to the packed module's [f]. *)
let test_l7_through_first_class_modules () =
  let diags =
    run (config ~dirs:[ "test/lint_fixtures_packed" ] ~rules:[ Rule.L7 ] ())
  in
  Alcotest.check loc_list "L7 fires on both raises behind the unpacks"
    [ ("fix_packed.ml", 12); ("fix_packed.ml", 13) ]
    (locs Rule.L7 diags)

let test_l8_single_domain_atomic () =
  let diags = run (config ~rules:[ Rule.L8 ] ()) in
  Alcotest.check loc_list "L8 fires on the atomic that never crosses"
    [ ("fix_domain_race.ml", 12) ]
    (locs Rule.L8 diags);
  let msg = message Rule.L8 diags in
  if not (contains ~sub:"lonely" msg) then
    Alcotest.failf "L8 should name the atomic: %s" msg

(* {1 Driver behaviour} *)

let test_rules_filter () =
  let all = run (config ()) in
  Alcotest.(check int) "all eight rules together" 25 (List.length all);
  let some = run (config ~rules:[ Rule.L1; Rule.L3 ] ()) in
  Alcotest.(check int) "a subset runs only those rules" 6 (List.length some);
  List.iter
    (fun (d : Diagnostic.t) ->
      match d.Diagnostic.rule with
      | Rule.L1 | Rule.L3 -> ()
      | r -> Alcotest.failf "unexpected rule %s" (Rule.id r))
    some

let with_tmp f =
  let path = Filename.temp_file "lint_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_baseline_roundtrip () =
  with_tmp (fun path ->
      let all = run (config ()) in
      Baseline.save path all;
      let b =
        match Baseline.load path with
        | Ok b -> b
        | Error e -> Alcotest.failf "baseline load: %s" e
      in
      let kept, suppressed = Baseline.apply b all in
      Alcotest.(check int) "a full baseline suppresses everything" 0
        (List.length kept);
      Alcotest.(check int) "all findings accounted for" 25 suppressed)

let test_baseline_redetects () =
  with_tmp (fun path ->
      let all = run (config ()) in
      (* Baseline everything except one finding: that one must come
         back, everything else stays suppressed. *)
      Baseline.save path (List.tl all);
      let b =
        match Baseline.load path with
        | Ok b -> b
        | Error e -> Alcotest.failf "baseline load: %s" e
      in
      let kept, suppressed = Baseline.apply b all in
      Alcotest.(check int) "one finding re-detected" 1 (List.length kept);
      Alcotest.(check int) "the rest stays suppressed" 24 suppressed;
      let reappeared = List.hd kept and dropped = List.hd all in
      Alcotest.(check string) "and it is the un-baselined one"
        dropped.Diagnostic.key reappeared.Diagnostic.key)

let test_report_json_roundtrip () =
  let diags = run (config ()) in
  let doc = Lint.report_json ~units:4 ~suppressed:0 ~safety:None diags in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "report JSON does not parse back: %s" e
  | Ok doc' -> (
      match Option.bind (Json.member "findings" doc') Json.to_list with
      | Some items ->
          Alcotest.(check int) "findings survive the roundtrip" 25
            (List.length items)
      | None -> Alcotest.fail "findings array missing")

let test_report_json_safety_section () =
  let report = run_report (config ~rules:Rule.all ()) in
  let doc =
    Lint.report_json ~units:6 ~suppressed:0 ~safety:report.Lint.safety
      report.Lint.diagnostics
  in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "report JSON does not parse back: %s" e
  | Ok doc' -> (
      match Json.member "domain_safety" doc' with
      | None -> Alcotest.fail "domain_safety section missing"
      | Some ds ->
          let int_field name =
            match Option.bind (Json.member name ds) Json.to_int with
            | Some v -> v
            | None -> Alcotest.failf "domain_safety.%s missing" name
          in
          if int_field "nodes" <= 0 then Alcotest.fail "no call-graph nodes";
          if int_field "roots" <= 0 then Alcotest.fail "no roots";
          Alcotest.(check int) "one owner suppression reported" 1
            (int_field "owner_suppressed");
          let rules =
            match Option.bind (Json.member "rules" ds) Json.to_list with
            | Some l -> l
            | None -> Alcotest.fail "domain_safety.rules missing"
          in
          Alcotest.(check int) "one timing entry per safety rule" 4
            (List.length rules);
          let per_rule =
            List.map
              (fun r ->
                ( Option.bind (Json.member "rule" r) Json.to_str,
                  Option.bind (Json.member "findings" r) Json.to_int ))
              rules
          in
          Alcotest.(check (list (pair (option string) (option int))))
            "per-rule finding counts"
            [
              (Some "L5", Some 4);
              (Some "L6", Some 1);
              (Some "L7", Some 1);
              (Some "L8", Some 1);
            ]
            per_rule)

(* {1 JSON corners} *)

let test_json_string_escapes () =
  let doc = Json.Obj [ ("k", Json.Str "a\"b\\c\nd\te") ] in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "escaped string does not parse back: %s" e
  | Ok doc' ->
      Alcotest.(check (option string))
        "quotes, backslashes and controls survive"
        (Some "a\"b\\c\nd\te")
        (Option.bind (Json.member "k" doc') Json.to_str)

let test_json_nested_arrays () =
  let doc =
    Json.Arr
      [
        Json.Arr [ Json.Int 1; Json.Arr [ Json.Int 2; Json.Arr [] ] ];
        Json.Int 3;
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "nested arrays do not parse back: %s" e
  | Ok doc' ->
      if not (doc = doc') then Alcotest.fail "nested array shape changed"

let test_json_truncated () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "truncated input %S should not parse" s
      | Error _ -> ())
    [ "{\"a\":"; "[1, 2"; "\"unterminated"; "{\"a\" 1}"; "[1,]"; "" ]

let test_json_trailing_garbage () =
  match Json.parse "{\"a\": 1} x" with
  | Ok _ -> Alcotest.fail "trailing garbage should not parse"
  | Error _ -> ()

(* {1 The real tree} *)

let test_lib_is_clean () =
  let cfg =
    {
      (Lint.default_config ~root:context_root) with
      Lint.build_dir = context_root;
    }
  in
  let report =
    match Lint.run cfg with
    | Ok r -> r
    | Error e -> Alcotest.failf "lint run failed: %s" e
  in
  List.iter
    (fun d -> Printf.eprintf "unexpected: %s\n" (Diagnostic.to_human d))
    report.Lint.diagnostics;
  Alcotest.(check int) "lib/ lints clean with no baseline" 0
    (List.length report.Lint.diagnostics)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "L1 poly ops" `Quick test_l1_poly_ops;
          Alcotest.test_case "L2 race surface" `Quick test_l2_race_surface;
          Alcotest.test_case "L2 allowlist" `Quick test_l2_allowlist;
          Alcotest.test_case "L2 wildcard allowlist" `Quick
            test_l2_wildcard_allowlist;
          Alcotest.test_case "L3 missing mli" `Quick test_l3_missing_mli;
          Alcotest.test_case "L4 forbidden" `Quick test_l4_forbidden;
        ] );
      ( "domain safety",
        [
          Alcotest.test_case "L5 race candidates" `Quick
            test_l5_race_candidates;
          Alcotest.test_case "L5 owner annotation" `Quick
            test_l5_owner_annotation;
          Alcotest.test_case "L6 blocking in resident loop" `Quick
            test_l6_blocking_in_resident_loop;
          Alcotest.test_case "L7 escaping exception" `Quick
            test_l7_escaping_exception;
          Alcotest.test_case "L7 through first-class modules" `Quick
            test_l7_through_first_class_modules;
          Alcotest.test_case "L8 single-domain atomic" `Quick
            test_l8_single_domain_atomic;
        ] );
      ( "driver",
        [
          Alcotest.test_case "rules filter" `Quick test_rules_filter;
          Alcotest.test_case "baseline roundtrip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "baseline re-detects" `Quick
            test_baseline_redetects;
          Alcotest.test_case "report JSON roundtrip" `Quick
            test_report_json_roundtrip;
          Alcotest.test_case "report JSON safety section" `Quick
            test_report_json_safety_section;
        ] );
      ( "json",
        [
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "nested arrays" `Quick test_json_nested_arrays;
          Alcotest.test_case "truncated input" `Quick test_json_truncated;
          Alcotest.test_case "trailing garbage" `Quick
            test_json_trailing_garbage;
        ] );
      ( "tree",
        [ Alcotest.test_case "lib/ is lint-clean" `Quick test_lib_is_clean ] );
    ]
