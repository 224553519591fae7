type config = {
  root : string;
  build_dir : string;
  dirs : string list;
  capture_dirs : string list;
  rules : Rule.t list;
  allow : Allowlist.t;
}

let default_config ~root =
  {
    root;
    build_dir = Filename.concat root "_build/default";
    dirs = [ "lib" ];
    capture_dirs = [ "bin"; "bench" ];
    rules = Rule.all;
    allow = Allowlist.empty;
  }

type safety = {
  stats : Domain_safety.stats;
  timings : (Rule.t * float) list;
  analyse_seconds : float;
}

type report = {
  diagnostics : Diagnostic.t list;
  units : int;
  safety : safety option;
  surface : Surface.t option;
}

(* Directories on the request/repair hot path: L1 findings there are
   errors, elsewhere warnings.  Every finding still fails the lint. *)
let hot_dirs = [ "lib/fast"; "lib/routing"; "lib/parallel"; "lib/service" ]

let in_hot_dir file =
  List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") file) hot_dirs

let enabled config rule = List.exists (Rule.equal rule) config.rules

let allowed config rule names =
  List.exists (Allowlist.mem config.allow ~rule) names

let init_load_path cmi_dirs =
  match
    Load_path.init ~auto_include:Load_path.no_auto_include
      (Config.standard_library :: cmi_dirs)
  with
  | () -> ()
  | exception _ -> ()

let resolver env =
  match Envaux.env_of_only_summary env with
  | env' -> env'
  | exception _ -> env

(* --- L1: polymorphic structural ops at non-immediate types -------- *)

let l1_diags config (u : Cmt_unit.t) (facts : Walk.facts) =
  List.filter_map
    (fun (p : Walk.poly_app) ->
      if p.Walk.exempt then None
      else if
        allowed config Rule.L1
          [ u.Cmt_unit.pretty; u.Cmt_unit.pretty ^ "." ^ p.Walk.op ]
      then None
      else
        let file = p.Walk.app_loc.Location.loc_start.Lexing.pos_fname in
        let severity =
          if in_hot_dir file then Diagnostic.Error else Diagnostic.Warning
        in
        Some
          (Diagnostic.of_location ~rule:Rule.L1 ~severity p.Walk.app_loc
             (Printf.sprintf
                "polymorphic %s applied at non-immediate type %s" p.Walk.op
                p.Walk.arg_type)))
    facts.Walk.poly_apps

(* --- L2: toplevel mutable state ------------------------------------ *)

(* Every domain sees a unit's toplevel state, so L2 asks no question of
   reachability: which calls cross domains is L5's to decide. *)
let l2_diags config (u : Cmt_unit.t) (facts : Walk.facts) =
  List.filter_map
    (fun (m : Walk.mutable_binding) ->
      let qname = u.Cmt_unit.pretty ^ "." ^ m.Walk.binding in
      if allowed config Rule.L2 [ u.Cmt_unit.pretty; qname ] then None
      else
        Some
          (Diagnostic.of_location ~rule:Rule.L2 ~severity:Diagnostic.Error
             m.Walk.bind_loc
             (Printf.sprintf "toplevel mutable state %s (%s) is shared by every domain"
                qname m.Walk.kind)))
    facts.Walk.mutables

(* --- L3: every .ml under lib/ needs an .mli ----------------------- *)

let is_dir p =
  match Sys.is_directory p with d -> d | exception Sys_error _ -> false

let l3_diags config =
  let rec scan rel acc =
    let full = Filename.concat config.root rel in
    match Sys.readdir full with
    | exception Sys_error _ -> acc
    | entries ->
        Array.fold_left
          (fun acc name ->
            let rel' = rel ^ "/" ^ name in
            let p = Filename.concat config.root rel' in
            if is_dir p then
              if
                String.length name > 0
                && (Char.equal name.[0] '_' || Char.equal name.[0] '.')
              then acc
              else scan rel' acc
            else if
              Filename.check_suffix name ".ml"
              && (not (Sys.file_exists (p ^ "i")))
              && not (allowed config Rule.L3 [ rel' ])
            then
              Diagnostic.make ~rule:Rule.L3 ~severity:Diagnostic.Error
                ~file:rel' ~line:1 ~col:0 "missing interface file (.mli)"
              :: acc
            else acc)
          acc entries
  in
  List.fold_left (fun acc d -> scan d acc) [] config.dirs

(* --- L4: forbidden constructs ------------------------------------- *)

let l4_diags config (u : Cmt_unit.t) (facts : Walk.facts) =
  List.filter_map
    (fun (f : Walk.forbidden) ->
      if
        allowed config Rule.L4
          [ u.Cmt_unit.pretty; u.Cmt_unit.pretty ^ "." ^ f.Walk.construct ]
      then None
      else
        let msg =
          match f.Walk.construct with
          | "Obj.magic" -> "Obj.magic defeats the type system"
          | "exit" -> "bare exit in library code"
          | c -> Printf.sprintf "printing to stdout (%s) in library code" c
        in
        Some
          (Diagnostic.of_location ~rule:Rule.L4 ~severity:Diagnostic.Error
             f.Walk.forbid_loc msg))
    facts.Walk.forbiddens

(* --- L5..L8: interprocedural domain safety ------------------------ *)

(* The safety rules report over the library tree AND bin/bench: a race
   seeded from a CLI driver is just as much a race.  L8 is a smell,
   not a bug, so it lands as a warning. *)
let safety_passes =
  [
    (Rule.L5, Domain_safety.l5_findings, Diagnostic.Error);
    (Rule.L6, Domain_safety.l6_findings, Diagnostic.Error);
    (Rule.L7, Domain_safety.l7_findings, Diagnostic.Error);
    (Rule.L8, Domain_safety.l8_findings, Diagnostic.Warning);
  ]

let safety_diags config units =
  if
    not
      (List.exists
         (fun (r, _, _) -> enabled config r)
         safety_passes)
  then (None, [])
  else
    let t0 = Unix.gettimeofday () in
    let graph = Callgraph.build units in
    let analysis = Domain_safety.analyse ~root:config.root graph in
    let analyse_seconds = Unix.gettimeofday () -. t0 in
    let timings = ref [] in
    let diags = ref [] in
    List.iter
      (fun (rule, pass, severity) ->
        if enabled config rule then (
          let t0 = Unix.gettimeofday () in
          let findings = pass analysis in
          timings := (rule, Unix.gettimeofday () -. t0) :: !timings;
          List.iter
            (fun (f : Domain_safety.finding) ->
              if not (allowed config rule [ f.Domain_safety.node ]) then
                diags :=
                  Diagnostic.of_location ~rule ~severity f.Domain_safety.loc
                    f.Domain_safety.message
                  :: !diags)
            findings))
      safety_passes;
    ( Some
        {
          stats = Domain_safety.stats analysis;
          timings = List.rev !timings;
          analyse_seconds;
        },
      List.rev !diags )

(* --- L9: unused surface --------------------------------------------- *)

(* Every directory whose units can use an export.  With one of them
   unbuilt, each value only it uses would read as unused. *)
let caller_dirs = [ "lib"; "bin"; "bench"; "benchmark"; "examples"; "test" ]

let unbuilt_callers units =
  List.filter
    (fun d -> not (List.exists (Cmt_unit.in_dirs [ d ]) units))
    caller_dirs

let l9_diags (s : Surface.t) =
  List.map
    (fun (f : Surface.finding) ->
      Diagnostic.of_location ~rule:Rule.L9 ~severity:Diagnostic.Error
        f.Surface.loc f.Surface.message)
    s.Surface.findings

(* --- driver -------------------------------------------------------- *)

let load_units config =
  let units, cmi_dirs = Cmt_unit.load_tree config.build_dir in
  if List.compare_length_with units 0 = 0 then
    Error
      (Printf.sprintf "no .cmt files under %s (run 'dune build' first)"
         config.build_dir)
  else (
    init_load_path cmi_dirs;
    Ok units)

let callgraph_analysis config =
  Result.map
    (fun units ->
      let scanned =
        List.filter
          (Cmt_unit.in_dirs (config.dirs @ config.capture_dirs))
          units
      in
      Domain_safety.analyse ~root:config.root (Callgraph.build scanned))
    (load_units config)

let run config =
  let ( let* ) = Result.bind in
  let* units = load_units config in
  let unbuilt = if enabled config Rule.L9 then unbuilt_callers units else [] in
  if List.compare_length_with unbuilt 0 > 0 then
    Error
      (Printf.sprintf
         "L9 needs the .cmt files of every caller directory; none under %s \
          for %s (run 'dune build @check' first)"
         config.build_dir (String.concat ", " unbuilt))
  else
    let report_units =
      List.filter (Cmt_unit.in_dirs config.dirs) units
    in
    let report_facts =
      List.filter_map
        (fun (u : Cmt_unit.t) ->
          Option.map (fun s -> (u, Walk.of_structure resolver s)) u.Cmt_unit.structure)
        report_units
    in
    let safety, sdiags =
      safety_diags config
        (report_units @ List.filter (Cmt_unit.in_dirs config.capture_dirs) units)
    in
    let surface =
      if enabled config Rule.L9 then
        Some (Surface.analyse ~report_dirs:config.dirs units)
      else None
    in
    let diags =
      List.concat
        [
          (if enabled config Rule.L1 then
             List.concat_map (fun (u, f) -> l1_diags config u f) report_facts
           else []);
          (if enabled config Rule.L2 then
             List.concat_map (fun (u, f) -> l2_diags config u f) report_facts
           else []);
          (if enabled config Rule.L3 then l3_diags config else []);
          (if enabled config Rule.L4 then
             List.concat_map (fun (u, f) -> l4_diags config u f) report_facts
           else []);
          sdiags;
          Option.fold ~none:[] ~some:l9_diags surface;
        ]
    in
    Ok
      {
        diagnostics = Diagnostic.finalize diags;
        units = List.length report_units;
        safety;
        surface;
      }

(* --- rendering ----------------------------------------------------- *)

let count severity diags =
  List.length
    (List.filter
       (fun (d : Diagnostic.t) ->
         match (d.Diagnostic.severity, severity) with
         | Diagnostic.Error, Diagnostic.Error -> true
         | Diagnostic.Warning, Diagnostic.Warning -> true
         | _ -> false)
       diags)

let summary ~units ~suppressed diags =
  Printf.sprintf "lint: %d unit(s), %d error(s), %d warning(s)%s"
    units
    (count Diagnostic.Error diags)
    (count Diagnostic.Warning diags)
    (if suppressed > 0 then Printf.sprintf ", %d baselined" suppressed else "")

let count_rule rule diags =
  List.length
    (List.filter (fun (d : Diagnostic.t) -> Rule.equal d.Diagnostic.rule rule)
       diags)

let safety_json diags s =
  Json.Obj
    [
      ("nodes", Json.Int s.stats.Domain_safety.nodes);
      ("edges", Json.Int s.stats.Domain_safety.edges);
      ("roots", Json.Int s.stats.Domain_safety.roots);
      ("crossing", Json.Int s.stats.Domain_safety.crossing);
      ("resident", Json.Int s.stats.Domain_safety.resident);
      ("boundaries", Json.Int s.stats.Domain_safety.boundaries);
      ("owner_suppressed", Json.Int s.stats.Domain_safety.owner_suppressed);
      ("analyse_seconds", Json.Float s.analyse_seconds);
      ( "rules",
        Json.Arr
          (List.map
             (fun (r, dt) ->
               Json.Obj
                 [
                   ("rule", Json.Str (Rule.id r));
                   ("findings", Json.Int (count_rule r diags));
                   ("seconds", Json.Float dt);
                 ])
             s.timings) );
    ]

let surface_json (s : Surface.t) =
  Json.Obj
    [
      ("exports", Json.Int s.Surface.exports);
      ("optionals", Json.Int s.Surface.optionals);
      ("findings", Json.Int (List.length s.Surface.findings));
      ("test_only", Json.Arr (List.map (fun n -> Json.Str n) s.Surface.test_only));
    ]

let report_json ~units ~suppressed ~safety ~surface diags =
  Json.Obj
    ([
       ("version", Json.Int 2);
       ("units", Json.Int units);
       ("errors", Json.Int (count Diagnostic.Error diags));
       ("warnings", Json.Int (count Diagnostic.Warning diags));
       ("suppressed", Json.Int suppressed);
     ]
    @ (match safety with
      | Some s -> [ ("domain_safety", safety_json diags s) ]
      | None -> [])
    @ (match surface with
      | Some s -> [ ("unused_surface", surface_json s) ]
      | None -> [])
    @ [ ("findings", Json.Arr (List.map Diagnostic.to_json diags)) ])
