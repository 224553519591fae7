(* Experiment harness for the "Partial Reversal Acyclicity" reproduction.

   The paper is a proof paper without tables or figures, so every
   experiment is *derived* (see DESIGN.md §4).  One module per family:
   D_t (theorems, invariants, simulation relations), D_f (the cited
   quantitative context), D_p1 (domain pool), D_o1 (traces), D_s1
   (routing service), D_s2 (fast maintenance), D_b1 (Bechamel
   micro-benchmarks), D_b2 (packet forwarding), D_c1 (chaos) and D_l
   (the linter); Harness holds what they share.

   Run everything:      dune exec bench/main.exe
   Run one experiment:  dune exec bench/main.exe -- t1
   (ids: t1 t2 t3 t4 t5 f1 f2 f3 f4 f5 f6 f7 f8 f9 parallel trace service
   maintenance micro packet chaos lint)

   --jobs N (or -j N) runs the trial loops on an N-domain pool; trial
   results are identical for every N (deterministic per-trial seeding).
   --trials N truncates the trial loops so a CI smoke run finishes in
   seconds.  *)

let experiments =
  [
    ("t1", D_t.t1); ("t2", D_t.t2); ("t3", D_t.t3); ("t4", D_t.t4);
    ("t5", D_t.t5); ("f1", D_f.f1); ("f2", D_f.f2); ("f3", D_f.f3);
    ("f4", D_f.f4); ("f5", D_f.f5); ("f6", D_f.f6); ("f7", D_f.f7);
    ("f8", D_f.f8); ("f9", D_f.f9); ("parallel", D_p1.run);
    ("trace", D_o1.run); ("service", D_s1.run); ("maintenance", D_s2.run);
    ("micro", D_b1.run); ("packet", D_b2.run); ("chaos", D_c1.run);
    ("lint", D_l.run);
  ]

(* Strip --jobs N / -j N / --jobs=N and --trials N / --trials=N;
   everything else is an experiment id. *)
let parse_args argv =
  let settings = ref { Harness.jobs = 1; trials = 0 } in
  let value flag v =
    match int_of_string_opt v with
    | Some j when j >= 1 -> j
    | _ ->
        Printf.eprintf "%s expects a positive integer, got %S\n" flag v;
        exit 1
  in
  let set flag v =
    let k = value flag v in
    settings :=
      if flag = "--jobs" then { !settings with Harness.jobs = k }
      else { !settings with Harness.trials = k }
  in
  let rec loop acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: v :: rest ->
        set "--jobs" v;
        loop acc rest
    | "--trials" :: v :: rest ->
        set "--trials" v;
        loop acc rest
    | [ ("--jobs" | "-j" | "--trials") as flag ] ->
        Printf.eprintf "%s expects a value\n" flag;
        exit 1
    | arg :: rest -> (
        match
          ( String.starts_with ~prefix:"--jobs=" arg,
            String.starts_with ~prefix:"--trials=" arg )
        with
        | true, _ ->
            set "--jobs" (String.sub arg 7 (String.length arg - 7));
            loop acc rest
        | _, true ->
            set "--trials" (String.sub arg 9 (String.length arg - 9));
            loop acc rest
        | false, false -> loop (arg :: acc) rest)
  in
  let ids = loop [] (List.tl (Array.to_list argv)) in
  (!settings, ids)

let () =
  let settings, ids = parse_args Sys.argv in
  let picked = if ids = [] then List.map fst experiments else ids in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some run -> run settings
      | None ->
          Printf.eprintf "unknown experiment %S (have: %s)\n" id
            (String.concat ", " (List.map fst experiments));
          exit 1)
    picked
