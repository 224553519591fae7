(* Summaries and JSON output.  Quartiles use the exclusive method of
   Python's [statistics.quantiles (xs, n=4)], so a spread computed here
   matches one computed from the printed samples. *)

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* JSON numbers carry every digit measured; an integral count prints as
   an integer. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

type metric = { name : string; unit_ : string; samples : float list }

let metrics_object ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (number (median m.samples))
             m.unit_)
         ms)
  ^ "}"

(* The one-line result the benchmark contract asks for. *)
let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_object ms)

type workload_result = {
  workload : string;
  seed : int;
  repeats : int;
  correct : bool;
  attempted : int;
  failed : int;
  fingerprint : string;
  end_to_end : metric list;
  per_layer : metric list;
}

let summary_object ms =
  "{"
  ^ String.concat ",\n      "
      (List.map
         (fun m ->
           let q1, med, q3 = quartiles m.samples in
           Printf.sprintf
             "%S: {\"unit\": %S, \"median\": %s, \"q1\": %s, \"q3\": %s, \"samples\": [%s]}"
             m.name m.unit_ (number med) (number q1) (number q3)
             (String.concat ", " (List.map number m.samples)))
         ms)
  ^ "}"

(* The results document [compare] reads: the common header, then each
   workload's samples and quartiles. *)
let write_results path rs =
  let by f = String.concat ", " (List.map f rs) in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\n  \"schema\": \"linkrev-benchmark/1\",\n\
        \  \"generated_by\": \"benchmark/run.exe\",\n\
        \  \"available_domains\": %d,\n\
        \  \"scaling_valid\": false,\n\
        \  \"ocaml_version\": %S,\n\
        \  \"jobs\": %d,\n\
        \  \"repeats\": {%s},\n\
        \  \"warmup\": \"one discarded run over the first tenth of the ops\",\n\
        \  \"seed\": {%s},\n\
        \  \"workloads\": {\n"
        (Domain.recommended_domain_count ())
        Sys.ocaml_version Timed.config.Lr_service.Service.jobs
        (by (fun r -> Printf.sprintf "%S: %d" r.workload r.repeats))
        (by (fun r -> Printf.sprintf "%S: %d" r.workload r.seed));
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    %S: {\n      \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
             \"fingerprint\": %S,\n      \"end_to_end\": %s,\n      \"per_layer\": %s}%s\n"
            r.workload r.correct r.attempted r.failed r.fingerprint
            (summary_object r.end_to_end) (summary_object r.per_layer)
            (if i = List.length rs - 1 then "" else ","))
        rs;
      Printf.fprintf oc "  }\n}\n")
