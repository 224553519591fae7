(* [run.exe compare BASE.json NEW.json]: a verdict for every workload x
   end-to-end metric of two results documents, judged against the
   bounds in BENCHMARK.json.

   A metric is unresolved when either side's quartile spread, as a
   share of its median, exceeds the bound, unless every NEW sample
   beats every BASE sample.  Otherwise it is worse (better) when the
   NEW median is worse (better) than the BASE median by more than the
   bound, and the same in between. *)

module Json = Lr_lint.Json

let ( let* ) = Result.bind

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> Result.map_error (fun e -> path ^ ": " ^ e) (Json.parse text)

let field path name v =
  Option.to_result ~none:(Printf.sprintf "%s: missing %S" path name) (Json.member name v)

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

type bound = { name : string; lower_better : bool; bound : float }

let bounds benchmark =
  let* doc = load benchmark in
  let* e2e = field benchmark "end_to_end" doc in
  Ok
    (List.filter_map
       (fun m ->
         match (Json.member "name" m, Json.member "better" m, Json.member "bound" m) with
         | Some (Json.Str name), Some (Json.Str better), Some b ->
             Option.map
               (fun bound -> { name; lower_better = better = "lower"; bound })
               (number b)
         | _ -> None)
       (Option.value (Json.to_list e2e) ~default:[]))

let samples path doc ~workload ~metric =
  let* ws = field path "workloads" doc in
  let* w = field path workload ws in
  let* e2e = field path "end_to_end" w in
  let* m = field path metric e2e in
  let* xs = field path "samples" m in
  Ok (List.filter_map number (Option.value (Json.to_list xs) ~default:[]))

let failed path doc ~workload =
  let* ws = field path "workloads" doc in
  let* w = field path workload ws in
  match Json.member "failed" w with Some (Json.Int k) -> Ok k | _ -> Ok 0

let spread xs =
  let q1, m, q3 = Report.quartiles xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

let verdict b ~base ~fresh =
  let worse_by x y = if b.lower_better then (y -. x) /. x else (x -. y) /. x in
  let beats y x = if b.lower_better then y < x else y > x in
  let mb = Report.median base and mn = Report.median fresh in
  if List.for_all (fun y -> List.for_all (fun x -> beats y x) base) fresh then "better"
  else if Float.max (spread base) (spread fresh) > b.bound then "unresolved"
  else
    let d = worse_by mb mn in
    if d > b.bound then "worse" else if d < -.b.bound then "better" else "same"

let run ~benchmark base_path new_path =
  let* bounds = bounds benchmark in
  let* base = load base_path in
  let* fresh = load new_path in
  let* ws = field base_path "workloads" base in
  let workloads = match ws with Json.Obj fs -> List.map fst fs | _ -> [] in
  let bad = ref false in
  let* () =
    List.fold_left
      (fun acc workload ->
        let* () = acc in
        let* fb = failed base_path base ~workload in
        let* fn = failed new_path fresh ~workload in
        if fn > fb then begin
          bad := true;
          Printf.printf "%-15s %-18s worse (failed %d -> %d)\n" workload "failed" fb fn
        end;
        List.fold_left
          (fun acc b ->
            let* () = acc in
            let* xs = samples base_path base ~workload ~metric:b.name in
            let* ys = samples new_path fresh ~workload ~metric:b.name in
            let v = verdict b ~base:xs ~fresh:ys in
            if v = "worse" then bad := true;
            Printf.printf "%-15s %-18s %-10s base %.6g  new %.6g  (bound %.0f%%)\n" workload
              b.name v (Report.median xs) (Report.median ys) (100.0 *. b.bound);
            Ok ())
          (Ok ()) bounds)
      (Ok ()) workloads
  in
  Ok (not !bad)
