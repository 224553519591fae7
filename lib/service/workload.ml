open Lr_graph

type mix = { route : int; churn : int; crash : int }
type pmix = { inject : int; forward : int }

type spec = {
  shards : int;
  nodes : int;
  extra_edges : int;
  seed : int;
  ops : int;
  mix : mix;
  pmix : pmix;
  burst : int;
  skew : float;
  stats_every : int;
}

let default_mix = { route = 90; churn = 9; crash = 1 }
let no_packets = { inject = 0; forward = 0 }
let default_pmix = { inject = 30; forward = 10 }

let validate_spec s =
  if s.shards < 1 then invalid_arg "Workload: need at least one shard";
  if s.nodes < 2 then invalid_arg "Workload: shards need at least 2 nodes";
  if s.extra_edges < 0 then invalid_arg "Workload: negative extra_edges";
  if s.ops < 0 then invalid_arg "Workload: negative op count";
  if s.mix.route < 0 || s.mix.churn < 0 || s.mix.crash < 0 then
    invalid_arg "Workload: negative mix weight";
  if s.pmix.inject < 0 || s.pmix.forward < 0 then
    invalid_arg "Workload: negative packet-mix weight";
  if s.mix.route + s.mix.churn + s.mix.crash + s.pmix.inject + s.pmix.forward
     <= 0
  then invalid_arg "Workload: empty mix";
  if s.burst < 1 then invalid_arg "Workload: burst must be >= 1";
  if s.burst > Shard.max_burst then
    invalid_arg (Printf.sprintf "Workload: burst must be <= %d" Shard.max_burst);
  if s.skew < 0.0 then invalid_arg "Workload: negative skew";
  if s.stats_every < 0 then invalid_arg "Workload: negative stats_every"

let rng_of spec salt = Random.State.make [| 0x5eed; spec.seed; salt |]

(* Cumulative Zipf weights over shard ids; sampling is a linear scan
   (shard counts are small — tens, not thousands). *)
let popularity spec =
  let cum = Array.make spec.shards 0.0 in
  let total = ref 0.0 in
  for i = 0 to spec.shards - 1 do
    total := !total +. (float_of_int (i + 1) ** -.spec.skew);
    cum.(i) <- !total
  done;
  cum

let pick_shard rng cum =
  let total = cum.(Array.length cum - 1) in
  let r = Random.State.float rng total in
  let rec scan i = if r <= cum.(i) || i = Array.length cum - 1 then i else scan (i + 1) in
  scan 0

let generate spec =
  validate_spec spec;
  let rng = rng_of spec 0 in
  let cum = popularity spec in
  let mix_total =
    spec.mix.route + spec.mix.churn + spec.mix.crash + spec.pmix.inject
    + spec.pmix.forward
  in
  let distinct_pair () =
    let u = Random.State.int rng spec.nodes in
    let rec other () =
      let v = Random.State.int rng spec.nodes in
      if v = u then other () else v
    in
    (u, other ())
  in
  Array.init spec.ops (fun k ->
      if spec.stats_every > 0 && (k + 1) mod spec.stats_every = 0 then Op.Stats
      else
        let shard = pick_shard rng cum in
        let roll = Random.State.int rng mix_total in
        if roll < spec.mix.route then
          Op.Route { shard; src = Random.State.int rng spec.nodes }
        else if roll < spec.mix.route + spec.mix.churn then begin
          let u, v = distinct_pair () in
          if Random.State.bool rng then Op.Link_down { shard; u; v }
          else Op.Link_up { shard; u; v }
        end
        else if roll < spec.mix.route + spec.mix.churn + spec.mix.crash then
          Op.Crash_destination { shard }
        else if
          roll < spec.mix.route + spec.mix.churn + spec.mix.crash
                 + spec.pmix.inject
        then
          Op.Inject
            { shard; src = Random.State.int rng spec.nodes; count = spec.burst }
        else Op.Forward { shard; slots = spec.burst })

let shard_config spec shard =
  Linkrev.Config.of_instance
    (Generators.random_connected_dag
       (rng_of spec (shard + 1))
       ~n:spec.nodes ~extra_edges:spec.extra_edges)

let shard_configs spec =
  validate_spec spec;
  Array.init spec.shards (shard_config spec)

let magic = "lrw1"

let save path spec ops =
  validate_spec spec;
  if Array.length ops <> spec.ops then
    invalid_arg "Workload.save: op count does not match the spec";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\n" magic;
      Printf.fprintf oc "shards %d\n" spec.shards;
      Printf.fprintf oc "nodes %d\n" spec.nodes;
      Printf.fprintf oc "extra-edges %d\n" spec.extra_edges;
      Printf.fprintf oc "seed %d\n" spec.seed;
      Printf.fprintf oc "mix %d %d %d\n" spec.mix.route spec.mix.churn
        spec.mix.crash;
      Printf.fprintf oc "pmix %d %d\n" spec.pmix.inject spec.pmix.forward;
      Printf.fprintf oc "burst %d\n" spec.burst;
      Printf.fprintf oc "skew %.17g\n" spec.skew;
      Printf.fprintf oc "stats-every %d\n" spec.stats_every;
      Printf.fprintf oc "ops %d\n" spec.ops;
      Array.iter (fun op -> Printf.fprintf oc "%s\n" (Op.to_line op)) ops)

let valid_op spec = function
  | Op.Stats -> Ok ()
  | Op.Route { shard; src } ->
      if shard < 0 || shard >= spec.shards then Error "shard out of range"
      else if src < 0 || src >= spec.nodes then Error "source out of range"
      else Ok ()
  | Op.Link_down { shard; u; v } | Op.Link_up { shard; u; v } ->
      if shard < 0 || shard >= spec.shards then Error "shard out of range"
      else if u < 0 || u >= spec.nodes || v < 0 || v >= spec.nodes then
        Error "endpoint out of range"
      else if u = v then Error "self-loop"
      else Ok ()
  | Op.Crash_destination { shard } ->
      if shard < 0 || shard >= spec.shards then Error "shard out of range"
      else Ok ()
  | Op.Inject { shard; src; count } ->
      if shard < 0 || shard >= spec.shards then Error "shard out of range"
      else if src < 0 || src >= spec.nodes then Error "source out of range"
      else if count < 0 then Error "negative inject count"
      else if count > Shard.max_burst then Error "inject count out of range"
      else Ok ()
  | Op.Forward { shard; slots } ->
      if shard < 0 || shard >= spec.shards then Error "shard out of range"
      else if slots < 1 then Error "non-positive forward slots"
      else if slots > Shard.max_burst then Error "forward slots out of range"
      else Ok ()
  | Op.Corrupt { shard; seed = _; magnitude } ->
      if shard < 0 || shard >= spec.shards then Error "shard out of range"
      else if magnitude < 0 then Error "negative corrupt magnitude"
      else if magnitude > Shard.max_magnitude then
        Error "corrupt magnitude out of range"
      else Ok ()
  | Op.Flip { shard; node; bit } ->
      if shard < 0 || shard >= spec.shards then Error "shard out of range"
      else if node < 0 || node >= spec.nodes then Error "node out of range"
      else if bit < 0 || bit > 61 then Error "flip bit out of range"
      else Ok ()

let load path =
  let ( let* ) = Result.bind in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line_no = ref 0 in
      let next () =
        match In_channel.input_line ic with
        | Some l ->
            incr line_no;
            Ok (String.trim l)
        | None -> Error (Printf.sprintf "%s: unexpected end of file" path)
      in
      let fail fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt in
      let key_int key line =
        match String.split_on_char ' ' line with
        | [ k; v ] when k = key -> (
            match int_of_string_opt v with
            | Some n -> Ok n
            | None -> fail "line %d: bad %s value %S" !line_no key v)
        | _ -> fail "line %d: expected %S header, got %S" !line_no key line
      in
      let* first = next () in
      let* () =
        if first = magic then Ok ()
        else fail "not a %s workload file (first line %S)" magic first
      in
      let* shards = Result.bind (next ()) (key_int "shards") in
      let* nodes = Result.bind (next ()) (key_int "nodes") in
      let* extra_edges = Result.bind (next ()) (key_int "extra-edges") in
      let* seed = Result.bind (next ()) (key_int "seed") in
      let* mix =
        let* line = next () in
        match String.split_on_char ' ' line with
        | [ "mix"; r; c; x ] -> (
            match
              (int_of_string_opt r, int_of_string_opt c, int_of_string_opt x)
            with
            | Some route, Some churn, Some crash -> Ok { route; churn; crash }
            | _ -> fail "line %d: bad mix %S" !line_no line)
        | _ -> fail "line %d: expected mix header, got %S" !line_no line
      in
      (* The packet headers postdate the format: absent on old files,
         which read as a packet-free mix. *)
      let* pmix, burst, skew_line =
        let* line = next () in
        match String.split_on_char ' ' line with
        | [ "pmix"; i; f ] -> (
            match (int_of_string_opt i, int_of_string_opt f) with
            | Some inject, Some forward ->
                let* burst = Result.bind (next ()) (key_int "burst") in
                let* skew_line = next () in
                Ok ({ inject; forward }, burst, skew_line)
            | _ -> fail "line %d: bad pmix %S" !line_no line)
        | _ -> Ok (no_packets, 1, line)
      in
      let* skew =
        match String.split_on_char ' ' skew_line with
        | [ "skew"; v ] -> (
            match float_of_string_opt v with
            | Some f -> Ok f
            | None -> fail "line %d: bad skew %S" !line_no v)
        | _ -> fail "line %d: expected skew header, got %S" !line_no skew_line
      in
      let* stats_every = Result.bind (next ()) (key_int "stats-every") in
      let* ops_count = Result.bind (next ()) (key_int "ops") in
      let spec =
        { shards; nodes; extra_edges; seed; ops = ops_count; mix; pmix; burst;
          skew; stats_every }
      in
      let* () =
        match validate_spec spec with
        | () -> Ok ()
        | exception Invalid_argument m -> fail "invalid spec: %s" m
      in
      (* The ops are collected as their lines are read: the header's
         count sizes nothing, so a count the lines do not back ends at
         "unexpected end of file". *)
      let rec read k acc =
        if k = ops_count then Ok (Array.of_list (List.rev acc))
        else
          let* line = next () in
          if line = "" then read k acc
          else
            let* op =
              match Op.of_line line with
              | Ok op -> Ok op
              | Error e -> fail "line %d: %s" !line_no e
            in
            let* () =
              match valid_op spec op with
              | Ok () -> Ok ()
              | Error e -> fail "line %d: %s (%S)" !line_no e line
            in
            read (k + 1) (op :: acc)
      in
      let* ops = read 0 [] in
      Ok (spec, ops))

let describe spec =
  Printf.sprintf
    "%d ops over %d shards (%d nodes, %d extra edges each), seed %d, mix \
     %d/%d/%d route/churn/crash, pmix %d/%d inject/forward (burst %d), skew \
     %.2f"
    spec.ops spec.shards spec.nodes spec.extra_edges spec.seed spec.mix.route
    spec.mix.churn spec.mix.crash spec.pmix.inject spec.pmix.forward spec.burst
    spec.skew
