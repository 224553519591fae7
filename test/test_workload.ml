open Helpers
module W = Lr_service.Workload
module Op = Lr_service.Op

let spec ?(shards = 6) ?(nodes = 12) ?(extra_edges = 8) ?(seed = 7)
    ?(ops = 500) ?(mix = W.default_mix) ?(pmix = W.no_packets) ?(burst = 4)
    ?(skew = 0.8) ?(stats_every = 0) () =
  { W.shards; nodes; extra_edges; seed; ops; mix; pmix; burst; skew;
    stats_every }

let all_valid spec ops =
  Array.for_all (fun op -> Result.is_ok (W.valid_op spec op)) ops

let test_generate_deterministic () =
  let s = spec () in
  check_bool "same spec, same stream" true (W.generate s = W.generate s);
  let s' = spec ~seed:8 () in
  check_bool "different seed, different stream" true
    (W.generate s <> W.generate s')

let test_generate_in_range () =
  let s = spec ~shards:4 ~nodes:9 ~ops:800 ~stats_every:37 () in
  check_bool "every op within spec ranges" true (all_valid s (W.generate s))

let test_mix_respected () =
  let count pred ops = Array.fold_left (fun n op -> if pred op then n + 1 else n) 0 ops in
  let routes = W.generate (spec ~mix:{ W.route = 1; churn = 0; crash = 0 } ()) in
  check_int "pure route mix" 500
    (count (function Op.Route _ -> true | _ -> false) routes);
  let crashes = W.generate (spec ~mix:{ W.route = 0; churn = 0; crash = 1 } ()) in
  check_int "pure crash mix" 500
    (count (function Op.Crash_destination _ -> true | _ -> false) crashes);
  let churn = W.generate (spec ~mix:{ W.route = 0; churn = 1; crash = 0 } ()) in
  check_int "pure churn mix" 500
    (count
       (function Op.Link_down _ | Op.Link_up _ -> true | _ -> false)
       churn)

let test_stats_cadence () =
  let s = spec ~ops:200 ~stats_every:25 () in
  let ops = W.generate s in
  Array.iteri
    (fun k op ->
      check_bool
        (Printf.sprintf "op %d stats iff (k+1) mod 25 = 0" k)
        ((k + 1) mod 25 = 0)
        (op = Op.Stats))
    ops

let test_skew_orders_popularity () =
  let s = spec ~shards:8 ~ops:4000 ~skew:1.5 () in
  let ops = W.generate s in
  let hits = Array.make s.W.shards 0 in
  Array.iter
    (fun op ->
      match Op.shard_of op with
      | Some sh -> hits.(sh) <- hits.(sh) + 1
      | None -> ())
    ops;
  check_bool "shard 0 hotter than last shard" true
    (hits.(0) > 2 * hits.(s.W.shards - 1));
  (* skew 0 is roughly uniform: no shard below half the mean *)
  let u = spec ~shards:8 ~ops:4000 ~skew:0.0 () in
  let uhits = Array.make u.W.shards 0 in
  Array.iter
    (fun op ->
      match Op.shard_of op with
      | Some sh -> uhits.(sh) <- uhits.(sh) + 1
      | None -> ())
    (W.generate u);
  Array.iteri
    (fun i h ->
      check_bool (Printf.sprintf "uniform shard %d not starved" i) true
        (h > 4000 / (8 * 2)))
    uhits

let test_shard_configs_deterministic () =
  let s = spec () in
  let a = W.shard_configs s and b = W.shard_configs s in
  check_int "one config per shard" s.W.shards (Array.length a);
  let module Config = Linkrev.Config in
  let module Node = Lr_graph.Node in
  Array.iteri
    (fun i ca ->
      let cb = b.(i) in
      check_bool
        (Printf.sprintf "shard %d config reproducible" i)
        true
        (Node.Set.equal (Config.nodes ca) (Config.nodes cb)
        && Node.Set.for_all
             (fun u ->
               Node.Set.equal (Config.out_nbrs ca u) (Config.out_nbrs cb u))
             (Config.nodes ca)))
    a

let test_op_line_roundtrip () =
  let s = spec ~ops:300 ~stats_every:17 ~mix:{ W.route = 3; churn = 3; crash = 2 } () in
  Array.iter
    (fun op ->
      match Op.of_line (Op.to_line op) with
      | Ok op' -> check_bool (Op.to_line op) true (op = op')
      | Error e -> Alcotest.failf "%s did not parse: %s" (Op.to_line op) e)
    (W.generate s);
  check_bool "garbage rejected" true (Result.is_error (Op.of_line "frob 1 2"));
  check_bool "short route rejected" true (Result.is_error (Op.of_line "route 1"))

let test_save_load_roundtrip () =
  let s = spec ~ops:250 ~stats_every:20 () in
  let ops = W.generate s in
  let path = Filename.temp_file "lrw" ".workload" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.save path s ops;
      match W.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (s', ops') ->
          check_bool "spec round-trips" true (s = s');
          check_bool "ops round-trip" true (ops = ops'))

let test_load_rejects_corruption () =
  let s = spec ~ops:10 () in
  let ops = W.generate s in
  let path = Filename.temp_file "lrw" ".workload" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let write lines =
        let oc = open_out path in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc
      in
      write [ "not-a-workload" ];
      check_bool "bad magic" true (Result.is_error (W.load path));
      W.save path s ops;
      let lines = In_channel.with_open_text path In_channel.input_lines in
      write (List.filteri (fun i _ -> i < List.length lines - 1) lines);
      check_bool "truncated ops" true (Result.is_error (W.load path));
      write
        (List.map
           (fun l -> if l = "shards 6" then "shards 0" else l)
           lines);
      check_bool "invalid spec" true (Result.is_error (W.load path));
      (* An ops count the file's lines do not back: the largest int
         (which no array can hold) and 10^11 (which no memory can). *)
      List.iter
        (fun count ->
          write (List.map (fun l -> if l = "ops 10" then "ops " ^ count else l) lines);
          check_bool ("ops " ^ count) true (Result.is_error (W.load path)))
        [ "4611686018427387903"; "100000000000" ];
      let last line =
        write (List.mapi (fun i l -> if i = List.length lines - 1 then line else l) lines);
        W.load path
      in
      check_bool "out-of-range shard in op" true (Result.is_error (last "route 99 0"));
      check_bool "corrupt magnitude above the bound" true
        (Result.is_error (last "corrupt 0 9 536870912"));
      check_bool "corrupt magnitude at the bound" true
        (Result.is_ok (last "corrupt 0 9 536870911")))

(* Seeded bit-flip fuzzing of a saved lrw1 file: 500 mutants, each with
   one to three flipped bits, every fourth also truncated.  A mutant may
   still load (a flipped digit can name another valid op), but [load]
   must answer [Ok] or [Error], never raise. *)
let test_load_survives_bit_flips () =
  let s = spec ~ops:60 ~pmix:W.default_pmix ~stats_every:17 () in
  let path = Filename.temp_file "lrw" ".workload" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.save path s (W.generate s);
      let full = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length full in
      let r = rng 17 in
      let loaded = ref 0 and rejected = ref 0 in
      for mutant = 1 to 500 do
        let b = Bytes.of_string full in
        for _ = 1 to 1 + Random.State.int r 3 do
          let pos = Random.State.int r len in
          let flip = 1 lsl Random.State.int r 8 in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip))
        done;
        let keep = if mutant mod 4 = 0 then Random.State.int r len else len in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output oc b 0 keep);
        match W.load path with
        | Ok _ -> incr loaded
        | Error (_ : string) -> incr rejected
        | exception e ->
            Alcotest.failf "mutant %d raised %s" mutant (Printexc.to_string e)
      done;
      check_bool "some mutants rejected" true (!rejected > 0);
      check_bool "some mutants still load" true (!loaded > 0))

let test_packet_roundtrip () =
  (* A packet-heavy stream must survive the lrw1 text format: inject
     and forward ops included, spec equality exact. *)
  let s = spec ~ops:300 ~pmix:W.default_pmix ~burst:7 ~stats_every:23 () in
  let ops = W.generate s in
  let has kind =
    Array.exists
      (fun op ->
        match (op, kind) with
        | Op.Inject _, `I | Op.Forward _, `F -> true
        | _ -> false)
      ops
  in
  check_bool "stream has injects" true (has `I);
  check_bool "stream has forwards" true (has `F);
  Array.iter
    (fun op ->
      match Op.of_line (Op.to_line op) with
      | Ok op' -> check_bool (Op.to_line op) true (op = op')
      | Error e -> Alcotest.failf "%s did not parse: %s" (Op.to_line op) e)
    ops;
  let path = Filename.temp_file "lrw" ".workload" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.save path s ops;
      match W.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (s', ops') ->
          check_bool "packet spec round-trips" true (s = s');
          check_bool "packet ops round-trip" true (ops = ops'))

let test_load_pre_packet_format () =
  (* Files written before the packet extension carry no pmix/burst
     headers; they must still load, as a packet-free workload. *)
  let s = spec ~ops:5 () in
  let ops = W.generate s in
  let path = Filename.temp_file "lrw" ".workload" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.save path s ops;
      let lines = In_channel.with_open_text path In_channel.input_lines in
      let stripped =
        List.filter
          (fun l ->
            not
              (String.length l >= 5 && String.sub l 0 5 = "pmix "
              || String.length l >= 6 && String.sub l 0 6 = "burst "))
          lines
      in
      check_bool "headers were stripped" true
        (List.length stripped = List.length lines - 2);
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) stripped;
      close_out oc;
      match W.load path with
      | Error e -> Alcotest.failf "pre-packet file rejected: %s" e
      | Ok (s', ops') ->
          check_bool "pmix defaults to none" true (s'.W.pmix = W.no_packets);
          check_bool "burst defaults to 1" true (s'.W.burst = 1);
          check_bool "rest of the spec survives" true
            ({ s with W.pmix = W.no_packets; burst = 1 } = s');
          check_bool "ops survive" true (ops = ops'))

let test_single_shard () =
  (* shards = 1: the Zipf scan has one bucket; every op lands on it. *)
  let s = spec ~shards:1 ~pmix:W.default_pmix ~ops:200 () in
  let ops = W.generate s in
  check_bool "ops generated" true (Array.length ops = 200);
  Array.iter
    (fun op ->
      (match op with
      | Op.Stats -> ()
      | _ -> check_bool "single shard targeted" true (Op.shard_of op = Some 0));
      check_bool "valid" true (Result.is_ok (W.valid_op s op)))
    ops;
  check_bool "configs" true (Array.length (W.shard_configs s) = 1)

let test_zero_skew_uniform () =
  (* skew = 0 is the uniform boundary of the popularity law: every
     shard must actually receive traffic (with 6 shards over 3000 ops
     a starved shard is ~1e-200 unlikely), and the stream must still
     be deterministic. *)
  let s = spec ~skew:0.0 ~ops:3_000 () in
  let ops = W.generate s in
  let counts = Array.make 6 0 in
  Array.iter
    (fun op ->
      match Op.shard_of op with
      | Some sh -> counts.(sh) <- counts.(sh) + 1
      | None -> ())
    ops;
  Array.iteri
    (fun i c -> check_bool (Printf.sprintf "shard %d hit" i) true (c > 0))
    counts;
  check_bool "deterministic at skew 0" true (W.generate s = ops)

let test_spec_validation () =
  List.iter
    (fun s ->
      check_bool "bad spec rejected" true
        (try ignore (W.generate s); false with Invalid_argument _ -> true))
    [
      spec ~shards:0 ();
      spec ~nodes:1 ();
      spec ~mix:{ W.route = 0; churn = 0; crash = 0 } ();
      spec ~mix:{ W.route = -1; churn = 2; crash = 0 } ();
      { (spec ()) with W.skew = -1.0 };
      { (spec ()) with W.ops = -1 };
      spec ~pmix:{ W.inject = -1; forward = 0 } ();
      spec ~burst:0 ();
      {
        (spec ()) with
        W.mix = { W.route = 0; churn = 0; crash = 0 };
        pmix = W.no_packets;
      };
    ]

let () =
  Alcotest.run "workload"
    [
      suite "workload"
        [
          case "generation is deterministic" test_generate_deterministic;
          case "ops stay in range" test_generate_in_range;
          case "mix weights respected" test_mix_respected;
          case "stats cadence" test_stats_cadence;
          case "zipf skew orders shard popularity" test_skew_orders_popularity;
          case "shard configs reproducible" test_shard_configs_deterministic;
          case "op text round-trips" test_op_line_roundtrip;
          case "save/load round-trips" test_save_load_roundtrip;
          case "load rejects corruption" test_load_rejects_corruption;
          case "bit-flipped files never raise" test_load_survives_bit_flips;
          case "packet ops round-trip" test_packet_roundtrip;
          case "pre-packet files still load" test_load_pre_packet_format;
          case "single shard" test_single_shard;
          case "zero skew is uniform" test_zero_skew_uniform;
          case "nonsensical specs rejected" test_spec_validation;
        ];
    ]
