open Lr_graph
open Linkrev
open Helpers
module F = Lr_fast.Fast_engine
module Record = Lr_trace.Record
module Replay = Lr_trace.Replay
module Audit = Lr_trace.Audit
module Reader = Lr_trace.Reader
module Writer = Lr_trace.Writer
module Event = Lr_trace.Event

let tmp_trace name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lr_trace_test_%s_%d.lrt" name (Unix.getpid ()))

let with_trace name f =
  let path = tmp_trace name in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let ok what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected a clean Error, got Ok" what
  | Error (_ : string) -> ()

(* An instance where NewPR provably performs a dummy step: node 3 is an
   initial source that becomes a sink after 2's first reversal, so its
   first step has an empty even-parity set. *)
let dummy_heavy () =
  Config.make_exn
    (Digraph.of_directed_edges [ (1, 0); (1, 2); (3, 2) ])
    ~destination:0

(* {1 Round trips} *)

let roundtrip_fast rule config name =
  with_trace name (fun path ->
      let out, stats = Record.fast ~path ~rule config in
      let report = ok "replay" (Replay.file path) in
      check_int "work" out.F.work
        (report.Replay.steps + report.Replay.dummies);
      check_int "edge reversals" out.F.edge_reversals
        report.Replay.edge_reversals;
      check_int "writer events = replayed events" stats.Writer.events
        report.Replay.events;
      check_bool "bytes accounted" true (stats.Writer.bytes = report.Replay.bytes);
      (* cross-engine differential replay on the persistent automaton *)
      let diff = ok "automaton replay" (Replay.against_automaton path) in
      check_int "automaton work" out.F.work diff.Replay.automaton_work;
      check_int "automaton reversals" out.F.edge_reversals
        diff.Replay.automaton_reversals;
      check_bool "final graph fingerprint" true
        (Digraph.fingerprint diff.Replay.final_graph
        = report.Replay.summary.Event.final_fingerprint))

let test_roundtrip_pr_random () =
  for seed = 0 to 9 do
    roundtrip_fast F.Partial (random_config ~seed 20) "pr_random"
  done

let test_roundtrip_fr_random () =
  for seed = 0 to 9 do
    roundtrip_fast F.Full (random_config ~seed 20) "fr_random"
  done

let test_roundtrip_families () =
  List.iter
    (fun (name, config) ->
      roundtrip_fast F.Partial config ("pr_" ^ name);
      roundtrip_fast F.Full config ("fr_" ^ name))
    [
      ("diamond", diamond ());
      ("bad_chain", bad_chain 12);
      ("sawtooth", sawtooth 12);
      ("grid", Config.of_instance (Generators.grid ~rows:3 ~cols:4));
    ]

let roundtrip_newpr config name =
  with_trace name (fun path ->
      let out, _stats = Record.fast ~path ~rule:F.New_pr config in
      let report = ok "replay" (Replay.file path) in
      check_int "work counts dummies" out.F.work
        (report.Replay.steps + report.Replay.dummies);
      check_int "edge reversals" out.F.edge_reversals
        report.Replay.edge_reversals;
      let diff = ok "automaton replay" (Replay.against_automaton path) in
      check_int "automaton work" out.F.work diff.Replay.automaton_work;
      report)

let test_roundtrip_newpr () =
  List.iter
    (fun (name, config) -> ignore (roundtrip_newpr config name))
    [
      ("diamond", diamond ());
      ("sawtooth", sawtooth 12);
      ("random", random_config ~seed:3 18);
    ]

let test_newpr_dummy_steps_recorded () =
  let report = roundtrip_newpr (dummy_heavy ()) "dummy_heavy" in
  check_bool "at least one dummy event" true (report.Replay.dummies > 0)

let test_roundtrip_persistent_recording () =
  (* record a *persistent* OneStepPR run under a random scheduler and
     replay it both ways *)
  for seed = 0 to 4 do
    with_trace "persistent" (fun path ->
        let config = random_config ~seed 14 in
        let out, _stats =
          Record.persistent ~path ~engine:Event.Pr
            ~scheduler:(Lr_automata.Scheduler.random (rng seed))
            config
            (One_step_pr.algo config)
        in
        let report = ok "replay" (Replay.file path) in
        check_int "work" out.Executor.total_node_steps report.Replay.steps;
        check_int "reversals" out.Executor.edge_reversals
          report.Replay.edge_reversals;
        ignore (ok "automaton replay" (Replay.against_automaton path)))
  done

(* {1 Header integrity and fingerprints} *)

let test_fingerprint_digraph_vs_fast () =
  for seed = 0 to 9 do
    let config = random_config ~seed 25 in
    let engine = F.of_config F.Partial config in
    check_bool "initial fingerprints agree" true
      (Digraph.fingerprint config.Config.initial = F.fingerprint engine);
    ignore (F.run engine);
    check_bool "final fingerprints agree" true
      (Digraph.fingerprint (F.to_digraph engine) = F.fingerprint engine)
  done

let test_header_roundtrip () =
  with_trace "header" (fun path ->
      let config = random_config ~seed:7 15 in
      ignore (Record.fast ~seed:7 ~path ~rule:F.Partial config);
      let h = ok "open" (Reader.with_file path (fun r -> Ok (Reader.header r))) in
      check_int "n" (Digraph.num_nodes config.Config.initial) h.Event.n;
      check_int "destination" config.Config.destination h.Event.destination;
      check_int "seed" 7 h.Event.seed;
      check_bool "engine" true (h.Event.engine = Event.Pr);
      let rebuilt = ok "config_of_header" (Event.config_of_header h) in
      check_bool "same initial graph" true
        (Digraph.equal rebuilt.Config.initial config.Config.initial))

(* {1 Audit} *)

let test_audit_clean () =
  List.iter
    (fun (name, record) ->
      with_trace name (fun path ->
          record path;
          let report = ok "audit" (Audit.run path) in
          check_bool "no violations" true (Audit.clean report);
          check_int "all nodes in histogram"
            report.Audit.header.Event.n
            (List.fold_left (fun a (_, c) -> a + c) 0 report.Audit.histogram);
          (* strided audit stays clean and checks fewer states *)
          let strided = ok "strided audit" (Audit.run ~stride:5 path) in
          check_bool "strided clean" true (Audit.clean strided);
          check_bool "strided checks fewer states" true
            (strided.Audit.checked_states <= report.Audit.checked_states)))
    [
      ( "audit_pr",
        fun path ->
          ignore (Record.fast ~path ~rule:F.Partial (random_config ~seed:11 16))
      );
      ( "audit_fr",
        fun path ->
          ignore (Record.fast ~path ~rule:F.Full (bad_chain 10)) );
      ( "audit_newpr",
        fun path -> ignore (Record.fast ~path ~rule:F.New_pr (sawtooth 10)) );
      (* Invariant 3.2 holds vacuously at a node with no neighbours *)
      ( "audit_isolated",
        fun path -> ignore (Record.fast ~path ~rule:F.Partial (isolated_node ())) );
    ]

let test_audit_scan_counts () =
  with_trace "scan" (fun path ->
      let out, stats = Record.fast ~path ~rule:F.New_pr (sawtooth 10) in
      let s = ok "scan" (Audit.scan path) in
      check_int "events" stats.Writer.events s.Audit.scan_events;
      check_int "work" out.F.work (s.Audit.scan_steps + s.Audit.scan_dummies);
      check_int "reversals" out.F.edge_reversals s.Audit.scan_reversed_edges)

(* {1 Pinned event streams} *)

(* MD5 of a recorded run: every event as [Event.pp] renders it, then
   the summary's work, edge reversals and final fingerprint ([wall_ns]
   aside, it is a clock reading). *)
let stream_digest path =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  ok "decode"
    (Reader.with_file path (fun r ->
         Reader.fold r ~init:()
           ~f:(fun () _ e ->
             Format.fprintf ppf "%a@." Event.pp e;
             Ok ())
           ~finish:(fun () s ->
             Format.fprintf ppf "work %d, reversals %d, fingerprint %Lx@."
               s.Event.work s.Event.edge_reversals s.Event.final_fingerprint;
             Ok ())));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The digests were taken from the separate PR/FR and NewPR engines
   this one replaced: a change to the step rules, the worklist order or
   the recorder shows up here as a different stream. *)
let test_pinned_streams () =
  List.iter
    (fun (name, config, pins) ->
      List.iter
        (fun (rule, want) ->
          let label =
            Printf.sprintf "%s on %s"
              (Event.engine_name (Record.engine_of_rule rule))
              name
          in
          with_trace "pin" (fun path ->
              ignore (Record.fast ~path ~rule config);
              Alcotest.(check string) label want (stream_digest path)))
        pins)
    [
      ( "sawtooth 12",
        sawtooth 12,
        [
          (F.Partial, "cf21859595f7c42649fe07bbaeafa010");
          (F.Full, "cf21859595f7c42649fe07bbaeafa010");
          (F.New_pr, "caa7b0ea77b442ba6c425f0b12ed62bb");
        ] );
      ( "bad_chain 8",
        bad_chain 8,
        [
          (F.Partial, "60acd9bec83c56080cc6a5ebe908115e");
          (F.Full, "d9602f02c5b9a591e8b22b7209be1396");
          (F.New_pr, "60acd9bec83c56080cc6a5ebe908115e");
        ] );
      ( "diamond",
        diamond (),
        [
          (F.Partial, "067e045c11d6503b39af86db4e7f062e");
          (F.Full, "070bf71965480d31e40f3475264966a6");
          (F.New_pr, "067e045c11d6503b39af86db4e7f062e");
        ] );
    ]

(* {1 Damaged files fail cleanly} *)

let read_all path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = really_input_string ic len in
  close_in ic;
  b

let write_all path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_truncated_files_fail_cleanly () =
  with_trace "trunc_src" (fun src ->
      ignore (Record.fast ~path:src ~rule:F.Partial (diamond ()));
      let full = read_all src in
      with_trace "trunc" (fun path ->
          (* every strict prefix must be rejected with Error, never an
             exception *)
          for len = 0 to String.length full - 1 do
            write_all path (String.sub full 0 len);
            expect_error
              (Printf.sprintf "prefix of %d bytes" len)
              (Replay.file path)
          done))

(* Bytes an unsigned LEB128 varint of [v] takes, as the writer puts it. *)
let varint_len v =
  let rec go v k = if v < 0x80 then k else go (v lsr 7) (k + 1) in
  go v 1

(* Every single-bit flip of a recorded trace decodes or replays to a
   typed [Error], never an exception.  Only three fields are covered by
   no fingerprint and no replay check — the engine tag, the seed and
   the summary's [wall_ns] — so a flip there may still read [Ok];
   anywhere else it must not. *)
let test_corrupted_bytes_fail_cleanly () =
  with_trace "corrupt_src" (fun src ->
      ignore (Record.fast ~path:src ~rule:F.Partial (bad_chain 8));
      let full = read_all src in
      let len = String.length full in
      let seed, wall_ns =
        ok "summary"
          (Reader.with_file src (fun r ->
               Reader.fold r ~init:()
                 ~f:(fun () _ _ -> Ok ())
                 ~finish:(fun () s ->
                   Ok ((Reader.header r).Event.seed, s.Event.wall_ns))))
      in
      (* magic (4 bytes), version (1 byte), engine tag, seed varint; the
         summary ends with wall_ns and the 8-byte final fingerprint *)
      let unchecked pos =
        pos = 5
        || (pos >= 6 && pos < 6 + varint_len (seed + 1))
        || (pos >= len - 8 - varint_len wall_ns && pos < len - 8)
      in
      with_trace "corrupt" (fun path ->
          for pos = 0 to len - 1 do
            for bit = 0 to 7 do
              let b = Bytes.of_string full in
              Bytes.set b pos
                (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
              write_all path (Bytes.to_string b);
              match Replay.file path with
              | Error (_ : string) -> ()
              | Ok _ ->
                  if not (unchecked pos) then
                    Alcotest.failf "flipped bit %d of byte %d replayed Ok" bit
                      pos
            done
          done))

let test_abort_leaves_truncated_file () =
  with_trace "abort" (fun path ->
      let config = diamond () in
      let writer =
        Writer.create path (Event.header_of_config Event.Pr config)
      in
      Writer.step writer ~node:3 ~slots:[| 0; 1 |] ~len:2;
      Writer.abort writer;
      expect_error "aborted trace" (Replay.file path))

let test_trailing_bytes_rejected () =
  with_trace "trail_src" (fun src ->
      ignore (Record.fast ~path:src ~rule:F.Partial (diamond ()));
      with_trace "trail" (fun path ->
          write_all path (read_all src ^ "\x00");
          expect_error "trailing byte" (Replay.file path)))

let test_missing_file () =
  expect_error "missing file" (Replay.file "/nonexistent/definitely_not_here.lrt")

(* {1 Tampered-event detection} *)

let test_tampered_step_detected () =
  (* record on the fast engine, then replay a trace whose header claims
     a different engine: PR and FR reversal sets differ on this
     instance, so replay must flag the first mismatching step *)
  with_trace "tamper" (fun path ->
      (* on a bad chain PR does n-1 steps vs FR's triangular number, so
         the executions genuinely diverge (on e.g. sawtooth they don't:
         every PR step there reverses its full neighbourhood) *)
      let config = bad_chain 12 in
      ignore (Record.fast ~path ~rule:F.Partial config);
      let full = read_all path in
      let b = Bytes.of_string full in
      (* engine tag byte sits right after "LRT1" + version varint *)
      check_int "pr tag where expected" (Event.engine_tag Event.Pr)
        (Char.code (Bytes.get b 5));
      Bytes.set b 5 (Char.chr (Event.engine_tag Event.Fr));
      with_trace "tamper_fr" (fun path' ->
          write_all path' (Bytes.to_string b);
          expect_error "engine swap detected" (Replay.file path')))

let () =
  Alcotest.run "trace"
    [
      suite "roundtrip"
        [
          case "PR random DAGs record/replay/differential"
            test_roundtrip_pr_random;
          case "FR random DAGs record/replay/differential"
            test_roundtrip_fr_random;
          case "named families" test_roundtrip_families;
          case "NewPR traces replay on the automaton" test_roundtrip_newpr;
          case "NewPR dummy steps recorded" test_newpr_dummy_steps_recorded;
          case "persistent OneStepPR recording" test_roundtrip_persistent_recording;
        ];
      suite "integrity"
        [
          case "Digraph and Fast_graph fingerprints agree"
            test_fingerprint_digraph_vs_fast;
          case "header roundtrip" test_header_roundtrip;
          case "recorded event streams pinned" test_pinned_streams;
        ];
      suite "audit"
        [
          case "clean traces audit clean" test_audit_clean;
          case "scan counts events" test_audit_scan_counts;
        ];
      suite "damage"
        [
          case "every truncation fails cleanly" test_truncated_files_fail_cleanly;
          case "bit flips fail cleanly" test_corrupted_bytes_fail_cleanly;
          case "aborted recordings are truncated" test_abort_leaves_truncated_file;
          case "trailing bytes rejected" test_trailing_bytes_rejected;
          case "missing file is an Error" test_missing_file;
          case "engine swap detected" test_tampered_step_detected;
        ];
    ]
