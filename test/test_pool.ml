open Helpers
module P = Lr_parallel.Pool

let int_array = Alcotest.(array int)

let test_map_range_matches_sequential () =
  List.iter
    (fun n ->
      let expected = Array.init n (fun i -> (i * 37) - (i mod 5)) in
      List.iter
        (fun jobs ->
          Alcotest.check int_array
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            expected
            (P.map_range ~jobs n (fun i -> (i * 37) - (i mod 5))))
        [ 1; 2; 3; 8 ])
    [ 0; 1; 7; 100; 1000 ]

let test_map_range_chunk_sizes () =
  let expected = Array.init 100 succ in
  List.iter
    (fun chunk ->
      Alcotest.check int_array
        (Printf.sprintf "chunk=%d" chunk)
        expected
        (P.map_range ~chunk ~jobs:4 100 succ))
    [ 1; 3; 64; 1000 ]

let test_map_range_propagates_exceptions () =
  check_bool "raises" true
    (try
       ignore
         (P.map_range ~jobs:4 100 (fun i ->
              if i = 57 then failwith "trial 57 exploded" else i));
       false
     with Failure m -> String.equal m "trial 57 exploded")

let test_map_range_rejects_bad_args () =
  check_bool "negative n raises" true
    (try ignore (P.map_range ~jobs:2 (-1) Fun.id); false
     with Invalid_argument _ -> true);
  check_bool "zero chunk raises" true
    (try ignore (P.map_range ~chunk:0 ~jobs:2 10 Fun.id); false
     with Invalid_argument _ -> true)

(* The pool's contract: per-trial RNGs are seeded from the trial index
   alone, so outputs cannot depend on the worker interleaving. *)
let test_run_trials_deterministic () =
  let trial ~trial ~rng =
    List.init (1 + (trial mod 4)) (fun _ -> Random.State.int rng 1_000_000)
  in
  let seq = P.run_trials ~jobs:1 ~trials:40 trial in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d equals jobs=1" jobs)
        true
        (seq = P.run_trials ~jobs ~trials:40 trial))
    [ 2; 4; 8 ]

(* A realistic trial: run the PR engine on a random instance derived
   from the trial index, compare pooled vs sequential sweeps. *)
let test_run_trials_engine_workload () =
  let module F = Lr_fast.Fast_engine in
  let trial ~trial ~rng:_ =
    let config = random_config ~seed:trial 24 in
    let out = F.run (F.of_config F.Partial config) in
    (out.F.work, out.F.edge_reversals, out.F.destination_oriented)
  in
  let seq = P.run_trials ~jobs:1 ~trials:12 trial in
  let par = P.run_trials ~jobs:3 ~trials:12 trial in
  check_bool "identical per-seed outcomes" true (seq = par);
  check_int "all trials ran" 12 (List.length seq)

let test_run_trials_reports_failing_trial () =
  check_bool "Trial_error carries the failing index" true
    (try
       ignore
         (P.run_trials ~jobs:4 ~trials:100 (fun ~trial ~rng:_ ->
              if trial = 57 then failwith "boom" else trial));
       false
     with P.Trial_error { trial = 57; exn } -> (
       match exn with Failure m -> String.equal m "boom" | _ -> false));
  (* the printer names the trial *)
  let msg =
    try
      ignore
        (P.run_trials ~jobs:2 ~trials:10 (fun ~trial ~rng:_ ->
             if trial = 3 then failwith "bad trial" else ()));
      ""
    with e -> Printexc.to_string e
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool "printer mentions trial 3" true (contains msg "trial 3")

let test_trial_rng_reproducible () =
  let a = Random.State.int (P.trial_rng 5) 1_000_000 in
  let b = Random.State.int (P.trial_rng 5) 1_000_000 in
  let c = Random.State.int (P.trial_rng 6) 1_000_000 in
  check_int "same trial, same stream" a b;
  check_bool "different trials differ" true (a <> c)

let test_recommended_jobs_positive () =
  check_bool "at least one domain" true (P.recommended_jobs () >= 1)

module PP = P.Persistent

let with_pool ~jobs f =
  let pool = PP.create ~jobs in
  Fun.protect ~finally:(fun () -> PP.shutdown pool) (fun () -> f pool)

(* The whole point of the resident pool: many rounds on the same
   domains.  Every round must see the full effect of the previous one
   ([await] is a barrier). *)
let test_persistent_reused_across_rounds () =
  with_pool ~jobs:4 (fun pool ->
      let acc = Array.make 3 0 in
      for _ = 1 to 200 do
        PP.launch pool 3 (fun i -> acc.(i) <- acc.(i) + 1);
        PP.await pool
      done;
      Alcotest.check int_array "200 rounds on every loop" (Array.make 3 200)
        acc)

let test_persistent_rejects_bad_args () =
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d raises" jobs)
        true
        (try ignore (PP.create ~jobs); false with Invalid_argument _ -> true))
    [ 0; -1 ]

let test_persistent_shutdown_idempotent () =
  let pool = PP.create ~jobs:3 in
  PP.launch pool 2 ignore;
  PP.await pool;
  PP.shutdown pool;
  PP.shutdown pool;
  check_bool "launch after shutdown raises" true
    (try PP.launch pool 1 ignore; false with Invalid_argument _ -> true)

(* A resident round: loops run to completion on worker domains while
   the caller keeps executing, coordinating only through atomics. *)
let test_persistent_launch_runs_resident_loops () =
  let pool = PP.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> PP.shutdown pool)
    (fun () ->
      let work = Array.init 2 (fun _ -> Atomic.make 0) in
      let stop = Atomic.make false in
      PP.launch pool 2 (fun i ->
          (* First increment is unconditional so the loop leaves a
             trace even if the caller stops the round before the OS
             schedules this domain (single-core hosts). *)
          Atomic.incr work.(i);
          while not (Atomic.get stop) do
            Atomic.incr work.(i);
            Domain.cpu_relax ()
          done);
      check_bool "caller is free while loops run" false (PP.failed pool);
      (* Opportunistically let both loops make progress while we (the
         caller) watch; the real assertions come after [await]. *)
      let spun = ref 0 in
      while
        (Atomic.get work.(0) = 0 || Atomic.get work.(1) = 0)
        && !spun < 100_000
      do
        incr spun;
        Domain.cpu_relax ()
      done;
      Atomic.set stop true;
      PP.await pool;
      check_bool "loop 0 ran" true (Atomic.get work.(0) > 0);
      check_bool "loop 1 ran" true (Atomic.get work.(1) > 0);
      (* await with no live round is a no-op, and the pool is reusable
         for another round afterwards. *)
      PP.await pool;
      let again = Atomic.make 0 in
      PP.launch pool 2 (fun _ -> Atomic.incr again);
      PP.await pool;
      check_int "pool reusable" 2 (Atomic.get again))

let test_persistent_launch_failure_is_flagged_and_reraised () =
  let pool = PP.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> PP.shutdown pool)
    (fun () ->
      PP.launch pool 1 (fun _ -> failwith "loop died");
      (* [failed] turns true once the loop raises; [await] re-raises. *)
      let spun = ref 0 in
      while (not (PP.failed pool)) && !spun < 10_000_000 do
        incr spun;
        Domain.cpu_relax ()
      done;
      check_bool "failed pool flagged before await" true (PP.failed pool);
      check_bool "await re-raises the loop failure" true
        (try PP.await pool; false
         with Failure m -> m = "loop died");
      (* The round is over; the pool survives for another round. *)
      let ran = Atomic.make false in
      PP.launch pool 1 (fun _ -> Atomic.set ran true);
      PP.await pool;
      check_bool "pool reusable after a failed round" true (Atomic.get ran))

let test_persistent_launch_rejects_bad_args () =
  let pool = PP.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> PP.shutdown pool)
    (fun () ->
      let rejects label f =
        check_bool label true (try f (); false with Invalid_argument _ -> true)
      in
      rejects "n = 0 rejected" (fun () -> PP.launch pool 0 ignore);
      rejects "n > jobs - 1 rejected" (fun () -> PP.launch pool 2 ignore);
      let one = PP.create ~jobs:1 in
      Fun.protect
        ~finally:(fun () -> PP.shutdown one)
        (fun () ->
          rejects "1-domain pool cannot launch" (fun () ->
              PP.launch one 1 ignore));
      (* No double launch while a round is live. *)
      let stop = Atomic.make false in
      PP.launch pool 1 (fun _ -> while not (Atomic.get stop) do Domain.cpu_relax () done);
      rejects "second launch while live rejected" (fun () ->
          PP.launch pool 1 ignore);
      Atomic.set stop true;
      PP.await pool)

let () =
  Alcotest.run "pool"
    [
      suite "map_range"
        [
          case "matches sequential for all job counts"
            test_map_range_matches_sequential;
          case "chunk size does not affect results" test_map_range_chunk_sizes;
          case "worker exceptions propagate" test_map_range_propagates_exceptions;
          case "bad arguments rejected" test_map_range_rejects_bad_args;
        ];
      suite "run_trials"
        [
          case "deterministic across job counts" test_run_trials_deterministic;
          case "failures name the failing trial"
            test_run_trials_reports_failing_trial;
          case "engine workload pooled = sequential"
            test_run_trials_engine_workload;
          case "trial rng reproducible" test_trial_rng_reproducible;
          case "recommended_jobs >= 1" test_recommended_jobs_positive;
        ];
      suite "persistent"
        [
          case "reusable across many rounds" test_persistent_reused_across_rounds;
          case "bad arguments rejected" test_persistent_rejects_bad_args;
          case "shutdown idempotent" test_persistent_shutdown_idempotent;
          case "launch keeps resident loops running"
            test_persistent_launch_runs_resident_loops;
          case "launch failure flagged and re-raised"
            test_persistent_launch_failure_is_flagged_and_reraised;
          case "launch bad arguments rejected"
            test_persistent_launch_rejects_bad_args;
        ];
    ]
