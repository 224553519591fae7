let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

let trial_rng trial = Random.State.make [| 0x70a1; trial |]

(* Chunked work-stealing over [0, n): workers race on an atomic cursor
   and claim [chunk] indices at a time.  Each result lands in its own
   slot of a shared array, so the output is identical whatever the
   interleaving — determinism comes from indexing, not scheduling. *)
let map_range ?chunk ~jobs n f =
  if n < 0 then invalid_arg "Pool.map_range: negative range";
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then Array.init n f
  else begin
    let chunk =
      match chunk with
      | Some c when c > 0 -> c
      | Some _ -> invalid_arg "Pool.map_range: chunk must be positive"
      | None -> max 1 (n / (jobs * 8))
    in
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let failure = Atomic.make None in
    (* lr:owner worker: [results] slots are claimed disjointly through
       the atomic cursor, so each index has exactly one writer. *)
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo >= n || Option.is_some (Atomic.get failure) then
          continue_ := false
        else
          let hi = min n (lo + chunk) in
          try
            for i = lo to hi - 1 do
              results.(i) <- Some (f i)
            done
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            continue_ := false
      done
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None ->
            (* unreachable: every index below the cursor was written *)
            assert false)
      results
  end

exception Trial_error of { trial : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Trial_error { trial; exn } ->
        Some
          (Printf.sprintf "Pool.run_trials: trial %d raised %s" trial
             (Printexc.to_string exn))
    | _ -> None)

let run_trials ~jobs ~trials f =
  Array.to_list
    (map_range ~jobs trials (fun trial ->
         try f ~trial ~rng:(trial_rng trial)
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Printexc.raise_with_backtrace (Trial_error { trial; exn = e }) bt))

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

module Persistent = struct
  (* Generation-stamped resident rounds: [launch] installs a task,
     bumps [generation] under the lock and returns at once; workers
     sleeping on [start] wake, worker [i] runs [task i] to completion
     while the caller keeps its own role, then reports through
     [finished].  [await] waits until all [jobs - 1] workers have
     reported, so at every [launch] the whole pool is provably parked
     on [start] — no worker can miss a wake-up. *)
  type t = {
    pjobs : int;
    mutable task : int -> unit;
    mutable loops : int;  (* workers [0, loops) run [task]; the rest idle *)
    mutable busy : bool;  (* a [launch]ed round has not been [await]ed *)
    failure : (exn * Printexc.raw_backtrace) option Atomic.t;
    mutable generation : int;
    mutable finished : int;
    mutable stopped : bool;
    lock : Mutex.t;
    start : Condition.t;
    idle : Condition.t;
    mutable domains : unit Domain.t list;
  }

  (* lr:owner parked worker: the lock/wait pair is the parking
     handshake by design, and [t.finished] is only ever written with
     [t.lock] held. *)
  let worker t idx =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.lock;
      while (not t.stopped) && t.generation = !seen do
        Condition.wait t.start t.lock
      done;
      if t.stopped then begin
        Mutex.unlock t.lock;
        running := false
      end
      else begin
        seen := t.generation;
        let task = t.task and loops = t.loops in
        Mutex.unlock t.lock;
        (if idx < loops then
           try task idx
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set t.failure None (Some (e, bt))));
        Mutex.lock t.lock;
        t.finished <- t.finished + 1;
        Condition.broadcast t.idle;
        Mutex.unlock t.lock
      end
    done

  let create ~jobs =
    if jobs < 1 then invalid_arg "Pool.Persistent.create: jobs must be >= 1";
    let t =
      {
        pjobs = jobs;
        task = ignore;
        loops = 0;
        busy = false;
        failure = Atomic.make None;
        generation = 0;
        finished = 0;
        stopped = false;
        lock = Mutex.create ();
        start = Condition.create ();
        idle = Condition.create ();
        domains = [];
      }
    in
    t.domains <- List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker t i));
    t

  let launch t n f =
    if t.stopped then invalid_arg "Pool.Persistent.launch: pool is shut down";
    if t.busy then invalid_arg "Pool.Persistent.launch: a round is already live";
    if n < 1 then invalid_arg "Pool.Persistent.launch: need at least one loop";
    if n > t.pjobs - 1 then
      invalid_arg
        (Printf.sprintf
           "Pool.Persistent.launch: %d loops but only %d resident domains" n
           (t.pjobs - 1));
    Mutex.lock t.lock;
    t.task <- f;
    t.loops <- n;
    t.busy <- true;
    Atomic.set t.failure None;
    t.finished <- 0;
    t.generation <- t.generation + 1;
    Condition.broadcast t.start;
    Mutex.unlock t.lock

  let failed t = Option.is_some (Atomic.get t.failure)

  let await t =
    if t.busy then begin
      Mutex.lock t.lock;
      while t.finished < t.pjobs - 1 do
        Condition.wait t.idle t.lock
      done;
      t.task <- ignore;
      t.busy <- false;
      Mutex.unlock t.lock;
      match Atomic.get t.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

  let shutdown t =
    if not t.stopped then begin
      Mutex.lock t.lock;
      t.stopped <- true;
      Condition.broadcast t.start;
      Mutex.unlock t.lock;
      List.iter Domain.join t.domains;
      t.domains <- []
    end
end
