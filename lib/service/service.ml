module Pool = Lr_parallel.Pool
module Spsc = Lr_parallel.Spsc

type config = {
  jobs : int;
  queue_bound : int;
  rule : Lr_routing.Maintenance.rule;
  engine : Shard.engine_kind;
  pin_loops : bool;
}

let default_config =
  {
    jobs = 1;
    queue_bound = 128;
    rule = Lr_routing.Maintenance.Partial_reversal;
    engine = Shard.Fast;
    pin_loops = false;
  }

(* Max ops a thief drains per stolen token claim: small enough to
   return the shard to its owner promptly, large enough to amortize the
   claim. *)
let steal_batch = 64

type t = {
  cfg : config;
  shards : Shard.t array;
  metrics : Metrics.t;
  pool : Pool.Persistent.t;
  effective_jobs : int;
      (* [cfg.jobs] clamped to the host's domain count unless
         [pin_loops]: every resident domain beyond the hardware joins
         each minor-GC stop-the-world barrier just to be woken and
         parked again, so overprovisioned domains are pure tax. *)
}

let record_initial_trace ~dir ~rule shard config =
  let module F = Lr_fast.Fast_engine in
  let path = Filename.concat dir (Printf.sprintf "shard-%03d.lrt" shard) in
  let rule =
    match rule with
    | Lr_routing.Maintenance.Partial_reversal -> F.Partial
    | Lr_routing.Maintenance.Full_reversal -> F.Full
  in
  ignore (Lr_trace.Record.fast ~seed:shard ~path ~rule config)

let create ?trace_dir cfg configs =
  if Array.length configs = 0 then
    invalid_arg "Service.create: need at least one shard";
  if cfg.jobs < 1 then invalid_arg "Service.create: jobs must be >= 1";
  if cfg.queue_bound < 1 || cfg.queue_bound > Spsc.max_capacity then
    invalid_arg
      (Printf.sprintf
         "Service.create: queue_bound must be in 1 .. %d (the op ring's \
          capacity limit)"
         Spsc.max_capacity);
  let effective_jobs =
    if cfg.pin_loops then cfg.jobs
    else min cfg.jobs (max 1 (Pool.recommended_jobs ()))
  in
  (match trace_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Array.iteri
        (fun i config -> record_initial_trace ~dir ~rule:cfg.rule i config)
        configs);
  {
    cfg;
    shards =
      Array.mapi
        (fun id config ->
          Shard.create ~engine:cfg.engine ~rule:cfg.rule ~id config)
        configs;
    metrics = Metrics.create ~shards:(Array.length configs);
    pool = Pool.Persistent.create ~jobs:effective_jobs;
    effective_jobs;
  }

let num_shards t = Array.length t.shards
let shard t i = t.shards.(i)
let config t = t.cfg
let metrics t = Metrics.snapshot t.metrics

(* The service's one clock.  Admission, completion and the chaos heal
   are stamped in nanoseconds on the monotonic clock: served at
   admission, most ops take well under a microsecond, which
   [Unix.gettimeofday]'s whole-microsecond ticks would read as 0. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* One op, admitted at [admitted] (a {!now_ns} stamp), on the domain
   holding shard [s]: the dispatcher itself at one domain, otherwise
   the domain holding the shard's token.  Which domain that is never
   changes what it does, so counters — and hence the fingerprint —
   depend only on *which* ops execute, never on the domain count. *)
(* lr:owner shard token holder: ops for one shard are serialized by the
   per-shard ownership token (SPSC pop under [try_drain]), or by the
   lone dispatcher at one domain, so the shard, its metrics counter and
   everything the apply path touches have exactly one writer at a
   time. *)
let serve_op t s op ~admitted =
  (* Chaos ops are timed around the shard call itself: the heal runs
     synchronously inside [Shard.apply], so this delta is the
     corruption-to-recovered time the SLO is stated over. *)
  let chaos_t0 = match op with Op.Corrupt _ | Op.Flip _ -> now_ns () | _ -> 0 in
  let o = Shard.apply t.shards.(s) op in
  let c = Metrics.shard t.metrics s in
  c.Metrics.served <- c.Metrics.served + 1;
  c.Metrics.reversal_steps <- c.Metrics.reversal_steps + o.Shard.work;
  c.Metrics.validation_failures <-
    c.Metrics.validation_failures + o.Shard.validation_failures;
  (match o.Shard.response with
  | Op.Path _ -> c.Metrics.routes <- c.Metrics.routes + 1
  | Op.No_route -> c.Metrics.no_routes <- c.Metrics.no_routes + 1
  | Op.Repaired _ | Op.Linked _ ->
      c.Metrics.link_events <- c.Metrics.link_events + 1
  | Op.Cut _ ->
      c.Metrics.link_events <- c.Metrics.link_events + 1;
      c.Metrics.partitions <- c.Metrics.partitions + 1
  | Op.New_destination _ -> c.Metrics.crashes <- c.Metrics.crashes + 1
  | Op.Injected { accepted; dropped } ->
      c.Metrics.packets_in <- c.Metrics.packets_in + accepted;
      c.Metrics.packets_dropped <- c.Metrics.packets_dropped + dropped
  | Op.Forwarded { delivered; reversals; queued; hops } ->
      c.Metrics.packets_out <- c.Metrics.packets_out + delivered;
      c.Metrics.packet_reversals <- c.Metrics.packet_reversals + reversals;
      c.Metrics.packet_hops <- c.Metrics.packet_hops + hops;
      if queued > c.Metrics.packet_queue_peak then
        c.Metrics.packet_queue_peak <- queued
  | Op.Healed _ ->
      c.Metrics.faults <- c.Metrics.faults + 1;
      Metrics.record_recovery t.metrics ~shard:s (now_ns () - chaos_t0)
  | Op.Noop -> c.Metrics.noops <- c.Metrics.noops + 1
  | Op.Snapshot _ | Op.Rejected _ ->
      (* shards never produce dispatcher-level responses *)
      assert false);
  Metrics.record_latency t.metrics ~shard:s (now_ns () - admitted);
  o.Shard.response

let shard_of_op t i op =
  let shards = Array.length t.shards in
  let s = match Op.shard_of op with Some s -> s | None -> assert false in
  if s < 0 || s >= shards then
    invalid_arg
      (Printf.sprintf "Service.run: op %d names shard %d of %d" i s shards);
  s

(* A [Stats] op, once every op admitted before it has completed. *)
let snapshot_op t =
  Metrics.bump_stats t.metrics;
  Op.Snapshot (Metrics.totals t.metrics)

(* {1 One domain: serve at admission}

   The dispatcher is the only consumer, so it serves each op as it
   admits it: nothing is queued or held, an op's sojourn is its own
   service time, and every op before a [Stats] has completed by the
   time the [Stats] arrives. *)

let run_inline t ops =
  let responses = Array.make (Array.length ops) Op.Noop in
  Array.iteri
    (fun i op ->
      responses.(i) <-
        (match op with
        | Op.Stats -> snapshot_op t
        | op -> serve_op t (shard_of_op t i op) op ~admitted:(now_ns ())))
    ops;
  responses

(* {1 Several domains: the rings}

   Free-running, with no cross-shard barrier.  The dispatcher pushes
   each op's index into its destination shard's bounded SPSC ring;
   [jobs - 1] resident loops (launched once, run-to-completion) drain
   the rings until the shutdown sentinel.  Per-shard serialization is
   preserved by ownership tokens: only the loop that wins a shard's
   token CAS may pop its ring and touch its engine, and token handoffs
   are acquire/release edges, so consumption can migrate (work
   stealing) without ever interleaving a shard's ops.  Backpressure is
   per-ring occupancy: a full ring answers [Rejected `Overloaded] on
   the spot.  A [Stats] op quiesces (admitted = completed on every
   shard, with the dispatcher moonlighting as a thief while it waits),
   so snapshots still count exactly the ops admitted before them. *)

exception Loop_died

let run_rings t ops =
  let n = Array.length ops in
  let shards = Array.length t.shards in
  let nloops = t.effective_jobs - 1 in
  let responses = Array.make n Op.Noop in
  let admit_time = Array.make n 0 in
  let rings =
    Array.init shards (fun _ -> Spsc.create ~capacity:t.cfg.queue_bound (-1))
  in
  let tokens = Array.init shards (fun _ -> Atomic.make false) in
  let completed = Array.init shards (fun _ -> Atomic.make 0) in
  let admitted = Array.make shards 0 in
  (* Token-protected serialization witness: op indices popped from a
     ring must be strictly increasing per shard. *)
  let last_served = Array.make shards (-1) in
  let stop = Atomic.make false in
  let abort = Atomic.make false in
  (* Pop-and-apply under an already-held token.  [completed] is bumped
     once per drain, not per op: quiesce only ever waits for the count
     to catch up, so coarser publication just stretches the wait by at
     most one batch — and saves a full fence per op on the hot path. *)
  (* lr:owner shard token holder: only the domain holding [tokens.(s)]
     runs this, so [last_served] and the serve path are single-writer;
     [completed] is the one cross-domain hand-off and is Atomic. *)
  let drain_locked s limit =
    let count = ref 0 in
    let continue_ = ref true in
    while !continue_ && !count < limit do
      match Spsc.try_pop rings.(s) with
      | None -> continue_ := false
      | Some idx ->
          if idx <= last_served.(s) then
            failwith "Service.run: per-shard serialization broken";
          last_served.(s) <- idx;
          responses.(idx) <- serve_op t s ops.(idx) ~admitted:admit_time.(idx);
          incr count
    done;
    if !count > 0 then ignore (Atomic.fetch_and_add completed.(s) !count);
    !count
  in
  let try_drain ~owner s limit =
    if Spsc.is_empty rings.(s) then 0
    else begin
      if not owner then Metrics.note_steal_attempt t.metrics ~shard:s;
      if not (Atomic.compare_and_set tokens.(s) false true) then 0
      else begin
        let k =
          match drain_locked s limit with
          | k ->
              Atomic.set tokens.(s) false;
              k
          | exception e ->
              Atomic.set tokens.(s) false;
              raise e
        in
        if (not owner) && k > 0 then Metrics.note_stolen t.metrics ~shard:s k;
        k
      end
    end
  in
  let all_rings_empty () =
    let empty = ref true in
    for s = 0 to shards - 1 do
      if not (Spsc.is_empty rings.(s)) then empty := false
    done;
    !empty
  in
  (* One steal sweep over shards this loop does not own ([w = -1] is
     the dispatcher: a pure thief that owns nothing, so it drains
     whole rings per claim — when it steals it is quiescing or ending
     the stream, and total drain speed beats claim fairness). *)
  let steal_pass w =
    let progressed = ref false in
    let limit = if w < 0 then max_int else steal_batch in
    for s = 0 to shards - 1 do
      if w < 0 || s mod nloops <> w then
        if try_drain ~owner:false s limit > 0 then progressed := true
    done;
    !progressed
  in
  (* On a single hardware thread a busy-wait starves the very loop it
     is waiting for; after a burst of polite spins, yield the core for
     real, backing off exponentially (50us doubling to ~1.6ms).  Long
     sleeps matter when the host has fewer cores than loops: a
     descheduled-but-runnable domain stalls every minor GC, so
     persistently idle loops must get off the scheduler, not poll it.
     On multicore the sleep branch is almost never reached.

     All long sleeps go through [select] on the wake pipe rather than
     [sleepf]: when the stream ends, the dispatcher writes one byte
     and every sleeper returns instantly, so joining the loops never
     waits out someone's nap. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  (* lr:owner resident loop: the select here is the deliberate
     interruptible idle backoff — [wake_sleepers] writes the pipe to cut
     every nap short, so this never blocks shutdown. *)
  let interruptible_sleep seconds =
    try ignore (Unix.select [ wake_r ] [] [] seconds)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let wake_sleepers () =
    try ignore (Unix.write wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  let pause idle =
    if idle < 32 then Domain.cpu_relax ()
    else
      let k = min 5 ((idle - 32) / 4) in
      interruptible_sleep (50e-6 *. float_of_int (1 lsl k))
  in
  (* Hardware-clamped active set: running more always-hot loops than
     the host has cores makes every one of them a descheduled-but-
     runnable domain that stalls minor GCs and steals dispatcher
     quanta, so only the first [available - 1] loops run hot.  The
     surplus are {e standby}: parked in millisecond sleeps (off the
     scheduler, runtime lock released), assisting only when some ring
     grows past half its capacity — exactly the overload moment when
     an extra consumer pays for its scheduling cost. *)
  let active_loops =
    min nloops (max 0 (Pool.recommended_jobs () - 1))
  in
  let assist_depth =
    max 1 (Spsc.capacity rings.(0) / 2)
  in
  let rings_deep () =
    let deep = ref false in
    for s = 0 to shards - 1 do
      if Spsc.length rings.(s) >= assist_depth then deep := true
    done;
    !deep
  in
  (* One full work sweep: drain owned shards, then steal. *)
  let sweep w =
    let progressed = ref false in
    if w >= 0 then begin
      let s = ref w in
      while !s < shards do
        if try_drain ~owner:true !s max_int > 0 then progressed := true;
        s := !s + nloops
      done
    end;
    if !progressed then true else steal_pass w
  in
  let loop w =
    let standby = w >= 0 && w >= active_loops in
    let running = ref true in
    let idle = ref 0 in
    while !running do
      let engaged =
        (not standby) || rings_deep () || Atomic.get stop
        (* a standby engages under overload — and at shutdown, when one
           more consumer shortens the final drain instead of napping
           through it *)
      in
      let progressed = engaged && sweep w in
      if progressed then idle := 0
      else if Atomic.get abort then running := false
      else if Atomic.get stop && all_rings_empty () then
        (* the shutdown sentinel: the stream has ended and every ring
           is drained (in-flight ops finish in their holders' hands) *)
        running := false
      else if standby then interruptible_sleep 2e-3
      else begin
        incr idle;
        pause !idle
      end
    done
  in
  Pool.Persistent.launch t.pool nloops (fun w ->
      try loop w
      with e ->
        Atomic.set abort true;
        Atomic.set stop true;
        raise e);
  let check_loops () = if Pool.Persistent.failed t.pool then raise Loop_died in
  let quiesced () =
    let ok = ref true in
    for s = 0 to shards - 1 do
      if Atomic.get completed.(s) < admitted.(s) then ok := false
    done;
    !ok
  in
  let quiesce () =
    let idle = ref 0 in
    while not (quiesced ()) do
      check_loops ();
      if steal_pass (-1) then idle := 0
      else begin
        incr idle;
        pause !idle
      end
    done
  in
  (* lr:owner dispatcher: admission state ([admitted], [admit_time],
     rejection metrics) is written only by the single dispatcher domain;
     the rings are the sole producer/consumer hand-off. *)
  let dispatch () =
    for i = 0 to n - 1 do
      (match ops.(i) with
      | Op.Stats ->
          quiesce ();
          responses.(i) <- snapshot_op t
      | op ->
          let s = shard_of_op t i op in
          admit_time.(i) <- now_ns ();
          if Spsc.try_push rings.(s) i then begin
            admitted.(s) <- admitted.(s) + 1;
            Metrics.record_depth t.metrics ~shard:s (Spsc.length rings.(s))
          end
          else begin
            (* Per-ring occupancy backpressure: the queue is the
               overload signal, and a full ring sheds on the spot. *)
            let c = Metrics.shard t.metrics s in
            c.Metrics.rejected <- c.Metrics.rejected + 1;
            responses.(i) <- Op.Rejected `Overloaded
          end);
      if i land 0xfff = 0 then check_loops ()
    done
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close wake_r;
      Unix.close wake_w)
    (fun () ->
      (try dispatch ()
       with e ->
         Atomic.set abort true;
         Atomic.set stop true;
         wake_sleepers ();
         (* [await] re-raises the loop's own exception when one died —
            the root cause beats the dispatcher's [Loop_died] probe. *)
         Pool.Persistent.await t.pool;
         (match e with
         | Loop_died -> failwith "Service.run: a shard loop died"
         | e -> raise e));
      Atomic.set stop true;
      wake_sleepers ();
      (* End of stream: the dispatcher joins the draining as a thief
         until every ring is empty, then collects the loops. *)
      (try loop (-1)
       with e ->
         Atomic.set abort true;
         Pool.Persistent.await t.pool;
         raise e);
      Pool.Persistent.await t.pool;
      if not (quiesced ()) then failwith "Service.run: ops lost in flight";
      responses)

let run t ops = if t.effective_jobs = 1 then run_inline t ops else run_rings t ops

let fingerprint responses snapshot =
  let b = Buffer.create 4096 in
  Array.iter
    (fun r ->
      Buffer.add_string b (Op.response_to_string r);
      Buffer.add_char b '\n')
    responses;
  Buffer.add_string b (Metrics.totals_line snapshot.Metrics.snapshot_totals);
  Buffer.add_char b '\n';
  Array.iter
    (fun per ->
      Buffer.add_string b (Metrics.totals_line per);
      Buffer.add_char b '\n')
    snapshot.Metrics.snapshot_per_shard;
  Digest.to_hex (Digest.string (Buffer.contents b))

let rejected_in responses =
  Array.fold_left
    (fun acc r -> match r with Op.Rejected _ -> acc + 1 | _ -> acc)
    0 responses

let shutdown t = Pool.Persistent.shutdown t.pool
