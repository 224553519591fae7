module G = Lr_fast.Fast_graph

type t = {
  n : int;
  dest : int;
  qcap : int;
  cap : int;
  adj : G.Dyn.t;
  (* Heights, keyed by node slot; the third lexicographic component is
     the id itself.  Edge orientation is derived: higher -> lower. *)
  ha : int array;
  hb : int array;
  queues : Fifo.t array;
  (* Packet store: struct-of-arrays plus a free-id stack, grown by
     doubling, so the steady-state slot loop never allocates. *)
  mutable pdist : int array;
  mutable phops : int array;
  mutable free : int array;
  mutable free_len : int;
  mutable pcap : int;
  (* Per-slot scratch: staged arrivals (merged after the sweep) and the
     reversal list. *)
  in_add : int array;
  stage_node : int array;
  stage_pkt : int array;
  rev_list : int array;
  (* Birth distances: BFS hop distance from the destination over the
     current skeleton, run on demand.  [dist.(u)] is a label of the
     current BFS iff [stamp.(u) = epoch]; a link change bumps [epoch].
     The queue [bfs_q.(bfs_head .. bfs_tail - 1)] survives between
     injects. *)
  dist : int array;
  stamp : int array;
  mutable epoch : int;
  bfs_q : int array;
  mutable bfs_head : int;
  mutable bfs_tail : int;
  mutable injected : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable reversals : int;
  mutable hops_sum : int;
  mutable dist_sum : int;
  mutable queued : int;
  mutable high_water : int;
  mutable slots : int;
}

let num_nodes t = t.n
let destination t = t.dest
let queued t = t.queued
let high_water t = t.high_water

(* [above ha hb u w]: [u]'s (ha, hb, id) triple is the greater one, so
   the link {u, w} points u -> w.  Fast_maintenance has the same test;
   this copy, inlined, saves the per-neighbour scans a call into
   another library, which dune's dev profile (-opaque) never inlines.
   The arrays are annotated so that every comparison is on ints, not a
   call to the polymorphic compare. *)
let[@inline] above (ha : int array) (hb : int array) u w =
  let a = ha.(u) and a' = ha.(w) in
  a > a' || (a = a' && (let b = hb.(u) and b' = hb.(w) in b > b' || (b = b' && u > w)))

let edge_out t u v = above t.ha t.hb u v

(* Deterministic topological seeding from the initial orientation:
   Kahn's algorithm with a FIFO queue seeded in ascending id order.
   Node popped [k]-th gets [hb = n - k], so every initial edge points
   from its earlier-popped (higher-[hb]) endpoint to the later one —
   the derived orientation reproduces [out0] exactly, on every
   maintenance-engine tier alike. *)
let topological_heights g =
  let n = g.G.n in
  let ha = Array.make n 0 and hb = Array.make n 0 in
  let indeg = G.initial_in_degree g in
  let q = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then begin
      q.(!tail) <- u;
      incr tail
    end
  done;
  let popped = ref 0 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    incr popped;
    hb.(u) <- n - !popped;
    let row = g.G.nbrs.(u) and out = g.G.out0.(u) in
    for i = 0 to Array.length row - 1 do
      if out.(i) then begin
        let w = row.(i) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          q.(!tail) <- w;
          incr tail
        end
      end
    done
  done;
  if !popped <> n then invalid_arg "Plane.create: initial orientation is cyclic";
  (ha, hb)

let create ?(qcap = 64) ?(cap = 1) ?heights config =
  if qcap < 1 then invalid_arg "Plane.create: qcap < 1";
  if cap < 1 then invalid_arg "Plane.create: cap < 1";
  let g = G.of_config config in
  let n = g.G.n in
  let ha, hb =
    match heights with
    | None -> topological_heights g
    | Some (a, b) ->
        if Array.length a <> n || Array.length b <> n then
          invalid_arg "Plane.create: mis-sized height arrays";
        (Array.copy a, Array.copy b)
  in
  let pcap = 256 in
  let free = Array.init pcap (fun i -> pcap - 1 - i) in
  {
    n;
    dest = g.G.destination;
    qcap;
    cap;
    adj = G.Dyn.of_graph g;
    ha;
    hb;
    queues = Array.init n (fun _ -> Fifo.create ~capacity:qcap);
    pdist = Array.make pcap 0;
    phops = Array.make pcap 0;
    free;
    free_len = pcap;
    pcap;
    in_add = Array.make n 0;
    stage_node = Array.make (n * cap) 0;
    stage_pkt = Array.make (n * cap) 0;
    rev_list = Array.make n 0;
    dist = Array.make n 0;
    stamp = Array.make n (-1);
    epoch = 0;
    bfs_q = Array.make n 0;
    bfs_head = 0;
    bfs_tail = 0;
    injected = 0;
    dropped = 0;
    delivered = 0;
    reversals = 0;
    hops_sum = 0;
    dist_sum = 0;
    queued = 0;
    high_water = 0;
    slots = 0;
  }

(* {1 Packet store} *)

let alloc t =
  if t.free_len = 0 then begin
    let ncap = 2 * t.pcap in
    let ext a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 t.pcap;
      b
    in
    t.pdist <- ext t.pdist;
    t.phops <- ext t.phops;
    let nfree = Array.make ncap 0 in
    for i = 0 to ncap - t.pcap - 1 do
      nfree.(i) <- ncap - 1 - i
    done;
    t.free <- nfree;
    t.free_len <- ncap - t.pcap;
    t.pcap <- ncap
  end;
  t.free_len <- t.free_len - 1;
  t.free.(t.free_len)

let free_pkt t id =
  t.free.(t.free_len) <- id;
  t.free_len <- t.free_len + 1

(* {1 Birth distances} *)

(* [src]'s hop distance from the destination, or -1 if the skeleton
   does not connect them.  The BFS restarts from the destination when
   the destination carries an old stamp (a link changed since) and
   otherwise resumes where it stopped, expanding only until [src] is
   labelled; a label is final when it is set, so every answer equals a
   full BFS's. *)
let birth_distance t src =
  let dist = t.dist and stamp = t.stamp and q = t.bfs_q and epoch = t.epoch in
  if stamp.(t.dest) <> epoch then begin
    stamp.(t.dest) <- epoch;
    dist.(t.dest) <- 0;
    q.(0) <- t.dest;
    t.bfs_head <- 0;
    t.bfs_tail <- 1
  end;
  let head = ref t.bfs_head and tail = ref t.bfs_tail in
  while stamp.(src) <> epoch && !head < !tail do
    let u = q.(!head) in
    incr head;
    let row = G.Dyn.row t.adj u and du = dist.(u) in
    for i = 0 to G.Dyn.degree t.adj u - 1 do
      let w = row.(i) in
      if stamp.(w) <> epoch then begin
        stamp.(w) <- epoch;
        dist.(w) <- du + 1;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  t.bfs_head <- !head;
  t.bfs_tail <- !tail;
  if stamp.(src) = epoch then dist.(src) else -1

(* {1 Traffic} *)

let inject t ~src ~count =
  if src < 0 || src >= t.n then invalid_arg "Plane.inject: src out of range";
  if count < 0 then invalid_arg "Plane.inject: negative count";
  if src = t.dest then begin
    t.injected <- t.injected + count;
    t.delivered <- t.delivered + count;
    (count, 0)
  end
  else begin
    (* Nothing leaves a queue during an inject, so once the source
       queue fills, the rest of the burst is dropped. *)
    let q = t.queues.(src) in
    let accepted = min count (t.qcap - Fifo.length q) in
    if accepted > 0 then begin
      let d = max 0 (birth_distance t src) in
      for _ = 1 to accepted do
        let id = alloc t in
        t.pdist.(id) <- d;
        t.phops.(id) <- 0;
        ignore (Fifo.push q id : bool)
      done;
      t.queued <- t.queued + accepted;
      t.injected <- t.injected + accepted;
      let l = Fifo.length q in
      if l > t.high_water then t.high_water <- l
    end;
    t.dropped <- t.dropped + (count - accepted);
    (accepted, count - accepted)
  end

(* One partial-reversal height raise — the maintenance engine's own,
   without its worklist (reversal scheduling here is queue-driven). *)
let pr_step t u =
  if G.Dyn.degree t.adj u > 0 then begin
    Lr_routing.Fast_maintenance.raise_height Lr_routing.Maintenance.Partial_reversal t.adj
      t.ha t.hb u;
    t.reversals <- t.reversals + 1
  end

let slot (t : t) =
  let ha = t.ha and hb = t.hb and queues = t.queues and in_add = t.in_add in
  let dest = t.dest and qcap = t.qcap in
  Array.fill in_add 0 t.n 0;
  let staged = ref 0 and nrev = ref 0 in
  for u = 0 to t.n - 1 do
    if u <> dest && not (Fifo.is_empty queues.(u)) then begin
      let row = G.Dyn.row t.adj u and d = G.Dyn.degree t.adj u in
      let sent = ref 0 and blocked = ref false in
      while (not !blocked) && !sent < t.cap && not (Fifo.is_empty queues.(u)) do
        let qu = Fifo.length queues.(u) in
        (* Max positive differential among out-neighbours with receive
           room; ties to the lower id.  [best_raw] ignores room — it
           separates congestion from orientation below. *)
        let best_w = ref (-1) and best_diff = ref 0 and best_raw = ref min_int in
        for i = 0 to d - 1 do
          let w = row.(i) in
          if above ha hb u w then begin
            let qw = if w = dest then 0 else Fifo.length queues.(w) + in_add.(w) in
            let raw = qu - qw in
            if raw > !best_raw then best_raw := raw;
            if
              raw > 0
              && (w = dest || qw < qcap)
              && (raw > !best_diff || (raw = !best_diff && (!best_w < 0 || w < !best_w)))
            then begin
              best_diff := raw;
              best_w := w
            end
          end
        done;
        if !best_w >= 0 then begin
          let w = !best_w in
          let pkt = Fifo.pop queues.(u) in
          t.phops.(pkt) <- t.phops.(pkt) + 1;
          if w = dest then begin
            t.delivered <- t.delivered + 1;
            t.queued <- t.queued - 1;
            if t.pdist.(pkt) > 0 then begin
              t.hops_sum <- t.hops_sum + t.phops.(pkt);
              t.dist_sum <- t.dist_sum + t.pdist.(pkt)
            end;
            free_pkt t pkt
          end
          else begin
            t.stage_node.(!staged) <- w;
            t.stage_pkt.(!staged) <- pkt;
            incr staged;
            in_add.(w) <- in_add.(w) + 1
          end;
          incr sent
        end
        else begin
          blocked := true;
          (* Reversal trigger: held packets, sent nothing this slot,
             and the block is orientational — no out-edge at all, or no
             out-neighbour with a positive differential.  A positive
             differential into a full queue is congestion: wait, do not
             re-point the DAG.  Nor where the skeleton cuts [u] off
             from the destination: no orientation reaches it from
             there, and each raise would only climb. *)
          if !sent = 0 && d > 0 && !best_raw <= 0 && birth_distance t u >= 0
          then begin
            t.rev_list.(!nrev) <- u;
            incr nrev
          end
        end
      done
    end
  done;
  (* Merge staged arrivals: room was reserved via [in_add], so no push
     can fail. *)
  for i = 0 to !staged - 1 do
    let w = t.stage_node.(i) in
    ignore (Fifo.push queues.(w) t.stage_pkt.(i) : bool);
    let l = Fifo.length queues.(w) in
    if l > t.high_water then t.high_water <- l
  done;
  for i = 0 to !nrev - 1 do
    pr_step t t.rev_list.(i)
  done;
  t.slots <- t.slots + 1

(* {1 Topology churn} *)

let mem_edge t u v = G.Dyn.mem_edge t.adj u v

let remove_link t u v =
  G.Dyn.remove_edge t.adj u v;
  t.epoch <- t.epoch + 1

let add_link t u v =
  G.Dyn.add_edge t.adj u v;
  t.epoch <- t.epoch + 1

(* {1 Observation} *)

type counters = {
  injected : int;
  dropped : int;
  delivered : int;
  reversals : int;
  hops_sum : int;
  dist_sum : int;
  slots : int;
}

let counters (t : t) =
  {
    injected = t.injected;
    dropped = t.dropped;
    delivered = t.delivered;
    reversals = t.reversals;
    hops_sum = t.hops_sum;
    dist_sum = t.dist_sum;
    slots = t.slots;
  }

let consistent (t : t) =
  let total = ref 0 and ok = ref true in
  let seen = Array.make t.pcap false in
  for u = 0 to t.n - 1 do
    let q = t.queues.(u) in
    let l = Fifo.length q in
    if l > t.qcap then ok := false;
    total := !total + l;
    Fifo.iter
      (fun id ->
        if id < 0 || id >= t.pcap || seen.(id) then ok := false
        else seen.(id) <- true)
      q
  done;
  !ok && !total = t.queued && t.injected = t.delivered + t.queued
