open Lr_graph
open Linkrev
module G = Lr_fast.Fast_graph
module Uf = Union_find

type cache_stats = { hits : int; misses : int; invalidations : int }
type index_stats = { slots : int; rebuilds : int }

(* Next-hop cache cells. *)
let nh_unset = -2
let nh_none = -1

type t = {
  n : int;
  rule : Maintenance.rule;
  mutable dest : int;
  adj : G.Dyn.t;
  (* PR/FR heights, keyed by slot; the pid component is the id itself.
     Edge orientation is derived: higher endpoint -> lower endpoint. *)
  ha : int array;
  hb : int array;
  in_deg : int array;
  (* Component index: a union-find over a growable slot arena.
     [slot.(u)] is [u]'s current live slot; retired slots stay behind
     as ghosts so the survivors' find paths keep resolving (see
     {!Union_find}). *)
  uf : Uf.t;
  slot : int array;
  (* Per-class pending-sink bags (intrusive lists).  [bag_head]/
     [bag_tail] are slot-indexed and meaningful at class roots;
     [bag_next]/[in_bag] are node-indexed.  Invariant between
     operations: the heap is empty and every sink outside the
     destination's component sits in its class's bag — so absorbing a
     class requeues its pending sinks by draining one list instead of
     rescanning the side. *)
  mutable bag_head : int array;
  mutable bag_tail : int array;
  bag_next : int array;
  in_bag : bool array;
  mutable rebuilds : int;
  (* Min-id sink worklist: binary heap + membership bits.  Lazily
     validated — a popped node steps only if it is still a non-
     destination sink inside the destination's component. *)
  heap : int array;
  mutable heap_len : int;
  inq : bool array;
  (* Next-hop cache: nh_unset, nh_none, or the cached hop. *)
  nh : int array;
  (* Step observer (trace recording): called after every reversal with
     the stepping node and its flipped neighbours.  The id buffer is
     reused across steps and must not be retained. *)
  mutable obs : (int -> int array -> int -> unit) option;
  obs_buf : int array;
  mutable work : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  (* BFS scratch. *)
  queue : int array;
  seen : bool array;
  (* Split-check scratch: two queues plus timestamped visit marks, so
     a bidirectional probe costs its frontier, not an O(n) clear. *)
  bq_a : int array;
  bq_b : int array;
  bstamp : int array;
  mutable stamp : int;
}

let destination t = t.dest
let num_nodes t = t.n
let total_work t = t.work
let mem_node t u = u >= 0 && u < t.n
let mem_edge t u v = G.Dyn.mem_edge t.adj u v
let cache_stats t = { hits = t.hits; misses = t.misses; invalidations = t.invalidations }
let index_stats t = { slots = Uf.length t.uf; rebuilds = t.rebuilds }

(* Same order as Heights.compare_pr_height on (pa, pb, pid). *)
let compare_heights t u v =
  Order.lex3 (compare t.ha.(u) t.ha.(v)) (compare t.hb.(u) t.hb.(v))
    (compare u v)

let edge_out t u v = compare_heights t u v > 0
let height t u = (t.ha.(u), t.hb.(u))

let is_sink t u =
  let d = G.Dyn.degree t.adj u in
  d > 0 && t.in_deg.(u) = d

(* In-degrees recounted from the derived orientation. *)
let recount_in_degrees t =
  for u = 0 to t.n - 1 do
    let d = G.Dyn.degree t.adj u in
    let incoming = ref 0 in
    for i = 0 to d - 1 do
      if compare_heights t u (G.Dyn.nbr t.adj u i) < 0 then incr incoming
    done;
    t.in_deg.(u) <- !incoming
  done

(* {1 Component membership} *)

let in_comp t u = Uf.same t.uf t.slot.(u) t.slot.(t.dest)
let in_dest_component t u = mem_node t u && in_comp t u
let component_size t = Uf.size t.uf t.slot.(t.dest)

(* Seniority rank of a node: the destination outranks everything, then
   higher degree, then lower id — so the most stable endpoint anchors
   its class across merges and per-node state keyed near it survives. *)
let id_bits = 21
let id_mask = (1 lsl id_bits) - 1

let node_rank t u =
  if u = t.dest then max_int
  else (G.Dyn.degree t.adj u lsl id_bits) lor (id_mask - (u land id_mask))

let refresh_rank t u = Uf.set_rank t.uf t.slot.(u) (node_rank t u)

(* {1 Worklist} *)

let heap_push t u =
  if not t.inq.(u) then begin
    t.inq.(u) <- true;
    let a = t.heap in
    let i = ref t.heap_len in
    t.heap_len <- t.heap_len + 1;
    a.(!i) <- u;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let p = (!i - 1) / 2 in
      if a.(p) > a.(!i) then begin
        let tmp = a.(p) in
        a.(p) <- a.(!i);
        a.(!i) <- tmp;
        i := p
      end
      else sifting := false
    done
  end

let heap_pop t =
  let a = t.heap in
  let top = a.(0) in
  t.heap_len <- t.heap_len - 1;
  t.inq.(top) <- false;
  if t.heap_len > 0 then begin
    a.(0) <- a.(t.heap_len);
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < t.heap_len && a.(l) < a.(!m) then m := l;
      if r < t.heap_len && a.(r) < a.(!m) then m := r;
      if !m <> !i then begin
        let tmp = a.(!m) in
        a.(!m) <- a.(!i);
        a.(!i) <- tmp;
        i := !m
      end
      else sifting := false
    done
  end;
  top

let push_if_sink t u = if u <> t.dest && is_sink t u then heap_push t u

(* {1 Pending-sink bags} *)

let ensure_bags t cap =
  let old = Array.length t.bag_head in
  if cap > old then begin
    let ncap = max cap (2 * old) in
    let grow a =
      let b = Array.make ncap (-1) in
      Array.blit a 0 b 0 old;
      b
    in
    t.bag_head <- grow t.bag_head;
    t.bag_tail <- grow t.bag_tail
  end

let uf_fresh t ~rank =
  let s = Uf.fresh t.uf ~rank in
  ensure_bags t (s + 1);
  t.bag_head.(s) <- -1;
  t.bag_tail.(s) <- -1;
  s

(* Union that also concatenates the junior class's pending-sink bag
   onto the senior's — O(1). *)
let uf_union t a b =
  let ra = Uf.find t.uf a and rb = Uf.find t.uf b in
  if ra = rb then ra
  else begin
    let s = Uf.union t.uf ra rb in
    let j = if s = ra then rb else ra in
    if t.bag_head.(j) >= 0 then begin
      if t.bag_head.(s) < 0 then begin
        t.bag_head.(s) <- t.bag_head.(j);
        t.bag_tail.(s) <- t.bag_tail.(j)
      end
      else begin
        t.bag_next.(t.bag_tail.(s)) <- t.bag_head.(j);
        t.bag_tail.(s) <- t.bag_tail.(j)
      end;
      t.bag_head.(j) <- -1;
      t.bag_tail.(j) <- -1
    end;
    s
  end

let bag_add t u =
  if not t.in_bag.(u) then begin
    t.in_bag.(u) <- true;
    t.bag_next.(u) <- -1;
    let r = Uf.find t.uf t.slot.(u) in
    if t.bag_head.(r) < 0 then begin
      t.bag_head.(r) <- u;
      t.bag_tail.(r) <- u
    end
    else begin
      t.bag_next.(t.bag_tail.(r)) <- u;
      t.bag_tail.(r) <- u
    end
  end

(* Requeue a class's pending sinks.  Entries can be stale — a bagged
   node may have stopped being a sink while detached — so each is
   re-checked; a stale entry is simply dropped (whatever makes it a
   sink again will push it). *)
let bag_drain_into_heap t r =
  let x = ref t.bag_head.(r) in
  t.bag_head.(r) <- -1;
  t.bag_tail.(r) <- -1;
  while !x >= 0 do
    let nxt = t.bag_next.(!x) in
    t.in_bag.(!x) <- false;
    push_if_sink t !x;
    x := nxt
  done

(* The minimum-id valid sink, or -1: exactly the node the reference's
   ascending-order component scan would select.  A popped sink outside
   the destination's component is parked in its class's bag instead of
   dropped, so a later absorb requeues it without rescanning the
   side. *)
let rec pop_sink t =
  if t.heap_len = 0 then -1
  else
    let u = heap_pop t in
    if u <> t.dest && is_sink t u then
      if in_comp t u then u
      else begin
        bag_add t u;
        pop_sink t
      end
    else pop_sink t

(* {1 Next-hop cache} *)

let invalidate t u =
  if t.nh.(u) <> nh_unset then begin
    t.nh.(u) <- nh_unset;
    t.invalidations <- t.invalidations + 1
  end

(* Steepest descent: the lowest out-neighbour of [v], or -1. *)
let compute_next t v =
  let d = G.Dyn.degree t.adj v in
  let best = ref (-1) in
  for i = 0 to d - 1 do
    let w = G.Dyn.nbr t.adj v i in
    if compare_heights t v w > 0
       && (!best < 0 || compare_heights t w !best < 0)
    then best := w
  done;
  !best

let next_hop t v =
  let c = t.nh.(v) in
  if c <> nh_unset then begin
    t.hits <- t.hits + 1;
    c
  end
  else begin
    t.misses <- t.misses + 1;
    let c = match compute_next t v with -1 -> nh_none | w -> w in
    t.nh.(v) <- c;
    c
  end

(* {1 Repair} *)

(* {!Maintenance.raise_height} on flat arrays. *)
let raise_height rule adj ha hb u =
  let d = G.Dyn.degree adj u in
  match rule with
  | Maintenance.Partial_reversal ->
      let min_a = ref max_int in
      for i = 0 to d - 1 do
        let w = G.Dyn.nbr adj u i in
        if ha.(w) < !min_a then min_a := ha.(w)
      done;
      let new_a = !min_a + 1 in
      let min_b = ref max_int and same = ref false in
      for i = 0 to d - 1 do
        let w = G.Dyn.nbr adj u i in
        if ha.(w) = new_a then begin
          same := true;
          if hb.(w) < !min_b then min_b := hb.(w)
        end
      done;
      ha.(u) <- new_a;
      if !same then hb.(u) <- !min_b - 1
  | Maintenance.Full_reversal ->
      let max_a = ref min_int in
      for i = 0 to d - 1 do
        let w = G.Dyn.nbr adj u i in
        if ha.(w) > !max_a then max_a := ha.(w)
      done;
      ha.(u) <- !max_a + 1;
      hb.(u) <- 0

(* One reversal at the sink [u]: raise its height per the rule, adjust
   in-degrees along the (derived) flipped edges, queue any neighbour
   that just became a sink, and drop the cache entries whose choice the
   raise can change — [u]'s own, and every neighbour's ([u] was in every
   neighbour's out-set, being a sink). *)
let step t u =
  let d = G.Dyn.degree t.adj u in
  raise_height t.rule t.adj t.ha t.hb u;
  invalidate t u;
  let flipped = ref 0 in
  for i = 0 to d - 1 do
    let w = G.Dyn.nbr t.adj u i in
    invalidate t w;
    if compare_heights t u w > 0 then begin
      (* This edge flipped from w -> u to u -> w. *)
      t.in_deg.(u) <- t.in_deg.(u) - 1;
      t.in_deg.(w) <- t.in_deg.(w) + 1;
      t.obs_buf.(!flipped) <- w;
      incr flipped;
      push_if_sink t w
    end
  done;
  (match t.obs with None -> () | Some f -> f u t.obs_buf !flipped);
  push_if_sink t u

(* Identical control to the reference: min-id sink each iteration, same
   budget over the current component size, same failure message. *)
let stabilize ?budget t =
  let budget =
    match budget with
    | Some b -> b
    | None ->
        let s = component_size t in
        (4 * s * s) + 1000
  in
  let steps = ref 0 in
  let running = ref true in
  while !running do
    if !steps > budget then
      failwith "Maintenance.stabilize: budget exceeded (bug)";
    match pop_sink t with
    | -1 -> running := false
    | u ->
        step t u;
        incr steps
  done;
  t.work <- t.work + !steps;
  Maintenance.Stabilized { node_steps = !steps }

(* {1 Component maintenance} *)

(* Bidirectional alternating BFS after the edge [{a, b}] was removed
   from inside one (exact) class.  Expands one node per side per round,
   so a reconnection is found in O(min side) and a split costs the
   smaller side plus the lost side.  Answers [None] when the endpoints
   are still connected; otherwise [Some (q, k)] where [q.(0 .. k-1)]
   enumerates the side NOT containing the destination — exactly the
   lost set. *)
let split_after_removal t a b =
  t.stamp <- t.stamp + 2;
  let sa = t.stamp - 1 and sb = t.stamp in
  let qa = t.bq_a and qb = t.bq_b in
  t.bstamp.(a) <- sa;
  qa.(0) <- a;
  t.bstamp.(b) <- sb;
  qb.(0) <- b;
  let ha = ref 0 and ta = ref 1 and hb = ref 0 and tb = ref 1 in
  let da = ref (a = t.dest) and db = ref (b = t.dest) in
  let meet = ref false in
  let expand st other q h tl found_dest =
    let x = q.(!h) in
    incr h;
    let d = G.Dyn.degree t.adj x in
    let i = ref 0 in
    while (not !meet) && !i < d do
      let w = G.Dyn.nbr t.adj x !i in
      incr i;
      if t.bstamp.(w) = other then meet := true
      else if t.bstamp.(w) <> st then begin
        t.bstamp.(w) <- st;
        if w = t.dest then found_dest := true;
        q.(!tl) <- w;
        incr tl
      end
    done
  in
  let exhausted = ref 0 in
  while !exhausted = 0 && not !meet do
    if !ha < !ta then expand sa sb qa ha ta da else exhausted := 1;
    if !exhausted = 0 && not !meet then begin
      if !hb < !tb then expand sb sa qb hb tb db else exhausted := 2
    end
  done;
  if !meet then None
  else if !exhausted = 1 then
    if not !da then Some (qa, !ta)
    else begin
      (* Side [a] is the destination's — flush [b] to enumerate the
         lost side (the sides are disjoint, so no meet can fire). *)
      while !hb < !tb do
        expand sb sa qb hb tb db
      done;
      Some (qb, !tb)
    end
  else if not !db then Some (qb, !tb)
  else begin
    while !ha < !ta do
      expand sa sb qa ha ta da
    done;
    Some (qa, !ta)
  end

(* Move an enumerated lost side out of the destination's class: retire
   the old slots (the ghosts keep the survivors' find paths alive) and
   knit fresh slots into one clean class. *)
let detach_lost t q k =
  let first = ref (-1) in
  for i = 0 to k - 1 do
    let x = q.(i) in
    Uf.retire t.uf t.slot.(x);
    let s = uf_fresh t ~rank:(node_rank t x) in
    t.slot.(x) <- s;
    if !first < 0 then first := s else ignore (uf_union t !first s)
  done

(* A new link attached [attach]'s class to the destination's.  A clean
   class is an exact component: one O(α) union plus a bag drain.  A
   dirty class over-approximates — only [attach]'s actual component
   joins, found by a class-guarded BFS; the unreachable remainder keeps
   the old (still dirty) class, repaired if and when it reattaches. *)
let absorb t attach =
  let old_root = Uf.find t.uf t.slot.(attach) in
  if not (Uf.dirty t.uf old_root) then begin
    let droot = uf_union t t.slot.(t.dest) t.slot.(attach) in
    bag_drain_into_heap t droot
  end
  else begin
    t.stamp <- t.stamp + 1;
    let st = t.stamp in
    let q = t.bq_a in
    t.bstamp.(attach) <- st;
    q.(0) <- attach;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let x = q.(!head) in
      incr head;
      for i = 0 to G.Dyn.degree t.adj x - 1 do
        let w = G.Dyn.nbr t.adj x i in
        if t.bstamp.(w) <> st && Uf.find t.uf t.slot.(w) = old_root then begin
          t.bstamp.(w) <- st;
          q.(!tail) <- w;
          incr tail
        end
      done
    done;
    for i = 0 to !tail - 1 do
      let x = q.(i) in
      Uf.retire t.uf t.slot.(x);
      t.slot.(x) <- uf_fresh t ~rank:(node_rank t x);
      ignore (uf_union t t.slot.(t.dest) t.slot.(x))
    done;
    (* Filtered drain: the old class's bag holds sinks from both the
       absorbed component and the remainder — requeue the former, keep
       the latter bagged. *)
    let x = ref t.bag_head.(old_root) in
    t.bag_head.(old_root) <- -1;
    t.bag_tail.(old_root) <- -1;
    while !x >= 0 do
      let nxt = t.bag_next.(!x) in
      t.in_bag.(!x) <- false;
      if is_sink t !x then
        if in_comp t !x then push_if_sink t !x else bag_add t !x;
      x := nxt
    done
  end

(* The component index from the live topology, on the arena reset in
   place: every node back on its own slot, one union per edge, every
   bag empty.  Every class comes back exact and clean. *)
let reindex t =
  Uf.reset t.uf t.n;
  Array.fill t.bag_head 0 (Array.length t.bag_head) (-1);
  Array.fill t.bag_tail 0 (Array.length t.bag_tail) (-1);
  Array.fill t.in_bag 0 t.n false;
  for u = 0 to t.n - 1 do
    t.slot.(u) <- u;
    Uf.set_rank t.uf u (node_rank t u)
  done;
  for u = 0 to t.n - 1 do
    for i = 0 to G.Dyn.degree t.adj u - 1 do
      let w = G.Dyn.nbr t.adj u i in
      if w > u then ignore (uf_union t u w)
    done
  done

(* Compaction: ghosts accumulate one per detached node per split, so
   when the arena outgrows 8n + 64 rebuild it from the live topology
   and re-seed the bags from the current sinks.  Called between
   operations (heap empty). *)
let rebuild_index t =
  t.rebuilds <- t.rebuilds + 1;
  reindex t;
  for u = 0 to t.n - 1 do
    if u <> t.dest && is_sink t u && not (in_comp t u) then bag_add t u
  done

let maybe_rebuild t = if Uf.length t.uf > (8 * t.n) + 64 then rebuild_index t

(* {1 Topology changes} *)

let fail_link t u v =
  if not (mem_edge t u v) then invalid_arg "Maintenance.fail_link: no such link";
  let was_in_comp = in_comp t u in
  G.Dyn.remove_edge t.adj u v;
  (* The lower endpoint loses an incoming edge; the upper one may have
     lost its last outgoing edge and become a sink. *)
  (if compare_heights t u v > 0 then t.in_deg.(v) <- t.in_deg.(v) - 1
   else t.in_deg.(u) <- t.in_deg.(u) - 1);
  invalidate t u;
  invalidate t v;
  push_if_sink t u;
  push_if_sink t v;
  refresh_rank t u;
  refresh_rank t v;
  if not was_in_comp then begin
    (* A detached class may have split — membership becomes an
       over-approximation until the side reattaches. *)
    Uf.mark_dirty t.uf t.slot.(u);
    stabilize t
  end
  else begin
    match split_after_removal t u v with
    | None -> stabilize t
    | Some (q, k) ->
        let lost = ref Node.Set.empty in
        for i = 0 to k - 1 do
          lost := Node.Set.add q.(i) !lost
        done;
        detach_lost t q k;
        ignore (stabilize t);
        maybe_rebuild t;
        Maintenance.Partitioned !lost
  end

let add_link t u v =
  if u = v then invalid_arg "Maintenance.add_link: self-loop";
  if not (mem_node t u && mem_node t v) then
    invalid_arg "Maintenance.add_link: unknown node";
  if mem_edge t u v then invalid_arg "Maintenance.add_link: link already present";
  G.Dyn.add_edge t.adj u v;
  (* Oriented by the current heights: the lower endpoint gains an
     incoming edge, so no sink appears except a previously isolated
     endpoint — the pushes below cover it. *)
  (if compare_heights t u v > 0 then t.in_deg.(v) <- t.in_deg.(v) + 1
   else t.in_deg.(u) <- t.in_deg.(u) + 1);
  invalidate t u;
  invalidate t v;
  push_if_sink t u;
  push_if_sink t v;
  refresh_rank t u;
  refresh_rank t v;
  let du = in_comp t u and dv = in_comp t v in
  if du && not dv then absorb t v
  else if dv && not du then absorb t u
  else if not (du || dv) then ignore (uf_union t t.slot.(u) t.slot.(v));
  ignore (stabilize t);
  maybe_rebuild t

let fail_node t u =
  if u = t.dest then invalid_arg "Maintenance.fail_node: cannot fail the destination";
  if not (mem_node t u) then invalid_arg "Maintenance.fail_node: unknown node";
  (* Sequentially: each removal either keeps [u] attached (cheap
     bidirectional probe), splits off a side (enumerated exactly — its
     nodes accumulate into the lost set, matching the reference's
     before-minus-after component difference), or happens inside an
     already-detached class (dirty mark only).  The last removal always
     strands [u] itself. *)
  let lost = ref Node.Set.empty in
  while G.Dyn.degree t.adj u > 0 do
    let w = G.Dyn.nbr t.adj u 0 in
    G.Dyn.remove_edge t.adj u w;
    if compare_heights t u w > 0 then t.in_deg.(w) <- t.in_deg.(w) - 1;
    invalidate t w;
    push_if_sink t w;
    refresh_rank t w;
    if in_comp t u then begin
      match split_after_removal t u w with
      | None -> ()
      | Some (q, k) ->
          for i = 0 to k - 1 do
            lost := Node.Set.add q.(i) !lost
          done;
          detach_lost t q k
    end
    else Uf.mark_dirty t.uf t.slot.(u)
  done;
  t.in_deg.(u) <- 0;
  invalidate t u;
  refresh_rank t u;
  if Node.Set.is_empty !lost then begin
    let r = stabilize t in
    maybe_rebuild t;
    r
  end
  else begin
    ignore (stabilize t);
    maybe_rebuild t;
    Maintenance.Partitioned !lost
  end

(* {1 Construction} *)

(* The seeding core of [create] and [reroot].  [rank] is a topological
   order of the orientation on [t.adj]; heights are seeded from it
   exactly as the reference seeds them from its embedding, so that
   orientation becomes the height order.  Everything else — in-degrees,
   component index, next-hop cache, counters — is derived or reset in
   place, and the session stabilizes. *)
let seed t rank =
  let n = t.n in
  for u = 0 to n - 1 do
    match t.rule with
    | Maintenance.Partial_reversal ->
        t.ha.(u) <- 0;
        t.hb.(u) <- -rank.(u)
    | Maintenance.Full_reversal ->
        t.ha.(u) <- n - rank.(u);
        t.hb.(u) <- 0
  done;
  recount_in_degrees t;
  reindex t;
  t.rebuilds <- 0;
  Array.fill t.nh 0 n nh_unset;
  t.obs <- None;
  t.work <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.invalidations <- 0;
  for u = 0 to n - 1 do
    push_if_sink t u
  done;
  ignore (stabilize t)

(* A configuration enters as its sorted adjacency rows and its
   embedding's ranks. *)
let create rule config =
  let g = config.Config.initial in
  let nodes = Digraph.nodes g in
  let n = Node.Set.cardinal nodes in
  if not (Node.Set.equal nodes (Node.Set.of_range 0 (n - 1))) then
    invalid_arg "Fast_maintenance.create: node ids must be 0..n-1";
  let rows =
    Array.init n (fun u -> Array.of_list (Node.Set.elements (Digraph.neighbors g u)))
  in
  let rank = Array.init n (fun u -> Embedding.rank config.Config.embedding u) in
  let dest = config.Config.destination in
  let core = G.of_rows ~destination:dest ~out:(fun u w -> rank.(u) < rank.(w)) rows in
  let t =
    {
      n;
      rule;
      dest;
      adj = G.Dyn.of_graph core;
      ha = Array.make n 0;
      hb = Array.make n 0;
      in_deg = Array.make n 0;
      uf = Uf.create n;
      slot = Array.make n 0;
      bag_head = Array.make (max n 1) (-1);
      bag_tail = Array.make (max n 1) (-1);
      bag_next = Array.make (max n 1) (-1);
      in_bag = Array.make (max n 1) false;
      rebuilds = 0;
      heap = Array.make n 0;
      heap_len = 0;
      inq = Array.make n false;
      nh = Array.make n nh_unset;
      obs = None;
      obs_buf = Array.make (max n 1) 0;
      work = 0;
      hits = 0;
      misses = 0;
      invalidations = 0;
      queue = Array.make (max n 1) 0;
      seen = Array.make n false;
      bq_a = Array.make (max n 1) 0;
      bq_b = Array.make (max n 1) 0;
      bstamp = Array.make (max n 1) 0;
      stamp = 0;
    }
  in
  seed t rank;
  t

(* {1 Failover} *)

(* One labelling BFS over every node but the destination, which is
   pre-marked so no walk crosses it. *)
let survivor_components t =
  let q = t.queue and seen = t.seen in
  Array.fill seen 0 t.n false;
  seen.(t.dest) <- true;
  let found = ref [] in
  for s = 0 to t.n - 1 do
    if not seen.(s) then begin
      seen.(s) <- true;
      q.(0) <- s;
      let head = ref 0 and tail = ref 1 and top = ref s in
      while !head < !tail do
        let x = q.(!head) in
        incr head;
        if x > !top then top := x;
        for i = 0 to G.Dyn.degree t.adj x - 1 do
          let w = G.Dyn.nbr t.adj x i in
          if not seen.(w) then begin
            seen.(w) <- true;
            q.(!tail) <- w;
            incr tail
          end
        done
      done;
      found := (!tail, !top) :: !found
    end
  done;
  List.rev !found

(* The crash-stripped topology, reseeded in place.  The old
   destination's links go, with in-degrees kept exact, and the rows are
   re-sorted, so the adjacency equals what a fresh [create] would
   build.  The rank replays [Digraph.topological_sort] over the current
   derived orientation exactly: a LIFO stack seeded with the
   zero-in-degree nodes in ascending id (the largest pops first), each
   popped node pushing its newly freed out-neighbours in ascending id.
   The counts, stack and rank live in the BFS and split-probe queues,
   which [seed] does not touch. *)
let reroot t ~leader =
  if (not (mem_node t leader)) || leader = t.dest then
    invalid_arg "Fast_maintenance.reroot: leader must be a node other than the destination";
  let n = t.n and old = t.dest in
  for i = 0 to G.Dyn.degree t.adj old - 1 do
    let w = G.Dyn.nbr t.adj old i in
    if edge_out t old w then t.in_deg.(w) <- t.in_deg.(w) - 1
  done;
  G.Dyn.isolate t.adj old;
  t.in_deg.(old) <- 0;
  G.Dyn.sort_rows t.adj ~scratch:t.queue;
  let indeg = t.queue and stack = t.bq_a and rank = t.bq_b in
  Array.blit t.in_deg 0 indeg 0 n;
  let sp = ref 0 in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then begin
      stack.(!sp) <- u;
      incr sp
    end
  done;
  let next = ref 0 in
  while !sp > 0 do
    decr sp;
    let u = stack.(!sp) in
    rank.(u) <- !next;
    incr next;
    for i = 0 to G.Dyn.degree t.adj u - 1 do
      let w = G.Dyn.nbr t.adj u i in
      if edge_out t u w then begin
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          stack.(!sp) <- w;
          incr sp
        end
      end
    done
  done;
  t.dest <- leader;
  seed t rank

let set_observer t obs = t.obs <- obs

(* {1 Hostile-state adoption} *)

(* Overwrite every height with an arbitrary (adversarial) value and
   self-heal: the derived orientation of any height assignment is
   acyclic, so the ordinary sink worklist converges from it.  Same
   recipe as [create] — recount in-degrees, reseed the worklist — plus
   a full next-hop cache drop, since every cached choice may now be
   stale.  The component index is untouched: heights do not move nodes
   between components. *)
let adopt_heights t f =
  for u = 0 to t.n - 1 do
    let a, b = f u in
    t.ha.(u) <- a;
    t.hb.(u) <- b;
    invalidate t u
  done;
  recount_in_degrees t;
  for u = 0 to t.n - 1 do
    push_if_sink t u
  done;
  (* Spread-aware budget, same formula as the reference: stabilizing
     from an arbitrary assignment costs work proportional to the
     height spread, not just n^2. *)
  let budget =
    if t.n = 0 then Maintenance.adoption_budget ~n:0 ~spread:0
    else begin
      let amin = ref t.ha.(0) and amax = ref t.ha.(0) in
      let bmin = ref t.hb.(0) and bmax = ref t.hb.(0) in
      for u = 1 to t.n - 1 do
        if t.ha.(u) < !amin then amin := t.ha.(u);
        if t.ha.(u) > !amax then amax := t.ha.(u);
        if t.hb.(u) < !bmin then bmin := t.hb.(u);
        if t.hb.(u) > !bmax then bmax := t.hb.(u)
      done;
      Maintenance.adoption_budget ~n:t.n
        ~spread:(!amax - !amin + (!bmax - !bmin))
    end
  in
  stabilize ~budget t

(* {1 Queries} *)

let route t u =
  if not (mem_node t u) then None
  else if u = t.dest then Some [ u ]
  else
    let rec descend v acc fuel =
      if fuel = 0 then None
      else if v = t.dest then Some (List.rev (v :: acc))
      else
        match next_hop t v with
        | -1 -> None
        | w -> descend w (v :: acc) (fuel - 1)
    in
    descend u [] (t.n + 1)

let has_path t src =
  if not (mem_node t src) then false
  else if src = t.dest then true
  else begin
    let q = t.queue and seen = t.seen in
    Array.fill seen 0 t.n false;
    seen.(src) <- true;
    q.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    let found = ref false in
    while (not !found) && !head < !tail do
      let x = q.(!head) in
      incr head;
      for i = 0 to G.Dyn.degree t.adj x - 1 do
        let w = G.Dyn.nbr t.adj x i in
        if compare_heights t x w > 0 && not seen.(w) then begin
          if w = t.dest then found := true;
          seen.(w) <- true;
          q.(!tail) <- w;
          incr tail
        end
      done
    done;
    !found
  end

(* Every node the destination's component can still route from: the
   backward closure of the destination along directed edges. *)
let reaches_destination t =
  let q = t.queue and seen = t.seen in
  Array.fill seen 0 t.n false;
  seen.(t.dest) <- true;
  q.(0) <- t.dest;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let x = q.(!head) in
    incr head;
    for i = 0 to G.Dyn.degree t.adj x - 1 do
      let w = G.Dyn.nbr t.adj x i in
      if compare_heights t w x > 0 && not seen.(w) then begin
        seen.(w) <- true;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  Array.copy seen

let is_destination_oriented t =
  let reach = reaches_destination t in
  let ok = ref true in
  for u = 0 to t.n - 1 do
    if in_comp t u && u <> t.dest && not reach.(u) then ok := false
  done;
  !ok

let graph t =
  let g = ref (Digraph.of_directed_edges []) in
  for u = 0 to t.n - 1 do
    g := Digraph.add_node !g u
  done;
  for u = 0 to t.n - 1 do
    for i = 0 to G.Dyn.degree t.adj u - 1 do
      let w = G.Dyn.nbr t.adj u i in
      if compare_heights t u w > 0 then g := Digraph.add_directed_edge !g u w
    done
  done;
  !g

(* {1 Self-check} *)

(* Cross-check the component index against ground truth: a full
   component labelling of the current topology.  The destination's
   class must be exact; a clean class must be exactly one component; a
   dirty class may over-approximate but no single component may
   straddle two classes (every edge's endpoints share a class); sizes
   must match the live-member counts; and the bag structure must
   account for exactly the pending detached sinks. *)
let uf_consistent t seen dest_tail =
  let ok = ref true in
  (* Destination-class exactness. *)
  if dest_tail <> Uf.size t.uf t.slot.(t.dest) then ok := false;
  for u = 0 to t.n - 1 do
    if in_comp t u <> seen.(u) then ok := false
  done;
  if Uf.dirty t.uf t.slot.(t.dest) then ok := false;
  (* Full component labelling (fresh BFS over every node). *)
  let label = Array.make (max t.n 1) (-1) in
  let comp_count = Array.make (max t.n 1) 0 in
  let q = t.queue in
  let ncomp = ref 0 in
  for s = 0 to t.n - 1 do
    if label.(s) < 0 then begin
      let c = !ncomp in
      incr ncomp;
      label.(s) <- c;
      q.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = q.(!head) in
        incr head;
        comp_count.(c) <- comp_count.(c) + 1;
        for i = 0 to G.Dyn.degree t.adj x - 1 do
          let w = G.Dyn.nbr t.adj x i in
          if label.(w) < 0 then begin
            label.(w) <- c;
            q.(!tail) <- w;
            incr tail
          end
        done
      done
    end
  done;
  (* Per-class accounting: live counts, one-root-per-component, and
     clean-class exactness. *)
  let root_of_label = Array.make (max !ncomp 1) (-1) in
  let live = Hashtbl.create 64 in
  let witness = Hashtbl.create 64 in
  for u = 0 to t.n - 1 do
    let r = Uf.find t.uf t.slot.(u) in
    Hashtbl.replace live r
      (1 + match Hashtbl.find_opt live r with Some c -> c | None -> 0);
    if not (Hashtbl.mem witness r) then Hashtbl.add witness r u;
    let c = label.(u) in
    if root_of_label.(c) < 0 then root_of_label.(c) <- r
    else if root_of_label.(c) <> r then
      (* Two nodes of one physical component in different classes. *)
      ok := false
  done;
  Hashtbl.iter
    (fun r count ->
      if Uf.size t.uf r <> count then ok := false;
      if not (Uf.dirty t.uf r) then
        (* A clean class is one exact component: its live count equals
           the component count of any member's label. *)
        match Hashtbl.find_opt witness r with
        | Some u when comp_count.(label.(u)) <> count -> ok := false
        | _ -> ())
    live;
  (* Pending-sink accounting: every detached sink is bagged or queued;
     every bag entry belongs to the class whose root holds it; the
     destination's bag is empty; no in_bag flag is orphaned. *)
  for u = 0 to t.n - 1 do
    if
      u <> t.dest
      && is_sink t u
      && (not (in_comp t u))
      && (not t.in_bag.(u))
      && not t.inq.(u)
    then ok := false
  done;
  if t.bag_head.(Uf.find t.uf t.slot.(t.dest)) >= 0 then ok := false;
  let bagged = ref 0 in
  Hashtbl.iter
    (fun r _ ->
      let x = ref t.bag_head.(r) in
      let steps = ref 0 in
      while !x >= 0 && !steps <= t.n do
        incr steps;
        if (not t.in_bag.(!x)) || Uf.find t.uf t.slot.(!x) <> r then
          ok := false;
        incr bagged;
        x := t.bag_next.(!x)
      done;
      if !steps > t.n then ok := false)
    live;
  let flagged = ref 0 in
  for u = 0 to t.n - 1 do
    if t.in_bag.(u) then incr flagged
  done;
  if !bagged <> !flagged then ok := false;
  !ok

let consistent t =
  let ok = ref true in
  (* In-degrees match a recount of the derived orientation. *)
  for u = 0 to t.n - 1 do
    let incoming = ref 0 in
    for i = 0 to G.Dyn.degree t.adj u - 1 do
      if compare_heights t u (G.Dyn.nbr t.adj u i) < 0 then incr incoming
    done;
    if !incoming <> t.in_deg.(u) then ok := false
  done;
  (* The destination's component from a fresh BFS. *)
  let q = t.queue and seen = t.seen in
  Array.fill seen 0 t.n false;
  seen.(t.dest) <- true;
  q.(0) <- t.dest;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let x = q.(!head) in
    incr head;
    for i = 0 to G.Dyn.degree t.adj x - 1 do
      let w = G.Dyn.nbr t.adj x i in
      if not seen.(w) then begin
        seen.(w) <- true;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  (* [uf_consistent] reuses [t.queue]; [seen] is stable. *)
  if not (uf_consistent t (Array.copy seen) !tail) then ok := false;
  (* A stabilized engine holds no repairable sink. *)
  for u = 0 to t.n - 1 do
    if in_comp t u && u <> t.dest && is_sink t u then ok := false
  done;
  (* No cached next hop is stale. *)
  for u = 0 to t.n - 1 do
    if t.nh.(u) <> nh_unset then begin
      let fresh = match compute_next t u with -1 -> nh_none | w -> w in
      if fresh <> t.nh.(u) then ok := false
    end
  done;
  !ok && is_destination_oriented t
