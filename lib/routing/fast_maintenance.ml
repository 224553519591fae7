open Lr_graph
open Linkrev
module G = Lr_fast.Fast_graph

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
  (* Component index: [comp.(u)] iff [u] is connected to the
     destination, exact at all times, and [comp_size] counts the marked
     nodes.  Repair never enters a cut-off side, so no other component
     fact is kept. *)
  comp : bool array;
  mutable comp_size : int;
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
let index_stats t = { slots = t.n; rebuilds = 0 }

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

let in_dest_component t u = mem_node t u && t.comp.(u)
let component_size t = t.comp_size

(* Mark the destination's component in [mark] (cleared first) by BFS
   over [t.queue]; answers its size.  [seed] labels [comp] with it and
   [consistent] checks [comp] against it. *)
let label_dest_component t mark =
  let q = t.queue in
  Array.fill mark 0 t.n false;
  mark.(t.dest) <- true;
  q.(0) <- t.dest;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let x = q.(!head) in
    incr head;
    for i = 0 to G.Dyn.degree t.adj x - 1 do
      let w = G.Dyn.nbr t.adj x i in
      if not mark.(w) then begin
        mark.(w) <- true;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

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

(* The minimum-id valid sink, or -1: exactly the node the reference's
   ascending-order component scan would select.  A popped sink outside
   the destination's component is dropped: the link that reattaches its
   side queues it again (see [attach]). *)
let rec pop_sink t =
  if t.heap_len = 0 then -1
  else
    let u = heap_pop t in
    if u <> t.dest && t.comp.(u) && is_sink t u then u else pop_sink t

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
   from inside the destination's component.  Expands one node per side
   per round, so a reconnection is found in O(min side) and a split
   costs the smaller side plus the lost side.  Answers [None] when the
   endpoints are still connected; otherwise [Some (q, k)] where
   [q.(0 .. k-1)] enumerates the side NOT containing the destination —
   exactly the lost set. *)
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

(* Unmark a lost side the probe enumerated and add it to [lost]. *)
let detach t q k lost =
  for i = 0 to k - 1 do
    t.comp.(q.(i)) <- false;
    lost := Node.Set.add q.(i) !lost
  done;
  t.comp_size <- t.comp_size - k

(* A new link joined [x]'s side to the destination's component.  The
   link is the side's only way in, so a BFS from [x] through unmarked
   nodes labels exactly the side; its sinks, left unrepaired while it
   was cut off, are queued as it goes. *)
let attach t x =
  let q = t.bq_a in
  t.comp.(x) <- true;
  q.(0) <- x;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let y = q.(!head) in
    incr head;
    push_if_sink t y;
    for i = 0 to G.Dyn.degree t.adj y - 1 do
      let w = G.Dyn.nbr t.adj y i in
      if not t.comp.(w) then begin
        t.comp.(w) <- true;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  t.comp_size <- t.comp_size + !tail

(* {1 Topology changes} *)

let fail_link t u v =
  if not (mem_edge t u v) then invalid_arg "Maintenance.fail_link: no such link";
  G.Dyn.remove_edge t.adj u v;
  (* The lower endpoint loses an incoming edge; the upper one may have
     lost its last outgoing edge and become a sink. *)
  (if compare_heights t u v > 0 then t.in_deg.(v) <- t.in_deg.(v) - 1
   else t.in_deg.(u) <- t.in_deg.(u) - 1);
  invalidate t u;
  invalidate t v;
  push_if_sink t u;
  push_if_sink t v;
  (* A removal inside a cut-off side changes no membership bit. *)
  if not t.comp.(u) then stabilize t
  else
    match split_after_removal t u v with
    | None -> stabilize t
    | Some (q, k) ->
        let lost = ref Node.Set.empty in
        detach t q k lost;
        ignore (stabilize t);
        Maintenance.Partitioned !lost

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
  if t.comp.(u) && not t.comp.(v) then attach t v
  else if t.comp.(v) && not t.comp.(u) then attach t u;
  ignore (stabilize t)

let fail_node t u =
  if u = t.dest then invalid_arg "Maintenance.fail_node: cannot fail the destination";
  if not (mem_node t u) then invalid_arg "Maintenance.fail_node: unknown node";
  (* Sequentially: each removal either keeps [u] attached (cheap
     bidirectional probe), splits off a side (enumerated exactly — its
     nodes accumulate into the lost set, matching the reference's
     before-minus-after component difference), or happens inside an
     already cut-off side (nothing to do).  The last removal always
     strands [u] itself. *)
  let lost = ref Node.Set.empty in
  while G.Dyn.degree t.adj u > 0 do
    let w = G.Dyn.nbr t.adj u 0 in
    G.Dyn.remove_edge t.adj u w;
    if compare_heights t u w > 0 then t.in_deg.(w) <- t.in_deg.(w) - 1;
    invalidate t w;
    push_if_sink t w;
    if t.comp.(u) then
      match split_after_removal t u w with
      | None -> ()
      | Some (q, k) -> detach t q k lost
  done;
  t.in_deg.(u) <- 0;
  invalidate t u;
  let r = stabilize t in
  if Node.Set.is_empty !lost then r else Maintenance.Partitioned !lost

(* {1 Construction} *)

(* The seeding core of [create] and [reroot].  [rank] is a topological
   order of the orientation on [t.adj]; heights are seeded from it
   exactly as the reference seeds them from its embedding, so that
   orientation becomes the height order.  Everything else — in-degrees,
   component index, next-hop cache, counters — is derived or reset in
   place, and the session stabilizes.  [reroot] passes [t.bq_b] as
   [rank], so nothing here may write that queue before the height loop
   has read it. *)
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
  t.comp_size <- label_dest_component t t.comp;
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
      comp = Array.make n false;
      comp_size = 0;
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
   The counts, stack and rank live in the BFS and split-probe queues;
   the counts are spent before [seed] runs, and [seed] reads the rank
   before its labelling BFS reuses [t.queue]. *)
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
  let spread =
    Maintenance.height_spread (Seq.init t.n (fun u -> (t.ha.(u), t.hb.(u))))
  in
  stabilize ~budget:(Maintenance.adoption_budget ~n:t.n ~spread) t

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
    if t.comp.(u) && u <> t.dest && not reach.(u) then ok := false
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
  (* The component index matches a fresh BFS from the destination. *)
  if label_dest_component t t.seen <> t.comp_size then ok := false;
  for u = 0 to t.n - 1 do
    if t.comp.(u) <> t.seen.(u) then ok := false;
    (* A stabilized engine holds no repairable sink. *)
    if t.comp.(u) && u <> t.dest && is_sink t u then ok := false
  done;
  (* No cached next hop is stale. *)
  for u = 0 to t.n - 1 do
    if t.nh.(u) <> nh_unset then begin
      let fresh = match compute_next t u with -1 -> nh_none | w -> w in
      if fresh <> t.nh.(u) then ok := false
    end
  done;
  !ok && is_destination_oriented t
