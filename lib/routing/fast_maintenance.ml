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
  (* Min-id sink worklist: a two-level bitset, 32 ids per word.  Bit
     [u land 31] of [wl.(u lsr 5)] queues [u]; bit [k land 31] of
     [wl_sum.(k lsr 5)] says [wl.(k)] is non-zero; no summary word below
     [wl_lo] is.  Lazily validated — a popped node steps only if it is
     still a non-destination sink inside the destination's component. *)
  wl : int array;
  wl_sum : int array;
  mutable wl_lo : int;
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
  (* Probe scratch: [bq_a] is the probe's and the attach BFS's queue,
     [bq_b] a failed node's upstream neighbours. *)
  bq_a : int array;
  bq_b : int array;
}

let destination t = t.dest
let num_nodes t = t.n
let total_work t = t.work
let mem_node t u = u >= 0 && u < t.n
let mem_edge t u v = G.Dyn.mem_edge t.adj u v
let cache_stats t = { hits = t.hits; misses = t.misses; invalidations = t.invalidations }
let index_stats t = { slots = t.n; rebuilds = 0 }

(* [above ha hb u w]: [u]'s (pa, pb, id) triple is the greater one in
   the order of Heights.compare_pr_height, so the link {u, w} points
   u -> w.  Neighbour loops run it once per entry, so it lives here: a
   call into another library module is never inlined under dune's dev
   profile, which compiles each module -opaque; and it is inlined, as
   is [edge_out], so that no row loop here makes a call per neighbour.
   The arrays are annotated because unannotated ones would make it
   polymorphic, and each comparison a call to the polymorphic compare. *)
let[@inline] above (ha : int array) (hb : int array) u w =
  let a = ha.(u) and a' = ha.(w) in
  a > a' || (a = a' && (let b = hb.(u) and b' = hb.(w) in b > b' || (b = b' && u > w)))

let[@inline] edge_out t u v = above t.ha t.hb u v
let descends t u v = mem_edge t u v && above t.ha t.hb u v
let height t u = (t.ha.(u), t.hb.(u))

let is_sink t u =
  let d = G.Dyn.degree t.adj u in
  d > 0 && t.in_deg.(u) = d

(* [u]'s in-degree recounted from the derived orientation. *)
let count_incoming t u =
  let row = G.Dyn.row t.adj u and ha = t.ha and hb = t.hb in
  let incoming = ref 0 in
  for i = 0 to G.Dyn.degree t.adj u - 1 do
    if above ha hb row.(i) u then incr incoming
  done;
  !incoming

let recount_in_degrees t =
  for u = 0 to t.n - 1 do
    t.in_deg.(u) <- count_incoming t u
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
    let row = G.Dyn.row t.adj x in
    for i = 0 to G.Dyn.degree t.adj x - 1 do
      let w = row.(i) in
      if not mark.(w) then begin
        mark.(w) <- true;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

(* {1 Worklist} *)

(* The index of the lowest set bit of a non-zero 32-bit [x], by de
   Bruijn multiplication with the standard 32-entry table: no branch,
   and the product of a 32-bit power of two and the 27-bit constant fits
   an OCaml int, which is why a word holds 32 ids and not 63. *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let lowest_bit x =
  Char.code (String.unsafe_get debruijn (((x land -x) * 0x077CB531) lsr 27 land 31))

let wl_push t u =
  let k = u lsr 5 in
  let x = t.wl.(k) in
  if x = 0 then begin
    let s = k lsr 5 in
    t.wl_sum.(s) <- t.wl_sum.(s) lor (1 lsl (k land 31));
    if s < t.wl_lo then t.wl_lo <- s
  end;
  t.wl.(k) <- x lor (1 lsl (u land 31))

(* Removes and answers the lowest queued id, or -1 when none is. *)
let wl_pop t =
  let sum = t.wl_sum in
  let s = ref t.wl_lo in
  while !s < Array.length sum && sum.(!s) = 0 do
    incr s
  done;
  t.wl_lo <- !s;
  if !s = Array.length sum then -1
  else begin
    let m = sum.(!s) in
    let k = (!s lsl 5) lor lowest_bit m in
    let x = t.wl.(k) in
    let rest = x land (x - 1) in
    t.wl.(k) <- rest;
    if rest = 0 then sum.(!s) <- m land (m - 1);
    (k lsl 5) lor lowest_bit x
  end

let push_if_sink t u = if u <> t.dest && is_sink t u then wl_push t u

(* The minimum-id valid sink, or -1: exactly the node the reference's
   ascending-order component scan would select.  A popped sink outside
   the destination's component is dropped: the link that reattaches its
   side queues it again (see [attach]). *)
let rec pop_sink t =
  match wl_pop t with
  | -1 -> -1
  | u -> if u <> t.dest && t.comp.(u) && is_sink t u then u else pop_sink t

(* {1 Next-hop cache} *)

let invalidate t u =
  if t.nh.(u) <> nh_unset then begin
    t.nh.(u) <- nh_unset;
    t.invalidations <- t.invalidations + 1
  end

(* Steepest descent: the lowest out-neighbour of [v], or -1. *)
let compute_next t v =
  let row = G.Dyn.row t.adj v and ha = t.ha and hb = t.hb in
  let best = ref (-1) in
  for i = 0 to G.Dyn.degree t.adj v - 1 do
    let w = row.(i) in
    if above ha hb v w && (!best < 0 || above ha hb !best w) then best := w
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

(* {!Maintenance.raise_height} on flat arrays, in one pass over [u]'s
   row.  PR keeps the least [pa] seen, the least [pb] at it, and the
   least [pb] one level above it, if any neighbour is there: when the
   least [pa] drops by exactly one, the old least level becomes the one
   above, and when it drops further, no neighbour seen is above it. *)
let raise_height rule adj (ha : int array) (hb : int array) u =
  let row = G.Dyn.row adj u and d = G.Dyn.degree adj u in
  match rule with
  | Maintenance.Partial_reversal ->
      let min_a = ref 0 and b0 = ref 0 and b1 = ref 0 and at1 = ref false in
      for i = 0 to d - 1 do
        let w = row.(i) in
        let a = ha.(w) and b = hb.(w) in
        if i = 0 || a < !min_a then begin
          at1 := i > 0 && a = !min_a - 1;
          b1 := !b0;
          min_a := a;
          b0 := b
        end
        else if a = !min_a then (if b < !b0 then b0 := b)
        else if a = !min_a + 1 && ((not !at1) || b < !b1) then begin
          b1 := b;
          at1 := true
        end
      done;
      ha.(u) <- !min_a + 1;
      if !at1 then hb.(u) <- !b1 - 1
  | Maintenance.Full_reversal ->
      let max_a = ref min_int in
      for i = 0 to d - 1 do
        let a = ha.(row.(i)) in
        if a > !max_a then max_a := a
      done;
      ha.(u) <- !max_a + 1;
      hb.(u) <- 0

(* One reversal at the sink [u]: raise its height per the rule, then
   one pass over its row drops every neighbour's cache entry ([u] was in
   every neighbour's out-set, being a sink, so any choice may change)
   and, for each neighbour now below [u] — the edge flipped from w -> u
   to u -> w — moves the in-degrees, lists it in [t.obs_buf] in row
   order and queues it if it became a sink.  The height test decides
   the flips, so they are exact for any heights, a raise that wraps
   past [max_int] included. *)
let step t u =
  raise_height t.rule t.adj t.ha t.hb u;
  invalidate t u;
  let row = G.Dyn.row t.adj u and ha = t.ha and hb = t.hb and nh = t.nh in
  let dropped = ref 0 and flipped = ref 0 in
  for i = 0 to G.Dyn.degree t.adj u - 1 do
    let w = row.(i) in
    if nh.(w) <> nh_unset then begin
      nh.(w) <- nh_unset;
      incr dropped
    end;
    if above ha hb u w then begin
      t.in_deg.(w) <- t.in_deg.(w) + 1;
      t.obs_buf.(!flipped) <- w;
      incr flipped;
      push_if_sink t w
    end
  done;
  t.invalidations <- t.invalidations + !dropped;
  t.in_deg.(u) <- t.in_deg.(u) - !flipped;
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

(* After a removal inside the destination's component, is [start]
   still attached?  Between ops every member descends strictly in
   height to the destination (its component's only sink), so a member
   lower than [bound] — the removed link's upper endpoint, or the
   failed node — still reaches it without what was removed.  A BFS
   from [start] over the current links, whose visit marks are the
   cleared membership bits, stops at the first such node and marks
   back what it visited.  If it runs out of nodes instead, [t.bq_a]
   lists exactly the lost side: it stays unmarked and joins [lost]. *)
let probe t start ~bound lost =
  let q = t.bq_a in
  t.comp.(start) <- false;
  q.(0) <- start;
  let head = ref 0 and tail = ref 1 and attached = ref false in
  while (not !attached) && !head < !tail do
    let x = q.(!head) in
    incr head;
    let row = G.Dyn.row t.adj x and d = G.Dyn.degree t.adj x in
    let i = ref 0 in
    while (not !attached) && !i < d do
      let w = row.(!i) in
      incr i;
      if above t.ha t.hb bound w then attached := true
      else if t.comp.(w) then begin
        t.comp.(w) <- false;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  let lost = ref lost in
  for i = 0 to !tail - 1 do
    if !attached then t.comp.(q.(i)) <- true else lost := Node.Set.add q.(i) !lost
  done;
  if not !attached then t.comp_size <- t.comp_size - !tail;
  !lost

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
    let row = G.Dyn.row t.adj y in
    for i = 0 to G.Dyn.degree t.adj y - 1 do
      let w = row.(i) in
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
  let upper, lower = if edge_out t u v then (u, v) else (v, u) in
  t.in_deg.(lower) <- t.in_deg.(lower) - 1;
  invalidate t u;
  invalidate t v;
  push_if_sink t u;
  push_if_sink t v;
  (* The lower endpoint still descends to the destination, and so does
     the upper one while it keeps an out-edge.  A removal inside a
     cut-off side changes no membership bit. *)
  let lost =
    if t.comp.(upper) && G.Dyn.degree t.adj upper = t.in_deg.(upper) then
      probe t upper ~bound:upper Node.Set.empty
    else Node.Set.empty
  in
  let r = stabilize t in
  if Node.Set.is_empty lost then r else Maintenance.Partitioned lost

let add_link t u v =
  if u = v then invalid_arg "Maintenance.add_link: self-loop";
  if not (mem_node t u && mem_node t v) then
    invalid_arg "Maintenance.add_link: unknown node";
  if mem_edge t u v then invalid_arg "Maintenance.add_link: link already present";
  G.Dyn.add_edge t.adj u v;
  (* Oriented by the current heights: the lower endpoint gains an
     incoming edge, so no sink appears except a previously isolated
     endpoint — the pushes below cover it. *)
  (if edge_out t u v then t.in_deg.(v) <- t.in_deg.(v) + 1
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
  (* Strip [u], keeping its upstream neighbours in [t.bq_b]: the
     downstream ones still descend to the destination below [u].  A
     removal swap-deletes within the row, which stays the same array. *)
  let row = G.Dyn.row t.adj u and ups = ref 0 in
  while G.Dyn.degree t.adj u > 0 do
    let w = row.(0) in
    G.Dyn.remove_edge t.adj u w;
    if edge_out t u w then t.in_deg.(w) <- t.in_deg.(w) - 1
    else begin
      t.bq_b.(!ups) <- w;
      incr ups
    end;
    invalidate t w;
    push_if_sink t w
  done;
  t.in_deg.(u) <- 0;
  invalidate t u;
  (* [u] is lost with every side its upstream neighbours cannot leave.
     A node between [u] and a neighbour may have descended through [u],
     so only one lower than [u] proves the neighbour attached.  A
     neighbour an earlier probe unmarked lies on that probe's lost side
     already. *)
  let lost = ref Node.Set.empty in
  if t.comp.(u) then begin
    t.comp.(u) <- false;
    t.comp_size <- t.comp_size - 1;
    lost := Node.Set.singleton u;
    for i = 0 to !ups - 1 do
      let w = t.bq_b.(i) in
      if t.comp.(w) then lost := probe t w ~bound:u !lost
    done
  end;
  let r = stabilize t in
  if Node.Set.is_empty !lost then r else Maintenance.Partitioned !lost

(* {1 Construction} *)

(* The seeding core of [create] and [reroot].  [rank] is a topological
   order of the orientation wanted on [t.adj]; heights are seeded from
   it exactly as the reference seeds them from its embedding, so that
   orientation becomes the height order.  Everything else — in-degrees,
   component index, next-hop cache, counters — is derived or reset in
   place, and the session stabilizes.  Both callers pass [t.bq_b] as
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

(* A configuration enters as its sorted adjacency rows, which the
   dynamic graph adopts, and its embedding's ranks, written into
   [t.bq_b] as [reroot] writes its own. *)
let create rule config =
  let rows =
    try Undirected.rows (Digraph.skeleton config.Config.initial)
    with Invalid_argument _ -> invalid_arg "Fast_maintenance.create: node ids must be 0..n-1"
  in
  let n = Array.length rows in
  let words = (n + 31) / 32 in
  let t =
    {
      n;
      rule;
      dest = config.Config.destination;
      adj = G.Dyn.of_rows rows;
      ha = Array.make n 0;
      hb = Array.make n 0;
      in_deg = Array.make n 0;
      comp = Array.make n false;
      comp_size = 0;
      wl = Array.make words 0;
      wl_sum = Array.make ((words + 31) / 32) 0;
      wl_lo = 0;
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
    }
  in
  List.iteri (fun r u -> t.bq_b.(u) <- r) (Embedding.order config.Config.embedding);
  seed t t.bq_b;
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
        let row = G.Dyn.row t.adj x in
        for i = 0 to G.Dyn.degree t.adj x - 1 do
          let w = row.(i) in
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
   The counts, stack and rank live in the BFS and probe queues; the
   counts are spent before [seed] runs, and [seed] reads the rank
   before its labelling BFS reuses [t.queue]. *)
let reroot t ~leader =
  if (not (mem_node t leader)) || leader = t.dest then
    invalid_arg "Fast_maintenance.reroot: leader must be a node other than the destination";
  let n = t.n and old = t.dest in
  let row = G.Dyn.row t.adj old in
  for i = 0 to G.Dyn.degree t.adj old - 1 do
    let w = row.(i) in
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
    let row = G.Dyn.row t.adj u in
    for i = 0 to G.Dyn.degree t.adj u - 1 do
      let w = row.(i) in
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

(* The next hops are walked into [t.queue] and the path is consed from
   its end, so the list is built once.  Heights fall strictly along
   next hops, so a walk repeats no node and the bound [n] never cuts a
   path short. *)
let route t u =
  if not (mem_node t u) then None
  else begin
    let q = t.queue in
    let len = ref 0 and v = ref u in
    while !v >= 0 && !v <> t.dest && !len < t.n do
      q.(!len) <- !v;
      incr len;
      v := next_hop t !v
    done;
    if !v <> t.dest then None
    else begin
      let path = ref [ t.dest ] in
      for i = !len - 1 downto 0 do
        path := q.(i) :: !path
      done;
      Some !path
    end
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
    let row = G.Dyn.row t.adj x in
    for i = 0 to G.Dyn.degree t.adj x - 1 do
      let w = row.(i) in
      if edge_out t w x && not seen.(w) then begin
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
    let row = G.Dyn.row t.adj u in
    for i = 0 to G.Dyn.degree t.adj u - 1 do
      let w = row.(i) in
      if edge_out t u w then g := Digraph.add_directed_edge !g u w
    done
  done;
  !g

(* {1 Self-check} *)

let consistent t =
  let ok = ref true in
  (* In-degrees match a recount of the derived orientation. *)
  for u = 0 to t.n - 1 do
    if count_incoming t u <> t.in_deg.(u) then ok := false
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
