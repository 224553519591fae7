open Lr_graph
open Linkrev

type rule = Full_reversal | Partial_reversal

type t = {
  rule : rule;
  destination : Node.t;
  mutable heights : Heights.pr_height Node.Map.t;
  mutable graph : Digraph.t;
  mutable work : int;
}

type change_result =
  | Stabilized of { node_steps : int }
  | Partitioned of Node.Set.t

let graph t = t.graph
let rule t = t.rule
let destination t = t.destination
let total_work t = t.work

let dest_component t =
  Undirected.component_of (Digraph.skeleton t.graph) t.destination

(* Only within the destination's component: nodes cut off by
   partitions are not expected to have routes. *)
let is_destination_oriented t =
  Node.Set.subset (dest_component t) (Digraph.reaches t.graph t.destination)

let height t u = Node.Map.find u t.heights
let height_pair t u =
  let h = height t u in
  (h.Heights.pa, h.Heights.pb)

let compare_heights t u v =
  Heights.compare_pr_height (height t u) (height t v)

let descends t u v =
  Digraph.mem_edge t.graph u v
  && Digraph.direction_equal (Digraph.dir t.graph u v) Digraph.Out
  && compare_heights t u v > 0

let raise_height rule cur hs =
  match (rule, hs) with
  | _, [] -> cur
  | Partial_reversal, _ ->
      let min_a = List.fold_left (fun m h -> min m h.Heights.pa) max_int hs in
      let new_a = min_a + 1 in
      let same = List.filter (fun h -> h.Heights.pa = new_a) hs in
      let new_b =
        match same with
        | [] -> cur.Heights.pb
        | _ -> List.fold_left (fun m h -> min m h.Heights.pb) max_int same - 1
      in
      { cur with Heights.pa = new_a; pb = new_b }
  | Full_reversal, _ ->
      let max_a = List.fold_left (fun m h -> max m h.Heights.pa) min_int hs in
      { cur with Heights.pa = max_a + 1; pb = 0 }

let raise_at t u =
  let nbrs = Digraph.neighbors t.graph u in
  raise_height t.rule (height t u) (Node.Set.fold (fun v acc -> height t v :: acc) nbrs [])

(* Re-derive the orientation of [u]'s incident edges from heights. *)
let reorient_at t u =
  let hu = height t u in
  Node.Set.iter
    (fun v ->
      let hv = height t v in
      let d =
        if Heights.compare_pr_height hu hv > 0 then Digraph.Out else Digraph.In
      in
      t.graph <- Digraph.set_dir t.graph u v d)
    (Digraph.neighbors t.graph u)

(* Run reversals inside [comp], the destination's component, until no
   sink other than the destination remains there. *)
let stabilize_within t comp ~budget =
  let steps = ref 0 in
  (* First (minimum-id) non-destination sink.  [iter] visits the set
     ascending, and raising stops the scan at the first hit — the old
     [fold] kept walking the whole component after finding one. *)
  let exception Found of Node.t in
  let find_sink () =
    match
      Node.Set.iter
        (fun u ->
          if (not (Node.equal u t.destination)) && Digraph.is_sink t.graph u
          then raise (Found u))
        comp
    with
    | () -> None
    | exception Found u -> Some u
  in
  let rec loop () =
    if !steps > budget then
      failwith "Maintenance.stabilize: budget exceeded (bug)"
    else
      match find_sink () with
      | None -> ()
      | Some u ->
          t.heights <- Node.Map.add u (raise_at t u) t.heights;
          reorient_at t u;
          incr steps;
          loop ()
  in
  loop ();
  t.work <- t.work + !steps;
  Stabilized { node_steps = !steps }

let stabilize t =
  let comp = dest_component t in
  let n = Node.Set.cardinal comp in
  stabilize_within t comp ~budget:((4 * n * n) + 1000)

(* Embedding rank [r] becomes [(0, -r)] under PR and [(n - r, 0)] under
   FR: either way a node is higher than every node right of it, and
   [G'_init]'s edges run left to right. *)
let initial_heights rule config =
  let nodes = Config.nodes config in
  let n = Node.Set.cardinal nodes in
  Node.Set.fold
    (fun u m ->
      let r = Embedding.rank config.Config.embedding u in
      let pa, pb = match rule with Partial_reversal -> (0, -r) | Full_reversal -> (n - r, 0) in
      Node.Map.add u { Heights.pa; pb; pid = u } m)
    nodes Node.Map.empty

let of_heights rule graph ~destination heights =
  { rule; destination; heights; graph; work = 0 }

let create rule config =
  let t =
    of_heights rule config.Config.initial ~destination:config.Config.destination
      (initial_heights rule config)
  in
  ignore (stabilize t);
  t

let route t u =
  if Node.equal u t.destination then Some [ u ]
  else
    let rec descend v acc fuel =
      if fuel = 0 then None
      else if Node.equal v t.destination then Some (List.rev (v :: acc))
      else
        let outs = Digraph.out_neighbors t.graph v in
        if Node.Set.is_empty outs then None
        else
          (* Steepest descent: the lowest out-neighbour. *)
          let next =
            Node.Set.fold
              (fun w best ->
                match best with
                | None -> Some w
                | Some b ->
                    if
                      Heights.compare_pr_height (height t w) (height t b) < 0
                    then Some w
                    else best)
              outs None
          in
          match next with
          | None -> None
          | Some w -> descend w (v :: acc) (fuel - 1)
    in
    descend u [] (Digraph.num_nodes t.graph + 1)

let fail_link t u v =
  if not (Digraph.mem_edge t.graph u v) then
    invalid_arg "Maintenance.fail_link: no such link";
  let before = dest_component t in
  t.graph <- Digraph.remove_edge t.graph u v;
  let after = dest_component t in
  let lost = Node.Set.diff before after in
  if Node.Set.is_empty lost then stabilize t
  else begin
    (* The destination's side may still need repair. *)
    ignore (stabilize t);
    Partitioned lost
  end

let add_link t u v =
  if Digraph.mem_edge t.graph u v then
    invalid_arg "Maintenance.add_link: link already present";
  if not (Node.Set.mem u (Digraph.nodes t.graph) && Node.Set.mem v (Digraph.nodes t.graph))
  then invalid_arg "Maintenance.add_link: unknown node";
  let hu = height t u and hv = height t v in
  if Heights.compare_pr_height hu hv > 0 then
    t.graph <- Digraph.add_directed_edge t.graph u v
  else t.graph <- Digraph.add_directed_edge t.graph v u;
  (* A new link never creates a sink, but it can give cut-off nodes a
     route again; it may also enable pending reversals elsewhere. *)
  ignore (stabilize t)

(* [a + b] for [a, b >= 0] and [hi - lo] for [hi >= lo], saturating at
   [max_int] instead of wrapping: a flipped high bit puts heights near
   [±2^61]. *)
let sat_add a b = if a > max_int - b then max_int else a + b
let sat_sub hi lo = if lo < 0 && hi > max_int + lo then max_int else hi - lo

let adoption_budget ~n ~spread =
  let w = sat_add n spread in
  if n > 0 && w > (max_int - 1000) / (4 * n) then max_int
  else (4 * n * w) + 1000

(* Height spread of an assignment: how far the adopted values range on
   each coordinate.  Work to stabilize from an arbitrary assignment
   grows with the spread (a node's [pa] climbs by at least one per
   reversal toward the assignment's ceiling), so the adoption budget
   scales with it — reducing to the ordinary O(n^2) budget when the
   spread is O(n). *)
let height_spread heights =
  let amin = ref max_int and amax = ref min_int in
  let bmin = ref max_int and bmax = ref min_int in
  Seq.iter
    (fun (a, b) ->
      if a < !amin then amin := a;
      if a > !amax then amax := a;
      if b < !bmin then bmin := b;
      if b > !bmax then bmax := b)
    heights;
  if !amax < !amin then 0
  else sat_add (sat_sub !amax !amin) (sat_sub !bmax !bmin)

(* Overwrite every height with an arbitrary (adversarial) assignment
   and self-heal.  Heights are a total order, so the re-derived
   orientation is acyclic whatever [f] returns, and the ordinary
   stabilization loop converges from it.  Mirror of
   {!Fast_maintenance.adopt_heights} — the chaos differential oracle
   depends on both engines adopting identically. *)
let adopt_heights t f =
  t.heights <-
    Node.Set.fold
      (fun u m ->
        let pa, pb = f u in
        Node.Map.add u { Heights.pa; pb; pid = u } m)
      (Digraph.nodes t.graph) Node.Map.empty;
  (* Re-derive every edge's orientation from the adopted heights.
     Visiting both endpoints sets each edge twice, consistently. *)
  Node.Set.iter (reorient_at t) (Digraph.nodes t.graph);
  let spread =
    height_spread
      (Seq.map
         (fun (_, h) -> (h.Heights.pa, h.Heights.pb))
         (Node.Map.to_seq t.heights))
  in
  stabilize_within t (dest_component t)
    ~budget:(adoption_budget ~n:(Node.Set.cardinal (Digraph.nodes t.graph)) ~spread)

let fail_node t u =
  if Node.equal u t.destination then
    invalid_arg "Maintenance.fail_node: cannot fail the destination";
  let before = dest_component t in
  t.graph <- Digraph.isolate t.graph u;
  let after = dest_component t in
  let lost = Node.Set.diff before after in
  if Node.Set.is_empty lost then stabilize t
  else begin
    ignore (stabilize t);
    Partitioned lost
  end
