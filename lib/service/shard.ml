open Lr_graph
open Lr_routing

type engine_kind = Fast | Reference

type engine = E_fast of Fast_maintenance.t | E_ref of Maintenance.t

type t = {
  sid : int;
  rule : Maintenance.rule;
  kind : engine_kind;
  packet_queue : int;
  mutable m : engine;
  (* The packet-forwarding plane, created lazily at the first packet op
     from a snapshot of the then-current graph and kept in sync with
     the engine through every subsequent link event.  Seeded from a
     deterministic topological order of that snapshot — never from
     engine internals — so responses stay byte-identical across
     maintenance tiers.  A failover discards it (in-flight packets go
     down with the crashed destination). *)
  mutable plane : Lr_packet.Plane.t option;
  mutable dead : Node.Set.t;
  mutable epoch : int;
  mutable work_base : int;  (* total_work of retired maintenance sessions *)
}

let create ?(engine = Fast) ?(packet_queue = 64) ~rule ~id config =
  if packet_queue < 1 then invalid_arg "Shard.create: packet_queue must be >= 1";
  let m =
    match engine with
    | Fast -> E_fast (Fast_maintenance.create rule config)
    | Reference -> E_ref (Maintenance.create rule config)
  in
  { sid = id; rule; kind = engine; packet_queue; m; plane = None;
    dead = Node.Set.empty; epoch = 0; work_base = 0 }

let id t = t.sid
let engine_kind t = t.kind

let destination t =
  match t.m with
  | E_fast f -> Fast_maintenance.destination f
  | E_ref m -> Maintenance.destination m

let graph t =
  match t.m with
  | E_fast f -> Fast_maintenance.graph f
  | E_ref m -> Maintenance.graph m

let dead t = t.dead
let epoch t = t.epoch

let total_work t =
  t.work_base
  + (match t.m with
    | E_fast f -> Fast_maintenance.total_work f
    | E_ref m -> Maintenance.total_work m)

let cache_stats t =
  match t.m with
  | E_fast f -> Some (Fast_maintenance.cache_stats f)
  | E_ref _ -> None

type outcome = {
  response : Op.response;
  work : int;
  validation_failures : int;
}

let mem_node t u =
  match t.m with
  | E_fast f -> Fast_maintenance.mem_node f u
  | E_ref m -> Node.Set.mem u (Digraph.nodes (Maintenance.graph m))

let mem_edge t u v =
  match t.m with
  | E_fast f -> Fast_maintenance.mem_edge f u v
  | E_ref m -> Digraph.mem_edge (Maintenance.graph m) u v

let edge_out t u v =
  match t.m with
  | E_fast f -> Fast_maintenance.edge_out f u v
  | E_ref m ->
      Digraph.direction_equal (Digraph.dir (Maintenance.graph m) u v) Digraph.Out

let compare_heights t u v =
  match t.m with
  | E_fast f -> Fast_maintenance.compare_heights f u v
  | E_ref m -> Maintenance.compare_heights m u v

let engine_route t src =
  match t.m with
  | E_fast f -> Fast_maintenance.route f src
  | E_ref m -> Maintenance.route m src

(* Undirected component of the destination on the reference tier — the
   oracle path, not the hot one. *)
let ref_dest_component m =
  let g = Maintenance.graph m in
  let rec grow frontier seen =
    if Node.Set.is_empty frontier then seen
    else
      let next =
        Node.Set.fold
          (fun u acc -> Node.Set.union acc (Digraph.neighbors g u))
          frontier Node.Set.empty
      in
      let fresh = Node.Set.diff next seen in
      grow fresh (Node.Set.union seen fresh)
  in
  let d = Node.Set.singleton (Maintenance.destination m) in
  grow d d

let in_dest_component t u =
  match t.m with
  | E_fast f -> Fast_maintenance.in_dest_component f u
  | E_ref m -> mem_node t u && Node.Set.mem u (ref_dest_component m)

let component_size t =
  match t.m with
  | E_fast f -> Fast_maintenance.component_size f
  | E_ref m -> Node.Set.cardinal (ref_dest_component m)

(* Between ops the engine is stabilized, so membership in the
   destination's component coincides with "a directed path exists" —
   the fast tier answers the honesty check in O(α) instead of a BFS. *)
let has_path_to_destination t src =
  match t.m with
  | E_fast f -> Fast_maintenance.in_dest_component f src
  | E_ref m -> Digraph.has_path (Maintenance.graph m) src (Maintenance.destination m)

(* The in-service checker: a path must start at the source, end at the
   destination, and descend strictly in both the orientation and the
   height order at every hop.  Strict height descent rules out loops on
   its own, so a validated path is a witness of acyclicity along the
   route. *)
let path_valid t ~src path =
  let dest = destination t in
  let rec hops = function
    | a :: (b :: _ as rest) ->
        mem_edge t a b
        && edge_out t a b
        && compare_heights t a b > 0
        && hops rest
    | [ last ] -> Node.equal last dest
    | [] -> false
  in
  match path with first :: _ -> Node.equal first src && hops path | [] -> false

let route ~validate t src =
  if not (mem_node t src) then { response = Op.Noop; work = 0; validation_failures = 0 }
  else
    match engine_route t src with
    | Some path ->
        let bad = validate && not (path_valid t ~src path) in
        {
          response = Op.Path path;
          work = 0;
          validation_failures = (if bad then 1 else 0);
        }
    | None ->
        (* An honest No_route means the source really cannot reach the
           destination; a directed path existing despite the refusal is
           an engine bug the validator must surface. *)
        let bad = validate && has_path_to_destination t src in
        { response = Op.No_route; work = 0; validation_failures = (if bad then 1 else 0) }

(* Mirror a link event into the forwarding plane (when one exists): the
   plane's skeleton was snapshotted from the engine's graph and every
   non-noop link op lands on both, so they can never drift. *)
let plane_link_down t u v =
  match t.plane with
  | Some p -> Lr_packet.Plane.remove_link p u v
  | None -> ()

let plane_link_up t u v =
  match t.plane with
  | Some p -> Lr_packet.Plane.add_link p u v
  | None -> ()

let link_down t u v =
  if Node.equal u v || (not (mem_node t u)) || (not (mem_node t v))
     || not (mem_edge t u v)
  then { response = Op.Noop; work = 0; validation_failures = 0 }
  else begin
    plane_link_down t u v;
    let before = total_work t in
    let result =
      match t.m with
      | E_fast f -> Fast_maintenance.fail_link f u v
      | E_ref m -> Maintenance.fail_link m u v
    in
    (* [Partitioned] still stabilizes the destination's side; the work
       delta covers both branches. *)
    let work = total_work t - before in
    match result with
    | Maintenance.Stabilized { node_steps; _ } ->
        { response = Op.Repaired { node_steps }; work; validation_failures = 0 }
    | Maintenance.Partitioned lost ->
        { response = Op.Cut { lost = Node.Set.cardinal lost }; work;
          validation_failures = 0 }
  end

let link_up t u v =
  if Node.equal u v || (not (mem_node t u)) || (not (mem_node t v))
     || mem_edge t u v
     || Node.Set.mem u t.dead || Node.Set.mem v t.dead
  then { response = Op.Noop; work = 0; validation_failures = 0 }
  else begin
    plane_link_up t u v;
    let before = total_work t in
    (match t.m with
    | E_fast f -> Fast_maintenance.add_link f u v
    | E_ref m -> Maintenance.add_link m u v);
    let node_steps = total_work t - before in
    { response = Op.Linked { node_steps }; work = node_steps;
      validation_failures = 0 }
  end

(* The failover election, one rule for both tiers: among the
   surviving components [(size, leader)] whose leader (the component's
   greatest id) is live, the most members win, then the greater leader
   id.  Both keys are compared explicitly (ints and [Node.compare]) so
   the order can never silently drift with either representation. *)
let better (size, leader) (best_size, best_leader) =
  match Int.compare size best_size with
  | 0 -> Node.compare leader best_leader > 0
  | c -> c > 0

let elect ~live components =
  List.fold_left
    (fun best ((_, leader) as c) ->
      match best with
      | _ when not (live leader) -> best
      | Some b when not (better c b) -> best
      | _ -> Some c)
    None components
  |> Option.map snd

(* The reference tier's election input: the components of the
   crash-stripped skeleton, less the isolated old destination. *)
let ref_survivors stripped old =
  Undirected.connected_components (Digraph.skeleton stripped)
  |> List.filter_map (fun c ->
         if Node.Set.mem old c then None
         else Some (Node.Set.cardinal c, Node.Set.max_elt c))

let crash_destination t =
  let old = destination t in
  let live u = not (Node.Set.mem u t.dead) in
  let noop = { response = Op.Noop; work = 0; validation_failures = 0 } in
  let adopt leader m =
    t.work_base <- total_work t;
    t.dead <- Node.Set.add old t.dead;
    t.m <- m;
    t.plane <- None;
    t.epoch <- t.epoch + 1;
    (* The adoption work is the fresh session's stabilization — the
       reversals actually performed on this shard's state. *)
    let node_steps = total_work t - t.work_base in
    { response = Op.New_destination { leader; node_steps }; work = node_steps;
      validation_failures = 0 }
  in
  match t.m with
  | E_fast f -> (
      match elect ~live (Fast_maintenance.survivor_components f) with
      | None -> noop
      | Some leader -> adopt leader (E_fast (Fast_maintenance.reroot f ~leader)))
  | E_ref m -> (
      let g = Maintenance.graph m in
      let stripped =
        Node.Set.fold (fun v g -> Digraph.remove_edge g old v) (Digraph.neighbors g old) g
      in
      match elect ~live (ref_survivors stripped old) with
      | None -> noop
      | Some leader -> (
          match Linkrev.Config.make stripped ~destination:leader with
          | Error _ ->
              (* The serving graph went inconsistent — count it, don't
                 crash. *)
              { noop with validation_failures = 1 }
          | Ok config -> adopt leader (E_ref (Maintenance.create t.rule config))))

(* The shard's forwarding plane, snapshotting the current graph and
   destination on first use.  [Config.make] failing means the serving
   graph went inconsistent — surfaced as a validation failure, like the
   crash path. *)
let ensure_plane t =
  match t.plane with
  | Some p -> Some p
  | None -> (
      match Linkrev.Config.make (graph t) ~destination:(destination t) with
      | Error _ -> None
      | Ok config ->
          let p = Lr_packet.Plane.create ~qcap:t.packet_queue config in
          t.plane <- Some p;
          Some p)

let inject t src count =
  if count < 0 || not (mem_node t src) then
    { response = Op.Noop; work = 0; validation_failures = 0 }
  else
    match ensure_plane t with
    | None -> { response = Op.Noop; work = 0; validation_failures = 1 }
    | Some p ->
        let accepted, dropped = Lr_packet.Plane.inject p ~src ~count in
        { response = Op.Injected { accepted; dropped }; work = 0;
          validation_failures = 0 }

let forward t slots =
  if slots < 1 then { response = Op.Noop; work = 0; validation_failures = 0 }
  else
    match ensure_plane t with
    | None -> { response = Op.Noop; work = 0; validation_failures = 1 }
    | Some p ->
        let before = Lr_packet.Plane.counters p in
        for _ = 1 to slots do
          ignore (Lr_packet.Plane.slot p : Lr_packet.Plane.slot_outcome)
        done;
        let after = Lr_packet.Plane.counters p in
        {
          response =
            Op.Forwarded
              {
                delivered = after.Lr_packet.Plane.delivered - before.Lr_packet.Plane.delivered;
                reversals = after.Lr_packet.Plane.reversals - before.Lr_packet.Plane.reversals;
                queued = Lr_packet.Plane.queued p;
                hops = after.Lr_packet.Plane.hops_sum - before.Lr_packet.Plane.hops_sum;
              };
          work = 0;
          validation_failures = 0;
        }

let plane_queued t =
  match t.plane with Some p -> Lr_packet.Plane.queued p | None -> 0

let consistent t =
  match t.m with
  | E_fast f ->
      (* Acyclicity is structural for the fast engine (orientation is
         the strict height order); [consistent] additionally recounts
         its incremental state and checks the cache for staleness. *)
      Fast_maintenance.consistent f
  | E_ref m ->
      Digraph.is_acyclic (Maintenance.graph m)
      && Maintenance.is_destination_oriented m

(* {1 Chaos faults} *)

(* The canonical hostile height assignment of a [Corrupt] fault: a pure
   function of [(seed, node)], so the fast and reference engines of a
   differential pair adopt byte-identical corrupted states.  Magnitude
   bounds both components' absolute value. *)
let hostile_height ~seed ~magnitude u =
  let st = Random.State.make [| 0x6368616f; seed; u |] in
  let m = if magnitude < 1 then 1 else magnitude in
  let pa = Random.State.int st ((2 * m) + 1) - m in
  let pb = Random.State.int st ((2 * m) + 1) - m in
  (pa, pb)

let height_pair t u =
  match t.m with
  | E_fast f -> Fast_maintenance.height f u
  | E_ref m -> Maintenance.height_pair m u

let adopt t f =
  match t.m with
  | E_fast fm -> Fast_maintenance.adopt_heights fm f
  | E_ref m -> Maintenance.adopt_heights m f

(* Adopt a corrupted height assignment and report the self-healing
   work.  Validation re-runs the full consistency check afterwards —
   recovery, not just quiescence, is what the chaos SLO is stated
   over. *)
let heal ~validate t f =
  let before = total_work t in
  let result = adopt t f in
  let work = total_work t - before in
  match result with
  | Maintenance.Stabilized { node_steps; _ } ->
      let bad = validate && not (consistent t) in
      { response = Op.Healed { node_steps }; work;
        validation_failures = (if bad then 1 else 0) }
  | Maintenance.Partitioned _ ->
      (* adopt_heights never changes the topology. *)
      assert false

let corrupt ~validate t ~seed ~magnitude =
  if magnitude < 0 then { response = Op.Noop; work = 0; validation_failures = 0 }
  else heal ~validate t (hostile_height ~seed ~magnitude)

let flip_bit ~validate t ~node ~bit =
  if (not (mem_node t node)) || bit < 0 || bit > 61 then
    { response = Op.Noop; work = 0; validation_failures = 0 }
  else
    let pa, pb = height_pair t node in
    let flipped = (pa lxor (1 lsl bit), pb) in
    heal ~validate t (fun u -> if u = node then flipped else height_pair t u)

let apply ?(validate = true) t op =
  match op with
  | Op.Route { src; _ } -> route ~validate t src
  | Op.Link_down { u; v; _ } -> link_down t u v
  | Op.Link_up { u; v; _ } -> link_up t u v
  | Op.Crash_destination _ -> crash_destination t
  | Op.Inject { src; count; _ } -> inject t src count
  | Op.Forward { slots; _ } -> forward t slots
  | Op.Corrupt { seed; magnitude; _ } -> corrupt ~validate t ~seed ~magnitude
  | Op.Flip { node; bit; _ } -> flip_bit ~validate t ~node ~bit
  | Op.Stats -> invalid_arg "Shard.apply: Stats is a dispatcher-level op"
