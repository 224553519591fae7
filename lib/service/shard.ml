open Lr_graph
open Lr_routing

type engine_kind = Fast | Reference

(* What a shard asks of its maintenance tier.  [Fast_maintenance]
   answers it directly; [Maintenance] answers it through the oracle
   glue of [Reference_tier].  A shard picks its tier once, in
   [create], and every op after that runs the same code on either. *)
module type ENGINE = sig
  type t

  val create : Maintenance.rule -> Linkrev.Config.t -> t
  val destination : t -> Node.t
  val graph : t -> Digraph.t
  val total_work : t -> int
  val cache_stats : t -> Fast_maintenance.cache_stats option
  val mem_node : t -> Node.t -> bool
  val mem_edge : t -> Node.t -> Node.t -> bool

  (* [descends m a b]: a–b is a link, oriented a -> b, and a is strictly
     higher than b.  The one check of a route hop. *)
  val descends : t -> Node.t -> Node.t -> bool

  val height : t -> Node.t -> int * int
  val route : t -> Node.t -> Node.t list option

  (* A directed path from the node to the destination exists: the
     honesty check behind a [No_route] answer. *)
  val reaches_destination : t -> Node.t -> bool

  val in_dest_component : t -> Node.t -> bool
  val fail_link : t -> Node.t -> Node.t -> Maintenance.change_result
  val add_link : t -> Node.t -> Node.t -> unit
  val adopt_heights : t -> (Node.t -> int * int) -> Maintenance.change_result

  (* The components a destination crash leaves, as [(size, greatest
     id)], and the session toward the elected leader on the
     crash-stripped graph — [None] when that graph is no valid
     configuration.  [reroot] may build that session in [t] itself and
     return it, so whatever the caller still needs of the old session
     must be read before the call. *)
  val survivor_components : t -> (int * Node.t) list
  val reroot : t -> leader:Node.t -> t option

  (* Acyclic, and the destination's component destination-oriented. *)
  val consistent : t -> bool
end

(* The fast tier answers the signature directly.  Its acyclicity is
   structural (orientation is the strict height order), so its
   [consistent] recounts the incremental state and checks the route
   cache for staleness instead. *)
module Fast_tier = struct
  include Fast_maintenance

  let cache_stats t = Some (cache_stats t)

  (* Between ops the engine is stabilized, so membership in the
     destination's component coincides with "a directed path exists" —
     one array read instead of a BFS. *)
  let reaches_destination = in_dest_component

  (* In place: the session returned is [t] itself. *)
  let reroot t ~leader =
    reroot t ~leader;
    Some t
end

(* The persistent reference tier, kept as the differential oracle.  The
   glue below computes on persistent graphs what the fast tier keeps
   in arrays; none of it is on the fast tier's path. *)
module Reference_tier = struct
  module M = Maintenance

  type t = M.t

  let create = M.create
  let destination = M.destination
  let graph = M.graph
  let total_work = M.total_work
  let cache_stats _ = None
  let mem_node m u = Node.Set.mem u (Digraph.nodes (M.graph m))
  let mem_edge m u v = Digraph.mem_edge (M.graph m) u v
  let descends = M.descends
  let height = M.height_pair
  let route = M.route
  let reaches_destination m src = Digraph.has_path (M.graph m) src (M.destination m)

  let in_dest_component m u = mem_node m u && Node.Set.mem u (M.dest_component m)
  let fail_link = M.fail_link
  let add_link = M.add_link
  let adopt_heights = M.adopt_heights

  (* The graph with the destination crashed. *)
  let stripped m = Digraph.isolate (M.graph m) (M.destination m)

  (* The components of the crash-stripped skeleton, less the isolated
     old destination. *)
  let survivor_components m =
    let old = M.destination m in
    Undirected.connected_components (Digraph.skeleton (stripped m))
    |> List.filter_map (fun c ->
           if Node.Set.mem old c then None
           else Some (Node.Set.cardinal c, Node.Set.max_elt c))

  let reroot m ~leader =
    match Linkrev.Config.make (stripped m) ~destination:leader with
    | Error _ -> None
    | Ok config -> Some (M.create (M.rule m) config)

  let consistent m = Digraph.is_acyclic (M.graph m) && M.is_destination_oriented m
end

(* Packed once here, so every shard shares one module block per tier. *)
let fast_tier : (module ENGINE with type t = Fast_maintenance.t) = (module Fast_tier)
let reference_tier : (module ENGINE with type t = Maintenance.t) = (module Reference_tier)

type t =
  | Shard : {
      engine : (module ENGINE with type t = 'e);
      mutable m : 'e;
      (* The packet-forwarding plane, created lazily at the first packet
         op from a snapshot of the then-current graph and kept in sync
         with the engine through every subsequent link event.  Seeded
         from a deterministic topological order of that snapshot —
         never from engine internals — so responses stay byte-identical
         across maintenance tiers.  A failover discards it (in-flight
         packets go down with the crashed destination). *)
      mutable plane : Lr_packet.Plane.t option;
      mutable dead : Node.Set.t;
      mutable epoch : int;
      mutable work_base : int;  (* total_work of retired maintenance sessions *)
    }
      -> t

let make (type e) (engine : (module ENGINE with type t = e)) ~rule config =
  let module E = (val engine) in
  Shard
    { engine; m = E.create rule config; plane = None;
      dead = Node.Set.empty; epoch = 0; work_base = 0 }

let create ?(engine = Fast) ~rule ~id:_ config =
  match engine with
  | Fast -> make fast_tier ~rule config
  | Reference -> make reference_tier ~rule config

let destination (Shard s) =
  let module E = (val s.engine) in
  E.destination s.m

let graph (Shard s) =
  let module E = (val s.engine) in
  E.graph s.m

let dead (Shard s) = s.dead
let epoch (Shard s) = s.epoch

let total_work (Shard s) =
  let module E = (val s.engine) in
  s.work_base + E.total_work s.m

let cache_stats (Shard s) =
  let module E = (val s.engine) in
  E.cache_stats s.m

let in_dest_component (Shard s) u =
  let module E = (val s.engine) in
  E.in_dest_component s.m u

let consistent (Shard s) =
  let module E = (val s.engine) in
  E.consistent s.m

type outcome = {
  response : Op.response;
  work : int;
  validation_failures : int;
}

let noop = { response = Op.Noop; work = 0; validation_failures = 0 }

(* The in-service checker: a path must start at the source, end at the
   destination, and descend at every hop ([E.descends]: a link, oriented
   down it, strictly down the height order).  Strict height descent
   rules out loops on its own, so a validated path is a witness of
   acyclicity along the route.  The walk is a top-level function: a
   local one would allocate a closure on every route. *)
let rec descends_to :
    type e. (module ENGINE with type t = e) -> e -> Node.t -> Node.t list -> bool =
 fun engine m dest -> function
  | a :: (b :: _ as rest) ->
      let module E = (val engine) in
      E.descends m a b && descends_to engine m dest rest
  | [ last ] -> Node.equal last dest
  | [] -> false

let valid_route (Shard s) ~src path =
  let module E = (val s.engine) in
  match path with
  | first :: _ -> Node.equal first src && descends_to s.engine s.m (E.destination s.m) path
  | [] -> false

let route (Shard s as t) src =
  let module E = (val s.engine) in
  if not (E.mem_node s.m src) then noop
  else
    match E.route s.m src with
    | Some path ->
        let bad = not (valid_route t ~src path) in
        {
          response = Op.Path path;
          work = 0;
          validation_failures = (if bad then 1 else 0);
        }
    | None ->
        (* An honest No_route means the source really cannot reach the
           destination; a directed path existing despite the refusal is
           an engine bug the validator must surface. *)
        let bad = E.reaches_destination s.m src in
        { response = Op.No_route; work = 0; validation_failures = (if bad then 1 else 0) }

(* Every non-noop link op lands on both the engine and the forwarding
   plane (when one exists): the plane's skeleton was snapshotted from
   the engine's graph, so they can never drift. *)
let link_down (Shard s) u v =
  let module E = (val s.engine) in
  if Node.equal u v || (not (E.mem_node s.m u)) || (not (E.mem_node s.m v))
     || not (E.mem_edge s.m u v)
  then noop
  else begin
    (match s.plane with Some p -> Lr_packet.Plane.remove_link p u v | None -> ());
    let before = E.total_work s.m in
    let result = E.fail_link s.m u v in
    (* [Partitioned] still stabilizes the destination's side; the work
       delta covers both branches. *)
    let work = E.total_work s.m - before in
    match result with
    | Maintenance.Stabilized { node_steps; _ } ->
        { response = Op.Repaired { node_steps }; work; validation_failures = 0 }
    | Maintenance.Partitioned lost ->
        { response = Op.Cut { lost = Node.Set.cardinal lost }; work;
          validation_failures = 0 }
  end

let link_up (Shard s) u v =
  let module E = (val s.engine) in
  if Node.equal u v || (not (E.mem_node s.m u)) || (not (E.mem_node s.m v))
     || E.mem_edge s.m u v
     || Node.Set.mem u s.dead || Node.Set.mem v s.dead
  then noop
  else begin
    (match s.plane with Some p -> Lr_packet.Plane.add_link p u v | None -> ());
    let before = E.total_work s.m in
    E.add_link s.m u v;
    let node_steps = E.total_work s.m - before in
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

let crash_destination (Shard s) =
  let module E = (val s.engine) in
  let live u = not (Node.Set.mem u s.dead) in
  match elect ~live (E.survivor_components s.m) with
  | None -> noop
  | Some leader -> (
      (* Read before [reroot], which may reuse the session. *)
      let old = E.destination s.m and retired = E.total_work s.m in
      match E.reroot s.m ~leader with
      | None ->
          (* The serving graph went inconsistent — count it, don't
             crash. *)
          { noop with validation_failures = 1 }
      | Some m ->
          s.work_base <- s.work_base + retired;
          s.dead <- Node.Set.add old s.dead;
          s.m <- m;
          s.plane <- None;
          s.epoch <- s.epoch + 1;
          (* The adoption work is the fresh session's stabilization —
             the reversals actually performed on this shard's state. *)
          let node_steps = E.total_work m in
          { response = Op.New_destination { leader; node_steps }; work = node_steps;
            validation_failures = 0 })

(* Per-node queue bound of every forwarding plane. *)
let packet_queue = 64

(* A forward sweeps the plane once per slot, so an op's cost grows with
   its count; parsed workloads stay below this. *)
let max_burst = 1 lsl 16

(* The shard's forwarding plane, snapshotting the current graph and
   destination on first use.  [Config.make] failing means the serving
   graph went inconsistent — surfaced as a validation failure, like the
   crash path. *)
let ensure_plane (Shard s) =
  match s.plane with
  | Some _ as p -> p
  | None -> (
      let module E = (val s.engine) in
      match Linkrev.Config.make (E.graph s.m) ~destination:(E.destination s.m) with
      | Error _ -> None
      | Ok config ->
          let p = Lr_packet.Plane.create ~qcap:packet_queue config in
          s.plane <- Some p;
          Some p)

let inject (Shard s as t) src count =
  let module E = (val s.engine) in
  if count < 0 || not (E.mem_node s.m src) then noop
  else
    match ensure_plane t with
    | None -> { noop with validation_failures = 1 }
    | Some p ->
        let accepted, dropped = Lr_packet.Plane.inject p ~src ~count in
        { response = Op.Injected { accepted; dropped }; work = 0;
          validation_failures = 0 }

let forward t slots =
  if slots < 1 then noop
  else
    match ensure_plane t with
    | None -> { noop with validation_failures = 1 }
    | Some p ->
        let before = Lr_packet.Plane.counters p in
        for _ = 1 to slots do
          Lr_packet.Plane.slot p
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

(* {1 Chaos faults} *)

(* [Random.State.int] takes bounds below [2^30], and a component is
   drawn from [2m + 1] values. *)
let max_magnitude = (1 lsl 29) - 1

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

(* Adopt a corrupted height assignment and report the self-healing
   work.  The heal is not re-checked here: the engine's full
   consistency check is O(n + m), and the tests run it after every
   heal of a chaos-woven stream on both tiers instead.  Routes served
   afterwards are still validated hop by hop. *)
let heal (Shard s) f =
  let module E = (val s.engine) in
  let before = E.total_work s.m in
  let result = E.adopt_heights s.m f in
  let work = E.total_work s.m - before in
  match result with
  | Maintenance.Stabilized { node_steps; _ } ->
      { response = Op.Healed { node_steps }; work; validation_failures = 0 }
  | Maintenance.Partitioned _ ->
      (* adopt_heights never changes the topology. *)
      assert false

let corrupt t ~seed ~magnitude =
  if magnitude < 0 || magnitude > max_magnitude then noop
  else heal t (hostile_height ~seed ~magnitude)

let flip_bit (Shard s as t) ~node ~bit =
  let module E = (val s.engine) in
  if (not (E.mem_node s.m node)) || bit < 0 || bit > 61 then noop
  else
    let pa, pb = E.height s.m node in
    let flipped = (pa lxor (1 lsl bit), pb) in
    heal t (fun u -> if u = node then flipped else E.height s.m u)

let apply t op =
  match op with
  | Op.Route { src; _ } -> route t src
  | Op.Link_down { u; v; _ } -> link_down t u v
  | Op.Link_up { u; v; _ } -> link_up t u v
  | Op.Crash_destination _ -> crash_destination t
  | Op.Inject { src; count; _ } -> inject t src count
  | Op.Forward { slots; _ } -> forward t slots
  | Op.Corrupt { seed; magnitude; _ } -> corrupt t ~seed ~magnitude
  | Op.Flip { node; bit; _ } -> flip_bit t ~node ~bit
  | Op.Stats -> invalid_arg "Shard.apply: Stats is a dispatcher-level op"
