open Lr_graph

type ref_level = { tau : int; oid : Node.t; reflected : bool }

type height =
  | Null
  | Height of { level : ref_level; delta : int; id : Node.t }

let compare_level l1 l2 =
  match Int.compare l1.tau l2.tau with
  | 0 -> (
      match Node.compare l1.oid l2.oid with
      | 0 -> Bool.compare l1.reflected l2.reflected
      | c -> c)
  | c -> c

let compare_height h1 h2 =
  match (h1, h2) with
  | Null, Null -> 0
  | Null, Height _ -> 1
  | Height _, Null -> -1
  | Height a, Height b -> (
      match compare_level a.level b.level with
      | 0 -> (
          match Int.compare a.delta b.delta with
          | 0 -> Node.compare a.id b.id
          | c -> c)
      | c -> c)

let pp_height ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Height { level; delta; id } ->
      Format.fprintf ppf "(%d,%a,%d,%d,%a)" level.tau Node.pp level.oid
        (if level.reflected then 1 else 0)
        delta Node.pp id

type t = {
  dest : Node.t;
  mutable skel : Undirected.t;
  mutable heights : height Node.Map.t;
  mutable clock : int;
  mutable reactions : int;
  (* Nodes whose loss of downstream was caused directly by a link
     failure (they must run case 1, not 2-5). *)
  mutable failure_caused : Node.Set.t;
}

type event_result =
  | Maintained of { reactions : int }
  | Partition_detected of { cleared : Node.Set.t; reactions : int }

let destination t = t.dest
let height t u = Node.Map.find_or ~default:Null u t.heights
let skeleton t = t.skel
let reactions_total t = t.reactions
let is_null = function Null -> true | Height _ -> false
let is_routed t u = not (is_null (height t u))

let routed_neighbors t u =
  Node.Set.filter (is_routed t) (Undirected.neighbors t.skel u)

(* Neighbours with strictly lower non-[Null] height. *)
let downstream t u =
  let hu = height t u in
  if is_null hu then Node.Set.empty
  else
    Node.Set.filter
      (fun v -> compare_height (height t v) hu < 0)
      (routed_neighbors t u)

(* A routed non-destination node with routed neighbours but no
   downstream link must react. *)
let needs_reaction t u =
  (not (Node.equal u t.dest))
  && is_routed t u
  && (not (Node.Set.is_empty (routed_neighbors t u)))
  && Node.Set.is_empty (downstream t u)

(* A routed node whose routed neighbourhood is empty is stranded: no
   reaction can reach anyone, so it simply loses its height (it will
   re-join through a future link addition). *)
let stranded t u =
  (not (Node.equal u t.dest))
  && is_routed t u
  && Node.Set.is_empty (routed_neighbors t u)

let set_height t u h = t.heights <- Node.Map.add u h t.heights

let fresh_level t u =
  t.clock <- t.clock + 1;
  { tau = t.clock; oid = u; reflected = false }

let component t u =
  List.find (Node.Set.mem u) (Undirected.connected_components t.skel)

exception Partition of Node.Set.t

(* Execute one maintenance case at node [u] (which needs a reaction). *)
let react t u =
  t.reactions <- t.reactions + 1;
  let nbrs = routed_neighbors t u in
  let levels =
    Node.Set.fold
      (fun v acc ->
        match height t v with
        | Null -> acc
        | Height { level; _ } -> level :: acc)
      nbrs []
  in
  let distinct =
    List.sort_uniq compare_level levels
  in
  if Node.Set.mem u t.failure_caused then begin
    (* case 1: generate a new reference level *)
    t.failure_caused <- Node.Set.remove u t.failure_caused;
    set_height t u (Height { level = fresh_level t u; delta = 0; id = u })
  end
  else
    match distinct with
    | [] -> (* unreachable: needs_reaction demands routed neighbours *)
        set_height t u Null
    | [ level ] when not level.reflected ->
        (* case 3: reflect the level back *)
        set_height t u
          (Height { level = { level with reflected = true }; delta = 0; id = u })
    | [ level ] when Node.equal level.oid u ->
        (* case 4: own reflection returned — partition detected *)
        raise (Partition (component t u))
    | [ _level ] ->
        (* case 5: someone else's reflection — generate a new level *)
        set_height t u (Height { level = fresh_level t u; delta = 0; id = u })
    | _ :: _ :: _ ->
        (* case 2: propagate the highest reference level *)
        let max_level =
          List.fold_left
            (fun best l -> if compare_level l best > 0 then l else best)
            (List.hd distinct) (List.tl distinct)
        in
        let min_delta =
          Node.Set.fold
            (fun v acc ->
              match height t v with
              | Height { level; delta; _ } when compare_level level max_level = 0
                ->
                  min acc delta
              | _ -> acc)
            nbrs max_int
        in
        set_height t u
          (Height { level = max_level; delta = min_delta - 1; id = u })

(* Run reactions to quiescence.  On a case-4 partition, clear the
   partitioned component's heights and keep going (other reactors may
   remain elsewhere). *)
let stabilize t =
  let budget = ref ((8 * Undirected.num_nodes t.skel * Undirected.num_nodes t.skel) + 1000) in
  let cleared = ref Node.Set.empty in
  let reactions0 = t.reactions in
  let find_reactor () =
    Node.Set.fold
      (fun u acc ->
        match acc with
        | Some _ -> acc
        | None ->
            if stranded t u then Some (`Stranded u)
            else if needs_reaction t u then Some (`React u)
            else None)
      (Undirected.nodes t.skel)
      None
  in
  let rec loop () =
    decr budget;
    if !budget <= 0 then failwith "Tora.stabilize: budget exceeded (bug)"
    else
      match find_reactor () with
      | None -> ()
      | Some (`Stranded u) ->
          set_height t u Null;
          cleared := Node.Set.add u !cleared;
          loop ()
      | Some (`React u) ->
          (try react t u
           with Partition comp ->
             (* The detecting component cannot contain the destination
                when the protocol's assumptions hold; guard anyway. *)
             let comp = Node.Set.remove t.dest comp in
             Node.Set.iter (fun v -> set_height t v Null) comp;
             cleared := Node.Set.union !cleared comp);
          loop ()
  in
  loop ();
  t.failure_caused <- Node.Set.empty;
  let reactions = t.reactions - reactions0 in
  if Node.Set.is_empty !cleared then Maintained { reactions }
  else Partition_detected { cleared = !cleared; reactions }

(* Completed QRY/UPD flood: zero reference levels, delta = hop count. *)
let flood_heights t =
  let dist = Path.undirected_distances t.skel t.dest in
  Node.Set.iter
    (fun u ->
      match Node.Map.find_opt u dist with
      | Some d ->
          set_height t u
            (Height
               { level = { tau = 0; oid = t.dest; reflected = false };
                 delta = d;
                 id = u;
               })
      | None -> set_height t u Null)
    (Undirected.nodes t.skel)

let create config =
  let t =
    {
      dest = config.Linkrev.Config.destination;
      skel = Linkrev.Config.skeleton config;
      heights = Node.Map.empty;
      clock = 0;
      reactions = 0;
      failure_caused = Node.Set.empty;
    }
  in
  flood_heights t;
  t

let route t u =
  if Node.equal u t.dest then Some [ u ]
  else if not (is_routed t u) then None
  else
    let rec descend v acc fuel =
      if fuel = 0 then None
      else if Node.equal v t.dest then Some (List.rev (v :: acc))
      else
        let down = downstream t v in
        match
          Node.Set.fold
            (fun w best ->
              match best with
              | None -> Some w
              | Some b ->
                  if compare_height (height t w) (height t b) < 0 then Some w
                  else best)
            down None
        with
        | None -> None
        | Some w -> descend w (v :: acc) (fuel - 1)
    in
    descend u [] (Undirected.num_nodes t.skel + 1)

let has_route t u = Option.is_some (route t u)

let routed_fraction t =
  let nodes = Node.Set.remove t.dest (Undirected.nodes t.skel) in
  if Node.Set.is_empty nodes then 1.0
  else
    float_of_int (Node.Set.cardinal (Node.Set.filter (has_route t) nodes))
    /. float_of_int (Node.Set.cardinal nodes)

let fail_link t u v =
  if not (Undirected.mem_edge t.skel u v) then
    invalid_arg "Tora.fail_link: no such link";
  t.skel <- Undirected.remove_edge t.skel u v;
  t.clock <- t.clock + 1;
  (* Endpoints that lost their last downstream link react with case 1. *)
  List.iter
    (fun w ->
      if needs_reaction t w then
        t.failure_caused <- Node.Set.add w t.failure_caused)
    [ u; v ];
  stabilize t

(* Null nodes adjacent to routed ones join downstream, as if they had
   answered the routed side's UPD. *)
let rec absorb_unrouted t =
  let candidate =
    Node.Set.fold
      (fun u acc ->
        match acc with
        | Some _ -> acc
        | None ->
            if
              (not (is_routed t u))
              && not (Node.Set.is_empty (routed_neighbors t u))
            then Some u
            else None)
      (Undirected.nodes t.skel)
      None
  in
  match candidate with
  | None -> ()
  | Some u ->
      let best =
        Node.Set.fold
          (fun v acc ->
            let hv = height t v in
            match (acc, hv) with
            | Null, Height _ -> hv
            | Height _, Height _ when compare_height hv acc < 0 -> hv
            | _ -> acc)
          (routed_neighbors t u) Null
      in
      (match best with
      | Height { level; delta; _ } ->
          set_height t u (Height { level; delta = delta + 1; id = u })
      | Null -> ());
      absorb_unrouted t

let add_link t u v =
  if Undirected.mem_edge t.skel u v then
    invalid_arg "Tora.add_link: link already present";
  t.skel <- Undirected.add_edge t.skel u v;
  absorb_unrouted t;
  stabilize t

let acyclic t =
  (* Directed graph over routed nodes only. *)
  let g =
    Undirected.fold_edges
      (fun e acc ->
        let a, b = Edge.endpoints e in
        match (height t a, height t b) with
        | Height _, Height _ ->
            if compare_height (height t a) (height t b) > 0 then
              Digraph.add_directed_edge acc a b
            else Digraph.add_directed_edge acc b a
        | _ -> acc)
      t.skel
      (Digraph.of_directed_edges [])
  in
  Digraph.is_acyclic g
