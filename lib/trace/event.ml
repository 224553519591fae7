open Lr_graph

type engine = Pr | Fr | New_pr | Maint

let engine_name = function
  | Pr -> "pr"
  | Fr -> "fr"
  | New_pr -> "newpr"
  | Maint -> "maint"

let engine_of_string = function
  | "pr" -> Some Pr
  | "fr" -> Some Fr
  | "newpr" -> Some New_pr
  | "maint" -> Some Maint
  | _ -> None

let engine_tag = function Pr -> 0 | Fr -> 1 | New_pr -> 2 | Maint -> 3

let engine_of_tag = function
  | 0 -> Some Pr
  | 1 -> Some Fr
  | 2 -> Some New_pr
  | 3 -> Some Maint
  | _ -> None

type t =
  | Step of { node : int; slots : int array }
  | Dummy of int
  | Stale of int
  | Perturb of { node : int; slots : int array }

type header = {
  engine : engine;
  seed : int;
  n : int;
  destination : int;
  edges : (int * int) list;
  fingerprint : int64;
}

type summary = {
  work : int;
  edge_reversals : int;
  wall_ns : int;
  final_fingerprint : int64;
}

let header_of_config ?(seed = -1) engine config =
  let g = config.Linkrev.Config.initial in
  let n = Digraph.num_nodes g in
  (* n distinct ids, all below n, are exactly 0..n-1 *)
  if not (Node.Set.for_all (fun u -> u >= 0 && u < n) (Digraph.nodes g)) then
    invalid_arg "Event.header_of_config: node ids must be 0..n-1";
  {
    engine;
    seed;
    n;
    destination = config.Linkrev.Config.destination;
    edges = Digraph.directed_edges g;
    fingerprint = Digraph.fingerprint g;
  }

let instance_of_header h =
  let g =
    List.fold_left
      (fun g u -> Digraph.add_node g u)
      (Digraph.of_directed_edges h.edges)
      (List.init h.n Fun.id)
  in
  { Generators.graph = g; destination = h.destination }

let config_of_header h =
  let inst = instance_of_header h in
  if Digraph.num_nodes inst.Generators.graph <> h.n then
    Error "header: edge list mentions nodes outside 0..n-1"
  else if Digraph.fingerprint inst.Generators.graph <> h.fingerprint then
    Error "header: instance does not match its fingerprint"
  else
    Linkrev.Config.make inst.Generators.graph ~destination:h.destination

let pp ppf = function
  | Step { node; slots } ->
      Format.fprintf ppf "step %d -> slots {%s}" node
        (String.concat "," (List.map string_of_int (Array.to_list slots)))
  | Dummy u -> Format.fprintf ppf "dummy %d" u
  | Stale u -> Format.fprintf ppf "stale %d" u
  | Perturb { node; slots } ->
      Format.fprintf ppf "perturb %d -> slots {%s}" node
        (String.concat "," (List.map string_of_int (Array.to_list slots)))
