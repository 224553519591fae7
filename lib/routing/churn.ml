type op = Down of int * int | Up of int * int | Fail of int

(* Links are keys [u * n + v] (u < v) in a swap-remove array with a
   position table, so a uniform draw from the present edge set is one
   [Random.State.int]; per-node neighbour tables serve node failures. *)
let tape rng ~events (config : Linkrev.Config.t) =
  let n = Lr_graph.Digraph.num_nodes config.Linkrev.Config.initial in
  let dest = config.Linkrev.Config.destination in
  let initial = Lr_graph.Digraph.directed_edges config.Linkrev.Config.initial in
  let links = Array.make (List.length initial + events) 0 and m = ref 0 in
  let pos = Hashtbl.create (4 * Stdlib.max n 1) in
  let nbrs = Array.init n (fun _ -> Hashtbl.create 8) in
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  let put u v =
    links.(!m) <- key u v;
    Hashtbl.replace pos (key u v) !m;
    incr m;
    Hashtbl.replace nbrs.(u) v ();
    Hashtbl.replace nbrs.(v) u ()
  in
  let del u v =
    let i = Hashtbl.find pos (key u v) in
    Hashtbl.remove pos (key u v);
    decr m;
    if i < !m then begin
      links.(i) <- links.(!m);
      Hashtbl.replace pos links.(i) i
    end;
    Hashtbl.remove nbrs.(u) v;
    Hashtbl.remove nbrs.(v) u
  in
  List.iter (fun (u, v) -> put u v) initial;
  let ops = ref [] in
  for k = 1 to events do
    if k mod 41 = 0 then begin
      let u = Random.State.int rng n in
      let victim = if u = dest then (u + 1) mod n else u in
      Hashtbl.iter (fun w () -> del victim w) (Hashtbl.copy nbrs.(victim));
      ops := Fail victim :: !ops
    end
    else if k land 1 = 0 && !m > 0 then begin
      let e = links.(Random.State.int rng !m) in
      let u = e / n and v = e mod n in
      del u v;
      ops := Down (u, v) :: !ops
    end
    else begin
      let u = Random.State.int rng n and v = Random.State.int rng n in
      if u <> v && not (Hashtbl.mem nbrs.(u) v) then begin
        put u v;
        ops := Up (u, v) :: !ops
      end
    end
  done;
  Array.of_list (List.rev !ops)

let partitioned = function
  | Maintenance.Partitioned _ -> true
  | Maintenance.Stabilized _ -> false

let apply_fast fm = function
  | Down (u, v) -> partitioned (Fast_maintenance.fail_link fm u v)
  | Up (u, v) ->
      Fast_maintenance.add_link fm u v;
      false
  | Fail u -> partitioned (Fast_maintenance.fail_node fm u)

let apply_reference m = function
  | Down (u, v) -> partitioned (Maintenance.fail_link m u v)
  | Up (u, v) ->
      Maintenance.add_link m u v;
      false
  | Fail u -> partitioned (Maintenance.fail_node m u)
