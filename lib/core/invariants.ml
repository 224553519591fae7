open Lr_graph
module Invariant = Lr_automata.Invariant

let acyclic ~graph_of =
  Invariant.make ~name:"acyclic (Thm 4.3/5.5)" (fun s ->
      match Digraph.find_cycle (graph_of s) with
      | None -> Ok ()
      | Some cycle ->
          Error
            (Format.asprintf "cycle %a"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
                  Node.pp)
               cycle))

let skeleton_preserved config ~graph_of =
  Invariant.make ~name:"skeleton preserved" (fun s ->
      if Undirected.equal (Digraph.skeleton (graph_of s)) (Config.skeleton config)
      then Ok ()
      else Error "undirected skeleton changed")

(* Every skeleton edge is oriented and the two per-endpoint views agree:
   dir[u,v] = in iff dir[v,u] = out. *)
let pr_inv_3_1 config =
  Invariant.make ~name:"Invariant 3.1" (fun (s : Pr.state) ->
      let g = s.Pr.graph in
      let bad =
        Undirected.fold_edges
          (fun e acc ->
            match acc with
            | Some _ -> acc
            | None ->
                let u, v = Edge.endpoints e in
                let duv = Digraph.dir g u v and dvu = Digraph.dir g v u in
                if Digraph.direction_equal duv (Digraph.flip dvu) then None
                else Some (u, v))
          (Config.skeleton config) None
      in
      match bad with
      | None -> Ok ()
      | Some (u, v) ->
          Error (Format.asprintf "edge {%a,%a} has inconsistent views" Node.pp u Node.pp v))

(* Invariant 3.2, part 1 for node [u]: all initial out-neighbours have
   incoming edges, and list[u] = the initial in-neighbours whose edge is
   currently incoming. *)
let part1 config (s : Pr.state) u =
  let g = s.Pr.graph in
  Node.Set.for_all
    (fun w -> Digraph.direction_equal (Digraph.dir g u w) Digraph.In)
    (Config.out_nbrs config u)
  && Node.Set.equal (Pr.list_of s u)
       (Node.Set.filter
          (fun v -> Digraph.direction_equal (Digraph.dir g u v) Digraph.In)
          (Config.in_nbrs config u))

let part2 config (s : Pr.state) u =
  let g = s.Pr.graph in
  Node.Set.for_all
    (fun w -> Digraph.direction_equal (Digraph.dir g u w) Digraph.In)
    (Config.in_nbrs config u)
  && Node.Set.equal (Pr.list_of s u)
       (Node.Set.filter
          (fun v -> Digraph.direction_equal (Digraph.dir g u v) Digraph.In)
          (Config.out_nbrs config u))

(* A node with no neighbours satisfies both parts vacuously.  The
   paper's graphs are connected, so its statement never meets one; such
   a node is skipped rather than flagged. *)
let isolated config u =
  Node.Set.is_empty (Config.in_nbrs config u)
  && Node.Set.is_empty (Config.out_nbrs config u)

let pr_inv_3_2 config =
  Invariant.make ~name:"Invariant 3.2" (fun (s : Pr.state) ->
      let bad =
        Node.Set.fold
          (fun u acc ->
            match acc with
            | Some _ -> acc
            | None when isolated config u -> None
            | None -> (
                match (part1 config s u, part2 config s u) with
                | true, false | false, true -> None
                | true, true -> Some (u, "both parts hold")
                | false, false -> Some (u, "neither part holds")))
          (Config.nodes config) None
      in
      match bad with
      | None -> Ok ()
      | Some (u, what) ->
          Error (Format.asprintf "node %a: %s" Node.pp u what))

let pr_cor_3_3 config =
  Invariant.make ~name:"Corollary 3.3" (fun (s : Pr.state) ->
      let bad =
        Node.Set.fold
          (fun u acc ->
            match acc with
            | Some _ -> acc
            | None ->
                let lst = Pr.list_of s u in
                if
                  Node.Set.subset lst (Config.in_nbrs config u)
                  || Node.Set.subset lst (Config.out_nbrs config u)
                then None
                else Some u)
          (Config.nodes config) None
      in
      match bad with
      | None -> Ok ()
      | Some u ->
          Error
            (Format.asprintf "list[%a] is in neither in-nbrs nor out-nbrs"
               Node.pp u))

(* At a sink, list[u] = in-nbrs_u or list[u] = out-nbrs_u. *)
let pr_cor_3_4 config =
  Invariant.make ~name:"Corollary 3.4" (fun (s : Pr.state) ->
      let g = s.Pr.graph in
      let bad =
        Node.Set.fold
          (fun u acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if not (Digraph.is_sink g u) then None
                else
                  let lst = Pr.list_of s u in
                  if
                    Node.Set.equal lst (Config.in_nbrs config u)
                    || Node.Set.equal lst (Config.out_nbrs config u)
                  then None
                  else Some u)
          (Config.nodes config) None
      in
      match bad with
      | None -> Ok ()
      | Some u ->
          Error
            (Format.asprintf
               "sink %a has list equal to neither in-nbrs nor out-nbrs"
               Node.pp u))

let pr_all config =
  Invariant.all ~name:"PR invariants"
    [
      pr_inv_3_1 config;
      pr_inv_3_2 config;
      pr_cor_3_3 config;
      pr_cor_3_4 config;
      skeleton_preserved config ~graph_of:(fun (s : Pr.state) -> s.Pr.graph);
      acyclic ~graph_of:(fun (s : Pr.state) -> s.Pr.graph);
    ]

(* Direction of edge {u,v} in the fixed embedding: true when it
   currently points from the left endpoint to the right one. *)
let points_left_to_right config g u v =
  let left, right = if Config.is_left_of config u v then (u, v) else (v, u) in
  Digraph.direction_equal (Digraph.dir g left right) Digraph.Out

let newpr_inv_4_1 config =
  Invariant.make ~name:"Invariant 4.1" (fun (s : New_pr.state) ->
      let g = s.New_pr.graph in
      let check e =
        let u, v = Edge.endpoints e in
        match (New_pr.parity s u, New_pr.parity s v) with
        | New_pr.Even, New_pr.Even ->
            if points_left_to_right config g u v then None
            else Some (u, v, "both even but edge points right to left")
        | New_pr.Odd, New_pr.Odd ->
            if points_left_to_right config g u v then
              Some (u, v, "both odd but edge points left to right")
            else None
        | New_pr.Even, New_pr.Odd | New_pr.Odd, New_pr.Even -> None
      in
      let bad =
        Undirected.fold_edges
          (fun e acc -> match acc with Some _ -> acc | None -> check e)
          (Config.skeleton config) None
      in
      match bad with
      | None -> Ok ()
      | Some (u, v, what) ->
          Error (Format.asprintf "edge {%a,%a}: %s" Node.pp u Node.pp v what))

let newpr_inv_4_2 config =
  Invariant.make ~name:"Invariant 4.2" (fun (s : New_pr.state) ->
      let g = s.New_pr.graph in
      let check e =
        let u, v = Edge.endpoints e in
        let cu = New_pr.count s u and cv = New_pr.count s v in
        (* (a), symmetric in u and v. *)
        if abs (cu - cv) > 1 then
          Some
            (Format.asprintf "(a): count[%a]=%d, count[%a]=%d" Node.pp u cu
               Node.pp v cv)
        else
          let part_bc x cx y cy =
            (* (b): count[x] odd and y right of x => count[y] = count[x];
               (c): count[x] even and y left of x => count[y] = count[x]. *)
            if cx mod 2 = 1 && Config.is_left_of config x y && cy <> cx then
              Some
                (Format.asprintf "(b): count[%a]=%d odd, %a right, count=%d"
                   Node.pp x cx Node.pp y cy)
            else if cx mod 2 = 0 && Config.is_left_of config y x && cy <> cx
            then
              Some
                (Format.asprintf "(c): count[%a]=%d even, %a left, count=%d"
                   Node.pp x cx Node.pp y cy)
            else None
          in
          let part_d x cx y cy =
            if
              cx > cy
              && not (Digraph.direction_equal (Digraph.dir g x y) Digraph.Out)
            then
              Some
                (Format.asprintf
                   "(d): count[%a]=%d > count[%a]=%d but edge not %a->%a"
                   Node.pp x cx Node.pp y cy Node.pp x Node.pp y)
            else None
          in
          let ( <|> ) a b = match a with Some _ -> a | None -> b () in
          part_bc u cu v cv
          <|> fun () ->
          part_bc v cv u cu
          <|> fun () -> part_d u cu v cv <|> fun () -> part_d v cv u cu
      in
      let bad =
        Undirected.fold_edges
          (fun e acc -> match acc with Some _ -> acc | None -> check e)
          (Config.skeleton config) None
      in
      match bad with None -> Ok () | Some what -> Error what)

let newpr_all config =
  Invariant.all ~name:"NewPR invariants"
    [
      newpr_inv_4_1 config;
      newpr_inv_4_2 config;
      skeleton_preserved config ~graph_of:(fun (s : New_pr.state) ->
          s.New_pr.graph);
      acyclic ~graph_of:(fun (s : New_pr.state) -> s.New_pr.graph);
    ]
