let of_digraph ?(name = "G") ?(highlight = Node.Set.empty) ?destination g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  rankdir=LR;\n";
  Node.Set.iter
    (fun u ->
      let attrs = ref [] in
      (match destination with
      | Some d when Node.equal d u -> attrs := "shape=doublecircle" :: !attrs
      | _ -> attrs := "shape=circle" :: !attrs);
      if Node.Set.mem u highlight then
        attrs := "style=filled" :: "fillcolor=lightblue" :: !attrs;
      Buffer.add_string buf
        (Printf.sprintf "  %d [%s];\n" u (String.concat "," !attrs)))
    (Digraph.nodes g);
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  %d -> %d;\n" u v))
    (Digraph.directed_edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let of_undirected g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph G {\n";
  Node.Set.iter
    (fun u -> Buffer.add_string buf (Printf.sprintf "  %d;\n" u))
    (Undirected.nodes g);
  Undirected.iter_edges
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d;\n" (Edge.lo e) (Edge.hi e)))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_file path src =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc src)
