open Lr_graph

type t = {
  n : int;
  destination : int;
  nbrs : int array array;
  mirror : int array array;
  out0 : bool array array;
}

(* Mirror slots in one pass over all adjacency entries.  The rows are
   sorted, so sweeping [u] upward visits the occurrences of [u] inside
   each [nbrs.(w)] in row order: a per-node cursor is exactly the index
   of [u] in [nbrs.(w)].  O(sum of degrees).  A final pass checks every
   slot against its mirror, which rejects unsorted, asymmetric or
   out-of-range rows in the same O(sum of degrees).  [who] names the
   constructor in the rejection. *)
let mirrors ~who nbrs =
  let n = Array.length nbrs in
  let mirror = Array.map (fun row -> Array.make (Array.length row) 0) nbrs in
  let cursor = Array.make n 0 in
  let malformed () = invalid_arg (who ^ ": rows not sorted and symmetric") in
  for u = 0 to n - 1 do
    let row = nbrs.(u) in
    for i = 0 to Array.length row - 1 do
      let w = row.(i) in
      if w < 0 || w >= n || w = u || (i > 0 && row.(i - 1) >= w) then malformed ();
      mirror.(u).(i) <- cursor.(w);
      cursor.(w) <- cursor.(w) + 1
    done
  done;
  for u = 0 to n - 1 do
    let row = nbrs.(u) in
    for i = 0 to Array.length row - 1 do
      let k = mirror.(u).(i) in
      if k >= Array.length nbrs.(row.(i)) || nbrs.(row.(i)).(k) <> u then malformed ()
    done
  done;
  mirror

let of_rows ~destination ~out nbrs =
  let mirror = mirrors ~who:"Fast_graph.of_rows" nbrs in
  let out0 = Array.mapi (fun u row -> Array.map (fun w -> out u w) row) nbrs in
  { n = Array.length nbrs; destination; nbrs; mirror; out0 }

let of_instance inst =
  let g = inst.Generators.graph in
  let nbrs =
    try Undirected.rows (Digraph.skeleton g)
    with Invalid_argument _ -> invalid_arg "Fast_graph.of_instance: node ids must be 0..n-1"
  in
  of_rows ~destination:inst.Generators.destination
    ~out:(fun u w -> Digraph.direction_equal (Digraph.dir g u w) Digraph.Out)
    nbrs

let of_config config =
  of_instance
    {
      Generators.graph = config.Linkrev.Config.initial;
      destination = config.Linkrev.Config.destination;
    }

let degree t u = Array.length t.nbrs.(u)

(* Must mirror [Digraph.fingerprint] exactly: FNV-1a over node ids
   ascending, then (lo, hi, oriented-low-to-high) per skeleton edge in
   lexicographic order.  Rows are sorted, so scanning [u] ascending and
   keeping only [w > u] visits edges in exactly that order. *)
let fingerprint t out_ =
  let prime = 0x100000001b3L in
  let mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) prime in
  let h = ref 0xcbf29ce484222325L in
  for u = 0 to t.n - 1 do
    h := mix !h u
  done;
  for u = 0 to t.n - 1 do
    let row = t.nbrs.(u) in
    for i = 0 to Array.length row - 1 do
      let w = row.(i) in
      if w > u then
        h := mix (mix (mix !h u) w) (if out_.(u).(i) then 1 else 0)
    done
  done;
  !h

let initial_out t = Array.map Array.copy t.out0

let initial_in_degree t =
  Array.init t.n (fun u ->
      Array.fold_left (fun acc o -> if o then acc else acc + 1) 0 t.out0.(u))

let initial_slots t out =
  Array.map
    (fun row ->
      Array.of_list
        (List.filter (fun i -> Bool.equal row.(i) out) (List.init (Array.length row) Fun.id)))
    t.out0

let to_digraph t out_ =
  let g = ref (Digraph.of_directed_edges []) in
  for u = 0 to t.n - 1 do
    g := Digraph.add_node !g u;
    Array.iteri
      (fun i w -> if out_.(u).(i) then g := Digraph.add_directed_edge !g u w)
      t.nbrs.(u)
  done;
  !g

module Dyn = struct
  type graph = t

  type t = {
    n : int;
    nbr : int array array;
    mir : int array array;
    deg : int array;
  }

  let of_rows nbr =
    {
      n = Array.length nbr;
      nbr;
      mir = mirrors ~who:"Fast_graph.Dyn.of_rows" nbr;
      deg = Array.map Array.length nbr;
    }

  let of_graph (g : graph) = of_rows (Array.map Array.copy g.nbrs)

  let num_nodes t = t.n
  let degree t u = t.deg.(u)
  let row t u = t.nbr.(u)

  (* A loop, not a local recursive function: the latter would allocate
     a closure per call, and route validation calls this once per hop. *)
  let slot_of t u v =
    let row = t.nbr.(u) and d = t.deg.(u) in
    let i = ref 0 in
    while !i < d && row.(!i) <> v do
      incr i
    done;
    if !i < d then !i else -1

  let mem_edge t u v = u >= 0 && u < t.n && v >= 0 && v < t.n && slot_of t u v >= 0

  let ensure_capacity t u =
    if t.deg.(u) = Array.length t.nbr.(u) then begin
      let cap = max 4 (2 * Array.length t.nbr.(u)) in
      let grow a =
        let b = Array.make cap 0 in
        Array.blit a 0 b 0 t.deg.(u);
        b
      in
      t.nbr.(u) <- grow t.nbr.(u);
      t.mir.(u) <- grow t.mir.(u)
    end

  let add_edge t u v =
    if u = v then invalid_arg "Fast_graph.Dyn.add_edge: self-loop";
    ensure_capacity t u;
    ensure_capacity t v;
    let iu = t.deg.(u) and iv = t.deg.(v) in
    t.nbr.(u).(iu) <- v;
    t.mir.(u).(iu) <- iv;
    t.nbr.(v).(iv) <- u;
    t.mir.(v).(iv) <- iu;
    t.deg.(u) <- iu + 1;
    t.deg.(v) <- iv + 1

  (* Drop slot [i] of [u] by moving the last entry into its place; the
     moved neighbour's backpointer must then point at the new slot. *)
  let remove_slot t u i =
    let last = t.deg.(u) - 1 in
    if i <> last then begin
      let w = t.nbr.(u).(last) and k = t.mir.(u).(last) in
      t.nbr.(u).(i) <- w;
      t.mir.(u).(i) <- k;
      t.mir.(w).(k) <- i
    end;
    t.deg.(u) <- last

  let remove_edge t u v =
    let i = slot_of t u v in
    if i < 0 then invalid_arg "Fast_graph.Dyn.remove_edge: no such edge";
    let j = t.mir.(u).(i) in
    (* [remove_slot t u i] never moves [v]'s own slot (an edge occurs
       once per row), so [j] stays valid for the second removal. *)
    remove_slot t u i;
    remove_slot t v j

  (* Each edge leaves the far row through its mirror slot, so nothing
     is looked up.  [remove_slot] only rewrites rows other than [u]'s
     ([u] occurs once in each far row), so [u]'s slots stay valid while
     they are walked. *)
  let isolate t u =
    for i = t.deg.(u) - 1 downto 0 do
      remove_slot t t.nbr.(u).(i) t.mir.(u).(i)
    done;
    t.deg.(u) <- 0

  (* Sweeping [u] upward and appending it to each neighbour's row is a
     transposition; the rows are symmetric, so it rebuilds every row in
     ascending order.  It writes into the mirror rows, which have the
     same capacity, and swaps them in; [of_rows]' cursor pass then
     refills the mirrors. *)
  let sort_rows t ~scratch:cursor =
    Array.fill cursor 0 t.n 0;
    for u = 0 to t.n - 1 do
      let row = t.nbr.(u) in
      for i = 0 to t.deg.(u) - 1 do
        let w = row.(i) in
        t.mir.(w).(cursor.(w)) <- u;
        cursor.(w) <- cursor.(w) + 1
      done
    done;
    for u = 0 to t.n - 1 do
      let row = t.nbr.(u) in
      t.nbr.(u) <- t.mir.(u);
      t.mir.(u) <- row
    done;
    Array.fill cursor 0 t.n 0;
    for u = 0 to t.n - 1 do
      let row = t.nbr.(u) and mir = t.mir.(u) in
      for i = 0 to t.deg.(u) - 1 do
        let w = row.(i) in
        mir.(i) <- cursor.(w);
        cursor.(w) <- cursor.(w) + 1
      done
    done
end
