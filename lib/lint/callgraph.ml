(* Interprocedural call graph over the typed trees of every dune unit.

   Nodes are value bindings: toplevel lets (including inside nested
   modules and functor bodies), local [let f = fun ...] children, and
   synthetic nodes for function literals passed directly to a
   domain-crossing entry point.  Edges go from the node whose body
   references an identifier to the node that identifier resolves to —
   applied or not, since a function passed as a value is called
   somewhere downstream.  Resolution is conservative: an identifier we
   cannot map to a known node produces no edge.

   Cross-module references in the typed tree are fully qualified
   (dune's [Lib__Module] mangling flattens to [Lib.Module]), including
   through [open]; the indirections left are local module aliases
   ([module P = Lr_parallel.Pool], [let module F = Fast_engine in])
   and functor instantiations ([module H = Order.Make (...)]), all
   expanded by the unit's {!Alias} table; values an [include] brings in,
   linked to the included module's nodes once every unit is
   registered; and calls through a first-class module ([let module E
   = (val e)] or a [(module E : S)] parameter), where [E.f] resolves
   to [f] of every module packed at [E]'s module type [S] anywhere in
   the tree. *)

type root_kind = Parallel | Resident

type site = { prim : string; site_loc : Location.t }

type raise_site = {
  raise_prim : string;
  deliberate : bool;
      (* under a try body (caught locally) or inside an exception
         handler (an explicit re-raise) *)
  raise_loc : Location.t;
}

type mutation = { target : string; mut_key : string; mut_loc : Location.t }
type atomic_access = { atom : string; atom_key : string; atom_loc : Location.t }
type edge = { callee : int; under_try : bool }

type node = {
  id : int;
  name : string;
  unit_name : string;
  file : string;
  line : int;
  mutable root : root_kind option;
  mutable edges : edge list;
  mutable blocking : site list;
  mutable raises : raise_site list;
  mutable mutations : mutation list;
  mutable atomics : atomic_access list;
}

type t = { nodes : node array }

let size g = Array.length g.nodes

let edge_count g =
  Array.fold_left (fun acc n -> acc + List.length n.edges) 0 g.nodes

let root_count g =
  Array.fold_left
    (fun acc n -> match n.root with Some _ -> acc + 1 | None -> acc)
    0 g.nodes

(* --- primitive classification ------------------------------------- *)

(* Checked against the full resolved [Path.name] so user-defined
   shadows never fire; dotted stdlib modules appear as [Stdlib.X.f]. *)
let blocking_prims =
  [
    "Stdlib.Mutex.lock";
    "Stdlib.Condition.wait";
    "Stdlib.Domain.join";
    "Unix.sleep";
    "Unix.sleepf";
    "Unix.select";
    "Unix.read";
    "Unix.recv";
    "Unix.accept";
    "Stdlib.input_line";
    "Stdlib.input_char";
    "Stdlib.input";
    "Stdlib.really_input";
    "Stdlib.read_line";
    "Stdlib.Printf.printf";
    "Stdlib.Printf.eprintf";
    "Stdlib.Format.printf";
    "Stdlib.Format.eprintf";
    "Stdlib.print_string";
    "Stdlib.print_endline";
    "Stdlib.print_newline";
    "Stdlib.print_int";
    "Stdlib.prerr_string";
    "Stdlib.prerr_endline";
  ]

let raising_prims =
  [ "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.failwith";
    "Stdlib.invalid_arg" ]

let ref_assign_prims = [ "Stdlib.:="; "Stdlib.incr"; "Stdlib.decr" ]

(* Container mutators whose first explicit argument is the mutated
   value.  Reads are deliberately out of scope: flagging writes bounds
   the noise while still catching every lost-update candidate. *)
let container_mutator_prims =
  [
    "Stdlib.Array.set";
    "Stdlib.Array.unsafe_set";
    "Stdlib.Array.fill";
    "Stdlib.Array.blit";
    "Stdlib.Bytes.set";
    "Stdlib.Bytes.unsafe_set";
    "Stdlib.Bytes.fill";
    "Stdlib.Bytes.blit";
    "Stdlib.Hashtbl.add";
    "Stdlib.Hashtbl.replace";
    "Stdlib.Hashtbl.remove";
    "Stdlib.Hashtbl.reset";
    "Stdlib.Hashtbl.clear";
    "Stdlib.Buffer.add_char";
    "Stdlib.Buffer.add_string";
    "Stdlib.Buffer.add_substring";
    "Stdlib.Buffer.add_buffer";
    "Stdlib.Buffer.clear";
    "Stdlib.Buffer.reset";
    "Stdlib.Queue.push";
    "Stdlib.Queue.add";
    "Stdlib.Queue.pop";
    "Stdlib.Queue.take";
    "Stdlib.Queue.clear";
    "Stdlib.Queue.transfer";
    "Stdlib.Stack.push";
    "Stdlib.Stack.pop";
    "Stdlib.Stack.clear";
  ]

let atomic_prims =
  [
    "Stdlib.Atomic.get";
    "Stdlib.Atomic.set";
    "Stdlib.Atomic.exchange";
    "Stdlib.Atomic.compare_and_set";
    "Stdlib.Atomic.fetch_and_add";
    "Stdlib.Atomic.incr";
    "Stdlib.Atomic.decr";
  ]

(* Heads that allocate a fresh mutable value: a binding initialized by
   one of these is node-local, and writes to it inside the same node
   cannot race. *)
let alloc_prims =
  [
    "Stdlib.ref";
    "Stdlib.Array.make";
    "Stdlib.Array.init";
    "Stdlib.Array.create_float";
    "Stdlib.Array.copy";
    "Stdlib.Array.of_list";
    "Stdlib.Bytes.create";
    "Stdlib.Bytes.make";
    "Stdlib.Buffer.create";
    "Stdlib.Hashtbl.create";
    "Stdlib.Queue.create";
    "Stdlib.Stack.create";
    "Stdlib.Atomic.make";
  ]

(* Domain-crossing entry points, identified by declaration site so
   aliases and [open] cannot hide them. *)
let decl_file (vd : Types.value_description) =
  Filename.basename vd.Types.val_loc.Location.loc_start.Lexing.pos_fname

let pool_root_kind path (vd : Types.value_description) =
  let last = Path.last path in
  if
    List.mem last [ "map_range"; "run_trials"; "launch" ]
    && List.mem (decl_file vd) [ "pool.ml"; "pool.mli" ]
  then Some (if String.equal last "launch" then Resident else Parallel)
  else if String.equal (Path.name path) "Stdlib.Domain.spawn" then
    Some Resident
  else None

let is_spsc_entry path (vd : Types.value_description) =
  List.mem (Path.last path) [ "push"; "pop"; "try_push"; "try_pop" ]
  && List.mem (decl_file vd) [ "spsc.ml"; "spsc.mli" ]

(* --- graph construction -------------------------------------------- *)

type unit_ctx = {
  unit_name : string;
  pretty : string;
  (* Ident.unique_name -> node id, for every binding turned into a
     node in this unit (toplevel and local children alike). *)
  idents : (string, int) Hashtbl.t;
  aliases : Alias.t;
  (* binding-location key -> node id, to reattach pass-2 traversal to
     the nodes pass 1 registered. *)
  anchors : (string, int) Hashtbl.t;
  (* Ident.unique_name of a module bound by unpacking a first-class
     value -> its qualified module type. *)
  unpacked : (string, string) Hashtbl.t;
}

type builder = {
  mutable rev_nodes : node list;
  mutable next_id : int;
  by_id : (int, node) Hashtbl.t;
  by_qname : (string, int) Hashtbl.t;
  mutable ctxs : (Cmt_unit.t * unit_ctx) list;
  (* Values brought in by [include]: (unit, ident, qualified name in
     the including module, qualified name in the included one). *)
  mutable includes : (unit_ctx * Ident.t * string * string) list;
  (* First-class packings: (qualified module type, packing unit, packed
     module as written there). *)
  mutable packs : (string * unit_ctx * string) list;
}

let fresh b ~name ~unit_name (loc : Location.t) =
  let p = loc.Location.loc_start in
  let n =
    {
      id = b.next_id;
      name;
      unit_name;
      file = p.Lexing.pos_fname;
      line = p.Lexing.pos_lnum;
      root = None;
      edges = [];
      blocking = [];
      raises = [];
      mutations = [];
      atomics = [];
    }
  in
  b.next_id <- b.next_id + 1;
  b.rev_nodes <- n :: b.rev_nodes;
  Hashtbl.replace b.by_id n.id n;
  n

let loc_key (loc : Location.t) =
  let p = loc.Location.loc_start in
  Printf.sprintf "%s:%d:%d" p.Lexing.pos_fname p.Lexing.pos_lnum
    p.Lexing.pos_cnum

let module_head ctx me = Option.map (Alias.qualify ctx.aliases) (Alias.head me)

(* A module type's qualified name; a path rooted in the unit itself
   gets the unit prefix. *)
let mty_name ctx p =
  let name = Walk.flatten_dunder (Path.name p) in
  if Ident.global (Path.head p) then name else ctx.pretty ^ "." ^ name

(* Pass 1: bind the unit's module aliases, note its first-class
   packings and register a node for every toplevel binding, so pass-2
   bodies can resolve references into any unit regardless of scan
   order. *)
let register_unit b (u : Cmt_unit.t) (str : Typedtree.structure) =
  let ctx =
    {
      unit_name = u.Cmt_unit.modname;
      pretty = u.Cmt_unit.pretty;
      idents = Hashtbl.create 64;
      aliases = Alias.create ();
      anchors = Hashtbl.create 64;
      unpacked = Hashtbl.create 8;
    }
  in
  let register_binding prefix (vb : Typedtree.value_binding) =
    let pat = vb.Typedtree.vb_pat in
    let anchor = loc_key pat.Typedtree.pat_loc in
    match pat.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, name) | Typedtree.Tpat_alias (_, id, name) ->
        let qname = ctx.pretty ^ "." ^ prefix ^ name.Asttypes.txt in
        let n =
          fresh b ~name:qname ~unit_name:ctx.unit_name
            pat.Typedtree.pat_loc
        in
        Hashtbl.replace ctx.idents (Ident.unique_name id) n.id;
        Hashtbl.replace b.by_qname qname n.id;
        Hashtbl.replace ctx.anchors anchor n.id
    | _ ->
        (* [let () = ...] and friends: side-effecting initializers
           still get a node so root sites inside them are seen. *)
        let line = pat.Typedtree.pat_loc.Location.loc_start.Lexing.pos_lnum in
        let qname =
          Printf.sprintf "%s.%s<init@%d>" ctx.pretty prefix line
        in
        let n = fresh b ~name:qname ~unit_name:ctx.unit_name pat.pat_loc in
        Hashtbl.replace ctx.anchors anchor n.id
  in
  let rec register_item prefix (item : Typedtree.structure_item) =
    match item.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) -> List.iter (register_binding prefix) vbs
    | Typedtree.Tstr_eval (_, _) ->
        let line = item.Typedtree.str_loc.Location.loc_start.Lexing.pos_lnum in
        let qname = Printf.sprintf "%s.%s<eval@%d>" ctx.pretty prefix line in
        let n =
          fresh b ~name:qname ~unit_name:ctx.unit_name item.Typedtree.str_loc
        in
        Hashtbl.replace ctx.anchors (loc_key item.Typedtree.str_loc) n.id
    | Typedtree.Tstr_module mb ->
        let mod_name =
          match mb.Typedtree.mb_id with
          | Some id -> Some (Ident.name id)
          | None -> None
        in
        register_module prefix mod_name mb.Typedtree.mb_expr
    | Typedtree.Tstr_include incl -> (
        match module_head ctx incl.Typedtree.incl_mod with
        | Some target ->
            List.iter
              (function
                | Types.Sig_value (id, _, _) ->
                    b.includes <-
                      ( ctx,
                        id,
                        ctx.pretty ^ "." ^ prefix ^ Ident.name id,
                        target ^ "." ^ Ident.name id )
                      :: b.includes
                | _ -> ())
              incl.Typedtree.incl_type
        | None -> ())
    | Typedtree.Tstr_recmodule mbs ->
        List.iter
          (fun (mb : Typedtree.module_binding) ->
            let mod_name =
              match mb.Typedtree.mb_id with
              | Some id -> Some (Ident.name id)
              | None -> None
            in
            register_module prefix mod_name mb.Typedtree.mb_expr)
          mbs
    | _ -> ()
  and register_module prefix mod_name (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure s ->
        let prefix' =
          match mod_name with
          | Some n -> prefix ^ n ^ "."
          | None -> prefix
        in
        List.iter (register_item prefix') s.Typedtree.str_items
    | Typedtree.Tmod_constraint (me, _, _, _) ->
        register_module prefix mod_name me
    | Typedtree.Tmod_functor (_, body) ->
        (* Functor bodies become nodes under the functor's own name;
           [module M = F (X)] aliases M to F, so [M.f] resolves to the
           (shared) body node [F.f]. *)
        register_module prefix mod_name body
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let bind (mb : Typedtree.module_binding) =
    Option.iter
      (fun id -> Alias.bind ctx.aliases id mb.Typedtree.mb_expr)
      mb.Typedtree.mb_id
  in
  let structure_item it (si : Typedtree.structure_item) =
    (match si.Typedtree.str_desc with
    | Typedtree.Tstr_module mb -> bind mb
    | Typedtree.Tstr_recmodule mbs -> List.iter bind mbs
    | _ -> ());
    default.Tast_iterator.structure_item it si
  in
  let expr it (e : Typedtree.expression) =
    (match (e.Typedtree.exp_desc, Types.get_desc e.Typedtree.exp_type) with
    | Typedtree.Texp_letmodule (Some id, _, _, me, _), _ -> Alias.bind ctx.aliases id me
    | Typedtree.Texp_pack me, Types.Tpackage (mty, _) ->
        Option.iter (fun head -> b.packs <- (mty_name ctx mty, ctx, head) :: b.packs)
          (module_head ctx me)
    | _ -> ());
    default.Tast_iterator.expr it e
  in
  let it = { default with Tast_iterator.expr; structure_item } in
  it.Tast_iterator.structure it str;
  List.iter (register_item "") str.Typedtree.str_items;
  b.ctxs <- (u, ctx) :: b.ctxs

(* After every unit is registered: an included value resolves to the
   included module's node, unless the including module rebinds it. *)
let link_includes b =
  List.iter
    (fun (ctx, id, qname, target) ->
      match Hashtbl.find_opt b.by_qname target with
      | Some n ->
          if not (Hashtbl.mem b.by_qname qname) then Hashtbl.replace b.by_qname qname n;
          if not (Hashtbl.mem ctx.idents (Ident.unique_name id)) then
            Hashtbl.replace ctx.idents (Ident.unique_name id) n
      | None -> ())
    b.includes

(* --- pass 2: walk bodies ------------------------------------------ *)

let resolve_name b ctx name =
  match Hashtbl.find_opt b.by_qname name with
  | Some id -> Some id
  | None ->
      (* same-unit nested module: [Persistent.launch] inside pool.ml
         is [Lr_parallel.Pool.Persistent.launch] *)
      Hashtbl.find_opt b.by_qname (ctx.pretty ^ "." ^ name)

let resolve b ctx path =
  match path with
  | Path.Pident id -> Hashtbl.find_opt ctx.idents (Ident.unique_name id)
  | _ -> resolve_name b ctx (Alias.qualify ctx.aliases path)

(* [E.f] through a module unpacked from a first-class value: [f] of
   every module packed at [E]'s module type. *)
let resolve_packed b ctx path =
  match path with
  | Path.Pdot (Path.Pident id, f) -> (
      match Hashtbl.find_opt ctx.unpacked (Ident.unique_name id) with
      | Some mty ->
          List.filter_map
            (fun (m, pctx, head) ->
              if String.equal m mty then resolve_name b pctx (head ^ "." ^ f) else None)
            b.packs
      | None -> [])
  | _ -> []

let node_of b id = Hashtbl.find b.by_id id

let label_key (lbl : Types.label_description) =
  let p = lbl.Types.lbl_loc.Location.loc_start in
  Printf.sprintf "field:%s:%d:%s" p.Lexing.pos_fname p.Lexing.pos_lnum
    lbl.Types.lbl_name

let ident_key ctx id = Printf.sprintf "%s/%s" ctx.unit_name (Ident.unique_name id)

let rec pattern_catches : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_exception _ -> true
  | Typedtree.Tpat_or (a, b, _) -> pattern_catches a || pattern_catches b
  | _ -> false

type walk_state = {
  b : builder;
  ctx : unit_ctx;
  mutable current : node;
  mutable try_depth : int;
  mutable in_handler : bool;
  (* (node id, unique ident name) allocated locally in that node *)
  local_allocs : (int * string, unit) Hashtbl.t;
}

let head_path (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, vd) -> Some (p, vd)
  | _ -> None

let record_edge st callee_id =
  let n = st.current in
  let under_try = st.try_depth > 0 in
  if
    not
      (List.exists
         (fun e -> e.callee = callee_id && Bool.equal e.under_try under_try)
         n.edges)
  then n.edges <- { callee = callee_id; under_try } :: n.edges

let record_mutation st ~target ~key loc =
  let n = st.current in
  if not (List.exists (fun m -> String.equal m.mut_key key) n.mutations) then
    n.mutations <-
      { target; mut_key = key; mut_loc = loc } :: n.mutations

let record_atomic st ~atom ~key loc =
  let n = st.current in
  n.atomics <- { atom; atom_key = key; atom_loc = loc } :: n.atomics

let mark_root st id kind =
  let n = node_of st.b id in
  match (n.root, kind) with
  | None, _ -> n.root <- Some kind
  | Some Parallel, Resident -> n.root <- Some Resident
  | Some _, _ -> ()

(* The mutated/accessed value in first-argument position.  A local
   ident allocated in the same node is private to one call frame, so
   writes to it are skipped. *)
let mutation_target st (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) ->
      if Hashtbl.mem st.local_allocs (st.current.id, Ident.unique_name id)
      then None
      else Some (Ident.name id, ident_key st.ctx id)
  | Typedtree.Texp_ident (p, _, _) ->
      Some (Path.last p, Walk.flatten_dunder (Path.name p))
  | Typedtree.Texp_field (_, _, lbl) ->
      Some (lbl.Types.lbl_name, label_key lbl)
  | _ -> None

(* Like [mutation_target] but node-local allocations still count:
   a function-local Atomic.t never shared is exactly L8's smell. *)
let atomic_target ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) ->
      Some (Ident.name id, ident_key ctx id)
  | Typedtree.Texp_ident (p, _, _) ->
      Some (Path.last p, Walk.flatten_dunder (Path.name p))
  | Typedtree.Texp_field (_, _, lbl) ->
      Some (lbl.Types.lbl_name, label_key lbl)
  | _ -> None

let is_alloc_expr (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_record _ | Typedtree.Texp_array _ -> true
  | Typedtree.Texp_apply (f, _) -> (
      match head_path f with
      | Some (p, _) -> List.mem (Path.name p) alloc_prims
      | None -> false)
  | _ -> false

(* A module bound by unpacking a first-class value of type [ty]. *)
let record_unpack ctx id ty =
  match Types.get_desc ty with
  | Types.Tpackage (mty, _) ->
      Hashtbl.replace ctx.unpacked (Ident.unique_name id) (mty_name ctx mty)
  | _ -> ()

(* [fun (module E : S) -> ...] binds [E] by a pattern, not a
   [let module]. *)
let walk_pat :
    type k. unit_ctx -> Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
 fun ctx it p ->
  (match p.Typedtree.pat_desc with
  | Typedtree.Tpat_alias (inner, id, _)
    when List.exists
           (function Typedtree.Tpat_unpack, _, _ -> true | _ -> false)
           inner.Typedtree.pat_extra ->
      record_unpack ctx id p.Typedtree.pat_type
  | _ -> ());
  Tast_iterator.default_iterator.Tast_iterator.pat it p

let rec walk_expr st it (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
      match resolve st.b st.ctx p with
      | Some id -> record_edge st id
      | None -> List.iter (record_edge st) (resolve_packed st.b st.ctx p))
  | Typedtree.Texp_letmodule
      (Some id, _, _, { Typedtree.mod_desc = Typedtree.Tmod_unpack (packed, _); _ }, _)
    ->
      record_unpack st.ctx id packed.Typedtree.exp_type;
      Tast_iterator.default_iterator.Tast_iterator.expr it e
  | Typedtree.Texp_apply (f, args) -> walk_apply st it e f args
  | Typedtree.Texp_try (body, cases) ->
      st.try_depth <- st.try_depth + 1;
      it.Tast_iterator.expr it body;
      st.try_depth <- st.try_depth - 1;
      let saved = st.in_handler in
      st.in_handler <- true;
      List.iter (walk_case st it) cases;
      st.in_handler <- saved
  | Typedtree.Texp_match (scrut, cases, _) ->
      it.Tast_iterator.expr it scrut;
      List.iter
        (fun (c : Typedtree.computation Typedtree.case) ->
          if pattern_catches c.Typedtree.c_lhs then (
            let saved = st.in_handler in
            st.in_handler <- true;
            walk_case st it c;
            st.in_handler <- saved)
          else walk_case st it c)
        cases
  | Typedtree.Texp_let (_, vbs, body) ->
      walk_let st it vbs;
      it.Tast_iterator.expr it body
  | Typedtree.Texp_setfield (lhs, _, lbl, rhs) ->
      (match lhs.Typedtree.exp_desc with
      | Typedtree.Texp_ident (Path.Pident id, _, _)
        when Hashtbl.mem st.local_allocs
               (st.current.id, Ident.unique_name id) ->
          ()
      | _ ->
          record_mutation st ~target:(lbl.Types.lbl_name ^ " field")
            ~key:(label_key lbl) e.Typedtree.exp_loc);
      it.Tast_iterator.expr it lhs;
      it.Tast_iterator.expr it rhs
  | _ -> Tast_iterator.default_iterator.Tast_iterator.expr it e

and walk_case :
    type k.
    walk_state -> Tast_iterator.iterator -> k Typedtree.case -> unit =
 fun _st it c ->
  (match c.Typedtree.c_guard with
  | Some g -> it.Tast_iterator.expr it g
  | None -> ());
  it.Tast_iterator.expr it c.Typedtree.c_rhs

and walk_let st it vbs =
  (* Function bindings become child nodes (registered first, so
     [let rec loop] and mutual recursion resolve); allocations feed
     the node-local set; anything else is walked in place. *)
  let children =
    List.filter_map
      (fun (vb : Typedtree.value_binding) ->
        match
          (vb.Typedtree.vb_pat.Typedtree.pat_desc, vb.Typedtree.vb_expr)
        with
        | ( (Typedtree.Tpat_var (id, name) | Typedtree.Tpat_alias (_, id, name)),
            ({ Typedtree.exp_desc = Typedtree.Texp_function _; _ } as rhs) )
          ->
            let qname = st.current.name ^ "." ^ name.Asttypes.txt in
            let n =
              fresh st.b ~name:qname ~unit_name:st.ctx.unit_name
                vb.Typedtree.vb_pat.Typedtree.pat_loc
            in
            Hashtbl.replace st.ctx.idents (Ident.unique_name id) n.id;
            Some (n, rhs)
        | _ -> None)
      vbs
  in
  List.iter
    (fun (vb : Typedtree.value_binding) ->
      match (vb.Typedtree.vb_pat.Typedtree.pat_desc, vb.Typedtree.vb_expr) with
      | _, { Typedtree.exp_desc = Typedtree.Texp_function _; _ } -> ()
      | ( (Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _)),
          rhs )
        when is_alloc_expr rhs ->
          Hashtbl.replace st.local_allocs
            (st.current.id, Ident.unique_name id)
            ();
          it.Tast_iterator.expr it rhs
      | _ -> it.Tast_iterator.expr it vb.Typedtree.vb_expr)
    vbs;
  List.iter (fun (n, rhs) -> walk_under st it n rhs) children

and walk_under st it n body =
  let saved_node = st.current in
  let saved_try = st.try_depth in
  let saved_handler = st.in_handler in
  st.current <- n;
  st.try_depth <- 0;
  st.in_handler <- false;
  it.Tast_iterator.expr it body;
  st.current <- saved_node;
  st.try_depth <- saved_try;
  st.in_handler <- saved_handler

and walk_apply st it e f args =
  (match head_path f with
  | Some (p, vd) -> (
      let full = Path.name p in
      match pool_root_kind p vd with
      | Some kind ->
          (* A domain-crossing entry: its function arguments run on
             other domains.  Closure literals become synthetic root
             nodes; idents resolve to root-marked nodes; if neither
             shape appears the enclosing node is the root. *)
          let marked = ref false in
          List.iter
            (fun ((_ : Asttypes.arg_label), arg) ->
              match arg with
              | Some
                  ({ Typedtree.exp_desc = Typedtree.Texp_function _; _ } as
                   fn) ->
                  let line =
                    fn.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum
                  in
                  let qname =
                    Printf.sprintf "%s.<fun@%d>" st.current.name line
                  in
                  let n =
                    fresh st.b ~name:qname ~unit_name:st.ctx.unit_name
                      fn.Typedtree.exp_loc
                  in
                  n.root <- Some kind;
                  record_edge st n.id;
                  marked := true;
                  walk_under st it n fn
              | Some { Typedtree.exp_desc = Typedtree.Texp_ident (ap, _, _); _ }
                -> (
                  match resolve st.b st.ctx ap with
                  | Some id ->
                      mark_root st id kind;
                      record_edge st id;
                      marked := true
                  | None -> ())
              | _ -> ())
            args;
          if not !marked then mark_root st st.current.id kind
      | None ->
          if is_spsc_entry p vd then
            (* Values handed through an SPSC ring cross domains: the
               function making the push/pop is on the crossing
               surface. *)
            mark_root st st.current.id Parallel
          else if List.mem full blocking_prims then
            st.current.blocking <-
              {
                prim = Walk.strip_stdlib full;
                site_loc = e.Typedtree.exp_loc;
              }
              :: st.current.blocking
          else if List.mem full raising_prims then
            st.current.raises <-
              {
                raise_prim = Walk.strip_stdlib full;
                deliberate = st.try_depth > 0 || st.in_handler;
                raise_loc = e.Typedtree.exp_loc;
              }
              :: st.current.raises
          else if List.mem full ref_assign_prims then (
            match Walk.first_explicit_arg args with
            | Some target -> (
                match mutation_target st target with
                | Some (display, key) ->
                    record_mutation st ~target:(display ^ " ref") ~key
                      e.Typedtree.exp_loc
                | None -> ())
            | None -> ())
          else if List.mem full container_mutator_prims then (
            match Walk.first_explicit_arg args with
            | Some target -> (
                match mutation_target st target with
                | Some (display, key) ->
                    let op = Walk.strip_stdlib full in
                    record_mutation st
                      ~target:(Printf.sprintf "%s (%s)" display op)
                      ~key e.Typedtree.exp_loc
                | None -> ())
            | None -> ())
          else if List.mem full atomic_prims then (
            match Walk.first_explicit_arg args with
            | Some target -> (
                match atomic_target st.ctx target with
                | Some (display, key) ->
                    record_atomic st ~atom:display ~key e.Typedtree.exp_loc
                | None -> ())
            | None -> ()))
  | None -> ());
  (* Walk children: the head (records the call edge via Texp_ident)
     and every argument not already walked as a synthetic root. *)
  let is_root_site =
    match head_path f with
    | Some (p, vd) -> (
        match pool_root_kind p vd with Some _ -> true | None -> false)
    | None -> false
  in
  it.Tast_iterator.expr it f;
  List.iter
    (fun ((_ : Asttypes.arg_label), arg) ->
      match arg with
      | Some ({ Typedtree.exp_desc = Typedtree.Texp_function _; _ })
        when is_root_site ->
          () (* walked above, under its synthetic node *)
      | Some a -> it.Tast_iterator.expr it a
      | None -> ())
    args

(* Toplevel traversal mirrors pass 1's shape, re-attaching to the
   registered nodes through the location anchors. *)
let walk_unit b (u : Cmt_unit.t) ctx (str : Typedtree.structure) =
  let st =
    {
      b;
      ctx;
      current =
        (* placeholder; replaced before any walk *)
        {
          id = -1;
          name = "<none>";
          unit_name = u.Cmt_unit.modname;
          file = "";
          line = 0;
          root = None;
          edges = [];
          blocking = [];
          raises = [];
          mutations = [];
          atomics = [];
        };
      try_depth = 0;
      in_handler = false;
      local_allocs = Hashtbl.create 32;
    }
  in
  let it =
    {
      Tast_iterator.default_iterator with
      Tast_iterator.expr = (fun it e -> walk_expr st it e);
      pat = (fun it p -> walk_pat ctx it p);
    }
  in
  let rec walk_item (item : Typedtree.structure_item) =
    match item.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match
              Hashtbl.find_opt ctx.anchors
                (loc_key vb.Typedtree.vb_pat.Typedtree.pat_loc)
            with
            | Some id ->
                walk_under st it (node_of b id) vb.Typedtree.vb_expr
            | None -> ())
          vbs
    | Typedtree.Tstr_eval (e, _) -> (
        match Hashtbl.find_opt ctx.anchors (loc_key item.Typedtree.str_loc) with
        | Some id ->
            let saved = st.current in
            st.current <- node_of b id;
            it.Tast_iterator.expr it e;
            st.current <- saved
        | None -> ())
    | Typedtree.Tstr_module mb -> walk_module mb.Typedtree.mb_expr
    | Typedtree.Tstr_recmodule mbs ->
        List.iter
          (fun (mb : Typedtree.module_binding) ->
            walk_module mb.Typedtree.mb_expr)
          mbs
    | _ -> ()
  and walk_module (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure s ->
        List.iter walk_item s.Typedtree.str_items
    | Typedtree.Tmod_constraint (me, _, _, _) -> walk_module me
    | Typedtree.Tmod_functor (_, body) -> walk_module body
    | _ -> ()
  in
  List.iter walk_item str.Typedtree.str_items

let build units =
  let b =
    {
      rev_nodes = [];
      next_id = 0;
      by_id = Hashtbl.create 256;
      by_qname = Hashtbl.create 256;
      ctxs = [];
      includes = [];
      packs = [];
    }
  in
  let with_structure =
    List.filter_map
      (fun (u : Cmt_unit.t) ->
        match u.Cmt_unit.structure with
        | Some s -> Some (u, s)
        | None -> None)
      units
  in
  List.iter (fun (u, s) -> register_unit b u s) with_structure;
  link_includes b;
  let ctx_of u =
    List.find_map
      (fun ((u' : Cmt_unit.t), ctx) ->
        if String.equal u'.Cmt_unit.modname u.Cmt_unit.modname then Some ctx
        else None)
      b.ctxs
  in
  List.iter
    (fun (u, s) ->
      match ctx_of u with
      | Some ctx -> walk_unit b u ctx s
      | None -> ())
    with_structure;
  let nodes = Array.of_list (List.rev b.rev_nodes) in
  Array.sort (fun a b -> Int.compare a.id b.id) nodes;
  { nodes }
