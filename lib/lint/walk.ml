(* Facts are extracted with the resolved [Path.t] of each identifier:
   stdlib values always resolve through the [Stdlib] unit (even when
   referenced bare), so a user-defined [compare] shadowing the
   polymorphic one never fires. *)

type poly_app = {
  op : string;
  arg_type : string;
  exempt : bool;
  app_loc : Location.t;
}

type forbidden = { construct : string; forbid_loc : Location.t }

type mutable_binding = {
  binding : string;
  kind : string;
  bind_loc : Location.t;
}

type facts = {
  poly_apps : poly_app list;
  forbiddens : forbidden list;
  mutables : mutable_binding list;
}

type env_resolver = Env.t -> Env.t

(* --- names ------------------------------------------------------- *)

let flatten_dunder s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && Char.equal s.[!i] '_' && Char.equal s.[!i + 1] '_' then (
      Buffer.add_char b '.';
      i := !i + 2)
    else (
      Buffer.add_char b s.[!i];
      incr i)
  done;
  Buffer.contents b

let stdlib_prefix = "Stdlib."

let strip_stdlib s =
  if String.starts_with ~prefix:stdlib_prefix s then
    String.sub s (String.length stdlib_prefix)
      (String.length s - String.length stdlib_prefix)
  else s

let normalize p = strip_stdlib (flatten_dunder (Path.name p))

(* Polymorphic structural operations: flagged when the first argument's
   type is not an immediate/primitive type. *)
let poly_ops =
  [
    "=";
    "<>";
    "compare";
    "<";
    ">";
    "<=";
    ">=";
    "min";
    "max";
    "Hashtbl.hash";
    "List.mem";
    "List.assoc";
    "List.mem_assoc";
  ]

let forbidden_apps =
  [
    "Printf.printf";
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "Format.printf";
    "Format.print_string";
    "Format.print_newline";
    "exit";
  ]

(* Flagged on sight, application or not. *)
let forbidden_idents = [ "Obj.magic" ]

let stdlib_value path set =
  let name = Path.name path in
  String.starts_with ~prefix:stdlib_prefix name
  && List.mem (strip_stdlib name) set

(* --- types ------------------------------------------------------- *)

let expand resolve env ty =
  match Ctype.expand_head (resolve env) ty with
  | ty' -> ty'
  | exception _ -> ty

let exempt_bases =
  [
    "int";
    "bool";
    "char";
    "unit";
    "float";
    "string";
    "bytes";
    "int32";
    "int64";
    "nativeint";
  ]

let rec type_exempt resolve env depth ty =
  depth < 4
  &&
  let ty = expand resolve env ty in
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> List.mem (normalize p) exempt_bases
  | Types.Ttuple tys -> List.for_all (type_exempt resolve env (depth + 1)) tys
  | _ -> false

let mutable_containers =
  [
    "ref";
    "array";
    "bytes";
    "Hashtbl.t";
    "Buffer.t";
    "Queue.t";
    "Stack.t";
    "Atomic.t";
    "Random.State.t";
  ]

let decl_has_mutable_field (decl : Types.type_declaration) =
  match decl.Types.type_kind with
  | Types.Type_record (lds, _) ->
      List.exists
        (fun (ld : Types.label_declaration) ->
          match ld.Types.ld_mutable with
          | Asttypes.Mutable -> true
          | Asttypes.Immutable -> false)
        lds
  | _ -> false

(* [local_mutable_records] backs up the env lookup when .cmi resolution
   is unavailable: last components of record types declared in this unit
   with mutable fields. *)
let rec mutable_kind resolve env local_mutable_records depth ty =
  if depth >= 4 then None
  else
    let ty = expand resolve env ty in
    match Types.get_desc ty with
    | Types.Tconstr (p, _, _) -> (
        let name = normalize p in
        if List.mem name mutable_containers then Some name
        else
          match Env.find_type p (resolve env) with
          | decl ->
              if decl_has_mutable_field decl then
                Some "record with mutable field(s)"
              else None
          | exception _ ->
              if List.mem (Path.last p) local_mutable_records then
                Some "record with mutable field(s)"
              else None)
    | Types.Ttuple tys ->
        List.find_map
          (mutable_kind resolve env local_mutable_records (depth + 1))
          tys
    | _ -> None

(* --- expression-level facts -------------------------------------- *)

let first_explicit_arg args =
  List.find_map (fun (_, arg) -> arg) args

let collect_exprs resolve structure =
  let poly_apps = ref [] in
  let forbiddens = ref [] in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) when stdlib_value p forbidden_idents ->
        forbiddens :=
          { construct = strip_stdlib (Path.name p); forbid_loc = e.exp_loc }
          :: !forbiddens
    | Typedtree.Texp_apply (f, args) -> (
        match f.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) ->
            if stdlib_value p poly_ops then (
              match first_explicit_arg args with
              | Some arg ->
                  let ty = arg.Typedtree.exp_type in
                  poly_apps :=
                    {
                      op = strip_stdlib (Path.name p);
                      arg_type =
                        Format.asprintf "%a" Printtyp.type_expr ty;
                      exempt =
                        type_exempt resolve arg.Typedtree.exp_env 0 ty;
                      app_loc = e.exp_loc;
                    }
                    :: !poly_apps
              | None -> ())
            else if stdlib_value p forbidden_apps then
              forbiddens :=
                {
                  construct = strip_stdlib (Path.name p);
                  forbid_loc = e.exp_loc;
                }
                :: !forbiddens
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.Tast_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with Tast_iterator.expr } in
  it.Tast_iterator.structure it structure;
  (List.rev !poly_apps, List.rev !forbiddens)

(* --- toplevel mutable state -------------------------------------- *)

let local_mutable_record_names structure =
  let names = ref [] in
  let rec scan_item (item : Typedtree.structure_item) =
    match item.Typedtree.str_desc with
    | Typedtree.Tstr_type (_, decls) ->
        List.iter
          (fun (d : Typedtree.type_declaration) ->
            match d.Typedtree.typ_kind with
            | Typedtree.Ttype_record lds ->
                if
                  List.exists
                    (fun (ld : Typedtree.label_declaration) ->
                      match ld.Typedtree.ld_mutable with
                      | Asttypes.Mutable -> true
                      | Asttypes.Immutable -> false)
                    lds
                then names := d.Typedtree.typ_name.Asttypes.txt :: !names
            | _ -> ())
          decls
    | Typedtree.Tstr_module mb -> scan_module mb.Typedtree.mb_expr
    | _ -> ()
  and scan_module (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure s ->
        List.iter scan_item s.Typedtree.str_items
    | Typedtree.Tmod_constraint (me, _, _, _) -> scan_module me
    | _ -> ()
  in
  List.iter scan_item structure.Typedtree.str_items;
  !names

let collect_mutables resolve structure =
  let records = local_mutable_record_names structure in
  let acc = ref [] in
  let rec scan_item prefix (item : Typedtree.structure_item) =
    match item.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match vb.Typedtree.vb_pat.Typedtree.pat_desc with
            (* [let x : t = e] desugars to an alias pattern *)
            | Typedtree.Tpat_var (_, name)
            | Typedtree.Tpat_alias (_, _, name) -> (
                let e = vb.Typedtree.vb_expr in
                match
                  mutable_kind resolve e.Typedtree.exp_env records 0
                    e.Typedtree.exp_type
                with
                | Some kind ->
                    acc :=
                      {
                        binding = prefix ^ name.Asttypes.txt;
                        kind;
                        bind_loc = vb.Typedtree.vb_pat.Typedtree.pat_loc;
                      }
                      :: !acc
                | None -> ())
            | _ -> ())
          vbs
    | Typedtree.Tstr_module mb ->
        let sub =
          match mb.Typedtree.mb_id with
          | Some id -> prefix ^ Ident.name id ^ "."
          | None -> prefix
        in
        scan_module sub mb.Typedtree.mb_expr
    | _ -> ()
  and scan_module prefix (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure s ->
        List.iter (scan_item prefix) s.Typedtree.str_items
    | Typedtree.Tmod_constraint (me, _, _, _) -> scan_module prefix me
    | _ -> ()
  in
  List.iter (scan_item "") structure.Typedtree.str_items;
  List.rev !acc

let of_structure resolve structure =
  let poly_apps, forbiddens = collect_exprs resolve structure in
  let mutables = collect_mutables resolve structure in
  { poly_apps; forbiddens; mutables }
