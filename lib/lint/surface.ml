(* Rule L9: the unused surface of the reported interfaces.

   Exports come from each reported unit's .cmti: every [val] of the
   interface, nested modules and functor results included, with the
   line of each optional parameter.  Uses come from the typed tree of
   every other unit: an identifier resolving to an export, an
   application supplying one of its optional arguments, and a module
   used whole.  An included module counts all its values; one packed
   as a first-class value, passed as a functor argument or sealed by a
   written signature counts the values of the signature asked of it,
   expanded in the environment the typed tree recorded there (all of
   them when it does not expand).  The coercions the type checker
   records cannot serve: a library module arrives behind dune's alias,
   as an alias coercion that names nothing.

   Names are dotted and unmangled ([Lr_graph.Node.compare]), with
   module aliases expanded by {!Alias}, as in {!Callgraph}. *)

type finding = { loc : Location.t; message : string }

type t = {
  exports : int;
  optionals : int;
  findings : finding list;
  test_only : string list;
}

type export = {
  name : string;
  owner : string;
  val_loc : Location.t;
  labels : (string * Location.t) list;
}

(* Who uses an export: a unit outside [test/] or inside the reported
   dirs ([Real]), or only units under [test/] outside them. *)
type reach = Real | Test

type tables = {
  exports_by_name : (string, export) Hashtbl.t;
  used : (string, reach) Hashtbl.t;
  (* (export name, label) *)
  supplied : (string * string, reach) Hashtbl.t;
}

(* --- exports ------------------------------------------------------ *)

let rec optional_labels (ct : Typedtree.core_type) =
  match ct.Typedtree.ctyp_desc with
  | Typedtree.Ttyp_arrow (Asttypes.Optional l, _, rest) ->
      (l, ct.Typedtree.ctyp_loc) :: optional_labels rest
  | Typedtree.Ttyp_arrow (_, _, rest) | Typedtree.Ttyp_poly (_, rest) ->
      optional_labels rest
  | _ -> []

let register_interface tables (u : Cmt_unit.t) (sg : Typedtree.signature) =
  let rec signature prefix (sg : Typedtree.signature) =
    List.iter (item prefix) sg.Typedtree.sig_items
  and item prefix (it : Typedtree.signature_item) =
    match it.Typedtree.sig_desc with
    | Typedtree.Tsig_value vd ->
        let name = prefix ^ "." ^ vd.Typedtree.val_name.Location.txt in
        Hashtbl.replace tables.exports_by_name name
          {
            name;
            owner = u.Cmt_unit.modname;
            val_loc = vd.Typedtree.val_loc;
            labels = optional_labels vd.Typedtree.val_desc;
          }
    | Typedtree.Tsig_module md -> module_decl prefix md
    | Typedtree.Tsig_recmodule mds -> List.iter (module_decl prefix) mds
    | _ -> ()
  and module_decl prefix (md : Typedtree.module_declaration) =
    match md.Typedtree.md_name.Location.txt with
    | Some m -> module_type (prefix ^ "." ^ m) md.Typedtree.md_type
    | None -> ()
  and module_type prefix (mty : Typedtree.module_type) =
    match mty.Typedtree.mty_desc with
    | Typedtree.Tmty_signature sg -> signature prefix sg
    | Typedtree.Tmty_functor (_, body) -> module_type prefix body
    | _ -> ()
  in
  signature u.Cmt_unit.pretty sg

let interface_of (u : Cmt_unit.t) =
  match Cmt_format.read_cmt (Filename.remove_extension u.Cmt_unit.cmt_path ^ ".cmti") with
  | { Cmt_format.cmt_annots = Cmt_format.Interface sg; _ } -> Some sg
  | _ -> None
  | exception _ -> None

(* --- uses --------------------------------------------------------- *)

let note tbl key reach =
  match (Hashtbl.find_opt tbl key, reach) with
  | Some Real, _ | Some Test, Test -> ()
  | _ -> Hashtbl.replace tbl key reach

type scope = { tables : tables; unit_name : string; reach : reach }

let use sc name =
  match Hashtbl.find_opt sc.tables.exports_by_name name with
  | Some e when not (String.equal e.owner sc.unit_name) ->
      note sc.tables.used name sc.reach
  | _ -> ()

let use_all sc modname =
  let prefix = modname ^ "." in
  Hashtbl.iter
    (fun name _ -> if String.starts_with ~prefix name then use sc name)
    sc.tables.exports_by_name

(* [mty] expanded in the summary environment [env] the typed tree
   recorded; unchanged when the environment cannot be rebuilt. *)
let scrape env mty =
  match Mtype.scrape (Envaux.env_of_only_summary env) mty with
  | mty -> mty
  | exception _ -> mty

(* A module used whole, where [target] is the signature asked of it:
   the values [target] names count as used (all of them when [target]
   does not expand to a signature). *)
let rec use_module sc modname env (target : Types.module_type) =
  match scrape env target with
  | Types.Mty_signature sg ->
      List.iter
        (function
          | Types.Sig_value (id, _, _) -> use sc (modname ^ "." ^ Ident.name id)
          | Types.Sig_module (id, _, md, _, _) ->
              use_module sc (modname ^ "." ^ Ident.name id) env md.Types.md_type
          | _ -> ())
        sg
  | _ -> use_all sc modname

(* An omitted optional argument of a full application is filled in by
   the type checker as a [None] with no location. *)
let supplies (e : Typedtree.expression) =
  not e.Typedtree.exp_loc.Location.loc_ghost

let scan_unit tables ~reach (u : Cmt_unit.t) (str : Typedtree.structure) =
  let sc = { tables; unit_name = u.Cmt_unit.modname; reach } in
  let aliases = Alias.create () in
  let qualify = Alias.qualify aliases in
  let default = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> use sc (qualify p)
    | Typedtree.Texp_apply
        ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
        let name = qualify p in
        List.iter
          (function
            | Asttypes.Optional l, Some a when supplies a ->
                note tables.supplied (name, l) reach
            | _ -> ())
          args
    | Typedtree.Texp_letmodule (Some id, _, _, me, _) -> Alias.bind aliases id me
    | Typedtree.Texp_pack me -> (
        match (Alias.head me, Types.get_desc e.Typedtree.exp_type) with
        | Some p, Types.Tpackage (mty, _) ->
            use_module sc (qualify p) e.Typedtree.exp_env (Types.Mty_ident mty)
        | _ -> ())
    | _ -> ());
    default.Tast_iterator.expr it e
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.Typedtree.mod_desc with
    | Typedtree.Tmod_apply (f, arg, _) -> (
        match (Alias.head arg, scrape arg.Typedtree.mod_env f.Typedtree.mod_type) with
        | Some p, Types.Mty_functor (Types.Named (_, param), _) ->
            use_module sc (qualify p) arg.Typedtree.mod_env param
        | Some p, _ -> use_all sc (qualify p)
        | None, _ -> ())
    | Typedtree.Tmod_constraint (arg, mty, Typedtree.Tmodtype_explicit _, _) -> (
        match Alias.head arg with
        | Some p -> use_module sc (qualify p) arg.Typedtree.mod_env mty
        | None -> ())
    | _ -> ());
    default.Tast_iterator.module_expr it me
  in
  let structure_item it (si : Typedtree.structure_item) =
    (match si.Typedtree.str_desc with
    | Typedtree.Tstr_module { Typedtree.mb_id = Some id; mb_expr; _ } ->
        Alias.bind aliases id mb_expr
    | Typedtree.Tstr_include { Typedtree.incl_mod; _ } ->
        Option.iter (fun p -> use_all sc (qualify p)) (Alias.head incl_mod)
    | _ -> ());
    default.Tast_iterator.structure_item it si
  in
  let it = { default with Tast_iterator.expr; module_expr; structure_item } in
  it.Tast_iterator.structure it str

(* --- the rule ----------------------------------------------------- *)

let short name =
  (* drop the library wrapper: [Lr_service.Shard.id] -> [Shard.id] *)
  match String.index_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let analyse ~report_dirs units =
  let tables =
    {
      exports_by_name = Hashtbl.create 1024;
      used = Hashtbl.create 1024;
      supplied = Hashtbl.create 128;
    }
  in
  List.iter
    (fun u ->
      if Cmt_unit.in_dirs report_dirs u then
        Option.iter (register_interface tables u) (interface_of u))
    units;
  List.iter
    (fun (u : Cmt_unit.t) ->
      match u.Cmt_unit.structure with
      | Some str when Option.is_some u.Cmt_unit.source ->
          let reach =
            if Cmt_unit.in_dirs [ "test" ] u && not (Cmt_unit.in_dirs report_dirs u)
            then Test
            else Real
          in
          scan_unit tables ~reach u str
      | _ -> ())
    units;
  let exports =
    List.sort
      (fun a b -> String.compare a.name b.name)
      (Hashtbl.fold (fun _ e acc -> e :: acc) tables.exports_by_name [])
  in
  let findings = ref [] and test_only = ref [] in
  let flag loc message = findings := { loc; message } :: !findings in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tables.used e.name with
      | None ->
          flag e.val_loc
            (Printf.sprintf "%s is exported but no other unit uses it" (short e.name))
      | Some reach ->
          (match reach with
          | Test -> test_only := short e.name :: !test_only
          | Real -> ());
          List.iter
            (fun (l, loc) ->
              match Hashtbl.find_opt tables.supplied (e.name, l) with
              | None ->
                  flag loc
                    (Printf.sprintf
                       "optional argument ?%s of %s is never passed by another unit"
                       l (short e.name))
              | Some Test ->
                  test_only := Printf.sprintf "%s ?%s" (short e.name) l :: !test_only
              | Some Real -> ())
            e.labels)
    exports;
  {
    exports = List.length exports;
    optionals = List.fold_left (fun acc e -> acc + List.length e.labels) 0 exports;
    findings = List.rev !findings;
    test_only = List.rev !test_only;
  }
