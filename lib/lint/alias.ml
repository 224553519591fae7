(* Keyed by the bound ident's unique name, so a functor parameter or a
   shadowing module that happens to share an alias's name is never
   confused with it. *)
type t = (string, string) Hashtbl.t

let create () = Hashtbl.create 16

let rec head (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_apply (f, _, _) | Typedtree.Tmod_constraint (f, _, _, _) -> head f
  | _ -> None

let rec qualify t (p : Path.t) =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt t (Ident.unique_name id) with
      | Some target -> target
      | None -> Walk.flatten_dunder (Ident.name id))
  | Path.Pdot (p, s) -> qualify t p ^ "." ^ s
  | Path.Papply (f, _) | Path.Pextra_ty (f, _) -> qualify t f

let bind t id me =
  Option.iter (fun p -> Hashtbl.replace t (Ident.unique_name id) (qualify t p)) (head me)
