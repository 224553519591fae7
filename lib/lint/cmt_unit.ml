type t = {
  cmt_path : string;
  modname : string;
  pretty : string;
  source : string option;
  structure : Typedtree.structure option;
}

(* [None] for unreadable cmts and dune-generated alias units. *)
let load_file cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None
  | cmt -> (
      match cmt.Cmt_format.cmt_sourcefile with
      (* .ml-gen units are dune's generated alias modules *)
      | Some s when Filename.check_suffix s ".ml-gen" -> None
      | source ->
          let structure =
            match cmt.Cmt_format.cmt_annots with
            | Cmt_format.Implementation s -> Some s
            | _ -> None
          in
          Some
            {
              cmt_path;
              modname = cmt.Cmt_format.cmt_modname;
              pretty = Walk.flatten_dunder cmt.Cmt_format.cmt_modname;
              source;
              structure;
            })

let is_dir p =
  match Sys.is_directory p with d -> d | exception Sys_error _ -> false

(* Walks a dune build tree collecting .cmt files and every directory
   holding .cmi files (the latter feed [Load_path] so cmt summary envs
   can be rebuilt). *)
let load_tree build_dir =
  let cmts = ref [] in
  let cmi_dirs = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        let has_cmi = ref false in
        Array.iter
          (fun name ->
            let p = Filename.concat dir name in
            if is_dir p then walk p
            else if Filename.check_suffix name ".cmt" then
              cmts := p :: !cmts
            else if Filename.check_suffix name ".cmi" then has_cmi := true)
          entries;
        if !has_cmi then cmi_dirs := dir :: !cmi_dirs
  in
  walk build_dir;
  let seen = Hashtbl.create 64 in
  let units =
    List.filter_map
      (fun path ->
        match load_file path with
        | None -> None
        | Some u ->
            let k = (u.modname, u.source) in
            if Hashtbl.mem seen k then None
            else (
              Hashtbl.replace seen k ();
              Some u))
      (List.sort String.compare !cmts)
  in
  (units, List.sort String.compare !cmi_dirs)

let in_dirs dirs u =
  match u.source with
  | None -> false
  | Some s ->
      List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") s) dirs
