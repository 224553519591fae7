(* The file format carries rule and file per entry for the human
   reading the baseline; only the key matters for suppression. *)
type t = string list

let version = 1

let save path diags =
  let entries =
    List.map
      (fun (d : Diagnostic.t) ->
        Json.Obj
          [
            ("rule", Json.Str (Rule.id d.Diagnostic.rule));
            ("file", Json.Str d.Diagnostic.file);
            ("key", Json.Str d.Diagnostic.key);
          ])
      diags
  in
  let doc =
    Json.Obj
      [
        ("generated_by", Json.Str "linkrev lint --write-baseline");
        ("version", Json.Int version);
        ("findings", Json.Arr entries);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string doc))

let entry_of_json j =
  match
    ( Option.bind (Json.member "rule" j) Json.to_str,
      Option.bind (Json.member "file" j) Json.to_str,
      Option.bind (Json.member "key" j) Json.to_str )
  with
  | Some _, Some _, Some key -> Ok key
  | _ -> Error "baseline entry needs string fields rule, file, key"

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.parse text with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok doc -> (
          match Option.bind (Json.member "findings" doc) Json.to_list with
          | None -> Error (Printf.sprintf "%s: no \"findings\" array" path)
          | Some items ->
              let rec convert acc items =
                match items with
                | [] -> Ok (List.rev acc)
                | item :: rest -> (
                    match entry_of_json item with
                    | Error e -> Error (Printf.sprintf "%s: %s" path e)
                    | Ok e -> convert (e :: acc) rest)
              in
              convert [] items))

(* A finding is suppressed when its key matches a baseline entry; each
   entry suppresses at most one finding, so reintroducing a second copy
   of a baselined defect is still reported. *)
let apply t diags =
  let remaining = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let n =
        match Hashtbl.find_opt remaining key with None -> 0 | Some k -> k
      in
      Hashtbl.replace remaining key (n + 1))
    t;
  let kept, suppressed =
    List.fold_left
      (fun (kept, suppressed) (d : Diagnostic.t) ->
        match Hashtbl.find_opt remaining d.Diagnostic.key with
        | Some n when n > 0 ->
            Hashtbl.replace remaining d.Diagnostic.key (n - 1);
            (kept, suppressed + 1)
        | _ -> (d :: kept, suppressed))
      ([], 0) diags
  in
  (List.rev kept, suppressed)
