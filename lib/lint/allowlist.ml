type entry = { rule : Rule.t option; pattern : string; mutable used : bool }
type t = entry list

let empty = []

let matches pattern name =
  if String.ends_with ~suffix:"*" pattern then
    String.starts_with
      ~prefix:(String.sub pattern 0 (String.length pattern - 1))
      name
  else String.equal pattern name

let mem t ~rule name =
  List.exists
    (fun e ->
      let hit =
        (match e.rule with None -> true | Some r -> Rule.equal r rule)
        && matches e.pattern name
      in
      if hit then e.used <- true;
      hit)
    t

let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let words =
    List.filter
      (fun w -> not (String.equal w ""))
      (String.split_on_char ' ' (String.trim line))
  in
  match words with
  | [] -> Ok None
  | [ pattern ] -> Ok (Some { rule = None; pattern; used = false })
  | [ rule_word; pattern ] -> (
      match Rule.of_string rule_word with
      | Some r -> Ok (Some { rule = Some r; pattern; used = false })
      | None ->
          Error
            (Printf.sprintf "line %d: unknown rule %S (expected L1..L8)" lineno
               rule_word))
  | _ ->
      Error
        (Printf.sprintf "line %d: expected '<pattern>' or '<rule> <pattern>'"
           lineno)

let of_lines lines =
  let rec loop lineno acc lines =
    match lines with
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line lineno line with
        | Error e -> Error e
        | Ok None -> loop (lineno + 1) acc rest
        | Ok (Some e) -> loop (lineno + 1) (e :: acc) rest)
  in
  loop 1 [] lines

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match of_lines (String.split_on_char '\n' text) with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok t -> Ok t)

let unused t =
  List.filter_map
    (fun e ->
      if e.used then None
      else
        Some
          (match e.rule with
          | Some r -> Rule.id r ^ " " ^ e.pattern
          | None -> e.pattern))
    t
