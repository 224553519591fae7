type t = { headers : string list; rows : string list list }

let make ~headers rows =
  let width = List.length headers in
  List.iter
    (fun row ->
      if List.length row <> width then
        invalid_arg "Table.make: row width mismatch")
    rows;
  { headers; rows }

let column_widths t =
  List.fold_left
    (fun widths row -> List.map2 (fun w cell -> max w (String.length cell)) widths row)
    (List.map String.length t.headers)
    t.rows

let render t =
  let widths = column_widths t in
  let buf = Buffer.create 256 in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let emit_row row =
    let cells = List.map2 pad row widths in
    Buffer.add_string buf ("| " ^ String.concat " | " cells ^ " |\n")
  in
  let rule =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+\n"
  in
  Buffer.add_string buf rule;
  emit_row t.headers;
  Buffer.add_string buf rule;
  List.iter emit_row t.rows;
  Buffer.add_string buf rule;
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let line row = String.concat "," (List.map csv_escape row) ^ "\n" in
  String.concat "" (line t.headers :: List.map line t.rows)

let print ?title t =
  let ppf = Format.std_formatter in
  (match title with
  | Some s ->
      Format.fprintf ppf "%s@\n%s@\n" s (String.make (String.length s) '=')
  | None -> ());
  Format.pp_print_string ppf (render t);
  (* flush so output interleaves correctly with direct [Printf] users *)
  Format.pp_print_flush ppf ()
