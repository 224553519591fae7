type series = { label : string; value : float }

let bar width max_value value =
  if max_value <= 0.0 then ""
  else
    let n =
      int_of_float (Float.round (float_of_int width *. value /. max_value))
    in
    String.make (max 0 n) '#'

let render ?(width = 50) series =
  match series with
  | [] -> "(no data)\n"
  | _ ->
      let max_value =
        List.fold_left (fun m s -> Float.max m s.value) 0.0 series
      in
      let label_w =
        List.fold_left (fun m s -> max m (String.length s.label)) 0 series
      in
      let buf = Buffer.create 256 in
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "%-*s | %-*s %g\n" label_w s.label width
               (bar width max_value s.value)
               s.value))
        series;
      Buffer.contents buf

let of_int_series rows =
  List.map (fun (label, v) -> { label; value = float_of_int v }) rows

let render_compare ~labels rows =
  let width = 40 in
  match rows with
  | [] -> "(no data)\n"
  | _ ->
      let la, lb = labels in
      let max_value =
        List.fold_left (fun m (_, a, b) -> Float.max m (Float.max a b)) 0.0 rows
      in
      let label_w =
        List.fold_left (fun m (l, _, _) -> max m (String.length l)) 0 rows
      in
      let tag_w = max (String.length la) (String.length lb) in
      let buf = Buffer.create 256 in
      List.iter
        (fun (label, a, b) ->
          Buffer.add_string buf
            (Printf.sprintf "%-*s %-*s | %-*s %g\n" label_w label tag_w la width
               (bar width max_value a) a);
          Buffer.add_string buf
            (Printf.sprintf "%-*s %-*s | %-*s %g\n" label_w "" tag_w lb width
               (bar width max_value b) b))
        rows;
      Buffer.contents buf
