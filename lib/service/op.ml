type t =
  | Route of { shard : int; src : int }
  | Link_down of { shard : int; u : int; v : int }
  | Link_up of { shard : int; u : int; v : int }
  | Crash_destination of { shard : int }
  | Inject of { shard : int; src : int; count : int }
  | Forward of { shard : int; slots : int }
  | Corrupt of { shard : int; seed : int; magnitude : int }
  | Flip of { shard : int; node : int; bit : int }
  | Stats

let shard_of = function
  | Route { shard; _ }
  | Link_down { shard; _ }
  | Link_up { shard; _ }
  | Crash_destination { shard }
  | Inject { shard; _ }
  | Forward { shard; _ }
  | Corrupt { shard; _ }
  | Flip { shard; _ } ->
      Some shard
  | Stats -> None

type response =
  | Path of int list
  | No_route
  | Repaired of { node_steps : int }
  | Cut of { lost : int }
  | Linked of { node_steps : int }
  | New_destination of { leader : int; node_steps : int }
  | Injected of { accepted : int; dropped : int }
  | Forwarded of { delivered : int; reversals : int; queued : int; hops : int }
  | Healed of { node_steps : int }
  | Noop
  | Snapshot of Metrics.totals
  | Rejected of [ `Overloaded ]

let to_line = function
  | Route { shard; src } -> Printf.sprintf "route %d %d" shard src
  | Link_down { shard; u; v } -> Printf.sprintf "down %d %d %d" shard u v
  | Link_up { shard; u; v } -> Printf.sprintf "up %d %d %d" shard u v
  | Crash_destination { shard } -> Printf.sprintf "crash %d" shard
  | Inject { shard; src; count } -> Printf.sprintf "inject %d %d %d" shard src count
  | Forward { shard; slots } -> Printf.sprintf "forward %d %d" shard slots
  | Corrupt { shard; seed; magnitude } ->
      Printf.sprintf "corrupt %d %d %d" shard seed magnitude
  | Flip { shard; node; bit } -> Printf.sprintf "flip %d %d %d" shard node bit
  | Stats -> "stats"

let of_line line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  let int w = int_of_string_opt w in
  match words with
  | [ "route"; s; src ] -> (
      match (int s, int src) with
      | Some shard, Some src -> Ok (Route { shard; src })
      | _ -> Error (Printf.sprintf "bad route line %S" line))
  | [ "down"; s; u; v ] -> (
      match (int s, int u, int v) with
      | Some shard, Some u, Some v -> Ok (Link_down { shard; u; v })
      | _ -> Error (Printf.sprintf "bad down line %S" line))
  | [ "up"; s; u; v ] -> (
      match (int s, int u, int v) with
      | Some shard, Some u, Some v -> Ok (Link_up { shard; u; v })
      | _ -> Error (Printf.sprintf "bad up line %S" line))
  | [ "crash"; s ] -> (
      match int s with
      | Some shard -> Ok (Crash_destination { shard })
      | None -> Error (Printf.sprintf "bad crash line %S" line))
  | [ "inject"; s; src; k ] -> (
      match (int s, int src, int k) with
      | Some shard, Some src, Some count -> Ok (Inject { shard; src; count })
      | _ -> Error (Printf.sprintf "bad inject line %S" line))
  | [ "forward"; s; k ] -> (
      match (int s, int k) with
      | Some shard, Some slots -> Ok (Forward { shard; slots })
      | _ -> Error (Printf.sprintf "bad forward line %S" line))
  | [ "corrupt"; s; seed; m ] -> (
      match (int s, int seed, int m) with
      | Some shard, Some seed, Some magnitude ->
          Ok (Corrupt { shard; seed; magnitude })
      | _ -> Error (Printf.sprintf "bad corrupt line %S" line))
  | [ "flip"; s; u; b ] -> (
      match (int s, int u, int b) with
      | Some shard, Some node, Some bit -> Ok (Flip { shard; node; bit })
      | _ -> Error (Printf.sprintf "bad flip line %S" line))
  | [ "stats" ] -> Ok Stats
  | _ -> Error (Printf.sprintf "unknown op line %S" line)

let response_to_string = function
  | Path nodes -> "path " ^ String.concat ">" (List.map string_of_int nodes)
  | No_route -> "no-route"
  | Repaired { node_steps } -> Printf.sprintf "repaired %d" node_steps
  | Cut { lost } -> Printf.sprintf "cut %d" lost
  | Linked { node_steps } -> Printf.sprintf "linked %d" node_steps
  | New_destination { leader; node_steps } ->
      Printf.sprintf "new-destination %d %d" leader node_steps
  | Injected { accepted; dropped } -> Printf.sprintf "injected %d %d" accepted dropped
  | Forwarded { delivered; reversals; queued; hops } ->
      Printf.sprintf "forwarded %d %d %d %d" delivered reversals queued hops
  | Healed { node_steps } -> Printf.sprintf "healed %d" node_steps
  | Noop -> "noop"
  | Snapshot totals -> "snapshot " ^ Metrics.totals_line totals
  | Rejected `Overloaded -> "rejected overloaded"

