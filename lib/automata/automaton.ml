type ('s, 'a) t = {
  name : string;
  initial : 's;
  enabled : 's -> 'a list;
  step : 's -> 'a -> 's;
  is_enabled : 's -> 'a -> bool;
  equal_state : 's -> 's -> bool;
  pp_state : Format.formatter -> 's -> unit;
  pp_action : Format.formatter -> 'a -> unit;
}

let opaque what ppf _ = Format.fprintf ppf "<%s>" what

let make ~name ~initial ~enabled ~step ?is_enabled ?equal_state ?pp_state
    ?pp_action () =
  let is_enabled =
    match is_enabled with
    | Some f -> f
    | None ->
        let eq_action = ( = ) in
        fun s a -> List.exists (eq_action a) (enabled s)
  in
  {
    name;
    initial;
    enabled;
    step;
    is_enabled;
    equal_state = Option.value ~default:( = ) equal_state;
    pp_state = Option.value ~default:(opaque "state") pp_state;
    pp_action = Option.value ~default:(opaque "action") pp_action;
  }

let quiescent t s = match t.enabled s with [] -> true | _ :: _ -> false

let fold_reachable ?(max_states = 1_000_000) ~key t ~init ~f =
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  Hashtbl.replace seen (key t.initial) ();
  Queue.add t.initial queue;
  let acc = ref (f init t.initial) in
  let exception Too_many in
  try
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      List.iter
        (fun a ->
          let s' = t.step s a in
          let k = key s' in
          if not (Hashtbl.mem seen k) then begin
            if Hashtbl.length seen >= max_states then raise Too_many;
            Hashtbl.replace seen k ();
            acc := f !acc s';
            Queue.add s' queue
          end)
        (t.enabled s)
    done;
    Ok !acc
  with Too_many ->
    Error
      (Printf.sprintf "%s: more than %d reachable states" t.name max_states)

let iter_reachable ?max_states ~key t ~f =
  fold_reachable ?max_states ~key t ~init:() ~f:(fun () s -> f s)

let reachable ?max_states ~key t =
  Result.map List.rev
    (fold_reachable ?max_states ~key t ~init:[] ~f:(fun acc s -> s :: acc))
