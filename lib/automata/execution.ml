type ('s, 'a) step = { before : 's; action : 'a; after : 's }

type ('s, 'a) t = {
  automaton : ('s, 'a) Automaton.t;
  init : 's;
  steps : ('s, 'a) step list;
}

let run_within ~max_steps ~scheduler (aut : ('s, 'a) Automaton.t) init =
  let rec loop s steps n =
    if n >= max_steps then List.rev steps
    else
      match scheduler s (aut.Automaton.enabled s) with
      | None -> List.rev steps
      | Some a ->
          let s' = aut.Automaton.step s a in
          loop s' ({ before = s; action = a; after = s' } :: steps) (n + 1)
  in
  { automaton = aut; init; steps = loop init [] 0 }

let run ?(max_steps = 100_000) ~scheduler aut =
  run_within ~max_steps ~scheduler aut aut.Automaton.initial

let run_from ~scheduler aut init = run_within ~max_steps:100_000 ~scheduler aut init

let final e =
  match List.rev e.steps with [] -> e.init | { after; _ } :: _ -> after

let length e = List.length e.steps
let states e = e.init :: List.map (fun st -> st.after) e.steps
let actions e = List.map (fun st -> st.action) e.steps
let quiescent e =
  match e.automaton.Automaton.enabled (final e) with
  | [] -> true
  | _ :: _ -> false

let replay (aut : ('s, 'a) Automaton.t) init actions =
  let rec loop s steps i = function
    | [] -> Ok { automaton = aut; init; steps = List.rev steps }
    | a :: rest ->
        if not (aut.Automaton.is_enabled s a) then
          Error
            (Format.asprintf "%s: action %a disabled at step %d"
               aut.Automaton.name aut.Automaton.pp_action a i)
        else
          let s' = aut.Automaton.step s a in
          loop s' ({ before = s; action = a; after = s' } :: steps) (i + 1)
            rest
  in
  loop init [] 0 actions
