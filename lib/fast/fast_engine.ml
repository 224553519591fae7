type rule = Partial | Full | New_pr

type outcome = {
  work : int;
  steps_per_node : int array;
  edge_reversals : int;
  quiescent : bool;
  destination_oriented : bool;
}

type sink = {
  on_step : int -> unit;
  on_flip : int -> int -> int -> unit;
  on_dummy : int -> unit;
  on_stale : int -> unit;
}

(* What a rule remembers between steps besides the orientation: PR's
   [list[u]] as a bit per slot plus its size; nothing for FR; NewPR's
   per-node counter and its two static reversal sets, the slots of the
   initially incoming (even parity) and outgoing (odd) edges. *)
type memory =
  | Lists of { listed : bool array array; list_count : int array }
  | Stateless
  | Parity of { counts : int array; init_in : int array array; init_out : int array array }

type t = {
  core : Fast_graph.t;
  memory : memory;
  out_ : bool array array;
      (** [out_.(u).(i)]: edge to [core.nbrs.(u).(i)] currently
          outgoing.  Invariant: [out_.(u).(i) = not
          out_.(w).(mirror.(u).(i))]. *)
  in_deg : int array;
  queued : bool array;
  queue : int Queue.t;
  steps_per_node : int array;
  mutable work : int;
  mutable edge_reversals : int;
  mutable sink : sink option;
      (** Observation callbacks; [None] (the default) is a single dead
          branch per notification point. *)
}

let degree t u = Fast_graph.degree t.core u
let set_sink t sink = t.sink <- sink
let fingerprint t = Fast_graph.fingerprint t.core t.out_

let count t u =
  match t.memory with Parity { counts; _ } -> counts.(u) | Lists _ | Stateless -> 0

let is_sink t u =
  let d = degree t u in
  d > 0 && t.in_deg.(u) = d

let enqueue_if_sink t u =
  if (not t.queued.(u)) && u <> t.core.Fast_graph.destination && is_sink t u
  then begin
    t.queued.(u) <- true;
    Queue.add u t.queue
  end

let of_core rule core =
  let n = core.Fast_graph.n in
  let memory =
    match rule with
    | Partial ->
        let listed = Array.init n (fun u -> Array.make (Fast_graph.degree core u) false) in
        Lists { listed; list_count = Array.make n 0 }
    | Full -> Stateless
    | New_pr ->
        let slots = Fast_graph.initial_slots core in
        Parity { counts = Array.make n 0; init_in = slots false; init_out = slots true }
  in
  let t =
    {
      core;
      memory;
      out_ = Fast_graph.initial_out core;
      in_deg = Fast_graph.initial_in_degree core;
      queued = Array.make n false;
      queue = Queue.create ();
      steps_per_node = Array.make n 0;
      work = 0;
      edge_reversals = 0;
      sink = None;
    }
  in
  for u = 0 to n - 1 do
    enqueue_if_sink t u
  done;
  t

let create rule inst = of_core rule (Fast_graph.of_instance inst)
let of_config rule config = of_core rule (Fast_graph.of_config config)

(* Reverse slot [i] of sink [u]: the edge becomes outgoing at [u]. *)
let flip t u i =
  let w = t.core.Fast_graph.nbrs.(u).(i) in
  let j = t.core.Fast_graph.mirror.(u).(i) in
  t.out_.(u).(i) <- true;
  t.out_.(w).(j) <- false;
  t.in_deg.(u) <- t.in_deg.(u) - 1;
  t.in_deg.(w) <- t.in_deg.(w) + 1;
  t.edge_reversals <- t.edge_reversals + 1;
  (* under PR the neighbour records the reversal in its list *)
  (match t.memory with
  | Lists { listed; list_count } ->
      if not listed.(w).(j) then begin
        listed.(w).(j) <- true;
        list_count.(w) <- list_count.(w) + 1
      end
  | Stateless | Parity _ -> ());
  (match t.sink with None -> () | Some s -> s.on_flip u i w);
  enqueue_if_sink t w

let notify_step t u = match t.sink with None -> () | Some s -> s.on_step u

let step t u =
  let d = degree t u in
  t.steps_per_node.(u) <- t.steps_per_node.(u) + 1;
  t.work <- t.work + 1;
  match t.memory with
  | Stateless ->
      notify_step t u;
      for i = 0 to d - 1 do
        flip t u i
      done
  | Lists { listed; list_count } ->
      notify_step t u;
      let full = list_count.(u) = d in
      for i = 0 to d - 1 do
        if full || not listed.(u).(i) then flip t u i
      done;
      (* empty list[u] *)
      if list_count.(u) > 0 then begin
        Array.fill listed.(u) 0 d false;
        list_count.(u) <- 0
      end
  | Parity { counts; init_in; init_out } ->
      (* Algorithm 2: with even count reverse the edges to the
         *initial* in-neighbours, with odd count the initial
         out-neighbours; the counter always increments.  An empty set
         is a dummy step: only the parity flips, and [u] stays a
         sink.  [u] is a sink, so every chosen edge is incoming. *)
      let slots = if counts.(u) land 1 = 0 then init_in.(u) else init_out.(u) in
      let k = Array.length slots in
      (match t.sink with
      | None -> ()
      | Some s -> if k = 0 then s.on_dummy u else s.on_step u);
      counts.(u) <- counts.(u) + 1;
      for i = 0 to k - 1 do
        flip t u slots.(i)
      done

let destination_oriented t =
  (* BFS over incoming edges from the destination. *)
  let n = t.core.Fast_graph.n in
  let seen = Array.make n false in
  let q = Queue.create () in
  seen.(t.core.Fast_graph.destination) <- true;
  Queue.add t.core.Fast_graph.destination q;
  let reached = ref 1 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iteri
      (fun i w ->
        (* edge points toward u iff it is incoming at u *)
        if (not t.out_.(u).(i)) && not seen.(w) then begin
          seen.(w) <- true;
          incr reached;
          Queue.add w q
        end)
      t.core.Fast_graph.nbrs.(u)
  done;
  !reached = n

let run ?max_steps t =
  (* No budget means quiescence: [max_int] steps are never reached. *)
  let budget = ref (Option.value max_steps ~default:max_int) in
  let exhausted = ref false in
  let continue_ = ref true in
  while !continue_ do
    match Queue.take_opt t.queue with
    | None -> continue_ := false
    | Some u ->
        t.queued.(u) <- false;
        if is_sink t u && u <> t.core.Fast_graph.destination then
          if !budget = 0 then begin
            exhausted := true;
            continue_ := false;
            (* put it back so a later run can resume *)
            t.queued.(u) <- true;
            Queue.add u t.queue
          end
          else begin
            decr budget;
            step t u;
            (* after a NewPR dummy step [u] is still a sink and must
               run again with the flipped parity; otherwise its
               neighbours were enqueued by [flip] *)
            enqueue_if_sink t u
          end
        else (match t.sink with None -> () | Some s -> s.on_stale u)
  done;
  {
    work = t.work;
    steps_per_node = Array.copy t.steps_per_node;
    edge_reversals = t.edge_reversals;
    quiescent = not !exhausted;
    destination_oriented = destination_oriented t;
  }

let to_digraph t = Fast_graph.to_digraph t.core t.out_
