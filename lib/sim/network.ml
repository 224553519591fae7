open Lr_graph

type 'msg send = { dest : Node.t; msg : 'msg }

type ('state, 'msg) handler = {
  init : Node.t -> Node.Set.t -> 'state * 'msg send list;
  on_message :
    Node.t -> 'state -> from:Node.t -> 'msg -> 'state * 'msg send list;
}

type 'msg event =
  | Delivery of { src : Node.t; dst : Node.t; body : 'msg }
  | Tick of Node.t

type ('state, 'msg) t = {
  topology : Undirected.t;
  latency : Node.t -> Node.t -> float;
  jitter : (Random.State.t * float) option;
  drop : (Random.State.t * float) option;
  timer : (float * (Node.t -> 'state -> 'state * 'msg send list)) option;
  handler : ('state, 'msg) handler;
  queue : 'msg event Event_queue.t;
  mutable node_states : 'state Node.Map.t;
  (* Per directed link, the latest scheduled delivery time, used to
     enforce FIFO even under jitter. *)
  mutable link_clock : float Edge.Map.t Node.Map.t;
  mutable clock : float;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

type stats = {
  delivered : int;
  sent : int;
  final_time : float;
  completed : bool;
}

let send_all t src sends =
  List.iter
    (fun { dest; msg } ->
      if not (Undirected.mem_edge t.topology src dest) then
        invalid_arg "Network: send to non-neighbour";
      t.sent <- t.sent + 1;
      let lost =
        match t.drop with
        | Some (rng, p) when p > 0.0 -> Random.State.float rng 1.0 < p
        | _ -> false
      in
      if lost then t.dropped <- t.dropped + 1
      else begin
        let base = t.latency src dest in
        let extra =
          match t.jitter with
          | Some (rng, j) when j > 0.0 -> Random.State.float rng j
          | _ -> 0.0
        in
        let e = Edge.make src dest in
        (* FIFO per directed link: never schedule before an earlier send
           on the same link. *)
        let dir_map =
          Node.Map.find_or ~default:Edge.Map.empty src t.link_clock
        in
        let last =
          match Edge.Map.find_opt e dir_map with Some x -> x | None -> 0.0
        in
        let when_ = Float.max (t.clock +. base +. extra) (last +. 1e-9) in
        t.link_clock <-
          Node.Map.add src (Edge.Map.add e when_ dir_map) t.link_clock;
        Event_queue.add t.queue ~time:when_ (Delivery { src; dst = dest; body = msg })
      end)
    sends

let schedule_tick t u time = Event_queue.add t.queue ~time (Tick u)

let create ~topology ~latency ?jitter ?drop ?timer handler =
  let t =
    {
      topology;
      latency;
      jitter;
      drop;
      timer;
      handler;
      queue = Event_queue.create ();
      node_states = Node.Map.empty;
      link_clock = Node.Map.empty;
      clock = 0.0;
      sent = 0;
      delivered = 0;
      dropped = 0;
    }
  in
  Node.Set.iter
    (fun u ->
      let st, sends = handler.init u (Undirected.neighbors topology u) in
      t.node_states <- Node.Map.add u st t.node_states;
      send_all t u sends;
      match timer with
      | Some (interval, _) -> schedule_tick t u interval
      | None -> ())
    (Undirected.nodes topology);
  t

let run ?(max_deliveries = 1_000_000) ?until t =
  let budget = ref max_deliveries in
  let completed = ref true in
  let continue_ = ref true in
  let past_deadline time =
    match until with Some stop -> time > stop | None -> false
  in
  while !continue_ do
    if !budget <= 0 then begin
      completed := false;
      continue_ := false
    end
    else
      match Event_queue.pop t.queue with
      | None -> continue_ := false
      | Some (time, _) when past_deadline time ->
          (* put nothing back: the run is over *)
          continue_ := false
      | Some (time, Delivery { src; dst; body }) ->
          decr budget;
          t.clock <- time;
          t.delivered <- t.delivered + 1;
          let st = Node.Map.find dst t.node_states in
          let st', sends = t.handler.on_message dst st ~from:src body in
          t.node_states <- Node.Map.add dst st' t.node_states;
          send_all t dst sends
      | Some (time, Tick u) -> (
          decr budget;
          t.clock <- time;
          match t.timer with
          | None -> ()
          | Some (interval, tick) ->
              let st = Node.Map.find u t.node_states in
              let st', sends = tick u st in
              t.node_states <- Node.Map.add u st' t.node_states;
              send_all t u sends;
              if not (past_deadline (time +. interval)) then
                schedule_tick t u (time +. interval))
  done;
  {
    delivered = t.delivered;
    sent = t.sent;
    final_time = t.clock;
    completed = !completed;
  }

let state t u = Node.Map.find u t.node_states
let states t = Node.Map.bindings t.node_states
let dropped t = t.dropped
