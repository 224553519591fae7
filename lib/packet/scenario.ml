module G = Lr_fast.Fast_graph
module FM = Lr_routing.Fast_maintenance

type bp_spec = {
  nodes : int;
  extra_edges : int;
  dests : int;
  seed : int;
  slots : int;
  drain : int;
  rate : int;
  skew : float;
  qcap : int;
  cap : int;
  churn_every : int;
}

let default_bp =
  {
    nodes = 64;
    extra_edges = 64;
    dests = 4;
    seed = 42;
    slots = 512;
    drain = 8192;
    rate = 8;
    skew = 0.9;
    qcap = 16;
    cap = 1;
    churn_every = 0;
  }

type bp_result = {
  rate : int;
  offered : int;
  injected : int;
  dropped : int;
  delivered : int;
  reversals : int;
  queued_mid : int;
  queued_end : int;
  remaining : int;
  high_water : int;
  hops_sum : int;
  dist_sum : int;
  diverged : bool;
}

let rng_of spec salt = Random.State.make [| 0x9ac4e7; spec.seed; salt |]

(* Zipf cumulative weights over destination ranks, like the workload
   generator's shard popularity. *)
let zipf_cum ~dests ~skew =
  let cum = Array.make dests 0. in
  let total = ref 0. in
  for i = 0 to dests - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (i + 1)) skew);
    cum.(i) <- !total
  done;
  cum

let pick_dest rng cum =
  let total = cum.(Array.length cum - 1) in
  let r = Random.State.float rng total in
  let i = ref 0 in
  while Float.compare cum.(!i) r <= 0 do incr i done;
  !i

let run_traced ~trace_dir spec =
  if spec.nodes < 2 || spec.dests < 1 || spec.dests > spec.nodes then
    invalid_arg "Scenario.run_backpressure: bad nodes/dests";
  if spec.slots < 1 || spec.rate < 0 || spec.qcap < 1 || spec.cap < 1 then
    invalid_arg "Scenario.run_backpressure: bad slots/rate/qcap/cap";
  let inst = Lr_graph.Generators.random_connected_dag (rng_of spec 1) ~n:spec.nodes
      ~extra_edges:spec.extra_edges
  in
  let configs =
    Array.init spec.dests (fun d -> Linkrev.Config.make_exn inst.graph ~destination:d)
  in
  (match trace_dir with
  | None -> ()
  | Some dir ->
      Array.iteri
        (fun d config ->
          let path = Filename.concat dir (Printf.sprintf "plane-%03d.lrt" d) in
          ignore
            (Lr_trace.Record.fast ~seed:spec.seed ~path ~rule:Lr_fast.Fast_engine.Partial
               config))
        configs);
  (* Heights seed from the stabilized fast engine (the lib/routing
     [height] hook): every node in the destination's component starts
     with a live route. *)
  let planes =
    Array.map
      (fun config ->
        let fm = FM.create Lr_routing.Maintenance.Partial_reversal config in
        let n = FM.num_nodes fm in
        let ha = Array.make n 0 and hb = Array.make n 0 in
        for u = 0 to n - 1 do
          let a, b = FM.height fm u in
          ha.(u) <- a;
          hb.(u) <- b
        done;
        Plane.create ~qcap:spec.qcap ~cap:spec.cap ~heights:(ha, hb) config)
      configs
  in
  (* Undirected skeleton edges, for churn picks. *)
  let edges =
    let g = G.of_config configs.(0) in
    let out = ref [] in
    for u = spec.nodes - 1 downto 0 do
      let row = g.G.nbrs.(u) in
      for i = Array.length row - 1 downto 0 do
        if u < row.(i) then out := (u, row.(i)) :: !out
      done
    done;
    Array.of_list !out
  in
  let rng = rng_of spec 2 in
  let churn_rng = rng_of spec 3 in
  let cum = zipf_cum ~dests:spec.dests ~skew:spec.skew in
  let down = ref None in
  let toggle () =
    match !down with
    | Some (u, v) ->
        Array.iter (fun p -> Plane.add_link p u v) planes;
        down := None
    | None ->
        let u, v = edges.(Random.State.int churn_rng (Array.length edges)) in
        Array.iter (fun p -> Plane.remove_link p u v) planes;
        down := Some (u, v)
  in
  let total_queued () = Array.fold_left (fun acc p -> acc + Plane.queued p) 0 planes in
  let offered = ref 0 and dropped = ref 0 in
  let queued_mid = ref 0 in
  for s = 0 to spec.slots - 1 do
    (* At the start of a slot: the churn toggle due then, if any, and
       after it the mid-run occupancy sample. *)
    if spec.churn_every > 0 && s > 0 && s mod spec.churn_every = 0 then toggle ();
    if s = spec.slots / 2 then queued_mid := total_queued ();
    for _ = 1 to spec.rate do
      let d = pick_dest rng cum in
      let src = ref (Random.State.int rng spec.nodes) in
      while !src = Plane.destination planes.(d) do
        src := Random.State.int rng spec.nodes
      done;
      let _, dr = Plane.inject planes.(d) ~src:!src ~count:1 in
      incr offered;
      dropped := !dropped + dr
    done;
    Array.iter Plane.slot planes
  done;
  let queued_end = total_queued () in
  (* Restore a mid-churn outage before draining, so stranded regions
     can reconnect. *)
  (match !down with
  | Some (u, v) ->
      Array.iter (fun p -> Plane.add_link p u v) planes;
      down := None
  | None -> ());
  let d = ref 0 in
  while !d < spec.drain && total_queued () > 0 do
    Array.iter Plane.slot planes;
    incr d
  done;
  let fold f = Array.fold_left (fun acc p -> acc + f (Plane.counters p)) 0 planes in
  let injected = fold (fun c -> c.Plane.injected) in
  let delivered = fold (fun c -> c.Plane.delivered) in
  let reversals = fold (fun c -> c.Plane.reversals) in
  let hops_sum = fold (fun c -> c.Plane.hops_sum) in
  let dist_sum = fold (fun c -> c.Plane.dist_sum) in
  let high_water =
    Array.fold_left (fun acc p -> max acc (Plane.high_water p)) 0 planes
  in
  {
    rate = spec.rate;
    offered = !offered;
    injected;
    dropped = !dropped;
    delivered;
    reversals;
    queued_mid = !queued_mid;
    queued_end;
    remaining = total_queued ();
    high_water;
    hops_sum;
    dist_sum;
    diverged =
      !dropped > 0
      || total_queued () > 0
      || queued_end > (2 * !queued_mid) + (2 * spec.rate);
  }

let run_backpressure spec = run_traced ~trace_dir:None spec

let sweep ?trace_dir spec ~rates =
  List.mapi
    (fun i rate ->
      run_traced ~trace_dir:(if i = 0 then trace_dir else None) { spec with rate })
    rates

let delivery r =
  if r.offered = 0 then 1. else float_of_int r.delivered /. float_of_int r.offered

let stretch r =
  if r.dist_sum = 0 then 0. else float_of_int r.hops_sum /. float_of_int r.dist_sum

let stability_threshold results =
  let sorted = List.sort (fun a b -> compare a.rate b.rate) results in
  let rec scan best = function
    | [] -> best
    | r :: rest ->
        if (not r.diverged) && Float.compare (delivery r) 0.99 >= 0 then
          scan (Some r.rate) rest
        else best
  in
  scan None sorted

(* {1 Geographic void} *)

type void_spec = {
  vnodes : int;
  radius : float;
  vseed : int;
  sources : int;
  per_source : int;
  max_slots : int;
  vqcap : int;
  void_ : float * float * float * float;
}

let default_void =
  {
    vnodes = 180;
    radius = 0.14;
    vseed = 7;
    sources = 6;
    per_source = 4;
    max_slots = 4096;
    vqcap = 8;
    void_ = (0.38, 0.12, 0.62, 0.88);
  }

type void_result = { greedy : Geo.result; recovery : Geo.result; minima : int }

let run_void spec =
  let rng = Random.State.make [| 0x9ac4e7; spec.vseed; 11 |] in
  (* Redraw until the void actually creates a greedy local minimum —
     the interesting regime; bounded like Geo.generate's own redraws. *)
  let rec gen k =
    if k = 0 then invalid_arg "Scenario.run_void: no instance with a local minimum";
    let inst = Geo.generate rng ~n:spec.vnodes ~radius:spec.radius ~void_:spec.void_ () in
    match Geo.local_minima inst with [] -> gen (k - 1) | _ :: _ -> inst
  in
  let inst = gen 50 in
  (* The [sources] leftmost nodes: traffic must cross the void. *)
  let by_x = Array.init inst.Geo.n (fun u -> u) in
  Array.sort
    (fun u v ->
      let c = Float.compare inst.Geo.xs.(u) inst.Geo.xs.(v) in
      if c <> 0 then c else compare u v)
    by_x;
  let sources = Array.sub by_x 0 (min spec.sources inst.Geo.n) in
  let run mode =
    Geo.run mode inst ~sources ~per_source:spec.per_source ~max_slots:spec.max_slots
      ~qcap:spec.vqcap
  in
  {
    greedy = run Geo.Greedy;
    recovery = run Geo.Recovery;
    minima = List.length (Geo.local_minima inst);
  }
