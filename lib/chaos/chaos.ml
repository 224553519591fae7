open Lr_graph
open Lr_routing
module Event = Lr_trace.Event
module Writer = Lr_trace.Writer
module Record = Lr_trace.Record

type recovery = {
  n : int;
  steps : int;
  rounds : int;
  perturbed_edges : int;
  wall_ns : int;
  fingerprint : int64;
  destination_oriented : bool;
  budget : int;
  within_budget : bool;
}

type differential = {
  fast : recovery;
  ref_steps : int;
  ref_wall_ns : int;
  ref_fingerprint : int64;
  agree : bool;
  trace_path : string option;
}

let hostile = Lr_service.Shard.hostile_height

(* Orientation an arbitrary height assignment derives: u -> w iff u's
   (pa, pb, id) triple is lexicographically greater.  Total order, so
   always acyclic — the theorem that makes adoption safe. *)
let out_of_heights (height : int -> int * int) u w =
  let ua, ub = height u and wa, wb = height w in
  if ua <> wa then ua > wa else if ub <> wb then ub > wb else u > w

let wall_ns_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)

let recover_fast ?trace rule config ~seed ~height =
  let fm = Fast_maintenance.create rule config in
  let n = Fast_maintenance.num_nodes fm in
  let rows = Record.rows_of_config config in
  let writer =
    Option.map
      (fun path ->
        let g0 = Fast_maintenance.graph fm in
        Writer.create path
          {
            Event.engine = Event.Maint;
            seed;
            n;
            destination = Fast_maintenance.destination fm;
            edges = Digraph.directed_edges g0;
            fingerprint = Digraph.fingerprint g0;
          })
      trace
  in
  (* The perturbation itself: diff the pre-corruption orientation
     against the one the adopted heights derive.  Each flipped edge is
     recorded once, at the endpoint gaining the out-edge (where it was
     incoming) — exactly what [Replay] re-applies. *)
  let perturbed = ref 0 in
  let scratch = Array.make (Stdlib.max n 1) 0 in
  for u = 0 to n - 1 do
    let row = rows.(u) in
    let len = ref 0 in
    Array.iteri
      (fun i x ->
        if (not (Fast_maintenance.edge_out fm u x)) && out_of_heights height u x
        then begin
          scratch.(!len) <- i;
          incr len
        end)
      row;
    if !len > 0 then begin
      perturbed := !perturbed + !len;
      match writer with
      | Some w -> Writer.perturb w ~node:u ~slots:scratch ~len:!len
      | None -> ()
    end
  done;
  let steps_per_node = Array.make n 0 in
  let step_flips = ref 0 in
  let slot_buf = Array.make (Stdlib.max n 1) 0 in
  Fast_maintenance.set_observer fm
    (Some
       (fun u flipped len ->
         steps_per_node.(u) <- steps_per_node.(u) + 1;
         step_flips := !step_flips + len;
         match writer with
         | None -> ()
         | Some w ->
             for i = 0 to len - 1 do
               slot_buf.(i) <- Record.slot_of rows.(u) flipped.(i)
             done;
             let slots = Array.sub slot_buf 0 len in
             Array.sort compare slots;
             Writer.step w ~node:u ~slots ~len));
  let t0 = Unix.gettimeofday () in
  let result =
    match Fast_maintenance.adopt_heights fm height with
    | r -> r
    | exception e ->
        Option.iter Writer.abort writer;
        raise e
  in
  let wall_ns = wall_ns_since t0 in
  Fast_maintenance.set_observer fm None;
  let steps =
    match result with
    | Maintenance.Stabilized { node_steps; _ } -> node_steps
    | Maintenance.Partitioned _ ->
        (* Adoption never touches the topology. *)
        assert false
  in
  let fingerprint = Digraph.fingerprint (Fast_maintenance.graph fm) in
  Option.iter
    (fun w ->
      ignore
        (Writer.close w
           {
             Event.work = steps;
             edge_reversals = !perturbed + !step_flips;
             wall_ns;
             final_fingerprint = fingerprint;
           }))
    writer;
  let budget =
    Maintenance.adoption_budget ~n
      ~spread:(Maintenance.height_spread (Seq.init n height))
  in
  {
    n;
    steps;
    rounds = Array.fold_left Stdlib.max 0 steps_per_node;
    perturbed_edges = !perturbed;
    wall_ns;
    fingerprint;
    destination_oriented = Fast_maintenance.is_destination_oriented fm;
    budget;
    within_budget = steps <= budget;
  }

let recover_reference rule config ~height =
  let m = Maintenance.create rule config in
  let t0 = Unix.gettimeofday () in
  match Maintenance.adopt_heights m height with
  | Maintenance.Partitioned _ -> assert false
  | Maintenance.Stabilized { node_steps; _ } ->
      ( node_steps,
        wall_ns_since t0,
        Digraph.fingerprint (Maintenance.graph m) )

let differential_of ?trace rule config ~seed ~height =
  let fast = recover_fast ?trace rule config ~seed ~height in
  let ref_steps, ref_wall_ns, ref_fingerprint =
    recover_reference rule config ~height
  in
  {
    fast;
    ref_steps;
    ref_wall_ns;
    ref_fingerprint;
    agree =
      Int64.equal fast.fingerprint ref_fingerprint && fast.steps = ref_steps;
    trace_path = trace;
  }

let differential ?trace rule config ~seed ~magnitude =
  differential_of ?trace rule config ~seed ~height:(hostile ~seed ~magnitude)

let differential_flip rule config ~node ~bit =
  if bit < 0 || bit > 61 then invalid_arg "Chaos.differential_flip: bad bit";
  let base =
    let fm = Fast_maintenance.create rule config in
    Array.init (Fast_maintenance.num_nodes fm) (Fast_maintenance.height fm)
  in
  if node < 0 || node >= Array.length base then
    invalid_arg "Chaos.differential_flip: node out of range";
  let height u =
    if u = node then
      let a, b = base.(u) in
      (a lxor (1 lsl bit), b)
    else base.(u)
  in
  differential_of rule config ~seed:(-1) ~height

type scenario = {
  name : string;
  config : Linkrev.Config.t;
  seed : int;
  magnitude : int;
}

(* The D-C1 scenario battery: one instance per structural family, with
   corruption magnitudes sweeping from degenerate (everything ties at
   +-1, maximal pid tie-breaking) to widely spread.  Magnitudes stay
   <= 4096 because recovery work grows linearly with the height spread
   (measured: ~1.2M steps at magnitude 65536 on a 48-chain), and the
   battery must stay cheap enough for CI. *)
let scenarios ?(n = 48) ?(seed = 1) () =
  let rng salt = Random.State.make [| 0x6368616f; seed; salt |] in
  let side = Stdlib.max 2 (int_of_float (sqrt (float_of_int n))) in
  let depth =
    let rec go d cap = if cap >= n then d else go (d + 1) (2 * cap + 1) in
    go 1 1
  in
  [
    {
      name = "chain";
      config = Linkrev.Config.of_instance (Generators.bad_chain n);
      seed;
      magnitude = 1;
    };
    {
      name = "ring";
      config = Linkrev.Config.of_instance (Generators.ring n);
      seed = seed + 1;
      magnitude = 4;
    };
    {
      name = "grid";
      config =
        Linkrev.Config.of_instance (Generators.grid ~rows:side ~cols:side);
      seed = seed + 2;
      magnitude = 16;
    };
    {
      name = "tree";
      config = Linkrev.Config.of_instance (Generators.binary_tree ~depth);
      seed = seed + 3;
      magnitude = 2;
    };
    {
      name = "sparse";
      config =
        Linkrev.Config.of_instance
          (Generators.random_connected_dag (rng 2) ~n
             ~extra_edges:(Stdlib.max 1 (n / 8)));
      seed = seed + 4;
      magnitude = 1000;
    };
    {
      name = "dense";
      config =
        Linkrev.Config.of_instance
          (Generators.random_connected_dag (rng 3) ~n ~extra_edges:(2 * n));
      seed = seed + 5;
      magnitude = 4096;
    };
  ]

type failure =
  | Not_converged
  | Diverged
  | Over_budget
  | Audit_violation
  | Audit_error of string

let judge d =
  List.filter_map
    (fun (ok, f) -> if ok then None else Some f)
    [
      (d.fast.destination_oriented, Not_converged);
      (d.agree, Diverged);
      (d.fast.within_budget, Over_budget);
    ]

let failure_message d = function
  | Not_converged -> "recovery did not converge"
  | Diverged ->
      Printf.sprintf
        "engines diverged (fast %d steps fp %Lx, reference %d steps fp %Lx)"
        d.fast.steps d.fast.fingerprint d.ref_steps d.ref_fingerprint
  | Over_budget ->
      Printf.sprintf "%d steps exceeded the %d budget" d.fast.steps
        d.fast.budget
  | Audit_violation -> "audit found violations"
  | Audit_error e -> "audit error: " ^ e

type checked = {
  scenario : scenario;
  result : differential;
  spread : int;
  audited : int option;
  failures : failure list;
}

let check ?trace_dir ~audit rule s =
  let recover trace =
    differential ?trace rule s.config ~seed:s.seed ~magnitude:s.magnitude
  in
  let audited path =
    let d = recover (Some path) in
    let stride = Stdlib.max 1 (d.fast.steps / 200) in
    match Lr_trace.Audit.run ~stride path with
    | Ok r ->
        ( d,
          Some r.Lr_trace.Audit.checked_states,
          if Lr_trace.Audit.clean r then [] else [ Audit_violation ] )
    | Error e -> (d, None, [ Audit_error e ])
  in
  let d, audited, audit_failures =
    match trace_dir with
    | Some dir ->
        let path = Filename.concat dir ("chaos_" ^ s.name ^ ".lrt") in
        if audit then audited path else (recover (Some path), None, [])
    | None when audit ->
        let path = Filename.temp_file "chaos_" ".lrt" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () -> audited path)
    | None -> (recover None, None, [])
  in
  {
    scenario = s;
    result = d;
    spread =
      Maintenance.height_spread
        (Seq.init d.fast.n (hostile ~seed:s.seed ~magnitude:s.magnitude));
    audited;
    failures = judge d @ audit_failures;
  }

let audit_cell c =
  let audit_failure = function
    | Audit_violation | Audit_error _ -> true
    | Not_converged | Diverged | Over_budget -> false
  in
  match (c.audited, List.find_opt audit_failure c.failures) with
  | _, Some (Audit_error _) -> "ERROR"
  | _, Some _ -> "VIOLATED"
  | Some checked, None -> Printf.sprintf "clean/%d" checked
  | None, None -> "-"

let battery ?trace_dir ~audit rule ~n ~seed =
  if n < 3 then
    Error (Printf.sprintf "chaos: need at least 3 nodes per scenario, got %d" n)
  else begin
    (match trace_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    Ok (List.map (check ?trace_dir ~audit rule) (scenarios ~n ~seed ()))
  end
