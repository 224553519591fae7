(** Recording executions to trace files.

    Two front ends share the {!Writer} wire format:

    - {!fast} attaches a {!Lr_fast.Fast_engine.sink} to the flat engine,
      batching its per-flip callbacks into one step event per scheduler
      firing; NewPR's dummy steps become [Dummy] events.  Recording
      reuses a scratch array, so the engine's zero-allocation step loop
      stays zero-allocation.
    - {!persistent} records a run of a persistent {!Linkrev.Algo.t}
      through {!Linkrev.Executor.run}'s [?observe] hook, diffing
      before/after orientations to recover each actor's reversed set.

    Both close the trace with an end record carrying the run's work
    totals and the final orientation fingerprint; if the recorded run
    raises, the file is left without an end record (which {!Reader}
    reports as truncated) and the exception is re-raised.  Both refuse
    an instance whose node ids are not [0 .. n-1] before writing
    anything (see {!Event.header_of_config}). *)

val sink : Writer.t -> Lr_fast.Fast_engine.sink * (unit -> unit)
(** Low-level recording sink plus its flush function.  The flush must
    be called after the run (before {!Writer.close}) to emit the final
    pending step.  Prefer {!fast}. *)

val engine_of_rule : Lr_fast.Fast_engine.rule -> Event.engine
(** The trace's engine tag for a flat-engine rule. *)

val fast :
  ?seed:int ->
  path:string ->
  rule:Lr_fast.Fast_engine.rule ->
  Linkrev.Config.t ->
  Lr_fast.Fast_engine.outcome * Writer.stats
(** Run [Fast_engine] on [config] under [rule], recording to [path].
    The run goes to quiescence, which never comes when a linked node
    is outside the destination's component.
    @raise Invalid_argument, writing nothing, when the node ids are not
    [0 .. n-1]. *)

val rows_of_config : Linkrev.Config.t -> int array array
(** Sorted adjacency rows of the topology ({!Lr_graph.Undirected.rows})
    — the slot universe the wire format indexes into (row [u], slot [i]
    = [u]'s [i]-th neighbour in ascending id order).
    @raise Invalid_argument when the node ids are not [0 .. n-1]. *)

val slot_of : int array -> int -> int
(** [slot_of row w] is the slot index of neighbour [w] in a sorted
    adjacency row (binary search).  @raise Invalid_argument when [w] is
    not in the row. *)

val persistent :
  ?seed:int ->
  path:string ->
  engine:Event.engine ->
  scheduler:('s, 'a) Lr_automata.Scheduler.t ->
  Linkrev.Config.t ->
  ('s, 'a) Linkrev.Algo.t ->
  Linkrev.Executor.outcome * Writer.stats
(** Record a full persistent run: header from [config], one event per
    actor per step (a step that reverses nothing is a [Dummy]), end
    record from the outcome.  @raise Invalid_argument, writing nothing,
    when the node ids are not [0 .. n-1]. *)
