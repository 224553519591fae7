(** Lint rule identifiers.

    Nine rules, individually toggleable from the CLI:

    - {b L1 poly-ops} — applications of the polymorphic comparison and
      hashing primitives at non-immediate types.  A generic structural
      walk over graph state is both a performance trap and a
      determinism hazard (it traverses arbitrarily deep structure and
      distinguishes representations the code considers equal).
    - {b L2 toplevel mutable state} — toplevel mutable state under
      the linted dirs ([ref]s, [Hashtbl]s, arrays, mutable records,
      ...), minus an explicit allowlist of serialized-by-design state.
      Every domain sees a unit's toplevel state; which calls cross
      domains is L5's question, not this rule's.
    - {b L3 interface hygiene} — every [.ml] under the linted tree is
      sealed by a matching [.mli].
    - {b L4 forbidden constructs} — [Obj.magic], printing primitives
      that write to stdout (stdout belongs to the service protocol and
      the CLI), and bare [exit] inside library code.

    The {e domain-safety} rules run over the interprocedural call graph
    ({!Callgraph}) and its domain-crossing set ({!Domain_safety}):

    - {b L5 race candidates} — writes to non-atomic mutable state
      (refs, mutable record fields, array/bytes cells, mutable
      containers) in functions reachable from domain-crossing roots
      (Pool closures, [Spsc.try_push]/[try_pop] call sites,
      [Domain.spawn]), unless covered by an [(* lr:owner who: why *)]
      annotation documenting the single-owner discipline.
    - {b L6 resident-loop blocking} — blocking or unbounded primitives
      ([Mutex.lock], [Condition.wait], [Unix.sleep]/[sleepf]/[select],
      channel reads, printing to the shared std channels) reachable
      from a resident run-to-completion loop body.
    - {b L7 escaping exceptions} — raise sites whose exception can
      propagate out of a [Domain.spawn]/[Pool.Persistent.launch]
      closure with no handler inside the loop: in free-running
      dispatch that is a silently dead domain.  Re-raises inside an
      exception handler count as deliberate propagation.
    - {b L8 atomic overhead smell} — [Atomic.t] values all of whose
      access sites sit outside the domain-crossing set; the fences buy
      nothing a plain [ref] would not.

    One rule reads every unit dune builds ({!Surface}):

    - {b L9 unused surface} — a value an interface under the linted
      tree exports that no other unit uses, and an optional parameter
      of an exported function that no other unit's call supplies.
      Uses count from [lib/], [bin/], [bench/], [benchmark/],
      [examples/] and [test/]; an export only [test/] uses is listed in
      the JSON report, not flagged. *)

type t = L1 | L2 | L3 | L4 | L5 | L6 | L7 | L8 | L9

val all : t list
val id : t -> string
val of_string : string -> t option
(** Case-insensitive; [None] on an unknown id. *)

val compare : t -> t -> int
val equal : t -> t -> bool
