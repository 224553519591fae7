(* Raises reached only through first-class modules: the call graph must
   resolve [E.f] to every module packed at [E]'s module type, for both
   the [let module E = (val ...)] form and the [(module E : S)]
   parameter form; test_lint asserts the exact lines. *)

module type ENGINE = sig
  val step : unit -> unit
  val kick : unit -> unit
end

module Loud = struct
  let step () = failwith "reached through let module"
  let kick () = failwith "reached through a module parameter"
end

let engine : (module ENGINE) = (module Loud)
let drive (module E : ENGINE) = E.kick ()

let spin pool =
  Lr_parallel.Pool.Persistent.launch pool 1 (fun _w ->
      let module E = (val engine) in
      E.step ();
      drive engine)
