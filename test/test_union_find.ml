(* The growable union-find behind the fast-maintenance component
   index: random union/find/retire+fresh/dirty interleavings checked
   against a naive relabelling oracle, plus focused units for the
   seniority rule (the senior representative survives every merge —
   the property the next-hop cache relies on) and the dirty-bit
   bookkeeping of lazy splits. *)

open Linkrev
open Helpers
module U = Union_find

(* {1 Oracle}

   One label per slot, unions merge by full relabelling; per label a
   dirty bit maintained by the documented rules (union: or; mark:
   set; fresh: clean).  Retired slots become
   ghosts: they keep their label (so relabelling stays closed) but
   leave the live set — the driver never uses them as operands again,
   and class sizes count live slots only. *)

type oracle = {
  mutable label : int array;
  mutable live : bool array;
  mutable o_len : int;
  dirty : (int, bool) Hashtbl.t; (* label -> *)
}

let o_create n =
  {
    label = Array.init n (fun i -> i);
    live = Array.make n true;
    o_len = n;
    dirty = Hashtbl.create 64;
  }

let o_dirty o l = Option.value ~default:false (Hashtbl.find_opt o.dirty l)

let o_union o a b =
  let la = o.label.(a) and lb = o.label.(b) in
  if la <> lb then begin
    Hashtbl.replace o.dirty la (o_dirty o la || o_dirty o lb);
    Array.iteri (fun i l -> if l = lb then o.label.(i) <- la) o.label
  end

let o_fresh o =
  let s = o.o_len in
  if s >= Array.length o.label then begin
    let grow a fill =
      let b = Array.make (2 * (Array.length a + 1)) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    o.label <- grow o.label 0;
    o.live <- grow o.live false
  end;
  o.label.(s) <- s;
  o.live.(s) <- true;
  o.o_len <- s + 1;
  s

let o_retire o s = o.live.(s) <- false

let o_size o s =
  let l = o.label.(s) in
  let c = ref 0 in
  for i = 0 to o.o_len - 1 do
    if o.live.(i) && o.label.(i) = l then incr c
  done;
  !c

(* {1 Random interleavings} *)

let test_random_vs_oracle () =
  let rand = rng 4242 in
  let n = 64 and ops = 12_000 in
  let u = U.create n in
  let o = o_create n in
  (* Live slots, index-addressable for uniform picking. *)
  let slots = Array.make (n + ops + 1) 0 in
  for i = 0 to n - 1 do
    slots.(i) <- i
  done;
  let live = ref n in
  let pick () = slots.(Random.State.int rand !live) in
  let check_pair what a b =
    check_bool
      (Printf.sprintf "%s: same %d %d" what a b)
      (o.label.(a) = o.label.(b))
      (U.same u a b)
  in
  let check_slot what s =
    check_int (Printf.sprintf "%s: size of %d" what s) (o_size o s)
      (U.size u s);
    let l = o.label.(s) and r = U.find u s in
    check_bool (Printf.sprintf "%s: dirty of %d" what s) (o_dirty o l)
      (U.dirty u r)
  in
  for k = 1 to ops do
    let what = Printf.sprintf "op %d" k in
    let roll = Random.State.int rand 100 in
    if roll < 40 then begin
      (* union, with the seniority rule checked from observable state:
         the surviving representative must be the root of higher rank,
         ties to the lower slot. *)
      let a = pick () and b = pick () in
      let ra = U.find u a and rb = U.find u b in
      let expected =
        if ra = rb then ra
        else
          let ka = U.rank u ra and kb = U.rank u rb in
          if ka > kb then ra
          else if kb > ka then rb
          else min ra rb
      in
      let got = U.union u a b in
      check_int (what ^ ": senior representative survives") expected got;
      check_int (what ^ ": find resolves to the survivor") expected
        (U.find u a);
      o_union o a b
    end
    else if roll < 60 then begin
      (* split step: retire one member to a ghost, give the element a
         fresh identity (as Fast_maintenance does when re-identifying
         a detached side). *)
      if !live > 1 then begin
        let i = Random.State.int rand !live in
        let s = slots.(i) in
        let old_root = U.find u s in
        U.retire u s;
        o_retire o s;
        let f = U.fresh u ~rank:(Random.State.int rand 1000) in
        let fo = o_fresh o in
        check_int (what ^ ": fresh slot ids in lockstep") fo f;
        check_int (what ^ ": fresh singleton size") 1 (U.size u f);
        check_bool (what ^ ": fresh is clean") false (U.dirty u f);
        (* Ghosts keep forwarding: retiring never re-roots, so the
           retired slot still resolves into its old class. *)
        check_int (what ^ ": ghost still finds its old class") old_root
          (U.find u s);
        slots.(i) <- f
      end
    end
    else if roll < 70 then begin
      let s = pick () in
      U.mark_dirty u s;
      Hashtbl.replace o.dirty o.label.(s) true
    end
    else begin
      (* pure queries keep the path-halving structure moving *)
      ignore (U.find u (pick ()));
      ignore (U.same u (pick ()) (pick ()))
    end;
    (* sampled agreement every op, full sweep periodically *)
    check_pair what (pick ()) (pick ());
    check_slot what (pick ());
    if k mod 1_000 = 0 then
      for i = 0 to !live - 1 do
        check_slot what slots.(i);
        check_pair what slots.(i) slots.((i * 7 + k) mod !live)
      done
  done;
  check_int "arena length matches oracle" o.o_len (U.length u)

(* {1 Seniority units} *)

let test_senior_representative_is_stable () =
  (* The destination-style anchor: slot 0 with a rank above everything
     else.  Whatever merges into its class, the representative never
     moves — exactly the stability the engine's caches key on. *)
  let u = U.create 6 in
  U.set_rank u 0 1_000_000;
  for s = 1 to 5 do
    U.set_rank u s s
  done;
  check_int "first absorb" 0 (U.union u 0 1);
  check_int "junior pair roots at its senior" 3 (U.union u 2 3);
  check_int "absorbing a whole class keeps the anchor" 0 (U.union u 3 0);
  check_int "late singleton too" 0 (U.union u 5 4 |> fun r -> U.union u r 0);
  for s = 0 to 5 do
    check_int (Printf.sprintf "find %d" s) 0 (U.find u s)
  done;
  check_int "size counts every absorbed member" 6 (U.size u 4)

let test_ties_break_to_lower_slot () =
  let u = U.create 4 in
  (* all ranks 0 *)
  check_int "2-3 ties to 2" 2 (U.union u 3 2);
  check_int "0-1 ties to 0" 0 (U.union u 0 1);
  check_int "class-class tie to lower root" 0 (U.union u 3 1)

let test_rank_update_affects_future_unions () =
  let u = U.create 3 in
  U.set_rank u 1 5;
  check_int "1 wins at rank 5" 1 (U.union u 0 1);
  U.set_rank u 2 9;
  check_int "2 wins after its promotion" 2 (U.union u 0 2)

(* {1 Dirty-bit units} *)

let test_dirty_lifecycle () =
  let u = U.create 4 in
  check_bool "clean at birth" false (U.dirty u 1);
  U.mark_dirty u 1;
  check_bool "marked" true (U.dirty u 1);
  (* dirtiness survives a merge and is seen through any member *)
  let r = U.union u 1 2 in
  check_bool "union inherits dirt" true (U.dirty u r);
  check_bool "seen through the junior member" true (U.dirty u 2);
  check_bool "an untouched class stays clean" false (U.dirty u 3);
  U.retire u 2;
  check_int "retire drops the live size" 1 (U.size u 1);
  check_bool "retiring keeps the class dirty" true (U.dirty u 1);
  (* re-identification: a fresh slot is a clean singleton *)
  let f = U.fresh u ~rank:0 in
  check_bool "fresh slot is clean" false (U.dirty u f)

let test_ghosts_forward_after_churn () =
  (* Build a chain of unions, retire interior slots, and check the
     survivors still resolve through the ghost-laden tree. *)
  let u = U.create 8 in
  for s = 1 to 7 do
    ignore (U.union u (s - 1) s)
  done;
  let root = U.find u 0 in
  for s = 2 to 5 do
    U.retire u s
  done;
  check_int "live size after retirements" 4 (U.size u root);
  for s = 0 to 7 do
    check_int (Printf.sprintf "slot %d still resolves" s) root (U.find u s)
  done

let () =
  Alcotest.run "union_find"
    [
      suite "oracle"
        [ case "12k random ops vs naive labelling" test_random_vs_oracle ];
      suite "seniority"
        [
          case "senior representative is stable"
            test_senior_representative_is_stable;
          case "ties break to the lower slot" test_ties_break_to_lower_slot;
          case "set_rank affects future unions"
            test_rank_update_affects_future_unions;
        ];
      suite "lazy splits"
        [
          case "dirty-bit lifecycle" test_dirty_lifecycle;
          case "ghosts keep forwarding" test_ghosts_forward_after_churn;
        ];
    ]
