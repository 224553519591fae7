type t = {
  mutable parent : int array;
  (* Valid at roots only: *)
  mutable size_ : int array;
  mutable dirty_ : bool array;
  (* Valid at every live slot (consulted at roots by [union]): *)
  mutable rank_ : int array;
  mutable len : int;
}

let create n =
  if n < 0 then invalid_arg "Union_find.create: negative size";
  let cap = max n 1 in
  {
    parent = Array.init cap (fun i -> i);
    size_ = Array.make cap 1;
    dirty_ = Array.make cap false;
    rank_ = Array.make cap 0;
    len = n;
  }

let length t = t.len

let find t s =
  if s < 0 || s >= t.len then invalid_arg "Union_find.find: bad slot";
  let s = ref s in
  while t.parent.(!s) <> !s do
    (* Path halving: point at the grandparent and hop there. *)
    let g = t.parent.(t.parent.(!s)) in
    t.parent.(!s) <- g;
    s := g
  done;
  !s

let same t a b = find t a = find t b
let size t s = t.size_.(find t s)
let rank t s = t.rank_.(s)
let set_rank t s r = t.rank_.(s) <- r

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then ra
  else begin
    (* Seniority: the higher rank anchors the merged class; ties go to
       the lower (older) slot. *)
    let senior, junior =
      if Order.lex2 (Order.Int.compare t.rank_.(ra) t.rank_.(rb))
           (Order.Int.compare rb ra)
         > 0
      then (ra, rb)
      else (rb, ra)
    in
    t.parent.(junior) <- senior;
    t.size_.(senior) <- t.size_.(senior) + t.size_.(junior);
    if t.dirty_.(junior) then t.dirty_.(senior) <- true;
    senior
  end

let ensure t cap =
  let old = Array.length t.parent in
  if cap > old then begin
    let ncap = max cap (2 * old) in
    let grow a def =
      let b = Array.make ncap def in
      Array.blit a 0 b 0 old;
      b
    in
    t.parent <- grow t.parent 0;
    t.size_ <- grow t.size_ 0;
    t.dirty_ <- grow t.dirty_ false;
    t.rank_ <- grow t.rank_ 0
  end

let reset t n =
  if n < 0 then invalid_arg "Union_find.reset: negative size";
  ensure t n;
  for s = 0 to n - 1 do
    t.parent.(s) <- s;
    t.size_.(s) <- 1;
    t.dirty_.(s) <- false;
    t.rank_.(s) <- 0
  done;
  t.len <- n

let fresh t ~rank =
  ensure t (t.len + 1);
  let s = t.len in
  t.len <- t.len + 1;
  t.parent.(s) <- s;
  t.size_.(s) <- 1;
  t.dirty_.(s) <- false;
  t.rank_.(s) <- rank;
  s

let retire t s =
  let r = find t s in
  t.size_.(r) <- t.size_.(r) - 1

let mark_dirty t s = t.dirty_.(find t s) <- true
let dirty t s = t.dirty_.(find t s)
