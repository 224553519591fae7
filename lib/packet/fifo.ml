type t = {
  buf : int array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Fifo.create: capacity < 1";
  { buf = Array.make capacity 0; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = Array.length t.buf

let push t x =
  let cap = Array.length t.buf in
  if t.len = cap then false
  else begin
    let tail = t.head + t.len in
    t.buf.(if tail >= cap then tail - cap else tail) <- x;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then -1
  else begin
    let x = t.buf.(t.head) in
    let h = t.head + 1 in
    t.head <- (if h = Array.length t.buf then 0 else h);
    t.len <- t.len - 1;
    x
  end

let peek t = if t.len = 0 then -1 else t.buf.(t.head)

let iter f t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    let j = t.head + i in
    f t.buf.(if j >= cap then j - cap else j)
  done
