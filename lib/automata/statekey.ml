type t = { hash : int; words : int array }

let equal_words a b =
  let la = Array.length a in
  la = Array.length b
  &&
  let rec loop i = i >= la || (Int.equal a.(i) b.(i) && loop (i + 1)) in
  loop 0

let equal a b = Int.equal a.hash b.hash && equal_words a.words b.words
let hash t = t.hash

(* FNV-1a style mixing, folded over the words at build time so lookups
   never rehash the payload. *)
let mix h w = (h lxor w) * 0x100000001b3

type builder = { mutable len : int; mutable data : int array }

let builder () = { len = 0; data = Array.make 16 0 }

let add b w =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- w;
  b.len <- b.len + 1

let add_array b ws = Array.iter (add b) ws

let build b =
  let words = Array.sub b.data 0 b.len in
  let hash = Array.fold_left mix 0xcbf29ce4 words land max_int in
  { hash; words }

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
