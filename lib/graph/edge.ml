type t = Node.t * Node.t

let make u v =
  if Node.equal u v then invalid_arg "Edge.make: self-loop"
  else if u < v then (u, v)
  else (v, u)

let endpoints e = e
let lo (l, _) = l
let hi (_, h) = h

let other (l, h) u =
  if Node.equal u l then h
  else if Node.equal u h then l
  else invalid_arg "Edge.other: node not incident"

let incident (l, h) u = Node.equal u l || Node.equal u h

let compare (a1, b1) (a2, b2) =
  match Node.compare a1 a2 with 0 -> Node.compare b1 b2 | c -> c

let equal e1 e2 = compare e1 e2 = 0
let pp ppf (l, h) = Format.fprintf ppf "{%a,%a}" Node.pp l Node.pp h

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)

module Map = Map.Make (Ord)
