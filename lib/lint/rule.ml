type t = L1 | L2 | L3 | L4 | L5 | L6 | L7 | L8 | L9

let all = [ L1; L2; L3; L4; L5; L6; L7; L8; L9 ]

let id = function
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | L4 -> "L4"
  | L5 -> "L5"
  | L6 -> "L6"
  | L7 -> "L7"
  | L8 -> "L8"
  | L9 -> "L9"

let of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "L1" -> Some L1
  | "L2" -> Some L2
  | "L3" -> Some L3
  | "L4" -> Some L4
  | "L5" -> Some L5
  | "L6" -> Some L6
  | "L7" -> Some L7
  | "L8" -> Some L8
  | "L9" -> Some L9
  | _ -> None

let compare a b = Stdlib.compare (id a) (id b)
let equal a b = Int.equal 0 (compare a b)
