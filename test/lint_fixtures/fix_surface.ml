type t = int

let called x = x + 1
let compare = Int.compare
let packed x = x * 2

module Inc = struct
  let included x = x - 1
end

module Sub = struct
  let forgotten x = x
end

let unused x = x
let tested x = x
let knobs ?(passed = 0) ?(never = 0) x = x + passed + never
