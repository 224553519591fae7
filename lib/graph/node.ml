type t = int

let compare = Int.compare
let equal = Int.equal
let hash (u : t) = u land max_int
let pp = Format.pp_print_int
let to_string = string_of_int

module Set = struct
  include Set.Make (Int)

  let pp ppf s =
    Format.fprintf ppf "{@[%a@]}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         Format.pp_print_int)
      (elements s)
end

module Map = struct
  include Map.Make (Int)

  let pp pp_v ppf m =
    let pp_binding ppf (k, v) = Format.fprintf ppf "%d -> %a" k pp_v v in
    Format.fprintf ppf "{@[%a@]}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         pp_binding)
      (bindings m)

  let find_or ~default k m = match find_opt k m with Some v -> v | None -> default
end
