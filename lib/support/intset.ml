(** Integer sets and maps used pervasively by the analyses (variable ids,
    instruction ids, block ids). *)

include Set.Make (Int)

let of_option = function None -> empty | Some x -> singleton x
let to_sorted_list s = elements s
let unions l = List.fold_left union empty l

(* Dense membership tables: [table_mem (table s) i = mem i s] for every
   int [i], answered by a bounds check and a byte load instead of a tree
   walk.  Sized by the largest element, so only for sets of small
   non-negative ints (instruction and block ids); a negative element
   raises [Invalid_argument].  A table is an immutable string, so pool
   domains can share one. *)
type table = string

let table s =
  let t = Bytes.make (match max_elt_opt s with Some m -> m + 1 | None -> 0) '\000' in
  iter (fun i -> Bytes.set t i '\001') s;
  Bytes.unsafe_to_string t

let table_mem t i = i >= 0 && i < String.length t && String.unsafe_get t i <> '\000'

module Map = struct
  include Stdlib.Map.Make (Int)

  let find_default key default m = match find_opt key m with Some v -> v | None -> default

  let add_to_list_entry key x m =
    update key (function None -> Some [ x ] | Some l -> Some (x :: l)) m
end
