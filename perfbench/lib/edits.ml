(* Source edits for the serve workload.  Neither edit adds or removes a
   line: reports label loops by source line, so a line shift would change
   every label after it and no verdict could be served from cache. *)

let lines src = String.split_on_char '\n' src

(* Append a line comment carrying [tag] to line [k] (0-based, clamped).
   The lowered IR is unchanged, so every loop verdict is a cache hit; the
   source text, and with it the daemon's warm-session key, is new. *)
let comment ~tag ~line src =
  let ls = Array.of_list (lines src) in
  let k = max 0 (min (Array.length ls - 1) line) in
  ls.(k) <- Printf.sprintf "%s // edit %d" ls.(k) tag;
  String.concat "\n" (Array.to_list ls)

let line_count src = List.length (lines src)

(* Declare a fresh local at the top of [main]'s body, on the line of its
   opening brace.  [main]'s IR — and so its closure digest and the whole
   program digest — changes, which invalidates the cached verdicts of
   main's loops (and of escalated loops pinned to the program digest);
   [tag] makes every edit distinct.  [None] when [main]'s body cannot be
   located textually. *)
let edit_main ~tag src =
  let find_from i pat =
    let n = String.length pat in
    let rec go i =
      if i + n > String.length src then None else if String.sub src i n = pat then Some i else go (i + 1)
    in
    go i
  in
  match find_from 0 "void main(" with
  | None -> None
  | Some i -> (
      match String.index_from_opt src i '{' with
      | None -> None
      | Some b ->
          Some
            (String.sub src 0 (b + 1)
            ^ Printf.sprintf " int bench_edit_%d = %d;" tag tag
            ^ String.sub src (b + 1) (String.length src - b - 1)))
