(* Order statistics, span self time, and open-loop latency accounting.
   Everything the benchmark reports as a percentile or a per-layer self
   time is computed here, so the rules are tested in one place. *)

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] percent
   of the samples at or below it. *)
let percentile xs p =
  let sorted = sorted_copy xs in
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pstats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Samples strictly beyond the nearest-rank [p] percentile. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

(* The percentile rule: report the highest whole percentile (at most 99)
   that still has at least ten samples beyond it.  [None] when even the
   median has fewer than ten samples beyond it (fewer than 20 samples). *)
let tail_percentile n =
  let rec go p = if p < 50 then None else if beyond n (float_of_int p) >= 10 then Some p else go (p - 1) in
  go 99

(* ------------------------------------------------------------------ *)
(* Spans and self time                                                 *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_tid : int;
  sp_start : int;
  sp_stop : int;
  sp_self : int;  (** duration minus the same-tid child spans it encloses, ns *)
  sp_in_task : bool;  (** some enclosing same-tid span is a pool ["task"] *)
}

type frame = { f_name : string; f_start : int; mutable f_children : int; f_in_task : bool }

(* Pair the begin/end events of every domain into spans.  Events of one
   tid are properly nested (Telemetry guarantees it), so a stack per tid
   suffices; a child's whole duration is charged to its parent's
   children, which is what keeps a pool [drain] that runs other tasks
   from counting their time twice.  Unclosed spans are dropped. *)
let spans_of_events (events : Dca_support.Telemetry.event list) =
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (e : Dca_support.Telemetry.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks e.e_tid) ~default:[] in
      match e.e_ph with
      | 'B' ->
          let in_task = match stack with [] -> false | f :: _ -> f.f_in_task || f.f_name = "task" in
          Hashtbl.replace stacks e.e_tid
            ({ f_name = e.e_name; f_start = e.e_ts; f_children = 0; f_in_task = in_task } :: stack)
      | 'E' -> (
          match stack with
          | [] -> ()
          | f :: rest ->
              let dur = e.e_ts - f.f_start in
              (match rest with p :: _ -> p.f_children <- p.f_children + dur | [] -> ());
              Hashtbl.replace stacks e.e_tid rest;
              out :=
                {
                  sp_name = f.f_name;
                  sp_tid = e.e_tid;
                  sp_start = f.f_start;
                  sp_stop = e.e_ts;
                  sp_self = dur - f.f_children;
                  sp_in_task = f.f_in_task;
                }
                :: !out)
      | _ -> ())
    events;
  List.rev !out

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let self_ns pred spans = List.fold_left (fun acc s -> if pred s.sp_name then acc + s.sp_self else acc) 0 spans
let count pred spans = List.fold_left (fun acc s -> if pred s.sp_name then acc + 1 else acc) 0 spans
let total_self_ns spans = List.fold_left (fun acc s -> acc + s.sp_self) 0 spans

(* Time some pool task was running, summed over domains: outermost
   [task] spans only, so a task nested in another task's drain is not
   counted twice. *)
let pool_busy_ns spans =
  List.fold_left
    (fun acc s -> if s.sp_name = "task" && not s.sp_in_task then acc + (s.sp_stop - s.sp_start) else acc)
    0 spans

(* ------------------------------------------------------------------ *)
(* Open-loop latency                                                   *)
(* ------------------------------------------------------------------ *)

(* One request of an open-loop schedule, all times in ns on one clock.
   Latency runs from when the request was due, not from when it was
   sent: a stall that delays sending — a busy connection, or the same
   program's previous request still running — is charged to every
   request it delays.  [t_ready] is when the request could first be sent
   (due, with a free connection and no request of its program in
   flight); the generator's own lateness is [t_sent - t_ready]. *)
type timing = { t_due : int; t_ready : int; t_sent : int; t_done : int }

let latency_ms t = float_of_int (t.t_done - t.t_due) /. 1e6
let wait_ms t = float_of_int (t.t_sent - t.t_due) /. 1e6
let late_ms t = float_of_int (t.t_sent - t.t_ready) /. 1e6
