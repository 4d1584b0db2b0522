(* Correctness gates.  Every check returns the list of problems it found;
   the workloads count each one as a failed output. *)

module Driver = Dca_core.Driver
module Loops = Dca_analysis.Loops
module Benchmark = Dca_progs.Benchmark

(* A report must equal its reference byte for byte; the first differing
   line is named so a failure is readable. *)
let same_report ~what ~reference report =
  if String.equal reference report then []
  else
    let rl = String.split_on_char '\n' reference and gl = String.split_on_char '\n' report in
    let rec first i = function
      | r :: rs, g :: gs -> if r = g then first (i + 1) (rs, gs) else Printf.sprintf "line %d: %S vs %S" i r g
      | r :: _, [] -> Printf.sprintf "line %d missing: %S" i r
      | [], g :: _ -> Printf.sprintf "line %d extra: %S" i g
      | [], [] -> "trailing bytes"
    in
    [ Printf.sprintf "%s: report differs from reference at %s" what (first 1 (rl, gl)) ]

(* No loop the benchmark author wrote to be order-dependent may come back
   commutative. *)
let known_sequential (bm : Benchmark.t) info (results : Driver.loop_result list) =
  let seq = Benchmark.resolve info bm.Benchmark.bm_known_sequential in
  List.filter_map
    (fun (r : Driver.loop_result) ->
      if Driver.is_commutative r && List.mem r.Driver.lr_loop.Loops.l_id seq then
        Some
          (Printf.sprintf "%s: known-sequential loop %s reported commutative" bm.Benchmark.bm_name
             r.Driver.lr_label)
      else None)
    results

(* ------------------------------------------------------------------ *)
(* Generated programs against the exhaustive oracle                    *)
(* ------------------------------------------------------------------ *)

type gen_class =
  | Agree
  | Missed  (** the oracle found a witness, DCA's sampled schedules did not: counted, not failed *)
  | Incomplete  (** rejected, untestable or unsupported: counted, not failed *)
  | Violation of string

(* Non-commutative verdicts name their schedule as "... under <sched>" or
   "... under <sched>: <detail>" (the last occurrence wins). *)
let witness_schedule why =
  let key = "under " in
  let k = String.length key in
  let rec last i acc =
    if i + k > String.length why then acc
    else last (i + 1) (if String.sub why i k = key then Some (i + k) else acc)
  in
  Option.bind (last 0 None) (fun start ->
      let stop = Option.value (String.index_from_opt why start ':') ~default:(String.length why) in
      Dca_core.Schedule.of_string (String.trim (String.sub why start (stop - start))))

(* [witness_distinguishes perm] re-executes the oracle's unrolled program
   under [perm]; it is only consulted for non-commutative verdicts. *)
let classify_generated ~(oracle : Dca_gen.Oracle.verdict) ~trip ~witness_distinguishes
    (decision : Driver.decision option) =
  match (decision, oracle) with
  | None, _ -> Violation "marked loop missing from the DCA results"
  | Some (Driver.Aborted { ab_cause; _ }), _ ->
      Violation ("aborted: " ^ Driver.abort_cause_to_string ab_cause)
  | Some (Driver.Non_commutative why), Dca_gen.Oracle.Commutative ->
      Violation ("non-commutative, but every permutation agrees: " ^ why)
  | Some (Driver.Non_commutative why), Dca_gen.Oracle.Non_commutative _ -> (
      match witness_schedule why with
      | None -> Agree
      | Some sched ->
          if witness_distinguishes (Dca_core.Schedule.apply sched trip) then Agree
          else Violation ("bogus witness: " ^ why))
  | Some Driver.Commutative, Dca_gen.Oracle.Non_commutative _ -> Missed
  | Some Driver.Commutative, Dca_gen.Oracle.Commutative -> Agree
  | Some _, _ -> Incomplete
