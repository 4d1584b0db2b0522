(* Tests of the benchmark's own rules: the percentile rule, self time
   under nested pool spans, due-time latency accounting, and the
   correctness gates catching planted wrong verdicts. *)

open Perfbench
module T = Dca_support.Telemetry
module Driver = Dca_core.Driver

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let test_tail_rule () =
  Alcotest.(check (option int)) "1000 samples reach p99" (Some 99) (Pstats.tail_percentile 1000);
  Alcotest.(check (option int)) "999 samples stop at p98" (Some 98) (Pstats.tail_percentile 999);
  Alcotest.(check (option int)) "20 samples reach only the median" (Some 50) (Pstats.tail_percentile 20);
  Alcotest.(check (option int)) "19 samples have no percentile" None (Pstats.tail_percentile 19);
  for n = 20 to 2500 do
    match Pstats.tail_percentile n with
    | None -> Alcotest.fail "expected a percentile"
    | Some p ->
        if Pstats.beyond n (float_of_int p) < 10 then Alcotest.failf "n=%d p%d has fewer than ten beyond" n p;
        if p < 99 && Pstats.beyond n (float_of_int (p + 1)) >= 10 then Alcotest.failf "n=%d: p%d is not the highest" n p
  done

let test_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (Pstats.percentile xs 99.);
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Pstats.percentile xs 50.);
  Alcotest.(check (float 0.)) "p100 is the maximum" 100. (Pstats.percentile xs 100.);
  Alcotest.(check (float 0.)) "median of an even count" 50.5 (Pstats.median xs)

(* ------------------------------------------------------------------ *)
(* Self time                                                           *)
(* ------------------------------------------------------------------ *)

let ev ph name tid ts = { T.e_ph = ph; e_name = name; e_cat = ""; e_ts = ts; e_tid = tid; e_args = [] }

(* Domain 0 waits in a pool drain and runs a task there that itself
   drains and runs a nested task; domain 1 runs a task with a replay. *)
let pool_events =
  [
    ev 'B' "drain" 0 0; ev 'B' "task" 0 10; ev 'B' "drain" 0 15; ev 'B' "task" 0 20; ev 'B' "golden" 0 25;
    ev 'E' "golden" 0 45; ev 'E' "task" 0 50; ev 'E' "drain" 0 55; ev 'E' "task" 0 60; ev 'E' "drain" 0 100;
    ev 'B' "task" 1 5; ev 'B' "replay reverse" 1 6; ev 'E' "replay reverse" 1 30; ev 'E' "task" 1 40;
  ]

let test_self_time () =
  let spans = Pstats.spans_of_events pool_events in
  let self name = Pstats.self_ns (( = ) name) spans in
  Alcotest.(check int) "drains keep only their own wait" (50 + 10) (self "drain");
  Alcotest.(check int) "golden" 20 (self "golden");
  Alcotest.(check int) "replay" 24 (Pstats.self_ns (Pstats.has_prefix "replay ") spans);
  (* self times partition each domain's busy interval: 100 + 35 *)
  Alcotest.(check int) "no double counting" 135 (Pstats.total_self_ns spans);
  let inclusive = List.fold_left (fun a s -> a + (s.Pstats.sp_stop - s.Pstats.sp_start)) 0 spans in
  Alcotest.(check bool) "inclusive sums would exceed wall x jobs" true (inclusive > 100 * 2);
  Alcotest.(check bool) "self sums stay within wall x jobs" true (Pstats.total_self_ns spans <= 100 * 2);
  (* the task nested in another task's drain is not busy time twice *)
  Alcotest.(check int) "pool busy time" (50 + 35) (Pstats.pool_busy_ns spans)

let test_unclosed_spans () =
  let spans = Pstats.spans_of_events [ ev 'B' "a" 0 0; ev 'B' "b" 0 1; ev 'E' "b" 0 3 ] in
  Alcotest.(check int) "only closed spans" 1 (List.length spans)

(* ------------------------------------------------------------------ *)
(* Due-time latency                                                    *)
(* ------------------------------------------------------------------ *)

(* A fake daemon on a real socket: the first reply is held back 60 ms, so
   requests due meanwhile on the single connection wait; their latency
   must be counted from when they were due, not from when they were
   sent. *)
let test_due_time () =
  let path = Printf.sprintf "perfbench-test-%d.sock" (Unix.getpid ()) in
  (try Sys.remove path with Sys_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 1;
  let server =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept srv in
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        for k = 1 to 3 do
          let line = input_line ic in
          if k = 1 then Unix.sleepf 0.06;
          output_string oc ("re:" ^ line ^ "\n");
          flush oc
        done;
        Unix.close fd)
  in
  let conn = Loadgen.connect path in
  let item k due_ms = { Loadgen.it_due_ns = due_ms * 1_000_000; it_key = string_of_int k; it_line = string_of_int k } in
  let res = Loadgen.run ~open_loop:true [ conn ] [| item 1 0; item 2 10; item 3 20 |] in
  Loadgen.close conn;
  Domain.join server;
  Unix.close srv;
  Sys.remove path;
  Alcotest.(check (array (option string))) "replies in order" [| Some "re:1"; Some "re:2"; Some "re:3" |]
    res.Loadgen.replies;
  let t = res.Loadgen.timings in
  Alcotest.(check bool) "request 2 waited for the connection" true (Pstats.wait_ms t.(1) >= 45.);
  Alcotest.(check bool) "the generator itself was not late" true (Pstats.late_ms t.(1) < 20.);
  Alcotest.(check bool) "its latency includes the wait" true (Pstats.latency_ms t.(1) >= 50.);
  Alcotest.(check bool) "one request in flight per connection" true (t.(1).Pstats.t_sent >= t.(0).Pstats.t_done);
  Alcotest.(check bool) "due times follow the schedule" true (t.(2).Pstats.t_due - t.(1).Pstats.t_due = 10_000_000)

(* ------------------------------------------------------------------ *)
(* Planted wrong verdicts                                              *)
(* ------------------------------------------------------------------ *)

let classify = Check.classify_generated ~trip:4

let test_generated_gate () =
  let is_violation = function Check.Violation _ -> true | _ -> false in
  let comm = Dca_gen.Oracle.Commutative and noncomm = Dca_gen.Oracle.Non_commutative [| 1; 0; 2; 3 |] in
  let planted = Some (Driver.Non_commutative "program output differs under reverse") in
  Alcotest.(check bool) "non-commutative where the oracle proves commutative" true
    (is_violation (classify ~oracle:comm ~witness_distinguishes:(fun _ -> true) planted));
  Alcotest.(check bool) "a witness that reproduces nothing" true
    (is_violation (classify ~oracle:noncomm ~witness_distinguishes:(fun _ -> false) planted));
  Alcotest.(check bool) "a real witness agrees" false
    (is_violation (classify ~oracle:noncomm ~witness_distinguishes:(fun _ -> true) planted));
  Alcotest.(check bool) "missed by sampling is counted, not failed" true
    (classify ~oracle:noncomm ~witness_distinguishes:(fun _ -> true) (Some Driver.Commutative) = Check.Missed);
  Alcotest.(check bool) "a missing loop fails" true
    (is_violation (classify ~oracle:comm ~witness_distinguishes:(fun _ -> true) None))

let test_registry_gate () =
  let bm = Dca_progs.Registry.find_exn "DC" in
  Dca_core.Session.with_session ~options:Dca_core.Session.Options.(default |> with_jobs 1)
    (Dca_core.Session.Benchmark bm) (fun s ->
      let info = Dca_core.Session.proginfo s and results = Dca_core.Session.dca_results s in
      let report = Dca_core.Session.report s in
      Alcotest.(check (list string)) "the real report passes" [] (Check.known_sequential bm info results);
      let flipped =
        List.map
          (fun (r : Driver.loop_result) ->
            if Driver.is_commutative r then r else { r with Driver.lr_decision = Driver.Commutative })
          results
      in
      Alcotest.(check bool) "a known-sequential loop flipped to commutative fails" true
        (Check.known_sequential bm info flipped <> []);
      let planted = Dca_core.Report.to_string flipped in
      Alcotest.(check bool) "the flipped report differs from the reference" true
        (Check.same_report ~what:"DC" ~reference:report planted <> []);
      Alcotest.(check (list string)) "identical reports pass" [] (Check.same_report ~what:"DC" ~reference:report report))

let () =
  Alcotest.run "perfbench"
    [
      ("percentiles", [ Alcotest.test_case "tail rule" `Quick test_tail_rule; Alcotest.test_case "nearest rank" `Quick test_nearest_rank ]);
      ("self time", [ Alcotest.test_case "nested pool spans" `Quick test_self_time; Alcotest.test_case "unclosed" `Quick test_unclosed_spans ]);
      ("latency", [ Alcotest.test_case "due time" `Quick test_due_time ]);
      ("gates", [ Alcotest.test_case "generated" `Quick test_generated_gate; Alcotest.test_case "registry" `Quick test_registry_gate ]);
    ]
