(* Tests for the dynamic dependence/cost/coverage profiler. *)

open Dca_analysis
open Dca_profiling

let profile_of ?input src =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Proginfo.analyze prog in
  (info, Depprof.profile_program ?input info)

let only_loop info =
  match Proginfo.all_loops info with
  | [ (_, l) ] -> l
  | ls -> Alcotest.failf "expected exactly one loop, got %d" (List.length ls)

let loop_named info func depth =
  Proginfo.all_loops info
  |> List.find_map (fun (_, l) ->
         if l.Loops.l_func = func && l.Loops.l_depth = depth then Some l else None)
  |> function
  | Some l -> l
  | None -> Alcotest.failf "no depth-%d loop in %s" depth func

let has_dep kind p id =
  List.exists (fun d -> d.Depprof.d_kind = kind) (Depprof.deps_of p id)

let test_raw_detected () =
  let info, p =
    profile_of
      "int a[16]; void main() { int i; a[0] = 1; for (i = 1; i < 16; i = i + 1) { a[i] = a[i - 1] + 1; } printi(a[15]); }"
  in
  let l = only_loop info in
  Alcotest.(check bool) "prefix chain has RAW" true (has_dep Depprof.Raw p l.Loops.l_id)

let test_disjoint_no_mem_raw () =
  let info, p =
    profile_of
      "int a[16]; void main() { int i; for (i = 0; i < 16; i = i + 1) { a[i] = i; } printi(a[3]); }"
  in
  let l = only_loop info in
  let mem_raws =
    List.filter
      (fun d ->
        d.Depprof.d_kind = Depprof.Raw
        && match d.Depprof.d_loc with Dca_interp.Events.Lheap _ -> true | _ -> false)
      (Depprof.deps_of p l.Loops.l_id)
  in
  Alcotest.(check int) "no memory RAW in a map loop" 0 (List.length mem_raws)

let test_war_waw_privatizable () =
  let info, p =
    profile_of
      "int a[16]; void main() { int i; int t; for (i = 0; i < 16; i = i + 1) { t = i * 2; a[i] = t; } printi(a[5]); }"
  in
  let l = only_loop info in
  (* t is written before read each iteration: WAW/WAR exist, RAW does not *)
  let deps = Depprof.deps_of p l.Loops.l_id in
  let on_t kind =
    List.exists
      (fun d ->
        d.Depprof.d_kind = kind
        && match d.Depprof.d_loc with Dca_interp.Events.Lreg _ -> true | _ -> false)
      deps
  in
  Alcotest.(check bool) "scalar WAW observed" true (on_t Depprof.Waw);
  (* every scalar RAW is on the induction-variable chain: the dependence
     profiling tool, which filters induction variables, reports the loop
     parallel *)
  let dp =
    Dca_baselines.Depprofiling_tool.tool.Dca_baselines.Tool.tool_analyze info (Some p)
  in
  Alcotest.(check bool) "DP reports the loop parallel" true
    (List.mem l.Loops.l_id (Dca_baselines.Tool.parallel_ids dp))

let test_costs_and_iterations () =
  let info, p =
    profile_of
      "int x; void main() { int i; for (i = 0; i < 10; i = i + 1) { x = x + i; } printi(x); }"
  in
  let l = only_loop info in
  match Depprof.loop_profile p l.Loops.l_id with
  | None -> Alcotest.fail "no profile for the loop"
  | Some lp ->
      Alcotest.(check int) "one invocation" 1 (List.length lp.Depprof.lp_invocations);
      let inv = List.hd lp.Depprof.lp_invocations in
      Alcotest.(check int) "eleven header arrivals" 11 inv.Depprof.inv_iters;
      Alcotest.(check bool) "loop cost positive" true (lp.Depprof.lp_total_cost > 0);
      Alcotest.(check bool) "loop cost below program cost" true
        (lp.Depprof.lp_total_cost < p.Depprof.pr_total_cost)

let test_invocation_count () =
  let info, p =
    profile_of
      {|
      int x;
      void bump() { int k; for (k = 0; k < 3; k = k + 1) { x = x + 1; } }
      void main() { int i; for (i = 0; i < 5; i = i + 1) { bump(); } printi(x); }
      |}
  in
  let l = loop_named info "bump" 1 in
  match Depprof.loop_profile p l.Loops.l_id with
  | Some lp -> Alcotest.(check int) "five invocations" 5 (List.length lp.Depprof.lp_invocations)
  | None -> Alcotest.fail "no profile"

let test_cross_call_attribution () =
  (* accesses made by a callee are attributed to the caller's loop *)
  let info, p =
    profile_of
      {|
      int acc;
      void add_to_acc(int v) { acc = acc + v; }
      void main() { int i; for (i = 0; i < 4; i = i + 1) { add_to_acc(i); } printi(acc); }
      |}
  in
  let l = loop_named info "main" 1 in
  let raw_on_glob =
    List.exists
      (fun d ->
        d.Depprof.d_kind = Depprof.Raw
        && match d.Depprof.d_loc with Dca_interp.Events.Lglob _ -> true | _ -> false)
      (Depprof.deps_of p l.Loops.l_id)
  in
  Alcotest.(check bool) "callee's global RMW attributed to the loop" true raw_on_glob

let test_coverage () =
  let info, p =
    profile_of
      {|
      int x;
      void main() {
        int i;
        for (i = 0; i < 100; i = i + 1) { x = x + i * i; }
        printi(x);
      }
      |}
  in
  let l = only_loop info in
  let cov = Depprof.coverage_of p [ l.Loops.l_id ] in
  Alcotest.(check bool) "hot loop covers most of the program" true (cov > 0.8);
  Alcotest.(check (float 1e-9)) "empty set covers nothing" 0.0 (Depprof.coverage_of p []);
  Alcotest.(check bool) "coverage is a fraction" true (cov <= 1.0)

let test_coverage_union_no_double_count () =
  let info, p =
    profile_of
      {|
      int x;
      void main() {
        int i;
        int j;
        for (i = 0; i < 10; i = i + 1) {
          for (j = 0; j < 10; j = j + 1) { x = x + 1; }
        }
        printi(x);
      }
      |}
  in
  let outer = loop_named info "main" 1 and inner = loop_named info "main" 2 in
  let both = Depprof.coverage_of p [ outer.Loops.l_id; inner.Loops.l_id ] in
  let outer_only = Depprof.coverage_of p [ outer.Loops.l_id ] in
  Alcotest.(check (float 1e-9)) "inner nested in outer adds nothing" outer_only both

let test_rng_dependence () =
  let info, p =
    profile_of
      "float x; void main() { dseed(1); int i; for (i = 0; i < 4; i = i + 1) { x = x + drand(); } print(x); }"
  in
  let l = only_loop info in
  let rng_raw =
    List.exists
      (fun d -> d.Depprof.d_loc = Dca_interp.Events.Lrng && d.Depprof.d_kind = Depprof.Raw)
      (Depprof.deps_of p l.Loops.l_id)
  in
  Alcotest.(check bool) "drand chains through the generator" true rng_raw

(* A canonical rendering of a whole profile: every loop's costs,
   invocations and dependences (sorted), the coverage buckets and the
   total cost. *)
let fingerprint (p : Depprof.profile) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "total %d\n" p.Depprof.pr_total_cost;
  List.iter
    (fun (stack, cost) -> Printf.bprintf b "bucket %s %d\n" (String.concat "/" stack) cost)
    (List.sort compare p.Depprof.pr_buckets);
  Hashtbl.fold (fun id lp acc -> (id, lp) :: acc) p.Depprof.pr_loops []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (id, (lp : Depprof.loop_profile)) ->
         Printf.bprintf b "loop %s cost %d iters %d\n" id lp.Depprof.lp_total_cost lp.Depprof.lp_total_iters;
         List.iter
           (fun inv ->
             Printf.bprintf b " inv %d [%s]\n" inv.Depprof.inv_iters
               (String.concat "," (Array.to_list (Array.map string_of_int inv.Depprof.inv_iter_costs))))
           lp.Depprof.lp_invocations;
         List.map
           (fun d ->
             ( Depprof.dep_kind_to_string d.Depprof.d_kind,
               d.Depprof.d_write_iid,
               d.Depprof.d_read_iid,
               Dca_interp.Events.loc_to_string d.Depprof.d_loc ))
           lp.Depprof.lp_deps
         |> List.sort compare
         |> List.iter (fun (k, w, r, loc) -> Printf.bprintf b " dep %s %d %d %s\n" k w r loc));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The profiler takes register events ([Events.regs = true]) while DCA's
   golden recording drops them; the profile of a registry program is the
   one recorded before the evaluator learned to skip register events for
   memory-only sinks, register dependences included. *)
let test_registry_profile_pinned () =
  let bm = Dca_progs.Registry.find_exn "IS" in
  let prog = Dca_ir.Lower.compile ~file:"IS" bm.Dca_progs.Benchmark.bm_source in
  let info = Proginfo.analyze prog in
  let p = Depprof.profile_program ~input:bm.Dca_progs.Benchmark.bm_input info in
  let reg_deps =
    Hashtbl.fold
      (fun _ lp acc ->
        acc
        + List.length
            (List.filter
               (fun d -> match d.Depprof.d_loc with Dca_interp.Events.Lreg _ -> true | _ -> false)
               lp.Depprof.lp_deps))
      p.Depprof.pr_loops 0
  in
  Alcotest.(check bool) "register dependences profiled" true (reg_deps > 0);
  Alcotest.(check string) "IS profile fingerprint" "3886e4a52943daa946c828cb5086543c" (fingerprint p)

let suites =
  [
    ( "depprof",
      [
        Alcotest.test_case "raw detected" `Quick test_raw_detected;
        Alcotest.test_case "disjoint map" `Quick test_disjoint_no_mem_raw;
        Alcotest.test_case "privatizable scalar" `Quick test_war_waw_privatizable;
        Alcotest.test_case "costs and iterations" `Quick test_costs_and_iterations;
        Alcotest.test_case "invocations" `Quick test_invocation_count;
        Alcotest.test_case "cross-call attribution" `Quick test_cross_call_attribution;
        Alcotest.test_case "coverage" `Quick test_coverage;
        Alcotest.test_case "coverage union" `Quick test_coverage_union_no_double_count;
        Alcotest.test_case "rng dependence" `Quick test_rng_dependence;
        Alcotest.test_case "registry profile pinned" `Quick test_registry_profile_pinned;
      ] );
  ]
