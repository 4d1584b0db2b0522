(* End-to-end tests of the DCA pipeline on the paper's motivating examples
   (Fig. 1 and Fig. 2) and on loops with known ground truth. *)

open Dca_analysis
open Dca_core

let analyze ?config ?static src = Driver.analyze_source ?config ?static ~file:"<test>" src

(* The single deepest tested loop result in function [f]. *)
let results_in f (results : Driver.loop_result list) =
  List.filter (fun r -> r.Driver.lr_loop.Loops.l_func = f) results

let check_verdict name expected (r : Driver.loop_result) =
  let actual =
    match r.Driver.lr_decision with
    | Driver.Commutative -> "commutative"
    | Driver.Non_commutative _ -> "non-commutative"
    | Driver.Untestable _ -> "untestable"
    | Driver.Rejected _ -> "rejected"
    | Driver.Subsumed _ -> "subsumed"
    | Driver.Aborted _ -> "aborted"
  in
  Alcotest.(check string)
    (Printf.sprintf "%s (%s: %s)" name r.Driver.lr_label
       (Driver.decision_to_string r.Driver.lr_decision))
    expected actual

(* Fig. 1(a): array map loop. *)
let test_fig1a () =
  let _, results =
    analyze
      {|
      int array[16];
      void main() {
        int i;
        for (i = 0; i < 16; i = i + 1) { array[i] = array[i] + 1; }
        printi(array[7]);
      }
      |}
  in
  match results_in "main" results with
  | [ r ] -> check_verdict "array map is commutative" "commutative" r
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs)

(* Fig. 1(b): PLDS map loop — defeats dependence analysis, commutative
   under DCA. *)
let test_fig1b () =
  let _, results =
    analyze
      {|
      struct node { int val; struct node *next; }
      struct node *head;
      void build() {
        int i;
        for (i = 0; i < 12; i = i + 1) {
          struct node *n = new struct node;
          n->val = i;
          n->next = head;
          head = n;
        }
      }
      void main() {
        build();
        struct node *ptr = head;
        while (ptr) {
          ptr->val = ptr->val + 1;
          ptr = ptr->next;
        }
        int total = 0;
        struct node *q = head;
        while (q) { total = total + q->val; q = q->next; }
        printi(total);
      }
      |}
  in
  match results_in "main" results with
  | [ map_loop; sum_loop ] ->
      check_verdict "PLDS map is commutative" "commutative" map_loop;
      check_verdict "PLDS sum reduction is commutative" "commutative" sum_loop
  | rs -> Alcotest.failf "expected 2 loops in main, got %d" (List.length rs)

(* A genuinely order-dependent loop: prefix sums (each iteration reads the
   previous element's updated value). *)
let test_prefix_sum_not_commutative () =
  let _, results =
    analyze
      {|
      int a[16];
      void main() {
        int i;
        for (i = 0; i < 16; i = i + 1) { a[i] = i; }
        for (i = 1; i < 16; i = i + 1) { a[i] = a[i] + a[i - 1]; }
        printi(a[15]);
      }
      |}
  in
  match results_in "main" results with
  | [ init_loop; prefix_loop ] ->
      check_verdict "init loop commutative" "commutative" init_loop;
      check_verdict "prefix sum not commutative" "non-commutative" prefix_loop
  | rs -> Alcotest.failf "expected 2 loops, got %d" (List.length rs)

(* Last-writer-wins: the final value depends on iteration order. *)
let test_last_writer_not_commutative () =
  let _, results =
    analyze
      {|
      int last;
      void main() {
        int i;
        for (i = 0; i < 10; i = i + 1) { last = i; }
        printi(last);
      }
      |}
  in
  match results_in "main" results with
  | [ r ] -> check_verdict "last writer wins" "non-commutative" r
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs)

(* Scalar reduction: commutative even though dependence-based tools need
   special-casing. *)
let test_float_reduction () =
  let _, results =
    analyze
      {|
      float a[32];
      float total;
      void main() {
        int i;
        for (i = 0; i < 32; i = i + 1) { a[i] = hrand(i); }
        for (i = 0; i < 32; i = i + 1) { total = total + a[i] * a[i]; }
        print(total);
      }
      |}
  in
  match results_in "main" results with
  | [ _; red ] -> check_verdict "fp reduction commutative" "commutative" red
  | rs -> Alcotest.failf "expected 2 loops, got %d" (List.length rs)

(* I/O excludes a loop in the static stage (paper §IV-E). *)
let test_io_rejected () =
  let _, results =
    analyze
      {|
      void main() {
        int i;
        for (i = 0; i < 3; i = i + 1) { printi(i); }
      }
      |}
  in
  match results_in "main" results with
  | [ r ] -> check_verdict "io loop rejected" "rejected" r
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs)

(* Fig. 2: BFS with worklists.  The top-down step pops from the frontier
   (iterator, via promotion) and pushes to the next frontier (payload), and
   the dist updates are commutative. *)
let bfs_source =
  {|
  struct node { int vert; struct node *next; }
  struct list { struct node *head; int size; }

  int nvert;
  struct list *adj[16];     // adjacency lists
  int dist[16];
  struct list *frontier;
  struct list *next_frontier;

  void push(struct list *l, int v) {
    struct node *n = new struct node;
    n->vert = v;
    n->next = l->head;
    l->head = n;
    l->size = l->size + 1;
  }

  int pop(struct list *l) {
    struct node *n = l->head;
    l->head = n->next;
    l->size = l->size - 1;
    return n->vert;
  }

  void add_edge(int a, int b) {
    push(adj[a], b);
    push(adj[b], a);
  }

  void main() {
    nvert = 12;
    int i;
    for (i = 0; i < nvert; i = i + 1) {
      adj[i] = new struct list;
      dist[i] = 1000000;
    }
    frontier = new struct list;
    next_frontier = new struct list;
    // a small graph: a ring plus chords
    for (i = 0; i < nvert; i = i + 1) { add_edge(i, (i + 1) % nvert); }
    add_edge(0, 6);
    add_edge(2, 9);
    dist[0] = 0;
    push(frontier, 0);
    while (frontier->size) {
      // top-down step
      while (frontier->size) {
        int current = pop(frontier);
        struct node *n = adj[current]->head;
        while (n) {
          if (dist[n->vert] > dist[current] + 1) {
            dist[n->vert] = dist[current] + 1;
            push(next_frontier, n->vert);
          }
          n = n->next;
        }
      }
      struct list *tmp = frontier;
      frontier = next_frontier;
      next_frontier = tmp;
    }
    for (i = 0; i < nvert; i = i + 1) { printi(dist[i]); }
  }
  |}

let test_bfs () =
  let _, results = analyze bfs_source in
  let main_loops = results_in "main" results in
  (* find the top-down step: depth-2 loop in main *)
  let top_down =
    List.find_opt
      (fun r ->
        r.Driver.lr_loop.Loops.l_depth = 2)
      main_loops
  in
  match top_down with
  | Some r -> check_verdict "BFS top-down step commutative" "commutative" r
  | None -> Alcotest.fail "no depth-2 loop found in BFS main"

(* The worklist promotion must have happened for the BFS top-down loop. *)
let test_bfs_promotion_recorded () =
  let _, results = analyze bfs_source in
  let top_down =
    List.find (fun r -> r.Driver.lr_loop.Loops.l_depth = 2) (results_in "main" results)
  in
  match top_down.Driver.lr_outcome with
  | Some oc -> Alcotest.(check bool) "promotions or escalation happened" true
      (oc.Commutativity.oc_promotions > 0 || oc.Commutativity.oc_escalated)
  | None -> Alcotest.fail "expected a dynamic outcome"

(* Loops never executed by the workload are untestable (paper §V-C1, MG). *)
let test_unexecuted_loop () =
  let src =
    {|
    int flag;
    int a[4];
    void main() {
      int i;
      if (flag) {
        for (i = 0; i < 4; i = i + 1) { a[i] = i; }
      }
      printi(flag);
    }
    |}
  in
  (* Dynamically the loop never runs (flag is 0), so the dynamic stage
     alone must say untestable ... *)
  let _, dynamic = analyze ~static:false src in
  (match results_in "main" dynamic with
  | [ r ] ->
      check_verdict "unexecuted loop, prover off" "untestable" r;
      Alcotest.(check bool) "provenance dynamic" true (r.Driver.lr_provenance = Driver.Dynamic)
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs));
  (* ... while the static prover decides without executing: a[i] = i is
     affinely independent, so the default pipeline proves it. *)
  let _, proved = analyze src in
  match results_in "main" proved with
  | [ r ] ->
      check_verdict "unexecuted loop, prover on" "commutative" r;
      Alcotest.(check bool) "provenance static" true (r.Driver.lr_provenance = Driver.Static)
  | rs -> Alcotest.failf "expected 1 loop, got %d" (List.length rs)

(* Iterator/payload separation on the motivating shapes. *)
let separation_of src fname =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Proginfo.analyze prog in
  let fi = Proginfo.func_info info fname in
  match Loops.loops fi.Proginfo.fi_forest with
  | [ l ] -> Iterator_rec.separate fi l
  | ls -> Alcotest.failf "expected exactly 1 loop in %s, got %d" fname (List.length ls)

let test_separation_for_loop () =
  let sep =
    separation_of
      "int a[8]; void f() { int i; for (i = 0; i < 8; i = i + 1) { a[i] = a[i] * 2; } } void main() { f(); }"
      "f"
  in
  Alcotest.(check int) "one interface var" 1 (List.length sep.Iterator_rec.sep_interface);
  let iv = List.hd sep.Iterator_rec.sep_interface in
  Alcotest.(check string) "interface is i" "i" iv.Iterator_rec.if_var.Dca_ir.Ir.vname;
  Alcotest.(check bool) "i is pre" true (iv.Iterator_rec.if_phase = Iterator_rec.Pre);
  Alcotest.(check bool) "payload nonempty" false (Iterator_rec.is_iterator_only sep)

let test_separation_plds () =
  let sep =
    separation_of
      {|
      struct node { int val; struct node *next; }
      struct node *head;
      void walk() {
        struct node *p = head;
        while (p) { p->val = p->val + 1; p = p->next; }
      }
      void main() { walk(); }
      |}
      "walk"
  in
  let names = List.map (fun iv -> iv.Iterator_rec.if_var.Dca_ir.Ir.vname) sep.Iterator_rec.sep_interface in
  Alcotest.(check bool) "p is interface" true (List.mem "p" names);
  let p = List.find (fun iv -> iv.Iterator_rec.if_var.Dca_ir.Ir.vname = "p") sep.Iterator_rec.sep_interface in
  Alcotest.(check bool) "p is pre" true (p.Iterator_rec.if_phase = Iterator_rec.Pre)

(* Schedules are permutations. *)
let prop_schedules_bijective =
  QCheck.Test.make ~count:200 ~name:"schedules are bijections"
    QCheck.(pair (int_bound 200) (int_bound 5))
    (fun (n, which) ->
      let sched =
        match which with
        | 0 -> Schedule.Identity
        | 1 -> Schedule.Reverse
        | 2 -> Schedule.Rotate
        | k -> Schedule.Shuffle k
      in
      let p = Schedule.apply sched n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.length p = n && Array.for_all (fun b -> b) seen)

(* Map loops over arrays are commutative for arbitrary sizes. *)
let prop_map_loops_commutative =
  QCheck.Test.make ~count:12 ~name:"map loops are always commutative"
    QCheck.(int_range 1 40)
    (fun n ->
      let src =
        Printf.sprintf
          {|
          int a[%d];
          void main() {
            int i;
            for (i = 0; i < %d; i = i + 1) { a[i] = a[i] + i * i; }
            printi(a[%d]);
          }
          |}
          n n (n / 2)
      in
      let _, results = analyze src in
      match results_in "main" results with [ r ] -> Driver.is_commutative r | _ -> false)

let suites =
  [
    ( "dca-motivating",
      [
        Alcotest.test_case "fig1a array map" `Quick test_fig1a;
        Alcotest.test_case "fig1b plds map" `Quick test_fig1b;
        Alcotest.test_case "prefix sum" `Quick test_prefix_sum_not_commutative;
        Alcotest.test_case "last writer" `Quick test_last_writer_not_commutative;
        Alcotest.test_case "fp reduction" `Quick test_float_reduction;
        Alcotest.test_case "io rejected" `Quick test_io_rejected;
        Alcotest.test_case "fig2 bfs" `Quick test_bfs;
        Alcotest.test_case "bfs promotion" `Quick test_bfs_promotion_recorded;
        Alcotest.test_case "unexecuted" `Quick test_unexecuted_loop;
      ] );
    ( "dca-separation",
      [
        Alcotest.test_case "for loop" `Quick test_separation_for_loop;
        Alcotest.test_case "plds loop" `Quick test_separation_plds;
        QCheck_alcotest.to_alcotest prop_schedules_bijective;
        QCheck_alcotest.to_alcotest prop_map_loops_commutative;
      ] );
  ]

(* ---------------------------------------------------------------- *)
(* Additional features: hierarchical exploration, advisor, codegen,  *)
(* IR verification                                                   *)
(* ---------------------------------------------------------------- *)

let nest_src =
  {|
  float u[8][8];
  void main() {
    int i;
    int j;
    for (i = 0; i < 8; i = i + 1) {
      for (j = 0; j < 8; j = j + 1) { u[i][j] = itof(i + j); }
    }
    print(u[3][4]);
  }
  |}

let test_hierarchical_subsumes () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" nest_src in
  let info = Proginfo.analyze prog in
  let flat = Driver.analyze_program info in
  let hier = Driver.analyze_program ~hierarchical:true info in
  let count pred rs = List.length (List.filter pred rs) in
  Alcotest.(check int) "flat tests both" 2 (count Driver.is_commutative flat);
  Alcotest.(check int) "hierarchical keeps one commutative" 1 (count Driver.is_commutative hier);
  Alcotest.(check int) "inner is subsumed" 1
    (count (fun r -> match r.Driver.lr_decision with Driver.Subsumed _ -> true | _ -> false) hier);
  (* the subsumed loop names its commutative ancestor *)
  List.iter
    (fun r ->
      match r.Driver.lr_decision with
      | Driver.Subsumed parent ->
          Alcotest.(check bool) "ancestor is a real loop" true
            (List.exists (fun r' -> r'.Driver.lr_loop.Loops.l_id = parent) hier)
      | _ -> ())
    hier

let advisory_src =
  {|
  float a[64];
  float total;
  void main() {
    int i;
    int r;
    for (r = 0; r < 30; r = r + 1) {
      for (i = 0; i < 64; i = i + 1) { a[i] = a[i] + hrand(i + r * 100); }
    }
    total = 0.0;
    for (i = 0; i < 64; i = i + 1) { total = total + a[i]; }
    for (i = 1; i < 64; i = i + 1) { a[i] = a[i] + a[i - 1]; }
    print(total);
    print(a[63]);
  }
  |}

let advise_on src =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Proginfo.analyze prog in
  let profile = Dca_profiling.Depprof.profile_program info in
  let results = Driver.analyze_program info in
  (info, profile, results, Advisor.advise info profile results)

let test_advisor_recommendations () =
  let _, _, _, advices = advise_on advisory_src in
  let hot = List.hd advices in
  (* the hottest loop is the outer sweep and it should be parallelizable *)
  Alcotest.(check bool) "hot loop first" true (hot.Advisor.ad_coverage > 0.5);
  (match hot.Advisor.ad_recommendation with
  | Advisor.Parallelize | Advisor.Parallelize_with_review _ -> ()
  | _ -> Alcotest.failf "expected a parallelize recommendation, got: %s" (Advisor.to_string hot));
  Alcotest.(check bool) "pragma present" true (hot.Advisor.ad_pragma <> None);
  (* the prefix-sum loop must be kept sequential *)
  let seq =
    List.filter
      (fun a ->
        match a.Advisor.ad_recommendation with Advisor.Keep_sequential _ -> true | _ -> false)
      advices
  in
  Alcotest.(check bool) "an order-dependent loop is kept sequential" true (seq <> []);
  (* report renders *)
  Alcotest.(check bool) "report non-empty" true (String.length (Advisor.report advices) > 100)

let test_advisor_reduction_pragma () =
  let _, _, _, advices = advise_on advisory_src in
  let has_reduction_pragma =
    List.exists
      (fun a ->
        match a.Advisor.ad_pragma with
        | Some p ->
            let rec contains i =
              i + 9 <= String.length p && (String.sub p i 9 = "reduction" || contains (i + 1))
            in
            contains 0
        | None -> false)
      advices
  in
  Alcotest.(check bool) "total reduction clause suggested" true has_reduction_pragma

let test_codegen_annotation () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" advisory_src in
  let info = Proginfo.analyze prog in
  let profile = Dca_profiling.Depprof.profile_program info in
  let results = Driver.analyze_program info in
  let plan =
    Dca_parallel.Planner.select ~machine:Dca_parallel.Machine.default info profile
      ~detected:(Driver.commutative_ids results) ~strategy:Dca_parallel.Planner.Best_benefit
  in
  let annotated = Dca_parallel.Codegen.annotate_source info ~source:advisory_src plan in
  let count_pragmas s =
    String.split_on_char '\n' s
    |> List.filter (fun l ->
           let l = String.trim l in
           String.length l >= 10 && String.sub l 0 10 = "// #pragma")
    |> List.length
  in
  Alcotest.(check int) "one pragma per planned loop" (List.length plan.Dca_parallel.Plan.plan_loops)
    (count_pragmas annotated);
  (* annotated text is a superset: stripping pragma lines recovers the source *)
  let stripped =
    String.split_on_char '\n' annotated
    |> List.filter (fun l ->
           let t = String.trim l in
           not (String.length t >= 10 && String.sub t 0 10 = "// #pragma"))
    |> String.concat "\n"
  in
  Alcotest.(check string) "source preserved" advisory_src stripped

let test_ir_verify_all_benchmarks () =
  List.iter
    (fun bm ->
      match Dca_ir.Ir_verify.verify_program (Dca_progs.Benchmark.compile bm) with
      | Ok () -> ()
      | Error problems ->
          Alcotest.failf "%s: %s" bm.Dca_progs.Benchmark.bm_name (String.concat "; " problems))
    Dca_progs.Registry.all

let test_ir_verify_catches_bad_target () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" "void main() { printi(1); }" in
  let f = Dca_ir.Ir.find_func_exn prog "main" in
  (* corrupt: point the entry terminator out of range *)
  f.Dca_ir.Ir.fblocks.(0).Dca_ir.Ir.bterm <- Dca_ir.Ir.Br 999;
  match Dca_ir.Ir_verify.verify_program prog with
  | Ok () -> Alcotest.fail "expected a verification failure"
  | Error problems -> Alcotest.(check bool) "mentions the target" true
      (List.exists (fun m -> String.length m > 0) problems)

let extension_suites =
  [
    ( "dca-extensions",
      [
        Alcotest.test_case "hierarchical subsumption" `Quick test_hierarchical_subsumes;
        Alcotest.test_case "advisor recommendations" `Quick test_advisor_recommendations;
        Alcotest.test_case "advisor reduction pragma" `Quick test_advisor_reduction_pragma;
        Alcotest.test_case "codegen annotation" `Quick test_codegen_annotation;
        Alcotest.test_case "ir verify benchmarks" `Quick test_ir_verify_all_benchmarks;
        Alcotest.test_case "ir verify catches corruption" `Quick test_ir_verify_catches_bad_target;
      ] );
  ]

let suites = suites @ extension_suites

(* ---------------------------------------------------------------- *)
(* Future-work features: multi-input testing, per-invocation          *)
(* verdicts (context sensitivity), skeleton classification            *)
(* ---------------------------------------------------------------- *)

(* A loop whose commutativity depends on the input: the first integer of
   the input stream decides whether updates collide order-sensitively. *)
let input_dependent_src =
  {|
  int a[16];
  int mode;
  void main() {
    mode = reads();
    int i;
    for (i = 1; i < 16; i = i + 1) {
      if (mode == 1) {
        a[i] = a[i] + a[i - 1] + i;   // carried chain
      } else {
        a[i] = a[i] + i;              // disjoint updates
      }
    }
    printi(a[15]);
  }
  |}

let test_multi_input_refutes () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" input_dependent_src in
  let info = Proginfo.analyze prog in
  let fi = Proginfo.func_info info "main" in
  let loop = List.hd (Loops.loops fi.Proginfo.fi_forest) in
  let sep = Iterator_rec.separate fi loop in
  let spec input = Commutativity.make_run_spec ~fuel:50_000_000 input in
  let benign = Commutativity.test_loop Commutativity.default_config info (spec [ 0 ]) fi sep in
  let hostile = Commutativity.test_loop Commutativity.default_config info (spec [ 1 ]) fi sep in
  Alcotest.(check bool) "benign input: commutative" true
    (benign.Commutativity.oc_verdict = Commutativity.Commutative);
  Alcotest.(check bool) "hostile input: refuted" true
    (match hostile.Commutativity.oc_verdict with Commutativity.Non_commutative _ -> true | _ -> false);
  (* combined testing over both inputs must be refuted (paper §V-D) *)
  let combined =
    Commutativity.test_loop_inputs Commutativity.default_config info [ spec [ 0 ]; spec [ 1 ] ] fi sep
  in
  Alcotest.(check bool) "combined inputs: refuted" true
    (match combined.Commutativity.oc_verdict with Commutativity.Non_commutative _ -> true | _ -> false);
  Alcotest.(check bool) "combined counts both runs" true (combined.Commutativity.oc_invocations >= 2)

(* Context sensitivity: the same loop commutative in one invocation and
   order-dependent in another. *)
let context_dependent_src =
  {|
  float a[16];
  int chain;
  void work() {
    int i;
    for (i = 1; i < 16; i = i + 1) {
      if (chain == 1) {
        a[i] = a[i] + a[i - 1];
      } else {
        a[i] = a[i] + 1.0;
      }
    }
  }
  void main() {
    chain = 0;
    work();          // first invocation: disjoint updates
    chain = 1;
    work();          // second invocation: carried chain
    print(a[15]);
  }
  |}

let test_per_invocation_verdicts () =
  let prog = Dca_ir.Lower.compile ~file:"<test>" context_dependent_src in
  let info = Proginfo.analyze prog in
  let fi = Proginfo.func_info info "work" in
  let loop = List.hd (Loops.loops fi.Proginfo.fi_forest) in
  let sep = Iterator_rec.separate fi loop in
  let outcome =
    Commutativity.test_loop Commutativity.default_config info Commutativity.default_run_spec fi sep
  in
  (* the aggregate verdict is refuted ... *)
  Alcotest.(check bool) "aggregate refuted" true
    (match outcome.Commutativity.oc_verdict with Commutativity.Non_commutative _ -> true | _ -> false);
  (* ... and the per-invocation trail shows the mixed contexts *)
  match outcome.Commutativity.oc_per_invocation with
  | [ first; second ] ->
      Alcotest.(check bool) "first context commutative" true (first = Commutativity.Commutative);
      Alcotest.(check bool) "second context flagged" true (second <> Commutativity.Commutative)
  | l -> Alcotest.failf "expected 2 invocation verdicts, got %d" (List.length l)

let skeleton_of src =
  let prog = Dca_ir.Lower.compile ~file:"<test>" src in
  let info = Proginfo.analyze prog in
  (* prover off: skeleton classification consumes the dynamic outcome *)
  let results = Driver.analyze_program ~static:false info in
  let r =
    List.find
      (fun r -> Driver.is_commutative r && r.Driver.lr_loop.Loops.l_depth = 1)
      results
  in
  let fi = Proginfo.func_info info r.Driver.lr_loop.Loops.l_func in
  Skeleton.classify info fi (Option.get r.Driver.lr_outcome)

let test_skeleton_map () =
  let sk = skeleton_of "int a[16]; void main() { int i; for (i = 0; i < 16; i = i + 1) { a[i] = i; } printi(a[3]); }" in
  Alcotest.(check string) "map" "map" (Skeleton.shape_to_string sk.Skeleton.sk_shape);
  Alcotest.(check bool) "not pointer based" false sk.Skeleton.sk_pointer_based

let test_skeleton_reduction () =
  let sk =
    skeleton_of
      "float a[16]; float t; void main() { int i; for (i = 0; i < 16; i = i + 1) { t = t + a[i]; } print(t); }"
  in
  match sk.Skeleton.sk_shape with
  | Skeleton.Reduction { histogram = false } -> ()
  | s -> Alcotest.failf "expected reduction, got %s" (Skeleton.shape_to_string s)

let test_skeleton_histogram () =
  let sk =
    skeleton_of
      "int h[8]; int k[64]; void main() { int i; for (i = 0; i < 64; i = i + 1) { h[k[i] % 8] = h[k[i] % 8] + 1; } printi(h[1]); }"
  in
  match sk.Skeleton.sk_shape with
  | Skeleton.Reduction { histogram = true } -> ()
  | s -> Alcotest.failf "expected histogram, got %s" (Skeleton.shape_to_string s)

let test_skeleton_worklist_and_plds () =
  let prog = Dca_progs.Benchmark.compile (Dca_progs.Registry.find_exn "treeadd") in
  let info = Proginfo.analyze prog in
  let results = Driver.analyze_program info in
  let r =
    List.find
      (fun r -> r.Driver.lr_loop.Loops.l_func = "tree_add" && Driver.is_commutative r)
      results
  in
  let fi = Proginfo.func_info info "tree_add" in
  let sk = Skeleton.classify info fi (Option.get r.Driver.lr_outcome) in
  Alcotest.(check string) "worklist" "worklist" (Skeleton.shape_to_string sk.Skeleton.sk_shape);
  Alcotest.(check bool) "pointer based" true sk.Skeleton.sk_pointer_based

let test_skeleton_plds_map () =
  let sk =
    skeleton_of
      {|
      struct node { float v; struct node *next; }
      struct node *head;
      void main() {
        int i;
        for (i = 0; i < 8; i = i + 1) {
          struct node *n = new struct node;
          n->v = hrand(i);
          n->next = head;
          head = n;
        }
        struct node *p = head;
        while (p) { p->v = p->v * 2.0; p = p->next; }
        print(head->v);
      }
      |}
  in
  ignore sk;
  (* note: [p->v = p->v * 2.0] is textually a product RMW, so the loop
     below uses a plain overwrite to exercise the Map class *)
  (* classify the while loop specifically *)
  let prog =
    Dca_ir.Lower.compile ~file:"<test>"
      {|
      struct node { float v; struct node *next; }
      struct node *head;
      void build() {
        int i;
        for (i = 0; i < 8; i = i + 1) {
          struct node *n = new struct node;
          n->v = hrand(i);
          n->next = head;
          head = n;
        }
      }
      void main() {
        build();
        struct node *p = head;
        int k = 0;
        while (p) { p->v = hrand(k) * 2.0; k = k + 1; p = p->next; }
        print(head->v);
      }
      |}
  in
  let info = Proginfo.analyze prog in
  let results = Driver.analyze_program info in
  let r = List.find (fun r -> r.Driver.lr_loop.Loops.l_func = "main") results in
  let fi = Proginfo.func_info info "main" in
  let sk = Skeleton.classify info fi (Option.get r.Driver.lr_outcome) in
  Alcotest.(check string) "plds map" "map" (Skeleton.shape_to_string sk.Skeleton.sk_shape);
  Alcotest.(check bool) "pointer based" true sk.Skeleton.sk_pointer_based

let future_suites =
  [
    ( "dca-future-work",
      [
        Alcotest.test_case "multi-input refutation" `Quick test_multi_input_refutes;
        Alcotest.test_case "per-invocation contexts" `Quick test_per_invocation_verdicts;
        Alcotest.test_case "skeleton: map" `Quick test_skeleton_map;
        Alcotest.test_case "skeleton: reduction" `Quick test_skeleton_reduction;
        Alcotest.test_case "skeleton: histogram" `Quick test_skeleton_histogram;
        Alcotest.test_case "skeleton: worklist" `Quick test_skeleton_worklist_and_plds;
        Alcotest.test_case "skeleton: plds map" `Quick test_skeleton_plds_map;
      ] );
  ]

let suites = suites @ future_suites

(* ---------------------------------------------------------------- *)
(* Whole-program verification reuses the test run's output           *)
(* ---------------------------------------------------------------- *)

(* Whole-program verification compares every permuted run with the
   output of the loop's own test run.  The premise: the test run is the
   plain program, because each tested invocation restores the store —
   output, rng, input position, allocation watermark — before the loop
   runs in original order.  Each escalated loop below allocates, draws
   from [drand] or reseeds with [dseed], and reads input, and the program
   keeps printing afterwards (including from the rng and the input
   stream), so a state the restore missed would show in the output.
   The verdict and its message must equal those of the differential
   reference that runs the plain program separately. *)
let golden_reuse_programs =
  let prelude =
    {|
    struct node { float v; int k; struct node *next; }
    struct node *head;
    void build(int m) {
      int i;
      for (i = 0; i < m; i = i + 1) {
        struct node *n = new struct node;
        n->v = drand() + i;
        n->k = reads() + 100 * i;
        n->next = head;
        head = n;
      }
    }
    void sums() {
      float s = 0.0;
      int t = 0;
      struct node *p = head;
      while (p) { s = s + p->v; t = t + p->k; p = p->next; }
      print(s);
      printi(t);
    }
    |}
  in
  [
    ( "order-insensitive sum",
      "commutative",
      "build",
      prelude ^ "void main() { dseed(7); build(8); sums(); print(drand()); printi(reads()); }" );
    ( "first node printed",
      "non-commutative",
      "build",
      prelude ^ "void main() { dseed(7); build(8); printi(head->k); sums(); }" );
    ( "reseeded per iteration",
      "non-commutative",
      "main",
      prelude
      ^ {|
      void main() {
        int i;
        for (i = 0; i < 8; i = i + 1) {
          dseed(i + 3);
          struct node *n = new struct node;
          n->v = drand() + i;
          n->k = reads() + 100 * i;
          n->next = head;
          head = n;
        }
        sums();
        print(drand());
        printi(reads());
      }
      |} );
    ( "two invocations, output between",
      "commutative",
      "build",
      prelude
      ^ "void main() { dseed(11); build(5); sums(); build(6); sums(); print(drand()); printi(reads()); }" );
  ]

let test_wp_golden_reuse () =
  let input = List.init 40 (fun i -> (i * 37) mod 101) in
  let spec = Commutativity.make_run_spec ~fuel:50_000_000 input in
  List.iter
    (fun (name, expected, fname, src) ->
      let prog = Dca_ir.Lower.compile ~file:"<test>" src in
      let info = Proginfo.analyze prog in
      let fi = Proginfo.func_info info fname in
      let loop = List.hd (Loops.loops fi.Proginfo.fi_forest) in
      let sep = Iterator_rec.separate fi loop in
      let verdict ?pool fresh_golden =
        Commutativity.test_loop ?pool ~fresh_golden Commutativity.default_config info spec fi sep
      in
      let reference = verdict true in
      let kind =
        match reference.Commutativity.oc_verdict with
        | Commutativity.Commutative -> "commutative"
        | Commutativity.Non_commutative _ -> "non-commutative"
        | Commutativity.Untestable _ -> "untestable"
      in
      Alcotest.(check string) (name ^ ": expected verdict") expected kind;
      Alcotest.(check bool) (name ^ ": the loop escalated") true reference.Commutativity.oc_escalated;
      List.iter
        (fun jobs ->
          Dca_support.Pool.with_pool ~jobs (fun pool ->
              let reused = verdict ~pool false in
              Alcotest.(check string)
                (Printf.sprintf "%s: jobs=%d verdict equals the fresh-golden reference" name jobs)
                (Commutativity.verdict_to_string reference.Commutativity.oc_verdict)
                (Commutativity.verdict_to_string reused.Commutativity.oc_verdict)))
        [ 1; 2 ])
    golden_reuse_programs

(* The escalated registry programs: equal reports and an equal number of
   consumed whole-program runs at every width. *)
let test_wp_registry_jobs_invariant () =
  let module T = Dca_support.Telemetry in
  List.iter
    (fun name ->
      let run jobs =
        let ctx = T.Ctx.create ~counting:true () in
        let options = Session.Options.(default |> with_jobs jobs |> with_telemetry ctx) in
        let report =
          Session.with_session ~options (Session.Benchmark (Dca_progs.Registry.find_exn name)) Session.report
        in
        (report, T.Ctx.value ctx (T.counter "dca.wp_schedule_runs"))
      in
      let report1, wp1 = run 1 in
      Alcotest.(check bool) (name ^ ": whole-program verification ran") true (wp1 > 0);
      List.iter
        (fun jobs ->
          let report, wp = run jobs in
          Alcotest.(check string) (Printf.sprintf "%s: report at jobs=%d" name jobs) report1 report;
          Alcotest.(check int) (Printf.sprintf "%s: dca.wp_schedule_runs at jobs=%d" name jobs) wp1 wp)
        [ 2; 4 ])
    [ "LU"; "BT"; "BFS"; "em3d"; "otter" ]

let golden_reuse_suites =
  [
    ( "dca-wp-golden",
      [
        Alcotest.test_case "reused golden = fresh golden" `Quick test_wp_golden_reuse;
        Alcotest.test_case "escalated registry jobs 1/2/4" `Slow test_wp_registry_jobs_invariant;
      ] );
  ]

let suites = suites @ golden_reuse_suites

(* ------------------------------------------------------------------ *)
(* What each instrumented run records                                  *)
(* ------------------------------------------------------------------ *)

(* Whole-program verification compares program outputs, so a
   whole-program run captures no live-out digest: switching escalation
   on adds the whole-program runs and leaves the number of captures
   where the loop-local tests put it. *)
let test_wp_captures_no_digest () =
  let module T = Dca_support.Telemetry in
  List.iter
    (fun name ->
      let run escalate =
        let ctx = T.Ctx.create ~counting:true () in
        let config = { Commutativity.default_config with Commutativity.cc_escalate = escalate } in
        let options =
          Session.Options.(default |> with_jobs 1 |> with_config config |> with_telemetry ctx)
        in
        ignore
          (Session.with_session ~options (Session.Benchmark (Dca_progs.Registry.find_exn name))
             Session.report);
        ( T.Ctx.value ctx (T.counter "dca.wp_schedule_runs"),
          T.Ctx.value ctx (T.counter ~kind:T.Diag "observable.captures") )
      in
      let wp_on, captures_on = run true in
      let wp_off, captures_off = run false in
      Alcotest.(check bool) (name ^ ": whole-program verification ran") true (wp_on > 0);
      Alcotest.(check int) (name ^ ": no whole-program runs without escalation") 0 wp_off;
      Alcotest.(check bool) (name ^ ": loop-local tests captured digests") true (captures_off > 0);
      Alcotest.(check int) (name ^ ": captures with and without escalation") captures_off captures_on)
    [ "BFS"; "em3d" ]

(* Every invocation of LU's outermost loops in [main] (the time-step loop
   runs the whole computation through calls), handled by [record] and
   continued from the state it leaves. *)
let with_lu_main_loops record =
  let bm = Dca_progs.Registry.find_exn "LU" in
  let prog = Dca_ir.Lower.compile ~file:"LU" bm.Dca_progs.Benchmark.bm_source in
  let info = Proginfo.analyze prog in
  let fi = Proginfo.func_info info "main" in
  let ctx = Dca_interp.Eval.create ~input:bm.Dca_progs.Benchmark.bm_input prog in
  List.iter
    (fun loop ->
      Dca_interp.Eval.add_interceptor ctx ~fname:"main" ~header:loop.Loops.l_header
        (record fi (Iterator_rec.separate fi loop) loop))
    (Loops.top_level fi.Proginfo.fi_forest);
  Dca_interp.Eval.run_main ctx

(* The register-event split: a sink that drops register events sees the
   same memory, block, call and return stream as one that takes them.
   Each loop invocation is recorded twice from the same entry state, as
   a golden recording runs it, once under each sink; each stream is
   folded into a hash as it arrives. *)
let test_register_event_split () =
  let module E = Dca_interp.Events in
  let module Eval = Dca_interp.Eval in
  let recorder regs =
    let h = ref 0 and events = ref 0 and reg_events = ref 0 in
    let mix k =
      h := Hashtbl.hash (!h, k);
      incr events
    in
    let access tag loc iid =
      match loc with E.Lreg _ -> incr reg_events | _ -> mix (tag, E.loc_to_string loc, iid)
    in
    let sink =
      {
        E.regs;
        on_exec = (fun i -> mix (0, "", i.Dca_ir.Ir.iid));
        on_read = access 1;
        on_write = access 2;
        on_block = (fun ~fname ~src ~dst -> mix (3, fname, (src * 100_003) + dst));
        on_call = (fun f -> mix (4, f, 0));
        on_return = (fun f -> mix (5, f, 0));
      }
    in
    (sink, fun () -> (!h, !events, !reg_events))
  in
  let with_regs, seen_with = recorder true in
  let without_regs, seen_without = recorder false in
  let invocations = ref 0 in
  with_lu_main_loops (fun _fi _sep loop ctx frame ->
      incr invocations;
      let st = Eval.store ctx in
      let s0 = Dca_interp.Store.snapshot st in
      let regs0 = Array.copy frame.Eval.regs in
      let in_loop b = Dca_support.Intset.mem b loop.Loops.l_blocks in
      let record sink =
        Eval.set_sink ctx (Some sink);
        let r = Eval.exec_upto ctx frame ~start:loop.Loops.l_header ~stop:(fun b -> not (in_loop b)) ~control:None in
        Eval.set_sink ctx None;
        match r with Eval.Stopped_at e -> e | Eval.Returned _ -> Alcotest.fail "loop returned"
      in
      let exit1 = record with_regs in
      Dca_interp.Store.restore st s0;
      Array.blit regs0 0 frame.Eval.regs 0 (Array.length regs0);
      let exit2 = record without_regs in
      Dca_interp.Store.release st s0;
      Alcotest.(check int) "same exit block" exit1 exit2;
      exit2);
  let h1, n1, regs1 = seen_with () and h2, n2, regs2 = seen_without () in
  Alcotest.(check bool) "both loops recorded" true (!invocations >= 2);
  Alcotest.(check bool) "the register sink saw register events" true (regs1 > 0);
  Alcotest.(check int) "the memory-only sink saw none" 0 regs2;
  Alcotest.(check int) "same number of memory, block, call and return events" n1 n2;
  Alcotest.(check int) "same event stream" h1 h2

(* The golden recording takes memory events only, so it allocates little
   beyond what the loop itself does: the recorded path, the footprint
   tables and the interface snapshots.  It measures 3.1 minor words per
   executed instruction on LU's outermost loops; taking register events
   (one [Lreg] per register access) measured 12.1. *)
let test_golden_recording_allocation () =
  let words = ref 0.0 and steps = ref 0 in
  with_lu_main_loops (fun fi sep _loop ctx frame ->
      let s0 = Dca_interp.Eval.steps ctx in
      let w0 = Gc.minor_words () in
      let exit = Commutativity.golden_recording fi sep ctx frame in
      words := !words +. (Gc.minor_words () -. w0);
      steps := !steps + (Dca_interp.Eval.steps ctx - s0);
      exit);
  let per_step = !words /. float_of_int (max 1 !steps) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per recorded step (%d steps)" per_step !steps)
    true
    (!steps > 100_000 && per_step <= 5.0)

let recording_suites =
  [
    ( "dca-recording",
      [
        Alcotest.test_case "whole-program runs capture no digest" `Slow test_wp_captures_no_digest;
        Alcotest.test_case "register-event split" `Quick test_register_event_split;
        Alcotest.test_case "golden recording allocation" `Quick test_golden_recording_allocation;
      ] );
  ]

let suites = suites @ recording_suites
