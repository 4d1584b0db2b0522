(* Tests for the support utilities: deterministic PRNG, list helpers,
   union-find, int sets. *)

open Dca_support

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds diverge" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Prng.next_int64 a) (Prng.next_int64 b)

let test_prng_split_decorrelates () =
  let a = Prng.create 7 in
  let child = Prng.split a in
  Alcotest.(check bool) "child differs from parent" true (Prng.next_int64 a <> Prng.next_int64 child)

let prop_prng_int_in_bounds =
  QCheck.Test.make ~count:500 ~name:"Prng.int stays within bounds"
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let t = Prng.create seed in
      let v = Prng.int t bound in
      v >= 0 && v < bound)

let prop_permutation_bijective =
  QCheck.Test.make ~count:200 ~name:"Prng.permutation is a bijection"
    QCheck.(pair small_int (int_range 0 300))
    (fun (seed, n) ->
      let p = Prng.permutation (Prng.create seed) n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.length p = n && Array.for_all (fun b -> b) seen)

let prop_float_unit_interval =
  QCheck.Test.make ~count:500 ~name:"Prng.float is in [0,1)" QCheck.small_int (fun seed ->
      let t = Prng.create seed in
      let f = Prng.float t in
      f >= 0.0 && f < 1.0)

(* --------------------------------------------------------------- *)

let test_listx_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take beyond" [ 1; 2; 3 ] (Listx.take 9 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop all" [] (Listx.drop 9 [ 1; 2; 3 ])

let test_listx_helpers () =
  Alcotest.(check int) "sum" 6 (Listx.sum_int [ 1; 2; 3 ]);
  Alcotest.(check (option int)) "index_of" (Some 1) (Listx.index_of (fun x -> x = 5) [ 3; 5; 7 ]);
  Alcotest.(check (option int)) "index_of missing" None (Listx.index_of (fun x -> x = 9) [ 3; 5 ]);
  Alcotest.(check (list int)) "dedup" [ 1; 2; 3 ] (Listx.dedup_keep_order ( = ) [ 1; 2; 1; 3; 2 ]);
  Alcotest.(check (float 1e-9)) "max_float" 7.5 (Listx.max_float [ 1.0; 7.5; -3.0 ]);
  let grouped = Listx.group_by (fun x -> x mod 2) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "two groups" 2 (List.length grouped);
  Alcotest.(check (list int)) "odd group" [ 1; 3; 5 ] (List.assoc 1 grouped)

let test_listx_fold_lefti () =
  let result = Listx.fold_lefti (fun acc i x -> acc + (i * x)) 0 [ 10; 20; 30 ] in
  Alcotest.(check int) "indexed fold" 80 result

let test_topological_sort () =
  let succs = function 1 -> [ 2; 3 ] | 2 -> [ 4 ] | 3 -> [ 4 ] | _ -> [] in
  (match Listx.topological_sort succs [ 1; 2; 3; 4 ] with
  | Some order ->
      let pos x = Option.get (Listx.index_of (fun y -> y = x) order) in
      Alcotest.(check bool) "1 before 2" true (pos 1 < pos 2);
      Alcotest.(check bool) "2 before 4" true (pos 2 < pos 4);
      Alcotest.(check bool) "3 before 4" true (pos 3 < pos 4)
  | None -> Alcotest.fail "acyclic graph must sort");
  let cyclic = function 1 -> [ 2 ] | 2 -> [ 1 ] | _ -> [] in
  Alcotest.(check bool) "cycle detected" true (Listx.topological_sort cyclic [ 1; 2 ] = None)

(* --------------------------------------------------------------- *)

let test_unionfind () =
  let uf = Unionfind.create 6 in
  Unionfind.union uf 0 1;
  Unionfind.union uf 2 3;
  Unionfind.union uf 1 2;
  Alcotest.(check bool) "0 ~ 3" true (Unionfind.same uf 0 3);
  Alcotest.(check bool) "0 !~ 4" false (Unionfind.same uf 0 4);
  let classes = Unionfind.classes uf in
  Alcotest.(check int) "three classes" 3 (List.length classes);
  Alcotest.(check (list int)) "big class" [ 0; 1; 2; 3 ] (List.hd classes)

let prop_unionfind_transitive =
  QCheck.Test.make ~count:200 ~name:"union-find equivalence is transitive"
    QCheck.(list_of_size Gen.(int_range 0 30) (pair (int_bound 19) (int_bound 19)))
    (fun unions ->
      let uf = Unionfind.create 20 in
      List.iter (fun (a, b) -> Unionfind.union uf a b) unions;
      (* check transitivity on all triples *)
      let ok = ref true in
      for a = 0 to 19 do
        for b = 0 to 19 do
          for c = 0 to 19 do
            if Unionfind.same uf a b && Unionfind.same uf b c && not (Unionfind.same uf a c) then
              ok := false
          done
        done
      done;
      !ok)

let test_intset () =
  let s = Intset.of_list [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check int) "cardinal dedups" 4 (Intset.cardinal s);
  Alcotest.(check (list int)) "sorted" [ 1; 3; 4; 5 ] (Intset.to_sorted_list s);
  Alcotest.(check bool) "unions" true
    (Intset.equal (Intset.unions [ Intset.singleton 1; Intset.singleton 2 ]) (Intset.of_list [ 1; 2 ]));
  let m = Intset.Map.add_to_list_entry 1 "a" Intset.Map.empty in
  let m = Intset.Map.add_to_list_entry 1 "b" m in
  Alcotest.(check (list string)) "map list entry" [ "b"; "a" ] (Intset.Map.find 1 m);
  Alcotest.(check int) "find_default" 9 (Intset.Map.find_default 2 9 (Intset.Map.empty : int Intset.Map.t))

(* A membership table answers exactly like [Intset.mem]: for random id
   sets (the empty set included), every probe from below zero to well
   past the set's maximum agrees. *)
let prop_intset_table_agrees =
  QCheck.Test.make ~count:300 ~name:"Intset.table_mem agrees with Intset.mem"
    QCheck.(pair (small_list (int_bound 400)) (small_list (int_range (-5) 1000)))
    (fun (elts, probes) ->
      let s = Intset.of_list elts in
      let t = Intset.table s in
      let top = match Intset.max_elt_opt s with Some m -> m | None -> 0 in
      let probes = probes @ List.init (top + 70) (fun i -> i - 3) @ [ max_int; min_int ] in
      List.for_all (fun i -> Intset.table_mem t i = Intset.mem i s) probes)

(* --------------------------------------------------------------- *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int)) "results in input order" (List.map (fun x -> x * x) xs)
        (Pool.map p (fun x -> x * x) xs));
  Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check (list int)) "jobs=1 is List.map" [ 2; 4; 6 ] (Pool.map p (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_pool_earliest_exception () =
  (* several tasks raise; the exception of the lowest-indexed input must
     surface, as sequential List.map would have raised it first *)
  Pool.with_pool ~jobs:4 (fun p ->
      for _ = 1 to 20 do
        match Pool.map p (fun x -> if x mod 3 = 0 then failwith (string_of_int x) else x) (List.init 32 (fun i -> i + 1)) with
        | _ -> Alcotest.fail "expected an exception"
        | exception Failure msg -> Alcotest.(check string) "earliest input's exception" "3" msg
      done)

let test_pool_nested_map () =
  (* a task may fan out on the same pool; the waiting caller participates,
     so this must terminate even with more tasks than workers *)
  Pool.with_pool ~jobs:3 (fun p ->
      let rows = Pool.map p (fun i -> Listx.sum_int (Pool.map p (fun j -> i * j) [ 1; 2; 3 ])) (List.init 16 (fun i -> i + 1)) in
      Alcotest.(check (list int)) "nested maps" (List.init 16 (fun i -> (i + 1) * 6)) rows)

let test_pool_empty_and_shutdown () =
  let p = Pool.create ~jobs:2 in
  Alcotest.(check (list int)) "empty input" [] (Pool.map p Fun.id []);
  Alcotest.(check int) "jobs accessor" 2 (Pool.jobs p);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

let prop_pool_matches_list_map =
  QCheck.Test.make ~count:50 ~name:"Pool.map agrees with List.map"
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      Pool.with_pool ~jobs (fun p -> Pool.map p (fun x -> x * x + 1) xs) = List.map (fun x -> x * x + 1) xs)

(* Ordered speculation: [map_prefix] at every width returns what the
   sequential short-circuiting loop returns. *)
let widths = [ 1; 2; 4 ]

let test_pool_map_prefix_prefix () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let xs = List.init 12 Fun.id in
          List.iter
            (fun k ->
              Alcotest.(check (list int))
                (Printf.sprintf "jobs=%d: prefix through decisive index %d" jobs k)
                (List.init (k + 1) (fun i -> 10 * i))
                (Pool.map_prefix p ~decisive:(fun v -> v = 10 * k) (fun x -> 10 * x) xs))
            [ 0; 1; 5; 11 ];
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d: no decisive result returns everything" jobs)
            (List.map succ xs)
            (Pool.map_prefix p ~decisive:(fun _ -> false) succ xs);
          Alcotest.(check (list int)) "empty input" [] (Pool.map_prefix p ~decisive:(fun _ -> true) Fun.id [])))
    widths

let prop_map_prefix_matches_sequential =
  QCheck.Test.make ~count:50 ~name:"Pool.map_prefix agrees with the short-circuiting loop"
    QCheck.(pair (int_range 1 4) (small_list small_int))
    (fun (jobs, xs) ->
      let decisive v = v mod 7 = 0 in
      let rec seq = function
        | [] -> []
        | x :: rest -> if decisive (x + 1) then [ x + 1 ] else (x + 1) :: seq rest
      in
      Pool.with_pool ~jobs (fun p -> Pool.map_prefix p ~decisive succ xs) = seq xs)

(* Spin until [cond] holds, at most [bound] iterations; report whether it
   did.  The bound keeps a broken pool from hanging the suite. *)
let spin_until ?(bound = 200_000_000) cond =
  let rec go k = if cond () then true else if k >= bound then false else (Domain.cpu_relax (); go (k + 1)) in
  go 0

(* Task 0 waits until every other task is running, then is decisive; the
   others spin on [Pool.cancelled] and must see it turn true.  Their
   results must never be returned, and the map must not return before
   they have settled.  At jobs 1 the tasks past the decisive one never
   start. *)
let test_pool_cancel_past_cut () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let n = max 2 jobs in
          let started = Atomic.make 0 and settled = Atomic.make 0 and observed = Atomic.make 0 in
          let task i =
            if i = 0 then begin
              if jobs > 1 then ignore (spin_until (fun () -> Atomic.get started = n - 1));
              `Decisive
            end
            else begin
              Atomic.incr started;
              if spin_until Pool.cancelled then Atomic.incr observed;
              (* settle well after the cut, so a map that returned early
                 would see this task still running *)
              Unix.sleepf 0.05;
              Atomic.incr settled;
              `Spun
            end
          in
          let r = Pool.map_prefix p ~decisive:(fun v -> v = `Decisive) task (List.init n Fun.id) in
          Alcotest.(check bool) (Printf.sprintf "jobs=%d: only the decisive result" jobs) true (r = [ `Decisive ]);
          Alcotest.(check int) (Printf.sprintf "jobs=%d: settled before return" jobs) (Atomic.get started)
            (Atomic.get settled);
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: every task past the cut ran and saw the cancellation" jobs)
            (if jobs > 1 then n - 1 else 0)
            (Atomic.get observed);
          Alcotest.(check bool) "no task is cancelled outside the pool" false (Pool.cancelled ())))
    widths

(* A task past the cut cancels what it spawned: the nested map's tasks
   see the submitter's token, on whichever domain they run. *)
let test_pool_cancel_reaches_nested () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let started = Atomic.make 0 and observed = Atomic.make 0 in
          let inner _ =
            Atomic.incr started;
            if spin_until Pool.cancelled then Atomic.incr observed
          in
          let task i =
            if i = 0 then begin
              ignore (spin_until (fun () -> Atomic.get started >= 1));
              true
            end
            else begin
              ignore (Pool.map p inner [ 0; 1 ]);
              false
            end
          in
          Alcotest.(check (list bool)) "only the decisive result" [ true ] (Pool.map_prefix p ~decisive:Fun.id task [ 0; 1 ]);
          Alcotest.(check int) (Printf.sprintf "jobs=%d: both nested tasks saw the cancellation" jobs) 2
            (Atomic.get observed)))
    [ 2; 4 ]

let test_pool_prefix_exceptions () =
  let run p ~decisive_at ~raise_at =
    Pool.map_prefix p
      ~decisive:(fun v -> v = decisive_at)
      (fun x -> if List.mem x raise_at then failwith (string_of_int x) else x)
      (List.init 32 Fun.id)
  in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          for _ = 1 to 10 do
            (match run p ~decisive_at:(-1) ~raise_at:[ 5; 9; 20 ] with
            | _ -> Alcotest.fail "expected an exception"
            | exception Failure msg -> Alcotest.(check string) "earliest exception wins" "5" msg);
            (match run p ~decisive_at:3 ~raise_at:[ 5; 9 ] with
            | r -> Alcotest.(check (list int)) "an exception past the decisive index is never raised" [ 0; 1; 2; 3 ] r
            | exception Failure msg -> Alcotest.failf "jobs=%d raised %s past the decisive index" jobs msg);
            match run p ~decisive_at:7 ~raise_at:[ 4 ] with
            | _ -> Alcotest.fail "expected an exception"
            | exception Failure msg -> Alcotest.(check string) "an exception before the decisive index wins" "4" msg
          done))
    widths

let test_pool_settles_every_task () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let n = 24 in
          let settled = Atomic.make 0 in
          let task x =
            (* uneven work, so tasks finish out of order *)
            ignore (spin_until ~bound:((x * 7919) mod 5000) (fun () -> false));
            Atomic.incr settled;
            x
          in
          Alcotest.(check (list int)) "map returns every result" (List.init n Fun.id)
            (Pool.map p task (List.init n Fun.id));
          Alcotest.(check int) (Printf.sprintf "jobs=%d: map settled all %d tasks" jobs n) n (Atomic.get settled);
          Atomic.set settled 0;
          Alcotest.(check (list int)) "decisive last element" (List.init n Fun.id)
            (Pool.map_prefix p ~decisive:(fun x -> x = n - 1) task (List.init n Fun.id));
          Alcotest.(check int) (Printf.sprintf "jobs=%d: map_prefix settled all %d tasks" jobs n) n
            (Atomic.get settled)))
    widths

let suites =
  [
    ( "support",
      [
        Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "prng seeds" `Quick test_prng_seeds_differ;
        Alcotest.test_case "prng copy" `Quick test_prng_copy_independent;
        Alcotest.test_case "prng split" `Quick test_prng_split_decorrelates;
        QCheck_alcotest.to_alcotest prop_prng_int_in_bounds;
        QCheck_alcotest.to_alcotest prop_permutation_bijective;
        QCheck_alcotest.to_alcotest prop_float_unit_interval;
        Alcotest.test_case "listx take/drop" `Quick test_listx_take_drop;
        Alcotest.test_case "listx helpers" `Quick test_listx_helpers;
        Alcotest.test_case "listx fold_lefti" `Quick test_listx_fold_lefti;
        Alcotest.test_case "topological sort" `Quick test_topological_sort;
        Alcotest.test_case "pool map order" `Quick test_pool_map_order;
        Alcotest.test_case "pool earliest exception" `Quick test_pool_earliest_exception;
        Alcotest.test_case "pool nested map" `Quick test_pool_nested_map;
        Alcotest.test_case "pool empty + shutdown" `Quick test_pool_empty_and_shutdown;
        QCheck_alcotest.to_alcotest prop_pool_matches_list_map;
        Alcotest.test_case "pool map_prefix returns the decisive prefix" `Quick test_pool_map_prefix_prefix;
        QCheck_alcotest.to_alcotest prop_map_prefix_matches_sequential;
        Alcotest.test_case "pool cancels tasks past the cut" `Quick test_pool_cancel_past_cut;
        Alcotest.test_case "pool cancellation reaches nested maps" `Quick test_pool_cancel_reaches_nested;
        Alcotest.test_case "pool prefix exceptions" `Quick test_pool_prefix_exceptions;
        Alcotest.test_case "pool settles every task" `Quick test_pool_settles_every_task;
        Alcotest.test_case "union-find" `Quick test_unionfind;
        QCheck_alcotest.to_alcotest prop_unionfind_transitive;
        Alcotest.test_case "intset" `Quick test_intset;
        QCheck_alcotest.to_alcotest prop_intset_table_agrees;
      ] );
  ]
