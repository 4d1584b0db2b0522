(* The benchmark's workloads.  Run through perfbench/run.py, which builds
   this executable and the `dca` CLI first:

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --dca PATH --refs DIR --work DIR [--commit ID]

   The last stdout line is one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics with --trace 0, the per-layer ones
   with --trace 1.  The lines before it are the host header, per-program
   rows and the deterministic work counters.  Exit code 1 on any
   correctness failure.  perfbench/NOTES.md explains the workloads. *)

open Perfbench
module T = Dca_support.Telemetry
module Prng = Dca_support.Prng
module Pool = Dca_support.Pool
module Session = Dca_core.Session
module Driver = Dca_core.Driver
module Loops = Dca_analysis.Loops
module Bm = Dca_progs.Benchmark
module Registry = Dca_progs.Registry
module P = Dca_serve.Protocol
module Vcache = Dca_serve.Vcache
module Progdigest = Dca_serve.Progdigest

let now = T.now_ns
let ms ns = float_of_int ns /. 1e6
let secs ns = float_of_int ns /. 1e9
let farr l = Array.of_list l
let nproc = Domain.recommended_domain_count ()

(* Daemon workers, and load-generator connections (one per worker).  One
   worker keeps the daemon single-domain: with two, the stop-the-world
   minor-GC rendezvous between worker domains made closed-loop throughput
   vary by 20% between identical runs on a 2-vCPU host. *)
let serve_workers = 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 20.
let trace = ref false
let dca = ref "_build/default/bin/dca_cli.exe"
let refs_dir = ref "perfbench/refs"
let work_dir = ref ".perfbench"
let commit = ref "unknown"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME registry-seq | registry-par | generated | serve-edit");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement length");
      ("--trace", Arg.Int (fun n -> trace := n <> 0), "0|1 per-layer run");
      ("--dca", Arg.Set_string dca, "PATH dca CLI (serve-edit)");
      ("--refs", Arg.Set_string refs_dir, "DIR stored registry reports");
      ("--work", Arg.Set_string work_dir, "DIR scratch directory");
      ("--commit", Arg.Set_string commit, "ID source revision, for the host header");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1"

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let attempted = ref 0
let failures : string list ref = ref []
let fail msg = failures := msg :: !failures

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let emit metrics =
  let failed = List.length !failures in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev !failures);
  Printf.printf "failed_share: %.6f (%d of %d)\n" (float_of_int failed /. float_of_int (max 1 !attempted))
    failed !attempted;
  let body =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_float x.m_value) x.m_unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (failed = 0)
    (max 1 !attempted) failed (String.concat ", " body);
  exit (if failed = 0 then 0 else 1)

let print_metrics ms =
  List.iter (fun x -> Printf.printf "  %-32s %16.6f %s\n" x.m_name x.m_value x.m_unit) ms

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let options jobs = Session.Options.(default |> with_jobs jobs)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let reference name = read_file (Filename.concat !refs_dir (name ^ ".txt"))

(* Work counters carried in every report's footer, plus the loops the
   static prover decided ("[static]" rows). *)
let footer_counters report =
  let fields = [ ("golden-runs", "dca.golden_runs"); ("replays", "dca.replays"); ("replay-steps", "dca.replay_steps") ] in
  let lines = String.split_on_char '\n' report in
  let static =
    List.length
      (List.filter (fun l -> Pstats.has_prefix "  " l && String.ends_with ~suffix:"[static]" l) lines)
  in
  let footer = List.find_opt (Pstats.has_prefix "counters:") lines |> Option.value ~default:"" in
  List.map
    (fun (k, name) ->
      let v =
        List.fold_left
          (fun acc w ->
            match String.index_opt w '=' with
            | Some i when String.sub w 0 i = k -> int_of_string (String.sub w (i + 1) (String.length w - i - 1))
            | _ -> acc)
          0
          (String.split_on_char ' ' footer)
      in
      (name, v))
    fields
  @ [ ("dca.static-proved", static) ]

let sum_counters rows =
  List.fold_left
    (fun acc row -> List.map2 (fun (k, a) (k', b) -> assert (k = k'); (k, a + b)) acc row)
    (List.map (fun (k, _) -> (k, 0)) (List.hd rows))
    (List.tl rows)

let counters_line cs = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)

(* Work counters must repeat exactly between runs of one seed: the first
   run in a checkout records them, later runs compare.  A difference is
   an analysis change, not noise, and is reported as such. *)
let ledger cs =
  let line = counters_line cs in
  Printf.printf "work-counters: %s\n" line;
  let dir = Filename.concat !work_dir "ledger" in
  Daemon.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.txt" !workload !seed) in
  if Sys.file_exists path then begin
    let prev = String.trim (read_file path) in
    if prev <> line then Printf.printf "ANALYSIS CHANGE: work counters differ from an earlier run of this seed: %s\n" prev
  end
  else Out_channel.with_open_bin path (fun oc -> output_string oc (line ^ "\n"))

(* Scratch space of this run, removed on exit. *)
let run_dir = lazy (
  let d = Filename.concat !work_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Daemon.mkdir_p d;
  let rec rm p =
    match Unix.lstat p with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
    | exception Unix.Unix_error _ -> ()
  in
  at_exit (fun () -> try rm d with Sys_error _ | Unix.Unix_error _ -> ());
  d)

let scratch name = Filename.concat (Lazy.force run_dir) name

let seeded_order rng xs =
  let a = Array.of_list xs in
  Prng.shuffle_in_place rng a;
  Array.to_list a

let header ~jobs =
  Printf.printf "host: nproc=%d ocaml=%s commit=%s workload=%s jobs=%d seed=%d seconds=%g trace=%d\n" nproc
    Sys.ocaml_version !commit !workload jobs !seed !seconds
    (if !trace then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Batch workloads: one closed-loop pass after another                 *)
(* ------------------------------------------------------------------ *)

type item = {
  i_name : string;
  i_origin : Session.origin;
  i_source : string;
  i_input : int list;
  i_check : Session.t -> string -> string list;  (** session, report -> problems *)
}

type done_item = {
  d_item : item;
  d_report : string;
  d_problems : string list;  (** from [i_check], first pass only *)
  d_session : Session.t option;  (** kept by the traced pass only *)
  d_start : int;
  d_stop : int;
}

(* Analyze one item in a fresh session; [check] runs [i_check] after the
   clock stops.  The session is dropped, so a long run does not hold every
   program it analyzed. *)
let analyze ~opts ~check it =
  let start = now () in
  let s, report =
    Session.with_session ~options:opts it.i_origin (fun s ->
        ignore (Session.dca_results s);
        (s, Session.report s))
  in
  let stop = now () in
  let problems = if check then it.i_check s report else [] in
  { d_item = it; d_report = report; d_problems = problems; d_session = None; d_start = start; d_stop = stop }

let pass ~opts ~check items = List.map (analyze ~opts ~check) items

let pass_wall ds = List.fold_left (fun acc d -> acc + (d.d_stop - d.d_start)) 0 ds

(* Set-up: bring a session at the workload's width to a first result, on
   the small DC program. *)
let setup_once ~opts =
  let dc = Registry.find_exn "DC" in
  let t0 = now () in
  Session.with_session ~options:opts (Session.Benchmark dc) (fun s -> ignore (Session.dca_results s));
  secs (now () - t0)

let check_passes passes =
  List.iter
    (List.iter (fun d ->
         incr attempted;
         List.iter fail d.d_problems))
    passes

(* The timed phase.  [tp_first] is the first pass, which warms up the
   process and is checked and kept whole, but not timed; [tp_times] holds
   every later pass's item times in ms, in item order.  Later passes are
   compared with the first as they finish and keep only their times, so
   memory does not grow with the number of passes. *)
type timed = { tp_first : done_item list; tp_times : float array list; tp_setups : float array }

let item_times ds = farr (List.map (fun d -> ms (d.d_stop - d.d_start)) ds)
let times_wall t = Array.fold_left ( +. ) 0. t /. 1e3

(* Timed passes continue while another one is expected to fit in
   [seconds], counted from the end of the warm-up pass; there is always at
   least one.  Set-up is sampled three times before every pass, so that it
   sees the same host conditions as the passes. *)
let timed_passes ~opts items =
  let setups = ref [] in
  let sample () = setups := List.init 3 (fun _ -> setup_once ~opts) @ !setups in
  sample ();
  let first = pass ~opts ~check:true items in
  check_passes [ first ];
  let t0 = now () in
  let rec go times =
    sample ();
    let p = pass ~opts ~check:false items in
    let n = List.length times + 2 in
    List.iter2
      (fun d f ->
        incr attempted;
        let what = Printf.sprintf "%s (pass %d)" d.d_item.i_name n in
        List.iter fail (Check.same_report ~what ~reference:f.d_report d.d_report))
      p first;
    let times = item_times p :: times in
    let walls = farr (List.map times_wall times) in
    if secs (now () - t0) +. Pstats.median walls <= !seconds then go times
    else { tp_first = first; tp_times = List.rev times; tp_setups = farr !setups }
  in
  go []

(* Each item's median time over the timed passes, in item order. *)
let item_medians tp =
  Array.init (List.length tp.tp_first) (fun i -> Pstats.median (farr (List.map (fun a -> a.(i)) tp.tp_times)))

(* The median latency is over every timed analysis.  The tail percentile
   is over the items' median times, so one slow pass of one program does
   not decide it. *)
let batch_e2e tp =
  let lat = item_medians tp in
  let walls = farr (List.map times_wall tp.tp_times) in
  let n = Array.length lat in
  (match Pstats.tail_percentile n with
  | Some p ->
      Printf.printf "latency: %d items; p%d = %.3f ms is the highest percentile with ten items beyond it\n" n p
        (Pstats.percentile lat (float_of_int p))
  | None -> Printf.printf "latency: %d items; fewer than 20, so p99 is the slowest item\n" n);
  [
    m "setup_s" "s" (Pstats.median tp.tp_setups);
    m "wall_s" "s" (Pstats.median walls);
    m "latency_p50_ms" "ms" (Pstats.median (Array.concat tp.tp_times));
    m "latency_p99_ms" "ms" (Pstats.percentile lat 99.);
    m "saturated_rps" "1/s" (float_of_int n /. Pstats.median walls);
    m "peak_rss_mb" "MB" (Daemon.peak_rss_mb 0);
  ]

let per_item_rows tp =
  let lat = item_medians tp in
  if Array.length lat <= 32 then
    List.iteri
      (fun i d ->
        Printf.printf "  program %-14s %10.3f ms (median of %d passes)\n" d.d_item.i_name lat.(i)
          (List.length tp.tp_times))
      tp.tp_first

(* ------------------------------------------------------------------ *)
(* Per-layer run                                                       *)
(* ------------------------------------------------------------------ *)

let dynamic_span n =
  n = "golden" || n = "invocation" || Pstats.has_prefix "replay " n || n = "wp-golden"
  || Pstats.has_prefix "wp-run " n || Pstats.has_prefix "loop " n
let replay_span n = Pstats.has_prefix "replay " n
let wp_span n = n = "wp-golden" || Pstats.has_prefix "wp-run " n
let frontend_span n = List.mem n [ "bench.ir"; "session.ir"; "parse"; "typecheck"; "lower" ]
let proginfo_span n = List.mem n [ "bench.proginfo"; "session.proginfo" ]

(* Metrics read off spans and counters, shared by every workload. *)
let span_layers ~spans ~counter =
  let self p = ms (Pstats.self_ns p spans) in
  let attempts = Pstats.count (( = ) "staticproof") spans in
  let replay_spans = Pstats.count replay_span spans in
  let instructions = counter "interp.instructions" in
  [
    m "frontend.self_ms" "ms" (self frontend_span);
    m "proginfo.self_ms" "ms" (self proginfo_span);
    m "staticproof.self_ms" "ms" (self (( = ) "staticproof"));
    m "staticproof.attempts" "count" (float_of_int attempts);
    m "staticproof.proved_ratio" "ratio"
      (float_of_int (counter "dca.static-proved") /. float_of_int (max 1 attempts));
    m "golden.self_ms" "ms" (self (( = ) "golden"));
    m "golden.runs" "count" (float_of_int (counter "dca.golden_runs"));
    m "replay.self_ms" "ms" (self replay_span);
    m "replay.runs" "count" (float_of_int (counter "dca.replays"));
    m "replay.steps" "count" (float_of_int (counter "dca.replay_steps"));
    m "replay.useful_ratio" "ratio" (float_of_int (counter "dca.replays") /. float_of_int (max 1 replay_spans));
    m "wp.self_ms" "ms" (self wp_span);
    m "wp.runs" "count" (float_of_int (counter "dca.wp_golden_runs" + counter "dca.wp_schedule_runs"));
    m "schedules.skipped" "count" (float_of_int (counter "dca.schedules_skipped"));
    m "interp.instructions" "count" (float_of_int instructions);
    m "interp.ns_per_instr" "ns"
      (float_of_int (Pstats.self_ns dynamic_span spans) /. float_of_int (max 1 instructions));
    m "store.snapshots" "count" (float_of_int (counter "store.snapshots"));
    m "store.journal_entries" "count" (float_of_int (counter "store.journal_entries"));
  ]

(* Digest, store and find every verdict of [sessions] through the
   Progdigest and Vcache public functions, timing each call.  The keys are
   derived the way the serve engine derives them, so [dir] can seed a
   daemon's disk cache. *)
let cache_calls ~dir sessions =
  Daemon.mkdir_p dir;
  let cache = Vcache.create ~dir () in
  let digest_ns = ref 0 and store_ns = ref [] and find_ns = ref [] and keys = ref [] in
  List.iter
    (fun s ->
      let t0 = now () in
      let pd = Progdigest.of_program (Session.ir s) in
      digest_ns := !digest_ns + (now () - t0);
      let config_digest =
        Progdigest.config_digest ~hierarchical:(Session.hierarchical s)
          ~static:(Session.options s).Session.Options.static (Session.config s)
      in
      let spec_digest = Progdigest.spec_digest (Session.spec s) in
      let prog_digest = Progdigest.program_digest pd in
      List.iter
        (fun (r : Driver.loop_result) ->
          match r.Driver.lr_decision with
          | Driver.Subsumed _ -> ()
          | _ ->
              let key =
                Progdigest.loop_key pd ~config_digest ~spec_digest ~func:r.Driver.lr_loop.Loops.l_func
                  ~loop_id:r.Driver.lr_loop.Loops.l_id
              in
              let e =
                {
                  Vcache.e_decision = r.Driver.lr_decision;
                  e_outcome = r.Driver.lr_outcome;
                  e_provenance = r.Driver.lr_provenance;
                  e_prog_digest = prog_digest;
                }
              in
              let t0 = now () in
              Vcache.store cache key e;
              store_ns := (now () - t0) :: !store_ns;
              keys := (prog_digest, key) :: !keys)
        (Session.dca_results s))
    sessions;
  (* a fresh instance finds every entry on disk, then in memory *)
  let cache = Vcache.create ~dir () in
  List.iter
    (fun (prog_digest, key) ->
      for _ = 1 to 2 do
        let t0 = now () in
        ignore (Vcache.find cache ~prog_digest key);
        find_ns := (now () - t0) :: !find_ns
      done)
    !keys;
  let mean_us l = if l = [] then 0. else float_of_int (List.fold_left ( + ) 0 l) /. 1e3 /. float_of_int (List.length l) in
  [
    m "progdigest.self_ms" "ms" (ms !digest_ns);
    m "vcache.find_us" "us" (mean_us !find_ns);
    m "vcache.store_us" "us" (mean_us !store_ns);
  ]

let request_line ~id ~name ~source ~input =
  P.request_line
    {
      P.default_request with
      P.rq_id = id;
      rq_op = P.Analyze;
      rq_program = Some (P.Inline { file = name ^ ".mc"; source; input });
    }

let counter_of stats k = Option.value (List.assoc_opt k stats) ~default:0

(* Engine, cache and transport figures from one load-generator phase. *)
let serve_layers ~(res : Loadgen.result) ~stats0 ~stats1 =
  let rps = Array.map (fun r -> Option.bind r (fun l -> Result.to_option (P.parse_response l))) res.Loadgen.replies in
  let engine = ref [] and transport = ref [] in
  Array.iteri
    (fun i rp ->
      match rp with
      | Some rp ->
          let t = res.Loadgen.timings.(i) in
          engine := ms rp.P.rp_elapsed_ns :: !engine;
          transport := ms (t.Pstats.t_done - t.Pstats.t_sent - rp.P.rp_elapsed_ns) :: !transport
      | None -> ())
    rps;
  let d k = counter_of stats1 k - counter_of stats0 k in
  let hits = d "cache.mem_hits" + d "cache.disk_hits" in
  let pct l p = if l = [] then 0. else Pstats.percentile (farr l) p in
  [
    m "engine.p50_ms" "ms" (pct !engine 50.);
    m "engine.p99_ms" "ms" (pct !engine 99.);
    m "engine.session_reuse_ratio" "ratio"
      (float_of_int (d "serve.session_reuses") /. float_of_int (max 1 (d "serve.requests")));
    m "vcache.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + d "cache.misses")));
    m "vcache.stores" "count" (float_of_int (d "cache.stores"));
    m "transport.p50_ms" "ms" (pct !transport 50.);
    m "transport.p99_ms" "ms" (pct !transport 99.);
  ]

let late_p99 timings = Pstats.percentile (Array.map Pstats.late_ms timings) 99.

(* The batch workloads' serve figures: seed a daemon's disk cache with
   the pass's verdicts, then send every input twice in a row (a fresh
   session, then the warm one). *)
let serve_probe ~sessions ~items =
  let dir = scratch "probe" in
  let cache_metrics = cache_calls ~dir:(Filename.concat dir "cache") sessions in
  let d = Daemon.spawn ~dca:!dca ~dir ~workers:serve_workers ~trace:false in
  ignore (Daemon.wait_ready d ~since:(now ()));
  let conns = List.init serve_workers (fun _ -> Loadgen.connect d.Daemon.socket) in
  let call line = Loadgen.call (List.hd conns) line in
  let stats_line = P.request_line { P.default_request with P.rq_op = P.Stats } in
  let stats () = match P.parse_response (call stats_line) with Ok rp -> rp.P.rp_counters | Error e -> failwith e in
  let lines =
    List.mapi (fun i it -> { Loadgen.it_due_ns = 0; it_key = it.i_name; it_line = request_line ~id:i ~name:it.i_name ~source:it.i_source ~input:it.i_input }) items
  in
  let stats0 = stats () in
  let res = Loadgen.run ~open_loop:false conns (farr (List.concat_map (fun l -> [ l; l ]) lines)) in
  let stats1 = stats () in
  List.iter Loadgen.close conns;
  ignore (Daemon.stop d);
  cache_metrics @ serve_layers ~res ~stats0 ~stats1

let gc_layers ~minor ~major ~words =
  [
    m "gc.minor_collections" "count" minor;
    m "gc.major_collections" "count" major;
    m "gc.minor_words" "words" words;
  ]

let batch_traced ~opts ~jobs items =
  (* untraced reference pass for the tracing overhead *)
  let plain = pass ~opts ~check:true items in
  let ctx = T.Ctx.create ~tracing:true ~counting:true () in
  let topts = Session.Options.with_telemetry ctx opts in
  let fe_words = ref 0. and pi_words = ref 0. and dyn_words = ref 0. in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let traced =
    T.with_ctx ctx (fun () ->
        List.map
          (fun it ->
            let start = now () in
            let s, report =
              Session.with_session ~options:topts it.i_origin (fun s ->
                  let w0 = Gc.minor_words () in
                  T.span "bench.ir" (fun () -> ignore (Session.ir s));
                  let w1 = Gc.minor_words () in
                  T.span "bench.proginfo" (fun () -> ignore (Session.proginfo s));
                  let w2 = Gc.minor_words () in
                  T.span "bench.dca" (fun () -> ignore (Session.dca_results s));
                  let w3 = Gc.minor_words () in
                  fe_words := !fe_words +. (w1 -. w0);
                  pi_words := !pi_words +. (w2 -. w1);
                  dyn_words := !dyn_words +. (w3 -. w2);
                  (s, Session.report s))
            in
            { d_item = it; d_report = report; d_problems = []; d_session = Some s; d_start = start; d_stop = now () })
          items)
  in
  let wall = now () - t0 in
  let gc1 = Gc.quick_stat () in
  check_passes [ plain ];
  List.iter2
    (fun d p -> List.iter fail (Check.same_report ~what:(d.d_item.i_name ^ " (traced)") ~reference:p.d_report d.d_report))
    traced plain;
  let spans = Pstats.spans_of_events (T.Ctx.events ctx) in
  let counter name = Option.value (List.assoc_opt name (T.Ctx.counters ctx)) ~default:0 in
  let self_total = Pstats.total_self_ns spans in
  Printf.printf "summed self time %.3f s within wall %.3f s x jobs %d\n" (secs self_total) (secs wall) jobs;
  if self_total > wall * jobs then fail "summed span self time exceeds wall x jobs";
  let instructions = counter "interp.instructions" in
  let gaps =
    let rec go acc = function a :: (b :: _ as rest) -> go (ms (b.d_start - a.d_stop) :: acc) rest | _ -> acc in
    farr (go [] traced)
  in
  let plain_wall = pass_wall plain in
  span_layers ~spans ~counter
  @ [
      m "frontend.minor_words" "words" !fe_words;
      m "proginfo.minor_words" "words" !pi_words;
      m "interp.minor_words_per_instr" "words"
        ((if jobs = 1 then !dyn_words else gc1.Gc.minor_words -. gc0.Gc.minor_words)
        /. float_of_int (max 1 instructions));
      m "pool.busy_share" "share" (float_of_int (Pstats.pool_busy_ns spans) /. float_of_int (wall * jobs));
    ]
  @ gc_layers
      ~minor:(float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections))
      ~major:(float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
      ~words:(gc1.Gc.minor_words -. gc0.Gc.minor_words)
  @ serve_probe ~sessions:(List.filter_map (fun d -> d.d_session) traced) ~items
  @ [
      m "loadgen.late_p99_ms" "ms" (if Array.length gaps = 0 then 0. else Pstats.percentile gaps 99.);
      m "trace.overhead_share" "share" (float_of_int (pass_wall traced - plain_wall) /. float_of_int plain_wall);
    ]

let run_batch ?(summary = ignore) ~jobs items =
  header ~jobs;
  let opts = options jobs in
  if !trace then begin
    let layers = batch_traced ~opts ~jobs items in
    summary ();
    print_metrics layers;
    emit layers
  end
  else begin
    let tp = timed_passes ~opts items in
    per_item_rows tp;
    ledger (sum_counters (List.map (fun d -> footer_counters d.d_report) tp.tp_first));
    let e2e = batch_e2e tp in
    Printf.printf "passes: %d (%s s)\n" (List.length tp.tp_times)
      (String.concat " " (List.map (fun t -> Printf.sprintf "%.3f" (times_wall t)) tp.tp_times));
    summary ();
    print_metrics e2e;
    emit e2e
  end

(* ------------------------------------------------------------------ *)
(* registry-seq / registry-par                                         *)
(* ------------------------------------------------------------------ *)

let registry_items () =
  let rng = Prng.create !seed in
  seeded_order rng Registry.all
  |> List.map (fun (bm : Bm.t) ->
         let reference = reference bm.Bm.bm_name in
         {
           i_name = bm.Bm.bm_name;
           i_origin = Session.Benchmark bm;
           i_source = bm.Bm.bm_source;
           i_input = bm.Bm.bm_input;
           i_check =
             (fun s report ->
               Check.same_report ~what:bm.Bm.bm_name ~reference report
               @ Check.known_sequential bm (Session.proginfo s) (Session.dca_results s));
         })

(* ------------------------------------------------------------------ *)
(* generated                                                           *)
(* ------------------------------------------------------------------ *)

let generated_count = 2000

(* Programs and their exhaustive ground truth, computed before timing. *)
let generated_items () =
  let rng = Prng.create !seed in
  let missed = ref 0 and incomplete = ref 0 in
  let items =
    List.init generated_count (fun i ->
        let g = Dca_gen.Gen_program.generate ~max_iters:4 (Prng.split rng) in
        let name = Printf.sprintf "gen%04d" i in
        let source = g.Dca_gen.Gen_program.g_source in
        (* the oracle works on the printed source, whose lines DCA's loop labels use *)
        let ast = Dca_frontend.Parser.parse_program ~file:(name ^ ".mc") source in
        let spec, oracle =
          match Dca_gen.Oracle.find_marked_loop ast with
          | Ok spec -> (Some spec, Dca_gen.Oracle.decide ~input:[] ast spec)
          | Error msg -> (None, Dca_gen.Oracle.Unsupported msg)
        in
        let check s _report =
          match spec with
          | None -> [ name ^ ": generated program has no marked loop" ]
          | Some spec -> (
              let line = spec.Dca_gen.Oracle.sp_line in
              let decision =
                List.find_opt
                  (fun (r : Driver.loop_result) ->
                    r.Driver.lr_loop.Loops.l_func = "main" && r.Driver.lr_loop.Loops.l_loc.Dca_frontend.Loc.line = line)
                  (Session.dca_results s)
                |> Option.map (fun r -> r.Driver.lr_decision)
              in
              let witness_distinguishes perm =
                match Dca_gen.Oracle.check_witness ~input:[] ast spec perm with
                | `Mismatch | `Error _ -> true
                | `Match -> false
              in
              match
                Check.classify_generated ~oracle ~trip:spec.Dca_gen.Oracle.sp_trip ~witness_distinguishes decision
              with
              | Check.Agree -> []
              | Check.Missed -> incr missed; []
              | Check.Incomplete -> incr incomplete; []
              | Check.Violation v -> [ name ^ ": " ^ v ])
        in
        {
          i_name = name;
          i_origin = Session.Source { file = name ^ ".mc"; source; input = [] };
          i_source = source;
          i_input = [];
          i_check = check;
        })
  in
  (items, missed, incomplete)

(* ------------------------------------------------------------------ *)
(* serve-edit                                                          *)
(* ------------------------------------------------------------------ *)

type kind = Resubmit | Comment | Edit

(* [r_base] is the version of the program the request derives from: the
   registry source, or the program after its edit.  Comment edits share
   their base's IR, so the base decides the expected report. *)
type sreq = { r_bm : Bm.t; r_kind : kind; r_source : string; r_base : string }

let open_rate = 100.
let closed_requests = 4000

(* The request mix, all of it drawn from the seed.  Edit phase: one
   distinct edit of every program's [main], in a seeded order; from then
   on a program's requests carry the edited version, as a user keeps
   working on the program they changed.  Open loop: [open_rate] x [t_open]
   resubmits (3 in 4) and comment edits of a seeded line (1 in 4).
   Closed loop: [closed_requests] more of the same mix. *)
let serve_mix rng ~t_open =
  let progs = farr Registry.all in
  let np = Array.length progs in
  let tag = ref 0 in
  let fresh () = incr tag; !tag in
  let edits =
    Array.map
      (fun p ->
        let bm = progs.(p) in
        let edited = Option.get (Edits.edit_main ~tag:(fresh ()) bm.Bm.bm_source) in
        (0, { r_bm = bm; r_kind = Edit; r_source = edited; r_base = edited }))
      (Prng.permutation rng np)
  in
  let current = Array.map (fun (_, r) -> (r.r_bm, r.r_source)) edits in
  (* resubmits and comment edits each cycle through all programs in
     seeded orders, so every run serves the same work in a different order *)
  let cycler () =
    let cycle = ref [] in
    fun () ->
      if !cycle = [] then cycle := Array.to_list (Prng.permutation rng np);
      let p = List.hd !cycle in
      cycle := List.tl !cycle;
      p
  in
  let next_resubmit = cycler () and next_comment = cycler () in
  let warm () =
    if Prng.int rng 4 = 0 then
      let bm, base = current.(next_comment ()) in
      let source = Edits.comment ~tag:(fresh ()) ~line:(Prng.int rng (Edits.line_count base)) base in
      { r_bm = bm; r_kind = Comment; r_source = source; r_base = base }
    else
      let bm, base = current.(next_resubmit ()) in
      { r_bm = bm; r_kind = Resubmit; r_source = base; r_base = base }
  in
  (* evenly spaced arrivals with a seeded jitter of up to a quarter of the
     spacing: a fixed count, so p99 always has the same rank, and no
     arrival bursts, whose queueing would swamp the tail between seeds *)
  let gap = 1. /. open_rate in
  let open_reqs =
    Array.init (int_of_float (open_rate *. t_open)) (fun k ->
        let t = gap *. (float_of_int k +. 0.5 +. (0.5 *. (Prng.float rng -. 0.5))) in
        (int_of_float (t *. 1e9), warm ()))
  in
  let closed_reqs = Array.init closed_requests (fun _ -> (0, warm ())) in
  (edits, open_reqs, closed_reqs)

let items_of reqs =
  Array.mapi
    (fun i (due, r) ->
      {
        Loadgen.it_due_ns = due;
        it_key = r.r_bm.Bm.bm_name;
        it_line = request_line ~id:i ~name:r.r_bm.Bm.bm_name ~source:r.r_source ~input:r.r_bm.Bm.bm_input;
      })
    reqs

(* Local cold analyses of [sources], two programs at a time. *)
let local_reports sources =
  Pool.with_pool ~jobs:(min 2 nproc) (fun pool ->
      Pool.map pool
        (fun (bm, src) ->
          Session.with_session ~options:(options 1)
            (Session.Source { file = bm.Bm.bm_name ^ ".mc"; source = src; input = bm.Bm.bm_input })
            (fun s ->
              ignore (Session.dca_results s);
              (s, Session.report s)))
        sources)

let run_serve () =
  header ~jobs:1;
  Printf.printf "serve: workers=%d connections=%d jobs=1 open-loop rate=%.0f/s closed-loop requests=%d\n"
    serve_workers serve_workers open_rate closed_requests;
  let rng = Prng.create !seed in
  let t_open = Float.max 1. !seconds in
  let refs = List.map (fun (bm : Bm.t) -> (bm.Bm.bm_name, reference bm.Bm.bm_name)) Registry.all in
  let edit_reqs, open_reqs, closed_reqs = serve_mix rng ~t_open in
  let dir = scratch "serve" in
  (* set-up: daemon start-to-ready (median of three starts), then the
     registry pre-warm through the last daemon *)
  let start () =
    let t0 = now () in
    let d = Daemon.spawn ~dca:!dca ~dir ~workers:serve_workers ~trace:!trace in
    (d, Daemon.wait_ready d ~since:t0)
  in
  let starts =
    List.init 3 (fun k ->
        let d, ready = start () in
        if k < 2 then ignore (Daemon.stop d);
        (d, ready))
  in
  let d = fst (List.nth starts 2) in
  let ready = Pstats.median (farr (List.map snd starts)) in
  let conns = List.init serve_workers (fun _ -> Loadgen.connect d.Daemon.socket) in
  let call line = Loadgen.call (List.hd conns) line in
  let stats () =
    match P.parse_response (call (P.request_line { P.default_request with P.rq_op = P.Stats })) with
    | Ok rp -> rp.P.rp_counters
    | Error e -> failwith e
  in
  let prewarm_reqs =
    farr
      (List.map
         (fun (bm : Bm.t) -> (0, { r_bm = bm; r_kind = Resubmit; r_source = bm.Bm.bm_source; r_base = bm.Bm.bm_source }))
         Registry.all)
  in
  let prewarm = Loadgen.run ~open_loop:false conns (items_of prewarm_reqs) in
  let setup = ready +. secs (prewarm.Loadgen.stop_ns - prewarm.Loadgen.start_ns) in
  let stats0 = stats () in
  let edited = Loadgen.run ~open_loop:false conns (items_of edit_reqs) in
  let stats_e = stats () in
  let opened = Loadgen.run ~open_loop:true conns (items_of open_reqs) in
  let stats1 = stats () in
  let closed = Loadgen.run ~open_loop:false conns (items_of closed_reqs) in
  let stats2 = stats () in
  let rss = Daemon.peak_rss_mb d.Daemon.pid in
  List.iter Loadgen.close conns;
  let log = Daemon.stop d in
  (* correctness, after timing: a request must answer the report of its
     base version — the stored reference for an unedited program, else a
     local cold analysis of the edited source.  Two seeded comment edits
     per run are also analyzed locally, to confirm that a comment does not
     change the report. *)
  let edits = Array.to_list edit_reqs in
  let comments = List.filter (fun (_, r) -> r.r_kind = Comment) (Array.to_list open_reqs) in
  let sampled = List.filteri (fun i _ -> i < 2) (seeded_order rng comments) in
  let locals = local_reports (List.map (fun (_, r) -> (r.r_bm, r.r_source)) (edits @ sampled)) in
  let local_of = Hashtbl.create 32 in
  List.iter2 (fun (_, r) (s, rep) -> Hashtbl.replace local_of r.r_source (s, rep)) (edits @ sampled) locals;
  let expected r =
    if r.r_base == r.r_bm.Bm.bm_source then List.assoc r.r_bm.Bm.bm_name refs else snd (Hashtbl.find local_of r.r_base)
  in
  List.iter
    (fun (_, r) ->
      let _, rep = Hashtbl.find local_of r.r_source in
      List.iter fail (Check.same_report ~what:(r.r_bm.Bm.bm_name ^ " comment edit, local") ~reference:(expected r) rep))
    sampled;
  let check_phase what reqs (res : Loadgen.result) =
    Array.iteri
      (fun i (_, r) ->
        incr attempted;
        let what = Printf.sprintf "%s request %d (%s)" what i r.r_bm.Bm.bm_name in
        match Option.map P.parse_response res.Loadgen.replies.(i) with
        | None -> fail (what ^ ": connection failed")
        | Some (Error e) -> fail (what ^ ": unparsable reply: " ^ e)
        | Some (Ok rp) when not (P.ok rp) ->
            fail (Printf.sprintf "%s: %s reply: %s" what (P.status_to_string rp.P.rp_status)
                    (Option.value rp.P.rp_error ~default:""))
        | Some (Ok rp) ->
            List.iter fail (Check.same_report ~what ~reference:(expected r) (Option.value rp.P.rp_report ~default:"")))
      reqs
  in
  check_phase "pre-warm" prewarm_reqs prewarm;
  check_phase "edit" edit_reqs edited;
  check_phase "open-loop" open_reqs opened;
  check_phase "closed-loop" closed_reqs closed;
  let delta a b k = counter_of b k - counter_of a k in
  ledger
    (List.concat_map
       (fun (phase, a, b) ->
         [ (phase ^ ".cache.misses", delta a b "cache.misses"); (phase ^ ".cache.stores", delta a b "cache.stores") ])
       [ ("prewarm", [], stats0); ("edit", stats0, stats_e); ("open", stats_e, stats1); ("closed", stats1, stats2) ]);
  let lat = Array.map Pstats.latency_ms opened.Loadgen.timings in
  (* as on the batch workloads, the gated percentiles are over each
     program's median latency: the raw tail of 2000 requests on a shared
     2-vCPU host moved by up to 3x between identical runs *)
  let by_program =
    farr
      (List.map
         (fun (bm : Bm.t) ->
           Pstats.median
             (farr
                (List.filter_map
                   (fun i -> if (snd open_reqs.(i)).r_bm == bm then Some lat.(i) else None)
                   (List.init (Array.length lat) Fun.id))))
         Registry.all)
  in
  let edit_lat = Array.map (fun t -> ms (t.Pstats.t_done - t.Pstats.t_sent)) edited.Loadgen.timings in
  Printf.printf "edit phase: %d edits in %.3f s; edit latency median %.1f ms, slowest %.1f ms (not gated)\n"
    (Array.length edit_lat) (secs (edited.Loadgen.stop_ns - edited.Loadgen.start_ns)) (Pstats.median edit_lat)
    (Pstats.percentile edit_lat 100.);
  let n = Array.length lat in
  Printf.printf "open loop: %d requests over %.1f s; waited to send p99 %.3f ms; generator late p99 %.3f ms\n" n t_open
    (Pstats.percentile (Array.map Pstats.wait_ms opened.Loadgen.timings) 99.)
    (late_p99 opened.Loadgen.timings);
  (match Pstats.tail_percentile n with
  | Some p ->
      Printf.printf "open-loop latency over all %d requests (not gated): p50 %.3f ms, p%d %.3f ms\n" n
        (Pstats.percentile lat 50.) p (Pstats.percentile lat (float_of_int p))
  | None -> ());
  let closed_wall = secs (closed.Loadgen.stop_ns - closed.Loadgen.start_ns) in
  if not !trace then begin
    let e2e =
      [
        m "setup_s" "s" setup;
        m "wall_s" "s" closed_wall;
        m "latency_p50_ms" "ms" (Pstats.percentile by_program 50.);
        m "latency_p99_ms" "ms" (Pstats.percentile by_program 99.);
        m "saturated_rps" "1/s" (float_of_int closed_requests /. closed_wall);
        m "peak_rss_mb" "MB" rss;
      ]
    in
    print_metrics e2e;
    emit e2e
  end
  else begin
    (* the daemon's own spans and counters, its whole life; engine, cache
       and transport figures from the open-loop phase *)
    let spans = Pstats.spans_of_events (Daemon.parse_trace (Filename.concat dir "trace.jsonl")) in
    let table = Daemon.counter_table log in
    let counter k = Option.value (List.assoc_opt k table) ~default:0 in
    let gc = Daemon.gc_totals log in
    let g k = Option.value (List.assoc_opt k gc) ~default:0. in
    (* own calls into the frontend and proginfo on every distinct edited source *)
    let fe = ref 0. and pi = ref 0. in
    List.iter
      (fun (_, r) ->
        Session.with_session ~options:(options 1)
          (Session.Source { file = "x.mc"; source = r.r_source; input = r.r_bm.Bm.bm_input })
          (fun s ->
            let w0 = Gc.minor_words () in
            ignore (Session.ir s);
            let w1 = Gc.minor_words () in
            ignore (Session.proginfo s);
            let w2 = Gc.minor_words () in
            fe := !fe +. (w1 -. w0);
            pi := !pi +. (w2 -. w1)))
      edits;
    (* tracing overhead: the same pre-warm on an untraced daemon *)
    let plain_dir = scratch "serve-plain" in
    let pd = Daemon.spawn ~dca:!dca ~dir:plain_dir ~workers:serve_workers ~trace:false in
    ignore (Daemon.wait_ready pd ~since:(now ()));
    let pconns = List.init serve_workers (fun _ -> Loadgen.connect pd.Daemon.socket) in
    let pre = Loadgen.run ~open_loop:false pconns (items_of prewarm_reqs) in
    List.iter Loadgen.close pconns;
    ignore (Daemon.stop pd);
    let plain = pre.Loadgen.stop_ns - pre.Loadgen.start_ns in
    let traced = prewarm.Loadgen.stop_ns - prewarm.Loadgen.start_ns in
    let layers =
      span_layers ~spans ~counter
      @ [
          m "frontend.minor_words" "words" !fe;
          m "proginfo.minor_words" "words" !pi;
          m "interp.minor_words_per_instr" "words" (g "minor_words" /. float_of_int (max 1 (counter "interp.instructions")));
          m "pool.busy_share" "share"
            (float_of_int (Pstats.pool_busy_ns spans)
            /. float_of_int ((closed.Loadgen.stop_ns - prewarm.Loadgen.start_ns) * serve_workers));
        ]
      @ gc_layers ~minor:(g "minor_collections") ~major:(g "major_collections") ~words:(g "minor_words")
      @ cache_calls ~dir:(scratch "cache-calls") (List.map fst locals)
      @ serve_layers ~res:opened ~stats0 ~stats1
      @ [
          m "loadgen.late_p99_ms" "ms" (late_p99 opened.Loadgen.timings);
          m "trace.overhead_share" "share" (float_of_int (traced - plain) /. float_of_int plain);
        ]
    in
    print_metrics layers;
    emit layers
  end

(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Daemon.kill_all;
  match !workload with
  | "registry-seq" -> run_batch ~jobs:1 (registry_items ())
  | "registry-par" -> run_batch ~jobs:(max 2 nproc) (registry_items ())
  | "generated" ->
      let items, missed, incomplete = generated_items () in
      let summary () =
        Printf.printf "generated: %d programs; missed by sampling %d, rejected or untestable %d (counted, not failed)\n"
          generated_count !missed !incomplete
      in
      run_batch ~summary ~jobs:1 items
  | "serve-edit" -> run_serve ()
  | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
