(* The serve daemon's analysis core: warm sessions in front of the
   two-level verdict cache.

   A request is handled in five steps:

     1. resolve the program (registry name, server-side file, or inline
        source) to a source string + input stream;
     2. find or create a *warm session* — sessions are keyed by
        (source digest, options signature) and kept in a small LRU, so a
        repeated or incremental client skips parsing, lowering, the
        static analyses, and pool startup;
     3. compute per-loop cache keys (Progdigest) and probe the verdict
        cache, building a read-only table of resolved loops;
     4. run Driver.analyze_program with the table as its [?lookup] — only
        unresolved loops pay the dynamic stage, on the session's pool,
        merged deterministically with the cached verdicts;
     5. store the freshly computed verdicts and assemble the reply.

   Because cached entries are the exact (decision, outcome) pairs the
   driver would have produced, Report.to_string over the merged result
   list is byte-identical to a cold run — the acceptance criterion the
   serve bench asserts.

   The engine is concurrency-safe: [handle] may be called from many
   worker domains at once.  Two mechanisms make that sound:

     - *Telemetry contexts.*  Each analyze request runs under its own
       Telemetry.Ctx (installed with [with_ctx], propagated into the
       session pool), so its counters are exactly its own work; on
       completion the context is folded into the daemon's context, so
       aggregate stats equal what a serial daemon would report.  The
       reply itself never depends on telemetry — the counters footer is
       a pure fold over the result records — which is why replies are
       byte-identical under any interleaving.  When the daemon is
       *tracing*, requests share the daemon context instead: a trace is
       a whole-daemon artifact, and per-domain event streams must stay
       chronological.

     - *A busy-aware warm-session LRU.*  A session serves one request
       at a time ([w_busy]); a second request for the same key runs on
       a transient session that is closed afterwards if the slot was
       retaken.  Eviction never touches a busy session.

   A fault-carrying request needs no mechanism of its own: its plan is
   scoped to its own analysis (Faultpoint.with_plan, carried into the
   session pool like the telemetry context), so it runs concurrently
   with clean requests and cannot fire in them.

   The Vcache serializes internally; the engine's own counters live
   under one mutex. *)

module Session = Dca_core.Session
module Driver = Dca_core.Driver
module Commutativity = Dca_core.Commutativity
module Report = Dca_core.Report
module Schedule = Dca_core.Schedule
module Faultpoint = Dca_support.Faultpoint
module Telemetry = Dca_support.Telemetry

(* Fault site at the mouth of the analysis pipeline: an injected raise
   here models the engine blowing up before any containment layer
   exists, and must become an error *reply*, never a dead daemon. *)
let fp_analyze = Faultpoint.site "engine.analyze"

type warm = {
  w_session : Session.t;
  w_digest : Progdigest.t Lazy.t;
  mutable w_last : int;
  mutable w_busy : bool;  (* serving a request right now; ineligible for reuse/eviction *)
}

type t = {
  cache : Vcache.t;
  metrics : Metrics.t;
  tele : Telemetry.Ctx.t;  (* the daemon's aggregate context (ambient at create) *)
  lock : Mutex.t;  (* sessions table, counters, request ids *)
  sessions : (string, warm) Hashtbl.t;
  session_cap : int;
  default_jobs : int option;
  mutable clock : int;
  mutable requests : int;
  mutable session_reuses : int;
  mutable aborted_requests : int;
  mutable next_req : int;
}

let metric_names =
  ( [
      "dca_requests_total";
      "dca_requests_errors_total";
      "dca_analyze_requests_total";
      "dca_cache_hits_total";
      "dca_cache_misses_total";
      "dca_requests_shed_total";
      "dca_requests_timeout_total";
      "dca_worker_restarts_total";
      "dca_cache_degraded_total";
      "dca_slow_requests_total";
    ],
    [ "dca_inflight_requests"; "dca_queue_depth"; "dca_warm_sessions" ],
    [ "dca_request_duration_seconds" ] )

let create ?cache_dir ?cache_capacity ?(sessions = 8) ?jobs () =
  let counters, gauges, histograms = metric_names in
  let metrics = Metrics.create ~counters ~gauges ~histograms () in
  let on_degrade msg =
    (* log-once is guaranteed by the Vcache latch *)
    Metrics.incr metrics "dca_cache_degraded_total";
    Printf.eprintf "dca serve: disk cache write failed (%s); continuing memory-only\n%!" msg
  in
  {
    cache = Vcache.create ?dir:cache_dir ?capacity:cache_capacity ~on_degrade ();
    metrics;
    tele = Telemetry.current ();
    lock = Mutex.create ();
    sessions = Hashtbl.create 16;
    session_cap = max 1 sessions;
    default_jobs = jobs;
    clock = 0;
    requests = 0;
    session_reuses = 0;
    aborted_requests = 0;
    next_req = 0;
  }

let cache t = t.cache
let metrics t = t.metrics

let close t =
  let victims =
    Mutex.protect t.lock (fun () ->
        let ws = Hashtbl.fold (fun _ w acc -> w :: acc) t.sessions [] in
        Hashtbl.reset t.sessions;
        ws)
  in
  List.iter (fun w -> Session.close w.w_session) victims

(* ------------------------------------------------------------------ *)
(* Program resolution                                                  *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let resolve_program = function
  | Protocol.Named name -> (
      match Dca_progs.Registry.find name with
      | Some bm ->
          Ok
            ( bm.Dca_progs.Benchmark.bm_name ^ ".mc",
              bm.Dca_progs.Benchmark.bm_source,
              bm.Dca_progs.Benchmark.bm_input )
      | None ->
          if Sys.file_exists name then Ok (name, read_file name, [])
          else Error (Printf.sprintf "'%s' is neither a built-in benchmark nor a file" name))
  | Protocol.Inline { file; source; input } -> Ok (file, source, input)

(* The request's analysis options, built exactly the way `dca analyze`
   builds them so the daemon and the one-shot CLI share one key space. *)
let options_of_request t (rq : Protocol.request) =
  let config =
    {
      Commutativity.default_config with
      Commutativity.cc_schedules =
        Schedule.presets ~shuffles:(Option.value rq.Protocol.rq_shuffles ~default:3) ();
      cc_escalate = not rq.Protocol.rq_no_escalate;
    }
  in
  let base =
    Session.Options.(
      default |> with_config config
      |> with_hierarchical rq.Protocol.rq_hierarchical
      |> with_static (not rq.Protocol.rq_no_static))
  in
  let set v f o = match v with None -> o | Some v -> f v o in
  base
  |> set
       (match rq.Protocol.rq_jobs with None -> t.default_jobs | j -> j)
       Session.Options.with_jobs
  |> set rq.Protocol.rq_deadline_ms Session.Options.with_deadline_ms
  |> set rq.Protocol.rq_heap_words Session.Options.with_heap_words

(* ------------------------------------------------------------------ *)
(* Warm-session pool                                                   *)
(* ------------------------------------------------------------------ *)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Evict idle sessions down to capacity, oldest first.  Busy sessions
   are untouchable — the table may transiently exceed its cap while
   every resident is mid-request.  Closing (a pool join) happens
   outside the lock. *)
let evict_sessions t =
  let victims = ref [] in
  Mutex.protect t.lock (fun () ->
      let continue = ref true in
      while !continue && Hashtbl.length t.sessions > t.session_cap do
        let victim = ref None in
        Hashtbl.iter
          (fun k w ->
            if not w.w_busy then
              match !victim with
              | Some (_, best) when best.w_last <= w.w_last -> ()
              | _ -> victim := Some (k, w))
          t.sessions;
        match !victim with
        | Some (k, w) ->
            Hashtbl.remove t.sessions k;
            victims := w :: !victims
        | None -> continue := false
      done);
  List.iter (fun w -> Session.close w.w_session) !victims

type slot = Pooled | Fresh of string

(* Claim a warm session for this request alone, or build a transient one.
   The transient session joins the table on release if the slot is
   still free; if a twin claimed it meanwhile, the transient is simply
   closed — both produced identical replies, one keeps the warmth. *)
let acquire_session t ~file ~source ~input options =
  let key = Digest.to_hex (Digest.string source) ^ "|" ^ Session.Options.signature options in
  let reused =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.sessions key with
        | Some w when not w.w_busy ->
            w.w_busy <- true;
            w.w_last <- tick t;
            t.session_reuses <- t.session_reuses + 1;
            Some w
        | _ -> None)
  in
  match reused with
  | Some w -> (w, Pooled)
  | None ->
      let s = Session.create ~options (Session.Source { file; source; input }) in
      let w =
        { w_session = s; w_digest = lazy (Progdigest.of_program (Session.ir s)); w_last = 0; w_busy = true }
      in
      (w, Fresh key)

let release_session t w = function
  | Pooled ->
      Mutex.protect t.lock (fun () ->
          w.w_busy <- false;
          w.w_last <- tick t)
  | Fresh key ->
      let close_me =
        Mutex.protect t.lock (fun () ->
            if Hashtbl.mem t.sessions key then true
            else begin
              w.w_busy <- false;
              w.w_last <- tick t;
              Hashtbl.replace t.sessions key w;
              false
            end)
      in
      if close_me then Session.close w.w_session;
      evict_sessions t

(* ------------------------------------------------------------------ *)
(* Cached analysis                                                     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  eo_report : string;
  eo_loops : Protocol.loop_info list;
  eo_hits : int;
  eo_misses : int;
}

let subsumed (r : Driver.loop_result) =
  match r.Driver.lr_decision with Driver.Subsumed _ -> true | _ -> false

let analyze_with_cache t w (rq : Protocol.request) =
  let s = w.w_session in
  let info = Session.proginfo s in
  let pd = Lazy.force w.w_digest in
  let prog_digest = Progdigest.program_digest pd in
  let static = (Session.options s).Session.Options.static in
  let config_digest =
    Progdigest.config_digest ~hierarchical:(Session.hierarchical s) ~static (Session.config s)
  in
  let spec_digest = Progdigest.spec_digest (Session.spec s) in
  let key_of (loop : Dca_analysis.Loops.loop) =
    Progdigest.loop_key pd ~config_digest ~spec_digest ~func:loop.Dca_analysis.Loops.l_func
      ~loop_id:loop.Dca_analysis.Loops.l_id
  in
  (* A fault-carrying request runs outside the cache entirely: hits would
     mask the injected failures it exists to exercise, and storing its
     (possibly Aborted) verdicts would poison later requests. *)
  let cache_on = rq.Protocol.rq_faults = None in
  (* probe phase: sequential, before any parallel work — the resolved
     table is read-only by the time worker domains consult it *)
  let resolved : (string, Driver.loop_result) Hashtbl.t = Hashtbl.create 16 in
  if cache_on && not rq.Protocol.rq_no_cache then
    List.iter
      (fun ((_, loop) : Dca_analysis.Proginfo.func_info * Dca_analysis.Loops.loop) ->
        match Vcache.find t.cache ~prog_digest (key_of loop) with
        | Some e ->
            Hashtbl.replace resolved loop.Dca_analysis.Loops.l_id
              {
                Driver.lr_loop = loop;
                lr_label = Dca_analysis.Proginfo.loop_label info loop;
                lr_decision = e.Vcache.e_decision;
                lr_outcome = e.Vcache.e_outcome;
                (* restored provenance: a cached static verdict renders
                   byte-identically to a freshly proved one *)
                lr_provenance = e.Vcache.e_provenance;
              }
        | None -> ())
      (Dca_analysis.Proginfo.all_loops info);
  let lookup _fi (loop : Dca_analysis.Loops.loop) =
    Hashtbl.find_opt resolved loop.Dca_analysis.Loops.l_id
  in
  let results =
    Driver.analyze_program ~config:(Session.config s) ~spec:(Session.spec s)
      ~hierarchical:(Session.hierarchical s) ~static ?pool:(Session.pool s) ~lookup info
  in
  (* store phase: every freshly computed, non-subsumed verdict.  Subsumed
     results are skipped — they are free to recompute and derive from
     sibling verdicts rather than from the loop's own code. *)
  let hits = ref 0 and misses = ref 0 in
  let loops =
    List.map
      (fun (r : Driver.loop_result) ->
        let id = r.Driver.lr_loop.Dca_analysis.Loops.l_id in
        let cached = Hashtbl.mem resolved id in
        if cached then incr hits
        else if not (subsumed r) then begin
          incr misses;
          if cache_on then
            Vcache.store t.cache (key_of r.Driver.lr_loop)
            {
              Vcache.e_decision = r.Driver.lr_decision;
              e_outcome = r.Driver.lr_outcome;
              e_provenance = r.Driver.lr_provenance;
              e_prog_digest = prog_digest;
            }
        end;
        {
          Protocol.li_label = r.Driver.lr_label;
          li_decision = Driver.decision_to_string r.Driver.lr_decision;
          li_cached = cached;
          li_provenance = r.Driver.lr_provenance;
        })
      results
  in
  {
    eo_report = Report.to_string results;
    eo_loops = loops;
    eo_hits = !hits;
    eo_misses = !misses;
  }

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let stats t =
  let c = Vcache.stats t.cache in
  let requests, aborted, warm, reuses =
    Mutex.protect t.lock (fun () ->
        (t.requests, t.aborted_requests, Hashtbl.length t.sessions, t.session_reuses))
  in
  [
    ("serve.requests", requests);
    ("serve.aborted_requests", aborted);
    ("serve.warm_sessions", warm);
    ("serve.session_reuses", reuses);
    ("cache.mem_entries", Vcache.size t.cache);
    ("cache.mem_hits", c.Vcache.st_mem_hits);
    ("cache.disk_hits", c.Vcache.st_disk_hits);
    ("cache.misses", c.Vcache.st_misses);
    ("cache.stores", c.Vcache.st_stores);
    ("cache.corrupt", c.Vcache.st_corrupt);
    ("cache.evictions", c.Vcache.st_evictions);
    ("cache.write_errors", c.Vcache.st_write_errors);
    ("cache.degraded", if Vcache.degraded t.cache then 1 else 0);
  ]

(* Per-request fault containment: a request's fault plan, fresh for
   each request, is in scope for exactly that request's analysis, from
   [engine.analyze] down; everything else (the serving loop included)
   keeps the daemon's plan.  Whatever escapes every inner containment
   layer (loop-level Aborted verdicts absorb most injected faults) is
   caught here and turned into an error *reply* — the daemon survives. *)
let run_analyze t (rq : Protocol.request) =
  let analyze () =
    Faultpoint.hit_unit fp_analyze;
    match resolve_program (Option.get rq.Protocol.rq_program) with
    | Error msg -> Error msg
    | Ok (file, source, input) ->
        let options = options_of_request t rq in
        let w, slot = acquire_session t ~file ~source ~input options in
        Fun.protect
          ~finally:(fun () -> release_session t w slot)
          (fun () -> Ok (analyze_with_cache t w rq))
  in
  try
    match rq.Protocol.rq_faults with
    | Some plan -> Faultpoint.with_plan (Faultpoint.plan_of_string plan) analyze
    | None -> analyze ()
  with
  | Faultpoint.Injected msg -> Error ("crash: " ^ msg)
  | Faultpoint.Bad_plan msg -> Error ("invalid fault plan: " ^ msg)
  | Dca_frontend.Loc.Error (loc, msg) -> Error (Dca_frontend.Loc.to_string loc ^ ": " ^ msg)
  | Dca_interp.Eval.Trap msg -> Error ("runtime trap: " ^ msg)
  | Dca_interp.Eval.Out_of_fuel -> Error "execution exceeded the fuel bound"
  | Dca_interp.Eval.Deadline_exceeded -> Error "execution exceeded the wall-clock deadline"
  | Dca_interp.Eval.Heap_exhausted -> Error "execution exceeded the heap budget"
  | e -> Error ("internal error: " ^ Printexc.to_string e)

let handle t (rq : Protocol.request) =
  let req =
    Mutex.protect t.lock (fun () ->
        t.requests <- t.requests + 1;
        t.next_req <- t.next_req + 1;
        t.next_req)
  in
  Metrics.incr t.metrics "dca_requests_total";
  Metrics.gauge_add t.metrics "dca_inflight_requests" 1;
  let id = rq.Protocol.rq_id in
  let t0 = Telemetry.now_ns () in
  let finish rp =
    let elapsed = Telemetry.now_ns () - t0 in
    Metrics.observe_ns t.metrics "dca_request_duration_seconds" elapsed;
    if not (Protocol.ok rp) then Metrics.incr t.metrics "dca_requests_errors_total";
    Metrics.gauge_add t.metrics "dca_inflight_requests" (-1);
    { rp with Protocol.rp_req = req; rp_elapsed_ns = elapsed }
  in
  match rq.Protocol.rq_op with
  | Protocol.Ping -> finish (Protocol.ok_response ~id)
  | Protocol.Stats ->
      finish
        {
          (Protocol.ok_response ~id) with
          Protocol.rp_counters = stats t;
          rp_metrics = Some (Metrics.snapshot_to_json (Metrics.snapshot t.metrics));
        }
  | Protocol.Shutdown -> finish (Protocol.ok_response ~id)
  | Protocol.Analyze -> (
      Metrics.incr t.metrics "dca_analyze_requests_total";
      (* Per-request attribution: the analysis runs under its own context
         (mirroring the daemon's counting flag) and is folded into the
         daemon context afterwards, so concurrent requests never
         contaminate each other and the aggregate equals a serial
         daemon's.  Under tracing the daemon context is used directly —
         event streams must stay chronological per domain, and a trace
         is a whole-daemon artifact. *)
      let rctx =
        if Telemetry.Ctx.tracing t.tele then t.tele
        else Telemetry.Ctx.create ~counting:(Telemetry.Ctx.counting t.tele) ()
      in
      let result = Telemetry.with_ctx rctx (fun () -> run_analyze t rq) in
      if rctx != t.tele then Telemetry.Ctx.merge_into ~into:t.tele rctx;
      match result with
      | Ok eo ->
          Metrics.add t.metrics "dca_cache_hits_total" eo.eo_hits;
          Metrics.add t.metrics "dca_cache_misses_total" eo.eo_misses;
          Metrics.gauge_set t.metrics "dca_warm_sessions"
            (Mutex.protect t.lock (fun () -> Hashtbl.length t.sessions));
          finish
            {
              (Protocol.ok_response ~id) with
              Protocol.rp_report = Some eo.eo_report;
              rp_loops = eo.eo_loops;
              rp_hits = eo.eo_hits;
              rp_misses = eo.eo_misses;
            }
      | Error msg ->
          Mutex.protect t.lock (fun () -> t.aborted_requests <- t.aborted_requests + 1);
          finish (Protocol.error_response ~id msg))
