type t = {
  jobs : int;
  lock : Mutex.t;
  cond : Condition.t;  (** signaled on enqueue, task completion, shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs
let fp_task = Faultpoint.site "pool.task"
let d_cancelled = Telemetry.counter ~kind:Telemetry.Diag "pool.tasks_cancelled"

(* The cancellation token of the running task: one (cut, index) pair per
   enclosing pool task, innermost first.  A task is cancelled once any
   enclosing map's cut has dropped below its index there, so a task past
   a cut cancels every task it spawned, on whichever domain they run. *)
let token : (int Atomic.t * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let cancelled () = List.exists (fun (cut, i) -> i > Atomic.get cut) (Domain.DLS.get token)

let with_token tok f =
  let prev = Domain.DLS.get token in
  Domain.DLS.set token tok;
  Fun.protect ~finally:(fun () -> Domain.DLS.set token prev) f

(* Workers loop forever: run whatever is queued, sleep when idle, exit on
   shutdown.  Tasks never raise — [run_prefix] wraps user functions so
   failures are captured into the result slots. *)
let worker_body t =
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    let rec take () =
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None -> if t.live then (Condition.wait t.cond t.lock; take ()) else None
    in
    match take () with
    | Some task ->
        Mutex.unlock t.lock;
        task ()
    | None ->
        Mutex.unlock t.lock;
        running := false
  done

let create ~jobs =
  let jobs = max 1 (min jobs 128) in
  let t =
    { jobs; lock = Mutex.create (); cond = Condition.create (); queue = Queue.create (); live = true; workers = [] }
  in
  if jobs > 1 then t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_body t));
  t

let sequential = create ~jobs:1

let shutdown t =
  Mutex.lock t.lock;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  if was_live then List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* The sequential rule every width reproduces: apply [f] in order and stop
   after the first decisive result (an exception stops it too). *)
let prefix_seq ~decisive f xs =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
        let v = f x in
        if decisive v then List.rev (v :: acc) else go (v :: acc) rest
  in
  go [] xs

(* Lower [cut] to [i] unless it already is at or below it: the cut only
   ever decreases, so a task at or below the final cut never saw itself
   past it. *)
let rec lower cut i =
  let c = Atomic.get cut in
  if i < c && not (Atomic.compare_and_set cut c i) then lower cut i

(* The parallel runner behind [map] and [map_prefix].  Every input becomes
   a queued task; [cut] holds the lowest index whose result is decisive or
   raised ([n] while there is none).  A task dequeued past the cut is
   skipped, and one running past it sees [cancelled ()] turn true.  The
   caller participates until every task has settled, then returns the
   results up to the cut: each was computed by a task that was never
   skipped or cancelled, so it is the result the sequential loop gets. *)
let run_prefix t ~decisive f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let cut = Atomic.make n in
  let remaining = ref n in
  (* Tasks run under the submitter's telemetry context, fault plan and
     cancellation token, whichever domain picks them up: counters and
     spans land in the scope that requested the work, only its plan
     fires, and cancelling the submitter cancels its tasks.  Captured
     once per map — a drain loop stealing a task from a sibling map
     still installs *that* map's scope. *)
  let tele = Telemetry.current () and faults = Faultpoint.current () in
  let outer = Domain.DLS.get token in
  let run i () =
    let r =
      Telemetry.with_ctx tele @@ fun () ->
      if i > Atomic.get cut then begin
        Telemetry.incr d_cancelled;
        None
      end
      else
        Faultpoint.with_plan faults @@ fun () ->
        with_token ((cut, i) :: outer) @@ fun () ->
        (* span per task, on whichever domain executes it: the trace's
           per-tid lanes show worker utilization directly *)
        Telemetry.begin_span ~cat:"pool" "task";
        let r =
          (* the fault point is inside the capture: an injected failure is
             recorded into the result slot and surfaces through the
             deterministic earliest-index propagation, exactly like a real
             task failure.  The site is unscoped and hit from whichever
             domain runs the task, so it is a diagnostic site —
             jobs-invariance is not claimed for it. *)
          try
            Faultpoint.hit_unit fp_task;
            let v = f items.(i) in
            if decisive v then lower cut i;
            Ok v
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            lower cut i;
            Error (e, bt)
        in
        Telemetry.end_span "task";
        if i > Atomic.get cut then Telemetry.incr d_cancelled;
        Some r
    in
    Mutex.lock t.lock;
    results.(i) <- r;
    decr remaining;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock
  in
  Mutex.lock t.lock;
  for i = 0 to n - 1 do
    Queue.add (run i) t.queue
  done;
  Condition.broadcast t.cond;
  (* Participate until every task of *this* map has settled, skipped and
     cancelled ones included — a forked replica may still be reading the
     submitter's state until then.  The task we pick up may belong to a
     sibling or nested map; running it still makes global progress, and
     our own slots are guaranteed to fill because every queued task is
     eventually executed by someone whose wait loop woke up.  The drain
     span covers exactly this participate-or-wait region, so the
     deterministic-merge stall (caller blocked on the last straggler) is
     visible in the trace as drain time not covered by nested task
     spans. *)
  Telemetry.begin_span ~cat:"pool" "drain";
  while !remaining > 0 do
    match Queue.take_opt t.queue with
    | Some task ->
        Mutex.unlock t.lock;
        task ();
        Mutex.lock t.lock
    | None -> if !remaining > 0 then Condition.wait t.cond t.lock
  done;
  Mutex.unlock t.lock;
  Telemetry.end_span "drain";
  (* below the cut every result is [Ok]; at the cut it is the decisive
     result or the earliest exception, which collecting from the cut
     downwards raises first *)
  let last = min (Atomic.get cut) (n - 1) in
  let rec collect i acc =
    if i < 0 then acc
    else
      match results.(i) with
      | Some (Ok v) -> collect (i - 1) (v :: acc)
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false
  in
  collect last []

let map_prefix t ~decisive f xs =
  match xs with
  | _ :: _ :: _ when t.jobs > 1 -> run_prefix t ~decisive f xs
  | _ -> prefix_seq ~decisive f xs

let map t f xs =
  match xs with
  | _ :: _ :: _ when t.jobs > 1 -> run_prefix t ~decisive:(fun _ -> false) f xs
  | _ -> List.map f xs

let default_jobs () =
  match Sys.getenv_opt "DCA_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n 128
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()
