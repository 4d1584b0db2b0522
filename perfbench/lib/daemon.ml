(* A `dca serve` child process.  The daemon runs in its own process so its
   garbage collector never synchronises with the load generator's. *)

module P = Dca_serve.Protocol

type t = {
  pid : int;
  socket : string;
  log : string;
  mutable alive : bool;
}

let live : t list ref = ref []

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* [trace] makes the daemon write its spans as JSONL to [dir/trace.jsonl]
   and its counter table to the log on exit.  GC totals are always
   printed to the log on exit (OCAMLRUNPARAM v=0x400). *)
let spawn ~dca ~dir ~workers ~trace =
  mkdir_p dir;
  let socket = Filename.concat dir "sock" and log = Filename.concat dir "daemon.log" in
  let args =
    [ dca; "serve"; "--socket"; socket; "--cache-dir"; Filename.concat dir "cache"; "--workers";
      string_of_int workers; "--jobs"; "1" ]
    @ if trace then [ "--trace"; Filename.concat dir "trace.jsonl"; "--stats" ] else []
  in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun kv -> not (String.length kv >= 13 && String.sub kv 0 13 = "OCAMLRUNPARAM"))
            (Array.to_list (Unix.environment ()))))
      [| "OCAMLRUNPARAM=v=0x400" |]
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process_env dca (Array.of_list args) env null out out in
  Unix.close out;
  Unix.close null;
  let t = { pid; socket; log; alive = true } in
  live := t :: !live;
  t

let request t rq = Dca_serve.Client.with_client t.socket (fun c -> Dca_serve.Client.request c rq)

(* Poll with pings until the daemon answers; seconds from [since]. *)
let wait_ready ?(timeout_s = 60.) t ~since =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match request t { P.default_request with P.rq_op = P.Ping } with
    | Ok rp when P.ok rp -> float_of_int (Dca_support.Telemetry.now_ns () - since) /. 1e9
    | _ ->
        if Unix.gettimeofday () > deadline then failwith "dca serve did not become ready";
        (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
        | 0, _ -> ()
        | _ ->
            t.alive <- false;
            failwith "dca serve exited during start-up"
        | exception Unix.Unix_error _ -> ());
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* Peak resident set so far of process [pid] (0: this process), in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.
          | exception _ -> acc)
        nan (String.split_on_char '\n' s)

let reap t =
  if t.alive then begin
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    t.alive <- false
  end;
  live := List.filter (fun d -> d != t) !live

(* Graceful stop: a shutdown request, then wait for the process.  Returns
   the daemon's log (stderr and stdout). *)
let stop t =
  ignore (request t { P.default_request with P.rq_op = P.Shutdown });
  reap t;
  In_channel.with_open_bin t.log In_channel.input_all

(* Last resort on error paths: no daemon outlives the benchmark. *)
let kill_all () =
  List.iter
    (fun t ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap t)
    !live

(* "name: value" lines of the runtime's exit-time GC report. *)
let gc_totals log =
  List.filter_map
    (fun line ->
      match Scanf.sscanf line "%[a-z_]: %f%!" (fun k v -> (k, v)) with
      | kv -> Some kv
      | exception _ -> None)
    (String.split_on_char '\n' log)

(* Rows of the counter table `--stats` prints on exit. *)
let counter_table log =
  List.filter_map
    (fun line ->
      match Scanf.sscanf line " %s %d%!" (fun k v -> (k, v)) with
      | (k, _) as kv when String.contains k '.' -> Some kv
      | _ -> None
      | exception _ -> None)
    (String.split_on_char '\n' log)

let parse_trace path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter_map (fun line ->
         match Dca_serve.Json.of_string line with
         | exception _ -> None
         | j -> (
             let str k = Option.bind (Dca_serve.Json.member k j) Dca_serve.Json.to_str_opt in
             let int k = Option.bind (Dca_serve.Json.member k j) Dca_serve.Json.to_int_opt in
             match (str "ph", str "name", int "ts", int "tid") with
             | Some ph, Some name, Some ts, Some tid when String.length ph = 1 ->
                 Some
                   {
                     Dca_support.Telemetry.e_ph = ph.[0];
                     e_name = name;
                     e_cat = Option.value (str "cat") ~default:"";
                     e_ts = ts;
                     e_tid = tid;
                     e_args = [];
                   }
             | _ -> None))
