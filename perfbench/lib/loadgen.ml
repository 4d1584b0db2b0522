(* A single-threaded load generator over a few persistent connections to
   the serve daemon.  One request is in flight per connection; replies
   are read with [select], so sending never waits on a slow reply.

   Requests with the same [it_key] (the same user program) are never in
   flight together: a client that edits a program waits for the previous
   reply first.  This also keeps the verdict cache's hit and miss counts
   a function of the request order alone, which the benchmark relies on
   when it compares work counters between runs. *)

type item = {
  it_due_ns : int;  (** offset from the phase start; ignored by closed loops *)
  it_key : string;
  it_line : string;  (** one request line, without its newline *)
}

type result = {
  timings : Pstats.timing array;  (** absolute {!Dca_support.Telemetry.now_ns} times *)
  replies : string option array;  (** raw reply lines; [None] if the connection failed *)
  start_ns : int;
  stop_ns : int;
}

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable inflight : int (* -1: idle *) }

let now = Dca_support.Telemetry.now_ns

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; buf = Buffer.create 4096; inflight = -1 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off = if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off)) in
  go 0

(* Run [items] over [conns].  Open loop: item [i] becomes ready at
   [start + it_due_ns]; closed loop: every item is ready at once, so each
   connection sends its next request as soon as its reply arrives.
   Ready items are sent earliest-first, skipping items whose key is in
   flight. *)
let run ~open_loop conns items =
  let n = Array.length items in
  let conns = Array.of_list conns in
  let sent = Array.make n 0 and ready_at = Array.make n 0 and done_ = Array.make n 0 in
  let replies = Array.make n None in
  (* the last completion: a blocked item becomes sendable at the latest
     completion before it is sent *)
  let last_done = ref 0 in
  let busy_keys = Hashtbl.create 16 in
  let start = now () in
  let due i = if open_loop then start + items.(i).it_due_ns else start in
  let next = ref 0 (* first item not yet ready *) and ready = ref [] (* ready, unsent, in order *) in
  let completed = ref 0 in
  let chunk = Bytes.create 65536 in
  let finish c line =
    let i = c.inflight in
    done_.(i) <- now ();
    last_done := done_.(i);
    replies.(i) <- line;
    Hashtbl.remove busy_keys items.(i).it_key;
    c.inflight <- -1;
    incr completed
  in
  while !completed < n do
    let t = now () in
    while !next < n && due !next <= t do
      ready := !ready @ [ !next ];
      incr next
    done;
    (* dispatch to idle connections *)
    Array.iter
      (fun c ->
        if c.inflight < 0 then
          match List.find_opt (fun i -> not (Hashtbl.mem busy_keys items.(i).it_key)) !ready with
          | None -> ()
          | Some i ->
              ready := List.filter (fun j -> j <> i) !ready;
              Hashtbl.replace busy_keys items.(i).it_key ();
              c.inflight <- i;
              ready_at.(i) <- max (due i) !last_done;
              sent.(i) <- now ();
              (try write_all c.fd (items.(i).it_line ^ "\n") with Unix.Unix_error _ -> finish c None))
      conns;
    let busy = Array.to_list conns |> List.filter (fun c -> c.inflight >= 0) in
    let idle = Array.exists (fun c -> c.inflight < 0) conns in
    let timeout =
      if idle && !next < n then Float.max 0. (float_of_int (due !next - now ()) /. 1e9)
      else if busy = [] then 0.
      else -1.
    in
    if busy <> [] || timeout > 0. then begin
      let readable, _, _ =
        try Unix.select (List.map (fun c -> c.fd) busy) [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          let c = List.find (fun c -> c.fd == fd) busy in
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> finish c None
          | k -> (
              Buffer.add_subbytes c.buf chunk 0 k;
              let s = Buffer.contents c.buf in
              match String.index_opt s '\n' with
              | None -> ()
              | Some j ->
                  Buffer.clear c.buf;
                  Buffer.add_string c.buf (String.sub s (j + 1) (String.length s - j - 1));
                  finish c (Some (String.sub s 0 j)))
          | exception Unix.Unix_error _ -> finish c None)
        readable
    end
  done;
  let timings =
    Array.init n (fun i -> { Pstats.t_due = due i; t_ready = ready_at.(i); t_sent = sent.(i); t_done = done_.(i) })
  in
  { timings; replies; start_ns = start; stop_ns = now () }

(* One synchronous request on an idle connection (stats between phases:
   a fresh connection would wait for a daemon worker that the persistent
   connections hold). *)
let call c line =
  write_all c.fd (line ^ "\n");
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | Some j ->
        Buffer.clear c.buf;
        Buffer.add_string c.buf (String.sub s (j + 1) (String.length s - j - 1));
        String.sub s 0 j
    | None -> (
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "connection closed"
        | k ->
            Buffer.add_subbytes c.buf chunk 0 k;
            go ())
  in
  go ()
