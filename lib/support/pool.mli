(** Fixed-size worker pool over OCaml 5 domains.

    The DCA dynamic stage is an embarrassingly parallel fan-out: every
    (loop, schedule, invocation) commutativity test depends only on its
    own snapshot of the program state, never on a sibling test.  The pool
    turns that independence into multicore execution while keeping every
    user-visible result {e deterministic}: {!map} returns results in input
    order, and when several tasks raise, the exception of the
    {e lowest-indexed} input is re-raised — exactly what a sequential
    [List.map] would have surfaced first.  Where the sequential loop
    would stop early, {!map_prefix} runs the elements speculatively and
    cancels the work past the first decisive result.

    A pool created with [~jobs:1] spawns no domains and runs everything in
    the calling domain ([map] is literally [List.map]), so [jobs = 1] is
    bit-identical to the historical sequential path by construction.

    Nested use is supported: a task running on a worker may itself call
    {!map} on the same pool.  The waiting caller {e participates} — it
    drains queued tasks (its own or siblings') instead of blocking a
    worker slot — so nested fan-outs (per-loop tests spawning per-schedule
    replays) cannot deadlock. *)

type t

val create : jobs:int -> t
(** Spawn a pool with [jobs] total executors: the caller plus
    [jobs - 1] worker domains.  [jobs] is clamped to [1 .. 128]. *)

val jobs : t -> int
(** The configured parallelism width (1 = sequential). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element, potentially in parallel,
    and returns the results in the order of [xs].  If any application
    raises, the exception of the earliest input element is re-raised
    (with its backtrace) after all tasks have settled; tasks past it are
    skipped or cancelled, as in {!map_prefix}. *)

val map_prefix : t -> decisive:('b -> bool) -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered speculation.  [map_prefix t ~decisive f xs] returns what the
    sequential loop returns: the results of the shortest prefix of [xs]
    that ends at the first result satisfying [decisive], in input order
    (all of [xs] when none does); if an application raises before that
    point, its exception is re-raised instead.

    With [jobs > 1] every element is a queued task, and a monotone cut
    holds the lowest index seen to be decisive or to raise.  A task past
    the cut when it is dequeued is skipped; a task running past it sees
    {!cancelled} turn true, so it can stop early.  Tasks at or below the
    final cut are never skipped or cancelled, so every returned result is
    exactly the sequential one.  The call returns only after every task
    has settled, skipped and cancelled ones included: while it is in
    flight, the caller's state may still be read by its tasks.

    With [jobs = 1] (or fewer than two elements) it is the plain
    short-circuiting loop on the calling domain. *)

val cancelled : unit -> bool
(** True when the calling task's result can no longer be consumed: in
    some enclosing {!map_prefix} or {!map}, a task at a lower index has
    been decisive or raised.  The token is installed per task, on
    whichever domain runs it, and composes with the submitter's: tasks
    spawned by a cancelled task are cancelled too.  Always false outside
    pool tasks.  Skipped and cancelled tasks are counted by the
    [pool.tasks_cancelled] diagnostic counter. *)

val sequential : t
(** A shared width-1 pool: every map runs on the calling domain.  It owns
    no domains and needs no {!shutdown}. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Must not be called
    while a {!map} is in flight. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val default_jobs : unit -> int
(** The [DCA_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)
