(** Parallel execution driver: real transactions on real cores.

    Where [Tavcc_sim.Engine] interleaves cooperative fibers under a
    seeded single-threaded scheduler, this engine runs the {e same} jobs
    through the {e same} pluggable {!Tavcc_cc.Scheme} callbacks on a pool
    of OCaml 5 domains, against a {!Shard_table} whose blocking is real:
    a conflicting request parks its worker on a condition variable until
    the lock manager grants it.

    The deadlock policies mirror the step engine's
    {!Tavcc_sim.Engine.deadlock_policy}:
    - [Detect] — a periodic detector domain snapshots the per-shard
      waits-for edges, unions them (cycles may cross shards) and kills
      the youngest member of every cycle;
    - [Wound_wait] / [Wait_die] / [No_wait] — decided inline at block
      time from registered births;
    - [Timeout n] — [n] is interpreted as {e milliseconds} of real wait
      (the step engine counts scheduler steps; there is no step clock
      here), enforced by the detector's periodic sweep.

    The detector domain runs under every policy: under the prevention
    policies it is a backstop for the rare conversion-induced cycles
    that inline wounding cannot see.

    Safety requirements on the shared store: jobs must not create or
    delete instances (the generated workloads never do — the engine
    pre-touches every extent so even extent scans mutate nothing), and
    every field access is covered by the scheme's locks (strict 2PL), so
    data accesses to the same slot are ordered by lock hand-off.
    Transactions killed while {e running} (wound, phantom deadlock) only
    notice at their next lock operation or at commit; a victim that
    reaches commit first is allowed to commit — it releases its locks
    either way, so progress is preserved.

    With [record_history] the raw field accesses go into a
    mutex-protected {!Tavcc_txn.History}, and because conflicting
    accesses are ordered by 2PL the recorded order is conflict-faithful:
    [History.conflict_serializable] is a sound oracle for the parallel
    run, exactly as for the step engine.  Recording serialises the hot
    path — leave it off when measuring throughput. *)

open Tavcc_lang
open Tavcc_cc

type config = {
  domains : int;  (** worker domains (>= 1) *)
  shards : int;  (** lock-manager shards (>= 1) *)
  policy : Tavcc_sim.Engine.deadlock_policy;
  max_restarts : int;  (** per transaction; beyond it the txn fails *)
  max_steps : int;  (** interpreter fuel per action *)
  restart_backoff_us : int;
      (** base of the exponential abort backoff: attempt [n] sleeps a
          uniformly jittered duration in [[b/2, b]] for
          [b = min cap (base * 2^(n-1))] with a 5 ms [cap], the jitter
          seeded from [(txn id, attempt)] so runs stay reproducible; 0
          disables *)
  record_history : bool;
  metrics : Tavcc_obs.Metrics.t option;
      (** counters [par.commits], [par.aborts], [par.deadlocks],
          [par.wounds], [par.died], [par.timeouts], [par.restarts], the
          [par.txn_us] per-commit latency and [par.backoff_us] sleep
          histograms, a [par.dom<i>.busy_us] busy-time counter per worker
          domain, and the shard tables' [lock.*] metrics with a
          microsecond clock *)
  obs : Par_obs.t option;
      (** per-domain event streams: workers and the lock manager emit
          transaction- and lock-lifecycle events into domain-local rings,
          the detector domain drains them while the run is live (a final
          drain happens after the joins), feeding the contention profiler
          and — with [keep_events] — the multicore Perfetto export.  Must
          have been created with this config's [domains].
          @raise Invalid_argument otherwise *)
  probe :
    (dom:int ->
    txn:int ->
    holds:(Tavcc_lock.Resource.t -> (int * bool) list) ->
    Exec.probe)
    option;
      (** builds a per-transaction {!Exec.probe} when the worker domain
          [dom] picks the job up; [holds] queries the shard table for the
          (mode, hier) pairs the transaction holds on a resource.  The
          probe runs on the worker domain with the scheme's locks already
          granted — feed observations through domain-local structures
          (one {!Tavcc_sanitize.Recorder}/{!Tavcc_sanitize.Monitor} per
          domain) to keep the hot path mutex-free. *)
  journal : journal option;
      (** durability hooks, called on the thread that runs the
          transaction (writes between them run on the same thread, so a
          thread-keyed ambient transaction works):
          - [j_begin] at the start of every attempt, right after the
            transaction registers with the lock manager and before the
            body runs;
          - [j_commit] after the body (and an MVCC session's publish),
            {e while the locks and the undo log are still held}: a
            journalled commit is durable before its effects are
            readable;
          - [j_abort] on every attempt whose [j_begin] returned and that
            does not commit, after the in-memory undo and still under the
            locks.

          A hook that raises never takes a worker down and never strands
          locks.  When [j_begin] or [j_commit] raises, the attempt is
          aborted like any other failure — in-memory undo, then [j_abort]
          (unless [j_begin] was the one that raised), then release — and
          the job ends [Job_failed] with the exception's text, without a
          restart ([itxn_commit] returns [Error]).  A failed [j_commit]
          leaves the in-memory store rolled back, but an MVCC session has
          already published its versions by then, and they stay published.
          What a restart finds depends on the journal:
          [Tavcc_storage.Engine] logged its commit record before the force
          that failed, and [j_abort] logs the compensations after it.
          Recovery repeats both, so a restart finds the transaction rolled
          back once the compensations are on disk, and committed if only
          the commit record got there.  When [j_abort] raises, the locks
          are still released and the job fails with that exception's
          text.
          [Tavcc_storage.Engine.journal] builds the record for the
          disk-resident store. *)
}

(** See {!config.journal}. *)
and journal = {
  j_begin : int -> unit;
  j_commit : int -> unit;
  j_abort : int -> unit;
}

val default_config : config
(** 4 domains, 8 shards, [Detect], 1000 restarts, 50 us backoff base,
    no history, no metrics, no event streams, no probe, no journal.  The
    detector sweeps every 500 us; the [TAVCC_PAR_WATCHDOG] stall dump
    ({!Shard_table.stall_report}) goes to stderr. *)

type result = {
  commits : int;
  aborts : int;  (** aborted attempts (then restarted) *)
  deadlocks : int;  (** cycles the detector resolved *)
  wounds : int;
  died : int;
  timeouts : int;
  restarts : int;
  snapshot_commits : int;  (** mvcc: lock-free read-only commits *)
  snapshot_aborts : int;  (** mvcc: snapshot transactions that failed anyway *)
  occ_commits : int;  (** mvcc: optimistic transactions that validated *)
  occ_validation_failures : int;  (** mvcc: optimistic commits that lost *)
  failed : (int * string) list;
  wall_seconds : float;
  throughput : float;  (** committed transactions per second *)
  lock_stats : Tavcc_lock.Lock_table.stats;
  history : Tavcc_txn.History.t option;  (** when [record_history] *)
}

val pp_result : Format.formatter -> result -> unit

val serializable : result -> bool
(** [History.conflict_serializable] of the recorded history; true when no
    history was recorded (nothing to refute — enable [record_history] for
    a meaningful check). *)

val run :
  ?config:config ->
  scheme:Scheme.t ->
  store:Ast.body Tavcc_model.Store.t ->
  jobs:(int * Exec.action list) list ->
  unit ->
  result
(** Ids must be distinct and positive; births equal ids (lower id =
    older, as in the step engine).  The jobs go, in list order, into the
    queue of a {!service_start}ed service, whose workers run them; every
    job runs to commit, to [max_restarts] or to a failure, and [run]
    returns {!service_stop}'s result. *)

(** {1 Submission service}

    The same engine behind a bounded job queue, for external drivers
    (the network server front-end) that produce transactions over time
    instead of as one batch.  [service_start] spawns the worker domains
    and the detector immediately; they idle on a condition variable
    until jobs arrive.  The queue bound is the admission-control point:
    a [submit] against a full queue returns {!Saturated} instead of
    buffering without limit, and the caller decides whether to shed or
    retry.  Transaction ids are assigned internally (monotonically from
    1, so birth = id keeps the age order of the batch driver). *)

type service

type job_status =
  | Job_committed of { restarts : int }
  | Job_failed of string
      (** exceeded [max_restarts], or the interpreter raised *)

type submit_outcome =
  | Accepted
  | Saturated  (** queue at capacity — shed or retry later *)
  | Closed  (** [service_stop] has begun *)

val service_start :
  ?config:config ->
  ?queue_capacity:int ->
  scheme:Scheme.t ->
  store:Ast.body Tavcc_model.Store.t ->
  unit ->
  service
(** Default [queue_capacity] is 256 queued (not yet running) jobs.
    @raise Invalid_argument if it is not positive. *)

val submit :
  service -> actions:Exec.action list -> k:(job_status -> unit) -> submit_outcome
(** On [Accepted], [k] runs exactly once, on the worker domain that
    executed the job, after its locks are released.  [k] must not block
    for long (it occupies a worker) and exceptions it raises are
    swallowed.  On [Saturated]/[Closed] the job was not enqueued and [k]
    will never run. *)

val service_backlog : service -> int
(** Jobs queued and not yet picked up by a worker. *)

val service_in_flight : service -> int
(** Queued jobs + running jobs + open interactive transactions. *)

val service_drain : service -> unit
(** Block until [service_in_flight] is 0.  Callers must stop submitting
    first (or the wait may never end); typically: stop accepting,
    [service_drain], [service_stop]. *)

val service_waiting : service -> (int * float) list
(** [Shard_table.waiting_txns] of the underlying lock manager:
    transactions currently parked, with seconds waited. *)

val service_stop : service -> result
(** Close the queue (subsequent [submit]s return [Closed]), let the
    workers drain what is already queued, join them and the detector,
    and return the aggregate result.  Open interactive transactions are
    the caller's to resolve {e before} calling this — their locks are
    not force-released. *)

(** {1 Interactive transactions}

    A session-owned transaction driven one statement at a time on the
    caller's own thread, against the same shard table the worker domains
    use — this is what gives a network session Begin/Stmt/Commit
    pipelining.  Unlike batch jobs there is no automatic restart: any
    abort (deadlock victim, wound, runtime error) closes the transaction
    and surfaces as [Error]; the client decides whether to retry.

    Only schemes whose per-access hooks actually acquire locks can run
    interactively: a preclaiming scheme ([tav-pre]) sees no action list
    up front and would execute unlocked, and a multi-version scheme
    needs the whole action list to classify the transaction.  Check
    {!interactive_supported} first; [itxn_begin] refuses otherwise. *)

type itxn

val interactive_supported : Scheme.t -> bool

val itxn_begin : service -> (itxn, string) Stdlib.result
(** Registers with the lock manager and counts toward
    [service_in_flight] until commit or rollback. *)

val itxn_id : itxn -> int

val itxn_perform : itxn -> Exec.action -> (unit, string) Stdlib.result
(** Runs one action under the scheme's per-access locking.  On [Error]
    the transaction has been aborted: its writes undone, its locks
    released, any waiters woken — it is closed and must not be used
    again.  Must be called from the session's own thread, never a worker
    domain. *)

val itxn_commit : itxn -> (unit, string) Stdlib.result
(** Checks the kill flag one last time (the deadlock detector may have
    chosen this transaction while it was idle between statements); on
    [Error] the transaction was aborted and released as in
    {!itxn_perform}. *)

val itxn_rollback : itxn -> unit
(** Abort and release; counted in [result.aborts].  Idempotent — safe on
    an already-closed transaction (e.g. teardown after an abort). *)
