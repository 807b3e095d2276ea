(** Deterministic concurrent-execution engine.

    Transactions run as cooperative fibers (OCaml 5 effects).  A fiber
    executes its actions through {!Tavcc_cc.Exec.perform}; when a lock
    request must wait, the fiber parks and the seeded scheduler picks
    another runnable fiber, so executions interleave exactly at the points
    a real lock manager would switch — and, optionally, at every field
    access, which is what the serializability property tests need.

    Deadlocks are detected on every blocking request by cycle search in
    the incrementally maintained waits-for graph, starting from the newly
    blocked transaction only (every new edge is incident to it); the
    youngest transaction of the cycle is aborted (undo log replayed, locks
    released) and restarted from scratch, as the protocols of the paper
    assume.  Everything is driven by a seed: replays are bit-for-bit
    identical. *)

open Tavcc_lang
open Tavcc_cc

(** How blocking requests are kept from deadlocking.

    [Detect] is the classical approach assumed by the paper's protocols:
    search the waits-for graph on every blocking request and abort the
    youngest member of a cycle.  The three prevention policies are
    standard comparisons: [Wound_wait] lets an older requester abort the
    younger holders in its way; [Wait_die] kills a younger requester
    instead of letting it wait behind an older holder; [No_wait] aborts
    the requester on any conflict.  Births survive restarts, so both
    priority policies guarantee progress.  [Timeout n] parks the waiter
    and aborts it after [n] scheduler steps without a grant. *)
type deadlock_policy =
  | Detect
  | Wound_wait
  | Wait_die
  | No_wait
  | Timeout of int

val policy_name : deadlock_policy -> string
(** The CLI spelling: "detect", "wound-wait", ... *)

(** Observable milestones of a run, in execution order. *)
type event =
  | Ev_begin of int
  | Ev_blocked of int * Tavcc_lock.Lock_table.req
  | Ev_resumed of int  (** unparked after a wait *)
  | Ev_deadlock of int list * int  (** cycle, chosen victim *)
  | Ev_wound of int * int  (** wounding txn, victim *)
  | Ev_died of int  (** wait-die / no-wait self-abort *)
  | Ev_timeout of int
  | Ev_forced_abort of int  (** chaos-injected abort ({!hooks}) *)
  | Ev_abort of int
  | Ev_commit of int

val pp_event : Format.formatter -> event -> unit

type sink = (int * event) Tavcc_obs.Sink.t
(** Where the engine's event stream goes; each event is stamped with the
    scheduler step at which it happened.  {!Tavcc_obs.Sink.null} records
    nothing (the default — a single branch per event),
    [Tavcc_obs.Sink.ring n] keeps the last [n] events (returned in
    {!result.events}), [Tavcc_obs.Sink.callback f] streams them out. *)

(** The raw data accesses of a run, in execution order, with the images a
    write-ahead logger needs.  Unlike {!Tavcc_txn.History} ops, these are
    streamed as they happen (not recorded), carry values, and are the
    bridge by which the chaos harness shadows a run into a
    {!Tavcc_recovery}-style transaction manager. *)
type access =
  | Ob_begin of int  (** attempt begins (also on each restart) *)
  | Ob_read of int * Tavcc_model.Oid.t * Tavcc_model.Name.Field.t
  | Ob_write of {
      txn : int;
      oid : Tavcc_model.Oid.t;
      field : Tavcc_model.Name.Field.t;
      before : Tavcc_model.Value.t;
      after : Tavcc_model.Value.t;
    }
  | Ob_commit of int
  | Ob_abort of int

(** Deterministic intervention points for fault injection and schedule
    exploration.  All hooks run synchronously inside the scheduler loop,
    so a pure hook keeps the run bit-for-bit replayable. *)
type hooks = {
  hk_pick : (step:int -> ready:int list -> int) option;
      (** chooses the next transaction to run from the (non-empty,
          job-ordered) ready list; when absent the seeded RNG picks.  The
          returned id must be in [ready]. *)
  hk_forced_abort : (step:int -> eligible:int list -> int list) option;
      (** consulted once per scheduler iteration with the transactions
          that can be externally aborted right now (parked or yielded,
          holding a live continuation); every returned eligible id is
          aborted and restarted exactly as a deadlock victim would be,
          after an {!Ev_forced_abort} event *)
  hk_on_grant : (Tavcc_lock.Lock_table.req -> unit) option;
      (** forwarded to {!Tavcc_lock.Lock_table.create}'s [on_grant] *)
  hk_observe : (access -> unit) option;
      (** streams every begin/read/write/commit/abort, with write images:
          [Ob_begin] before the attempt's MVCC session opens, [Ob_write]
          before the store changes, [Ob_commit] after the in-memory
          commit, and [Ob_abort] before the in-memory undo — both before
          the locks are released *)
  hk_probe :
    (txn:int -> holds:(Tavcc_lock.Resource.t -> (int * bool) list) -> Exec.probe) option;
      (** builds a per-transaction {!Tavcc_cc.Exec.probe} at its first
          attempt; [holds] queries the engine's lock table for the
          (mode, hier) pairs the transaction holds on a resource at the
          instant of the probed access.  This is how the sanitizer's
          {!Tavcc_sanitize.Recorder} and {!Tavcc_sanitize.Monitor}
          observe an engine run. *)
}

val no_hooks : hooks
(** All five absent: the engine behaves exactly as without chaos. *)

type config = {
  seed : int;
  yield_on_access : bool;
      (** reschedule after every field read/write (finer interleavings,
          slower) *)
  max_restarts : int;  (** per transaction; beyond it the run fails *)
  max_steps : int;  (** interpreter fuel per action *)
  policy : deadlock_policy;
  sink : sink;
  hooks : hooks;
  metrics : Tavcc_obs.Metrics.t option;
      (** when set, the run records engine counters ([engine.commits],
          [engine.aborts], [engine.deadlocks], [engine.wounds],
          [engine.died], [engine.timeouts], [engine.restarts],
          [engine.steps] and [engine.steps.<policy>]), the
          [engine.attempt_steps] histogram (scheduler steps from each
          attempt's begin to its commit or abort) and, through the lock
          table it creates, the [lock.*] metrics of
          {!Tavcc_lock.Lock_table.create} with the step counter as the
          clock *)
}

val default_config : config
(** seed 42, no access yields, 100 restarts, [Detect], null sink,
    {!no_hooks}, no metrics. *)

type result = {
  commits : int;
  deadlocks : int;  (** deadlock cycles resolved *)
  aborts : int;  (** transactions aborted (then restarted) *)
  restarts : int;  (** total restart count, = aborts unless a txn died *)
  lock_requests : int;
  lock_waits : int;
  lock_conversions : int;
  scheduler_steps : int;
  history : Tavcc_txn.History.t;
  failed : (int * string) list;
      (** transactions that exceeded [max_restarts] or raised *)
  events : (int * event) list;
      (** the (step, event) contents of a ring sink, oldest first; empty
          for null and callback sinks *)
  lock_stats : Tavcc_lock.Lock_table.stats;
      (** snapshot of the run's complete lock-table statistics — the
          [lock_requests]/[lock_waits]/[lock_conversions] fields above
          are projections of it, kept for compatibility *)
}

val serializable : result -> bool
(** Conflict serializability of the committed projection (the oracle). *)

val run :
  ?config:config ->
  scheme:Scheme.t ->
  store:Ast.body Tavcc_model.Store.t ->
  jobs:(int * Exec.action list) list ->
  unit ->
  result
(** [jobs] are (transaction id, actions) pairs; ids must be distinct and
    positive.  The engine creates the scheme's lock table, runs every job
    to commit (restarting deadlock victims) and returns the metrics and
    the recorded history. *)
