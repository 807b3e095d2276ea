(** The page-level crash matrix: every WAL boundary, every torn tail,
    every torn page, against a committed-prefix oracle.

    A matrix run drives a deterministic serial workload (inserts,
    variable-length updates, deletes, aborts, fuzzy checkpoints) through
    a deliberately tiny buffer pool, then checks recovery three ways:

    - {b state sweep}: the engine's [io_hook] snapshots the three
      on-disk files just before {e every} write — WAL force,
      double-write slot, page write, meta write — so each state is
      exactly one write on from the one before; each snapshot is
      recovered in a scratch directory and compared against the
      committed-prefix oracle (plus the final cleanly-closed image);
    - {b injected plans}: a sweep of {!Tavcc_chaos.Fault} disk-layer
      injections — [cf:n]/[torn:n:k] on WAL forces, [cpw:n]/[tpg:n:k] on
      page write-backs, [cck:n] on the [n]th write inside a fuzzy
      checkpoint, counted across every checkpoint of the run — each of
      which kills the engine mid-IO via its [io_hook]; the surviving
      files are recovered and checked;
    - {b bit-for-bit replay}: every (seed, plan) pair runs twice and the
      digests of (surviving bytes, recovered state) must be equal.

    The oracle: the driver is serial, so a correct recovery equals
    replaying, in log order, the operations of transaction 0 and of
    every transaction whose [Commit] survives in the log prefix —
    aborted and loser transactions vanish entirely.  On top of that,
    every commit the driver saw acknowledged must still be in the
    surviving log (the WAL-force durability guarantee). *)

type config = {
  seed : int;
  txns : int;
  objs : int;  (** instances populated before the first checkpoint *)
  ops_per_txn : int;
  page_size : int;
  pool_pages : int;  (** keep tiny so evictions happen constantly *)
  base_dir : string;  (** scratch directory (created; reused freely) *)
  max_states : int;  (** cap on state-sweep snapshots recovered *)
  max_plans : int;  (** cap on injected plans *)
}

val default : ?dir:string -> seed:int -> unit -> config
(** 24 txns over 96 objects, 512-byte pages, a 4-frame pool. *)

type report = {
  m_seed : int;
  m_commits : int;
  m_aborts : int;
  m_wal_records : int;
  m_states_checked : int;
  m_plans_run : int;
  m_crashes_fired : int;  (** plans whose injection actually triggered *)
  m_replay_consistent : bool;
  m_violations : (string * string) list;  (** (plan or "state-sweep", message) *)
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

val oracle :
  Tavcc_recovery.Wal.record list -> (int * string * (string * Tavcc_model.Value.t) list) list
(** The committed-prefix replay over an empty initial state: the exact
    logical store ([Engine.dump] shape, sorted by oid) that recovering
    from this log prefix must produce — for serial histories.  Exposed so
    [test_recovery] can check the on-disk engine against the same truth
    the in-memory restart property uses. *)

val run : config -> report

val run_plan : config -> Tavcc_chaos.Fault.plan -> string list * string * bool
(** One driver run under the plan: (violations, replay digest, whether
    the injection fired).  The replay entry point for a counterexample's
    plan string via {!Tavcc_chaos.Fault.of_string}. *)

val hook_of_plan : Tavcc_chaos.Fault.plan -> Engine.io_point -> Engine.io_action
(** The engine [io_hook] implementing the plan's disk-layer injections:
    WAL-force and page-write ordinals, and checkpoint-interior writes
    counted across all checkpoints, so [cck:n] past the first
    checkpoint's writes lands in a later one (and never fires past the
    last). *)
