(** The disk-resident object store: slotted pages behind a clock buffer
    pool, an on-disk WAL, and ARIES-style recovery.

    The engine owns three files under its directory:

    - [data.pages] — page 0 is a meta page (checkpoint LSN, oid/page
      high-water marks), summed by {!Page.checksum} like the others;
      pages 1.. are {!Page} slotted pages of serialized instances.  This
      is format 2; a format-1 directory (FNV-1a/32 page checksums) is
      refused at {!create}, not converted;
    - [wal.log] — {!Tavcc_recovery.Codec}-framed {!Tavcc_recovery.Wal}
      records.  Memory holds only the unwritten tail, a count of the
      records, and each active transaction's own changes (its undo
      list), so what the log costs in memory is bounded by in-flight
      work, not by history;
    - [dblwr.log] — a one-slot double-write buffer: every page image
      lands at its offset 0, framed with its page id and stamped sum,
      before its in-place write, so a torn page write is repaired at
      recovery.  Each write-back overwrites the slot; one is enough
      because a write-back returns only once its page write has (and,
      under [Fsync], is forced).  Truncated at each checkpoint.

    Disciplines enforced:

    - {b WAL-before-data}: the pool's write-back first forces the log,
      so a page image on disk is never ahead of the stable log;
    - {b fuzzy checkpoint}: {!checkpoint} flushes every dirty page, logs
      [Checkpoint active], forces, truncates the double-write buffer and
      rewrites the meta page — redo then starts at the checkpoint LSN;
    - {b repeating history}: {!create} recovers by redoing every stable
      record from the checkpoint LSN (logically, by oid — physical
      placement may differ run to run) and then undoing losers
      backwards by {!Tavcc_recovery.Recovery.Undo}: updates are
      compensated with CLRs, inserts with deletes and deletes with
      re-inserts, each compensation logged before it is applied, then
      each loser's [Abort] is logged.  {!abort} uses the same rule.

    All public operations are serialised by an internal mutex; the
    engine is shared safely by the parallel engine's domains and the
    network front-end's session threads. *)

open Tavcc_model

exception Crashed of string
(** Raised by an {!io_hook} that kills the engine mid-IO.  The engine
    must then be {!abandon}ed: its in-memory state is unspecified, but
    its files are exactly what a machine crash at that point leaves. *)

(** Points in the IO path an {!io_hook} observes, in the order a real
    kernel would see the writes. *)
type io_point =
  | Wal_write of int  (** forcing this many pending log bytes *)
  | Page_write of int  (** in-place page write (pid) *)
  | Dblwr_write of int  (** double-write slot rewrite (pid) *)
  | Meta_write  (** meta-page rewrite (checkpoint tail) *)
  | Ckpt_begin  (** entering {!checkpoint} (marker; action ignored) *)
  | Ckpt_end  (** leaving {!checkpoint} (marker; action ignored) *)

type io_action =
  | Proceed
  | Torn of int
      (** write only the first [n] bytes, then raise {!Crashed} — a torn
          write followed by a machine crash *)

type sync = Buffered | Fsync

type config = {
  dir : string;  (** created if absent *)
  page_size : int;  (** >= {!Page.min_size}; fixed at directory creation *)
  pool_pages : int;  (** buffer-pool frames (>= 2) *)
  self_journal : bool;
      (** [true]: the store surface logs updates itself under the
          {e ambient} transaction of the calling thread (set between
          {!begin_txn} and {!commit}/{!abort}; 0 = autocommit outside
          any).  [false]: updates are journalled externally via
          {!observe} — inserts and deletes are still always
          self-logged. *)
  sync : sync;  (** [Fsync] pays for real durability; most tests use [Buffered] *)
  metrics : Tavcc_obs.Metrics.t option;
      (** the engine's counters: [storage.*], and [wal.appends] (records
          appended) and [wal.flushes] (forces that wrote bytes).  Opening
          counts neither the records it decodes nor a flush.
          [storage.fsyncs] counts every fsync, which only [Fsync] mode
          issues. *)
  io_hook : (io_point -> io_action) option;
      (** fault injection; may raise {!Crashed} itself.  Not consulted
          during {!create}'s recovery pass. *)
}

val default_config : dir:string -> config
(** 4 KiB pages, 64 frames, self-journalling, buffered, no hook.  The
    row cache holds 32 x [pool_pages] rows. *)

type t

val create : config -> t
(** Opens (or initialises) the directory and runs recovery: decode the
    log's longest valid prefix (dropping any torn tail), repair a torn
    page from the double-write slot (forcing it), rebuild the oid
    directory and extents from the pages (a record on two pages loses
    the copy on the lower-LSN one, whose page is rewritten through the
    slot), redo from the checkpoint LSN, undo losers, then checkpoint.
    @raise Failure on unrepairable corruption, and on a format-1
    directory, with a message that names the format. *)

val store : t -> 'b Schema.t -> 'b Store.t
(** The engine behind the standard store API — [Exec], [Par_engine] and
    the network front-end run over it unmodified. *)

(** {2 Transactions} *)

val begin_txn : t -> int -> unit
(** Logs [Begin] and makes [txn] the calling thread's ambient
    transaction (self-journal mode attributes its writes to it). *)

val commit : t -> int -> unit
(** Logs [Commit] and forces the WAL (the durability point).  The
    transaction's undo list is dropped only once the force returns: if
    it raises, the transaction is still active and the {!abort} that
    follows rolls it back. *)

val abort : t -> int -> unit
(** Rolls the transaction back by walking only its own changes, newest
    first — CLRs for updates, compensating deletes/inserts for
    inserts/deletes, each logged before it is applied — then logs
    [Abort].  The compensations join no undo list, so they are never
    compensated again.  Idempotent with respect to a store already
    rolled back by an engine's own undo (in self-journal mode those undo
    writes are logged changes of the transaction too, compensated
    first). *)

val checkpoint : t -> unit
(** Fuzzy checkpoint: flush all dirty pages, log [Checkpoint], force,
    truncate the double-write buffer, rewrite the meta page. *)

val flush : t -> unit
(** Forces pending WAL bytes to disk without checkpointing. *)

(** {2 External journalling} *)

val observe : t -> Tavcc_sim.Engine.access -> unit
(** Adapter for the cooperative sim engine's access stream
    ([hk_observe]): [Ob_begin]/[Ob_commit]/[Ob_abort] drive the
    transaction protocol, [Ob_write] journals the update (the sim engine
    emits it {e before} mutating the store, preserving
    WAL-before-data).  Use with [self_journal = false]. *)

val journal : t -> Tavcc_par.Par_engine.journal
(** The {!Tavcc_par.Par_engine.config.journal} record for this engine:
    [j_begin]/[j_commit]/[j_abort] are {!begin_txn}/{!commit}/{!abort}.
    Par_engine calls them on the thread running the transaction while
    its locks are held — exactly the ambient-transaction discipline the
    self-journalling store needs.  Use with [self_journal = true]. *)

(** {2 Introspection} *)

val dump : t -> (int * string * (string * Value.t) list) list
(** Every live instance, sorted by oid — the logical state the crash
    matrix compares against its oracle. *)

type stats = {
  s_instances : int;
  s_data_pages : int;
  s_pool_pages : int;
  s_pool : Buffer_pool.stats;
  s_wal_records : int;
      (** records in the log: those decoded at open plus those appended
          since, the unwritten tail included *)
  s_wal_bytes : int;  (** the size of [wal.log], the unwritten tail excluded *)
  s_cache_entries : int;
}

val stats : t -> stats

(** {2 Shutdown} *)

val close : ?flush:bool -> t -> unit
(** [flush] (default [true]) checkpoints first; then closes the fds. *)

val abandon : t -> unit
(** Closes the fds without writing a byte — the post-{!Crashed} path, so
    a crash-matrix sweep does not exhaust descriptors. *)
