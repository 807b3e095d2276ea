(** Crash recovery over the write-ahead log: snapshots, the logging
    transaction manager, and repeating-history restart.

    The model: the {e disk image} is a {!Snapshot.t} taken at some
    checkpoint plus the stable prefix of the {!Wal}; the running
    {!Tavcc_model.Store.t} is volatile.  A crash discards the store and
    the volatile log tail; {!Restart.recover} rebuilds the store from
    the snapshot by {e redoing} every stable update in order (repeating
    history, winners and losers alike) and then {e undoing}, backwards,
    the updates of every transaction without a stable [Commit].

    Updates are logged with before- and after-images at field
    granularity — precisely the projection the paper says access vectors
    make possible without programmer-supplied inverse operations. *)

open Tavcc_model

(** Full-store field-level images. *)
module Snapshot : sig
  type t

  val take : 'b Store.t -> t
  (** Captures class and field values of every live instance. *)

  val restore : 'b Store.t -> t -> unit
  (** Rewinds the store to the image: instances created since the
      snapshot are deleted, deleted ones are {e not} resurrected (the
      workloads under test do not delete), and every field is reset.

      {b Limitation (no-delete assumption).}  Snapshots capture field
      images, not creation records, so a snapshotted instance that was
      deleted after the snapshot cannot be rebuilt.  Rather than
      silently recovering a store with the instance missing — which
      would corrupt every committed update to it that restart would
      otherwise redo — [restore] (and therefore {!Restart.recover},
      which restores first) refuses the whole recovery.  Workloads that
      delete instances need logical creation/deletion logging, which
      the WAL does not carry.
      @raise Invalid_argument if a snapshotted instance no longer
      exists *)

  val instances : t -> (Oid.t * Name.Class.t) list
end

(** The undo rule, written once for both stores: this module's
    {!Manager} and {!Restart} over the in-memory store, and the page
    store's abort and restart undo ([Tavcc_storage.Engine]).

    Undo needs only the before-images the log already carries — the
    projections access vectors make — never a programmer-written
    inverse.  It has two parts: the compensation of one logged change,
    and the walk back that finds the changes to compensate.  A store
    supplies how a record is logged and applied; a rollback logs each
    compensation before applying it. *)
module Undo : sig
  val compensation : Wal.record -> Wal.record option
  (** [Update] becomes a [Clr] carrying the before-image, [Insert] a
      [Delete], [Delete] an [Insert] (both with the full image).  Every
      other record — [Clr] included — has none: a CLR is redo-only. *)

  val changes : int list -> Wal.record list -> Wal.record list
  (** [changes txns newest_first]: the forward changes ([Update],
      [Insert], [Delete]) of these transactions' live incarnations,
      newest first.  The walk goes back from the tail and stops at each
      transaction's latest [Begin]; earlier incarnations ended in the
      log.  Restart passes the losers and the whole log reversed; an
      abort passes one transaction.

      A rollback's CLRs are never collected.  Its compensating [Insert]
      and [Delete] look like forward changes, so when a crash cuts a
      rollback short, restart compensates them again; each such pair
      cancels, since each record carries the other's image, and
      compensating strictly newest first keeps every before-image
      right.  A rollback that completes is sealed by its [Abort], and
      restart walks it no more. *)

  val rollback :
    log:(Wal.record -> unit) -> apply:(Wal.record -> unit) -> Wal.record list -> unit
  (** [rollback ~log ~apply changes] compensates [changes] in the order
      given (newest first): each compensation is [log]ged, then
      [apply]ed. *)
end

(** The logging transaction manager: every write goes through here so
    the WAL sees it before the store does. *)
module Manager : sig
  type 'b t

  val create : 'b Store.t -> Wal.t -> 'b t
  val store : 'b t -> 'b Store.t
  val log : 'b t -> Wal.t

  val begin_txn : 'b t -> int -> unit
  (** @raise Invalid_argument if the transaction is already active *)

  val write : 'b t -> txn:int -> Oid.t -> Name.Field.t -> Value.t -> unit
  (** Logs the update (before/after images), then applies it.
      @raise Invalid_argument if the transaction is not active *)

  val read : 'b t -> txn:int -> Oid.t -> Name.Field.t -> Value.t

  val commit : 'b t -> int -> unit
  (** Appends [Commit] and {e forces the log} (WAL rule: a transaction
      is durable exactly when its commit record is stable). *)

  val abort : 'b t -> int -> unit
  (** Rolls the live incarnation back by {!Undo}, logging a CLR for each
      update, appends [Abort], does not force. *)

  val checkpoint : 'b t -> Snapshot.t
  (** Takes a snapshot and logs a [Checkpoint] record.  Only safe (and
      only allowed) with no active transaction: a sharp checkpoint.
      Forces the log.
      @raise Invalid_argument if transactions are active *)

  val active : 'b t -> int list

  val crash_image : 'b t -> Wal.record list
  (** The disk as a crash right now would leave it: the stable prefix of
      the log.  Chaos harnesses pair this with the checkpoint snapshot
      to drive {!Restart.recover} at arbitrary points of a run; for
      byte-level crash points (torn tails) they instead encode the
      prefix and cut it mid-record. *)
end

module Restart : sig
  val recover :
    ?metrics:Tavcc_obs.Metrics.t -> 'b Store.t -> Snapshot.t -> Wal.record list -> unit
  (** [recover store snapshot log] rebuilds [store] to the state every
      stably-committed transaction produced: restore the snapshot, redo
      all updates in log order, undo the losers' live incarnations by
      {!Undo} (the compensations are applied, not logged).  Idempotent.

      With [metrics], the pass sizes go to counters: [wal.replayed]
      (records scanned), [wal.redo_applied] and [wal.undo_applied]
      (writes performed by each pass). *)

  val losers : Wal.record list -> int list
  (** Transactions whose latest [Begin] has no later [Commit] or
      [Abort] — the incarnations that were still running at the crash. *)

  val committed : Wal.record list -> int list
  (** Transactions with a [Commit] record, in commit order. *)
end
