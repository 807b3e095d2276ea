(** Write-ahead log with an explicit volatile/stable boundary.

    The paper notes (sec. 3) that access vectors double as {e projection
    patterns} for recovery: only the fields a method may write need
    before-images, and no programmer-supplied inverse operations are
    required.  This module provides the durable half of that story: an
    append-only log whose tail is volatile until {!flush}, so crash
    simulations can observe exactly the prefix a real system would find
    on disk.

    Records carry both before- and after-images, enabling the
    repeating-history restart of {!Restart}: redo everything, then undo
    the losers. *)

open Tavcc_model

type lsn = int
(** Log sequence number: the 0-based position of a record. *)

type record =
  | Begin of int
  | Update of {
      txn : int;
      oid : Oid.t;
      field : Name.Field.t;
      before : Value.t;
      after : Value.t;
    }
  | Clr of { txn : int; oid : Oid.t; field : Name.Field.t; after : Value.t }
      (** compensation record written while rolling an update back;
          redo-only — restart never undoes a CLR *)
  | Insert of {
      txn : int;
      oid : Oid.t;
      cls : Name.Class.t;
      slots : (Name.Field.t * Value.t) list;
    }
      (** instance creation, with its initial projection (the disk layer
          redoes it at the same oid; undo deletes the instance).  The
          in-memory {!Restart} ignores it — a volatile store cannot
          re-create at a fixed oid and never logs one. *)
  | Delete of {
      txn : int;
      oid : Oid.t;
      cls : Name.Class.t;
      slots : (Name.Field.t * Value.t) list;
    }
      (** instance removal carrying the full before-image so a loser's
          delete can be compensated by re-insertion *)
  | Commit of int
  | Abort of int
  | Checkpoint of int list  (** transaction ids active at the checkpoint *)

val pp_record : Format.formatter -> record -> unit

type t

val create : ?metrics:Tavcc_obs.Metrics.t -> unit -> t
(** With [metrics], the log counts its traffic into the registry:
    [wal.appends] (records appended) and [wal.flushes] (forces). *)

(** The boundary events a crash simulator keys off: every append to the
    volatile tail and every force of the stable prefix. *)
type event =
  | Appended of record * lsn
  | Flushed of lsn  (** the new {!stable_lsn} *)

val set_observer : t -> (event -> unit) option -> unit
(** Installs (or clears) the chaos hook.  The observer runs {e after} the
    mutation, so [Flushed n] sees [stable_lsn = n]; fault-injection
    harnesses use it as a virtual clock and to record the disk image a
    crash at that boundary would leave.  The observer must not mutate the
    log. *)

val append : t -> record -> lsn

val flush : t -> unit
(** Makes every appended record stable (the WAL force). *)

val stable_lsn : t -> lsn
(** The number of stable records; records at positions [>= stable_lsn]
    would be lost by a crash. *)

val stable : t -> record list
(** The crash-surviving prefix, oldest first. *)

val all : t -> record list
(** Stable and volatile records, oldest first. *)

val newest_first : t -> record list
(** Stable and volatile records, newest first, without copying: a walk
    back from the tail (a rollback) costs what it visits, not the
    length of the log. *)

val length : t -> int
