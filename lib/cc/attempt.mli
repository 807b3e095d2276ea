(** One transaction attempt under strict two-phase locking: the part of
    the lifecycle both engines share.

    The step engine ({!Tavcc_sim.Engine}) and the domain pool
    ({!Tavcc_par.Par_engine}) differ only in how they schedule an
    attempt: how a blocked lock request waits, which deadlock policy
    picks a victim, when a victim restarts.  What an attempt {e does} is
    here, once: record the history, open the multi-version session, run
    the actions through {!Exec}, drive the two-step MVCC commit, and on
    its end commit or undo.

    None of these functions calls an observer or a journal.  Each engine
    calls its own around them, in the order its contract fixes: the step
    engine sends [Ob_begin] before {!run} and [Ob_abort] before {!abort}
    (so a disk journal rolls back before the in-memory undo);
    [Par_engine] calls [j_commit] before {!commit} and [j_abort] after
    {!abort}.  Neither releases locks: the caller does that after
    {!commit} or {!abort}, so both run under the locks. *)

open Tavcc_model

type t

val start :
  record:(Tavcc_txn.History.op -> unit) ->
  acquire:(Tavcc_lock.Lock_table.req -> unit) ->
  Tavcc_txn.Txn.t ->
  t
(** Opens an attempt of the given incarnation and records its [Begin].
    [record] receives every history operation of the attempt; [acquire]
    is the scheme context's blocking lock request. *)

val run :
  t ->
  scheme:Scheme.t ->
  store:Tavcc_lang.Ast.body Store.t ->
  ?probe:Exec.probe ->
  ?observe_read:(Oid.t -> Name.Field.t -> unit) ->
  ?on_update:(Oid.t -> Name.Field.t -> before:Value.t -> after:Value.t -> unit) ->
  ?yield:(unit -> unit) ->
  max_steps:int ->
  Action.t list ->
  Scheme.txn_mode option
(** The attempt's body: opens the scheme's MVCC session (if any), runs
    [Exec.begin_txn] and every action through [Exec.perform], then the
    two-step MVCC commit — precommit (which may still raise
    {!Scheme.Validation_failed} or a lock abort) and publish, the point
    of no return.  Returns the mode of the session it published.

    [observe_read] sees every field read, versioned or not; [on_update]
    sees every write with its before- and after-image, including the
    optimistic write-back at precommit.  Whatever the body raises
    propagates; the caller then calls {!abort}.

    An interactive transaction runs each statement as its own [run]:
    the schemes that can run interactively have neither an MVCC session
    nor begin-time acquisition. *)

val commit : t -> unit
(** [Txn.commit] (the undo log is dropped) and the history's [Commit]. *)

val abort : t -> 'b Store.t -> Scheme.txn_mode option
(** Closes the MVCC session if it is still open ([ms_abort]), records
    the history's [Abort] and undoes the attempt's writes in the store
    ([Txn.abort]).  Returns the mode of the session it closed: [None]
    without a session, or once {!run} published it. *)
