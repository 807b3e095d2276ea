(** The oosim network front-end: an accept loop multiplexing client
    sessions onto the {!Tavcc_par.Par_engine} worker domains.

    Thread/domain layout: one accept thread, one systhread per client
    session (blocking socket I/O releases the runtime lock, so sessions
    overlap), and the engine's worker domains behind the submission
    queue.  A session's [Run] jobs are submitted to the bounded queue —
    the completion callback writes the {!Wire.Reply} from the worker
    domain that committed the job, which is what lets one session keep
    many pipelined requests in flight.  Interactive
    [Begin]/[Stmt]/[Commit] transactions run statement-at-a-time on the
    session thread itself against the same lock table.

    Backpressure: a [Run] that finds the queue at capacity is answered
    [Rejected] immediately ([net.rejected] counts them) — the server
    sheds load instead of buffering without bound.

    Teardown guarantee: a session that drops mid-transaction (EOF, reset,
    corrupt frame) has its open interactive transaction rolled back
    before the session closes — its locks release and any queued waiters
    wake, so a dying client cannot strand the lock manager.

    Drain: {!request_stop} (async-signal-safe — an atomic flag) makes the
    accept loop stop accepting; {!wait} then closes the listener, nudges
    idle sessions with [Bye], waits for in-flight work, stops the engine
    and returns the aggregate {!Tavcc_par.Par_engine.result}. *)

open Tavcc_lang
open Tavcc_cc

type config = {
  addr : Wire.addr;
  scheme : Scheme.t;
  store : Ast.body Tavcc_model.Store.t;
  digest : string;  (** workload digest clients must present ("" = don't care) *)
  banner : string;
  engine : Tavcc_par.Par_engine.config;
  queue_capacity : int;
  max_sessions : int;  (** beyond it new connections get [Err] + close; [net.refused] counts *)
  drain_grace_s : float;  (** per-session wait for in-flight replies at teardown *)
}

val default_config :
  addr:Wire.addr -> scheme:Scheme.t -> store:Ast.body Tavcc_model.Store.t -> config
(** Engine defaults from {!Tavcc_par.Par_engine.default_config}, queue
    capacity 256, 64 sessions, 5 s drain grace, no digest pinning.
    Per-client labelled metric series exist for at most 16 distinct
    clients (a label cardinality guard). *)

type t

val start : config -> t
(** Binds and starts accepting.  A stale unix-socket path is unlinked
    first; TCP listeners set [SO_REUSEADDR].
    @raise Unix.Unix_error when the bind itself fails. *)

val bound_addr : t -> Wire.addr
(** The actual address — resolves port 0 to the kernel-assigned port. *)

val request_stop : t -> unit
(** Stop accepting and begin the drain.  Safe from a signal handler. *)

val wait : t -> Tavcc_par.Par_engine.result
(** Join everything and return the engine's aggregate result.  Blocks
    until {!request_stop} is called (by a signal handler or another
    thread). *)

val session_count : t -> int
