(** The oosim wire protocol.

    Messages travel in the WAL's frame envelope, built by
    {!Tavcc_recovery.Codec.frame}:

    {v <8 hex: payload length> <8 hex: FNV-1a/32 of payload> <payload> v}

    so a reader can always tell "not yet enough bytes" ({!Incomplete})
    from "bytes are wrong" ({!Corrupt}) — the length is validated before
    the checksum, the checksum before the payload is parsed, and the
    payload parser itself never raises.  A payload is a one-byte message
    tag and then tokens of {!Tavcc_recovery.Codec.Tok}, the codec WAL
    records and page records use: ints are decimal with a trailing
    [','], strings are length-prefixed, floats are the 16 hex digits of
    their IEEE bits.

    A connection starts with client {!Hello} / server {!Welcome} (version
    and workload-digest agreement), then the client issues any mix of
    one-shot {!Run} jobs (batched transactions, executed on the worker
    domains) and interactive {!Begin}/{!Stmt}/{!Commit}/{!Rollback}
    sequences (executed statement-at-a-time on the session thread).
    Requests carry a client-chosen [rq] echoed in the {!Reply}, which is
    what makes pipelining work: replies to [Run] jobs may arrive out of
    order. *)

open Tavcc_cc

val protocol_version : int

val max_payload : int
(** Frames advertising more than this many payload bytes (1 MiB) are
    rejected as corrupt — a garbage length must not stall the reader
    waiting for gigabytes that will never come. *)

(** {1 Messages} *)

type req =
  | Hello of { version : int; digest : string; client : string }
      (** [digest] identifies the workload schema the client generates
          jobs against; the server refuses a mismatch (oids would not
          resolve).  Empty string skips the check. *)
  | Run of { rq : int; actions : Exec.action list }
  | Begin of { rq : int }
  | Stmt of { rq : int; action : Exec.action }
  | Commit of { rq : int }
  | Rollback of { rq : int }
  | Ping of { rq : int }
  | Quit

type status =
  | Committed of { restarts : int }
  | Aborted of string  (** interactive abort; the client may retry *)
  | Rejected  (** admission control: submission queue at capacity *)
  | Failed of string
  | Done  (** ack for Begin / Stmt / Rollback *)

type resp =
  | Welcome of { version : int; scheme : string; digest : string; banner : string }
  | Reply of { rq : int; status : status; latency_us : int }
  | Pong of { rq : int }
  | Err of string  (** protocol-level failure; the server closes after *)
  | Bye

(** {1 Payload codecs}

    Total: [decode_*] never raises, and accepts exactly the strings
    [encode_*] produces.  Trailing garbage is an error (a frame is one
    message), and so is any int or float form the encoders never write:
    a ['+'] sign, ["-0"], a leading zero, a radix prefix, an underscore,
    uppercase hex.  A bad tag is named in the error; a refused token
    gives the byte offset where decoding stopped. *)

val encode_req : req -> string
val decode_req : string -> (req, string) result
val encode_resp : resp -> string
val decode_resp : string -> (resp, string) result

val pp_req : Format.formatter -> req -> unit
val pp_resp : Format.formatter -> resp -> unit

(** {1 Framing} *)

val frame : string -> string
(** Length + checksum + payload: {!Tavcc_recovery.Codec.frame}. *)

val unframe : string -> pos:int -> [ `Frame of string * int | `Incomplete | `Corrupt of string ]
(** [unframe buf ~pos] inspects the bytes from [pos]: [`Frame (payload,
    next_pos)] on a whole valid frame, [`Incomplete] when more bytes may
    complete it, [`Corrupt] when no continuation can (bad hex, oversized
    length, checksum mismatch).  The same scanner as {!Io.read_frame}.
    @raise Invalid_argument if [pos] is negative *)

(** {1 Addresses} *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:/path/sock"] or ["tcp:host:port"]. *)

val addr_to_string : addr -> string
val sockaddr_of_addr : addr -> Unix.sockaddr

(** {1 Blocking frame I/O} *)

module Io : sig
  type t

  val of_fd : Unix.file_descr -> t

  val read_frame : t -> (string, [ `Eof | `Timeout | `Corrupt of string ]) result
  (** Blocks for one whole frame.  A clean EOF at a frame boundary is
      [`Eof]; EOF mid-frame is [`Corrupt "truncated frame"]; a reset
      connection reads as [`Eof]; a read past the socket's
      [SO_RCVTIMEO] is [`Timeout].

      The frame is checked in place in the connection's one receive
      buffer and only its payload is copied out, so a frame costs
      O(its size).  The buffer grows to the largest frame seen (at most
      [max_payload + 16] bytes) and is reused. *)

  val write : t -> string -> (unit, string) result
  (** Frames the payload and writes it whole. *)

  val fd : t -> Unix.file_descr
end

(** {1 Workload digest}

    [Tavcc_sim.Workload.populate] is deterministic: same schema, same
    [per_class], same oids.  The digest pins those inputs so a blast
    client can generate jobs locally that are valid on the server. *)

val workload_digest :
  slices:int -> work:int -> readers:int -> instances:int -> string
