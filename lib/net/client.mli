(** Blocking client for the oosim wire protocol.

    One connection, one thread: {!call} is the synchronous
    request/response helper, {!send}/{!recv} the split pair for
    pipelining ([Run] replies may arrive out of request order — match on
    the echoed [rq]). *)

open Tavcc_cc

type t

val connect :
  ?digest:string ->
  ?client:string ->
  ?recv_timeout_s:float ->
  addr:Wire.addr ->
  unit ->
  (t * [ `Welcome of string * string ], string) result
(** Dials, performs the Hello/Welcome handshake, and returns the
    server's scheme name and banner.  [recv_timeout_s] arms
    [SO_RCVTIMEO]: a handshake or {!recv} past it returns
    [Error "receive timed out"] instead of hanging. *)

val send : t -> Wire.req -> (unit, string) result

val recv : t -> (Wire.resp, string) result
(** Blocks for the next response frame. *)

val call : t -> Wire.req -> (Wire.resp, string) result
(** [send] then [recv]; only correct when nothing else is in flight. *)

val run : t -> rq:int -> Exec.action list -> (unit, string) result
(** [send (Run _)] — pair with {!recv} for pipelining. *)

val quit : t -> unit
(** Best-effort [Quit], then close. *)

val close : t -> unit
(** Abrupt close, no goodbye — what a crashing client looks like to the
    server. *)
