open Tavcc_model
open Tavcc_cc
module Codec = Tavcc_recovery.Codec
module Tok = Codec.Tok

let protocol_version = 2
let max_payload = 1 lsl 20

type req =
  | Hello of { version : int; digest : string; client : string }
  | Run of { rq : int; actions : Exec.action list }
  | Begin of { rq : int }
  | Stmt of { rq : int; action : Exec.action }
  | Commit of { rq : int }
  | Rollback of { rq : int }
  | Ping of { rq : int }
  | Quit

type status =
  | Committed of { restarts : int }
  | Aborted of string
  | Rejected
  | Failed of string
  | Done

type resp =
  | Welcome of { version : int; scheme : string; digest : string; banner : string }
  | Reply of { rq : int; status : status; latency_us : int }
  | Pong of { rq : int }
  | Err of string
  | Bye

(* --- payload encoding: one-byte tags and Codec.Tok tokens --- *)

let enc_values b vs =
  Tok.add_int b (List.length vs);
  List.iter (Tok.add_value b) vs

let enc_bool b v = Buffer.add_char b (if v then '1' else '0')

let enc_opt_int b = function
  | None -> Buffer.add_char b 'n'
  | Some n ->
      Buffer.add_char b 'v';
      Tok.add_int b n

let enc_action b = function
  | Exec.Call (oid, m, args) ->
      Buffer.add_char b 'c';
      Tok.add_int b (Oid.to_int oid);
      Tok.add_str b (Name.Method.to_string m);
      enc_values b args
  | Exec.Call_some { root; targets; meth; args } ->
      Buffer.add_char b 'm';
      Tok.add_str b (Name.Class.to_string root);
      Tok.add_int b (List.length targets);
      List.iter (fun o -> Tok.add_int b (Oid.to_int o)) targets;
      Tok.add_str b (Name.Method.to_string meth);
      enc_values b args
  | Exec.Call_extent { cls; deep; meth; args } ->
      Buffer.add_char b 'e';
      Tok.add_str b (Name.Class.to_string cls);
      enc_bool b deep;
      Tok.add_str b (Name.Method.to_string meth);
      enc_values b args
  | Exec.Call_range { cls; deep; pred; meth; args } ->
      Buffer.add_char b 'g';
      Tok.add_str b (Name.Class.to_string cls);
      enc_bool b deep;
      Tok.add_str b (Name.Field.to_string pred.Tavcc_lock.Pred.field);
      enc_opt_int b pred.Tavcc_lock.Pred.lo;
      enc_opt_int b pred.Tavcc_lock.Pred.hi;
      Tok.add_str b (Name.Method.to_string meth);
      enc_values b args

let enc_actions b acts =
  Tok.add_int b (List.length acts);
  List.iter (enc_action b) acts

let encode_req r =
  let b = Buffer.create 64 in
  (match r with
  | Hello { version; digest; client } ->
      Buffer.add_char b 'H';
      Tok.add_int b version;
      Tok.add_str b digest;
      Tok.add_str b client
  | Run { rq; actions } ->
      Buffer.add_char b 'T';
      Tok.add_int b rq;
      enc_actions b actions
  | Begin { rq } ->
      Buffer.add_char b 'B';
      Tok.add_int b rq
  | Stmt { rq; action } ->
      Buffer.add_char b 'S';
      Tok.add_int b rq;
      enc_action b action
  | Commit { rq } ->
      Buffer.add_char b 'C';
      Tok.add_int b rq
  | Rollback { rq } ->
      Buffer.add_char b 'A';
      Tok.add_int b rq
  | Ping { rq } ->
      Buffer.add_char b 'P';
      Tok.add_int b rq
  | Quit -> Buffer.add_char b 'Q');
  Buffer.contents b

let encode_status b = function
  | Committed { restarts } ->
      Buffer.add_char b 'c';
      Tok.add_int b restarts
  | Aborted msg ->
      Buffer.add_char b 'a';
      Tok.add_str b msg
  | Rejected -> Buffer.add_char b 'j'
  | Failed msg ->
      Buffer.add_char b 'f';
      Tok.add_str b msg
  | Done -> Buffer.add_char b 'd'

let encode_resp r =
  let b = Buffer.create 64 in
  (match r with
  | Welcome { version; scheme; digest; banner } ->
      Buffer.add_char b 'W';
      Tok.add_int b version;
      Tok.add_str b scheme;
      Tok.add_str b digest;
      Tok.add_str b banner
  | Reply { rq; status; latency_us } ->
      Buffer.add_char b 'R';
      Tok.add_int b rq;
      Tok.add_int b latency_us;
      encode_status b status
  | Pong { rq } ->
      Buffer.add_char b 'O';
      Tok.add_int b rq
  | Err msg ->
      Buffer.add_char b 'E';
      Tok.add_str b msg
  | Bye -> Buffer.add_char b 'Y');
  Buffer.contents b

(* --- payload decoding: one Codec.Tok walker per payload --- *)

exception Bad of string

let dec_list w dec =
  let n = Tok.int w in
  if n < 0 || n > max_payload then raise (Bad "bad list length");
  List.init n (fun _ -> dec w)

let dec_values w = dec_list w Tok.value

let dec_opt_int w =
  match Tok.char w with
  | 'n' -> None
  | 'v' -> Some (Tok.int w)
  | _ -> raise (Bad "bad option tag")

let dec_action w =
  match Tok.char w with
  | 'c' ->
      let oid = Oid.of_int (Tok.int w) in
      let m = Name.Method.of_string (Tok.str w) in
      Exec.Call (oid, m, dec_values w)
  | 'm' ->
      let root = Name.Class.of_string (Tok.str w) in
      let targets = dec_list w (fun w -> Oid.of_int (Tok.int w)) in
      let meth = Name.Method.of_string (Tok.str w) in
      Exec.Call_some { root; targets; meth; args = dec_values w }
  | 'e' ->
      let cls = Name.Class.of_string (Tok.str w) in
      let deep = Tok.bool w in
      let meth = Name.Method.of_string (Tok.str w) in
      Exec.Call_extent { cls; deep; meth; args = dec_values w }
  | 'g' ->
      let cls = Name.Class.of_string (Tok.str w) in
      let deep = Tok.bool w in
      let field = Name.Field.of_string (Tok.str w) in
      let lo = dec_opt_int w in
      let hi = dec_opt_int w in
      let meth = Name.Method.of_string (Tok.str w) in
      Exec.Call_range
        { cls; deep; pred = { Tavcc_lock.Pred.field; lo; hi }; meth; args = dec_values w }
  | _ -> raise (Bad "bad action tag")

let dec_actions w = dec_list w dec_action

(* One message from the whole of [s]: a bad tag keeps its own message,
   a token the walker refuses says where decoding stopped. *)
let decode dec s =
  let w = Tok.walker s ~pos:0 ~stop:(String.length s) in
  match dec w with
  | m -> if Tok.at_end w then Ok m else Error "trailing bytes"
  | exception Bad msg -> Error msg
  | exception Tok.Malformed -> Error (Printf.sprintf "malformed token at byte %d" (Tok.pos w))

let decode_req =
  decode (fun w ->
      match Tok.char w with
      | 'H' ->
          let version = Tok.int w in
          let digest = Tok.str w in
          Hello { version; digest; client = Tok.str w }
      | 'T' ->
          let rq = Tok.int w in
          Run { rq; actions = dec_actions w }
      | 'B' -> Begin { rq = Tok.int w }
      | 'S' ->
          let rq = Tok.int w in
          Stmt { rq; action = dec_action w }
      | 'C' -> Commit { rq = Tok.int w }
      | 'A' -> Rollback { rq = Tok.int w }
      | 'P' -> Ping { rq = Tok.int w }
      | 'Q' -> Quit
      | _ -> raise (Bad "bad request tag"))

let dec_status w =
  match Tok.char w with
  | 'c' -> Committed { restarts = Tok.int w }
  | 'a' -> Aborted (Tok.str w)
  | 'j' -> Rejected
  | 'f' -> Failed (Tok.str w)
  | 'd' -> Done
  | _ -> raise (Bad "bad status tag")

let decode_resp =
  decode (fun w ->
      match Tok.char w with
      | 'W' ->
          let version = Tok.int w in
          let scheme = Tok.str w in
          let digest = Tok.str w in
          Welcome { version; scheme; digest; banner = Tok.str w }
      | 'R' ->
          let rq = Tok.int w in
          let latency_us = Tok.int w in
          Reply { rq; latency_us; status = dec_status w }
      | 'O' -> Pong { rq = Tok.int w }
      | 'E' -> Err (Tok.str w)
      | 'Y' -> Bye
      | _ -> raise (Bad "bad response tag"))

let pp_req ppf = function
  | Hello { version; digest; client } ->
      Format.fprintf ppf "Hello{v%d digest=%s client=%s}" version digest client
  | Run { rq; actions } -> Format.fprintf ppf "Run{rq=%d actions=%d}" rq (List.length actions)
  | Begin { rq } -> Format.fprintf ppf "Begin{rq=%d}" rq
  | Stmt { rq; _ } -> Format.fprintf ppf "Stmt{rq=%d}" rq
  | Commit { rq } -> Format.fprintf ppf "Commit{rq=%d}" rq
  | Rollback { rq } -> Format.fprintf ppf "Rollback{rq=%d}" rq
  | Ping { rq } -> Format.fprintf ppf "Ping{rq=%d}" rq
  | Quit -> Format.pp_print_string ppf "Quit"

let pp_resp ppf = function
  | Welcome { version; scheme; _ } -> Format.fprintf ppf "Welcome{v%d %s}" version scheme
  | Reply { rq; status; latency_us } ->
      let st =
        match status with
        | Committed { restarts } -> Printf.sprintf "committed/%d" restarts
        | Aborted m -> "aborted:" ^ m
        | Rejected -> "rejected"
        | Failed m -> "failed:" ^ m
        | Done -> "done"
      in
      Format.fprintf ppf "Reply{rq=%d %s %dus}" rq st latency_us
  | Pong { rq } -> Format.fprintf ppf "Pong{rq=%d}" rq
  | Err m -> Format.fprintf ppf "Err{%s}" m
  | Bye -> Format.pp_print_string ppf "Bye"

(* --- framing: the Codec envelope --- *)

let frame = Codec.frame

(* The scanner [unframe] and [Io.read_frame] share. *)
let scan b ~pos ~stop = Codec.scan ~max:max_payload b ~pos ~stop

let unframe buf ~pos =
  match scan (Bytes.unsafe_of_string buf) ~pos ~stop:(String.length buf) with
  | `Frame (off, len) -> `Frame (String.sub buf off len, off + len)
  | (`Incomplete | `Corrupt _) as r -> r

(* --- addresses --- *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | None -> Error "address must be unix:PATH or tcp:HOST:PORT"
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "unix" when rest <> "" -> Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> Error "tcp address must be tcp:HOST:PORT"
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
              | _ -> Error "bad tcp port"))
      | _ -> Error "address must be unix:PATH or tcp:HOST:PORT")

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let sockaddr_of_addr = function
  | Unix_sock p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> raise (Invalid_argument ("cannot resolve host " ^ host)))
      in
      Unix.ADDR_INET (ip, port)

(* --- blocking frame I/O --- *)

module Io = struct
  (* One receive buffer per connection: bytes [rd, wr) are received and
     not yet consumed, the tail [wr, length) is free. *)
  type t = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable rd : int; mutable wr : int }

  let of_fd fd = { fd; buf = Bytes.create 4096; rd = 0; wr = 0 }
  let fd t = t.fd

  (* The tail is full and the frame at [rd] incomplete: move it down over
     the consumed bytes, or, if it already starts the buffer, double the
     buffer up to the largest valid frame (which always fits). *)
  let make_room t =
    let live = t.wr - t.rd in
    if t.rd > 0 then Bytes.blit t.buf t.rd t.buf 0 live
    else begin
      let bigger = Bytes.create (min (2 * Bytes.length t.buf) (max_payload + 16)) in
      Bytes.blit t.buf 0 bigger 0 live;
      t.buf <- bigger
    end;
    t.rd <- 0;
    t.wr <- live

  let read_frame t =
    let rec go () =
      match scan t.buf ~pos:t.rd ~stop:t.wr with
      | `Frame (off, len) ->
          let payload = Bytes.sub_string t.buf off len in
          if off + len = t.wr then begin
            t.rd <- 0;
            t.wr <- 0
          end
          else t.rd <- off + len;
          Ok payload
      | `Corrupt msg -> Error (`Corrupt msg)
      | `Incomplete -> (
          if t.wr = Bytes.length t.buf then make_room t;
          match Unix.read t.fd t.buf t.wr (Bytes.length t.buf - t.wr) with
          | 0 -> Error (if t.rd = t.wr then `Eof else `Corrupt "truncated frame")
          | n ->
              t.wr <- t.wr + n;
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Error `Timeout
          | exception
              Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
              Error `Eof)
    in
    go ()

  let write t payload =
    let b = Bytes.unsafe_of_string (frame payload) in
    let rec put off =
      if off >= Bytes.length b then Ok ()
      else
        match Unix.write t.fd b off (Bytes.length b - off) with
        | n -> put (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> put off
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    in
    put 0
end

let workload_digest ~slices ~work ~readers ~instances =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "tavcc-wl-1;slices=%d;work=%d;readers=%d;instances=%d" slices work
          readers instances))
