open Tavcc_model
open Tavcc_cc

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

(* --- payload encoding: the chaos-codec token conventions --- *)

let enc_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ','

let enc_str b s =
  enc_int b (String.length s);
  Buffer.add_string b s

let enc_value b = function
  | Value.Vint n ->
      Buffer.add_char b 'i';
      enc_int b n
  | Value.Vbool v -> Buffer.add_string b (if v then "b1" else "b0")
  | Value.Vstring s ->
      Buffer.add_char b 's';
      enc_str b s
  | Value.Vfloat f ->
      Buffer.add_char b 'f';
      Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float f))
  | Value.Vref oid ->
      Buffer.add_char b 'r';
      enc_int b (Oid.to_int oid)
  | Value.Vnull -> Buffer.add_char b 'n'

let enc_values b vs =
  enc_int b (List.length vs);
  List.iter (enc_value b) vs

let enc_bool b v = Buffer.add_char b (if v then '1' else '0')

let enc_opt_int b = function
  | None -> Buffer.add_char b 'n'
  | Some n ->
      Buffer.add_char b 'v';
      enc_int b n

let enc_action b = function
  | Exec.Call (oid, m, args) ->
      Buffer.add_char b 'c';
      enc_int b (Oid.to_int oid);
      enc_str b (Name.Method.to_string m);
      enc_values b args
  | Exec.Call_some { root; targets; meth; args } ->
      Buffer.add_char b 'm';
      enc_str b (Name.Class.to_string root);
      enc_int b (List.length targets);
      List.iter (fun o -> enc_int b (Oid.to_int o)) targets;
      enc_str b (Name.Method.to_string meth);
      enc_values b args
  | Exec.Call_extent { cls; deep; meth; args } ->
      Buffer.add_char b 'e';
      enc_str b (Name.Class.to_string cls);
      enc_bool b deep;
      enc_str b (Name.Method.to_string meth);
      enc_values b args
  | Exec.Call_range { cls; deep; pred; meth; args } ->
      Buffer.add_char b 'g';
      enc_str b (Name.Class.to_string cls);
      enc_bool b deep;
      enc_str b (Name.Field.to_string pred.Tavcc_lock.Pred.field);
      enc_opt_int b pred.Tavcc_lock.Pred.lo;
      enc_opt_int b pred.Tavcc_lock.Pred.hi;
      enc_str b (Name.Method.to_string meth);
      enc_values b args

let enc_actions b acts =
  enc_int b (List.length acts);
  List.iter (enc_action b) acts

let encode_req r =
  let b = Buffer.create 64 in
  (match r with
  | Hello { version; digest; client } ->
      Buffer.add_char b 'H';
      enc_int b version;
      enc_str b digest;
      enc_str b client
  | Run { rq; actions } ->
      Buffer.add_char b 'T';
      enc_int b rq;
      enc_actions b actions
  | Begin { rq } ->
      Buffer.add_char b 'B';
      enc_int b rq
  | Stmt { rq; action } ->
      Buffer.add_char b 'S';
      enc_int b rq;
      enc_action b action
  | Commit { rq } ->
      Buffer.add_char b 'C';
      enc_int b rq
  | Rollback { rq } ->
      Buffer.add_char b 'A';
      enc_int b rq
  | Ping { rq } ->
      Buffer.add_char b 'P';
      enc_int b rq
  | Quit -> Buffer.add_char b 'Q');
  Buffer.contents b

let encode_status b = function
  | Committed { restarts } ->
      Buffer.add_char b 'c';
      enc_int b restarts
  | Aborted msg ->
      Buffer.add_char b 'a';
      enc_str b msg
  | Rejected -> Buffer.add_char b 'j'
  | Failed msg ->
      Buffer.add_char b 'f';
      enc_str b msg
  | Done -> Buffer.add_char b 'd'

let encode_resp r =
  let b = Buffer.create 64 in
  (match r with
  | Welcome { version; scheme; digest; banner } ->
      Buffer.add_char b 'W';
      enc_int b version;
      enc_str b scheme;
      enc_str b digest;
      enc_str b banner
  | Reply { rq; status; latency_us } ->
      Buffer.add_char b 'R';
      enc_int b rq;
      enc_int b latency_us;
      encode_status b status
  | Pong { rq } ->
      Buffer.add_char b 'O';
      enc_int b rq
  | Err msg ->
      Buffer.add_char b 'E';
      enc_str b msg
  | Bye -> Buffer.add_char b 'Y');
  Buffer.contents b

(* --- payload decoding: total, longest-error-message-wins --- *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let take c n =
  if n < 0 || c.pos + n > String.length c.s then raise (Bad "short payload");
  let r = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  r

let dec_char c = (take c 1).[0]

let dec_int c =
  let start = c.pos in
  let rec find i =
    if i >= String.length c.s then raise (Bad "unterminated int")
    else if c.s.[i] = ',' then i
    else find (i + 1)
  in
  let stop = find start in
  c.pos <- stop + 1;
  match int_of_string_opt (String.sub c.s start (stop - start)) with
  | Some n -> n
  | None -> raise (Bad "malformed int")

let dec_str c = take c (dec_int c)

let dec_value c =
  match dec_char c with
  | 'i' -> Value.Vint (dec_int c)
  | 'b' -> (
      match dec_char c with
      | '0' -> Value.Vbool false
      | '1' -> Value.Vbool true
      | _ -> raise (Bad "bad bool"))
  | 's' -> Value.Vstring (dec_str c)
  | 'f' -> (
      let hex = take c 16 in
      match Int64.of_string_opt ("0x" ^ hex) with
      | Some bits -> Value.Vfloat (Int64.float_of_bits bits)
      | None -> raise (Bad "bad float bits"))
  | 'r' -> Value.Vref (Oid.of_int (dec_int c))
  | 'n' -> Value.Vnull
  | _ -> raise (Bad "bad value tag")

let dec_list c dec =
  let n = dec_int c in
  if n < 0 || n > max_payload then raise (Bad "bad list length");
  List.init n (fun _ -> dec c)

let dec_values c = dec_list c dec_value

let dec_bool c =
  match dec_char c with
  | '0' -> false
  | '1' -> true
  | _ -> raise (Bad "bad bool flag")

let dec_opt_int c =
  match dec_char c with
  | 'n' -> None
  | 'v' -> Some (dec_int c)
  | _ -> raise (Bad "bad option tag")

let dec_action c =
  match dec_char c with
  | 'c' ->
      let oid = Oid.of_int (dec_int c) in
      let m = Name.Method.of_string (dec_str c) in
      Exec.Call (oid, m, dec_values c)
  | 'm' ->
      let root = Name.Class.of_string (dec_str c) in
      let targets = dec_list c (fun c -> Oid.of_int (dec_int c)) in
      let meth = Name.Method.of_string (dec_str c) in
      Exec.Call_some { root; targets; meth; args = dec_values c }
  | 'e' ->
      let cls = Name.Class.of_string (dec_str c) in
      let deep = dec_bool c in
      let meth = Name.Method.of_string (dec_str c) in
      Exec.Call_extent { cls; deep; meth; args = dec_values c }
  | 'g' ->
      let cls = Name.Class.of_string (dec_str c) in
      let deep = dec_bool c in
      let field = Name.Field.of_string (dec_str c) in
      let lo = dec_opt_int c in
      let hi = dec_opt_int c in
      let meth = Name.Method.of_string (dec_str c) in
      Exec.Call_range
        { cls; deep; pred = { Tavcc_lock.Pred.field; lo; hi }; meth; args = dec_values c }
  | _ -> raise (Bad "bad action tag")

let dec_actions c = dec_list c dec_action

let finish c v =
  if c.pos <> String.length c.s then raise (Bad "trailing bytes");
  v

let decode_req s =
  let c = { s; pos = 0 } in
  match
    finish c
      (match dec_char c with
      | 'H' ->
          let version = dec_int c in
          let digest = dec_str c in
          Hello { version; digest; client = dec_str c }
      | 'T' ->
          let rq = dec_int c in
          Run { rq; actions = dec_actions c }
      | 'B' -> Begin { rq = dec_int c }
      | 'S' ->
          let rq = dec_int c in
          Stmt { rq; action = dec_action c }
      | 'C' -> Commit { rq = dec_int c }
      | 'A' -> Rollback { rq = dec_int c }
      | 'P' -> Ping { rq = dec_int c }
      | 'Q' -> Quit
      | _ -> raise (Bad "bad request tag"))
  with
  | r -> Ok r
  | exception Bad msg -> Error msg

let dec_status c =
  match dec_char c with
  | 'c' -> Committed { restarts = dec_int c }
  | 'a' -> Aborted (dec_str c)
  | 'j' -> Rejected
  | 'f' -> Failed (dec_str c)
  | 'd' -> Done
  | _ -> raise (Bad "bad status tag")

let decode_resp s =
  let c = { s; pos = 0 } in
  match
    finish c
      (match dec_char c with
      | 'W' ->
          let version = dec_int c in
          let scheme = dec_str c in
          let digest = dec_str c in
          Welcome { version; scheme; digest; banner = dec_str c }
      | 'R' ->
          let rq = dec_int c in
          let latency_us = dec_int c in
          Reply { rq; latency_us; status = dec_status c }
      | 'O' -> Pong { rq = dec_int c }
      | 'E' -> Err (dec_str c)
      | 'Y' -> Bye
      | _ -> raise (Bad "bad response tag"))
  with
  | r -> Ok r
  | exception Bad msg -> Error msg

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

(* --- framing: the chaos codec's envelope --- *)

let frame = Tavcc_chaos.Codec.frame

(* The scanner [unframe] and [Io.read_frame] share. *)
let scan b ~pos ~stop = Tavcc_chaos.Codec.scan ~max:max_payload b ~pos ~stop

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
