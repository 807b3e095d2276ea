open Tavcc_lang
open Tavcc_cc
module Par_engine = Tavcc_par.Par_engine
module Metrics = Tavcc_obs.Metrics

type config = {
  addr : Wire.addr;
  scheme : Scheme.t;
  store : Ast.body Tavcc_model.Store.t;
  digest : string;
  banner : string;
  engine : Par_engine.config;
  queue_capacity : int;
  max_sessions : int;
  drain_grace_s : float;
}

let default_config ~addr ~scheme ~store =
  {
    addr;
    scheme;
    store;
    digest = "";
    banner = "tavcc oosim";
    engine = Par_engine.default_config;
    queue_capacity = 256;
    max_sessions = 64;
    drain_grace_s = 5.0;
  }

(* Per-session labelled metric series exist for at most this many
   distinct clients (label cardinality guard). *)
let session_series_cap = 16

(* Server-side registry handles; None when the engine config carries no
   metrics registry. *)
type net_metrics = {
  nm_registry : Metrics.t;
  nm_connects : Metrics.counter;
  nm_sessions : Metrics.gauge;
  nm_requests : Metrics.counter;
  nm_interactive : Metrics.counter;
  nm_rejected : Metrics.counter;
  nm_refused : Metrics.counter;
  nm_protocol_errors : Metrics.counter;
  nm_replies : Metrics.counter;
  nm_req_us : Metrics.histogram;
}

type session = {
  ss_id : int;
  ss_fd : Unix.file_descr;
  ss_io : Wire.Io.t;
  ss_wmu : Mutex.t;  (** guards the write side, [ss_alive] and [ss_outstanding] *)
  mutable ss_alive : bool;
  mutable ss_outstanding : int;  (** submitted Run jobs whose Reply is pending *)
  mutable ss_itxn : Par_engine.itxn option;
  mutable ss_client : string;
}

type t = {
  cfg : config;
  lfd : Unix.file_descr;
  bound : Wire.addr;
  svc : Par_engine.service;
  nm : net_metrics option;
  stop : bool Atomic.t;
  wake_r : Unix.file_descr; (* self-pipe: [request_stop]'s one byte wakes the accept loop *)
  wake_w : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  smu : Mutex.t;
  mutable sessions : (session * Thread.t) list;
  next_session : int Atomic.t;
  series_mu : Mutex.t;
  series_seen : (string, unit) Hashtbl.t;
}

let tick t f = match t.nm with None -> () | Some nm -> f nm

(* --- per-session write side ------------------------------------------- *)

let send ss resp =
  Mutex.lock ss.ss_wmu;
  (if ss.ss_alive then
     match Wire.Io.write ss.ss_io (Wire.encode_resp resp) with
     | Ok () -> ()
     | Error _ -> ss.ss_alive <- false);
  Mutex.unlock ss.ss_wmu

let session_series t ss name =
  (* only the first [session_series_cap] distinct client names get their
     own series *)
  match t.nm with
  | None -> None
  | Some nm ->
      Mutex.lock t.series_mu;
      let admit =
        Hashtbl.mem t.series_seen ss.ss_client
        || Hashtbl.length t.series_seen < session_series_cap
      in
      if admit then Hashtbl.replace t.series_seen ss.ss_client ();
      Mutex.unlock t.series_mu;
      if admit then
        Some (Metrics.counter nm.nm_registry (Metrics.labelled name [ ("client", ss.ss_client) ]))
      else None

(* --- request dispatch -------------------------------------------------- *)

let status_of_job = function
  | Par_engine.Job_committed { restarts } -> Wire.Committed { restarts }
  | Par_engine.Job_failed msg -> Wire.Failed msg

let handle_run t ss ~session_requests ~rq ~actions =
  tick t (fun nm -> Metrics.incr nm.nm_requests);
  Option.iter Metrics.incr session_requests;
  let t0 = Unix.gettimeofday () in
  Mutex.lock ss.ss_wmu;
  ss.ss_outstanding <- ss.ss_outstanding + 1;
  Mutex.unlock ss.ss_wmu;
  let finish status =
    let latency_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    tick t (fun nm ->
        Metrics.observe nm.nm_req_us latency_us;
        Metrics.incr nm.nm_replies);
    send ss (Wire.Reply { rq; status; latency_us });
    Mutex.lock ss.ss_wmu;
    ss.ss_outstanding <- ss.ss_outstanding - 1;
    Mutex.unlock ss.ss_wmu
  in
  match Par_engine.submit t.svc ~actions ~k:(fun st -> finish (status_of_job st)) with
  | Par_engine.Accepted -> ()
  | Par_engine.Saturated ->
      tick t (fun nm -> Metrics.incr nm.nm_rejected);
      finish Wire.Rejected
  | Par_engine.Closed ->
      tick t (fun nm -> Metrics.incr nm.nm_rejected);
      finish (Wire.Failed "server is draining")

let handle_interactive t ss ~rq req =
  tick t (fun nm -> Metrics.incr nm.nm_interactive);
  let t0 = Unix.gettimeofday () in
  let reply status =
    let latency_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    tick t (fun nm ->
        Metrics.observe nm.nm_req_us latency_us;
        Metrics.incr nm.nm_replies);
    send ss (Wire.Reply { rq; status; latency_us })
  in
  match (req, ss.ss_itxn) with
  | `Begin, Some _ -> reply (Wire.Failed "transaction already open")
  | `Begin, None -> (
      match Par_engine.itxn_begin t.svc with
      | Ok it ->
          ss.ss_itxn <- Some it;
          reply Wire.Done
      | Error msg -> reply (Wire.Failed msg))
  | (`Stmt _ | `Commit | `Rollback), None -> reply (Wire.Failed "no open transaction")
  | `Stmt action, Some it -> (
      match Par_engine.itxn_perform it action with
      | Ok () -> reply Wire.Done
      | Error msg ->
          ss.ss_itxn <- None;
          reply (Wire.Aborted msg))
  | `Commit, Some it -> (
      ss.ss_itxn <- None;
      match Par_engine.itxn_commit it with
      | Ok () -> reply (Wire.Committed { restarts = 0 })
      | Error msg -> reply (Wire.Aborted msg))
  | `Rollback, Some it ->
      ss.ss_itxn <- None;
      Par_engine.itxn_rollback it;
      reply Wire.Done

(* --- session lifecycle ------------------------------------------------- *)

let protocol_error t ss msg =
  tick t (fun nm -> Metrics.incr nm.nm_protocol_errors);
  send ss (Wire.Err msg)

let handshake t ss =
  match Wire.Io.read_frame ss.ss_io with
  | Error (`Eof | `Timeout) -> false
  | Error (`Corrupt msg) ->
      protocol_error t ss ("bad frame: " ^ msg);
      false
  | Ok payload -> (
      match Wire.decode_req payload with
      | Error msg ->
          protocol_error t ss ("bad request: " ^ msg);
          false
      | Ok (Wire.Hello { version; digest; client }) ->
          if version <> Wire.protocol_version then begin
            protocol_error t ss
              (Printf.sprintf "protocol version mismatch: server %d, client %d"
                 Wire.protocol_version version);
            false
          end
          else if t.cfg.digest <> "" && digest <> "" && digest <> t.cfg.digest then begin
            protocol_error t ss "workload digest mismatch";
            false
          end
          else begin
            ss.ss_client <- (if client = "" then Printf.sprintf "session-%d" ss.ss_id else client);
            send ss
              (Wire.Welcome
                 {
                   version = Wire.protocol_version;
                   scheme = t.cfg.scheme.Scheme.name;
                   digest = t.cfg.digest;
                   banner = t.cfg.banner;
                 });
            ss.ss_alive
          end
      | Ok _ ->
          protocol_error t ss "expected Hello";
          false)

let session_loop t ss =
  let session_requests = session_series t ss "net.session.requests" in
  let rec loop () =
    match Wire.Io.read_frame ss.ss_io with
    | Error (`Eof | `Timeout) -> ()
    | Error (`Corrupt msg) -> protocol_error t ss ("bad frame: " ^ msg)
    | Ok payload -> (
        match Wire.decode_req payload with
        | Error msg -> protocol_error t ss ("bad request: " ^ msg)
        | Ok req -> (
            match req with
            | Wire.Hello _ -> protocol_error t ss "unexpected Hello"
            | Wire.Run { rq; actions } ->
                handle_run t ss ~session_requests ~rq ~actions;
                loop ()
            | Wire.Begin { rq } ->
                handle_interactive t ss ~rq `Begin;
                loop ()
            | Wire.Stmt { rq; action } ->
                handle_interactive t ss ~rq (`Stmt action);
                loop ()
            | Wire.Commit { rq } ->
                handle_interactive t ss ~rq `Commit;
                loop ()
            | Wire.Rollback { rq } ->
                handle_interactive t ss ~rq `Rollback;
                loop ()
            | Wire.Ping { rq } ->
                send ss (Wire.Pong { rq });
                loop ()
            | Wire.Quit -> send ss Wire.Bye))
  in
  loop ()

let session_teardown t ss =
  (* the teardown guarantee: a dropped connection must not strand its
     transaction's locks — waiters behind it would hang forever *)
  (match ss.ss_itxn with
  | Some it ->
      ss.ss_itxn <- None;
      Par_engine.itxn_rollback it
  | None -> ());
  (* give in-flight Run replies their [drain_grace_s] to land; worker
     callbacks still write to this socket until outstanding hits 0 *)
  let deadline = Unix.gettimeofday () +. t.cfg.drain_grace_s in
  let rec wait_replies () =
    Mutex.lock ss.ss_wmu;
    let n = ss.ss_outstanding in
    Mutex.unlock ss.ss_wmu;
    if n > 0 && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.002;
      wait_replies ()
    end
  in
  wait_replies ();
  Mutex.lock ss.ss_wmu;
  ss.ss_alive <- false;
  Mutex.unlock ss.ss_wmu;
  (try Unix.close ss.ss_fd with Unix.Unix_error _ -> ());
  Mutex.lock t.smu;
  t.sessions <- List.filter (fun (s, _) -> s.ss_id <> ss.ss_id) t.sessions;
  let n = List.length t.sessions in
  Mutex.unlock t.smu;
  tick t (fun nm -> Metrics.set nm.nm_sessions n)

let session_main t ss () =
  (try if handshake t ss then session_loop t ss with _ -> ());
  session_teardown t ss

(* --- accept loop -------------------------------------------------------- *)

let accept_one t fd =
  tick t (fun nm -> Metrics.incr nm.nm_connects);
  Mutex.lock t.smu;
  let n = List.length t.sessions in
  Mutex.unlock t.smu;
  if n >= t.cfg.max_sessions then begin
    tick t (fun nm -> Metrics.incr nm.nm_refused);
    let io = Wire.Io.of_fd fd in
    ignore (Wire.Io.write io (Wire.encode_resp (Wire.Err "server full")));
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    let ss =
      {
        ss_id = Atomic.fetch_and_add t.next_session 1;
        ss_fd = fd;
        ss_io = Wire.Io.of_fd fd;
        ss_wmu = Mutex.create ();
        ss_alive = true;
        ss_outstanding = 0;
        ss_itxn = None;
        ss_client = "";
      }
    in
    Mutex.lock t.smu;
    let th = Thread.create (session_main t ss) () in
    t.sessions <- (ss, th) :: t.sessions;
    let n = List.length t.sessions in
    Mutex.unlock t.smu;
    tick t (fun nm -> Metrics.set nm.nm_sessions n)
  end

(* Blocks in [select] on the listener and the self-pipe, with no
   timeout.  The loop ends when [request_stop]'s byte arrives, not when
   it first sees the flag: the byte is the last thing [request_stop]
   writes, so once the loop is gone [wait] may close the pipe. *)
let accept_loop t () =
  let rec go () =
    match Unix.select [ t.lfd; t.wake_r ] [] [] (-1.0) with
    | r, _, _ when List.mem t.wake_r r -> ()
    | _ :: _, _, _ ->
        (if not (Atomic.get t.stop) then
           match Unix.accept t.lfd with
           | fd, _ -> accept_one t fd
           | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ());
        go ()
    | [], _, _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* --- lifecycle ---------------------------------------------------------- *)

let start cfg =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let domain, saddr =
    match cfg.addr with
    | Wire.Unix_sock path ->
        (try if Sys.file_exists path then Unix.unlink path with Sys_error _ -> ());
        (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Wire.Tcp _ -> (Unix.PF_INET, Wire.sockaddr_of_addr cfg.addr)
  in
  let lfd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match cfg.addr with
  | Wire.Tcp _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true
  | Wire.Unix_sock _ -> ());
  Unix.bind lfd saddr;
  Unix.listen lfd 64;
  let bound =
    match (cfg.addr, Unix.getsockname lfd) with
    | Wire.Tcp (host, 0), Unix.ADDR_INET (_, port) -> Wire.Tcp (host, port)
    | addr, _ -> addr
  in
  let nm =
    Option.map
      (fun m ->
        {
          nm_registry = m;
          nm_connects = Metrics.counter m "net.connects";
          nm_sessions = Metrics.gauge m "net.sessions";
          nm_requests = Metrics.counter m "net.requests";
          nm_interactive = Metrics.counter m "net.interactive";
          nm_rejected = Metrics.counter m "net.rejected";
          nm_refused = Metrics.counter m "net.refused";
          nm_protocol_errors = Metrics.counter m "net.protocol_errors";
          nm_replies = Metrics.counter m "net.replies";
          nm_req_us = Metrics.histogram m "net.req_us";
        })
      cfg.engine.Par_engine.metrics
  in
  let svc =
    Par_engine.service_start ~config:cfg.engine ~queue_capacity:cfg.queue_capacity
      ~scheme:cfg.scheme ~store:cfg.store ()
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      lfd;
      bound;
      svc;
      nm;
      stop = Atomic.make false;
      wake_r;
      wake_w;
      accept_thread = None;
      smu = Mutex.create ();
      sessions = [];
      next_session = Atomic.make 1;
      series_mu = Mutex.create ();
      series_seen = Hashtbl.create 8;
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let bound_addr t = t.bound
(* Only the first call writes, so no call after [wait] touches the pipe.
   The write cannot block: the pipe is non-blocking and holds at most
   this one byte, and a failure (EAGAIN included) is ignored. *)
let request_stop t =
  if not (Atomic.exchange t.stop true) then
    try ignore (Unix.single_write_substring t.wake_w "x" 0 1) with Unix.Unix_error _ -> ()

let session_count t =
  Mutex.lock t.smu;
  let n = List.length t.sessions in
  Mutex.unlock t.smu;
  n

let wait t =
  Option.iter Thread.join t.accept_thread;
  t.accept_thread <- None;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.lfd; t.wake_r; t.wake_w ];
  (match t.cfg.addr with
  | Wire.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Wire.Tcp _ -> ());
  (* nudge sessions parked in a blocking read: a receive shutdown reads
     as EOF, which routes each one through its own teardown (rollback,
     reply drain, close) *)
  Mutex.lock t.smu;
  let live = t.sessions in
  Mutex.unlock t.smu;
  List.iter
    (fun (ss, _) ->
      send ss Wire.Bye;
      try Unix.shutdown ss.ss_fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    live;
  List.iter (fun (_, th) -> Thread.join th) live;
  Par_engine.service_drain t.svc;
  Par_engine.service_stop t.svc
