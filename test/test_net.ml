(* The network front-end: wire codec, job service, and the server itself.

   Four groups:
   - the codec: pinned literal encodings of every message shape; random
     messages round-trip canonically, every byte-prefix cut of a frame
     stays [`Incomplete] (mirroring the WAL cut property), every
     single-bit flip is caught by the checksum, and the decoders never
     raise on garbage and accept only what the encoders write; one
     [Wire.Io] reads a long stream in random chunks, in order and in
     bounded allocation per frame;
   - the job service: submit/drain bookkeeping, deterministic admission
     control (workers wedged behind a held lock fill the queue), and
     [Closed] after stop;
   - interactive-transaction teardown: a rolled-back session transaction
     must release its locks and unblock the jobs queued behind it — the
     guarantee the server leans on when a client vanishes;
   - end-to-end over a real unix socket: commits flow, an abrupt
     disconnect mid-transaction frees its locks for the next client,
     bad handshakes (version, digest, garbage bytes) are refused
     with [Err] rather than a hang or a crash, and a silent peer times
     out with an error result. *)

open Tavcc_model
open Tavcc_cc
module Wire = Tavcc_net.Wire
module Server = Tavcc_net.Server
module Client = Tavcc_net.Client
module Par_engine = Tavcc_par.Par_engine
module Workload = Tavcc_sim.Workload
module Rng = Tavcc_sim.Rng
module FN = Name.Field
module MN = Name.Method
module CN = Name.Class

(* --- random messages --------------------------------------------------- *)

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Value.Vint i) small_signed_int);
        (1, map (fun b -> Value.Vbool b) bool);
        (2, map (fun s -> Value.Vstring s) (string_size (0 -- 12)));
        (1, map (fun f -> Value.Vfloat f) float);
        (1, map (fun i -> Value.Vref (Oid.of_int (abs i))) small_signed_int);
        (1, return Value.Vnull);
      ])

let gen_action =
  QCheck.Gen.(
    let meth = map MN.of_string (string_size ~gen:(char_range 'a' 'z') (1 -- 8)) in
    let cls = map CN.of_string (string_size ~gen:(char_range 'a' 'z') (1 -- 8)) in
    let args = list_size (0 -- 3) gen_value in
    frequency
      [
        ( 4,
          map3
            (fun o m a -> Exec.Call (Oid.of_int (abs o), m, a))
            small_signed_int meth args );
        ( 1,
          map3
            (fun (c, os) m a ->
              Exec.Call_some
                {
                  root = c;
                  targets = List.map (fun i -> Oid.of_int (abs i)) os;
                  meth = m;
                  args = a;
                })
            (pair cls (list_size (0 -- 3) small_signed_int))
            meth args );
        ( 1,
          map3
            (fun (c, d) m a -> Exec.Call_extent { cls = c; deep = d; meth = m; args = a })
            (pair cls bool) meth args );
        ( 1,
          map3
            (fun (c, d) ((f, lo, hi), m) a ->
              Exec.Call_range
                {
                  cls = c;
                  deep = d;
                  pred =
                    {
                      Tavcc_lock.Pred.field = FN.of_string f;
                      lo = (if lo > 50 then Some lo else None);
                      hi = (if hi > 50 then Some hi else None);
                    };
                  meth = m;
                  args = a;
                })
            (pair cls bool)
            (pair
               (triple (string_size ~gen:(char_range 'a' 'z') (1 -- 6)) (0 -- 100) (0 -- 100))
               meth)
            args );
      ])

let gen_req =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map3
            (fun v d c -> Wire.Hello { version = v; digest = d; client = c })
            (0 -- 3) (string_size (0 -- 32)) (string_size (0 -- 12)) );
        ( 4,
          map2
            (fun rq actions -> Wire.Run { rq; actions })
            small_nat
            (list_size (0 -- 4) gen_action) );
        (1, map (fun rq -> Wire.Begin { rq }) small_nat);
        (2, map2 (fun rq action -> Wire.Stmt { rq; action }) small_nat gen_action);
        (1, map (fun rq -> Wire.Commit { rq }) small_nat);
        (1, map (fun rq -> Wire.Rollback { rq }) small_nat);
        (1, map (fun rq -> Wire.Ping { rq }) small_nat);
        (1, return Wire.Quit);
      ])

let gen_resp =
  QCheck.Gen.(
    let status =
      frequency
        [
          (3, map (fun r -> Wire.Committed { restarts = r }) small_nat);
          (2, map (fun m -> Wire.Aborted m) (string_size (0 -- 20)));
          (1, return Wire.Rejected);
          (1, map (fun m -> Wire.Failed m) (string_size (0 -- 20)));
          (1, return Wire.Done);
        ]
    in
    frequency
      [
        ( 2,
          map3
            (fun v (s, d) b -> Wire.Welcome { version = v; scheme = s; digest = d; banner = b })
            (0 -- 3)
            (pair (string_size (0 -- 8)) (string_size (0 -- 32)))
            (string_size (0 -- 16)) );
        ( 4,
          map3
            (fun rq s l -> Wire.Reply { rq; status = s; latency_us = l })
            small_nat status small_nat );
        (1, map (fun rq -> Wire.Pong { rq }) small_nat);
        (1, map (fun m -> Wire.Err m) (string_size (0 -- 20)));
        (1, return Wire.Bye);
      ])

let arb_req = QCheck.make ~print:(Format.asprintf "%a" Wire.pp_req) gen_req
let arb_resp = QCheck.make ~print:(Format.asprintf "%a" Wire.pp_resp) gen_resp

(* --- codec properties --------------------------------------------------- *)

(* Canonical byte equality dodges NaN and float-formatting pitfalls: the
   decoded message must re-encode to the exact original bytes. *)
let roundtrip_req =
  QCheck.Test.make ~count:300 ~name:"wire: req round-trips canonically" arb_req (fun m ->
      let bytes = Wire.encode_req m in
      match Wire.decode_req bytes with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok m' ->
          if Wire.encode_req m' <> bytes then
            QCheck.Test.fail_reportf "re-encode diverged";
          true)

let roundtrip_resp =
  QCheck.Test.make ~count:300 ~name:"wire: resp round-trips canonically" arb_resp
    (fun m ->
      let bytes = Wire.encode_resp m in
      match Wire.decode_resp bytes with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok m' ->
          if Wire.encode_resp m' <> bytes then
            QCheck.Test.fail_reportf "re-encode diverged";
          true)

(* Mirror of the WAL codec cut property: a strict prefix of one frame
   is never a frame and never an error — the reader must keep waiting. *)
let every_cut =
  QCheck.Test.make ~count:100 ~name:"wire: every byte-prefix cut is Incomplete" arb_req
    (fun m ->
      let framed = Wire.frame (Wire.encode_req m) in
      for cut = 0 to String.length framed - 1 do
        match Wire.unframe (String.sub framed 0 cut) ~pos:0 with
        | `Incomplete -> ()
        | `Frame _ -> QCheck.Test.fail_reportf "cut %d yielded a frame" cut
        | `Corrupt e -> QCheck.Test.fail_reportf "cut %d corrupt: %s" cut e
      done;
      (match Wire.unframe framed ~pos:0 with
      | `Frame (p, next) ->
          if p <> Wire.encode_req m then QCheck.Test.fail_reportf "payload changed";
          if next <> String.length framed then QCheck.Test.fail_reportf "bad next pos"
      | _ -> QCheck.Test.fail_reportf "whole frame did not parse");
      true)

(* Any single-bit flip lands in the length, the checksum or the payload;
   each is covered, so the reader must never surface a valid frame. *)
let bit_flip =
  QCheck.Test.make ~count:150 ~name:"wire: single-bit flips never yield a frame"
    QCheck.(pair arb_req (make QCheck.Gen.(pair small_nat small_nat)))
    (fun (m, (byte_seed, bit)) ->
      let framed = Bytes.of_string (Wire.frame (Wire.encode_req m)) in
      let i = byte_seed mod Bytes.length framed in
      let b = bit mod 8 in
      Bytes.set framed i (Char.chr (Char.code (Bytes.get framed i) lxor (1 lsl b)));
      (match Wire.unframe (Bytes.to_string framed) ~pos:0 with
      | `Corrupt _ | `Incomplete -> ()
      | `Frame _ -> QCheck.Test.fail_reportf "flip at byte %d bit %d undetected" i b);
      true)

(* Forms no encoder writes: a sign, leading zeros, a radix prefix, an
   underscore, "-0" and uppercase float hex. *)
let non_canonical =
  [
    "B+7,"; "B007,"; "B0x7,"; "B0o7,"; "B-0,"; "B1_0,";
    "S1,c5,1,m1,f3FF0000000000000"; "R3,0412,c0,"; "R3,412,c-0,";
  ]

(* A valid encoding with one byte replaced, inserted or deleted; the
   byte is often one that a lax int or hex parser would take. *)
let gen_edit =
  QCheck.Gen.(
    let* s = oneof [ map Wire.encode_req gen_req; map Wire.encode_resp gen_resp ] in
    let* i = int_bound (String.length s - 1) in
    let* c = oneof [ oneofl [ '+'; '-'; '0'; '_'; 'x'; 'o'; 'F'; ',' ]; char ] in
    let+ kind = int_bound 2 in
    let pre = String.sub s 0 i and post = String.sub s (i + 1) (String.length s - i - 1) in
    match kind with
    | 0 -> pre ^ String.make 1 c ^ post
    | 1 -> pre ^ String.make 1 c ^ String.make 1 s.[i] ^ post
    | _ -> pre ^ post)

(* Total, and exact: whatever decodes must re-encode to its input. *)
let garbage_total =
  QCheck.Test.make ~count:300 ~name:"wire: decoders are total on garbage"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         frequency
           [
             (2, string_size ~gen:char (0 -- 40));
             (3, gen_edit);
             (1, oneofl non_canonical);
           ]))
    (fun s ->
      (match Wire.decode_req s with
      | Ok m when Wire.encode_req m <> s ->
          QCheck.Test.fail_reportf "request re-encodes as %S" (Wire.encode_req m)
      | Ok _ | Error _ -> ());
      (match Wire.decode_resp s with
      | Ok m when Wire.encode_resp m <> s ->
          QCheck.Test.fail_reportf "response re-encodes as %S" (Wire.encode_resp m)
      | Ok _ | Error _ -> ());
      (match Wire.unframe s ~pos:0 with `Frame _ | `Incomplete | `Corrupt _ -> ());
      true)

(* --- pinned bytes ---------------------------------------------------------- *)

(* Literal encodings of every constructor, all four action kinds and the
   value corners (0, -1, min_int, max_int, -0., a quiet nan, ±inf, a
   string holding ',' and bytes >= 0x80).  The bytes may not drift
   without a protocol version bump. *)
let call o m args = Exec.Call (Oid.of_int o, MN.of_string m, args)
let qnan = Int64.float_of_bits 0x7ff8000000000000L

let pinned_reqs =
  [
    (Wire.Hello { version = 2; digest = "5e8a"; client = "blast-0" }, "H2,4,5e8a7,blast-0");
    ( Wire.Run
        {
          rq = 7;
          actions =
            [
              call 3 "u0" [ Value.Vint 42 ];
              call 1 "u1" [ Value.Vint 0 ];
              call 3 "u2" [ Value.Vint 99 ];
              call 2 "u3" [ Value.Vint 7 ];
            ];
        },
      "T7,4,c3,2,u01,i42,c1,2,u11,i0,c3,2,u21,i99,c2,2,u31,i7," );
    (Wire.Begin { rq = 0 }, "B0,");
    (Wire.Stmt { rq = 1; action = call 5 "m" [ Value.Vfloat 1.0 ] }, "S1,c5,1,m1,f3ff0000000000000");
    ( Wire.Stmt
        {
          rq = 2;
          action =
            Exec.Call_some
              {
                root = CN.of_string "acct";
                targets = [ Oid.of_int 1; Oid.of_int 20 ];
                meth = MN.of_string "touch";
                args = [];
              };
        },
      "S2,m4,acct2,1,20,5,touch0," );
    ( Wire.Stmt
        {
          rq = 3;
          action =
            Exec.Call_extent
              {
                cls = CN.of_string "grid";
                deep = true;
                meth = MN.of_string "u0";
                args = [ Value.Vbool false; Value.Vnull ];
              };
        },
      "S3,e4,grid12,u02,b0n" );
    ( Wire.Stmt
        {
          rq = 4;
          action =
            Exec.Call_range
              {
                cls = CN.of_string "grid";
                deep = false;
                pred = { Tavcc_lock.Pred.field = FN.of_string "s0"; lo = Some (-5); hi = None };
                meth = MN.of_string "probe";
                args = [ Value.Vref (Oid.of_int 9) ];
              };
        },
      "S4,g4,grid02,s0v-5,n5,probe1,r9," );
    ( Wire.Stmt
        {
          rq = 5;
          action =
            call 0 "f" [ Value.Vint 0; Value.Vint (-1); Value.Vint min_int; Value.Vint max_int ];
        },
      "S5,c0,1,f4,i0,i-1,i-4611686018427387904,i4611686018427387903," );
    ( Wire.Stmt
        {
          rq = 6;
          action =
            call 2 "g"
              [
                Value.Vfloat (-0.);
                Value.Vfloat qnan;
                Value.Vfloat infinity;
                Value.Vfloat neg_infinity;
              ];
        },
      "S6,c2,1,g4,f8000000000000000f7ff8000000000000f7ff0000000000000ffff0000000000000" );
    ( Wire.Stmt
        {
          rq = 7;
          action =
            call 4 "s" [ Value.Vstring "a,b"; Value.Vstring "\xff\x80,"; Value.Vbool true ];
        },
      "S7,c4,1,s3,s3,a,bs3,\255\128,b1" );
    (Wire.Commit { rq = max_int }, "C4611686018427387903,");
    (Wire.Rollback { rq = min_int }, "A-4611686018427387904,");
    (Wire.Ping { rq = -1 }, "P-1,");
    (Wire.Quit, "Q");
  ]

let pinned_resps =
  [
    ( Wire.Welcome { version = 2; scheme = "tav"; digest = ""; banner = "oosim, 2 domains" },
      "W2,3,tav0,16,oosim, 2 domains" );
    (Wire.Reply { rq = 3; status = Wire.Committed { restarts = 0 }; latency_us = 412 }, "R3,412,c0,");
    (Wire.Reply { rq = 4; status = Wire.Aborted "deadlock"; latency_us = 9 }, "R4,9,a8,deadlock");
    (Wire.Reply { rq = 5; status = Wire.Rejected; latency_us = 0 }, "R5,0,j");
    (Wire.Reply { rq = 6; status = Wire.Failed "x"; latency_us = 1 }, "R6,1,f1,x");
    (Wire.Reply { rq = 7; status = Wire.Done; latency_us = 2 }, "R7,2,d");
    (Wire.Pong { rq = 12 }, "O12,");
    (Wire.Err "bad request", "E11,bad request");
    (Wire.Bye, "Y");
  ]

(* [compare], not [=]: a nan argument equals itself under [compare]. *)
let check_pinned encode decode pp (m, bytes) =
  Alcotest.(check string) (Format.asprintf "encode %a" pp m) bytes (encode m);
  match decode bytes with
  | Ok m' -> Alcotest.(check bool) (Printf.sprintf "decode %S" bytes) true (compare m m' = 0)
  | Error e -> Alcotest.failf "decode %S: %s" bytes e

let test_pinned_bytes () =
  List.iter (check_pinned Wire.encode_req Wire.decode_req Wire.pp_req) pinned_reqs;
  List.iter (check_pinned Wire.encode_resp Wire.decode_resp Wire.pp_resp) pinned_resps

(* --- one Io past 64 KiB --------------------------------------------------- *)

(* 12 000 small frames and one 100 KB payload in the middle: past the
   initial 4 KiB receive buffer and past 64 KiB through one [Io], so the
   reader both moves unread bytes down and grows its buffer. *)
let long_payloads =
  Array.init 12_001 (fun i ->
      if i = 6_000 then String.init 100_000 (fun j -> Char.chr (j land 255))
      else Printf.sprintf "frame %d %s" i (String.make (i mod 61) 'x'))

(* Streams [bytes] into a fresh [Io] through a socketpair, from a writer
   thread that cuts them into random chunks of 1 B to 8 KiB, and returns
   what [f] makes of the reading end.  The cuts are drawn up front so the
   writer allocates nothing while [f] counts words. *)
let with_streamed_io ~seed bytes f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rng = Random.State.make [| seed |] in
  let rec draw acc sum =
    if sum >= String.length bytes then Array.of_list acc
    else
      let n = 1 + Random.State.int rng 8192 in
      draw (n :: acc) (sum + n)
  in
  let cuts = draw [] 0 in
  let rd, wr = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer () =
    let b = Bytes.unsafe_of_string bytes in
    let off = ref 0 in
    (try
       Array.iter
         (fun n -> off := !off + Unix.write wr b !off (Int.min n (Bytes.length b - !off)))
         cuts
     with Unix.Unix_error _ -> (* the reader stopped early and hung up *) ());
    Unix.close wr
  in
  let th = Thread.create writer () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      Thread.join th)
    (fun () -> f (Wire.Io.of_fd rd))

(* Reads until the first error: how many payloads came back, whether
   they matched [long_payloads] in order, and the error. *)
let read_until_error io =
  let n = ref 0 and in_order = ref true in
  let rec go () =
    match Wire.Io.read_frame io with
    | Ok p ->
        if !n >= Array.length long_payloads || not (String.equal p long_payloads.(!n)) then
          in_order := false;
        incr n;
        go ()
    | Error e -> e
  in
  let e = go () in
  (!n, !in_order, e)

let show_read_error = function
  | `Eof -> "Eof"
  | `Timeout -> "Timeout"
  | `Corrupt m -> "Corrupt " ^ m

let test_io_long_stream () =
  let frames = Array.map Wire.frame long_payloads in
  let total = Array.length frames in
  let check_read what ~count ~err (n, in_order, e) =
    Alcotest.(check int) (what ^ ": payloads read") count n;
    Alcotest.(check bool) (what ^ ": payloads in order") true in_order;
    Alcotest.(check string) (what ^ ": how it ends") err (show_read_error e)
  in
  (* a clean end, and the reader's allocation per frame *)
  let stream = String.concat "" (Array.to_list frames) in
  let result, words =
    with_streamed_io ~seed:1 stream (fun io ->
        let w0 = Helpers.allocated_words () in
        let r = read_until_error io in
        (r, Helpers.allocated_words () -. w0))
  in
  check_read "clean end" ~count:total ~err:"Eof" result;
  let per_frame = words /. float_of_int total in
  if per_frame > 512. then
    Alcotest.failf "%.0f words allocated per frame (bound 512)" per_frame;
  (* EOF in the middle of a frame *)
  let extra = Wire.frame "one frame too many" in
  let cut = stream ^ String.sub extra 0 (String.length extra / 2) in
  with_streamed_io ~seed:2 cut read_until_error
  |> check_read "cut short" ~count:total ~err:"Corrupt truncated frame";
  (* a bad checksum after many good frames *)
  let bad = 9_000 in
  let flipped = Bytes.of_string frames.(bad) in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 1));
  frames.(bad) <- Bytes.to_string flipped;
  with_streamed_io ~seed:3 (String.concat "" (Array.to_list frames)) read_until_error
  |> check_read "flipped payload" ~count:bad ~err:"Corrupt checksum mismatch"

let test_addr_strings () =
  (match Wire.addr_of_string "unix:/tmp/x.sock" with
  | Ok (Wire.Unix_sock p) -> Alcotest.(check string) "path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "unix addr");
  (match Wire.addr_of_string "tcp:127.0.0.1:7070" with
  | Ok (Wire.Tcp (h, p)) ->
      Alcotest.(check string) "host" "127.0.0.1" h;
      Alcotest.(check int) "port" 7070 p
  | _ -> Alcotest.fail "tcp addr");
  (match Wire.addr_of_string "carrier-pigeon:coop" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad scheme accepted");
  List.iter
    (fun a ->
      match Wire.addr_of_string (Wire.addr_to_string a) with
      | Ok a' -> Alcotest.(check bool) "addr round-trip" true (a = a')
      | Error e -> Alcotest.failf "addr round-trip: %s" e)
    [ Wire.Unix_sock "/tmp/y.sock"; Wire.Tcp ("localhost", 123) ]

(* --- shared workload fixture ------------------------------------------- *)

let fixture () =
  let schema = Workload.slice_schema ~methods:8 ~work:4 () in
  let an = Tavcc_core.Analysis.compile schema in
  let store = Store.create schema in
  Workload.populate store ~per_class:2;
  (an, store)

let grid = CN.of_string "grid"

(* a Call on slice method [u<m>] of the first grid instance *)
let hot_call store m =
  let oid = List.hd (Store.extent store grid) in
  Exec.Call (oid, MN.of_string (Printf.sprintf "u%d" m), [ Value.Vint 1 ])

let mk_jobs store ~n =
  let jobs =
    Workload.slice_jobs (Rng.create 7) store ~txns:n ~actions_per_txn:3 ~hot_instances:2
  in
  Array.of_list (List.map snd jobs)

(* --- the job service ---------------------------------------------------- *)

let reject = Alcotest.testable (fun ppf (id, m) -> Format.fprintf ppf "%d:%s" id m) ( = )

let test_service_submit_drain () =
  let an, store = fixture () in
  let scheme = Tavcc_cc.Tav_modes.scheme an in
  let config = { Par_engine.default_config with domains = 2; shards = 4 } in
  let svc = Par_engine.service_start ~config ~scheme ~store () in
  let jobs = mk_jobs store ~n:24 in
  let committed = Atomic.make 0 in
  Array.iter
    (fun actions ->
      match
        Par_engine.submit svc ~actions ~k:(fun st ->
            match st with
            | Par_engine.Job_committed _ -> Atomic.incr committed
            | Par_engine.Job_failed _ -> ())
      with
      | Par_engine.Accepted -> ()
      | Par_engine.Saturated | Par_engine.Closed -> Alcotest.fail "submit refused")
    jobs;
  Par_engine.service_drain svc;
  Alcotest.(check int) "all callbacks ran" 24 (Atomic.get committed);
  Alcotest.(check int) "in-flight empty" 0 (Par_engine.service_in_flight svc);
  let r = Par_engine.service_stop svc in
  Alcotest.(check int) "result commits" 24 r.Par_engine.commits;
  Alcotest.(check (list reject)) "no failures" [] r.Par_engine.failed

let test_service_admission_control () =
  (* Wedge both workers behind a lock held by an interactive txn, fill
     the queue, and watch the next submit bounce with [Saturated]. *)
  let an, store = fixture () in
  let scheme = Tavcc_cc.Tav_modes.scheme an in
  let config = { Par_engine.default_config with domains = 2; shards = 4 } in
  let svc = Par_engine.service_start ~config ~queue_capacity:2 ~scheme ~store () in
  let it =
    match Par_engine.itxn_begin svc with
    | Ok it -> it
    | Error e -> Alcotest.failf "itxn_begin: %s" e
  in
  (match Par_engine.itxn_perform it (hot_call store 0) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "itxn_perform: %s" e);
  let done_ = Atomic.make 0 in
  let conflicting = [ hot_call store 0 ] in
  let submit () =
    Par_engine.submit svc ~actions:conflicting ~k:(fun _ -> Atomic.incr done_)
  in
  (* 2 jobs occupy the workers (blocked on the held lock)… *)
  for i = 1 to 2 do
    match submit () with
    | Par_engine.Accepted -> ()
    | _ -> Alcotest.failf "worker-bound submit %d refused" i
  done;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Par_engine.service_backlog svc > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Alcotest.(check int) "workers picked both jobs up" 0 (Par_engine.service_backlog svc);
  (* …2 more fill the queue… *)
  for i = 1 to 2 do
    match submit () with
    | Par_engine.Accepted -> ()
    | _ -> Alcotest.failf "queue-bound submit %d refused" i
  done;
  (* …and the next one is shed. *)
  (match submit () with
  | Par_engine.Saturated -> ()
  | Par_engine.Accepted -> Alcotest.fail "expected Saturated, got Accepted"
  | Par_engine.Closed -> Alcotest.fail "expected Saturated, got Closed");
  (match Par_engine.itxn_commit it with
  | Ok () -> ()
  | Error e -> Alcotest.failf "itxn_commit: %s" e);
  Par_engine.service_drain svc;
  Alcotest.(check int) "accepted jobs all completed" 4 (Atomic.get done_);
  let r = Par_engine.service_stop svc in
  (* 4 jobs + the interactive transaction *)
  Alcotest.(check int) "commits" 5 r.Par_engine.commits

let test_service_closed_after_stop () =
  let an, store = fixture () in
  let scheme = Tavcc_cc.Tav_modes.scheme an in
  let config = { Par_engine.default_config with domains = 2; shards = 4 } in
  let svc = Par_engine.service_start ~config ~scheme ~store () in
  ignore (Par_engine.service_stop svc);
  match Par_engine.submit svc ~actions:[ hot_call store 0 ] ~k:(fun _ -> ()) with
  | Par_engine.Closed -> ()
  | Par_engine.Accepted | Par_engine.Saturated -> Alcotest.fail "submit after stop"

let test_itxn_rollback_unblocks () =
  (* The teardown guarantee at engine level: jobs stuck behind a
     session transaction's locks run to commit once it rolls back. *)
  let an, store = fixture () in
  let scheme = Tavcc_cc.Tav_modes.scheme an in
  let config = { Par_engine.default_config with domains = 2; shards = 4 } in
  let svc = Par_engine.service_start ~config ~scheme ~store () in
  let it =
    match Par_engine.itxn_begin svc with
    | Ok it -> it
    | Error e -> Alcotest.failf "itxn_begin: %s" e
  in
  (match Par_engine.itxn_perform it (hot_call store 1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "itxn_perform: %s" e);
  let committed = Atomic.make 0 in
  for _ = 1 to 3 do
    match
      Par_engine.submit svc
        ~actions:[ hot_call store 1 ]
        ~k:(function
          | Par_engine.Job_committed _ -> Atomic.incr committed
          | Par_engine.Job_failed _ -> ())
    with
    | Par_engine.Accepted -> ()
    | _ -> Alcotest.fail "submit refused"
  done;
  (* wait until at least one job is parked behind the itxn's lock *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Par_engine.service_waiting svc = [] && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Alcotest.(check bool) "a job is waiting behind the itxn" true
    (Par_engine.service_waiting svc <> []);
  Par_engine.itxn_rollback it;
  Par_engine.service_drain svc;
  Alcotest.(check int) "blocked jobs committed after rollback" 3 (Atomic.get committed);
  Alcotest.(check (list (pair int (float 1.0)))) "no stranded waiters" []
    (Par_engine.service_waiting svc);
  let r = Par_engine.service_stop svc in
  Alcotest.(check int) "commits" 3 r.Par_engine.commits;
  Alcotest.(check int) "the rollback is an abort" 1 r.Par_engine.aborts

let test_itxn_unsupported_schemes () =
  let an, store = fixture () in
  Alcotest.(check bool) "tav interactive" true
    (Par_engine.interactive_supported (Tavcc_cc.Tav_modes.scheme an));
  Alcotest.(check bool) "tav-pre not interactive" false
    (Par_engine.interactive_supported (Tavcc_cc.Tav_preclaim.scheme an));
  let config = { Par_engine.default_config with domains = 1; shards = 2 } in
  let svc =
    Par_engine.service_start ~config ~scheme:(Tavcc_cc.Tav_preclaim.scheme an) ~store ()
  in
  (match Par_engine.itxn_begin svc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "preclaiming scheme accepted an interactive txn");
  ignore (Par_engine.service_stop svc)

(* --- end-to-end over a unix socket -------------------------------------- *)

let sock_counter = ref 0

let with_server ?(digest = "") ?(scheme_of = Tavcc_cc.Tav_modes.scheme) f =
  let an, store = fixture () in
  incr sock_counter;
  let path = Printf.sprintf "%s/tavcc-net-%d-%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !sock_counter
  in
  let addr = Wire.Unix_sock path in
  let cfg =
    {
      (Server.default_config ~addr ~scheme:(scheme_of an) ~store) with
      Server.digest;
      engine = { Par_engine.default_config with domains = 2; shards = 4 };
      drain_grace_s = 2.0;
    }
  in
  let srv = Server.start cfg in
  let finally () =
    Server.request_stop srv;
    ignore (Server.wait srv);
    if Sys.file_exists path then Sys.remove path
  in
  match f ~addr ~store ~srv with
  | v ->
      finally ();
      v
  | exception e ->
      finally ();
      raise e

(* [request_stop] wakes the accept loop at once rather than leaving it
   to a select timeout, so a server with no sessions starts and stops in
   well under the second that 20 such cycles may take.  Each server runs
   10 ms first, so its accept loop is parked in [select] when the stop
   comes. *)
let test_stop_is_prompt () =
  let an, store = fixture () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to 20 do
    let path =
      Printf.sprintf "%s/tavcc-stop-%d-%d.sock" (Filename.get_temp_dir_name ()) (Unix.getpid ()) i
    in
    let cfg =
      {
        (Server.default_config ~addr:(Wire.Unix_sock path)
           ~scheme:(Tavcc_cc.Tav_modes.scheme an) ~store)
        with
        Server.engine = { Par_engine.default_config with domains = 1; shards = 2 };
      }
    in
    let srv = Server.start cfg in
    Thread.delay 0.01;
    Server.request_stop srv;
    ignore (Server.wait srv);
    (* a second request after the drain is a no-op *)
    Server.request_stop srv
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "20 start/stop cycles took %.3f s (< 1 s)" dt) true (dt < 1.0)

let test_e2e_commits () =
  with_server (fun ~addr ~store ~srv:_ ->
      match Client.connect ~recv_timeout_s:10.0 ~addr () with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok (c, `Welcome (scheme, _)) ->
          Alcotest.(check string) "scheme name in Welcome" "tav" scheme;
          let jobs = mk_jobs store ~n:10 in
          Array.iteri
            (fun rq actions ->
              match Client.run c ~rq actions with
              | Ok () -> ()
              | Error e -> Alcotest.failf "run %d: %s" rq e)
            jobs;
          let seen = Array.make (Array.length jobs) false in
          for _ = 1 to Array.length jobs do
            match Client.recv c with
            | Ok (Wire.Reply { rq; status = Wire.Committed _; latency_us }) ->
                Alcotest.(check bool) "latency non-negative" true (latency_us >= 0);
                seen.(rq) <- true
            | Ok r -> Alcotest.failf "unexpected reply: %a" Wire.pp_resp r
            | Error e -> Alcotest.failf "recv: %s" e
          done;
          Array.iteri
            (fun rq ok -> if not ok then Alcotest.failf "no reply for rq %d" rq)
            seen;
          (* ping still answered after the batch *)
          (match Client.call c (Wire.Ping { rq = 99 }) with
          | Ok (Wire.Pong { rq }) -> Alcotest.(check int) "pong rq" 99 rq
          | Ok r -> Alcotest.failf "expected Pong, got %a" Wire.pp_resp r
          | Error e -> Alcotest.failf "ping: %s" e);
          Client.quit c)

let test_e2e_interactive () =
  with_server (fun ~addr ~store ~srv:_ ->
      match Client.connect ~recv_timeout_s:10.0 ~addr () with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok (c, _) ->
          let expect_status name req want =
            match Client.call c req with
            | Ok (Wire.Reply { status; _ }) when status = want -> ()
            | Ok r -> Alcotest.failf "%s: unexpected %a" name Wire.pp_resp r
            | Error e -> Alcotest.failf "%s: %s" name e
          in
          expect_status "begin" (Wire.Begin { rq = 0 }) Wire.Done;
          expect_status "stmt"
            (Wire.Stmt { rq = 1; action = hot_call store 2 })
            Wire.Done;
          expect_status "commit" (Wire.Commit { rq = 2 }) (Wire.Committed { restarts = 0 });
          (* protocol misuse: commit with nothing open is Failed, not fatal *)
          (match Client.call c (Wire.Commit { rq = 3 }) with
          | Ok (Wire.Reply { status = Wire.Failed _; _ }) -> ()
          | Ok r -> Alcotest.failf "stray commit: %a" Wire.pp_resp r
          | Error e -> Alcotest.failf "stray commit: %s" e);
          Client.quit c)

let test_e2e_abrupt_disconnect_releases_locks () =
  with_server (fun ~addr ~store ~srv ->
      (* client A opens a transaction, takes a lock, and vanishes *)
      (match Client.connect ~recv_timeout_s:10.0 ~addr () with
      | Error e -> Alcotest.failf "connect A: %s" e
      | Ok (a, _) ->
          (match Client.call a (Wire.Begin { rq = 0 }) with
          | Ok (Wire.Reply { status = Wire.Done; _ }) -> ()
          | _ -> Alcotest.fail "begin A");
          (match Client.call a (Wire.Stmt { rq = 1; action = hot_call store 3 }) with
          | Ok (Wire.Reply { status = Wire.Done; _ }) -> ()
          | _ -> Alcotest.fail "stmt A");
          Client.close a);
      (* the session teardown must roll A back; B's conflicting job can
         then only commit if the lock was actually released *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Server.session_count srv > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.005
      done;
      Alcotest.(check int) "A's session torn down" 0 (Server.session_count srv);
      match Client.connect ~recv_timeout_s:10.0 ~addr () with
      | Error e -> Alcotest.failf "connect B: %s" e
      | Ok (b, _) -> (
          (match Client.run b ~rq:7 [ hot_call store 3 ] with
          | Ok () -> ()
          | Error e -> Alcotest.failf "run B: %s" e);
          match Client.recv b with
          | Ok (Wire.Reply { rq = 7; status = Wire.Committed _; _ }) -> Client.quit b
          | Ok r -> Alcotest.failf "B blocked on a stranded lock? got %a" Wire.pp_resp r
          | Error e -> Alcotest.failf "recv B: %s" e))

let test_e2e_handshake_refusals () =
  with_server ~digest:"right-digest" (fun ~addr ~store:_ ~srv:_ ->
      (* wrong digest: an explicit refusal, not a receive timeout *)
      (match Client.connect ~recv_timeout_s:10.0 ~digest:"wrong-digest" ~addr () with
      | Error msg ->
          Alcotest.(check string) "digest named in refusal"
            "server refused: workload digest mismatch" msg
      | Ok _ -> Alcotest.fail "digest mismatch accepted");
      (* matching digest still welcome *)
      (match Client.connect ~recv_timeout_s:10.0 ~digest:"right-digest" ~addr () with
      | Error e -> Alcotest.failf "matching digest refused: %s" e
      | Ok (c, _) -> Client.quit c);
      (* stale protocol version *)
      let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect raw (Wire.sockaddr_of_addr addr);
      Unix.setsockopt_float raw Unix.SO_RCVTIMEO 10.0;
      let io = Wire.Io.of_fd raw in
      (match
         Wire.Io.write io
           (Wire.encode_req (Wire.Hello { version = 99; digest = ""; client = "" }))
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write hello: %s" e);
      (match Wire.Io.read_frame io with
      | Ok payload -> (
          match Wire.decode_resp payload with
          | Ok (Wire.Err msg) ->
              Alcotest.(check string) "version mismatch reported"
                (Printf.sprintf "protocol version mismatch: server %d, client 99"
                   Wire.protocol_version)
                msg
          | Ok r -> Alcotest.failf "expected Err, got %a" Wire.pp_resp r
          | Error e -> Alcotest.failf "decode: %s" e)
      | Error `Timeout -> Alcotest.fail "server hung on a version mismatch"
      | Error `Eof -> Alcotest.fail "no Err for version mismatch"
      | Error (`Corrupt e) -> Alcotest.failf "corrupt reply: %s" e);
      (try Unix.close raw with Unix.Unix_error _ -> ());
      (* raw garbage: the server answers Err and drops the session
         rather than crashing or hanging *)
      let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect raw (Wire.sockaddr_of_addr addr);
      Unix.setsockopt_float raw Unix.SO_RCVTIMEO 10.0;
      let garbage = "ZZZZZZZZZZZZZZZZ this is not a frame" in
      let n = Unix.write_substring raw garbage 0 (String.length garbage) in
      Alcotest.(check int) "garbage written" (String.length garbage) n;
      let io = Wire.Io.of_fd raw in
      (match Wire.Io.read_frame io with
      | Ok payload -> (
          match Wire.decode_resp payload with
          | Ok (Wire.Err _) -> ()
          | Ok r -> Alcotest.failf "expected Err, got %a" Wire.pp_resp r
          | Error e -> Alcotest.failf "decode: %s" e)
      | Error (`Eof | `Corrupt _) ->
          (* also acceptable: the server hung up on us immediately *)
          ()
      | Error `Timeout -> Alcotest.fail "server hung on garbage instead of refusing");
      try Unix.close raw with Unix.Unix_error _ -> ())

(* A peer that accepts and never answers: [SO_RCVTIMEO] surfaces as an
   error result, on the handshake and on an idle session alike. *)
let test_silent_peer_times_out () =
  incr sock_counter;
  let path =
    Printf.sprintf "%s/tavcc-silent-%d-%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !sock_counter
  in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let handshake = Client.connect ~recv_timeout_s:0.2 ~addr:(Wire.Unix_sock path) () in
  Unix.close lfd;
  Sys.remove path;
  (match handshake with
  | Error msg -> Alcotest.(check string) "handshake" "receive timed out" msg
  | Ok _ -> Alcotest.fail "handshake with a silent peer succeeded");
  with_server (fun ~addr ~store:_ ~srv:_ ->
      match Client.connect ~recv_timeout_s:0.2 ~addr () with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok (c, _) ->
          (match Client.recv c with
          | Error msg -> Alcotest.(check string) "idle recv" "receive timed out" msg
          | Ok r -> Alcotest.failf "unsolicited %a" Wire.pp_resp r);
          Client.quit c)

let suite =
  [
    QCheck_alcotest.to_alcotest roundtrip_req;
    QCheck_alcotest.to_alcotest roundtrip_resp;
    QCheck_alcotest.to_alcotest every_cut;
    QCheck_alcotest.to_alcotest bit_flip;
    QCheck_alcotest.to_alcotest garbage_total;
    Alcotest.test_case "wire: one Io past 64 KiB, in order, bounded words" `Quick
      test_io_long_stream;
    Alcotest.test_case "addr strings parse and round-trip" `Quick test_addr_strings;
    Alcotest.test_case "service: submit + drain + stop" `Quick test_service_submit_drain;
    Alcotest.test_case "service: admission control sheds at capacity" `Quick
      test_service_admission_control;
    Alcotest.test_case "service: Closed after stop" `Quick test_service_closed_after_stop;
    Alcotest.test_case "itxn: rollback releases locks, unblocks jobs" `Quick
      test_itxn_rollback_unblocks;
    Alcotest.test_case "itxn: preclaiming scheme refused" `Quick
      test_itxn_unsupported_schemes;
    Alcotest.test_case "server: stop returns promptly, with no sessions" `Quick
      test_stop_is_prompt;
    Alcotest.test_case "e2e: pipelined Run jobs all commit" `Quick test_e2e_commits;
    Alcotest.test_case "e2e: interactive begin/stmt/commit" `Quick test_e2e_interactive;
    Alcotest.test_case "e2e: abrupt disconnect mid-txn frees locks" `Quick
      test_e2e_abrupt_disconnect_releases_locks;
    Alcotest.test_case "e2e: handshake refusals (digest, version, garbage)" `Quick
      test_e2e_handshake_refusals;
    Alcotest.test_case "client: a silent peer times out, no raise" `Quick
      test_silent_peer_times_out;
    Alcotest.test_case "wire: pinned bytes of every message shape" `Quick test_pinned_bytes;
  ]
