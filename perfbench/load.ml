(* The benchmark's load process: one seeded request stream, sent over
   one connection from one thread in a closed loop.

   The connection keeps [depth] requests in flight, and a request is only
   sent while every request [window] or more positions before it has
   been answered.  Since transaction [i] calls slice method
   [i mod slices], requests in flight at the same time use distinct
   slices.  Prints one JSON line: the accounting of every request, the
   timed window, client and server latencies, and the final state the
   committed requests imply (the oracle). *)

open Tavcc_model
module Wire = Tavcc_net.Wire
module Client = Tavcc_net.Client
module Json = Tavcc_obs.Json
module Exec = Tavcc_cc.Exec

let depth = 4
let window = 16
let now = Spec.now_ns

type state = {
  jobs : Exec.action list array;
  mutable cursor : int;  (** next stream position to send *)
  mutable low : int;  (** lowest position not yet answered *)
  mutable inflight : int;
  mutable protocol_errors : int;
  sent_at : int array;  (** ns; 0 = never sent *)
  replied_at : int array;  (** ns; 0 = unanswered *)
  replies : Wire.status array;
  server_us : int array;
}

(* Sends while the window allows, then waits for one reply; stops at the
   first protocol error, leaving what is in flight unanswered. *)
let drive st cl =
  let total = Array.length st.jobs in
  let broken () = st.protocol_errors > 0 in
  while (not (broken ())) && (st.inflight > 0 || st.cursor < total) do
    while
      (not (broken ())) && st.inflight < depth && st.cursor < total && st.cursor - st.low < window
    do
      let i = st.cursor in
      st.cursor <- i + 1;
      st.sent_at.(i) <- now ();
      match Client.run cl ~rq:i st.jobs.(i) with
      | Ok () -> st.inflight <- st.inflight + 1
      | Error _ -> st.protocol_errors <- st.protocol_errors + 1
    done;
    if st.inflight > 0 && not (broken ()) then begin
      let resp = Client.recv cl in
      let t = now () in
      match resp with
      | Ok (Wire.Reply { rq; status; latency_us })
        when rq >= 0 && rq < total && st.sent_at.(rq) > 0 && st.replied_at.(rq) = 0 ->
          st.replied_at.(rq) <- t;
          st.replies.(rq) <- status;
          st.server_us.(rq) <- latency_us;
          st.inflight <- st.inflight - 1;
          while st.low < st.cursor && st.replied_at.(st.low) > 0 do
            st.low <- st.low + 1
          done
      | _ -> st.protocol_errors <- st.protocol_errors + 1
    end
  done

(* Codec time (ns) and framed bytes of one request/reply pair, measured
   on the run's own messages after the load: both directions, both
   sides. *)
let codec_cost ~rq actions status latency_us =
  let req = Wire.Run { rq; actions } in
  let resp = Wire.Reply { rq; status; latency_us } in
  let t0 = now () in
  let req_frame = Wire.frame (Wire.encode_req req) in
  let t1 = now () in
  (match Wire.unframe req_frame ~pos:0 with
  | `Frame (p, _) -> ignore (Wire.decode_req p)
  | `Incomplete | `Corrupt _ -> failwith "request frame does not round-trip");
  let t2 = now () in
  let resp_frame = Wire.frame (Wire.encode_resp resp) in
  let t3 = now () in
  (match Wire.unframe resp_frame ~pos:0 with
  | `Frame (p, _) -> ignore (Wire.decode_resp p)
  | `Incomplete | `Corrupt _ -> failwith "reply frame does not round-trip");
  let t4 = now () in
  ((t1 - t0) + (t2 - t1) + (t3 - t2) + (t4 - t3), String.length req_frame + String.length resp_frame)

let run ~workload ~sock ~seed ~round ~trace =
  let w = Spec.find workload in
  let store = Store.create (Spec.schema w) in
  Tavcc_sim.Workload.populate store ~per_class:w.instances;
  let jobs = Spec.jobs w ~seed ~round store in
  let total = Array.length jobs in
  let st =
    {
      jobs;
      cursor = 0;
      low = 0;
      inflight = 0;
      protocol_errors = 0;
      sent_at = Array.make total 0;
      replied_at = Array.make total 0;
      replies = Array.make total (Wire.Failed "unanswered");
      server_us = Array.make total 0;
    }
  in
  let cl =
    match Client.connect ~client:"perfbench" ~recv_timeout_s:60. ~addr:(Wire.Unix_sock sock) () with
    | Ok (cl, _) -> cl
    | Error msg -> failwith ("connect: " ^ msg)
  in
  drive st cl;
  Client.quit cl;
  (* accounting: every request sent is committed, aborted, rejected,
     failed or unanswered *)
  let count p =
    let n = ref 0 in
    for i = 0 to total - 1 do
      if p i then incr n
    done;
    !n
  in
  let sent i = st.sent_at.(i) > 0 and answered i = st.replied_at.(i) > 0 in
  let is_status f i = answered i && f st.replies.(i) in
  let committed = function Wire.Committed _ -> true | _ -> false in
  let restarts i = match st.replies.(i) with Wire.Committed { restarts } -> restarts | _ -> 0 in
  let timed i = i >= w.warmup && answered i in
  let timed_idx = List.filter timed (List.init total Fun.id) in
  let sum f l = List.fold_left (fun a i -> a + f i) 0 l in
  let w0 = if w.warmup < total then st.sent_at.(w.warmup) else 0 in
  let w1 = List.fold_left (fun a i -> max a st.replied_at.(i)) w0 timed_idx in
  (* oracle: u_k adds [work * p1] to s_k, once per committed call *)
  let expected = Hashtbl.create 1024 in
  Array.iteri
    (fun i acts ->
      if is_status committed i then
        List.iter
          (function
            | Exec.Call (oid, m, [ Value.Vint p ]) -> (
                match Spec.slice_of_method m with
                | Some k ->
                    let key = (Oid.to_int oid, k) in
                    let v = Option.value ~default:0 (Hashtbl.find_opt expected key) in
                    Hashtbl.replace expected key (v + (w.work * p))
                | None -> ())
            | _ -> failwith "unexpected action shape")
          acts)
    jobs;
  let expected_json =
    Hashtbl.fold
      (fun (oid, k) v acc ->
        if v = 0 then acc else Json.List [ Json.Int oid; Json.Int k; Json.Int v ] :: acc)
      expected []
  in
  let ints f = Json.List (List.map (fun i -> Json.Int (f i)) timed_idx) in
  let codec, bytes =
    if trace then
      List.fold_left
        (fun (c, b) i ->
          let dc, db = codec_cost ~rq:i jobs.(i) st.replies.(i) st.server_us.(i) in
          (c + dc, b + db))
        (0, 0) timed_idx
    else (0, 0)
  in
  let n_timed = max 1 (List.length timed_idx) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("sent", Json.Int (count sent));
            ("committed", Json.Int (count (is_status committed)));
            ("aborted", Json.Int (count (is_status (function Wire.Aborted _ -> true | _ -> false))));
            ("rejected", Json.Int (count (is_status (( = ) Wire.Rejected))));
            ( "failed",
              Json.Int (count (is_status (function Wire.Failed _ | Wire.Done -> true | _ -> false))) );
            ("unanswered", Json.Int (count (fun i -> sent i && not (answered i))));
            ("protocol_errors", Json.Int st.protocol_errors);
            ("timed", Json.Int (List.length timed_idx));
            ("timed_committed", Json.Int (sum (fun i -> if committed st.replies.(i) then 1 else 0) timed_idx));
            ("timed_restarts", Json.Int (sum restarts timed_idx));
            ("w0_ns", Json.Int w0);
            ("w1_ns", Json.Int w1);
            ("lat_ns", ints (fun i -> st.replied_at.(i) - st.sent_at.(i)));
            ("server_us", ints (fun i -> st.server_us.(i)));
            ("codec_ns", Json.Float (float_of_int codec /. float_of_int n_timed));
            ("wire_bytes", Json.Float (float_of_int bytes /. float_of_int n_timed));
            ("expected", Json.List expected_json);
          ]))
