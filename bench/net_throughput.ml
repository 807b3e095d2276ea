(* net/throughput — the network front-end end to end.

   Starts an in-process [Server] on a unix socket serving the contended
   slice workload, then drives it with [Blast]'s closed-loop clients
   (each its own domain, each pipelining [Run] jobs over its own
   connection), sweeping the worker-domain count for instance-granularity
   r/w locking vs the paper's TAV field modes.  Unlike par/throughput
   this path pays the full service bill per transaction: framing,
   checksums, socket hops, admission control and the reply fan-in — so
   the TAV/rw gap here is the one a client actually observes.

   The headline figure is the TAV / rw-msg committed-throughput ratio at
   the widest domain count, gated at >= [threshold_x] (E19 in
   EXPERIMENTS.md).  The wire reader parses frames in place, so the
   per-request wire cost is small next to the engine's and the measured
   ratio sits well above the gate.

   Results go to stdout and BENCH_net.json, with the host they were
   measured on.  [--quick] shrinks the load for CI smoke and regression
   runs (recorded in the JSON so the regression script normalises wall
   time per request). *)

module Workload = Tavcc_sim.Workload
module Rng = Tavcc_sim.Rng
module Store = Tavcc_model.Store
module Par_engine = Tavcc_par.Par_engine
module Wire = Tavcc_net.Wire
module Server = Tavcc_net.Server
module Blast = Tavcc_net.Blast

let slices = 96
let work = 64
let actions_per_txn = 4
let instances = 4
let hot = 4
let shards = 8
let clients = 4
let pipeline = 16
let seed = 42

(* The full-mode gate.  Quick mode (CI smoke) only checks that TAV is
   not LOSING to rw-msg: on a starved or single-core runner the domains
   time-share, the parallel gap narrows toward scheduling noise, and a
   1.5x gate on a 240-request run false-fails; the committed full-mode
   baseline is where the >= 1.5x claim is enforced. *)
let threshold_x = 1.5
let quick_threshold_x = 1.0

let schemes =
  [ ("rw-msg", Tavcc_cc.Rw_instance.scheme); ("tav", Tavcc_cc.Tav_modes.scheme) ]

type row = {
  scheme : string;
  domains : int;
  requests : int;
  committed : int;
  restarts : int;
  aborted : int;
  rejected : int;
  failed : int;
  wall_ms : float;
  req_s : float;
  p50_us : int;
  p95_us : int;
  p99_us : int;
}

let sock_counter = ref 0

let run_config ~an ~schema ~requests ~repeats name mk domains =
  let reports = ref [] in
  for _ = 1 to repeats do
    let store = Store.create schema in
    Workload.populate store ~per_class:instances;
    (* populate is deterministic, so jobs generated against the server's
       store are byte-valid for the clients — exactly the digest contract
       the out-of-process blast leans on.  One global stream is dealt
       round-robin: [slice_jobs] walks the slices in order, so any set of
       concurrently in-flight requests (one per client per pipeline slot)
       carries pairwise-distinct slice methods — commuting under TAV,
       colliding on the hot instances under r/w.  Per-client streams
       would put every client on the same slice in lockstep and measure
       nothing but self-conflicts. *)
    let all =
      Array.of_list
        (List.map snd
           (Workload.slice_jobs (Rng.create (seed + 1)) store
              ~txns:(clients * requests) ~actions_per_txn ~hot_instances:hot))
    in
    let jobs i = Array.init requests (fun j -> all.((j * clients) + i)) in
    incr sock_counter;
    let path =
      Printf.sprintf "%s/tavcc-bench-%d-%d.sock" (Filename.get_temp_dir_name ())
        (Unix.getpid ()) !sock_counter
    in
    let addr = Wire.Unix_sock path in
    let cfg =
      {
        (Server.default_config ~addr ~scheme:(mk an) ~store) with
        Server.engine = { Par_engine.default_config with domains; shards };
        queue_capacity = 256;
      }
    in
    let srv = Server.start cfg in
    let report =
      Blast.run
        {
          Blast.addr;
          clients;
          requests;
          pipeline;
          digest = "";
          client_name = "bench";
          jobs;
        }
    in
    Server.request_stop srv;
    ignore (Server.wait srv);
    if Sys.file_exists path then Sys.remove path;
    if report.Blast.protocol_errors > 0 then begin
      Printf.printf "FAIL: %s/%d domains: %d protocol errors\n" name domains
        report.Blast.protocol_errors;
      exit 1
    end;
    let accounted =
      report.Blast.committed + report.Blast.aborted + report.Blast.rejected
      + report.Blast.failed
    in
    if accounted <> report.Blast.requests then begin
      Printf.printf "FAIL: %s/%d domains: %d of %d requests unaccounted for\n" name
        domains
        (report.Blast.requests - accounted)
        report.Blast.requests;
      exit 1
    end;
    reports := report :: !reports
  done;
  (* Aggregate over the repeats rather than keeping the best one: under
     contention the r/w scheme's wall time swings on how many deadlock
     pileups it hits, and a best-of ratio lets its one lucky run mask
     them.  Percentiles come from the median-throughput repeat. *)
  let rs = !reports in
  let isum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let fsum f = List.fold_left (fun a r -> a +. f r) 0. rs in
  let wall_s = fsum (fun r -> r.Blast.wall_s) in
  let committed = isum (fun r -> r.Blast.committed) in
  let median =
    let sorted =
      List.sort (fun a b -> compare a.Blast.throughput b.Blast.throughput) rs
    in
    List.nth sorted (List.length sorted / 2)
  in
  {
    scheme = name;
    domains;
    requests = isum (fun r -> r.Blast.requests);
    committed;
    restarts = isum (fun r -> r.Blast.restarts);
    aborted = isum (fun r -> r.Blast.aborted);
    rejected = isum (fun r -> r.Blast.rejected);
    failed = isum (fun r -> r.Blast.failed);
    wall_ms = wall_s *. 1e3;
    req_s = (if wall_s > 0. then float_of_int committed /. wall_s else 0.);
    p50_us = median.Blast.lat_p50_us;
    p95_us = median.Blast.lat_p95_us;
    p99_us = median.Blast.lat_p99_us;
  }

let json_of_row r =
  Printf.sprintf
    "    {\"scheme\": \"%s\", \"domains\": %d, \"requests\": %d, \"committed\": %d, \
     \"restarts\": %d, \"aborted\": %d, \"rejected\": %d, \"failed\": %d, \"wall_ms\": %.3f, \"req_s\": \
     %.0f, \"p50_us\": %d, \"p95_us\": %d, \"p99_us\": %d}"
    r.scheme r.domains r.requests r.committed r.restarts r.aborted r.rejected r.failed
    r.wall_ms r.req_s r.p50_us r.p95_us r.p99_us

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let requests = if quick then 60 else 200 in
  let repeats = if quick then 3 else 4 in
  let domain_sweep = [ 1; 2; 4 ] in
  let schema = Workload.slice_schema ~methods:slices ~work () in
  let an = Tavcc_core.Analysis.compile schema in
  Printf.printf "net/throughput — serve + blast over a unix socket, rw-msg vs TAV\n";
  Printf.printf
    "(%d clients x %d reqs x %d actions, pipeline %d, %d slices x %d writes, hot %d of \
     %d, %d shards, sum of %d, seed %d%s)\n\n"
    clients requests actions_per_txn pipeline slices work hot instances shards repeats
    seed
    (if quick then ", quick" else "");
  Printf.printf "%-8s %-8s %-9s %-10s %-9s %-9s %-10s %-9s %-8s %-8s %-8s\n" "scheme" "domains"
    "requests" "committed" "restarts" "rejected" "wall-ms" "req/s" "p50-us" "p95-us"
    "p99-us";
  let rows =
    List.concat_map
      (fun (name, mk) ->
        List.map
          (fun domains ->
            let r = run_config ~an ~schema ~requests ~repeats name mk domains in
            Printf.printf "%-8s %-8d %-9d %-10d %-9d %-9d %-10.3f %-9.0f %-8d %-8d %-8d\n"
              r.scheme r.domains r.requests r.committed r.restarts r.rejected r.wall_ms
              r.req_s r.p50_us r.p95_us r.p99_us;
            r)
          domain_sweep)
      schemes
  in
  let top = List.fold_left max 1 domain_sweep in
  let at name = List.find (fun r -> r.scheme = name && r.domains = top) rows in
  let rw = at "rw-msg" and tav = at "tav" in
  let ratio = tav.req_s /. rw.req_s in
  Printf.printf "\nheadline (%d domains): tav %.0f req/s vs rw-msg %.0f req/s = %.1fx\n"
    top tav.req_s rw.req_s ratio;
  let oc = open_out "BENCH_net.json" in
  output_string oc "{\n  \"bench\": \"net/throughput\",\n";
  Printf.fprintf oc
    "  \"clients\": %d,\n  \"requests_per_client\": %d,\n  \"pipeline\": %d,\n\
    \  \"actions_per_txn\": %d,\n  \"slices\": %d,\n  \"work\": %d,\n\
    \  \"instances\": %d,\n  \"hot\": %d,\n  \"shards\": %d,\n  \"repeats\": %d,\n\
    \  \"seed\": %d,\n  \"quick\": %b,\n  \"threshold_x\": %.1f,\n  \"host\": %s,\n"
    clients requests pipeline actions_per_txn slices work instances hot shards repeats
    seed quick threshold_x (Host.json ());
  output_string oc "  \"rows\": [\n";
  output_string oc (String.concat ",\n" (List.map json_of_row rows));
  output_string oc "\n  ],\n";
  Printf.fprintf oc
    "  \"headline\": {\"domains\": %d, \"rw_req_s\": %.0f, \"tav_req_s\": %.0f, \
     \"tav_x_rw\": %.2f}\n}\n"
    top rw.req_s tav.req_s ratio;
  close_out oc;
  Printf.printf "wrote BENCH_net.json (%d rows)\n" (List.length rows);
  let gate = if quick then quick_threshold_x else threshold_x in
  if ratio < gate then begin
    Printf.printf "FAIL: tav only %.2fx rw-msg (gate %.1fx%s)\n" ratio gate
      (if quick then ", quick smoke" else "");
    exit 1
  end;
  print_string
    "shape check: the wire cost (framing, checksums, socket hops) is the\n\
     same for both schemes, so the remaining gap is pure concurrency\n\
     control — rw-msg serialises the hot set and burns deadlock\n\
     restarts while TAV's commuting field modes let the domains run.\n"
