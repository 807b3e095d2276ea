(* oosim — concurrency-control simulator.

   Runs workloads through the deterministic execution engine under any of
   the five schemes and reports lock traffic, waits, deadlocks and the
   serializability verdict. *)

open Cmdliner
open Tavcc_model
module Exec = Tavcc_cc.Exec
module Fault = Tavcc_chaos.Fault
module Torture = Tavcc_chaos.Torture
module Explore = Tavcc_chaos.Explore
module Engine = Tavcc_sim.Engine
module Engine_trace = Tavcc_sim.Engine_trace
module Workload = Tavcc_sim.Workload
module Crosscheck = Tavcc_sim.Crosscheck
module Rng = Tavcc_sim.Rng
module Par_engine = Tavcc_par.Par_engine
module Par_obs = Tavcc_par.Par_obs
module Metrics = Tavcc_obs.Metrics
module Sink = Tavcc_obs.Sink
module Json = Tavcc_obs.Json
module Trace = Tavcc_obs.Trace
module Wire = Tavcc_net.Wire
module Server = Tavcc_net.Server
module Blast = Tavcc_net.Blast
module Storage = Tavcc_storage.Engine
module Crash_matrix = Tavcc_storage.Crash_matrix
module Recorder = Tavcc_sanitize.Recorder
module Monitor = Tavcc_sanitize.Monitor
module Conform = Tavcc_sanitize.Conform
module Fuzz = Tavcc_sanitize.Fuzz
module Diag = Tavcc_analyze.Diag

let schemes =
  [
    ("tav", Tavcc_cc.Tav_modes.scheme);
    ("tav-pre", Tavcc_cc.Tav_preclaim.scheme);
    ("rw-msg", Tavcc_cc.Rw_instance.scheme);
    ("rw-top", Tavcc_cc.Rw_toponly.scheme);
    ("rw-impl", Tavcc_cc.Rw_implicit.scheme);
    ("field-rt", Tavcc_cc.Field_runtime.scheme);
    ("relational", Tavcc_cc.Relational.scheme);
    ("mvcc-tav", fun an -> Tavcc_mvcc.Mvcc_tav.scheme an);
  ]

let policies =
  [
    ("detect", Engine.Detect);
    ("wound-wait", Engine.Wound_wait);
    ("wait-die", Engine.Wait_die);
    ("no-wait", Engine.No_wait);
    ("timeout", Engine.Timeout 50);
  ]

let policy_conv =
  let parse s =
    match List.assoc_opt s policies with
    | Some p -> Ok p
    | None ->
        Error (`Msg (Printf.sprintf "unknown policy %S (expected %s)" s
                       (String.concat ", " (List.map fst policies))))
  in
  Arg.conv (parse, fun ppf p ->
      Format.pp_print_string ppf
        (match p with
        | Engine.Detect -> "detect"
        | Engine.Wound_wait -> "wound-wait"
        | Engine.Wait_die -> "wait-die"
        | Engine.No_wait -> "no-wait"
        | Engine.Timeout n -> Printf.sprintf "timeout(%d)" n))

let policy_arg =
  Arg.(value & opt policy_conv Engine.Detect
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Deadlock handling: detect, wound-wait, wait-die, no-wait or timeout.")

let scheme_conv =
  let parse s =
    match List.assoc_opt s schemes with
    | Some _ -> Ok s
    | None ->
        Error (`Msg (Printf.sprintf "unknown scheme %S (expected %s)" s
                       (String.concat ", " (List.map fst schemes))))
  in
  Arg.conv (parse, Format.pp_print_string)

(* --- shared observability flags --- *)

let metrics_arg =
  let fmt =
    Arg.enum [ ("text", `Text); ("json", `Json) ]
  in
  Arg.(value & opt ~vopt:(Some `Text) (some fmt) None
       & info [ "metrics" ] ~docv:"FMT"
           ~doc:"Collect metrics (counters, gauges, histograms) across the run and report \
                 them; FMT is $(b,text) (default) or $(b,json).  With $(b,json) the command \
                 prints a single machine-readable JSON object instead of the human output.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file of the run(s) — open it in Perfetto or \
                 chrome://tracing.  Timestamps are scheduler steps; with several schemes each \
                 gets its own pid.")

let write_file file contents =
  let oc = open_out file in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A flag the user typed but the command would silently ignore is a
   usage error, not a no-op — refuse with exit 2 like cmdliner does. *)
let usage_error cmd msg =
  Printf.eprintf "oosim %s: %s\n" cmd msg;
  exit 2

(* --- on-disk storage flags (run / serve) --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let data_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Back the store with the on-disk slotted-page engine (WAL, double-write \
                 buffer and data file under DIR) instead of the in-memory store.")

let pool_pages_arg =
  Arg.(value & opt (some int) None
       & info [ "pool-pages" ] ~docv:"N"
           ~doc:"Buffer-pool frames for $(b,--data-dir) (default 64); size it below the \
                 working set to exercise eviction and write-back.")

let storage_config ~dir ~pool_pages =
  let cfg = Storage.default_config ~dir in
  match pool_pages with None -> cfg | Some n -> { cfg with Storage.pool_pages = n }

let print_storage_stats st =
  let p = st.Storage.s_pool in
  Printf.printf
    "  storage: %d instances on %d pages; pool %d frames, %d hits / %d misses / %d \
     evictions; wal %d records (%d bytes)\n"
    st.Storage.s_instances st.Storage.s_data_pages st.Storage.s_pool_pages
    p.Tavcc_storage.Buffer_pool.hits p.Tavcc_storage.Buffer_pool.misses
    p.Tavcc_storage.Buffer_pool.evictions st.Storage.s_wal_records st.Storage.s_wal_bytes

let storage_stats_json st =
  let p = st.Storage.s_pool in
  Json.Obj
    [
      ("instances", Json.Int st.Storage.s_instances);
      ("data_pages", Json.Int st.Storage.s_data_pages);
      ("pool_pages", Json.Int st.Storage.s_pool_pages);
      ("pool_hits", Json.Int p.Tavcc_storage.Buffer_pool.hits);
      ("pool_misses", Json.Int p.Tavcc_storage.Buffer_pool.misses);
      ("evictions", Json.Int p.Tavcc_storage.Buffer_pool.evictions);
      ("wal_records", Json.Int st.Storage.s_wal_records);
      ("wal_bytes", Json.Int st.Storage.s_wal_bytes);
    ]

(* Fan one access out to two passive observers (recorder + lock monitor). *)
let both_probes a b =
  {
    Exec.p_top_send = (fun o c m -> a.Exec.p_top_send o c m; b.Exec.p_top_send o c m);
    p_self_send = (fun o c m -> a.Exec.p_self_send o c m; b.Exec.p_self_send o c m);
    p_enter =
      (fun o c ~resolve_at ~defining m ->
        a.Exec.p_enter o c ~resolve_at ~defining m;
        b.Exec.p_enter o c ~resolve_at ~defining m);
    p_exit = (fun o c m -> a.Exec.p_exit o c m; b.Exec.p_exit o c m);
    p_read =
      (fun o c f ~versioned ->
        a.Exec.p_read o c f ~versioned;
        b.Exec.p_read o c f ~versioned);
    p_write =
      (fun o c f ~versioned ->
        a.Exec.p_write o c f ~versioned;
        b.Exec.p_write o c f ~versioned);
  }

let result_to_json name policy (r : Engine.result) =
  Json.Obj
    [
      ("scheme", Json.String name);
      ("policy", Json.String (Engine.policy_name policy));
      ("commits", Json.Int r.Engine.commits);
      ("deadlocks", Json.Int r.Engine.deadlocks);
      ("aborts", Json.Int r.Engine.aborts);
      ("restarts", Json.Int r.Engine.restarts);
      ("scheduler_steps", Json.Int r.Engine.scheduler_steps);
      ("serializable", Json.Bool (Engine.serializable r));
      ("lock_stats", Tavcc_lock.Lock_table.stats_to_json r.Engine.lock_stats);
      ( "failed",
        Json.List
          (List.map
             (fun (id, msg) -> Json.Obj [ ("txn", Json.Int id); ("error", Json.String msg) ])
             r.Engine.failed) );
    ]

let print_result name (r : Engine.result) =
  Printf.printf
    "%-12s commits=%-4d deadlocks=%-4d aborts=%-4d restarts=%-4d reqs=%-6d waits=%-5d \
     conversions=%-5d steps=%-6d serializable=%b\n"
    name r.Engine.commits r.Engine.deadlocks r.Engine.aborts r.Engine.restarts
    r.Engine.lock_requests r.Engine.lock_waits r.Engine.lock_conversions
    r.Engine.scheduler_steps (Engine.serializable r);
  List.iter (fun (id, msg) -> Printf.printf "  txn %d FAILED: %s\n" id msg) r.Engine.failed

(* --- run: random workloads on generated schemas --- *)

let run_cmd =
  let run scheme_names seed txns actions depth fanout per_class extent_prob hot yield policy
      metrics_fmt trace_out data_dir pool_pages =
    if pool_pages <> None && data_dir = None then
      usage_error "run" "--pool-pages is only meaningful with --data-dir";
    let json_mode = metrics_fmt = Some `Json in
    let rng = Rng.create seed in
    let schema =
      Workload.make_schema rng
        { Workload.default_params with sp_depth = depth; sp_fanout = fanout }
    in
    let analysis_metrics = Option.map (fun _ -> Metrics.create ()) metrics_fmt in
    let an = Tavcc_core.Analysis.compile ?metrics:analysis_metrics schema in
    if not json_mode then
      Printf.printf
        "schema: %d classes, %d analysed methods; %d instances per class; %d txns x %d \
         actions; seed %d\n\n"
        (Schema.class_count schema)
        (Tavcc_core.Analysis.method_count an)
        per_class txns actions seed;
    let names = if scheme_names = [] then List.map fst schemes else scheme_names in
    let runs =
      List.map
        (fun name ->
          let mk = List.assoc name schemes in
          let eng =
            match data_dir with
            | None -> None
            | Some dir ->
                (* One sub-store per scheme, wiped fresh: the seeded
                   workload must replay against identical oids. *)
                let sub = Filename.concat dir name in
                rm_rf sub;
                Some
                  (Storage.create
                     { (storage_config ~dir:sub ~pool_pages) with
                       Storage.self_journal = false })
          in
          let store =
            match eng with None -> Store.create schema | Some e -> Storage.store e schema
          in
          Workload.populate store ~per_class;
          let jobs =
            Workload.random_jobs (Rng.create (seed + 1)) store ~txns ~actions_per_txn:actions
              ~extent_prob ~hot_instances:hot ~hot_prob:0.7
          in
          let metrics = Option.map (fun _ -> Metrics.create ()) metrics_fmt in
          let sink =
            if trace_out <> None then Sink.ring 1_000_000 else Sink.null
          in
          let hooks =
            match eng with
            | None -> Engine.no_hooks
            | Some e ->
                { Engine.no_hooks with Engine.hk_observe = Some (Storage.observe e) }
          in
          let config =
            { Engine.default_config with seed; yield_on_access = yield; policy; sink;
              metrics; hooks }
          in
          let r = Engine.run ~config ~scheme:(mk an) ~store ~jobs () in
          let st =
            Option.map
              (fun e ->
                let st = Storage.stats e in
                Storage.close e;
                st)
              eng
          in
          if not json_mode then begin
            print_result name r;
            Option.iter print_storage_stats st;
            match metrics with
            | Some m -> Format.printf "%a@." Metrics.pp m
            | None -> ()
          end;
          (name, r, metrics, st))
        names
    in
    (match trace_out with
    | None -> ()
    | Some file ->
        (* One pid per scheme, labelled, all in a single trace. *)
        let events =
          List.concat
            (List.mapi
               (fun pid (name, r, _, _) ->
                 Trace.process_name ~pid name :: Engine_trace.to_trace ~pid r.Engine.events)
               runs)
        in
        write_file file (Trace.to_string events);
        if not json_mode then
          Printf.printf "wrote %s (%d trace events)\n" file (List.length events));
    if json_mode then begin
      let doc =
        Json.Obj
          [
            ( "schema",
              Json.Obj
                [
                  ("classes", Json.Int (Schema.class_count schema));
                  ("methods", Json.Int (Tavcc_core.Analysis.method_count an));
                  ("instances_per_class", Json.Int per_class);
                  ("txns", Json.Int txns);
                  ("actions_per_txn", Json.Int actions);
                  ("seed", Json.Int seed);
                ] );
            ( "analysis_metrics",
              match analysis_metrics with Some m -> Metrics.to_json m | None -> Json.Null );
            ( "runs",
              Json.List
                (List.map
                   (fun (name, r, metrics, st) ->
                     let extra =
                       (match metrics with
                       | Some m -> [ ("metrics", Metrics.to_json m) ]
                       | None -> [])
                       @
                       match st with
                       | Some st -> [ ("storage", storage_stats_json st) ]
                       | None -> []
                     in
                     match result_to_json name policy r with
                     | Json.Obj kvs -> Json.Obj (kvs @ extra)
                     | j -> j)
                   runs) );
          ]
      in
      print_endline (Json.to_string doc)
    end
    else begin
      match analysis_metrics with
      | Some m -> Format.printf "analysis phases:@.%a@." Metrics.pp m
      | None -> ()
    end;
    0
  in
  let scheme_arg =
    Arg.(value & opt_all scheme_conv [] & info [ "s"; "scheme" ] ~docv:"SCHEME"
           ~doc:"Scheme to simulate (repeatable); default: all schemes.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let txns = Arg.(value & opt int 8 & info [ "t"; "txns" ] ~docv:"N" ~doc:"Concurrent transactions.") in
  let actions = Arg.(value & opt int 4 & info [ "a"; "actions" ] ~docv:"N" ~doc:"Actions per transaction.") in
  let depth = Arg.(value & opt int 3 & info [ "depth" ] ~docv:"N" ~doc:"Inheritance depth.") in
  let fanout = Arg.(value & opt int 2 & info [ "fanout" ] ~docv:"N" ~doc:"Subclasses per class.") in
  let per_class = Arg.(value & opt int 4 & info [ "instances" ] ~docv:"N" ~doc:"Instances per class.") in
  let extent_prob =
    Arg.(value & opt float 0.15 & info [ "extent-prob" ] ~docv:"P" ~doc:"Probability of an extent scan.")
  in
  let hot = Arg.(value & opt int 3 & info [ "hot" ] ~docv:"N" ~doc:"Hot-set size.") in
  let yield =
    Arg.(value & opt bool true & info [ "interleave" ] ~docv:"BOOL"
           ~doc:"Reschedule at every field access.")
  in
  let doc = "simulate a random workload under one or more schemes" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ scheme_arg $ seed $ txns $ actions $ depth $ fanout $ per_class $ extent_prob
      $ hot $ yield $ policy_arg $ metrics_arg $ trace_out_arg $ data_dir_arg
      $ pool_pages_arg)

(* --- par: the multicore driver on the contended slice workload --- *)

(* Scheme names become Prometheus prefixes; keep only name chars. *)
let prom_prefix name =
  "tavcc_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

let par_cmd =
  let run scheme_names domains shards seed txns actions methods work instances hot read_frac
      policy check sanitize metrics_fmt trace_out profile top_k prom_out =
    if top_k <> None && not profile then
      usage_error "par" "--top is only meaningful with --profile";
    let top_k = Option.value ~default:10 top_k in
    let json_mode = metrics_fmt = Some `Json in
    let readers = if read_frac > 0. then methods else 0 in
    let schema = Workload.slice_schema ~readers ~methods ~work () in
    let an = Tavcc_core.Analysis.compile schema in
    if not json_mode then
      Printf.printf
        "par: %d domains, %d shards, %d txns x %d actions, %d slices x %d writes, %d grid \
         instances (hot %d), read-frac %.2f, policy %s, seed %d%s%s\n\n"
        domains shards txns actions methods work instances hot read_frac
        (Engine.policy_name policy) seed
        (if check then ", serializability check on" else "")
        (if sanitize then ", sanitizer on" else "");
    let names = if scheme_names = [] then [ "rw-msg"; "tav" ] else scheme_names in
    let runs =
      List.map
        (fun name ->
          let mk = List.assoc name schemes in
          let store = Store.create schema in
          Workload.populate store ~per_class:instances;
          let jobs =
            Workload.mixed_slice_jobs (Rng.create (seed + 1)) store ~txns
              ~actions_per_txn:actions ~hot_instances:hot ~read_frac
          in
          let metrics =
            if metrics_fmt <> None || prom_out <> None then Some (Metrics.create ())
            else None
          in
          (* One event stream per scheme: its own rings, its own pid in
             the merged trace. *)
          let obs =
            if trace_out <> None || profile then
              Some (Par_obs.create ~keep_events:(trace_out <> None) ~domains ())
            else None
          in
          (* One recorder and one monitor per worker domain: the probes run
             on the workers' hot path and must not share mutable state. *)
          let san_state =
            if sanitize then
              let recorders = Array.init domains (fun _ -> Recorder.create ()) in
              let mons =
                if Monitor.supported name then
                  Some (Array.init domains (fun _ -> Monitor.create ~scheme:name an))
                else None
              in
              Some (recorders, mons)
            else None
          in
          let probe =
            Option.map
              (fun (recorders, mons) ~dom ~txn ~holds ->
                let rp = Recorder.probe recorders.(dom) ~txn in
                match mons with
                | None -> rp
                | Some ms -> both_probes rp (Monitor.probe ms.(dom) ~txn ~holds))
              san_state
          in
          let config =
            {
              Par_engine.default_config with
              domains;
              shards;
              policy;
              record_history = check;
              metrics;
              obs;
              probe;
            }
          in
          let r = Par_engine.run ~config ~scheme:(mk an) ~store ~jobs () in
          let san =
            Option.map
              (fun (recorders, mons) ->
                let merged = Recorder.create () in
                Array.iter (fun rc -> Recorder.merge_into ~dst:merged rc) recorders;
                let conform = Conform.check ~an merged in
                let checked, viols, vdiags =
                  match mons with
                  | None -> (0, 0, [])
                  | Some ms ->
                      Array.fold_left
                        (fun (c, v, ds) m ->
                          let ds' =
                            List.map (Monitor.to_diag m) (Monitor.drain m)
                          in
                          (c + Monitor.checked m, v + Monitor.violations m, ds @ ds'))
                        (0, 0, []) ms
                in
                (checked, viols, List.sort Diag.render_compare vdiags, conform))
              san_state
          in
          if not json_mode then begin
            Format.printf "%-12s %a%s@." name Par_engine.pp_result r
              (if check then
                 Printf.sprintf " serializable=%b" (Par_engine.serializable r)
               else "");
            List.iter
              (fun (id, msg) -> Printf.printf "  txn %d FAILED: %s\n" id msg)
              r.Par_engine.failed;
            (match san with
            | None -> ()
            | Some (checked, viols, vdiags, conform) ->
                Printf.printf
                  "  sanitize: lock-checked=%d violations=%d; conformance: %d checks over \
                   %d dav + %d tav sites, %d diags\n"
                  checked viols conform.Conform.r_checks conform.Conform.r_dav_sites
                  conform.Conform.r_tav_sites
                  (List.length conform.Conform.r_diags);
                List.iteri
                  (fun i d -> if i < 10 then Format.printf "    %a@." Diag.pp d)
                  vdiags;
                List.iter
                  (fun d -> Format.printf "    %a@." Diag.pp d)
                  conform.Conform.r_diags);
            (match metrics with
            | Some m when metrics_fmt <> None -> Format.printf "%a@." Metrics.pp m
            | _ -> ());
            match obs with
            | Some o when profile ->
                Format.printf "contention (%s):@.%a@." name
                  (Tavcc_obs.Contention.pp ~key:Par_obs.res_key ~k:top_k)
                  (Par_obs.contention o)
            | _ -> ()
          end;
          (name, r, metrics, obs, san))
        names
    in
    (match trace_out with
    | None -> ()
    | Some file ->
        let events =
          List.concat
            (List.mapi
               (fun pid (name, _, _, obs, _) ->
                 match obs with
                 | None -> []
                 | Some o -> Trace.process_name ~pid name :: Par_obs.to_trace ~pid o)
               runs)
        in
        write_file file (Trace.to_string events);
        let dropped =
          List.fold_left
            (fun acc (_, _, _, obs, _) ->
              acc + match obs with Some o -> Par_obs.dropped o | None -> 0)
            0 runs
        in
        if not json_mode then
          Printf.printf "wrote %s (%d trace events%s)\n" file (List.length events)
            (if dropped > 0 then Printf.sprintf ", %d ring overflows" dropped else ""));
    (match prom_out with
    | None -> ()
    | Some file ->
        let text =
          String.concat ""
            (List.filter_map
               (fun (name, _, metrics, _, _) ->
                 Option.map (Metrics.to_prometheus ~prefix:(prom_prefix name)) metrics)
               runs)
        in
        write_file file text;
        if not json_mode then Printf.printf "wrote %s\n" file);
    if json_mode then begin
      let doc =
        Json.Obj
          [
            ( "config",
              Json.Obj
                [
                  ("domains", Json.Int domains);
                  ("shards", Json.Int shards);
                  ("txns", Json.Int txns);
                  ("actions_per_txn", Json.Int actions);
                  ("slices", Json.Int methods);
                  ("work", Json.Int work);
                  ("instances", Json.Int instances);
                  ("hot", Json.Int hot);
                  ("read_frac", Json.Float read_frac);
                  ("policy", Json.String (Engine.policy_name policy));
                  ("seed", Json.Int seed);
                ] );
            ( "runs",
              Json.List
                (List.map
                   (fun (name, (r : Par_engine.result), metrics, obs, san) ->
                     Json.Obj
                       ([
                          ("scheme", Json.String name);
                          ("commits", Json.Int r.Par_engine.commits);
                          ("aborts", Json.Int r.Par_engine.aborts);
                          ("deadlocks", Json.Int r.Par_engine.deadlocks);
                          ("wounds", Json.Int r.Par_engine.wounds);
                          ("died", Json.Int r.Par_engine.died);
                          ("timeouts", Json.Int r.Par_engine.timeouts);
                          ("restarts", Json.Int r.Par_engine.restarts);
                          ("snapshot_commits", Json.Int r.Par_engine.snapshot_commits);
                          ("snapshot_aborts", Json.Int r.Par_engine.snapshot_aborts);
                          ("occ_commits", Json.Int r.Par_engine.occ_commits);
                          ( "occ_validation_failures",
                            Json.Int r.Par_engine.occ_validation_failures );
                          ("wall_seconds", Json.Float r.Par_engine.wall_seconds);
                          ("txns_per_sec", Json.Float r.Par_engine.throughput);
                          ("serializable", Json.Bool (Par_engine.serializable r));
                          ( "failed",
                            Json.List
                              (List.map
                                 (fun (id, msg) ->
                                   Json.Obj
                                     [
                                       ("txn", Json.Int id); ("error", Json.String msg);
                                     ])
                                 r.Par_engine.failed) );
                          ( "lock_stats",
                            Tavcc_lock.Lock_table.stats_to_json r.Par_engine.lock_stats );
                        ]
                       @ (match metrics with
                         | Some m -> [ ("metrics", Metrics.to_json m) ]
                         | None -> [])
                       @ (match san with
                         | None -> []
                         | Some (checked, viols, vdiags, conform) ->
                             [
                               ( "sanitize",
                                 Json.Obj
                                   [
                                     ("lock_checked", Json.Int checked);
                                     ("lock_violations", Json.Int viols);
                                     ( "lock_diags",
                                       Json.List (List.map Diag.to_json vdiags) );
                                     ( "conformance_checks",
                                       Json.Int conform.Conform.r_checks );
                                     ("dav_sites", Json.Int conform.Conform.r_dav_sites);
                                     ("tav_sites", Json.Int conform.Conform.r_tav_sites);
                                     ( "conformance_diags",
                                       Json.List
                                         (List.map Diag.to_json
                                            conform.Conform.r_diags) );
                                   ] );
                             ])
                       @
                       match obs with
                       | Some o when profile ->
                           [
                             ( "contention",
                               Tavcc_obs.Contention.to_json ~key:Par_obs.res_key ~k:top_k
                                 (Par_obs.contention o) );
                           ]
                       | _ -> []))
                   runs) );
          ]
      in
      print_endline (Json.to_string doc)
    end;
    let san_bad =
      List.exists
        (fun (_, _, _, _, san) ->
          match san with
          | Some (_, viols, _, conform) ->
              viols > 0 || conform.Conform.r_diags <> []
          | None -> false)
        runs
    in
    if List.exists (fun (_, r, _, _, _) -> r.Par_engine.failed <> []) runs || san_bad then 1
    else 0
  in
  let scheme_arg =
    Arg.(value & opt_all scheme_conv []
         & info [ "s"; "scheme" ] ~docv:"SCHEME"
             ~doc:"Scheme to run (repeatable); default: rw-msg and tav.")
  in
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let shards =
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"N" ~doc:"Lock-manager shards.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let txns =
    Arg.(value & opt int 200 & info [ "t"; "txns" ] ~docv:"N" ~doc:"Transactions to run.")
  in
  let actions =
    Arg.(value & opt int 4 & info [ "a"; "actions" ] ~docv:"N" ~doc:"Actions per transaction.")
  in
  let methods =
    Arg.(value & opt int 16 & info [ "slices" ] ~docv:"N"
         ~doc:"Disjoint field slices (methods) of the grid class.")
  in
  let work =
    Arg.(value & opt int 8 & info [ "work" ] ~docv:"N"
         ~doc:"Read-modify-writes per method call.")
  in
  let instances =
    Arg.(value & opt int 4 & info [ "instances" ] ~docv:"N" ~doc:"Grid instances.")
  in
  let hot =
    Arg.(value & opt int 2 & info [ "hot" ] ~docv:"N" ~doc:"Hot-set size (contention knob).")
  in
  let read_frac =
    Arg.(value & opt float 0. & info [ "read-frac" ] ~docv:"F"
         ~doc:"Fraction of transactions that are read-only (adds reader methods to the \
                 grid schema; snapshot-eligible under mvcc-tav).")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
         ~doc:"Record the field-access history (serialises the hot path) and report the \
                 conflict-serializability verdict.")
  in
  let sanitize =
    Arg.(value & flag & info [ "sanitize" ]
         ~doc:"Attach the soundness sanitizer: one access-vector recorder and one \
               lock-coverage monitor per worker domain, merged and checked after the run \
               (observed-vs-static conformance plus lock domination under the scheme's \
               vocabulary).  Any violation makes the exit status nonzero.  Synthesized \
               workload schemas carry no source positions, so diagnostics name sites \
               without line:col.")
  in
  let par_trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON file of the run(s): one track per worker \
                   domain plus the detector track, wait spans, kill instants, and flow \
                   arrows linking each blocked request to the grant (or wound) that ended \
                   its wait.  Timestamps are microseconds; with several schemes each gets \
                   its own pid.  Open in Perfetto or chrome://tracing.")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Attribute cumulative wait time, queue depth and kills to the contended \
                   resources and print the hottest ones per scheme (JSON mode: a \
                   $(b,contention) object per run).")
  in
  let top_k =
    Arg.(value & opt (some int) None
         & info [ "top" ] ~docv:"K"
             ~doc:"Resources to list with $(b,--profile) (default 10); an error without it.")
  in
  let prom_out =
    Arg.(value & opt (some string) None
         & info [ "prom-out" ] ~docv:"FILE"
             ~doc:"Write the metrics registries as Prometheus text exposition (one \
                   $(b,tavcc_<scheme>_) section per scheme); implies metrics collection.")
  in
  let doc = "run the contended slice workload on real domains (multicore)" in
  Cmd.v (Cmd.info "par" ~doc)
    Term.(
      const run $ scheme_arg $ domains $ shards $ seed $ txns $ actions $ methods $ work
      $ instances $ hot $ read_frac $ policy_arg $ check $ sanitize $ metrics_arg
      $ par_trace_out $ profile $ top_k $ prom_out)

(* --- top: live introspection of a running multicore workload --- *)

let top_cmd =
  let run scheme_name domains shards seed txns actions methods work instances hot read_frac
      policy refresh_ms iterations prom_out =
    let readers = if read_frac > 0. then methods else 0 in
    let schema = Workload.slice_schema ~readers ~methods ~work () in
    let an = Tavcc_core.Analysis.compile schema in
    let mk = List.assoc scheme_name schemes in
    let metrics = Metrics.create () in
    let obs = Par_obs.create ~keep_events:false ~domains () in
    let config =
      {
        Par_engine.default_config with
        domains;
        shards;
        policy;
        metrics = Some metrics;
        obs = Some obs;
      }
    in
    (* The workload runs on its own domain tree; this domain only reads
       the shared registry and the contention profiler (both are safe to
       poll: atomic cells and an internal mutex). *)
    let done_ = Atomic.make false in
    let last = Atomic.make None in
    let runner =
      Domain.spawn (fun () ->
          Fun.protect
            ~finally:(fun () -> Atomic.set done_ true)
            (fun () ->
              for it = 1 to max 1 iterations do
                let store = Store.create schema in
                Workload.populate store ~per_class:instances;
                let jobs =
                  Workload.mixed_slice_jobs (Rng.create (seed + it)) store ~txns
                    ~actions_per_txn:actions ~hot_instances:hot ~read_frac
                in
                let r = Par_engine.run ~config ~scheme:(mk an) ~store ~jobs () in
                Atomic.set last (Some r)
              done))
    in
    let t0 = Unix.gettimeofday () in
    let tty = Unix.isatty Unix.stdout in
    let c name = Metrics.counter metrics name in
    let commits = c "par.commits"
    and aborts = c "par.aborts"
    and restarts = c "par.restarts"
    and deadlocks = c "par.deadlocks"
    and wounds = c "par.wounds"
    and timeouts = c "par.timeouts" in
    let busy = Array.init domains (fun d -> c (Printf.sprintf "par.dom%d.busy_us" d)) in
    let txn_us = Metrics.histogram metrics "par.txn_us" in
    let snapshot ~final () =
      if tty && not final then print_string "\027[H\027[2J";
      let elapsed = Unix.gettimeofday () -. t0 in
      Printf.printf "oosim top — %s, %d domains, %d shards, policy %s, %.1fs%s\n"
        scheme_name domains shards (Engine.policy_name policy) elapsed
        (if final then " (done)" else "");
      Printf.printf
        "  commits=%d aborts=%d restarts=%d deadlocks=%d wounds=%d timeouts=%d\n"
        (Metrics.value commits) (Metrics.value aborts) (Metrics.value restarts)
        (Metrics.value deadlocks) (Metrics.value wounds) (Metrics.value timeouts);
      let el_us = Float.max 1.0 (elapsed *. 1e6) in
      Printf.printf "  utilisation:%s\n"
        (String.concat ""
           (List.init domains (fun d ->
                Printf.sprintf " dom%d %3.0f%%" d
                  (100.0 *. float_of_int (Metrics.value busy.(d)) /. el_us))));
      Printf.printf "  txn_us: n=%d p50=%.0f p95=%.0f p99=%.0f max=%d\n"
        (Metrics.count txn_us)
        (Metrics.quantile txn_us 0.50)
        (Metrics.quantile txn_us 0.95)
        (Metrics.quantile txn_us 0.99)
        (Metrics.max_value txn_us);
      Format.printf "%a@?"
        (Tavcc_obs.Contention.pp ~key:Par_obs.res_key ~k:5)
        (Par_obs.contention obs);
      flush stdout
    in
    while not (Atomic.get done_) do
      snapshot ~final:false ();
      Unix.sleepf (float_of_int (max 20 refresh_ms) /. 1000.)
    done;
    Domain.join runner;
    snapshot ~final:true ();
    (match Atomic.get last with
    | Some r -> Format.printf "%a@." Par_engine.pp_result r
    | None -> ());
    (match prom_out with
    | None -> ()
    | Some file ->
        write_file file (Metrics.to_prometheus metrics);
        Printf.printf "wrote %s\n" file);
    0
  in
  let scheme_arg =
    Arg.(value & opt scheme_conv "tav"
         & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc:"Scheme to run (default tav).")
  in
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let shards =
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"N" ~doc:"Lock-manager shards.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let txns =
    Arg.(value & opt int 1000 & info [ "t"; "txns" ] ~docv:"N"
         ~doc:"Transactions per iteration.")
  in
  let actions =
    Arg.(value & opt int 4 & info [ "a"; "actions" ] ~docv:"N" ~doc:"Actions per transaction.")
  in
  let methods =
    Arg.(value & opt int 16 & info [ "slices" ] ~docv:"N"
         ~doc:"Disjoint field slices (methods) of the grid class.")
  in
  let work =
    Arg.(value & opt int 8 & info [ "work" ] ~docv:"N"
         ~doc:"Read-modify-writes per method call.")
  in
  let instances =
    Arg.(value & opt int 4 & info [ "instances" ] ~docv:"N" ~doc:"Grid instances.")
  in
  let hot =
    Arg.(value & opt int 2 & info [ "hot" ] ~docv:"N" ~doc:"Hot-set size (contention knob).")
  in
  let read_frac =
    Arg.(value & opt float 0. & info [ "read-frac" ] ~docv:"F"
         ~doc:"Fraction of read-only transactions.")
  in
  let refresh_ms =
    Arg.(value & opt int 200 & info [ "refresh-ms" ] ~docv:"MS"
         ~doc:"Snapshot refresh period (min 20).")
  in
  let iterations =
    Arg.(value & opt int 1 & info [ "iterations" ] ~docv:"N"
         ~doc:"Workload repetitions — raise to keep the display live longer; counters \
               and the contention profile accumulate across iterations.")
  in
  let prom_out =
    Arg.(value & opt (some string) None
         & info [ "prom-out" ] ~docv:"FILE"
             ~doc:"On exit, write the registry as Prometheus text exposition.")
  in
  let doc = "live in-terminal view of a running multicore workload (commits, per-domain \
             utilisation, latency quantiles, hottest resources)" in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const run $ scheme_arg $ domains $ shards $ seed $ txns $ actions $ methods $ work
      $ instances $ hot $ read_frac $ policy_arg $ refresh_ms $ iterations $ prom_out)

(* --- scenario: the sec. 5.2 comparison --- *)

let scenario_cmd =
  let run () =
    List.iter
      (fun (_, mk) ->
        Format.printf "%a@." Tavcc_cc.Scenario.pp (Tavcc_cc.Scenario.evaluate mk))
      schemes;
    0
  in
  let doc = "evaluate the paper's sec. 5.2 four-transaction scenario" in
  Cmd.v (Cmd.info "scenario" ~doc) Term.(const run $ const ())

(* --- escalation: the deadlock demonstration --- *)

let escalation_cmd =
  let run seed txns levels policy trace trace_out =
    let schema = Workload.chain_schema ~levels in
    let an = Tavcc_core.Analysis.compile schema in
    Printf.printf
      "reader-then-writer cascade of depth %d, %d transactions on one instance, seed %d\n\n"
      levels txns seed;
    let runs =
      List.map
        (fun (name, mk) ->
          let store = Store.create schema in
          let oid = Store.new_instance store (Name.Class.of_string "chain") in
          let top = Name.Method.of_string (Printf.sprintf "m%d" levels) in
          let jobs =
            List.init txns (fun i -> (i + 1, [ Exec.Call (oid, top, [ Value.Vint 1 ]) ]))
          in
          let sink =
            if trace || trace_out <> None then Sink.ring 1_000_000 else Sink.null
          in
          let config =
            { Engine.default_config with seed; yield_on_access = true; policy; sink }
          in
          let r = Engine.run ~config ~scheme:(mk an) ~store ~jobs () in
          print_result name r;
          if trace then
            List.iter
              (fun (step, e) -> Format.printf "    [%4d] %a@." step Engine.pp_event e)
              r.Engine.events;
          (name, r))
        schemes
    in
    (match trace_out with
    | None -> ()
    | Some file ->
        let events =
          List.concat
            (List.mapi
               (fun pid (name, r) ->
                 Trace.process_name ~pid name :: Engine_trace.to_trace ~pid r.Engine.events)
               runs)
        in
        write_file file (Trace.to_string events);
        Printf.printf "wrote %s (%d trace events)\n" file (List.length events));
    0
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let txns = Arg.(value & opt int 6 & info [ "t"; "txns" ] ~docv:"N" ~doc:"Concurrent transactions.") in
  let levels = Arg.(value & opt int 3 & info [ "depth" ] ~docv:"N" ~doc:"Self-call cascade depth.") in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the engine's event log for each scheme.")
  in
  let doc = "demonstrate escalation deadlocks (problem P3)" in
  Cmd.v (Cmd.info "escalation" ~doc)
    Term.(const run $ seed $ txns $ levels $ policy_arg $ trace $ trace_out_arg)

(* --- chaos: fault injection, schedule exploration, crash torture --- *)

let chaos_cmd =
  let run workload_names scheme_names seed runs budget_ms systematic preemptions
      policy replay json out =
    (match replay with
    | Some _ ->
        (* Replay is one deterministic run: exploration knobs don't apply. *)
        if runs <> None then usage_error "chaos" "--runs is ignored by --replay";
        if budget_ms <> None then usage_error "chaos" "--budget-ms is ignored by --replay";
        if systematic then usage_error "chaos" "--systematic is ignored by --replay";
        if preemptions <> None then
          usage_error "chaos" "--preemptions is ignored by --replay";
        if out <> None then usage_error "chaos" "--out is ignored by --replay"
    | None ->
        if preemptions <> None && not systematic then
          usage_error "chaos" "--preemptions is only meaningful with --systematic");
    let runs = Option.value ~default:20 runs in
    let budget_ms = Option.value ~default:0 budget_ms in
    let preemptions = Option.value ~default:2 preemptions in
    let out = Option.value ~default:"chaos_counterexample.txt" out in
    let select names all kind =
      List.map
        (fun n ->
          match List.assoc_opt n all with
          | Some v -> (n, v)
          | None ->
              Printf.eprintf "oosim chaos: unknown %s %S (expected %s)\n" kind n
                (String.concat ", " (List.map fst all));
              exit 2)
        names
    in
    let workloads_all =
      [
        ("escalation", Torture.escalation_workload ());
        ("slices", Torture.slices_workload ());
        ("mixed", Torture.mixed_slices_workload ());
        ("random", Torture.random_workload ());
      ]
    in
    let workloads =
      match workload_names with
      | [] | [ "all" ] -> workloads_all
      | names -> select names workloads_all "workload"
    in
    let schemes_sel =
      match scheme_names with
      | [] -> schemes
      | names -> select names schemes "scheme"
    in
    let deadline = Unix.gettimeofday () +. (float_of_int budget_ms /. 1000.) in
    let within_budget () = budget_ms <= 0 || Unix.gettimeofday () < deadline in
    let policy_name = Engine.policy_name policy in
    let torture sname mk w (c : Explore.case) =
      Torture.run ~policy ~scheme_name:sname ~scheme:mk ~workload:w
        ~seed:c.Explore.c_seed ~plan:c.Explore.c_plan ()
    in
    match replay with
    | Some plan_str ->
        (* Replay mode: one deterministic run per selected combination. *)
        let plan =
          try Fault.of_string plan_str
          with Invalid_argument msg ->
            Printf.eprintf "oosim chaos: %s\n" msg;
            exit 2
        in
        let case = { Explore.c_seed = seed; c_plan = plan } in
        let all_ok = ref true in
        List.iter
          (fun (_, w) ->
            List.iter
              (fun (sname, mk) ->
                let r = torture sname mk w case in
                if json then print_endline (Json.to_string (Torture.report_to_json r))
                else Format.printf "%a@." Torture.pp_report r;
                if not (Torture.ok r) then all_ok := false)
              schemes_sel)
          workloads;
        if !all_ok then 0 else 1
    | None ->
        (* Exploration mode: randomized cases (plus optional systematic
           bounded-preemption perturbations of the sticky schedule) until
           a failure, the run count, or the budget is exhausted. *)
        let total_runs = ref 0
        and total_crash = ref 0
        and total_torn = ref 0
        and total_violations = ref 0 in
        let per = ref [] in
        let counterexample = ref None in
        List.iter
          (fun (wname, w) ->
            List.iter
              (fun (sname, mk) ->
                if !counterexample = None then begin
                  let combo_runs = ref 0
                  and combo_crash = ref 0
                  and combo_torn = ref 0
                  and combo_violations = ref 0 in
                  let txns = List.map fst (snd (w.Torture.w_build ())) in
                  let base = { Explore.c_seed = seed;
                               c_plan = { Fault.injections = []; schedule = Fault.Fixed [] } } in
                  let run_one c =
                    incr total_runs;
                    incr combo_runs;
                    let r = torture sname mk w c in
                    combo_crash := !combo_crash + r.Torture.r_crash_points;
                    combo_torn := !combo_torn + r.Torture.r_torn_points;
                    combo_violations :=
                      !combo_violations + List.length r.Torture.r_violations;
                    total_crash := !total_crash + r.Torture.r_crash_points;
                    total_torn := !total_torn + r.Torture.r_torn_points;
                    total_violations :=
                      !total_violations + List.length r.Torture.r_violations;
                    r
                  in
                  let base_report = run_one base in
                  (* Cross-driver differential: the same jobs through the
                     multicore engine pinned to one domain must land on
                     the same final state. *)
                  let par_violations =
                    Torture.par_differential ~scheme_name:sname ~scheme:mk
                      ~workload:w ~expect:base_report.Torture.r_final_dump ()
                  in
                  List.iter (fun v -> Printf.eprintf "chaos: %s\n" v) par_violations;
                  combo_violations := !combo_violations + List.length par_violations;
                  total_violations := !total_violations + List.length par_violations;
                  let cases =
                    Explore.random_cases ~base_seed:seed ~runs ~txns
                    @ (if systematic then
                         Explore.systematic_cases ~seed
                           ~ready_sizes:base_report.Torture.r_ready_sizes
                           ~preemptions ~max_cases:runs
                       else [])
                  in
                  let failing = ref (if Torture.ok base_report then None
                                     else Some (base, base_report)) in
                  List.iter
                    (fun c ->
                      if !failing = None && within_budget () then begin
                        let r = run_one c in
                        if not (Torture.ok r) then failing := Some (c, r)
                      end)
                    cases;
                  (match !failing with
                  | None -> ()
                  | Some (c, r) ->
                      (* Shrink quietly (no stats), then report. *)
                      let shrunk =
                        Explore.shrink
                          ~run:(fun c -> Torture.ok (torture sname mk w c))
                          c
                      in
                      let cmd =
                        Explore.to_command ~workload:wname ~scheme:sname
                          ~policy:policy_name shrunk
                      in
                      counterexample := Some (cmd, r));
                  per :=
                    (wname, sname, !combo_runs, !combo_crash, !combo_torn,
                     !combo_violations)
                    :: !per;
                  if not json then
                    Printf.printf
                      "%-10s %-10s %4d runs  %6d crash points  %4d torn points  %d violations\n%!"
                      wname sname !combo_runs !combo_crash !combo_torn
                      !combo_violations
                end)
              schemes_sel)
          workloads;
        (match !counterexample with
        | None -> if not json then Printf.printf "chaos: no counterexample found\n"
        | Some (cmd, r) ->
            let text =
              Format.asprintf "# shrunk chaos counterexample@.%s@.@.%a@." cmd
                Torture.pp_report r
            in
            write_file out text;
            if not json then
              Printf.printf "chaos: COUNTEREXAMPLE (written to %s)\n  %s\n" out cmd
            else Printf.eprintf "chaos: counterexample written to %s\n" out);
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ("workloads", Json.Int (List.length workloads));
                    ("schemes", Json.Int (List.length schemes_sel));
                    ("runs", Json.Int !total_runs);
                    ("crash_points", Json.Int !total_crash);
                    ("torn_points", Json.Int !total_torn);
                    ("violations", Json.Int !total_violations);
                    ( "per",
                      Json.List
                        (List.rev_map
                           (fun (w, s, r, c, t, v) ->
                             Json.Obj
                               [
                                 ("workload", Json.String w);
                                 ("scheme", Json.String s);
                                 ("runs", Json.Int r);
                                 ("crash_points", Json.Int c);
                                 ("torn_points", Json.Int t);
                                 ("violations", Json.Int v);
                               ])
                           !per) );
                    ("ok", Json.Bool (!counterexample = None));
                    ( "counterexample",
                      match !counterexample with
                      | None -> Json.Null
                      | Some (cmd, _) -> Json.String cmd );
                  ]));
        if !counterexample = None then 0 else 1
  in
  let workload_arg =
    Arg.(value & opt_all string []
         & info [ "workload" ] ~docv:"NAME"
             ~doc:"Workload(s) to torture: escalation, slices, mixed, random, or all \
                   (default all; repeatable).")
  in
  let scheme_arg =
    Arg.(value & opt_all string []
         & info [ "scheme" ] ~docv:"NAME"
             ~doc:"Concurrency-control scheme(s) (default all; repeatable).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Base seed.") in
  let runs =
    Arg.(value & opt (some int) None
         & info [ "runs" ] ~docv:"N"
             ~doc:"Random cases per (workload, scheme) combination (default 20).")
  in
  let budget_ms =
    Arg.(value & opt (some int) None
         & info [ "budget-ms" ] ~docv:"MS"
             ~doc:"Stop launching new cases after this many milliseconds (default 0 = no \
                   limit).")
  in
  let systematic =
    Arg.(value & flag
         & info [ "systematic" ]
             ~doc:"Also enumerate bounded-preemption perturbations of the sticky \
                   schedule.")
  in
  let preemptions =
    Arg.(value & opt (some int) None
         & info [ "preemptions" ] ~docv:"N"
             ~doc:"Preemption bound for $(b,--systematic) (default 2); an error without it.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"PLAN"
             ~doc:"Replay one fault plan (the string printed for a counterexample) \
                   instead of exploring; the exploration flags are errors here.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON summary on stdout.") in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write a shrunk counterexample (default \
                   chaos_counterexample.txt).")
  in
  let doc = "fault-injection and schedule-exploration torture (crash matrix + oracles)" in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ workload_arg $ scheme_arg $ seed $ runs $ budget_ms $ systematic
          $ preemptions $ policy_arg $ replay $ json $ out)

(* --- sanitize: schema-fuzzing differential oracle for the analyzer --- *)

let sanitize_cmd =
  let run schemas seed budget_ms mutate trials min_detection replay json out =
    (match replay with
    | Some _ ->
        (* Replay re-checks one schema file: campaign knobs don't apply. *)
        if schemas <> None then usage_error "sanitize" "--schemas is ignored by --replay";
        if budget_ms <> None then
          usage_error "sanitize" "--budget-ms is ignored by --replay";
        if mutate then usage_error "sanitize" "--mutate is ignored by --replay";
        if trials <> None then usage_error "sanitize" "--trials is ignored by --replay";
        if min_detection <> None then
          usage_error "sanitize" "--min-detection is ignored by --replay";
        if out <> None then usage_error "sanitize" "--out is ignored by --replay"
    | None ->
        if trials <> None && not mutate then
          usage_error "sanitize" "--trials is only meaningful with --mutate";
        if min_detection <> None && not mutate then
          usage_error "sanitize" "--min-detection is only meaningful with --mutate");
    let schemas = Option.value ~default:100 schemas in
    let budget_ms = Option.value ~default:0 budget_ms in
    let trials = Option.value ~default:4 trials in
    let min_detection = Option.value ~default:0. min_detection in
    let out = Option.value ~default:"sanitize_counterexample.odml" out in
    match replay with
    | Some file -> (
        (* Replay mode: re-check one (possibly minimized) schema. *)
        let src = read_file file in
        match Fuzz.check_source src with
        | Fuzz.Sound ->
            if json then
              print_endline
                (Json.to_string
                   (Json.Obj [ ("sound", Json.Bool true); ("diags", Json.List []) ]))
            else Printf.printf "%s: sound (observed within static vectors)\n" file;
            0
        | Fuzz.Unsound diags ->
            if json then
              print_endline
                (Json.to_string
                   (Json.Obj
                      [
                        ("sound", Json.Bool false);
                        ("diags", Json.List (List.map Diag.to_json diags));
                      ]))
            else begin
              Printf.printf "%s: UNSOUND — observed access vectors exceed the static ones\n"
                file;
              List.iter (fun d -> Format.printf "%a@." Diag.pp d) diags
            end;
            1
        | Fuzz.Broken msg ->
            Printf.eprintf "oosim sanitize: %s: %s\n" file msg;
            2)
    | None ->
        (* Campaign mode: fresh random schemas until the count or the
           budget is exhausted, stopping at the first soundness
           counterexample (minimized and written to [out]). *)
        let deadline = Unix.gettimeofday () +. (float_of_int budget_ms /. 1000.) in
        let within_budget () = budget_ms <= 0 || Unix.gettimeofday () < deadline in
        let driven = ref 0
        and checks = ref 0
        and dav_sites = ref 0
        and tav_sites = ref 0 in
        let broken = ref [] in
        let counterexample = ref None in
        let attempted = ref 0
        and detected = ref 0 in
        let missed = ref [] in
        let i = ref 0 in
        while !i < schemas && within_budget () && !counterexample = None do
          let schema_seed = seed + !i in
          let rng = Rng.create schema_seed in
          let src = Fuzz.source (Fuzz.gen_decls rng) in
          (match Fuzz.run_source src with
          | Error msg -> broken := (schema_seed, msg) :: !broken
          | Ok r -> (
              match Fuzz.verdict_of r with
              | Fuzz.Broken msg -> broken := (schema_seed, msg) :: !broken
              | Fuzz.Unsound diags ->
                  write_file out (Fuzz.minimize src);
                  counterexample := Some (schema_seed, diags)
              | Fuzz.Sound ->
                  incr driven;
                  checks := !checks + r.Fuzz.run_result.Conform.r_checks;
                  dav_sites := !dav_sites + r.Fuzz.run_result.Conform.r_dav_sites;
                  tav_sites := !tav_sites + r.Fuzz.run_result.Conform.r_tav_sites;
                  if mutate then
                    for _t = 1 to trials do
                      match Fuzz.gen_mutation rng r with
                      | None -> ()
                      | Some mu ->
                          incr attempted;
                          if Fuzz.mutation_detected r mu then incr detected
                          else
                            missed :=
                              (schema_seed, Format.asprintf "%a" Fuzz.pp_mutation mu)
                              :: !missed
                    done));
          incr i
        done;
        let rate =
          if !attempted = 0 then 1.0 else float_of_int !detected /. float_of_int !attempted
        in
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ("schemas", Json.Int !i);
                    ("driven", Json.Int !driven);
                    ("broken", Json.Int (List.length !broken));
                    ("checks", Json.Int !checks);
                    ("dav_sites", Json.Int !dav_sites);
                    ("tav_sites", Json.Int !tav_sites);
                    ("sound", Json.Bool (!counterexample = None));
                    ( "counterexample",
                      match !counterexample with
                      | None -> Json.Null
                      | Some (s, diags) ->
                          Json.Obj
                            [
                              ("seed", Json.Int s);
                              ("file", Json.String out);
                              ("diags", Json.List (List.map Diag.to_json diags));
                            ] );
                    ( "mutations",
                      Json.Obj
                        [
                          ("attempted", Json.Int !attempted);
                          ("detected", Json.Int !detected);
                          ("rate", Json.Float rate);
                          ( "missed",
                            Json.List
                              (List.rev_map
                                 (fun (s, m) ->
                                   Json.Obj
                                     [
                                       ("seed", Json.Int s);
                                       ("mutation", Json.String m);
                                     ])
                                 !missed) );
                        ] );
                  ]))
        else begin
          Printf.printf
            "sanitize: %d schemas driven (%d broken), %d inclusion checks over %d dav + %d \
             tav sites\n"
            !driven (List.length !broken) !checks !dav_sites !tav_sites;
          List.iter
            (fun (s, msg) -> Printf.printf "  seed %d BROKEN: %s\n" s msg)
            (List.rev !broken);
          (match !counterexample with
          | None -> Printf.printf "sanitize: no soundness counterexample found\n"
          | Some (s, diags) ->
              Printf.printf
                "sanitize: SOUNDNESS COUNTEREXAMPLE at seed %d (minimized schema written \
                 to %s)\n\
                \  replay: oosim sanitize --replay %s\n"
                s out out;
              List.iter (fun d -> Format.printf "  %a@." Diag.pp d) diags);
          if mutate then begin
            Printf.printf "mutations: %d injected, %d detected (%.1f%%)\n" !attempted
              !detected (100. *. rate);
            List.iter
              (fun (s, m) -> Printf.printf "  seed %d MISSED: %s\n" s m)
              (List.rev !missed)
          end
        end;
        if !counterexample <> None then 1
        else if mutate && rate < min_detection then 1
        else 0
  in
  let schemas =
    Arg.(value & opt (some int) None
         & info [ "schemas" ] ~docv:"N"
             ~doc:"Random schemas to generate and drive (default 100).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Base seed.") in
  let budget_ms =
    Arg.(value & opt (some int) None
         & info [ "budget-ms" ] ~docv:"MS"
             ~doc:"Stop starting new schemas after this many milliseconds (default 0 = no \
                   limit).")
  in
  let mutate =
    Arg.(value & flag
         & info [ "mutate" ]
             ~doc:"Also measure the checker's false-negative rate: per sound schema, \
                   deliberately weaken static access-vector entries at exercised sites and \
                   count how many weakenings the conformance check reports.")
  in
  let trials =
    Arg.(value & opt (some int) None
         & info [ "trials" ] ~docv:"N"
             ~doc:"Mutations injected per schema with $(b,--mutate) (default 4); an error \
                   without it.")
  in
  let min_detection =
    Arg.(value & opt (some float) None
         & info [ "min-detection" ] ~docv:"F"
             ~doc:"Exit nonzero when the mutation detection rate falls below $(docv) \
                   (0..1); an error without $(b,--mutate).")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Re-check one ODML schema file (e.g. a written counterexample) instead \
                   of fuzzing; the campaign flags are errors here.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON summary on stdout.") in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write a minimized soundness counterexample (default \
                   sanitize_counterexample.odml).")
  in
  let doc =
    "fuzz random schemas through the dynamic access-vector recorder and assert the \
     analyzer's soundness (observed within static, definitions 6 and 10)"
  in
  Cmd.v (Cmd.info "sanitize" ~doc)
    Term.(
      const run $ schemas $ seed $ budget_ms $ mutate $ trials $ min_detection $ replay
      $ json $ out)

(* --- serve / blast: the network front-end --- *)

let addr_conv =
  let parse s =
    match Wire.addr_of_string s with Ok a -> Ok a | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Wire.addr_to_string a))

let serve_cmd =
  let run scheme_name addr domains shards policy queue_cap max_sessions drain_grace
      slices work instances read_frac metrics_fmt prom_out profile top_k data_dir
      pool_pages =
    if top_k <> None && not profile then
      usage_error "serve" "--top is only meaningful with --profile";
    if pool_pages <> None && data_dir = None then
      usage_error "serve" "--pool-pages is only meaningful with --data-dir";
    let top_k = Option.value ~default:10 top_k in
    (* serve and blast must agree on the workload store byte for byte:
       [Workload.populate] is deterministic, so pinning (slices, work,
       readers, instances) — the digest — guarantees client-generated
       oids resolve on the server. *)
    let readers = if read_frac > 0. then slices else 0 in
    let schema = Workload.slice_schema ~readers ~methods:slices ~work () in
    let an = Tavcc_core.Analysis.compile schema in
    let digest = Wire.workload_digest ~slices ~work ~readers ~instances in
    let store, eng =
      match data_dir with
      | None ->
          let store = Store.create schema in
          Workload.populate store ~per_class:instances;
          (store, None)
      | Some dir ->
          (* Durable serve: the directory is reused across restarts —
             recovery replays the WAL on open, and the deterministic
             populate only runs the first time, so client-generated oids
             keep resolving after a crash. *)
          let e = Storage.create (storage_config ~dir ~pool_pages) in
          let store = Storage.store e schema in
          if (Storage.stats e).Storage.s_instances = 0 then
            Workload.populate store ~per_class:instances
          else
            Printf.printf "oosim serve: recovered %d instances from %s\n%!"
              (Storage.stats e).Storage.s_instances dir;
          (store, Some e)
    in
    let scheme = (List.assoc scheme_name schemes) an in
    let metrics =
      if metrics_fmt <> None || prom_out <> None then Some (Metrics.create ()) else None
    in
    let obs = if profile then Some (Par_obs.create ~domains ()) else None in
    let engine =
      { Par_engine.default_config with domains; shards; policy; metrics; obs;
        journal = Option.map Storage.journal eng }
    in
    let cfg =
      {
        (Server.default_config ~addr ~scheme ~store) with
        Server.digest;
        engine;
        queue_capacity = queue_cap;
        max_sessions;
        drain_grace_s = drain_grace;
      }
    in
    let srv = Server.start cfg in
    let stopped = Atomic.make false in
    let stop _ =
      Atomic.set stopped true;
      Server.request_stop srv
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    (* the readiness line CI polls for — flush it *)
    Printf.printf "oosim serve: listening on %s (scheme %s, %d domains, policy %s)\n%!"
      (Wire.addr_to_string (Server.bound_addr srv))
      scheme_name domains
      (Engine.policy_name policy);
    (* Signal handlers only run on the main thread at safepoints, and a
       main thread parked in Thread.join never reaches one.  Park in a
       sleep poll instead; only enter the join-heavy [Server.wait] once
       the handler has tripped the flag. *)
    while not (Atomic.get stopped) do
      Unix.sleepf 0.1
    done;
    let r = Server.wait srv in
    let st =
      Option.map
        (fun e ->
          let st = Storage.stats e in
          Storage.close e;
          st)
        eng
    in
    let json_mode = metrics_fmt = Some `Json in
    if json_mode then begin
      let doc =
        Json.Obj
          ([
             ("scheme", Json.String scheme_name);
             ("domains", Json.Int domains);
             ("commits", Json.Int r.Par_engine.commits);
             ("aborts", Json.Int r.Par_engine.aborts);
             ("deadlocks", Json.Int r.Par_engine.deadlocks);
             ("restarts", Json.Int r.Par_engine.restarts);
             ("wall_seconds", Json.Float r.Par_engine.wall_seconds);
           ]
          @ (match metrics with
            | Some m -> [ ("metrics", Metrics.to_json m) ]
            | None -> [])
          @ match st with Some st -> [ ("storage", storage_stats_json st) ] | None -> [])
      in
      print_endline (Json.to_string doc)
    end
    else begin
      Format.printf "oosim serve: drained; %a@." Par_engine.pp_result r;
      Option.iter print_storage_stats st;
      match metrics with
      | Some m when metrics_fmt <> None -> Format.printf "%a@." Metrics.pp m
      | _ -> ()
    end;
    (match prom_out with
    | None -> ()
    | Some file ->
        Option.iter
          (fun m -> write_file file (Metrics.to_prometheus ~prefix:(prom_prefix scheme_name) m))
          metrics;
        if not json_mode then Printf.printf "wrote %s\n" file);
    (match obs with
    | Some o when profile ->
        Format.printf "contention:@.%a@."
          (Tavcc_obs.Contention.pp ~key:Par_obs.res_key ~k:top_k)
          (Par_obs.contention o)
    | _ -> ());
    0
  in
  let scheme_arg =
    Arg.(value & opt scheme_conv "tav"
         & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc:"Concurrency-control scheme to serve.")
  in
  let addr =
    Arg.(value & opt addr_conv (Wire.Unix_sock "/tmp/oosim.sock")
         & info [ "addr" ] ~docv:"ADDR"
             ~doc:"Listen address: $(b,unix:PATH) or $(b,tcp:HOST:PORT) (port 0 picks a \
                   free one; the listening line prints the resolved address).")
  in
  let domains =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let shards =
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"N" ~doc:"Lock-manager shards.")
  in
  let queue_cap =
    Arg.(value & opt int 256
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Submission-queue bound; a Run arriving on a full queue is answered \
                   $(b,rejected) (admission control).")
  in
  let max_sessions =
    Arg.(value & opt int 64
         & info [ "max-sessions" ] ~docv:"N" ~doc:"Concurrent client sessions.")
  in
  let drain_grace =
    Arg.(value & opt float 5.0
         & info [ "drain-grace" ] ~docv:"SECONDS"
             ~doc:"Per-session wait for in-flight replies during drain.")
  in
  let slices =
    Arg.(value & opt int 16 & info [ "slices" ] ~docv:"N"
         ~doc:"Disjoint field slices (methods) of the served grid class.")
  in
  let work =
    Arg.(value & opt int 8 & info [ "work" ] ~docv:"N"
         ~doc:"Read-modify-writes per method call.")
  in
  let instances =
    Arg.(value & opt int 4 & info [ "instances" ] ~docv:"N" ~doc:"Grid instances.")
  in
  let read_frac =
    Arg.(value & opt float 0. & info [ "read-frac" ] ~docv:"F"
         ~doc:"Adds reader methods to the served schema when positive (must match the \
                 clients' --read-frac for the digest to agree).")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Print the hottest contended resources after the drain.")
  in
  let top_k =
    Arg.(value & opt (some int) None
         & info [ "top" ] ~docv:"K"
             ~doc:"Resources to list with $(b,--profile) (default 10); an error without it.")
  in
  let prom_out =
    Arg.(value & opt (some string) None
         & info [ "prom-out" ] ~docv:"FILE"
             ~doc:"Write the final metrics registry (engine + net.* counters and the \
                   per-request latency histogram) as Prometheus text exposition; implies \
                   metrics collection.")
  in
  let doc = "serve a workload store over a socket, multiplexing sessions onto domains" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ scheme_arg $ addr $ domains $ shards $ policy_arg $ queue_cap
      $ max_sessions $ drain_grace $ slices $ work $ instances $ read_frac $ metrics_arg
      $ prom_out $ profile $ top_k $ data_dir_arg $ pool_pages_arg)

let blast_cmd =
  let run addr clients requests pipeline seed slices work instances hot actions read_frac =
    let readers = if read_frac > 0. then slices else 0 in
    let digest = Wire.workload_digest ~slices ~work ~readers ~instances in
    (* Each client regenerates the server's deterministic store locally,
       then derives its own job stream from a per-client seed. *)
    let jobs i =
      let schema = Workload.slice_schema ~readers ~methods:slices ~work () in
      let store = Store.create schema in
      Workload.populate store ~per_class:instances;
      let rng = Rng.create (seed + (1_000 * i) + 1) in
      let js =
        Workload.mixed_slice_jobs rng store ~txns:requests ~actions_per_txn:actions
          ~hot_instances:hot ~read_frac
      in
      Array.of_list (List.map snd js)
    in
    let report =
      Blast.run
        {
          Blast.addr;
          clients;
          requests;
          pipeline;
          digest;
          client_name = "blast";
          jobs;
        }
    in
    print_endline (Json.to_string (Blast.report_to_json report));
    Format.eprintf "oosim blast: %a@." Blast.pp_report report;
    if report.Blast.protocol_errors > 0 || report.Blast.requests = 0 then 1 else 0
  in
  let addr =
    Arg.(required & opt (some addr_conv) None
         & info [ "addr" ] ~docv:"ADDR"
             ~doc:"Server address: $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let requests =
    Arg.(value & opt int 250
         & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let pipeline =
    Arg.(value & opt int 4
         & info [ "pipeline" ] ~docv:"N" ~doc:"Max in-flight requests per connection.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let slices =
    Arg.(value & opt int 16 & info [ "slices" ] ~docv:"N"
         ~doc:"Must match the server's --slices (digest handshake).")
  in
  let work =
    Arg.(value & opt int 8 & info [ "work" ] ~docv:"N"
         ~doc:"Must match the server's --work (digest handshake).")
  in
  let instances =
    Arg.(value & opt int 4 & info [ "instances" ] ~docv:"N"
         ~doc:"Must match the server's --instances (digest handshake).")
  in
  let hot =
    Arg.(value & opt int 2 & info [ "hot" ] ~docv:"N" ~doc:"Hot-set size (contention knob).")
  in
  let actions =
    Arg.(value & opt int 4
         & info [ "a"; "actions" ] ~docv:"N" ~doc:"Actions per transaction.")
  in
  let read_frac =
    Arg.(value & opt float 0. & info [ "read-frac" ] ~docv:"F"
         ~doc:"Fraction of read-only transactions; must match the server's --read-frac.")
  in
  let doc =
    "closed-loop load generator: blast Run transactions at a server, report exact \
     latency percentiles as JSON"
  in
  Cmd.v (Cmd.info "blast" ~doc)
    Term.(
      const run $ addr $ clients $ requests $ pipeline $ seed $ slices $ work $ instances
      $ hot $ actions $ read_frac)

(* --- crosscheck: static ESC001 predictions vs the engine --- *)

(* --- storage: the page-level crash matrix as a CLI gate --- *)

let storage_cmd =
  let run seed sweep txns objs dir max_states max_plans replay =
    let cfg =
      let c = Crash_matrix.default ~dir ~seed () in
      let c = match txns with Some n -> { c with Crash_matrix.txns = n } | None -> c in
      let c = match objs with Some n -> { c with Crash_matrix.objs = n } | None -> c in
      let c =
        match max_states with Some n -> { c with Crash_matrix.max_states = n } | None -> c
      in
      match max_plans with Some n -> { c with Crash_matrix.max_plans = n } | None -> c
    in
    match replay with
    | Some plan_str ->
        if sweep <> 1 then usage_error "storage" "--sweep is ignored by --replay";
        let plan =
          try Fault.of_string plan_str
          with Invalid_argument msg ->
            Printf.eprintf "oosim storage: %s\n" msg;
            exit 2
        in
        let violations, digest, fired = Crash_matrix.run_plan cfg plan in
        Printf.printf "seed %d, plan %s: injection %s, replay digest %s\n" cfg.Crash_matrix.seed
          plan_str
          (if fired then "fired" else "did not fire")
          digest;
        List.iter (fun v -> Printf.printf "  VIOLATION: %s\n" v) violations;
        if violations = [] then begin
          print_endline "recovery consistent with the committed-prefix oracle";
          0
        end
        else 1
    | None ->
        let all_ok = ref true in
        for s = seed to seed + sweep - 1 do
          let r = Crash_matrix.run { cfg with Crash_matrix.seed = s } in
          Format.printf "%a@." Crash_matrix.pp_report r;
          if not (Crash_matrix.ok r) then all_ok := false
        done;
        if !all_ok then 0 else 1
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"First matrix seed.") in
  let sweep =
    Arg.(value & opt int 1
         & info [ "sweep" ] ~docv:"K"
             ~doc:"Run the full matrix for K consecutive seeds starting at $(b,--seed).")
  in
  let txns =
    Arg.(value & opt (some int) None
         & info [ "t"; "txns" ] ~docv:"N" ~doc:"Driver transactions per run (default 24).")
  in
  let objs =
    Arg.(value & opt (some int) None
         & info [ "objs" ] ~docv:"N"
             ~doc:"Instances populated before the first checkpoint (default 96).")
  in
  let dir =
    Arg.(value & opt string "_crash_matrix"
         & info [ "dir" ] ~docv:"DIR" ~doc:"Scratch directory for the matrix stores.")
  in
  let max_states =
    Arg.(value & opt (some int) None
         & info [ "max-states" ] ~docv:"N"
             ~doc:"Cap on state-sweep snapshots recovered per run (default 120).")
  in
  let max_plans =
    Arg.(value & opt (some int) None
         & info [ "max-plans" ] ~docv:"N"
             ~doc:"Cap on injected crash plans per run (default 48).")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"PLAN"
             ~doc:"Replay one fault plan (the $(b,plan) string a failing report prints) \
                   instead of sweeping the matrix; deterministic bit-for-bit.")
  in
  let doc =
    "torture the on-disk engine: crash at every WAL and page-write boundary, recover, \
     compare against the committed-prefix oracle"
  in
  Cmd.v (Cmd.info "storage" ~doc)
    Term.(
      const run $ seed $ sweep $ txns $ objs $ dir $ max_states $ max_plans $ replay)

let crosscheck_cmd =
  let run seed txns levels =
    let o = Crosscheck.run_e4 ~seed ~txns ~levels () in
    Format.printf
      "cross-check: E4 cascade of depth %d, %d transactions on one instance, seed %d@\n%a"
      levels txns seed Crosscheck.pp_outcome o;
    if Crosscheck.sound o then 0 else 1
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let txns =
    Arg.(value & opt int 8 & info [ "t"; "txns" ] ~docv:"N" ~doc:"Concurrent transactions.")
  in
  let levels =
    Arg.(value & opt int 3 & info [ "depth" ] ~docv:"N" ~doc:"Self-call cascade depth.")
  in
  let doc =
    "verify every escalation deadlock the engine observes was statically predicted (ESC001)"
  in
  Cmd.v (Cmd.info "crosscheck" ~doc) Term.(const run $ seed $ txns $ levels)

let main =
  let doc = "object-oriented concurrency-control simulator (Malta & Martinez, ICDE'93)" in
  Cmd.group
    (Cmd.info "oosim" ~version:"1.0.0" ~doc)
    [
      run_cmd; par_cmd; top_cmd; scenario_cmd; escalation_cmd; chaos_cmd; sanitize_cmd;
      serve_cmd; blast_cmd; storage_cmd; crosscheck_cmd;
    ]

let () = exit (Cmd.eval' main)
