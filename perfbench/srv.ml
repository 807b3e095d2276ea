(* The benchmark's server process: wired with the same public calls as
   [oosim serve] (Analysis.compile, Workload.slice_schema/populate,
   Storage.create/store/journal, Server.start), plus what [serve] cannot
   do — report its setup phases, its state for the correctness oracle,
   and (traced) its per-layer spans and counters.

   Protocol with the orchestrator: one JSON line on stdout when the
   server accepts connections; then it blocks on stdin until the load is
   over, samples RSS and the data directory, drains, and prints one JSON
   result line.  With [recover] a disk store is closed without a
   checkpoint and reopened, and the recovered state is reported too. *)

open Tavcc_model
module Analysis = Tavcc_core.Analysis
module Par_engine = Tavcc_par.Par_engine
module Wire = Tavcc_net.Wire
module Server = Tavcc_net.Server
module Storage = Tavcc_storage.Engine
module Metrics = Tavcc_obs.Metrics
module Json = Tavcc_obs.Json
module Workload = Tavcc_sim.Workload

let storage_config (w : Spec.t) ~dir ~metrics =
  (* 4 KiB pages, Buffered writes, default row cache *)
  { (Storage.default_config ~dir) with Storage.pool_pages = w.pool_pages; metrics }

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  kb

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let dir_bytes dir =
  if Sys.file_exists dir then
    Array.fold_left (fun acc f -> acc + file_size (Filename.concat dir f)) 0 (Sys.readdir dir)
  else 0

(* Every non-zero slice field as [oid, slice, value]. *)
let state store (w : Spec.t) =
  Store.extent store (Name.Class.of_string "grid")
  |> List.concat_map (fun oid ->
         List.init w.slices Fun.id
         |> List.filter_map (fun k ->
                match Store.read store oid (Spec.slice_field k) with
                | Value.Vint 0 -> None
                | Value.Vint v -> Some (Json.List [ Json.Int (Oid.to_int oid); Json.Int k; Json.Int v ])
                | _ -> failwith "slice field is not an int"))
  |> fun l -> Json.List l

let counter reg name = match reg with Some m -> Metrics.value (Metrics.counter m name) | None -> 0

(* Storage counters at one instant; the orchestrator differences two. *)
let storage_sample eng ~dir ~reg =
  match eng with
  | None -> Json.Null
  | Some e ->
      let st = Storage.stats e in
      let p = st.Storage.s_pool in
      Json.Obj
        [
          ("data_pages", Json.Int st.Storage.s_data_pages);
          ("pool_pages", Json.Int st.Storage.s_pool_pages);
          ("hits", Json.Int p.Tavcc_storage.Buffer_pool.hits);
          ("misses", Json.Int p.Tavcc_storage.Buffer_pool.misses);
          ("evictions", Json.Int p.Tavcc_storage.Buffer_pool.evictions);
          ("write_backs", Json.Int p.Tavcc_storage.Buffer_pool.write_backs);
          ("wal_records", Json.Int st.Storage.s_wal_records);
          ("wal_bytes", Json.Int st.Storage.s_wal_bytes);
          ("wal_flushes", Json.Int (counter reg "wal.flushes"));
          ("dblwr_bytes", Json.Int (file_size (Filename.concat dir "dblwr.log")));
        ]

let run ~workload ~sock ~dir ~trace ~spans ~recover =
  let w = Spec.find workload in
  let now = Spec.now_ns in
  let t0 = now () in
  let schema = Spec.schema w in
  let an = Analysis.compile schema in
  let t1 = now () in
  let reg = if trace then Some (Metrics.create ()) else None in
  let eng =
    match w.store with
    | Spec.Memory -> None
    | Spec.Disk -> Some (Storage.create (storage_config w ~dir ~metrics:reg))
  in
  let store = match eng with None -> Store.create schema | Some e -> Storage.store e schema in
  let t2 = now () in
  Workload.populate store ~per_class:w.instances;
  let t3 = now () in
  let scheme = w.scheme an in
  let journal = Option.map Storage.journal eng in
  let scheme, served, probe, journal =
    if trace then
      ( Layer_trace.scheme scheme,
        (match eng with None -> store | Some _ -> Layer_trace.store store),
        Some Layer_trace.probe,
        Some (Layer_trace.journal journal) )
    else (scheme, store, None, journal)
  in
  let engine =
    {
      Par_engine.default_config with
      domains = w.domains;
      shards = 8;
      policy = Tavcc_sim.Engine.Detect;
      probe;
      journal;
    }
  in
  let srv =
    Server.start
      {
        (Server.default_config ~addr:(Wire.Unix_sock sock) ~scheme ~store:served) with
        Server.engine;
        queue_capacity = 256;
      }
  in
  let ms a b = float_of_int (b - a) /. 1e6 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("domains", Json.Int w.domains);
            ("compile_ms", Json.Float (ms t0 t1));
            ("open_ms", Json.Float (ms t1 t2));
            ("populate_ms", Json.Float (ms t2 t3));
            ("storage", storage_sample eng ~dir ~reg);
          ]));
  (* the orchestrator writes a line (or closes stdin) when the load is over *)
  (try ignore (input_line stdin) with End_of_file -> ());
  let hwm_kb = vm_hwm_kb () in
  let disk_bytes = dir_bytes dir in
  let storage_end = storage_sample eng ~dir ~reg in
  Server.request_stop srv;
  let r = Server.wait srv in
  let live = state store w in
  let recovered =
    match eng with
    | Some e when recover ->
        (* no checkpoint on the way down: the reopen must redo every
           acknowledged commit from the log *)
        Storage.close ~flush:false e;
        let e' = Storage.create (storage_config w ~dir ~metrics:None) in
        let s = state (Storage.store e' schema) w in
        Storage.close e';
        s
    | Some e ->
        Storage.close e;
        Json.Null
    | None -> Json.Null
  in
  if trace then Layer_trace.write_spans spans;
  let ls = r.Par_engine.lock_stats in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("hwm_kb", Json.Int hwm_kb);
            ("disk_bytes", Json.Int disk_bytes);
            ("storage", storage_end);
            ("commits", Json.Int r.Par_engine.commits);
            ("lock_requests", Json.Int ls.Tavcc_lock.Lock_table.requests);
            ("lock_waits", Json.Int ls.Tavcc_lock.Lock_table.waits);
            ("snapshot_commits", Json.Int r.Par_engine.snapshot_commits);
            ("occ_validation_failures", Json.Int r.Par_engine.occ_validation_failures);
            ("ocaml", Json.String Sys.ocaml_version);
            ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
            ("state", live);
            ("recovered", recovered);
          ]))
