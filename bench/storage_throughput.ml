(* storage/throughput — the on-disk engine vs the in-memory store on a
   data-larger-than-RAM TAV workload.

   Runs the same seeded random workload (slice schema, TAV field modes,
   cooperative sim engine) twice: once over the plain in-memory
   [Store.create] store, once over a [Tavcc_storage.Engine] store whose
   buffer pool is sized to roughly 10% of the data pages, so most
   accesses miss the pool and go through eviction/write-back.  The disk
   run journals through the [hk_observe] -> [Engine.observe] adapter
   ([self_journal = false]), exactly how `oosim run --data-dir` wires it.

   Gates (full and quick mode alike):
   - the working set genuinely exceeds the pool (data_pages > pool_pages
     and evictions > 0) — otherwise the "disk" row is a cache benchmark;
   - disk throughput stays within [threshold_x] (5x) of the in-memory
     run: the pool + row cache must absorb the IO path, not serialise
     every access through a page read.

   Results go to stdout and BENCH_storage.json, with the host they were
   measured on; [--quick] shrinks the workload for CI smoke and
   regression runs. *)

module Workload = Tavcc_sim.Workload
module Rng = Tavcc_sim.Rng
module Engine = Tavcc_sim.Engine
module Store = Tavcc_model.Store
module Storage = Tavcc_storage.Engine

let methods = 8
let work = 4
let actions_per_txn = 4
let seed = 42
let page_size = 512
let pool_frac = 0.10
let threshold_x = 5.0

type row = {
  backend : string;
  txns : int;
  commits : int;
  aborts : int;
  deadlocks : int;
  wall_ms : float;
  txn_s : float;
  data_pages : int;
  pool_pages : int;
  evictions : int;
  pool_hit_rate : float;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_frac = 0.5

let jobs_for rng store ~txns ~instances =
  (* the "hot set" is the whole store: uniform access over a working set
     ~10x the pool, so reads and writes alike churn the clock hand *)
  Workload.mixed_slice_jobs rng store ~txns ~actions_per_txn ~hot_instances:instances
    ~read_frac

let check r name ~txns =
  if r.Engine.failed <> [] then begin
    List.iter
      (fun (id, msg) -> Printf.printf "txn %d FAILED under %s: %s\n" id name msg)
      r.Engine.failed;
    exit 1
  end;
  if r.Engine.commits <> txns then begin
    Printf.printf "FAIL: %s committed %d of %d txns\n" name r.Engine.commits txns;
    exit 1
  end

(* Best of [repeats]; each repeat rebuilds the store from scratch so the
   two backends start from identical images. *)
let run_mem ~schema ~an ~instances ~txns ~repeats =
  let best = ref infinity and last = ref None in
  for _ = 1 to repeats do
    let store = Store.create schema in
    Workload.populate store ~per_class:instances;
    let jobs = jobs_for (Rng.create (seed + 1)) store ~txns ~instances in
    let t0 = Unix.gettimeofday () in
    let r = Engine.run ~scheme:(Tavcc_cc.Tav_modes.scheme an) ~store ~jobs () in
    let wall = Unix.gettimeofday () -. t0 in
    check r "mem" ~txns;
    if wall < !best then begin
      best := wall;
      last := Some r
    end
  done;
  let r = Option.get !last in
  {
    backend = "mem";
    txns;
    commits = r.Engine.commits;
    aborts = r.Engine.aborts;
    deadlocks = r.Engine.deadlocks;
    wall_ms = !best *. 1e3;
    txn_s = float_of_int txns /. !best;
    data_pages = 0;
    pool_pages = 0;
    evictions = 0;
    pool_hit_rate = 1.0;
  }

let run_disk ~schema ~an ~instances ~txns ~repeats =
  let dir = "_bench_storage" in
  let best = ref infinity and last = ref None in
  for _ = 1 to repeats do
    rm_rf dir;
    (* Populate with a generous pool to measure the footprint, then
       reopen with the pool squeezed to ~10% of the data pages. *)
    let big = { (Storage.default_config ~dir) with page_size; pool_pages = 4096 } in
    let eng0 = Storage.create big in
    let store0 = Storage.store eng0 schema in
    Workload.populate store0 ~per_class:instances;
    let data_pages = (Storage.stats eng0).Storage.s_data_pages in
    Storage.close eng0;
    let pool_pages =
      max 4 (int_of_float (Float.round (float_of_int data_pages *. pool_frac)))
    in
    let eng =
      Storage.create { big with pool_pages; self_journal = false }
    in
    let store = Storage.store eng schema in
    let jobs = jobs_for (Rng.create (seed + 1)) store ~txns ~instances in
    let config =
      {
        Engine.default_config with
        hooks = { Engine.no_hooks with Engine.hk_observe = Some (Storage.observe eng) };
      }
    in
    let t0 = Unix.gettimeofday () in
    let r = Engine.run ~config ~scheme:(Tavcc_cc.Tav_modes.scheme an) ~store ~jobs () in
    let wall = Unix.gettimeofday () -. t0 in
    check r "disk" ~txns;
    let st = Storage.stats eng in
    Storage.close eng;
    if wall < !best then begin
      best := wall;
      last := Some (r, st)
    end
  done;
  let r, st = Option.get !last in
  let p = st.Storage.s_pool in
  let touches = p.Tavcc_storage.Buffer_pool.hits + p.Tavcc_storage.Buffer_pool.misses in
  {
    backend = "disk";
    txns;
    commits = r.Engine.commits;
    aborts = r.Engine.aborts;
    deadlocks = r.Engine.deadlocks;
    wall_ms = !best *. 1e3;
    txn_s = float_of_int txns /. !best;
    data_pages = st.Storage.s_data_pages;
    pool_pages = st.Storage.s_pool_pages;
    evictions = p.Tavcc_storage.Buffer_pool.evictions;
    pool_hit_rate =
      (if touches = 0 then 1.0
       else float_of_int p.Tavcc_storage.Buffer_pool.hits /. float_of_int touches);
  }

let json_of_row r =
  Printf.sprintf
    "    {\"backend\": \"%s\", \"txns\": %d, \"commits\": %d, \"aborts\": %d, \
     \"deadlocks\": %d, \"wall_ms\": %.3f, \"txn_s\": %.0f, \"data_pages\": %d, \
     \"pool_pages\": %d, \"evictions\": %d, \"pool_hit_rate\": %.3f}"
    r.backend r.txns r.commits r.aborts r.deadlocks r.wall_ms r.txn_s r.data_pages
    r.pool_pages r.evictions r.pool_hit_rate

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let instances = if quick then 256 else 1024 in
  let txns = if quick then 600 else 2000 in
  let repeats = if quick then 2 else 3 in
  let schema = Workload.slice_schema ~readers:methods ~methods ~work () in
  let an = Tavcc_core.Analysis.compile schema in
  Printf.printf "storage/throughput — on-disk slotted pages vs the in-memory store\n";
  Printf.printf
    "(%d txns x %d actions over %d instances, %d-byte pages, pool ~%.0f%% of data, \
     best of %d, seed %d%s)\n\n"
    txns actions_per_txn instances page_size (pool_frac *. 100.) repeats seed
    (if quick then ", quick" else "");
  Printf.printf "%-8s %-8s %-8s %-8s %-10s %-10s %-11s %-11s %-10s %-9s\n" "backend"
    "commits" "aborts" "dlocks" "wall-ms" "txn/s" "data-pages" "pool-pages" "evictions"
    "hit-rate";
  let pr r =
    Printf.printf "%-8s %-8d %-8d %-8d %-10.3f %-10.0f %-11d %-11d %-10d %-9.3f\n"
      r.backend r.commits r.aborts r.deadlocks r.wall_ms r.txn_s r.data_pages
      r.pool_pages r.evictions r.pool_hit_rate
  in
  let mem = run_mem ~schema ~an ~instances ~txns ~repeats in
  pr mem;
  let disk = run_disk ~schema ~an ~instances ~txns ~repeats in
  pr disk;
  let slowdown = disk.wall_ms /. mem.wall_ms in
  Printf.printf
    "\nheadline: disk %.0f txn/s vs mem %.0f txn/s = %.2fx slowdown (gate %.1fx); %d \
     data pages through a %d-frame pool (%d evictions)\n"
    disk.txn_s mem.txn_s slowdown threshold_x disk.data_pages disk.pool_pages
    disk.evictions;
  let oc = open_out "BENCH_storage.json" in
  output_string oc "{\n  \"bench\": \"storage/throughput\",\n";
  Printf.fprintf oc
    "  \"txns\": %d,\n  \"actions_per_txn\": %d,\n  \"instances\": %d,\n\
    \  \"methods\": %d,\n  \"work\": %d,\n  \"page_size\": %d,\n\
    \  \"pool_frac\": %.2f,\n  \"repeats\": %d,\n  \"seed\": %d,\n  \"quick\": %b,\n\
    \  \"threshold_x\": %.1f,\n  \"host\": %s,\n"
    txns actions_per_txn instances methods work page_size pool_frac repeats seed quick
    threshold_x (Host.json ());
  output_string oc "  \"rows\": [\n";
  output_string oc (String.concat ",\n" (List.map json_of_row [ mem; disk ]));
  output_string oc "\n  ],\n";
  Printf.fprintf oc
    "  \"headline\": {\"mem_txn_s\": %.0f, \"disk_txn_s\": %.0f, \"slowdown_x\": %.2f, \
     \"data_pages\": %d, \"pool_pages\": %d, \"evictions\": %d, \"pool_hit_rate\": %.3f}\n\
     }\n"
    mem.txn_s disk.txn_s slowdown disk.data_pages disk.pool_pages disk.evictions
    disk.pool_hit_rate;
  close_out oc;
  Printf.printf "wrote BENCH_storage.json (2 rows)\n";
  if disk.data_pages <= disk.pool_pages || disk.evictions = 0 then begin
    Printf.printf
      "FAIL: working set fits the pool (%d data pages, %d frames, %d evictions) — not \
       a larger-than-RAM run\n"
      disk.data_pages disk.pool_pages disk.evictions;
    exit 1
  end;
  if slowdown > threshold_x then begin
    Printf.printf "FAIL: disk is %.2fx slower than mem (gate %.1fx)\n" slowdown
      threshold_x;
    exit 1
  end;
  print_string
    "shape check: the disk run pays a WAL append per write and a page\n\
     read per pool miss; with the pool at ~10% of the data the clock\n\
     hand turns constantly, yet the row cache and buffered IO keep the\n\
     slowdown within single digits of the in-memory store.\n"
