(* The persistent storage engine: slotted pages, the buffer pool, and
   crash recovery against the page-level crash matrix. *)

open Tavcc_model
module Page = Tavcc_storage.Page
module Pool = Tavcc_storage.Buffer_pool
module Engine = Tavcc_storage.Engine
module Matrix = Tavcc_storage.Crash_matrix
module Rng = Tavcc_sim.Rng
open Helpers

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

(* --- record payload codec --- *)

let random_value rng =
  match Rng.int rng 6 with
  | 0 -> Value.Vint (Rng.int rng 1_000_000 - 500_000)
  | 1 -> Value.Vbool (Rng.bool rng)
  | 2 ->
      let n = Rng.int rng 24 in
      Value.Vstring (String.init n (fun _ -> Char.chr (Rng.int rng 256)))
  | 3 -> Value.Vfloat (Int64.float_of_bits (Rng.next64 rng))
  | 4 -> Value.Vref (Oid.of_int (Rng.int rng 10_000))
  | _ -> Value.Vnull

let random_rec rng =
  {
    Page.Rec.r_oid = Rng.int rng 1_000_000;
    r_cls = String.init (Rng.int rng 12) (fun _ -> Char.chr (32 + Rng.int rng 95));
    r_slots =
      Array.init (Rng.int rng 6) (fun i ->
          (Printf.sprintf "f%d_%c" i (Char.chr (97 + Rng.int rng 26)), random_value rng));
  }

(* structural equality that treats NaN as equal to itself *)
let rec_eq a b = compare a b = 0

let prop_rec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"page record codec round-trips" seed_arb (fun seed ->
      let rng = Rng.create seed in
      let r = random_rec rng in
      match Page.Rec.decode (Page.Rec.encode r) with
      | Some r' -> rec_eq r r'
      | None -> false)

let prop_rec_cut =
  QCheck.Test.make ~count:120 ~name:"record codec refuses every byte-cut prefix" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let s = Page.Rec.encode (random_rec rng) in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        if Page.Rec.decode (String.sub s 0 k) <> None then ok := false
      done;
      !ok)

(* --- page image checksumming --- *)

let prop_page_bitflip =
  QCheck.Test.make ~count:150 ~name:"any flipped byte fails the page checksum" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let page = Page.create 512 in
      for i = 0 to 5 do
        ignore (Page.insert page (Printf.sprintf "payload-%d-%d" seed i))
      done;
      Page.stamp page;
      (match Page.check page with Ok () -> () | Error e -> failwith e);
      let img = Page.image page in
      let pos = Rng.int rng (Bytes.length img) in
      let old = Bytes.get img pos in
      let nw = Char.chr ((Char.code old + 1 + Rng.int rng 254) mod 256) in
      if nw = old then true
      else begin
        Bytes.set img pos nw;
        match Page.check page with Ok () -> false | Error _ -> true
      end)

let prop_page_torn =
  QCheck.Test.make ~count:60 ~name:"torn page images (prefix + zeros) are rejected" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let page = Page.create 512 in
      for i = 0 to 7 do
        ignore (Page.insert page (String.make (10 + Rng.int rng 30) (Char.chr (65 + i))))
      done;
      Page.stamp page;
      let img = Page.image page in
      let ok = ref true in
      for _ = 1 to 40 do
        let k = Rng.int rng (Bytes.length img) in
        let torn = Bytes.make (Bytes.length img) '\000' in
        Bytes.blit img 0 torn 0 k;
        (match Page.of_bytes torn with
        | Ok _ -> ok := false
        | Error _ -> ());
        if Page.is_zero torn && k > 12 then ok := false
      done;
      !ok)

(* --- page ops against a model --- *)

let prop_page_ops =
  QCheck.Test.make ~count:150 ~name:"page: random insert/delete/replace/compact vs model"
    seed_arb (fun seed ->
      let rng = Rng.create seed in
      let page = Page.create 512 in
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      let check_model () =
        Hashtbl.iter
          (fun slot payload ->
            if Page.read_slot page slot <> Some payload then ok := false)
          model
      in
      let slots () = Hashtbl.fold (fun k _ l -> k :: l) model [] in
      for _ = 1 to 150 do
        (match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 -> (
            let payload = String.make (Rng.int rng 90) (Char.chr (33 + Rng.int rng 90)) in
            let cap = Page.insert_capacity page in
            match Page.insert page payload with
            | Some slot ->
                if String.length payload > cap then ok := false;
                Hashtbl.replace model slot payload
            | None -> if String.length payload <= cap then ok := false)
        | 4 | 5 -> (
            match slots () with
            | [] -> ()
            | l ->
                let s = Rng.pick rng l in
                Page.delete page s;
                Hashtbl.remove model s;
                if Page.read_slot page s <> None then ok := false)
        | 6 | 7 -> (
            match slots () with
            | [] -> ()
            | l ->
                let s = Rng.pick rng l in
                let payload = String.make (Rng.int rng 120) (Char.chr (33 + Rng.int rng 90)) in
                if Page.replace page s payload then Hashtbl.replace model s payload
                else if Page.read_slot page s <> Hashtbl.find_opt model s then ok := false)
        | 8 -> Page.compact page
        | _ -> (
            (* the stamped image alone preserves every slot *)
            Page.stamp page;
            match Page.of_bytes (Bytes.copy (Page.image page)) with
            | Ok p' ->
                Hashtbl.iter
                  (fun slot payload ->
                    if Page.read_slot p' slot <> Some payload then ok := false)
                  model
            | Error _ -> ok := false));
        check_model ()
      done;
      !ok)

(* --- buffer pool invariants --- *)

let dummy_load _ page = Page.clear page

let test_pool_ledger () =
  let pool =
    Pool.create ~pages:2 ~page_size:256 ~load:dummy_load ~write_back:(fun _ _ -> ())
  in
  ignore (Pool.get pool 1);
  Pool.unpin pool 1 ~dirty:false;
  Alcotest.check_raises "ledger underflow raises"
    (Invalid_argument "Buffer_pool.unpin: pin ledger underflow") (fun () ->
      Pool.unpin pool 1 ~dirty:false);
  Alcotest.check_raises "unpin of non-resident raises"
    (Invalid_argument "Buffer_pool.unpin: page not resident") (fun () ->
      Pool.unpin pool 99 ~dirty:false)

let test_pool_all_pinned () =
  let pool =
    Pool.create ~pages:2 ~page_size:256 ~load:dummy_load ~write_back:(fun _ _ -> ())
  in
  ignore (Pool.get pool 1);
  ignore (Pool.get pool 2);
  Alcotest.check_raises "exhausted pool fails loudly"
    (Failure "Buffer_pool: all frames pinned") (fun () -> ignore (Pool.get pool 3))

let test_pool_dirty_never_dropped () =
  let written = Hashtbl.create 16 in
  let pool =
    Pool.create ~pages:3 ~page_size:256 ~load:dummy_load ~write_back:(fun pid _ ->
        Hashtbl.replace written pid (1 + Option.value ~default:0 (Hashtbl.find_opt written pid)))
  in
  let dirtied = ref [] in
  for pid = 1 to 12 do
    ignore (Pool.get pool pid);
    let d = pid mod 2 = 0 in
    if d then dirtied := pid :: !dirtied;
    Pool.unpin pool pid ~dirty:d
  done;
  Pool.flush_all pool;
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "dirty page %d was written back" pid)
        true (Hashtbl.mem written pid))
    !dirtied;
  Alcotest.(check int) "no pins left" 0 (Pool.pinned pool);
  Alcotest.(check int) "no dirt left" 0 (Pool.dirty_count pool)

(* A tiny fake disk of stamped 256-byte images: [write_back] persists,
   [load] reads back into the frame's page. *)
let disk_load disk pid page =
  match Hashtbl.find_opt disk pid with
  | Some img -> (
      Bytes.blit img 0 (Page.image page) 0 (Bytes.length img);
      match Page.check page with Ok () -> () | Error e -> failwith e)
  | None -> Page.clear page

let disk_write_back disk pid page =
  Page.stamp page;
  Hashtbl.replace disk pid (Bytes.copy (Page.image page))

exception Injected_load_failure

let prop_pool_model =
  QCheck.Test.make ~count:80 ~name:"pool: eviction preserves page contents" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let disk = Hashtbl.create 16 in
      (* one load, on a random step, scribbles over the frame's page and
         raises: the frame must come back empty, not holding garbage *)
      let fail_at = 1 + Rng.int rng 120 and step = ref 0 and failed = ref false in
      let load pid page =
        if (not !failed) && !step >= fail_at then begin
          failed := true;
          Bytes.fill (Page.image page) 0 64 'x';
          raise Injected_load_failure
        end;
        disk_load disk pid page
      in
      let pool = Pool.create ~pages:3 ~page_size:256 ~load ~write_back:(disk_write_back disk) in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      for i = 1 to 120 do
        step := i;
        let pid = 1 + Rng.int rng 9 in
        match Pool.get pool pid with
        | exception Injected_load_failure -> ()
        | page ->
            if Page.read_slot page 0 <> Hashtbl.find_opt model pid then ok := false;
            if Rng.bool rng then begin
              let payload = Printf.sprintf "p%d-%d" pid (Rng.int rng 1000) in
              (if Page.nslots page = 0 then ignore (Page.insert page payload)
               else ignore (Page.replace page 0 payload));
              Hashtbl.replace model pid payload;
              Pool.unpin pool pid ~dirty:true
            end
            else Pool.unpin pool pid ~dirty:false
      done;
      (* every page, resident or not, still reads as the model says; the
         sweep misses at least six times, so the failure has fired by its
         end, and a retry after it must succeed *)
      for pid = 1 to 9 do
        let page =
          match Pool.get pool pid with
          | page -> page
          | exception Injected_load_failure -> Pool.get pool pid
        in
        if Page.read_slot page 0 <> Hashtbl.find_opt model pid then ok := false;
        Pool.unpin pool pid ~dirty:false
      done;
      !ok && !failed && Pool.pinned pool = 0)

let test_pool_two_domain_hammer () =
  let mu = Mutex.create () in
  let disk = Hashtbl.create 16 in
  let pool =
    Pool.create ~pages:4 ~page_size:256 ~load:(disk_load disk)
      ~write_back:(disk_write_back disk)
  in
  let body seed () =
    let rng = Rng.create seed in
    try
      for _ = 1 to 2_000 do
        Mutex.lock mu;
        let pid = 1 + Rng.int rng 12 in
        let page = Pool.get pool pid in
        let dirty = Rng.bool rng in
        if dirty then begin
          let payload = Printf.sprintf "d%d" (Rng.int rng 100) in
          if Page.nslots page = 0 then ignore (Page.insert page payload)
          else ignore (Page.replace page 0 payload)
        end;
        Pool.unpin pool pid ~dirty;
        Mutex.unlock mu
      done;
      true
    with e ->
      Mutex.unlock mu;
      raise e
  in
  let d1 = Domain.spawn (body 11) and d2 = Domain.spawn (body 97) in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Alcotest.(check bool) "both domains survived" true (ok1 && ok2);
  Alcotest.(check int) "pin ledger balanced" 0 (Pool.pinned pool);
  Pool.flush_all pool;
  Alcotest.(check int) "no dirt after flush" 0 (Pool.dirty_count pool)

(* --- the engine end-to-end --- *)

let storage_schema () : unit Tavcc_model.Schema.t =
  match
    Schema.build
      [
        {
          Schema.c_name = cn "item";
          c_parents = [];
          c_fields = [ (fn "qty", Value.Tint); (fn "label", Value.Tstring) ];
          c_methods = [];
        };
      ]
  with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "%a" Schema.pp_error e)

let with_dir name f =
  let dir = Filename.concat "_t_storage" name in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun x -> rm (Filename.concat path x)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  f dir

let small_config dir =
  { (Engine.default_config ~dir) with page_size = 512; pool_pages = 4 }

let test_engine_persists () =
  with_dir "persist" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let store = Engine.store eng schema in
      let oids =
        List.init 10 (fun i ->
            Store.new_instance
              ~init:[ (fn "qty", Value.Vint i); (fn "label", Value.Vstring (Printf.sprintf "it%d" i)) ]
              store (cn "item"))
      in
      Store.write store (List.nth oids 3) (fn "qty") (Value.Vint 333);
      Store.delete_instance store (List.nth oids 7);
      let extent_before = Store.extent store (cn "item") in
      Engine.close eng;
      (* a fresh engine over the same directory sees the same world *)
      let eng2 = Engine.create (small_config dir) in
      let store2 = Engine.store eng2 schema in
      Alcotest.(check int) "instances survive" 9 (Store.instance_count store2);
      Alcotest.(check (list oid)) "extent order survives" extent_before
        (Store.extent store2 (cn "item"));
      Alcotest.(check value) "update survives" (Value.Vint 333)
        (Store.read store2 (List.nth oids 3) (fn "qty"));
      Alcotest.(check bool) "delete survives" false (Store.exists store2 (List.nth oids 7));
      Engine.close eng2)

let test_engine_larger_than_pool () =
  with_dir "bigger" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let store = Engine.store eng schema in
      let n = 300 in
      let oids =
        Array.init n (fun i ->
            Store.new_instance
              ~init:[ (fn "qty", Value.Vint i); (fn "label", Value.Vstring (String.make 24 'x')) ]
              store (cn "item"))
      in
      let st = Engine.stats eng in
      Alcotest.(check bool)
        (Printf.sprintf "working set (%d pages) exceeds the pool (%d)" st.Engine.s_data_pages
           st.Engine.s_pool_pages)
        true
        (st.Engine.s_data_pages > st.Engine.s_pool_pages);
      Alcotest.(check bool) "evictions happened" true (st.Engine.s_pool.Pool.evictions > 0);
      Array.iteri
        (fun i o ->
          Alcotest.(check value)
            (Printf.sprintf "o%d readable" i)
            (Value.Vint i) (Store.read store o (fn "qty")))
        oids;
      Engine.close eng)

let test_engine_abort_rolls_back () =
  with_dir "abort" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let store = Engine.store eng schema in
      let a =
        Store.new_instance ~init:[ (fn "qty", Value.Vint 1) ] store (cn "item")
      and b =
        Store.new_instance ~init:[ (fn "qty", Value.Vint 2) ] store (cn "item")
      in
      Engine.begin_txn eng 1;
      Store.write store a (fn "qty") (Value.Vint 100);
      Store.delete_instance store b;
      let c = Store.new_instance ~init:[ (fn "qty", Value.Vint 3) ] store (cn "item") in
      Engine.abort eng 1;
      Alcotest.(check value) "update undone" (Value.Vint 1) (Store.read store a (fn "qty"));
      Alcotest.(check bool) "delete undone" true (Store.exists store b);
      Alcotest.(check value) "deleted image restored" (Value.Vint 2)
        (Store.read store b (fn "qty"));
      Alcotest.(check bool) "insert undone" false (Store.exists store c);
      (* and the rollback itself is durable *)
      Engine.close eng;
      let eng2 = Engine.create (small_config dir) in
      let store2 = Engine.store eng2 schema in
      Alcotest.(check value) "undone update stays undone" (Value.Vint 1)
        (Store.read store2 a (fn "qty"));
      Alcotest.(check bool) "undone insert stays gone" false (Store.exists store2 c);
      Engine.close eng2)

(* A miss reads, checks and writes pages in the frames' own buffers: no
   page-sized block, which at 4 KiB is too big for the minor heap and
   would be allocated straight in the major heap. *)
let test_engine_miss_allocates_no_page () =
  with_dir "miss_alloc" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create { (Engine.default_config ~dir) with pool_pages = 4 } in
      let store = Engine.store eng schema in
      let n = 600 in
      let oids =
        Array.init n (fun i ->
            Store.new_instance
              ~init:[ (fn "qty", Value.Vint i); (fn "label", Value.Vstring (String.make 300 'x')) ]
              store (cn "item"))
      in
      let st = Engine.stats eng in
      Alcotest.(check bool)
        (Printf.sprintf "data (%d pages) exceeds the pool (%d)" st.Engine.s_data_pages
           st.Engine.s_pool_pages)
        true
        (st.Engine.s_data_pages > 4 * st.Engine.s_pool_pages);
      let misses () = (Engine.stats eng).Engine.s_pool.Pool.misses in
      let m0 = misses () and w0 = direct_major_words () in
      (* a stride of 97 records lands several pages away every time: each
         write misses and evicts a dirty page (WAL force, double write,
         page write) *)
      for j = 1 to 1500 do
        Store.write store oids.(j * 97 mod n) (fn "qty") (Value.Vint j)
      done;
      let words = direct_major_words () -. w0 and m = misses () - m0 in
      Alcotest.(check bool) (Printf.sprintf "%d misses >= 1000" m) true (m >= 1000);
      let per_miss = words /. float_of_int m in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f major-heap words per miss <= 64" per_miss)
        true (per_miss <= 64.);
      Engine.close eng)

(* Rolling back walks the log from its tail to the transaction's Begin:
   the cost of one abort must not grow with the records before it. *)
let test_engine_abort_cost_flat () =
  with_dir "abort_cost" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let store = Engine.store eng schema in
      let oids =
        Array.init 16 (fun i -> Store.new_instance ~init:[ (fn "qty", Value.Vint i) ] store (cn "item"))
      in
      let txn = ref 0 in
      let begin_with_updates () =
        incr txn;
        Engine.begin_txn eng !txn;
        for k = 0 to 3 do
          Store.write store oids.((!txn + k) mod 16) (fn "qty") (Value.Vint !txn)
        done
      in
      while (Engine.stats eng).Engine.s_wal_records < 30_000 do
        begin_with_updates ();
        Engine.commit eng !txn
      done;
      begin_with_updates ();
      let w0 = allocated_words () in
      Engine.abort eng !txn;
      let words = allocated_words () -. w0 in
      Alcotest.(check bool)
        (Printf.sprintf "one abort after %d records allocates %.0f words <= 10000"
           (Engine.stats eng).Engine.s_wal_records words)
        true (words <= 10_000.);
      Alcotest.(check value) "the abort rolled back" (Value.Vint (!txn - 1))
        (Store.read store oids.(!txn mod 16) (fn "qty"));
      Engine.close eng)

(* --- the crash matrix --- *)

let matrix_config ~dir ~seed =
  { (Matrix.default ~dir ~seed ()) with txns = 8; objs = 48; max_states = 40; max_plans = 14 }

let test_matrix_smoke () =
  with_dir "matrix" (fun dir ->
      let r = Matrix.run (matrix_config ~dir ~seed:3) in
      Alcotest.(check bool)
        (Format.asprintf "%a" Matrix.pp_report r)
        true (Matrix.ok r);
      Alcotest.(check bool) "injections actually fired" true (r.Matrix.m_crashes_fired > 0))

(* Seeds the random property once drew and failed on, pinned. *)
let matrix_seeds_ok seeds =
  List.iter
    (fun seed ->
      with_dir (Printf.sprintf "matrix_%d" seed) (fun dir ->
          let r = Matrix.run (matrix_config ~dir ~seed) in
          Alcotest.(check bool)
            (Format.asprintf "seed %d: %a" seed Matrix.pp_report r)
            true (Matrix.ok r)))
    seeds

(* a planned crash lands in the checkpoint [Engine.close] writes *)
let test_matrix_crash_in_close () = matrix_seeds_ok [ 521383 ]

(* an instance is created and deleted inside a transaction that aborts *)
let test_matrix_abort_create_delete () = matrix_seeds_ok [ 50631; 540531 ]

(* --- the journal contract, through the disk store, for both engines ---

   A journalled run that aborts must leave on disk the state it leaves in
   memory: every aborted attempt rolled back in the log as well.  Closing
   without a checkpoint makes the reopen redo everything from the log. *)

module Workload = Tavcc_sim.Workload
module Step = Tavcc_sim.Engine

let state store cls =
  List.map
    (fun o -> (Oid.to_int o, List.init (Store.field_count store o) (Store.read_idx store o)))
    (Store.extent store cls)

let reopen_state cfg schema cls =
  let eng = Engine.create cfg in
  let s = state (Engine.store eng schema) cls in
  Engine.close eng;
  s

(* The transactions whose id is a multiple of 10 die once, after their
   second write, the way a lock manager's loser does: the run certainly
   aborts, with writes to roll back. *)
let dies_once (s : Tavcc_cc.Scheme.t) =
  {
    s with
    Tavcc_cc.Scheme.on_write =
      (fun ctx o c f ->
        s.Tavcc_cc.Scheme.on_write ctx o c f;
        let txn = ctx.Tavcc_cc.Scheme.txn in
        if
          txn.Tavcc_txn.Txn.id mod 10 = 0
          && txn.Tavcc_txn.Txn.restarts = 0
          && List.length txn.Tavcc_txn.Txn.undo >= 2
        then raise (Tavcc_par.Shard_table.Aborted Tavcc_par.Shard_table.Died));
  }

let test_par_journal_recovers () =
  List.iter
    (fun (name, mk) ->
      with_dir ("par_journal_" ^ name) (fun dir ->
          let work = 4 in
          let schema = Workload.slice_schema ~methods:8 ~work () in
          let an = Tavcc_core.Analysis.compile schema in
          let grid = cn "grid" in
          let cfg = small_config dir in
          let eng = Engine.create cfg in
          let store = Engine.store eng schema in
          Workload.populate store ~per_class:2;
          let jobs =
            Workload.slice_jobs (Rng.create 3) store ~txns:100 ~actions_per_txn:3
              ~hot_instances:1
          in
          (* every job commits in the end: the sum of all increments *)
          let sums = expected_sums store ~work jobs in
          let config =
            {
              Tavcc_par.Par_engine.default_config with
              domains = 2;
              shards = 4;
              policy = Step.No_wait;
              journal = Some (Engine.journal eng);
            }
          in
          let r =
            Tavcc_par.Par_engine.run ~config ~scheme:(dies_once (mk an)) ~store ~jobs ()
          in
          Alcotest.(check int) (name ^ ": no failures") 0
            (List.length r.Tavcc_par.Par_engine.failed);
          Alcotest.(check int) (name ^ ": all commit") 100 r.Tavcc_par.Par_engine.commits;
          Alcotest.(check bool) (name ^ ": some attempts aborted") true
            (r.Tavcc_par.Par_engine.aborts > 0);
          check_sums store sums;
          let live = state store grid in
          Engine.close ~flush:false eng;
          Alcotest.(check bool) (name ^ ": recovered state = live state") true
            (reopen_state cfg schema grid = live)))
    [ ("tav", Tavcc_cc.Tav_modes.scheme); ("rw-msg", Tavcc_cc.Rw_instance.scheme) ]

let test_step_observe_recovers () =
  with_dir "step_observe" (fun dir ->
      let levels = 3 in
      let schema = Workload.chain_schema ~levels in
      let an = Tavcc_core.Analysis.compile schema in
      let chain = cn "chain" in
      let run store hooks =
        let oid = Store.new_instance store chain in
        let top = Name.Method.of_string (Printf.sprintf "m%d" levels) in
        let jobs =
          List.init 6 (fun i -> (i + 1, [ Tavcc_cc.Exec.Call (oid, top, [ Value.Vint 1 ]) ]))
        in
        let config = { Step.default_config with seed = 42; yield_on_access = true; hooks } in
        Step.run ~config ~scheme:(Tavcc_cc.Rw_instance.scheme an) ~store ~jobs ()
      in
      let mem = Store.create schema in
      let r_mem = run mem Step.no_hooks in
      let cfg = { (small_config dir) with Engine.self_journal = false } in
      let eng = Engine.create cfg in
      let disk = Engine.store eng schema in
      let r_disk = run disk { Step.no_hooks with Step.hk_observe = Some (Engine.observe eng) } in
      Alcotest.(check int) "same commits" r_mem.Step.commits r_disk.Step.commits;
      Alcotest.(check int) "same aborts" r_mem.Step.aborts r_disk.Step.aborts;
      Alcotest.(check bool) "the run aborted" true (r_disk.Step.aborts > 0);
      Engine.close ~flush:false eng;
      Alcotest.(check bool) "recovered state = in-memory run" true
        (reopen_state cfg schema chain = state mem chain))

let prop_matrix_seeds =
  QCheck.Test.make ~count:6 ~name:"crash matrix: zero violations across seeds" seed_arb
    (fun seed ->
      let dir = Filename.concat "_t_storage" "matrix_q" in
      let r = Matrix.run (matrix_config ~dir ~seed) in
      if not (Matrix.ok r) then
        QCheck.Test.fail_reportf "%a" (fun fmt r -> Matrix.pp_report fmt r) r;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_rec_roundtrip;
    QCheck_alcotest.to_alcotest prop_rec_cut;
    QCheck_alcotest.to_alcotest prop_page_bitflip;
    QCheck_alcotest.to_alcotest prop_page_torn;
    QCheck_alcotest.to_alcotest prop_page_ops;
    Alcotest.test_case "pool: pin ledger" `Quick test_pool_ledger;
    Alcotest.test_case "pool: all pinned fails loudly" `Quick test_pool_all_pinned;
    Alcotest.test_case "pool: dirty never dropped" `Quick test_pool_dirty_never_dropped;
    QCheck_alcotest.to_alcotest prop_pool_model;
    Alcotest.test_case "pool: two-domain pin/unpin hammer" `Quick test_pool_two_domain_hammer;
    Alcotest.test_case "engine: state survives close/reopen" `Quick test_engine_persists;
    Alcotest.test_case "engine: data larger than the pool" `Quick test_engine_larger_than_pool;
    Alcotest.test_case "engine: abort rolls back and stays rolled back" `Quick
      test_engine_abort_rolls_back;
    Alcotest.test_case "engine: a pool miss allocates no page image" `Quick
      test_engine_miss_allocates_no_page;
    Alcotest.test_case "engine: abort cost does not grow with the log" `Quick
      test_engine_abort_cost_flat;
    Alcotest.test_case "crash matrix: smoke" `Quick test_matrix_smoke;
    Alcotest.test_case "crash matrix: crash in the closing checkpoint" `Quick
      test_matrix_crash_in_close;
    Alcotest.test_case "crash matrix: aborted create+delete stays gone" `Quick
      test_matrix_abort_create_delete;
    QCheck_alcotest.to_alcotest prop_matrix_seeds;
    Alcotest.test_case "journal: par engine aborts recover to the live state" `Quick
      test_par_journal_recovers;
    Alcotest.test_case "journal: step engine aborts recover to the in-memory run" `Quick
      test_step_observe_recovers;
  ]
