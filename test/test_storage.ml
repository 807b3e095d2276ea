(* The persistent storage engine: slotted pages, the buffer pool, and
   crash recovery against the page-level crash matrix. *)

open Tavcc_model
module Page = Tavcc_storage.Page
module Pool = Tavcc_storage.Buffer_pool
module Engine = Tavcc_storage.Engine
module Matrix = Tavcc_storage.Crash_matrix
module Codec = Tavcc_chaos.Codec
module Fault = Tavcc_chaos.Fault
module Wal = Tavcc_recovery.Wal
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

(* The record codec is the shared token codec: it writes the reference
   bytes, reads them back, and [splice] is a re-encode of one slot. *)
let rec_gen =
  QCheck.Gen.map3
    (fun r_oid r_cls slots -> { Page.Rec.r_oid; r_cls; r_slots = Array.of_list slots })
    Tok_gen.int Tok_gen.str Tok_gen.slots

let ref_rec r =
  Ref_tok.int r.Page.Rec.r_oid ^ Ref_tok.str r.r_cls ^ Ref_tok.slots (Array.to_list r.r_slots)

let print_rec r = String.escaped (ref_rec r)

let prop_rec_reference =
  QCheck.Test.make ~count:500 ~name:"record codec writes the reference bytes and reads them back"
    (QCheck.make ~print:print_rec rec_gen) (fun r ->
      let s = Page.Rec.encode r in
      s = ref_rec r && rec_eq (Page.Rec.decode s) (Some r))

let prop_rec_splice =
  QCheck.Test.make ~count:500 ~name:"splice re-encodes the decoded record with one slot set"
    (QCheck.make
       ~print:(fun (r, i, v) -> Printf.sprintf "%s @%d := %s" (print_rec r) i (Ref_tok.value v))
       QCheck.Gen.(triple rec_gen (-2 -- 7) Tok_gen.value))
    (fun (r, i, v) ->
      let p = Page.Rec.encode r in
      let want =
        match Page.Rec.decode p with
        | Some d when i >= 0 && i < Array.length d.Page.Rec.r_slots ->
            let slots = Array.copy d.Page.Rec.r_slots in
            slots.(i) <- (fst slots.(i), v);
            Some (Page.Rec.encode { d with Page.Rec.r_slots = slots })
        | _ -> None
      in
      Page.Rec.splice p i v = want)

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

(* A slot entry that is not a record of the heap, under a good checksum:
   [check] must refuse it, not leave every read of the slot to run off
   the image.  By default the entry points past the end of the page. *)
let bad_slot_image ?(offset = "00000ff0") size =
  let page = Page.create size in
  ignore (Page.insert page "record");
  (* slot 0's offset is the first field of the directory *)
  Bytes.blit_string offset 0 (Page.image page) Page.header_size 8;
  Page.stamp page;
  Page.image page

let test_page_bad_slot () =
  List.iter
    (fun (why, offset) ->
      match Page.of_bytes (bad_slot_image ~offset 512) with
      | Ok _ -> Alcotest.failf "a slot entry %s passed check" why
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names slot 0" why e)
            true (contains e "slot 0"))
    [
      ("past the end of the page", "00000ff0");
      ("below the heap, on the directory", "0000002c");
      ("that does not parse", "0000zz00");
    ]

(* --- page ops against a model --- *)

(* A page rebuilt from a copy of its stamped image must agree with the
   live page: the decoded slot directory never drifts from the bytes. *)
let agrees_with_image page =
  Page.stamp page;
  match Page.of_bytes (Bytes.copy (Page.image page)) with
  | Error _ -> false
  | Ok p' ->
      let n = Page.nslots page in
      let rec slots_agree i =
        i >= n || (Page.read_slot p' i = Page.read_slot page i && slots_agree (i + 1))
      in
      Page.nslots p' = n && Page.insert_capacity p' = Page.insert_capacity page && slots_agree 0

(* One run of the page-operation generator on a fresh [size]-byte page:
   150 random inserts, deletes, replaces, compactions and stamps, checked
   after every step against a model and against a page rebuilt from the
   stamped image.  Payload sizes scale with the page.  Returns whether
   every check held, and the page. *)
let page_ops ~size seed =
  let rng = Rng.create seed in
  let page = Page.create size in
  let scaled n = n * size / 512 in
  let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let ok = ref true in
  let check_model () =
    Hashtbl.iter
      (fun slot payload -> if Page.read_slot page slot <> Some payload then ok := false)
      model
  in
  let slots () = Hashtbl.fold (fun k _ l -> k :: l) model [] in
  for _ = 1 to 150 do
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> (
        (* the byte is drawn before the length, as the pinned images were *)
        let c = Char.chr (33 + Rng.int rng 90) in
        let payload = String.make (Rng.int rng (scaled 90)) c in
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
            let c = Char.chr (33 + Rng.int rng 90) in
            let payload = String.make (Rng.int rng (scaled 120)) c in
            if Page.replace page s payload then Hashtbl.replace model s payload
            else if Page.read_slot page s <> Hashtbl.find_opt model s then ok := false)
    | 8 -> Page.compact page
    | _ -> Page.stamp page);
    check_model ();
    if not (agrees_with_image page) then ok := false
  done;
  Page.stamp page;
  (!ok, page)

let prop_page_ops =
  QCheck.Test.make ~count:150 ~name:"page: random insert/delete/replace/compact vs model"
    seed_arb (fun seed -> fst (page_ops ~size:512 seed))

(* Placement pinned: the generator's final stamped images for fixed
   seeds, at both page sizes the store uses.  Which slot a record gets
   and where compaction moves it are part of the on-disk format. *)
let pinned_page_images =
  [
    (512, 1, "5b1c3f68bf10c74e72003e15736d0e8f");
    (512, 2, "162c59cb1369f6605eab826eb14fc84a");
    (512, 3, "00c71852609e0698b7b5085ccc5b4262");
    (512, 4, "adfbcccdb4029b7d4fc9a7ff87f9bfec");
    (512, 5, "9223edc8a6f49460b60b4597eb1ad36a");
    (512, 6, "a2f0c52993edd0c9ecfe4a49a54e2344");
    (512, 7, "0334d55418937dff88379ee480050bcb");
    (512, 8, "f98c974f9264dceb329da39599e2a095");
    (4096, 1, "430b3909c89cbce5b005d68016225c25");
    (4096, 2, "d13ab5b5ed9bda3e624fe006d07d67f2");
    (4096, 3, "c24fd94bdcf5e68506bfd1561570b182");
    (4096, 4, "89b9d1c69b1b1a41d7afd9bdc5001c06");
    (4096, 5, "ff5b83a3df3d11136a8ca42174d44241");
    (4096, 6, "ded293824d237ba41dda968002a1f155");
    (4096, 7, "fafd41ab7c69f90a0e7667d42235672c");
    (4096, 8, "f309ca0137ef580f086f50b7eb82c89a");
  ]

let test_page_placement_pinned () =
  List.iter
    (fun (size, seed, want) ->
      let ok, page = page_ops ~size seed in
      let label = Printf.sprintf "%d-byte page, seed %d" size seed in
      Alcotest.(check bool) (label ^ ": model and image agree") true ok;
      Alcotest.(check string) (label ^ ": image digest") want
        (Digest.to_hex (Digest.bytes (Page.image page))))
    pinned_page_images

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

(* The log lives on disk, not in memory: what the engine holds of it is
   bounded by the work in flight, so the live heap after 60 000 records
   is the heap after 6 000. *)
let test_engine_memory_flat () =
  with_dir "memory_flat" (fun dir ->
      let schema = storage_schema () in
      let eng = Engine.create (small_config dir) in
      let store = Engine.store eng schema in
      let oids =
        Array.init 16 (fun i ->
            Store.new_instance ~init:[ (fn "qty", Value.Vint i) ] store (cn "item"))
      in
      let txn = ref 0 in
      let live_words_at records =
        while (Engine.stats eng).Engine.s_wal_records < records do
          incr txn;
          Engine.begin_txn eng !txn;
          for k = 0 to 3 do
            Store.write store oids.((!txn + k) mod 16) (fn "qty") (Value.Vint !txn)
          done;
          Engine.commit eng !txn
        done;
        Gc.compact ();
        (Gc.stat ()).Gc.live_words
      in
      let w0 = live_words_at 6_000 in
      let growth = live_words_at 60_000 - w0 in
      Alcotest.(check bool)
        (Printf.sprintf "live heap grew %d words from 6 000 to 60 000 records (< 20 000)" growth)
        true (growth < 20_000);
      Engine.close eng)

(* A commit whose WAL force fails leaves its transaction active, so the
   abort that follows still finds the changes to roll back — in memory,
   and in the log that recovery reads. *)
let test_failed_commit_force_rolls_back () =
  with_dir "commit_force" (fun dir ->
      let schema = storage_schema () in
      let armed = ref false in
      let io_hook = function
        | Engine.Wal_write _ when !armed ->
            armed := false;
            failwith "disk full"
        | _ -> Engine.Proceed
      in
      let cfg = small_config dir in
      let eng = Engine.create { cfg with io_hook = Some io_hook } in
      let store = Engine.store eng schema in
      let items =
        List.init 2 (fun i ->
            Store.new_instance ~init:[ (fn "qty", Value.Vint i) ] store (cn "item"))
      in
      let qtys store = List.map (fun o -> Store.read store o (fn "qty")) items in
      Engine.begin_txn eng 1;
      List.iteri (fun i o -> Store.write store o (fn "qty") (Value.Vint (100 + i))) items;
      armed := true;
      Alcotest.check_raises "the commit's force fails" (Failure "disk full") (fun () ->
          Engine.commit eng 1);
      Engine.abort eng 1;
      let before_images = [ Value.Vint 0; Value.Vint 1 ] in
      Alcotest.(check (list value)) "abort restores the before-images" before_images (qtys store);
      Engine.flush eng;
      Engine.abandon eng;
      let eng = Engine.create cfg in
      Alcotest.(check (list value)) "recovery finds the before-images" before_images
        (qtys (Engine.store eng schema));
      Engine.close eng)

(* Restart undo logs a compensation for each change it rolls back before
   the loser's Abort.  The crash built here lands after that Abort is
   stable and before the closing checkpoint rewrites the meta page: the
   next restart redoes from the old checkpoint, and only the
   compensations in the log keep the loser's write undone. *)
let test_restart_undo_survives_closing_crash () =
  with_dir "restart_undo" (fun dir ->
      let schema = storage_schema () in
      let cfg = small_config dir in
      let path name = Filename.concat dir name in
      let read name = In_channel.with_open_bin (path name) In_channel.input_all in
      let write name s =
        Out_channel.with_open_bin (path name) (fun oc -> Out_channel.output_string oc s)
      in
      let qty eng o = Store.read (Engine.store eng schema) o (fn "qty") in
      let eng = Engine.create cfg in
      let o =
        Store.new_instance ~init:[ (fn "qty", Value.Vint 0) ] (Engine.store eng schema) (cn "item")
      in
      Engine.checkpoint eng;
      Engine.begin_txn eng 1;
      Store.write (Engine.store eng schema) o (fn "qty") (Value.Vint 100);
      Engine.flush eng;
      Engine.abandon eng;
      let data = read "data.pages" and dblwr = read "dblwr.log" in
      let eng = Engine.create cfg in
      Alcotest.(check value) "recovery rolls the loser back" (Value.Vint 0) (qty eng o);
      Engine.close ~flush:false eng;
      let rec through_abort = function
        | (Wal.Abort 1 as r) :: _ -> [ r ]
        | r :: tl -> r :: through_abort tl
        | [] -> Alcotest.fail "recovery logged no abort(1)"
      in
      write "wal.log" (Codec.encode (through_abort (Codec.decode (read "wal.log"))));
      write "data.pages" data;
      write "dblwr.log" dblwr;
      let eng = Engine.create cfg in
      Alcotest.(check value) "the loser stays rolled back" (Value.Vint 0) (qty eng o);
      Engine.close eng)

(* Recovery's page scan meets a page whose slot entry points outside it,
   with no double-write copy to repair it from: the reopen fails with the
   engine's corrupt-page error. *)
let test_engine_bad_slot_page () =
  with_dir "bad_slot" (fun dir ->
      let schema = storage_schema () in
      let cfg = small_config dir in
      let eng = Engine.create cfg in
      let store = Engine.store eng schema in
      ignore (Store.new_instance ~init:[ (fn "qty", Value.Vint 1) ] store (cn "item"));
      Engine.close eng;
      let fd = Unix.openfile (Filename.concat dir "data.pages") [ Unix.O_WRONLY ] 0 in
      let img = bad_slot_image cfg.Engine.page_size in
      ignore (Unix.lseek fd cfg.Engine.page_size Unix.SEEK_SET);
      ignore (Unix.write fd img 0 (Bytes.length img));
      Unix.close fd;
      Alcotest.check_raises "reopen reports the corrupt page"
        (Failure "Storage: page 1 corrupt with no dblwr copy") (fun () ->
          ignore (Engine.create cfg)))

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

(* Replay digests of plans that fire after populate (and of one that
   never fires, covering the whole run), pinned: the bytes every one of
   them leaves on disk, and the state recovered from them.  cck:1 and
   cck:9 crash the checkpoint right after populate, the same for every
   seed; cck:40 and cck:52 land in later checkpoints, which flush pages
   the seeded transactions dirtied. *)
let pinned_digests =
  [
    (1, "f:;cf:20", "725088c6c86afc7c27ee4a1776044944");
    (1, "f:;torn:30:9", "bdac613c07c92edb062cdf3d76513060");
    (1, "f:;cpw:60", "12e0ab255ce1fd17060e799d9950a17c");
    (1, "f:;tpg:80:17", "c4517dbdbc21c23f8fad119fc803178f");
    (1, "f:;cf:400", "10478467c0495c49f6a16079e3916afc");
    (42, "f:;cf:20", "c6b0d9cc8c2441519f6a3123b744150a");
    (42, "f:;torn:30:9", "035fd8d11c654733a57bc670296e1dce");
    (42, "f:;cpw:60", "ef8df194a3bc1af68d277cd0f6459f94");
    (42, "f:;tpg:80:17", "2179437df03aab8192666378edda86a7");
    (42, "f:;cf:400", "0ac146cc5796fc40f7e2ac63ea1e1fe0");
    (99, "f:;cf:20", "c2db6b477b37f423d345b01fb5454e8e");
    (99, "f:;torn:30:9", "2fd243e033b687734bec53e5c67f2956");
    (99, "f:;cpw:60", "6f580457eb69a34fb02d34bf8a8da6e5");
    (99, "f:;tpg:80:17", "b40d31099be305c482f62f4f46ef9690");
    (99, "f:;cf:400", "6c7ee78f877ffff1d3f36991c2530976");
    (521383, "f:;cf:20", "5bd9a35d9e48d6010788678d1a329550");
    (521383, "f:;torn:30:9", "65d08b304166723f5325001e77b5b620");
    (521383, "f:;cpw:60", "ec7891eb2b6b7e601ff26e5df439a41a");
    (521383, "f:;tpg:80:17", "3c5a6f6dfce704071df3b9aaef30a633");
    (521383, "f:;cf:400", "512e2fe55571740872fb2774c48e211b");
    (50631, "f:;cf:20", "694f1ccc67ccf9f70804042cd051b676");
    (50631, "f:;torn:30:9", "f0aef15d4c9fba3d5bbd014b148e5f70");
    (50631, "f:;cpw:60", "21bceaa168e28fbabf04994304f2b788");
    (50631, "f:;tpg:80:17", "dc1b49eee7795e8cd9e6bd4166c6c908");
    (50631, "f:;cf:400", "83263b373dd54e91c330fb0a6f46b141");
    (42, "f:;cck:1", "dbacc9f0a73e4d52a9791d73648d37bf");
    (42, "f:;cck:9", "c2bc1415889e08586c3d6fae29688301");
    (1, "f:;cck:40", "c609eef5847e684cf0911718baa49bef");
    (42, "f:;cck:40", "3368351ce2f3a94c2b9c42f69a375a7b");
    (99, "f:;cck:40", "4c34579015915c6f92a03abd27f97fbd");
    (1, "f:;cck:52", "1023a5a5c95c35563a56fe8268b43194");
    (42, "f:;cck:52", "fa210c83bd6b6a3f9fad80fd6d58f959");
    (99, "f:;cck:52", "56cd8277c241dab851013e9f6b547c46");
  ]

let test_matrix_pinned_digests () =
  with_dir "matrix_pinned" (fun dir ->
      List.iter
        (fun (seed, plan, want) ->
          let label = Printf.sprintf "seed %d, plan %s" seed plan in
          let violations, digest, _ =
            Matrix.run_plan (Matrix.default ~dir ~seed ()) (Fault.of_string plan)
          in
          Alcotest.(check (list string)) (label ^ ": no violations") [] violations;
          Alcotest.(check string) (label ^ ": replay digest") want digest)
        pinned_digests)

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
    QCheck_alcotest.to_alcotest prop_rec_reference;
    QCheck_alcotest.to_alcotest prop_rec_splice;
    QCheck_alcotest.to_alcotest prop_page_bitflip;
    QCheck_alcotest.to_alcotest prop_page_torn;
    Alcotest.test_case "page: a slot entry outside the page fails check" `Quick
      test_page_bad_slot;
    QCheck_alcotest.to_alcotest prop_page_ops;
    Alcotest.test_case "page: placement pinned by image digests" `Quick
      test_page_placement_pinned;
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
    Alcotest.test_case "engine: live heap stays flat as the log grows" `Quick
      test_engine_memory_flat;
    Alcotest.test_case "engine: a failed commit force is rolled back" `Quick
      test_failed_commit_force_rolls_back;
    Alcotest.test_case "engine: restart undo survives a crash in its checkpoint" `Quick
      test_restart_undo_survives_closing_crash;
    Alcotest.test_case "engine: a bad slot entry is a corrupt page at reopen" `Quick
      test_engine_bad_slot_page;
    Alcotest.test_case "crash matrix: smoke" `Quick test_matrix_smoke;
    Alcotest.test_case "crash matrix: crash in the closing checkpoint" `Quick
      test_matrix_crash_in_close;
    Alcotest.test_case "crash matrix: aborted create+delete stays gone" `Quick
      test_matrix_abort_create_delete;
    Alcotest.test_case "crash matrix: pinned replay digests" `Quick test_matrix_pinned_digests;
    QCheck_alcotest.to_alcotest prop_matrix_seeds;
    Alcotest.test_case "journal: par engine aborts recover to the live state" `Quick
      test_par_journal_recovers;
    Alcotest.test_case "journal: step engine aborts recover to the in-memory run" `Quick
      test_step_observe_recovers;
  ]
