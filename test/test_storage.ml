(* The persistent storage engine: slotted pages, the buffer pool, and
   crash recovery against the page-level crash matrix. *)

open Tavcc_model
module Page = Tavcc_storage.Page
module Pool = Tavcc_storage.Buffer_pool
module Engine = Tavcc_storage.Engine
module Matrix = Tavcc_storage.Crash_matrix
module Codec = Tavcc_recovery.Codec
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

(* --- the page checksum's own promises --- *)

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Rng.int rng 256))

let prop_page_sum_reference =
  QCheck.Test.make ~count:300 ~name:"page checksum equals a reference word loop" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      (* even seeds take a size in 256..271, whose 16 sizes give every
         tail length (sizes not a multiple of 16 included); odd seeds
         any size up to 4096 *)
      let size = if seed mod 2 = 0 then 256 + (seed / 2 mod 16) else 256 + Rng.int rng 3841 in
      let b = random_bytes rng size in
      Page.checksum b = Ref_page_sum.sum b)

let prop_page_sum_word =
  QCheck.Test.make ~count:40 ~name:"page checksum: any change to one aligned word is caught"
    seed_arb (fun seed ->
      let rng = Rng.create seed in
      let b = random_bytes rng 512 in
      let sum = Page.checksum b in
      let ok = ref true in
      let pos = ref 8 in
      while !pos < 512 do
        let w = Bytes.get_int32_le b !pos in
        let mask = Int32.of_int (1 + Rng.int rng 0xfffffffe) in
        Bytes.set_int32_le b !pos (Int32.logxor w mask);
        if Page.checksum b = sum then ok := false;
        Bytes.set_int32_le b !pos w;
        pos := !pos + 4
      done;
      !ok)

let prop_page_sum_swap =
  QCheck.Test.make ~count:100 ~name:"page checksum: two swapped 8-byte words are caught" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let size = if Rng.bool rng then 512 else 4096 in
      let b = random_bytes rng size in
      let sum = Page.checksum b in
      let words = (size - 8) / 8 in
      let ok = ref true in
      for _ = 1 to 40 do
        let i = 8 + (8 * Rng.int rng words) and j = 8 + (8 * Rng.int rng words) in
        let wi = Bytes.get_int64_le b i and wj = Bytes.get_int64_le b j in
        if wi <> wj then begin
          Bytes.set_int64_le b i wj;
          Bytes.set_int64_le b j wi;
          if Page.checksum b = sum then ok := false;
          Bytes.set_int64_le b i wi;
          Bytes.set_int64_le b j wj
        end
      done;
      !ok)

(* A stamped 4 KiB page of records, and a second stamp of it after
   deletes and more inserts: the two images a torn write mixes. *)
let two_versions seed =
  let rng = Rng.create seed in
  let page = Page.create 4096 in
  let fill () =
    for _ = 1 to 12 do
      ignore (Page.insert page (String.init (40 + Rng.int rng 200) (fun _ -> Char.chr (33 + Rng.int rng 90))))
    done
  in
  fill ();
  Page.stamp page;
  let old_img = Bytes.copy (Page.image page) in
  for s = 0 to Page.nslots page - 1 do
    if Rng.bool rng then Page.delete page s
  done;
  fill ();
  Page.stamp page;
  (old_img, Bytes.copy (Page.image page))

let prop_page_sum_sector =
  QCheck.Test.make ~count:60 ~name:"page checksum: a zeroed or torn 512-byte sector is caught"
    seed_arb (fun seed ->
      let old_img, new_img = two_versions seed in
      let ok = ref true in
      let refused b = Result.is_error (Page.of_bytes b) in
      for k = 0 to 7 do
        (* sector k zeroed, when it was not already *)
        let z = Bytes.copy new_img in
        Bytes.fill z (512 * k) 512 '\000';
        if (not (Bytes.equal z new_img)) && not (refused z) then ok := false;
        (* the new image torn at boundary k: its first k sectors over the
           old image *)
        if k > 0 then begin
          let torn = Bytes.copy old_img in
          Bytes.blit new_img 0 torn 0 (512 * k);
          if (not (Bytes.equal torn new_img)) && not (refused torn) then ok := false
        end
      done;
      !ok)

let test_page_sum_allocates_nothing () =
  let b = Bytes.init 4096 (fun i -> Char.chr (i * 31 land 255)) in
  Alcotest.(check (float 0.)) "minor words of 100 checksums of 4 KiB, over an empty loop's" 0.
    (extra_minor_words (fun () -> ignore (Sys.opaque_identity (Page.checksum b))))

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
   and where compaction moves it are part of the on-disk format.  The
   digests cover each image from byte 12, past the checksum and the
   magic, so they pin placement whatever the page format's sum. *)
let pinned_page_images =
  [
    (512, 1, "1559c5b4db0f5c6f68f42827fe5365ed");
    (512, 2, "f684d913f8b80af6465110588b92ddde");
    (512, 3, "a2a7c3d4d295b13c0c22685b29885ef5");
    (512, 4, "0eab863aa3ddc32ab7f8d577412486d4");
    (512, 5, "c26f58d7e03da51aed097393c9e232b1");
    (512, 6, "91bf5ba8723e6b62c2986b81841836e0");
    (512, 7, "6acf5ca588d76d1ece5f7f6f2cbd70c0");
    (512, 8, "ccaf6554930f3d65aae905a6f275cb02");
    (4096, 1, "8d20f2a11d761950c95cf04329d78933");
    (4096, 2, "78cf00165a4c042407246c4f55b8ad12");
    (4096, 3, "882f4c477fe8c006d4c11b6fe9853b7e");
    (4096, 4, "b689a5628478c5fe66bd1a110944bb85");
    (4096, 5, "0e656170947c6f67126c16570e6ebddd");
    (4096, 6, "8214feefff9f9737a5d52e4e022fe5c2");
    (4096, 7, "385273ecbd6832f55b8982457ac3df0c");
    (4096, 8, "623ce162787cf8d6b85f3ab515bf3dd5");
  ]

let test_page_placement_pinned () =
  List.iter
    (fun (size, seed, want) ->
      let ok, page = page_ops ~size seed in
      let label = Printf.sprintf "%d-byte page, seed %d" size seed in
      Alcotest.(check bool) (label ^ ": model and image agree") true ok;
      Alcotest.(check string) (label ^ ": image digest") want
        (Digest.to_hex (Digest.bytes (Bytes.sub (Page.image page) 12 (size - 12)))))
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

(* The double-write slot repairs a torn page only with the image its
   frame names: a frame whose stamped sum is not its image's (a slot
   write torn after the frame, over an older entry) is no copy at all. *)
let test_dblwr_slot_verified () =
  with_dir "dblwr_slot" (fun dir ->
      let schema = storage_schema () in
      let cfg = small_config dir in
      let ps = cfg.Engine.page_size in
      let eng = Engine.create cfg in
      let store = Engine.store eng schema in
      List.iter
        (fun i ->
          ignore
            (Store.new_instance
               ~init:[ (fn "qty", Value.Vint i); (fn "label", Value.Vstring (String.make 300 'x')) ]
               store (cn "item")))
        [ 1; 2 ];
      Engine.close eng;
      let path name = Filename.concat dir name in
      let data = In_channel.with_open_bin (path "data.pages") In_channel.input_all in
      let page pid = Bytes.of_string (String.sub data (pid * ps) ps) in
      let slot pid img = Codec.frame (Codec.to_hex8 pid ^ Bytes.sub_string img 0 8) ^ Bytes.to_string img in
      let reopen_with dblwr =
        (* page 1 torn: its second half zeroed *)
        let torn = page 1 in
        Bytes.fill torn (ps / 2) (ps / 2) '\000';
        let fd = Unix.openfile (path "data.pages") [ Unix.O_WRONLY ] 0 in
        ignore (Unix.lseek fd ps Unix.SEEK_SET);
        ignore (Unix.write fd torn 0 ps);
        Unix.close fd;
        Out_channel.with_open_bin (path "dblwr.log") (fun oc -> Out_channel.output_string oc dblwr);
        Engine.create cfg
      in
      let mismatched = Bytes.to_string (Bytes.sub (Bytes.of_string (slot 1 (page 1))) 0 32) in
      Alcotest.check_raises "a frame over another page's image repairs nothing"
        (Failure "Storage: page 1 corrupt with no dblwr copy") (fun () ->
          ignore (reopen_with (mismatched ^ Bytes.to_string (page 2))));
      let eng = reopen_with (slot 1 (page 1)) in
      Alcotest.(check int) "the named image repairs the page" 2
        (Store.instance_count (Engine.store eng schema));
      Engine.close eng)

(* A record on two pages — it migrated, and a crash caught only the
   destination's write-back — loses the copy on the lower-LSN page at
   reopen, and that page is rewritten through the double-write slot as a
   write-back is, so a crash inside the rewrite leaves the slot naming
   it.  In [Fsync] mode the rewrite costs the slot's force and the
   page's, before the closing checkpoint's two. *)
let test_stale_copy_dropped () =
  with_dir "stale_copy" (fun dir ->
      let schema = storage_schema () in
      let cfg = small_config dir in
      let ps = cfg.Engine.page_size in
      let eng = Engine.create cfg in
      let store = Engine.store eng schema in
      let item i =
        Store.new_instance
          ~init:[ (fn "qty", Value.Vint i); (fn "label", Value.Vstring (String.make 300 'x')) ]
          store (cn "item")
      in
      let a = item 1 in
      let b = item 2 in
      Engine.close eng;
      let path = Filename.concat dir "data.pages" in
      let read_page pid =
        let data = In_channel.with_open_bin path In_channel.input_all in
        match Page.of_bytes (Bytes.of_string (String.sub data (pid * ps) ps)) with
        | Ok p -> p
        | Error e -> Alcotest.failf "page %d: %s" pid e
      in
      let oids_on p =
        let l = ref [] in
        Page.iter p (fun _ payload ->
            match Page.Rec.decode payload with
            | Some r -> l := r.Page.Rec.r_oid :: !l
            | None -> Alcotest.fail "undecodable record");
        List.sort compare !l
      in
      let a_page = read_page 1 in
      Alcotest.(check (list int)) "a alone on page 1" [ Oid.to_int a ] (oids_on a_page);
      (* page 3: a's record again, under a higher LSN than page 1's *)
      let copy = Page.create ps in
      Page.iter a_page (fun _ payload -> ignore (Page.insert copy payload));
      Page.set_lsn copy (Page.lsn a_page + 1);
      Page.stamp copy;
      Out_channel.with_open_gen [ Open_wronly; Open_binary ] 0 path (fun oc ->
          Out_channel.seek oc (Int64.of_int (3 * ps));
          Out_channel.output_bytes oc (Page.image copy));
      let m = Tavcc_obs.Metrics.create () in
      let eng = Engine.create { cfg with sync = Engine.Fsync; metrics = Some m } in
      Alcotest.(check int) "reopen: fsyncs" (2 + 1 + 1)
        (Tavcc_obs.Metrics.value (Tavcc_obs.Metrics.counter m "storage.fsyncs"));
      let store = Engine.store eng schema in
      Alcotest.(check int) "one instance per oid" 2 (Store.instance_count store);
      Alcotest.(check (list value)) "both read back" [ Value.Vint 1; Value.Vint 2 ]
        (List.map (fun o -> Store.read store o (fn "qty")) [ a; b ]);
      Engine.close eng;
      Alcotest.(check (list int)) "the stale copy is gone" [] (oids_on (read_page 1));
      Alcotest.(check (list int)) "the live copy stays" [ Oid.to_int a ] (oids_on (read_page 3)))

(* --- format 1 is refused, never read ---

   Format 1 summed the meta page and every data page with FNV-1a/32,
   which stays the WAL and wire frames' checksum, under the magics
   "TVMT" and "TVPG".  These images are built by hand the way it did. *)

let format1_sum b = Codec.put_hex8 b 0 (Codec.fnv32_sub b 8 (Bytes.length b - 8))

let format1_meta ps =
  let b = Bytes.make ps '\000' in
  let payload = Printf.sprintf "TVMT%08x%016x%016x%016x" ps 0 1 2 in
  Bytes.blit_string payload 0 b 8 (String.length payload);
  format1_sum b;
  b

let format1_page ps =
  let page = Page.create ps in
  ignore
    (Page.insert page
       (Page.Rec.encode
          { Page.Rec.r_oid = 0; r_cls = "item"; r_slots = [| ("qty", Value.Vint 7); ("label", Value.Vnull) |] }));
  let b = Page.image page in
  Bytes.blit_string "TVPG" 0 b 8 4;
  format1_sum b;
  b

let test_format1_refused () =
  let cfg dir = small_config dir in
  let ps = (cfg "").Engine.page_size in
  (* a torn meta page: the first 10 bytes of its write, sum and half the
     magic, over a never-written page *)
  let torn_meta = Bytes.make ps '\000' in
  Bytes.blit (format1_meta ps) 0 torn_meta 0 10;
  List.iter
    (fun (name, meta, want) ->
      with_dir name (fun dir ->
          Sys.mkdir dir 0o755;
          Out_channel.with_open_bin (Filename.concat dir "data.pages") (fun oc ->
              Out_channel.output_bytes oc meta;
              Out_channel.output_bytes oc (format1_page ps));
          match Engine.create (cfg dir) with
          | eng ->
              Engine.close eng;
              Alcotest.failf "%s: a format-1 directory opened" name
          | exception Failure msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %S names the format and what carried it" name msg)
                true
                (contains msg "format 1" && contains msg want)))
    [ ("format1_meta", format1_meta ps, "meta page"); ("format1_torn_meta", torn_meta, "page 1") ]

(* --- fsyncs, counted in [Fsync] mode ---

   Each step's count is pinned, so dropping any of the engine's forces
   fails here: the WAL force at commit and before a write-back, the
   double-write and the page write of a write-back, the meta page at a
   checkpoint, and recovery's force of the page it repaired. *)

let test_fsync_counts () =
  with_dir "fsync_counts" (fun dir ->
      let schema = storage_schema () in
      let tear = ref false in
      let io_hook = function
        | Engine.Page_write _ when !tear -> Engine.Torn 100
        | _ -> Engine.Proceed
      in
      let open_engine pool_pages =
        let m = Tavcc_obs.Metrics.create () in
        let cfg =
          { (small_config dir) with pool_pages; sync = Engine.Fsync; metrics = Some m; io_hook = Some io_hook }
        in
        let eng = Engine.create cfg in
        let c = Tavcc_obs.Metrics.counter m in
        let count () = Tavcc_obs.Metrics.value (c "storage.fsyncs") in
        let writes () = Tavcc_obs.Metrics.value (c "storage.page_writes") in
        (eng, Engine.store eng schema, count, writes)
      in
      let eng, store, fsyncs, writes = open_engine 2 in
      let step label want f =
        let n0 = fsyncs () in
        f ();
        Alcotest.(check int) (label ^ ": fsyncs") want (fsyncs () - n0)
      in
      (* one 300-byte record fills a 512-byte page: two pages, both
         resident in the two frames *)
      let item i =
        Store.new_instance
          ~init:[ (fn "qty", Value.Vint i); (fn "label", Value.Vstring (String.make 300 'x')) ]
          store (cn "item")
      in
      let a = item 1 in
      let b = item 2 in
      Engine.checkpoint eng;
      step "a commit that evicts nothing forces the WAL once" 1 (fun () ->
          Engine.begin_txn eng 1;
          Store.write store a (fn "qty") (Value.Vint 10);
          Store.write store b (fn "qty") (Value.Vint 20);
          Engine.commit eng 1);
      Engine.begin_txn eng 2;
      let w0 = writes () in
      (* a third page evicts a dirty one: WAL force, double-write, page *)
      let c = ref a in
      step "one write-back" 3 (fun () -> c := item 3);
      Alcotest.(check int) "exactly one write-back" 1 (writes () - w0);
      step "commit" 1 (fun () -> Engine.commit eng 2);
      (* two dirty pages (two of each write-back's forces; the WAL is
         forced already), the Checkpoint record, the meta page *)
      step "checkpoint" 6 (fun () -> Engine.checkpoint eng);
      (* two frames hold two of the three pages: writing all three in one
         transaction evicts a dirty page by the third write at the latest,
         and that page write tears *)
      Engine.begin_txn eng 3;
      tear := true;
      (match List.iter (fun o -> Store.write store o (fn "qty") (Value.Vint 99)) [ a; b; !c ] with
      | () -> Alcotest.fail "no page write tore"
      | exception Engine.Crashed _ -> ());
      tear := false;
      Engine.abandon eng;
      (* four frames this time, so recovery evicts nothing: the repaired
         page's force, then the closing checkpoint's — the WAL with the
         loser's compensations, two for each of the three pages redo and
         undo dirtied, the Checkpoint record, the meta page *)
      let eng, store, fsyncs, writes = open_engine 4 in
      Alcotest.(check int) "reopen: pages written back" 3 (writes ());
      Alcotest.(check int) "reopen: fsyncs" (1 + 1 + (2 * 3) + 1 + 1) (fsyncs ());
      Alcotest.(check (list value)) "the loser is rolled back"
        [ Value.Vint 10; Value.Vint 20; Value.Vint 3 ]
        (List.map (fun o -> Store.read store o (fn "qty")) [ a; b; !c ]);
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

(* Replay digests of plans that fire after populate (and of one that
   never fires, covering the whole run), pinned: the bytes every one of
   them leaves on disk, and the state recovered from them.  cck:1 and
   cck:9 crash the checkpoint right after populate, the same for every
   seed; cck:40 and cck:52 land in later checkpoints, which flush pages
   the seeded transactions dirtied. *)
let pinned_digests =
  [
    (1, "f:;cf:20", "9aeff9e8a6736729202e3dafe54f26a0");
    (1, "f:;torn:30:9", "b234a291ed4493d3a21b8b91123f3e07");
    (1, "f:;cpw:60", "7e4c261ea60af80c8cb068047e6f5ff0");
    (1, "f:;tpg:80:17", "318f0fb668aad35374b65bb147f5eac6");
    (1, "f:;cf:400", "899d25110f1c6a5c0359cec5acff6cd0");
    (42, "f:;cf:20", "ffbdacd2a08101556ec5b4b3f43dc161");
    (42, "f:;torn:30:9", "d4c664924af8e0da86768f4df09c516e");
    (42, "f:;cpw:60", "c138ad6b8b5138bcb5eed75f798c6c45");
    (42, "f:;tpg:80:17", "e17825289e103bdcb001cb9b3b688b86");
    (42, "f:;cf:400", "161a8d862dff54a03981478c7f772dad");
    (99, "f:;cf:20", "4d4b8298d96e96a3a9ea92c4ecdcccf1");
    (99, "f:;torn:30:9", "e1be9816ca51b7451c2bd1dce9dd7370");
    (99, "f:;cpw:60", "adf14fc801663bdcb2a499b578dd7978");
    (99, "f:;tpg:80:17", "3f8360a2a8922ef67151fd0cc4e14f81");
    (99, "f:;cf:400", "a81dcadd24e836284994e1973f8b97c1");
    (521383, "f:;cf:20", "d514686e07332aaeadb54870a3ff2562");
    (521383, "f:;torn:30:9", "88966a8c57854ce8412bf42498cbe6ab");
    (521383, "f:;cpw:60", "c7230a92b7b1b5009294416c57bd2635");
    (521383, "f:;tpg:80:17", "66209e9e6d36eb6c9c184a27c048309b");
    (521383, "f:;cf:400", "50aee34427d6ca832d01a7baf1eb70de");
    (50631, "f:;cf:20", "829df0bcc679776c5eb8fada0f04a664");
    (50631, "f:;torn:30:9", "ccd9532df00b1c753293bf21e679583b");
    (50631, "f:;cpw:60", "4ac2ff21faedbc3459b9930f2c73c65b");
    (50631, "f:;tpg:80:17", "bdf74310e1bb8647b119e19537aaef3d");
    (50631, "f:;cf:400", "97716c43dd44b5705bf0e3c6e2658321");
    (42, "f:;cck:1", "1c3cdffddf88c6217c9310c2af8d6544");
    (42, "f:;cck:9", "3de7b024ca4079ba2df5afdffab5638b");
    (1, "f:;cck:40", "5596c0779fb69e74076ca732be74c18b");
    (42, "f:;cck:40", "f69425be93b67cd8fb2ef8f28b621b1a");
    (99, "f:;cck:40", "95388fc3ffb46ddb78f05961cdb79daa");
    (1, "f:;cck:52", "4a61d7bc6874642ba160e42814a88cdc");
    (42, "f:;cck:52", "ea805d8ff90debf42d53a88b81b904d1");
    (99, "f:;cck:52", "74200b672de447d774e1aaa66489b9f6");
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
    QCheck_alcotest.to_alcotest prop_page_sum_reference;
    QCheck_alcotest.to_alcotest prop_page_sum_word;
    QCheck_alcotest.to_alcotest prop_page_sum_swap;
    QCheck_alcotest.to_alcotest prop_page_sum_sector;
    Alcotest.test_case "page: a 4 KiB checksum allocates nothing" `Quick
      test_page_sum_allocates_nothing;
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
    Alcotest.test_case "engine: the double-write slot repairs only the image it names" `Quick
      test_dblwr_slot_verified;
    Alcotest.test_case "engine: a stale record copy is dropped through the slot" `Quick
      test_stale_copy_dropped;
    Alcotest.test_case "engine: a format-1 directory is refused by name" `Quick
      test_format1_refused;
    Alcotest.test_case "engine: fsyncs per step are pinned in Fsync mode" `Quick
      test_fsync_counts;
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
