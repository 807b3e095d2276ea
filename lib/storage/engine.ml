open Tavcc_model
open Tavcc_recovery
module Codec = Tavcc_chaos.Codec
module CN = Name.Class
module FN = Name.Field

exception Crashed of string

type io_point =
  | Wal_write of int
  | Page_write of int
  | Dblwr_write of int
  | Meta_write
  | Ckpt_begin
  | Ckpt_end

type io_action = Proceed | Torn of int

type sync = Buffered | Fsync

type config = {
  dir : string;
  page_size : int;
  pool_pages : int;
  self_journal : bool;
  sync : sync;
  metrics : Tavcc_obs.Metrics.t option;
  io_hook : (io_point -> io_action) option;
}

let default_config ~dir =
  {
    dir;
    page_size = 4096;
    pool_pages = 64;
    self_journal = true;
    sync = Buffered;
    metrics = None;
    io_hook = None;
  }

type rid = { mutable r_pid : int; mutable r_slot : int; r_cls : string }

type obs = {
  c_page_reads : Tavcc_obs.Metrics.counter;
  c_page_writes : Tavcc_obs.Metrics.counter;
  c_wal_bytes : Tavcc_obs.Metrics.counter;
  c_ckpts : Tavcc_obs.Metrics.counter;
  c_cache_hits : Tavcc_obs.Metrics.counter;
  c_cache_misses : Tavcc_obs.Metrics.counter;
  c_wal_appends : Tavcc_obs.Metrics.counter;
  c_wal_flushes : Tavcc_obs.Metrics.counter;
  c_fsyncs : Tavcc_obs.Metrics.counter;
}

type t = {
  cfg : config;
  mu : Mutex.t;
  data_fd : Unix.file_descr;
  wal_fd : Unix.file_descr;
  dblwr_fd : Unix.file_descr;
  mutable pending : string list; (* encoded, newest first, not yet on disk *)
  mutable records : int; (* in the log, the pending tail included *)
  mutable wal_bytes : int;
  dblwr_buf : Bytes.t; (* the double-write slot's next contents *)
  mutable pool : Buffer_pool.t; (* knot-tied after create *)
  dir_tbl : (int, rid) Hashtbl.t;
  extents : (string, int list ref) Hashtbl.t; (* highest oid first *)
  free : (int, int) Hashtbl.t; (* pid -> insert-capacity hint *)
  mutable next_oid : int;
  mutable next_pid : int; (* page 0 is the meta page *)
  mutable ckpt_lsn : int;
  cache : (int, Value.t array) Hashtbl.t;
  cache_ring : int array; (* eviction ring over cached oids; -1 = free *)
  mutable cache_cur : int;
  active : (int, Wal.record list ref) Hashtbl.t; (* each one's changes, newest first *)
  ambient : (int * int, int) Hashtbl.t;
  obs : obs option;
  mutable hooks_on : bool;
  mutable in_recovery : bool;
}

let bump t f = match t.obs with None -> () | Some o -> Tavcc_obs.Metrics.incr (f o)
let bumpn t f n = match t.obs with None -> () | Some o -> Tavcc_obs.Metrics.add (f o) n

(* --- low-level file IO --- *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

let pwrite_at fd off b len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  write_all fd b 0 len

(* Fills all of [b] from [off]; a read that stops at end of file leaves
   the rest zero, as a sparse hole reads. *)
let pread_into fd off b =
  let len = Bytes.length b in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go pos =
    if pos < len then
      let n = Unix.read fd b pos (len - pos) in
      if n > 0 then go (pos + n) else Bytes.fill b pos (len - pos) '\000'
  in
  go 0

let read_whole fd =
  let b = Bytes.create (Unix.fstat fd).Unix.st_size in
  pread_into fd 0 b;
  Bytes.unsafe_to_string b

let maybe_fsync t fd =
  if t.cfg.sync = Fsync then begin
    Unix.fsync fd;
    bump t (fun o -> o.c_fsyncs)
  end

let hook t pt =
  if t.hooks_on && not t.in_recovery then
    match t.cfg.io_hook with None -> Proceed | Some h -> h pt
  else Proceed

let hooked_write t pt fd off b =
  match hook t pt with
  | Proceed -> pwrite_at fd off b (Bytes.length b)
  | Torn k ->
      pwrite_at fd off b (max 0 (min k (Bytes.length b)));
      raise (Crashed "torn write")

(* --- WAL --- *)

let log t r =
  t.pending <- Codec.encode_record r :: t.pending;
  t.records <- t.records + 1;
  bump t (fun o -> o.c_wal_appends)

(* A forward change also joins its transaction's undo list while the
   transaction is active (autocommit work, under txn 0, never is). *)
let log_change t txn r =
  log t r;
  match Hashtbl.find_opt t.active txn with Some l -> l := r :: !l | None -> ()

let wal_flush t =
  if t.pending <> [] then begin
    let payload = String.concat "" (List.rev t.pending) in
    hooked_write t (Wal_write (String.length payload)) t.wal_fd t.wal_bytes
      (Bytes.unsafe_of_string payload);
    t.wal_bytes <- t.wal_bytes + String.length payload;
    t.pending <- [];
    maybe_fsync t t.wal_fd;
    bumpn t (fun o -> o.c_wal_bytes) (String.length payload);
    bump t (fun o -> o.c_wal_flushes)
  end

(* --- the double-write slot ---

   dblwr.log holds one entry at offset 0, which every write-back (and
   recovery's rewrite of a page that held a stale copy) overwrites: a
   Codec frame of (pid₈, the image's stamped sum₈), then the image.  One
   slot is enough because a write-back is synchronous —
   double-write, page write, each forced under [Fsync] — so when the
   next one overwrites the slot, the page write the slot guarded has
   returned; only the page write in flight can be torn, and the slot
   holds its copy.  The image is not hashed again: it is valid when it
   passes [Page.check] and its stamped sum is the frame's. *)

let dblwr_frame = 32

let dblwr_entry t pid img =
  let b = t.dblwr_buf in
  Codec.put_hex8 b 0 16;
  Codec.put_hex8 b 16 pid;
  Bytes.blit img 0 b 24 8;
  Codec.put_hex8 b 8 (Codec.fnv32_sub b 16 16);
  Bytes.blit img 0 b dblwr_frame (Bytes.length img);
  b

(* The slot's (pid, image) when its frame is whole and the image is the
   one the frame names; the image is checked by the caller. *)
let dblwr_slot t =
  let hdr = Bytes.create dblwr_frame and img = Bytes.create t.cfg.page_size in
  pread_into t.dblwr_fd 0 hdr;
  pread_into t.dblwr_fd dblwr_frame img;
  match Codec.scan hdr ~pos:0 ~stop:dblwr_frame with
  | `Frame (16, 16) when Bytes.sub_string hdr 24 8 = Bytes.sub_string img 0 8 ->
      Some (Codec.get_hex8 hdr 16, img)
  | `Frame _ | `Incomplete | `Corrupt _ -> None

(* --- pages through the pool --- *)

let page_off t pid = pid * t.cfg.page_size

(* The pool's [load]: page [pid] read into the frame's own [page]. *)
let load_page t pid page =
  bump t (fun o -> o.c_page_reads);
  let b = Page.image page in
  pread_into t.data_fd (page_off t pid) b;
  if Page.is_zero b then Page.clear page
  else
    match Page.check page with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "Storage: corrupt page %d (%s)" pid e)

(* A stamped image onto page [pid] through the slot: while the page
   write is in flight, the slot holds its image. *)
let double_write t pid img =
  hooked_write t (Dblwr_write pid) t.dblwr_fd 0 (dblwr_entry t pid img);
  maybe_fsync t t.dblwr_fd;
  hooked_write t (Page_write pid) t.data_fd (page_off t pid) img;
  maybe_fsync t t.data_fd

let write_back t pid page =
  (* WAL-before-data: the log must be stable past the page's LSN before
     the page image may replace the one on disk. *)
  wal_flush t;
  Page.stamp page;
  double_write t pid (Page.image page);
  bump t (fun o -> o.c_page_writes)

(* --- in-memory maps --- *)

let extent_ref t cls =
  match Hashtbl.find_opt t.extents cls with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace t.extents cls r;
      r

let extent_add t cls oid =
  let r = extent_ref t cls in
  (* keep descending oid order (creation order reversed) even when an
     aborted delete re-inserts an old oid *)
  let rec ins = function
    | x :: tl when x > oid -> x :: ins tl
    | l -> oid :: l
  in
  r := ins !r

let extent_remove t cls oid =
  let r = extent_ref t cls in
  r := List.filter (fun o -> o <> oid) !r

let cache_put t oid values =
  (* ring eviction: at capacity, drop the entry the cursor points at
     instead of resetting the whole cache (which thrashes as soon as
     the working set exceeds it) *)
  if not (Hashtbl.mem t.cache oid) then begin
    let old = t.cache_ring.(t.cache_cur) in
    if old >= 0 then Hashtbl.remove t.cache old;
    t.cache_ring.(t.cache_cur) <- oid;
    t.cache_cur <- (t.cache_cur + 1) mod Array.length t.cache_ring
  end;
  Hashtbl.replace t.cache oid values

let stamp t page = Page.set_lsn page t.records

let free_update t pid page = Hashtbl.replace t.free pid (Page.insert_capacity page)

let max_payload t = t.cfg.page_size - Page.header_size - Page.slot_entry

(* --- record operations (physical, no logging) --- *)

let choose_pid t len =
  let best =
    Hashtbl.fold
      (fun pid cap best ->
        if cap >= len then match best with Some b when b < pid -> Some b | _ -> Some pid
        else best)
      t.free None
  in
  match best with
  | Some pid -> pid
  | None ->
      let pid = t.next_pid in
      t.next_pid <- pid + 1;
      pid

let rec place t payload =
  let len = String.length payload in
  let pid = choose_pid t len in
  let page = Buffer_pool.get t.pool pid in
  match Page.insert page payload with
  | Some slot ->
      stamp t page;
      free_update t pid page;
      Buffer_pool.unpin t.pool pid ~dirty:true;
      (pid, slot)
  | None ->
      (* stale free hint; correct it and retry elsewhere *)
      free_update t pid page;
      Buffer_pool.unpin t.pool pid ~dirty:false;
      place t payload

let apply_insert t ~oid ~cls ~slots =
  let payload = Page.Rec.encode { Page.Rec.r_oid = oid; r_cls = cls; r_slots = slots } in
  if String.length payload > max_payload t then
    failwith "Storage: record larger than a page";
  let pid, slot = place t payload in
  Hashtbl.replace t.dir_tbl oid { r_pid = pid; r_slot = slot; r_cls = cls };
  extent_add t cls oid;
  cache_put t oid (Array.map snd slots)

let find_rid t oid =
  match Hashtbl.find_opt t.dir_tbl oid with
  | Some r -> r
  | None -> raise (Store.Unknown_oid (Oid.of_int oid))

let read_rec t oid =
  let rid = find_rid t oid in
  let page = Buffer_pool.get t.pool rid.r_pid in
  let payload =
    match Page.read_slot page rid.r_slot with
    | Some s -> s
    | None -> failwith "Storage: directory points at a dead slot"
  in
  Buffer_pool.unpin t.pool rid.r_pid ~dirty:false;
  match Page.Rec.decode payload with
  | Some r -> r
  | None -> failwith "Storage: undecodable record payload"

let read_values t oid =
  match Hashtbl.find_opt t.cache oid with
  | Some vs ->
      if not (Hashtbl.mem t.dir_tbl oid) then raise (Store.Unknown_oid (Oid.of_int oid));
      bump t (fun o -> o.c_cache_hits);
      vs
  | None ->
      bump t (fun o -> o.c_cache_misses);
      let r = read_rec t oid in
      let vs = Array.map snd r.Page.Rec.r_slots in
      cache_put t oid vs;
      vs

let apply_delete t oid =
  let rid = find_rid t oid in
  let page = Buffer_pool.get t.pool rid.r_pid in
  Page.delete page rid.r_slot;
  stamp t page;
  free_update t rid.r_pid page;
  Buffer_pool.unpin t.pool rid.r_pid ~dirty:true;
  Hashtbl.remove t.dir_tbl oid;
  extent_remove t rid.r_cls oid;
  Hashtbl.remove t.cache oid

let apply_update t oid idx v =
  let rid = find_rid t oid in
  let page = Buffer_pool.get t.pool rid.r_pid in
  let payload =
    match Page.read_slot page rid.r_slot with
    | Some s -> s
    | None -> failwith "Storage: directory points at a dead slot"
  in
  let payload' =
    match Page.Rec.splice payload idx v with
    | Some p -> p
    | None -> (
        (* slow path only to produce the precise error *)
        match Page.Rec.decode payload with
        | None -> failwith "Storage: undecodable record payload"
        | Some r ->
            if idx < 0 || idx >= Array.length r.Page.Rec.r_slots then
              invalid_arg "Storage: field index out of range"
            else failwith "Storage: undecodable record payload")
  in
  if Page.replace page rid.r_slot payload' then begin
    stamp t page;
    (* an in-place overwrite (length <= old) leaves the free hint valid *)
    if String.length payload' > String.length payload then free_update t rid.r_pid page;
    Buffer_pool.unpin t.pool rid.r_pid ~dirty:true
  end
  else begin
    (* the grown record no longer fits: migrate it to another page *)
    Page.delete page rid.r_slot;
    stamp t page;
    free_update t rid.r_pid page;
    Buffer_pool.unpin t.pool rid.r_pid ~dirty:true;
    let pid', slot' = place t payload' in
    rid.r_pid <- pid';
    rid.r_slot <- slot'
  end;
  (match Hashtbl.find_opt t.cache oid with
  | Some vs -> vs.(idx) <- v
  | None -> ());
  ()

let apply_update_by_name t oid field v =
  let r = read_rec t oid in
  let idx = ref (-1) in
  Array.iteri (fun i (f, _) -> if f = field && !idx < 0 then idx := i) r.Page.Rec.r_slots;
  if !idx >= 0 then apply_update t oid !idx v

(* The one way a logged change reaches the pages: redo, rollback and
   restart undo all come through here.  A change goes by oid, whatever
   page holds the record, so applying it twice leaves what applying it
   once does.  [lost] rebuilds the image of an updated record that is on
   no page at all; only redo meets one. *)
let apply ?(lost = fun _ -> None) t r =
  match r with
  | Wal.Insert { oid; cls; slots; _ } ->
      let o = Oid.to_int oid in
      if o >= t.next_oid then t.next_oid <- o + 1;
      if Hashtbl.mem t.dir_tbl o then apply_delete t o;
      apply_insert t ~oid:o ~cls:(CN.to_string cls)
        ~slots:(Array.of_list (List.map (fun (f, v) -> (FN.to_string f, v)) slots))
  | Wal.Delete { oid; _ } ->
      let o = Oid.to_int oid in
      if Hashtbl.mem t.dir_tbl o then apply_delete t o
  | Wal.Update { oid; field; after; _ } | Wal.Clr { oid; field; after; _ } -> (
      let o = Oid.to_int oid in
      if Hashtbl.mem t.dir_tbl o then apply_update_by_name t o (FN.to_string field) after
      else
        match lost o with Some (cls, slots) -> apply_insert t ~oid:o ~cls ~slots | None -> ())
  | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ | Wal.Checkpoint _ -> ()

(* --- ambient transaction (per domain x thread) --- *)

let ambient_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let ambient t = match Hashtbl.find_opt t.ambient (ambient_key ()) with Some x -> x | None -> 0

(* --- meta page --- *)

(* The meta page is summed like a data page; format 1 magicked it "TVMT"
   and summed it with FNV-1a/32. *)
let meta_magic = "TVM2"
let meta_magic_format1 = "TVMT"

(* No conversion: a format-1 directory is refused, never read. *)
let format1 what =
  failwith
    (Printf.sprintf
       "Storage: %s is format 1 (FNV-1a/32 page checksums); this build reads format 2 only"
       what)

let meta_write t =
  let b = Bytes.make t.cfg.page_size '\000' in
  let payload =
    Printf.sprintf "%s%08x%016x%016x%016x" meta_magic t.cfg.page_size t.ckpt_lsn t.next_oid
      t.next_pid
  in
  Bytes.blit_string payload 0 b 8 (String.length payload);
  Codec.put_hex8 b 0 (Page.checksum b);
  hooked_write t Meta_write t.data_fd 0 b;
  maybe_fsync t t.data_fd

let meta_read ~page_size fd =
  let b = Bytes.create page_size in
  pread_into fd 0 b;
  if Page.is_zero b then None
  else if Bytes.sub_string b 8 4 = meta_magic_format1 then format1 "the meta page"
  else if Codec.get_hex8 b 0 <> Page.checksum b then None
  else if Bytes.sub_string b 8 4 <> meta_magic then None
  else
    let hex pos width = int_of_string_opt ("0x" ^ Bytes.sub_string b pos width) in
    match (hex 12 8, hex 20 16, hex 36 16, hex 52 16) with
    | Some ps, Some ckpt, Some noid, Some npid when ps = page_size -> Some (ckpt, noid, npid)
    | _ -> None

(* --- transactions --- *)

(* Compensates the transaction's own changes, newest first, logging each
   compensation before applying it; then logs [Abort].  The changes stay
   listed until then, so an abort that fails part-way can be retried. *)
let abort_locked t txn =
  (match Hashtbl.find_opt t.active txn with
  | Some changes -> Recovery.Undo.rollback ~log:(log t) ~apply:(apply t) !changes
  | None -> ());
  log t (Wal.Abort txn);
  Hashtbl.remove t.active txn

(* A transaction's changes go only once its commit record is stable: a
   failed force leaves them for the abort that follows. *)
let commit_locked t txn =
  log t (Wal.Commit txn);
  wal_flush t;
  Hashtbl.remove t.active txn

let begin_locked t txn =
  log t (Wal.Begin txn);
  Hashtbl.replace t.active txn (ref [])

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let begin_txn t txn =
  locked t (fun () ->
      begin_locked t txn;
      Hashtbl.replace t.ambient (ambient_key ()) txn)

let commit t txn =
  locked t (fun () ->
      commit_locked t txn;
      Hashtbl.remove t.ambient (ambient_key ()))

let abort t txn =
  locked t (fun () ->
      abort_locked t txn;
      Hashtbl.remove t.ambient (ambient_key ()))

let checkpoint t =
  locked t (fun () ->
      ignore (hook t Ckpt_begin);
      Buffer_pool.flush_all t.pool;
      wal_flush t;
      let activ = List.sort Int.compare (Hashtbl.fold (fun k _ l -> k :: l) t.active []) in
      let lsn = t.records in
      log t (Wal.Checkpoint activ);
      wal_flush t;
      t.ckpt_lsn <- lsn;
      (* every page the log up to here touches is clean on disk: the
         double-write entries are dead weight now *)
      Unix.ftruncate t.dblwr_fd 0;
      meta_write t;
      bump t (fun o -> o.c_ckpts);
      ignore (hook t Ckpt_end))

let flush t = locked t (fun () -> wal_flush t)

(* --- the Store-facing surface --- *)

let ext t =
  {
    Store.x_insert =
      (fun cls slots ->
        locked t (fun () ->
            let oid = t.next_oid in
            t.next_oid <- oid + 1;
            let txn = ambient t in
            let r = Wal.Insert { txn; oid = Oid.of_int oid; cls; slots = Array.to_list slots } in
            log_change t txn r;
            apply t r;
            Oid.of_int oid));
    x_delete =
      (fun oid ->
        locked t (fun () ->
            let o = Oid.to_int oid in
            let r = read_rec t o in
            let cls = CN.of_string r.Page.Rec.r_cls in
            let slots =
              Array.to_list
                (Array.map (fun (f, v) -> (FN.of_string f, v)) r.Page.Rec.r_slots)
            in
            let txn = ambient t in
            let r = Wal.Delete { txn; oid; cls; slots } in
            log_change t txn r;
            apply t r));
    x_exists = (fun oid -> locked t (fun () -> Hashtbl.mem t.dir_tbl (Oid.to_int oid)));
    x_class_of =
      (fun oid ->
        locked t (fun () ->
            Option.map
              (fun r -> CN.of_string r.r_cls)
              (Hashtbl.find_opt t.dir_tbl (Oid.to_int oid))));
    x_read = (fun oid i -> locked t (fun () -> (read_values t (Oid.to_int oid)).(i)));
    x_write =
      (fun oid i field v ->
        locked t (fun () ->
            let o = Oid.to_int oid in
            if t.cfg.self_journal then begin
              let before = (read_values t o).(i) and txn = ambient t in
              log_change t txn (Wal.Update { txn; oid; field; before; after = v })
            end
            else ignore (find_rid t o);
            apply_update t o i v));
    x_field_count =
      (fun oid -> locked t (fun () -> Array.length (read_values t (Oid.to_int oid))));
    x_extent =
      (fun cls ->
        locked t (fun () ->
            match Hashtbl.find_opt t.extents (CN.to_string cls) with
            | Some r -> List.rev_map Oid.of_int !r
            | None -> []));
    x_count = (fun () -> locked t (fun () -> Hashtbl.length t.dir_tbl));
  }

let store t schema = Store.create_ext schema (ext t)

(* --- journalling observer for the cooperative sim engine --- *)

let observe t (a : Tavcc_sim.Engine.access) =
  match a with
  | Tavcc_sim.Engine.Ob_begin txn -> locked t (fun () -> begin_locked t txn)
  | Tavcc_sim.Engine.Ob_read _ -> ()
  | Tavcc_sim.Engine.Ob_write { txn; oid; field; before; after } ->
      locked t (fun () -> log_change t txn (Wal.Update { txn; oid; field; before; after }))
  | Tavcc_sim.Engine.Ob_commit txn -> locked t (fun () -> commit_locked t txn)
  | Tavcc_sim.Engine.Ob_abort txn -> locked t (fun () -> abort_locked t txn)

(* --- durability hooks for the parallel engine --- *)

let journal t =
  {
    Tavcc_par.Par_engine.j_begin = begin_txn t;
    j_commit = commit t;
    j_abort = abort t;
  }

(* --- open / recovery --- *)

(* Rebuild an oid's full image from the log's complete history (the WAL
   file is never truncated, so position 0 is the store's birth).  Every
   physical store change is logged — forward updates, CLR compensations,
   inserts, compensating inserts/deletes — so folding records[0, upto)
   yields exactly the object's state at log position [upto].  Redo needs
   this when a record migrated between pages and only the source page's
   post-delete image reached disk: the object is then on no page at all,
   and its Update record must act as a re-insert. *)
let reconstruct records upto oid =
  let img = ref None in
  List.iteri
    (fun i r ->
      if i < upto then
        match r with
        | Wal.Insert { oid = o; cls; slots; _ } when Oid.to_int o = oid ->
            img :=
              Some
                ( CN.to_string cls,
                  Array.of_list (List.map (fun (f, v) -> (FN.to_string f, v)) slots) )
        | Wal.Delete { oid = o; _ } when Oid.to_int o = oid -> img := None
        | (Wal.Update { oid = o; field; after; _ } | Wal.Clr { oid = o; field; after; _ })
          when Oid.to_int o = oid -> (
            match !img with
            | None -> ()
            | Some (cls, slots) ->
                let f = FN.to_string field in
                img :=
                  Some
                    (cls, Array.map (fun (g, v) -> if g = f then (g, after) else (g, v)) slots))
        | _ -> ())
    records;
  !img

let recover_locked t =
  t.in_recovery <- true;
  let ps = t.cfg.page_size in
  (* 1. meta (torn-tolerant: fall back to full-log redo), read before
     anything is written, so a format-1 directory is refused untouched *)
  let ckpt0, noid0, npid0 =
    match meta_read ~page_size:ps t.data_fd with Some m -> m | None -> (0, 0, 1)
  in
  (* 2. the stable log: longest valid prefix; drop any torn tail *)
  let records, consumed = Codec.decode_from (read_whole t.wal_fd) in
  Unix.ftruncate t.wal_fd consumed;
  t.wal_bytes <- consumed;
  t.records <- List.length records;
  t.ckpt_lsn <- min ckpt0 t.records;
  t.next_oid <- noid0;
  (* 3. the pages, a torn one repaired from the double-write slot *)
  let repaired = ref false in
  let file_pages =
    ((Unix.fstat t.data_fd).Unix.st_size + ps - 1) / ps
  in
  t.next_pid <- max 1 (max npid0 file_pages);
  let page_lsns = Hashtbl.create 64 in
  let stale = ref [] in
  (* one image buffer for the scan: each page read into it is wrapped in
     place and done with before the next read *)
  let b = Bytes.create ps in
  for pid = 1 to t.next_pid - 1 do
    pread_into t.data_fd (page_off t pid) b;
    let page =
      if Page.is_zero b then None
      else
        match Page.of_bytes b with
        | Ok p -> Some p
        | Error _ when Page.is_format1 b -> format1 (Printf.sprintf "page %d" pid)
        | Error _ -> (
            match dblwr_slot t with
            | Some (slot_pid, img) when slot_pid = pid -> (
                match Page.of_bytes img with
                | Ok p ->
                    pwrite_at t.data_fd (page_off t pid) img ps;
                    repaired := true;
                    Some p
                | Error e ->
                    failwith
                      (Printf.sprintf "Storage: page %d torn and dblwr copy bad (%s)" pid e))
            | _ -> failwith (Printf.sprintf "Storage: page %d corrupt with no dblwr copy" pid))
    in
    match page with
    | None -> ()
    | Some p ->
        Hashtbl.replace page_lsns pid (Page.lsn p);
        Page.iter p (fun slot payload ->
            match Page.Rec.decode payload with
            | Some r ->
                let oid = r.Page.Rec.r_oid in
                (match Hashtbl.find_opt t.dir_tbl oid with
                | Some prev ->
                    (* two on-disk copies: a record migrated between
                       pages and the crash caught only the destination's
                       write-back.  The copy on the higher-LSN page is
                       the live one; the other slot is garbage. *)
                    let prev_lsn =
                      match Hashtbl.find_opt page_lsns prev.r_pid with Some l -> l | None -> 0
                    in
                    if Page.lsn p > prev_lsn then begin
                      stale := (prev.r_pid, prev.r_slot) :: !stale;
                      Hashtbl.replace t.dir_tbl oid
                        { r_pid = pid; r_slot = slot; r_cls = r.Page.Rec.r_cls }
                    end
                    else stale := (pid, slot) :: !stale
                | None ->
                    Hashtbl.replace t.dir_tbl oid
                      { r_pid = pid; r_slot = slot; r_cls = r.Page.Rec.r_cls });
                if oid >= t.next_oid then t.next_oid <- oid + 1
            | None -> failwith (Printf.sprintf "Storage: page %d slot %d undecodable" pid slot));
        Hashtbl.replace t.free pid (Page.insert_capacity p)
  done;
  (* the repaired page is durable before a cleanup below or the next
     write-back overwrites the slot that holds its copy, or the closing
     checkpoint truncates it *)
  if !repaired then maybe_fsync t t.data_fd;
  (* physically drop the stale copies before anything goes through the
     pool, each page through the slot as a write-back goes, then refresh
     the free hints of the touched pages *)
  List.iter
    (fun (pid, slot) ->
      pread_into t.data_fd (page_off t pid) b;
      match Page.of_bytes b with
      | Ok p ->
          Page.delete p slot;
          Page.stamp p;
          double_write t pid b;
          Hashtbl.replace t.free pid (Page.insert_capacity p)
      | Error _ -> assert false (* just validated above *))
    !stale;
  (* extents in creation (= oid) order, newest first *)
  Hashtbl.iter
    (fun oid rid -> extent_add t rid.r_cls oid)
    (Hashtbl.copy t.dir_tbl);
  (* 4. redo from the checkpoint: repeating history, logically by oid.  A
     record on no page at all was lost in a half-durable migration: its
     image as of this record is rebuilt from the full log. *)
  List.iteri
    (fun i r -> if i >= t.ckpt_lsn then apply t ~lost:(reconstruct records (i + 1)) r)
    records;
  (* 5. undo the losers, logging each compensation, then their Aborts *)
  let losers = Recovery.Restart.losers records in
  Recovery.Undo.rollback ~log:(log t) ~apply:(apply t)
    (Recovery.Undo.changes losers (List.rev records));
  List.iter (fun x -> log t (Wal.Abort x)) losers;
  t.in_recovery <- false

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let create cfg =
  if cfg.page_size < Page.min_size then invalid_arg "Storage: page_size too small";
  if cfg.pool_pages < 2 then invalid_arg "Storage: pool_pages must be >= 2";
  mkdir_p cfg.dir;
  let openf name =
    Unix.openfile (Filename.concat cfg.dir name) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
  in
  let obs =
    Option.map
      (fun m ->
        let c = Tavcc_obs.Metrics.counter m in
        {
          c_page_reads = c "storage.page_reads";
          c_page_writes = c "storage.page_writes";
          c_wal_bytes = c "storage.wal_bytes";
          c_ckpts = c "storage.checkpoints";
          c_cache_hits = c "storage.cache_hits";
          c_cache_misses = c "storage.cache_misses";
          c_wal_appends = c "wal.appends";
          c_wal_flushes = c "wal.flushes";
          c_fsyncs = c "storage.fsyncs";
        })
      cfg.metrics
  in
  let t =
    {
      cfg;
      mu = Mutex.create ();
      data_fd = openf "data.pages";
      wal_fd = openf "wal.log";
      dblwr_fd = openf "dblwr.log";
      pending = [];
      records = 0;
      wal_bytes = 0;
      dblwr_buf = Bytes.create (dblwr_frame + cfg.page_size);
      (* placeholder; the real pool (whose callbacks close over [t]) is
         knot-tied just below, before any page is touched *)
      pool =
        Buffer_pool.create ~pages:2 ~page_size:Page.min_size
          ~load:(fun _ _ -> ())
          ~write_back:(fun _ _ -> ());
      dir_tbl = Hashtbl.create 1024;
      extents = Hashtbl.create 16;
      free = Hashtbl.create 64;
      (* oids start at 0, matching [Oid.Gen] — a client that regenerates
         the deterministic workload store in memory (oosim blast) must
         produce the same oids this store allocated *)
      next_oid = 0;
      next_pid = 1;
      ckpt_lsn = 0;
      cache = Hashtbl.create 1024;
      (* row cache: 32 rows per pool frame *)
      cache_ring = Array.make (cfg.pool_pages * 32) (-1);
      cache_cur = 0;
      active = Hashtbl.create 8;
      ambient = Hashtbl.create 8;
      obs;
      hooks_on = false;
      in_recovery = false;
    }
  in
  t.pool <-
    Buffer_pool.create ~pages:cfg.pool_pages ~page_size:cfg.page_size ~load:(load_page t)
      ~write_back:(write_back t);
  Mutex.lock t.mu;
  recover_locked t;
  (* recovery ends with a checkpoint so the next crash replays little *)
  Mutex.unlock t.mu;
  checkpoint t;
  t.hooks_on <- true;
  t

let close ?(flush = true) t =
  if flush then checkpoint t;
  Unix.close t.data_fd;
  Unix.close t.wal_fd;
  Unix.close t.dblwr_fd

let abandon t =
  (* post-crash: release the fds without writing a byte *)
  (try Unix.close t.data_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wal_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.dblwr_fd with Unix.Unix_error _ -> ())

let dump t =
  locked t (fun () ->
      Hashtbl.fold (fun oid _ l -> oid :: l) t.dir_tbl []
      |> List.sort Int.compare
      |> List.map (fun oid ->
             let r = read_rec t oid in
             (oid, r.Page.Rec.r_cls, Array.to_list r.Page.Rec.r_slots)))

type stats = {
  s_instances : int;
  s_data_pages : int;
  s_pool_pages : int;
  s_pool : Buffer_pool.stats;
  s_wal_records : int;
  s_wal_bytes : int;
  s_cache_entries : int;
}

let stats t =
  locked t (fun () ->
      {
        s_instances = Hashtbl.length t.dir_tbl;
        s_data_pages = t.next_pid - 1;
        s_pool_pages = Buffer_pool.capacity t.pool;
        s_pool = Buffer_pool.stats t.pool;
        s_wal_records = t.records;
        s_wal_bytes = t.wal_bytes;
        s_cache_entries = Hashtbl.length t.cache;
      })
