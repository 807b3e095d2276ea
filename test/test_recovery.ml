(* WAL, snapshots and repeating-history restart. *)

open Tavcc_model
open Tavcc_recovery
open Helpers

let schema () =
  schema_of_source
    {|class item is
        fields a : integer; b : integer; tag : string;
      end|}

let item = cn "item"

let setup () =
  let store = Store.create (schema ()) in
  let o1 = Store.new_instance store item ~init:[ (fn "a", Value.Vint 1) ] in
  let o2 = Store.new_instance store item ~init:[ (fn "a", Value.Vint 2) ] in
  (store, o1, o2)

let test_wal_stability () =
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore (Wal.append wal (Wal.Commit 1));
  Alcotest.(check int) "nothing stable before flush" 0 (Wal.stable_lsn wal);
  Alcotest.(check int) "volatile tail visible" 2 (List.length (Wal.all wal));
  Wal.flush wal;
  Alcotest.(check int) "stable after flush" 2 (Wal.stable_lsn wal);
  ignore (Wal.append wal (Wal.Begin 2));
  Alcotest.(check int) "new tail volatile" 2 (List.length (Wal.stable wal));
  Alcotest.(check int) "lsn monotonic" 3 (Wal.length wal)

let test_snapshot_roundtrip () =
  let store, o1, o2 = setup () in
  let snap = Recovery.Snapshot.take store in
  Store.write store o1 (fn "a") (Value.Vint 100);
  Store.write store o2 (fn "tag") (Value.Vstring "dirty");
  let o3 = Store.new_instance store item in
  Recovery.Snapshot.restore store snap;
  Alcotest.check value "o1.a rewound" (Value.Vint 1) (Store.read store o1 (fn "a"));
  Alcotest.check value "o2.tag rewound" (Value.Vstring "") (Store.read store o2 (fn "tag"));
  Alcotest.(check bool) "newborn dropped" false (Store.exists store o3);
  Alcotest.(check int) "snapshot lists instances" 2
    (List.length (Recovery.Snapshot.instances snap))

let test_manager_commit_durable () =
  let store, o1, _ = setup () in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  let snap = Recovery.Manager.checkpoint mgr in
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 42);
  Alcotest.check value "write applied" (Value.Vint 42)
    (Recovery.Manager.read mgr ~txn:1 o1 (fn "a"));
  Recovery.Manager.commit mgr 1;
  (* Crash: volatile store lost; rebuild from snapshot + stable log. *)
  Recovery.Restart.recover store snap (Wal.stable wal);
  Alcotest.check value "committed write survives" (Value.Vint 42) (Store.read store o1 (fn "a"))

let test_uncommitted_lost () =
  let store, o1, _ = setup () in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  let snap = Recovery.Manager.checkpoint mgr in
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 42);
  (* No commit, no flush: the update never reached the disk. *)
  Recovery.Restart.recover store snap (Wal.stable wal);
  Alcotest.check value "update gone" (Value.Vint 1) (Store.read store o1 (fn "a"))

let test_loser_undone_from_stable_log () =
  let store, o1, o2 = setup () in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  let snap = Recovery.Manager.checkpoint mgr in
  (* T1 commits (forces the log, carrying T2's earlier updates with it);
     T2 is still running at the crash. *)
  Recovery.Manager.begin_txn mgr 2;
  Recovery.Manager.write mgr ~txn:2 o2 (fn "a") (Value.Vint 777);
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 42);
  Recovery.Manager.commit mgr 1;
  Recovery.Manager.write mgr ~txn:2 o2 (fn "b") (Value.Vint 888);
  Recovery.Restart.recover store snap (Wal.stable wal);
  Alcotest.check value "winner redone" (Value.Vint 42) (Store.read store o1 (fn "a"));
  Alcotest.check value "loser's stable update undone" (Value.Vint 2)
    (Store.read store o2 (fn "a"));
  Alcotest.check value "loser's volatile update never applied" (Value.Vint 0)
    (Store.read store o2 (fn "b"));
  Alcotest.(check (list int)) "losers" [ 2 ] (Recovery.Restart.losers (Wal.stable wal));
  Alcotest.(check (list int)) "committed" [ 1 ] (Recovery.Restart.committed (Wal.stable wal))

let test_abort_with_clrs () =
  let store, o1, _ = setup () in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  let snap = Recovery.Manager.checkpoint mgr in
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 50);
  Recovery.Manager.abort mgr 1;
  Alcotest.check value "abort rolled back" (Value.Vint 1) (Store.read store o1 (fn "a"));
  (* The same id restarts and commits a different value; the first
     incarnation's rollback is fully covered by CLRs. *)
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 60);
  Recovery.Manager.commit mgr 1;
  Recovery.Restart.recover store snap (Wal.stable wal);
  Alcotest.check value "second incarnation wins" (Value.Vint 60) (Store.read store o1 (fn "a"))

(* The rollback walks back from the log's tail to the Begin: one abort
   costs the same after 30 000 records as after none. *)
let test_abort_cost_flat () =
  let store, o1, _ = setup () in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  for txn = 1 to 10_000 do
    Recovery.Manager.begin_txn mgr txn;
    Recovery.Manager.write mgr ~txn o1 (fn "a") (Value.Vint txn);
    Recovery.Manager.commit mgr txn
  done;
  Recovery.Manager.begin_txn mgr 0;
  Recovery.Manager.write mgr ~txn:0 o1 (fn "a") (Value.Vint 0);
  let w0 = allocated_words () in
  Recovery.Manager.abort mgr 0;
  let words = allocated_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "one abort after %d records allocates %.0f words <= 1000" (Wal.length wal) words)
    true (words <= 1_000.);
  Alcotest.check value "abort rolled back" (Value.Vint 10_000) (Store.read store o1 (fn "a"))

let test_interleaved_incarnations () =
  (* The scenario that breaks naive whole-log rollback: t1 aborts, t2
     commits a new value, t1 restarts and crashes. *)
  let store, o1, _ = setup () in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  let snap = Recovery.Manager.checkpoint mgr in
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 5);
  Recovery.Manager.abort mgr 1;
  Recovery.Manager.begin_txn mgr 2;
  Recovery.Manager.write mgr ~txn:2 o1 (fn "a") (Value.Vint 9);
  Recovery.Manager.commit mgr 2;
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 12);
  Wal.flush wal;
  Recovery.Restart.recover store snap (Wal.stable wal);
  Alcotest.check value "t2's committed value restored" (Value.Vint 9)
    (Store.read store o1 (fn "a"))

let test_recover_idempotent () =
  let store, o1, o2 = setup () in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  let snap = Recovery.Manager.checkpoint mgr in
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 33);
  Recovery.Manager.commit mgr 1;
  Recovery.Manager.begin_txn mgr 2;
  Recovery.Manager.write mgr ~txn:2 o2 (fn "a") (Value.Vint 44);
  Wal.flush wal;
  Recovery.Restart.recover store snap (Wal.stable wal);
  let dump () =
    List.map
      (fun o -> (Store.read store o (fn "a"), Store.read store o (fn "b")))
      [ o1; o2 ]
  in
  let first = dump () in
  Recovery.Restart.recover store snap (Wal.stable wal);
  Alcotest.(check bool) "second recovery is a no-op" true (first = dump ())

let test_manager_errors () =
  let store, o1, _ = setup () in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  Recovery.Manager.begin_txn mgr 1;
  check_raises_invalid "double begin" (fun () -> Recovery.Manager.begin_txn mgr 1);
  check_raises_invalid "write outside txn" (fun () ->
      Recovery.Manager.write mgr ~txn:9 o1 (fn "a") (Value.Vint 0));
  check_raises_invalid "checkpoint with active txn" (fun () ->
      Recovery.Manager.checkpoint mgr);
  Recovery.Manager.commit mgr 1;
  check_raises_invalid "commit twice" (fun () -> Recovery.Manager.commit mgr 1)

(* Property: crash at a random log position; recovery must equal the
   state obtained by serially applying exactly the stably-committed
   transactions. *)
let prop_crash_anywhere =
  QCheck.Test.make ~count:120 ~name:"crash anywhere: committed state recovered exactly"
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)) (fun seed ->
      let rng = Tavcc_sim.Rng.create seed in
      let store, o1, o2 = setup () in
      let wal = Wal.create () in
      let mgr = Recovery.Manager.create store wal in
      let snap = Recovery.Manager.checkpoint mgr in
      (* Serial transactions, some committing, some aborting, with a few
         extra flushes sprinkled in. *)
      let expected = Hashtbl.create 8 in
      Hashtbl.replace expected (o1, fn "a") (Value.Vint 1);
      Hashtbl.replace expected (o2, fn "a") (Value.Vint 2);
      let committed_state = Hashtbl.copy expected in
      for txn = 1 to 8 do
        Recovery.Manager.begin_txn mgr txn;
        let target = if Tavcc_sim.Rng.bool rng then o1 else o2 in
        let field = if Tavcc_sim.Rng.bool rng then fn "a" else fn "b" in
        let v = Value.Vint (Tavcc_sim.Rng.int rng 1000) in
        Recovery.Manager.write mgr ~txn target field v;
        if Tavcc_sim.Rng.chance rng 0.2 then Wal.flush wal;
        if Tavcc_sim.Rng.chance rng 0.7 then begin
          Recovery.Manager.commit mgr txn;
          Hashtbl.replace committed_state (target, field) v
        end
        else Recovery.Manager.abort mgr txn
      done;
      (* Crash: only the stable prefix survives. *)
      let stable = Wal.stable wal in
      Recovery.Restart.recover store snap stable;
      (* Expected: committed state *of the transactions whose Commit made
         it to the stable log*. *)
      let surviving = Recovery.Restart.committed stable in
      let truth = Hashtbl.create 8 in
      Hashtbl.replace truth (o1, fn "a") (Value.Vint 1);
      Hashtbl.replace truth (o2, fn "a") (Value.Vint 2);
      List.iter
        (fun txn ->
          List.iter
            (function
              | Wal.Update { txn = x; oid; field; after; _ } when x = txn ->
                  Hashtbl.replace truth ((oid, field)) after
              | _ -> ())
            stable)
        surviving;
      List.for_all
        (fun o ->
          List.for_all
            (fun f ->
              let expected =
                Option.value ~default:(Value.default Value.Tint)
                  (Hashtbl.find_opt truth (o, f))
              in
              let expected = if f = fn "tag" then Value.Vstring "" else expected in
              Value.equal (Store.read store o f) expected)
            [ fn "a"; fn "b" ])
        [ o1; o2 ])

(* Property: crash after EVERY prefix of the log, not just the one the
   sprinkled flushes produced.  The truth is committed-incarnation
   replay: a Begin resets a transaction's pending updates (ids are
   reused across restarts), a Commit freezes them, and the frozen lists
   apply in commit order over the initial state. *)
let committed_prefix_truth base prefix =
  let truth = Hashtbl.copy base in
  let pending = Hashtbl.create 8 in
  let committed = ref [] in
  List.iter
    (fun (r : Wal.record) ->
      match r with
      | Wal.Begin t -> Hashtbl.replace pending t []
      | Wal.Update { txn; oid; field; after; _ } -> (
          match Hashtbl.find_opt pending txn with
          | Some l -> Hashtbl.replace pending txn ((oid, field, after) :: l)
          | None -> ())
      | Wal.Clr _ | Wal.Insert _ | Wal.Delete _ -> ()
      | Wal.Commit t -> (
          match Hashtbl.find_opt pending t with
          | Some l ->
              committed := List.rev l :: !committed;
              Hashtbl.remove pending t
          | None -> ())
      | Wal.Abort t -> Hashtbl.remove pending t
      | Wal.Checkpoint _ -> ())
    prefix;
  List.iter
    (List.iter (fun (oid, field, after) -> Hashtbl.replace truth (oid, field) after))
    (List.rev !committed);
  truth

let prop_crash_every_prefix =
  QCheck.Test.make ~count:40 ~name:"crash after every prefix: committed prefix replayed"
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)) (fun seed ->
      let rng = Tavcc_sim.Rng.create seed in
      let store, o1, o2 = setup () in
      let wal = Wal.create () in
      let mgr = Recovery.Manager.create store wal in
      let snap = Recovery.Manager.checkpoint mgr in
      let base = Hashtbl.create 8 in
      Hashtbl.replace base (o1, fn "a") (Value.Vint 1);
      Hashtbl.replace base (o2, fn "a") (Value.Vint 2);
      (* Serial transactions with id reuse: an aborted id may restart,
         so prefixes cut through several incarnations of the same id. *)
      let ids = ref [] in
      for i = 1 to 10 do
        let txn =
          match !ids with
          | t :: _ when Tavcc_sim.Rng.chance rng 0.3 -> t
          | _ -> i
        in
        Recovery.Manager.begin_txn mgr txn;
        for _ = 1 to 1 + Tavcc_sim.Rng.int rng 2 do
          let target = if Tavcc_sim.Rng.bool rng then o1 else o2 in
          let field = if Tavcc_sim.Rng.bool rng then fn "a" else fn "b" in
          Recovery.Manager.write mgr ~txn target field
            (Value.Vint (Tavcc_sim.Rng.int rng 1000))
        done;
        if Tavcc_sim.Rng.chance rng 0.2 then Wal.flush wal;
        if Tavcc_sim.Rng.chance rng 0.6 then Recovery.Manager.commit mgr txn
        else begin
          Recovery.Manager.abort mgr txn;
          ids := txn :: !ids
        end
      done;
      Wal.flush wal;
      let log = Wal.all wal in
      let n = List.length log in
      let ok = ref true in
      for k = 0 to n do
        let prefix = List.filteri (fun i _ -> i < k) log in
        let rstore, r1, r2 = setup () in
        ignore r1;
        ignore r2;
        Recovery.Restart.recover rstore snap prefix;
        let truth = committed_prefix_truth base prefix in
        List.iter
          (fun o ->
            List.iter
              (fun f ->
                let expected =
                  Option.value ~default:(Value.Vint 0) (Hashtbl.find_opt truth (o, f))
                in
                if not (Value.equal (Store.read rstore o f) expected) then ok := false)
              [ fn "a"; fn "b" ])
          [ o1; o2 ]
      done;
      !ok)

(* The same crash-after-every-prefix property, but against the on-disk
   store of [Tavcc_storage]: for every record prefix of a real engine
   run's WAL — plus torn byte tails cut inside the next record — a fresh
   engine recovering from that log alone (data and double-write files
   lost entirely, the worst crash the WAL must survive) must rebuild
   exactly the committed-prefix state.  Mid-checkpoint crashes ride on
   the crash matrix's [cck:n] plans, which kill the engine between the
   page flushes of a fuzzy checkpoint. *)
let prop_disk_every_prefix =
  QCheck.Test.make ~count:5 ~name:"disk engine: crash after every WAL prefix + torn tails"
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)) (fun seed ->
      let module Engine = Tavcc_storage.Engine in
      let module Matrix = Tavcc_storage.Crash_matrix in
      let rec rm path =
        if Sys.file_exists path then
          if Sys.is_directory path then begin
            Array.iter (fun x -> rm (Filename.concat path x)) (Sys.readdir path);
            Sys.rmdir path
          end
          else Sys.remove path
      in
      let write_file path s =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
      in
      let schema =
        match
          Schema.build
            [
              {
                Schema.c_name = Name.Class.of_string "obj";
                c_parents = [];
                c_fields = [ (fn "a", Value.Tint); (fn "b", Value.Tstring) ];
                c_methods = [];
              };
            ]
        with
        | Ok s -> s
        | Error e -> failwith (Format.asprintf "%a" Schema.pp_error e)
      in
      let dir = "_t_storage/rec_prefix" in
      rm dir;
      let cfg = { (Engine.default_config ~dir) with page_size = 512; pool_pages = 3 } in
      let eng = Engine.create cfg in
      let store = Engine.store eng schema in
      let rng = Tavcc_sim.Rng.create seed in
      let live = ref [] in
      for i = 0 to 19 do
        let o =
          Store.new_instance
            ~init:[ (fn "a", Value.Vint i); (fn "b", Value.Vstring "init") ]
            store (Name.Class.of_string "obj")
        in
        live := o :: !live
      done;
      Engine.checkpoint eng;
      for k = 1 to 8 do
        Engine.begin_txn eng k;
        for _ = 1 to 1 + Tavcc_sim.Rng.int rng 3 do
          match Tavcc_sim.Rng.int rng 10 with
          | 0 ->
              let o =
                Store.new_instance
                  ~init:[ (fn "a", Value.Vint k); (fn "b", Value.Vstring "mid") ]
                  store (Name.Class.of_string "obj")
              in
              live := o :: !live
          | 1 when List.length !live > 4 ->
              let o = Tavcc_sim.Rng.pick rng !live in
              Store.delete_instance store o;
              live := List.filter (fun x -> not (Oid.equal x o)) !live
          | _ ->
              let o = Tavcc_sim.Rng.pick rng !live in
              if Tavcc_sim.Rng.bool rng then
                Store.write store o (fn "a") (Value.Vint (Tavcc_sim.Rng.int rng 1000))
              else
                Store.write store o (fn "b")
                  (Value.Vstring (String.make (1 + Tavcc_sim.Rng.int rng 40) 'y'))
        done;
        if Tavcc_sim.Rng.chance rng 0.3 then begin
          Engine.abort eng k;
          (* the mirror is only used to pick op targets; a precise redo
             of the abort is not needed, reads of stale oids are culled *)
          live := List.filter (fun o -> Store.exists store o) !live
        end
        else Engine.commit eng k
      done;
      Engine.flush eng;
      let records =
        Codec.decode_exact
          (In_channel.with_open_bin (Filename.concat dir "wal.log") In_channel.input_all)
      in
      Engine.close ~flush:false eng;
      let n = List.length records in
      let ok = ref true in
      let check_bytes label wal_bytes expect_records =
        let d2 = "_t_storage/rec_prefix_r" in
        rm d2;
        Unix.mkdir d2 0o755;
        write_file (Filename.concat d2 "wal.log") wal_bytes;
        let eng2 =
          Engine.create { cfg with dir = d2; io_hook = None }
        in
        let dump = Engine.dump eng2 in
        Engine.close ~flush:false eng2;
        if dump <> Matrix.oracle expect_records then begin
          ok := false;
          QCheck.Test.fail_reportf "prefix %s: recovered state diverges from oracle" label
        end
      in
      for k = 0 to n do
        let prefix = List.filteri (fun i _ -> i < k) records in
        let bytes = Codec.encode prefix in
        check_bytes (string_of_int k) bytes prefix;
        (* torn tails: a few bytes of the next record must be discarded *)
        if k < n then begin
          let next = Codec.encode_record (List.nth records k) in
          List.iter
            (fun cut ->
              if cut < String.length next then
                check_bytes
                  (Printf.sprintf "%d+torn%d" k cut)
                  (bytes ^ String.sub next 0 cut)
                  prefix)
            [ 1; 9 ]
        end
      done;
      (* mid-checkpoint crashes via the matrix's cck plans *)
      let mcfg =
        {
          (Matrix.default ~dir:"_t_storage/rec_prefix_cck" ~seed ()) with
          txns = 6;
          objs = 32;
          max_states = 0;
        }
      in
      List.iter
        (fun nio ->
          let v, _, _ =
            Matrix.run_plan mcfg
              {
                Tavcc_chaos.Fault.injections = [ Tavcc_chaos.Fault.Crash_in_checkpoint nio ];
                schedule = Tavcc_chaos.Fault.none.Tavcc_chaos.Fault.schedule;
              }
          in
          if v <> [] then begin
            ok := false;
            QCheck.Test.fail_reportf "cck:%d: %s" nio (String.concat "; " v)
          end)
        [ 1; 3; 6 ];
      !ok)

(* The documented no-delete limitation: a snapshotted instance deleted
   after the snapshot cannot be rebuilt, so restore — and recovery,
   which restores first — must refuse rather than resurrect a partial
   store. *)
let test_delete_then_recover_refused () =
  let store, o1, _ = setup () in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  let snap = Recovery.Manager.checkpoint mgr in
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 42);
  Recovery.Manager.commit mgr 1;
  Store.delete_instance store o1;
  check_raises_invalid "restore refuses after delete" (fun () ->
      Recovery.Snapshot.restore store snap);
  check_raises_invalid "recover refuses after delete" (fun () ->
      Recovery.Restart.recover store snap (Wal.stable wal))

let suite =
  [
    case "wal stability boundary" test_wal_stability;
    case "snapshot round trip" test_snapshot_roundtrip;
    case "committed writes are durable" test_manager_commit_durable;
    case "uncommitted volatile writes are lost" test_uncommitted_lost;
    case "stable loser updates are undone" test_loser_undone_from_stable_log;
    case "abort logs CLRs" test_abort_with_clrs;
    case "abort cost does not grow with the log" test_abort_cost_flat;
    case "interleaved incarnations" test_interleaved_incarnations;
    case "recovery is idempotent" test_recover_idempotent;
    case "manager misuse" test_manager_errors;
    QCheck_alcotest.to_alcotest prop_crash_anywhere;
    QCheck_alcotest.to_alcotest prop_crash_every_prefix;
    QCheck_alcotest.to_alcotest prop_disk_every_prefix;
    case "delete-then-recover is refused" test_delete_then_recover_refused;
  ]
