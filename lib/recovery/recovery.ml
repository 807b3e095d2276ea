open Tavcc_model

module Snapshot = struct
  type t = { images : (Oid.t * Name.Class.t * (Name.Field.t * Value.t) list) list }

  let take store =
    let schema = Store.schema store in
    let images =
      List.concat_map
        (fun cls ->
          List.map
            (fun oid ->
              let fields =
                List.map
                  (fun fd -> (fd.Schema.f_name, Store.read store oid fd.Schema.f_name))
                  (Schema.fields schema cls)
              in
              (oid, cls, fields))
            (Store.extent store cls))
        (Schema.classes schema)
    in
    { images }

  let restore store t =
    (* Drop instances born after the snapshot. *)
    let snapshotted = List.map (fun (oid, _, _) -> oid) t.images in
    let schema = Store.schema store in
    List.iter
      (fun cls ->
        List.iter
          (fun oid ->
            if not (List.exists (Oid.equal oid) snapshotted) then
              Store.delete_instance store oid)
          (Store.extent store cls))
      (Schema.classes schema);
    List.iter
      (fun (oid, _, fields) ->
        if not (Store.exists store oid) then
          invalid_arg "Snapshot.restore: snapshotted instance no longer exists";
        List.iter (fun (f, v) -> Store.write store oid f v) fields)
      t.images

  let instances t = List.map (fun (oid, cls, _) -> (oid, cls)) t.images
end

(* --- the undo rule, shared by the in-memory and the page store --- *)

module Undo = struct
  let compensation = function
    | Wal.Update { txn; oid; field; before; _ } ->
        Some (Wal.Clr { txn; oid; field; after = before })
    | Wal.Insert { txn; oid; cls; slots } -> Some (Wal.Delete { txn; oid; cls; slots })
    | Wal.Delete { txn; oid; cls; slots } -> Some (Wal.Insert { txn; oid; cls; slots })
    | Wal.Begin _ | Wal.Clr _ | Wal.Commit _ | Wal.Abort _ | Wal.Checkpoint _ -> None

  (* Back from the tail; each transaction's Begin closes its walk, so the
     cost is what lies between the tail and the oldest of those Begins. *)
  let changes txns newest_first =
    let open_ = Hashtbl.create 8 in
    List.iter (fun x -> Hashtbl.replace open_ x ()) txns;
    let rec go acc = function
      | r :: tl when Hashtbl.length open_ > 0 -> (
          match r with
          | Wal.Begin x ->
              Hashtbl.remove open_ x;
              go acc tl
          | (Wal.Update { txn; _ } | Wal.Insert { txn; _ } | Wal.Delete { txn; _ })
            when Hashtbl.mem open_ txn ->
              go (r :: acc) tl
          | _ -> go acc tl)
      | _ -> List.rev acc
    in
    go [] newest_first

  let rollback ~log ~apply changes =
    List.iter (fun r -> Option.iter (fun c -> log c; apply c) (compensation r)) changes
end

(* A logged change applied to the in-memory store, which holds field
   images only: inserts and deletes (disk-layer records) pass it by. *)
let apply store = function
  | (Wal.Update { oid; field; after; _ } | Wal.Clr { oid; field; after; _ })
    when Store.exists store oid ->
      Store.write store oid field after;
      true
  | _ -> false

module Manager = struct
  type 'b t = {
    store : 'b Store.t;
    wal : Wal.t;
    mutable active : int list;
  }

  let create store wal = { store; wal; active = [] }
  let store t = t.store
  let log t = t.wal
  let active t = t.active

  let begin_txn t txn =
    if List.mem txn t.active then invalid_arg "Manager.begin_txn: already active";
    t.active <- t.active @ [ txn ];
    ignore (Wal.append t.wal (Wal.Begin txn))

  let require_active t txn =
    if not (List.mem txn t.active) then
      invalid_arg (Printf.sprintf "Manager: transaction %d is not active" txn)

  let write t ~txn oid field after =
    require_active t txn;
    let before = Store.read t.store oid field in
    ignore (Wal.append t.wal (Wal.Update { txn; oid; field; before; after }));
    Store.write t.store oid field after

  let read t ~txn oid field =
    require_active t txn;
    Store.read t.store oid field

  let commit t txn =
    require_active t txn;
    ignore (Wal.append t.wal (Wal.Commit txn));
    Wal.flush t.wal;
    t.active <- List.filter (( <> ) txn) t.active

  let abort t txn =
    require_active t txn;
    Undo.rollback
      ~log:(fun c -> ignore (Wal.append t.wal c))
      ~apply:(fun c -> ignore (apply t.store c))
      (Undo.changes [ txn ] (Wal.newest_first t.wal));
    ignore (Wal.append t.wal (Wal.Abort txn));
    t.active <- List.filter (( <> ) txn) t.active

  let crash_image t = Wal.stable t.wal

  let checkpoint t =
    if t.active <> [] then invalid_arg "Manager.checkpoint: transactions are active";
    let snap = Snapshot.take t.store in
    ignore (Wal.append t.wal (Wal.Checkpoint t.active));
    Wal.flush t.wal;
    snap
end

module Restart = struct
  let committed log =
    List.rev
      (List.fold_left
         (fun acc -> function Wal.Commit t -> t :: acc | _ -> acc)
         [] log)

  (* A transaction is a loser when its latest Begin has no later Commit
     or Abort: earlier incarnations ended in the log (their rollbacks are
     fully covered by CLRs and repeated by the redo pass). *)
  let losers log =
    let state = Hashtbl.create 8 in
    List.iter
      (function
        | Wal.Begin t -> Hashtbl.replace state t `Active
        | Wal.Commit t | Wal.Abort t -> Hashtbl.replace state t `Ended
        (* Insert/Delete only appear in disk-layer logs (lib/storage);
           they carry no begin/end information. *)
        | Wal.Update _ | Wal.Clr _ | Wal.Insert _ | Wal.Delete _ | Wal.Checkpoint _ -> ())
      log;
    Hashtbl.fold (fun t s acc -> if s = `Active then t :: acc else acc) state []
    |> List.sort Int.compare

  let recover ?metrics store snapshot log =
    let bump name n =
      match metrics with
      | None -> ()
      | Some m -> Tavcc_obs.Metrics.add (Tavcc_obs.Metrics.counter m name) n
    in
    Snapshot.restore store snapshot;
    (* Repeating history: redo every update and compensation, winners and
       losers alike. *)
    let redone = ref 0 and undone = ref 0 in
    List.iter (fun r -> if apply store r then incr redone) log;
    (* Undo the losers' live incarnations; this pass has no log to write
       its compensations to. *)
    Undo.rollback ~log:ignore
      ~apply:(fun c -> if apply store c then incr undone)
      (Undo.changes (losers log) (List.rev log));
    bump "wal.replayed" (List.length log);
    bump "wal.redo_applied" !redone;
    bump "wal.undo_applied" !undone
end
