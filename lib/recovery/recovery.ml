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
    (* Roll back this incarnation's updates, newest first, logging a
       compensation record for each (so restart can repeat history). *)
    let rec roll = function
      | [] -> ()
      | Wal.Begin x :: _ when x = txn -> ()
      | Wal.Update { txn = x; oid; field; before; _ } :: tl when x = txn ->
          ignore (Wal.append t.wal (Wal.Clr { txn; oid; field; after = before }));
          Store.write t.store oid field before;
          roll tl
      | _ :: tl -> roll tl
    in
    roll (Wal.newest_first t.wal);
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
    let redone = ref 0 in
    List.iter
      (function
        | Wal.Update { oid; field; after; _ } | Wal.Clr { oid; field; after; _ } ->
            if Store.exists store oid then begin
              Store.write store oid field after;
              incr redone
            end
        | _ -> ())
      log;
    (* Undo pass: the losers' live incarnations, backwards, stopping at
       each loser's Begin.  CLRs are redo-only and skipped. *)
    let open_ = Hashtbl.create 8 in
    List.iter (fun t -> Hashtbl.replace open_ t ()) (losers log);
    let undone = ref 0 in
    List.iter
      (function
        | Wal.Begin x when Hashtbl.mem open_ x -> Hashtbl.remove open_ x
        | Wal.Update { txn; oid; field; before; _ } when Hashtbl.mem open_ txn ->
            if Store.exists store oid then begin
              Store.write store oid field before;
              incr undone
            end
        | _ -> ())
      (List.rev log);
    bump "wal.replayed" (List.length log);
    bump "wal.redo_applied" !redone;
    bump "wal.undo_applied" !undone
end
