open Tavcc_model
module Txn = Tavcc_txn.Txn
module History = Tavcc_txn.History

type t = {
  txn : Txn.t;
  ctx : Scheme.ctx;
  record : History.op -> unit;
  mutable session : Scheme.mvcc_session option;  (* open until published or aborted *)
}

let start ~record ~acquire txn =
  record (History.Begin txn.Txn.id);
  { txn; ctx = { Scheme.txn; acquire }; record; session = None }

let run a ~scheme ~store ?probe ?(observe_read = fun _ _ -> ()) ?on_update ?yield ~max_steps
    actions =
  let id = a.txn.Txn.id and ctx = a.ctx in
  let mv =
    Option.map
      (fun m ->
        m.Scheme.mv_begin ctx ~read:(Store.read store) ~class_of:(Store.class_of store) actions)
      scheme.Scheme.mvcc
  in
  a.session <- mv;
  let versioned =
    match mv with Some s -> s.Scheme.ms_mode <> Scheme.Mv_pessimistic | None -> false
  in
  let on_read oid f =
    (* versioned reads enter the history as [Snapshot_read]s at commit *)
    if not versioned then a.record (History.Read (id, oid, f));
    observe_read oid f
  in
  let on_write oid f = a.record (History.Write (id, oid, f)) in
  Exec.begin_txn ~scheme ~store ~ctx actions;
  List.iter
    (fun act ->
      Exec.perform ~scheme ~store ~ctx ?mv ~on_read ~on_write ?on_update ?probe ?yield ~max_steps
        act)
    actions;
  Option.map
    (fun s ->
      (* Two-step commit: precommit may still abort (deferred locks,
         optimistic validation); publish is the point of no return and
         immediately precedes the caller's commit. *)
      let write oid f v =
        let before = Store.read store oid f in
        Txn.log_write a.txn oid f ~before;
        on_write oid f;
        Option.iter (fun g -> g oid f ~before ~after:v) on_update;
        Store.write store oid f v
      in
      s.Scheme.ms_precommit ctx ~write;
      if versioned then begin
        a.record (History.Snapshot (id, s.Scheme.ms_snapshot));
        List.iter
          (fun (oid, f, vts) -> a.record (History.Snapshot_read (id, oid, f, vts)))
          (s.Scheme.ms_reads ())
      end;
      Option.iter (fun ts -> a.record (History.Publish (id, ts))) (s.Scheme.ms_publish ());
      a.session <- None;
      s.Scheme.ms_mode)
    mv

let commit a =
  Txn.commit a.txn;
  a.record (History.Commit a.txn.Txn.id)

let abort a store =
  let closed =
    Option.map
      (fun s ->
        s.Scheme.ms_abort ();
        s.Scheme.ms_mode)
      a.session
  in
  a.session <- None;
  a.record (History.Abort a.txn.Txn.id);
  Txn.abort store a.txn;
  closed
