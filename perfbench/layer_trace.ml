(* Server-side spans for the traced run, recorded from outside the
   library: each hook below wraps a public callback — the scheme's lock
   acquisitions, the Par_engine probe factory and journal, and the
   store's slot reads and writes.  One record per transaction, keyed by
   its engine id, kept in a buffer of the worker domain that ran it and
   written out when the server stops. *)

open Tavcc_model
open Tavcc_cc
module Par_engine = Tavcc_par.Par_engine

type txn = {
  id : int;
  t_pick : int;  (** probe factory call: a worker picked the job up *)
  mutable t_c0 : int;  (** j_commit entered *)
  mutable t_c1 : int;  (** j_commit returned *)
  mutable lock_n : int;
  mutable lock_ns : int;
  mutable store_ns : int;
  mutable exec_ns : int;  (** top-level frames minus the lock and store time inside *)
  mutable ops : int;  (** field reads + writes *)
  mutable depth : int;
  mutable enter_at : int;
  mutable lock_mark : int;
  mutable store_mark : int;
}

type dom_state = { mutable cur : txn option; mutable finished : txn list }

let registry_mu = Mutex.create ()
let registry = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let st = { cur = None; finished = [] } in
      Mutex.lock registry_mu;
      registry := st :: !registry;
      Mutex.unlock registry_mu;
      st)

let current () = (Domain.DLS.get key).cur
let now = Spec.now_ns

let timed f ~account =
  let t0 = now () in
  match f () with
  | v ->
      account (now () - t0);
      v
  | exception e ->
      account (now () - t0);
      raise e

(* --- lib/lock via Scheme.ctx.acquire ------------------------------------ *)

let count_lock dt =
  match current () with
  | Some r ->
      r.lock_n <- r.lock_n + 1;
      r.lock_ns <- r.lock_ns + dt
  | None -> ()

let wrap_ctx (ctx : Scheme.ctx) =
  { ctx with Scheme.acquire = (fun req -> timed (fun () -> ctx.Scheme.acquire req) ~account:count_lock) }

let scheme (s : Scheme.t) =
  let w = wrap_ctx in
  {
    s with
    Scheme.on_begin = (fun ctx ~class_of acts -> s.Scheme.on_begin (w ctx) ~class_of acts);
    on_top_send = (fun ctx o c m -> s.Scheme.on_top_send (w ctx) o c m);
    on_self_send = (fun ctx o c m -> s.Scheme.on_self_send (w ctx) o c m);
    on_read = (fun ctx o c f -> s.Scheme.on_read (w ctx) o c f);
    on_write = (fun ctx o c f -> s.Scheme.on_write (w ctx) o c f);
    on_extent = (fun ctx c ~deep ~pred m -> s.Scheme.on_extent (w ctx) c ~deep ~pred m);
    on_some_of_domain = (fun ctx c m -> s.Scheme.on_some_of_domain (w ctx) c m);
    mvcc =
      Option.map
        (fun mv ->
          {
            mv with
            Scheme.mv_begin =
              (fun ctx ~read ~class_of acts ->
                let sess = mv.Scheme.mv_begin (w ctx) ~read ~class_of acts in
                {
                  sess with
                  Scheme.ms_precommit = (fun ctx ~write -> sess.Scheme.ms_precommit (w ctx) ~write);
                });
          })
        s.Scheme.mvcc;
  }

(* --- lib/cc Exec / lib/lang Interp via the Par_engine probe ------------- *)

let probe ~dom:_ ~txn ~holds:_ =
  let r =
    {
      id = txn;
      t_pick = now ();
      t_c0 = 0;
      t_c1 = 0;
      lock_n = 0;
      lock_ns = 0;
      store_ns = 0;
      exec_ns = 0;
      ops = 0;
      depth = 0;
      enter_at = 0;
      lock_mark = 0;
      store_mark = 0;
    }
  in
  (Domain.DLS.get key).cur <- Some r;
  {
    Exec.null_probe with
    Exec.p_enter =
      (fun _ _ ~resolve_at:_ ~defining:_ _ ->
        if r.depth = 0 then begin
          r.enter_at <- now ();
          r.lock_mark <- r.lock_ns;
          r.store_mark <- r.store_ns
        end;
        r.depth <- r.depth + 1);
    p_exit =
      (fun _ _ _ ->
        r.depth <- r.depth - 1;
        if r.depth = 0 then
          r.exec_ns <-
            r.exec_ns + (now () - r.enter_at) - (r.lock_ns - r.lock_mark)
            - (r.store_ns - r.store_mark));
    p_read = (fun _ _ _ ~versioned:_ -> r.ops <- r.ops + 1);
    p_write = (fun _ _ _ ~versioned:_ -> r.ops <- r.ops + 1);
  }

(* --- Par_engine journal (lib/storage commit on disk) -------------------- *)

let journal inner =
  let call f = Option.iter f inner in
  {
    Par_engine.j_begin =
      (fun id ->
        (* a frame cut short by an abort never reached p_exit *)
        Option.iter (fun r -> r.depth <- 0) (current ());
        call (fun j -> j.Par_engine.j_begin id));
    j_commit =
      (fun id ->
        let st = Domain.DLS.get key in
        let t0 = now () in
        call (fun j -> j.Par_engine.j_commit id);
        let t1 = now () in
        match st.cur with
        | Some r when r.id = id ->
            r.t_c0 <- t0;
            r.t_c1 <- t1;
            st.finished <- r :: st.finished;
            st.cur <- None
        | _ -> ());
    j_abort = (fun id -> call (fun j -> j.Par_engine.j_abort id));
  }

(* --- lib/storage slot IO via a store wrapper ---------------------------- *)

let count_store dt =
  match current () with Some r -> r.store_ns <- r.store_ns + dt | None -> ()

(* The same store behind a second [Store.create_ext] whose slot reads and
   writes are timed; everything else delegates unchanged. *)
let store inner =
  let span f = timed f ~account:count_store in
  Store.create_ext (Store.schema inner)
    {
      Store.x_insert = (fun cls slots -> Store.new_instance ~init:(Array.to_list slots) inner cls);
      x_delete = Store.delete_instance inner;
      x_exists = Store.exists inner;
      x_class_of =
        (fun oid -> if Store.exists inner oid then Some (Store.class_of inner oid) else None);
      x_read = (fun oid i -> span (fun () -> Store.read_idx inner oid i));
      x_write = (fun oid i _ v -> span (fun () -> Store.write_idx inner oid i v));
      x_field_count = Store.field_count inner;
      x_extent = Store.extent inner;
      x_count = (fun () -> Store.instance_count inner);
    }

(* One line per committed transaction: id t_pick t_c0 t_c1 lock_n lock_ns
   exec_ns store_ns ops (times in monotonic ns).  Call after the worker
   domains have been joined. *)
let write_spans path =
  let oc = open_out path in
  List.iter
    (fun st ->
      List.iter
        (fun r ->
          Printf.fprintf oc "%d %d %d %d %d %d %d %d %d\n" r.id r.t_pick r.t_c0 r.t_c1 r.lock_n
            r.lock_ns r.exec_ns r.store_ns r.ops)
        (List.rev st.finished))
    !registry;
  close_out oc
