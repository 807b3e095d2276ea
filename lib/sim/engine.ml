open Tavcc_cc
open Tavcc_lock
module Txn = Tavcc_txn.Txn
module History = Tavcc_txn.History
module Sink = Tavcc_obs.Sink
module Metrics = Tavcc_obs.Metrics

type deadlock_policy = Detect | Wound_wait | Wait_die | No_wait | Timeout of int

let policy_name = function
  | Detect -> "detect"
  | Wound_wait -> "wound-wait"
  | Wait_die -> "wait-die"
  | No_wait -> "no-wait"
  | Timeout _ -> "timeout"

type event =
  | Ev_begin of int
  | Ev_blocked of int * Lock_table.req
  | Ev_resumed of int
  | Ev_deadlock of int list * int
  | Ev_wound of int * int
  | Ev_died of int
  | Ev_timeout of int
  | Ev_forced_abort of int
  | Ev_abort of int
  | Ev_commit of int

let pp_event ppf = function
  | Ev_begin t -> Format.fprintf ppf "t%d begins" t
  | Ev_blocked (t, r) -> Format.fprintf ppf "t%d blocked on %a" t Lock_table.pp_req r
  | Ev_resumed t -> Format.fprintf ppf "t%d resumed" t
  | Ev_deadlock (cycle, victim) ->
      Format.fprintf ppf "deadlock {%s}, victim t%d"
        (String.concat "," (List.map (Printf.sprintf "t%d") cycle))
        victim
  | Ev_wound (w, v) -> Format.fprintf ppf "t%d wounds t%d" w v
  | Ev_died t -> Format.fprintf ppf "t%d dies" t
  | Ev_timeout t -> Format.fprintf ppf "t%d times out" t
  | Ev_forced_abort t -> Format.fprintf ppf "t%d force-aborted" t
  | Ev_abort t -> Format.fprintf ppf "t%d aborts" t
  | Ev_commit t -> Format.fprintf ppf "t%d commits" t

type sink = (int * event) Sink.t

type access =
  | Ob_begin of int
  | Ob_read of int * Tavcc_model.Oid.t * Tavcc_model.Name.Field.t
  | Ob_write of {
      txn : int;
      oid : Tavcc_model.Oid.t;
      field : Tavcc_model.Name.Field.t;
      before : Tavcc_model.Value.t;
      after : Tavcc_model.Value.t;
    }
  | Ob_commit of int
  | Ob_abort of int

type hooks = {
  hk_pick : (step:int -> ready:int list -> int) option;
  hk_forced_abort : (step:int -> eligible:int list -> int list) option;
  hk_on_grant : (Lock_table.req -> unit) option;
  hk_observe : (access -> unit) option;
  hk_probe :
    (txn:int -> holds:(Tavcc_lock.Resource.t -> (int * bool) list) -> Exec.probe) option;
}

let no_hooks =
  { hk_pick = None; hk_forced_abort = None; hk_on_grant = None; hk_observe = None;
    hk_probe = None }

type config = {
  seed : int;
  yield_on_access : bool;
  max_restarts : int;
  max_steps : int;
  policy : deadlock_policy;
  sink : sink;
  hooks : hooks;
  metrics : Metrics.t option;
}

let default_config =
  { seed = 42; yield_on_access = false; max_restarts = 100; max_steps = 1_000_000;
    policy = Detect; sink = Sink.null; hooks = no_hooks; metrics = None }

type result = {
  commits : int;
  deadlocks : int;
  aborts : int;
  restarts : int;
  lock_requests : int;
  lock_waits : int;
  lock_conversions : int;
  scheduler_steps : int;
  history : History.t;
  failed : (int * string) list;
  events : (int * event) list;
  lock_stats : Lock_table.stats;
}

let serializable r = History.conflict_serializable r.history

type _ Effect.t += Park : unit Effect.t | Yield : unit Effect.t

exception Deadlock_abort

type tstate = Ready | Running | Parked | Finished | Dead

type task = {
  id : int;
  actions : Exec.action list;
  mutable txn : Txn.t;
  mutable state : tstate;
  mutable k : (unit, unit) Effect.Deep.continuation option;
  mutable restarts : int;
  mutable parked_at : int;  (* scheduler step at which the fiber parked *)
  mutable began_at : int;  (* step at which the current attempt began *)
}

(* Engine-level metric handles, resolved once per run. *)
type emetrics = {
  em_commits : Metrics.counter;
  em_aborts : Metrics.counter;
  em_deadlocks : Metrics.counter;
  em_wounds : Metrics.counter;
  em_died : Metrics.counter;
  em_timeouts : Metrics.counter;
  em_restarts : Metrics.counter;
  em_attempt_steps : Metrics.histogram;  (* begin -> commit/abort, per attempt *)
  em_steps : Metrics.counter;
  em_steps_policy : Metrics.counter;  (* same, keyed by the run's policy *)
}

let run ?(config = default_config) ~scheme ~store ~jobs () =
  let rng = Rng.create config.seed in
  let steps = ref 0 in
  let locks =
    Lock_table.create ?metrics:config.metrics ?on_grant:config.hooks.hk_on_grant
      ~clock:(fun () -> !steps)
      ~conflict:scheme.Scheme.conflict ()
  in
  let observe =
    match config.hooks.hk_observe with Some f -> f | None -> fun _ -> ()
  in
  let history = History.create () in
  let commits = ref 0 and deadlocks = ref 0 and aborts = ref 0 in
  let failed = ref [] in
  let em =
    Option.map
      (fun m ->
        {
          em_commits = Metrics.counter m "engine.commits";
          em_aborts = Metrics.counter m "engine.aborts";
          em_deadlocks = Metrics.counter m "engine.deadlocks";
          em_wounds = Metrics.counter m "engine.wounds";
          em_died = Metrics.counter m "engine.died";
          em_timeouts = Metrics.counter m "engine.timeouts";
          em_restarts = Metrics.counter m "engine.restarts";
          em_attempt_steps = Metrics.histogram m "engine.attempt_steps";
          em_steps = Metrics.counter m "engine.steps";
          em_steps_policy =
            Metrics.counter m ("engine.steps." ^ policy_name config.policy);
        })
      config.metrics
  in
  let tick f = match em with None -> () | Some e -> f e in
  let emit e = Sink.push config.sink (!steps, e) in
  let end_attempt t =
    tick (fun e -> Metrics.observe e.em_attempt_steps (!steps - t.began_at))
  in
  let tasks =
    List.map
      (fun (id, actions) ->
        if id <= 0 then invalid_arg "Engine.run: transaction ids must be positive";
        { id; actions; txn = Txn.make ~id ~birth:id; state = Ready; k = None; restarts = 0;
          parked_at = 0; began_at = 0 })
      jobs
  in
  let task_of_txn id =
    match List.find_opt (fun t -> t.id = id) tasks with
    | Some t -> t
    | None -> invalid_arg "Engine: unknown transaction id"
  in
  let wake reqs =
    List.iter
      (fun (r : Lock_table.req) ->
        let t = task_of_txn r.Lock_table.r_txn in
        if t.state = Parked then t.state <- Ready)
      reqs
  in
  let release_and_wake id = wake (Lock_table.release_all locks id) in
  (* The one abort path: a deadlock victim, a failed validation, or a
     transaction that raised.  The observer hears of the abort before the
     in-memory undo, so a journal rolls the store back first. *)
  let abort t a exn =
    let restartable =
      match exn with Deadlock_abort | Scheme.Validation_failed -> true | _ -> false
    in
    end_attempt t;
    if restartable then begin
      incr aborts;
      tick (fun e -> Metrics.incr e.em_aborts);
      emit (Ev_abort t.id)
    end;
    observe (Ob_abort t.id);
    ignore (Attempt.abort a store);
    release_and_wake t.id;
    t.k <- None;
    if restartable && t.restarts < config.max_restarts then begin
      t.restarts <- t.restarts + 1;
      tick (fun e -> Metrics.incr e.em_restarts);
      t.txn <- Txn.reset_for_restart t.txn;
      t.state <- Ready
    end
    else begin
      t.state <- Dead;
      let msg = if restartable then "exceeded max restarts" else Printexc.to_string exn in
      failed := (t.id, msg) :: !failed
    end
  in
  let abort_victim vid =
    let v = task_of_txn vid in
    match (v.state, v.k) with
    | (Parked | Ready), Some k ->
        v.k <- None;
        (* Unwinds the victim fiber; its handler performs the cleanup. *)
        Effect.Deep.discontinue k Deadlock_abort
    | _ ->
        (* The victim holds locks, so it has run and is suspended with a
           live continuation; the only running fiber is the caller, which
           handles the self-victim case by raising. *)
        assert false
  in
  let request_held (req : Lock_table.req) =
    List.exists
      (fun (m, h) -> m = req.Lock_table.r_mode && h = req.Lock_table.r_hier)
      (Lock_table.holds locks req.Lock_table.r_txn req.Lock_table.r_res)
  in
  let acquire t (req : Lock_table.req) =
    match Lock_table.acquire locks req with
    | Lock_table.Granted -> ()
    | Lock_table.Waiting ->
        emit (Ev_blocked (t.id, req));
        (match config.policy with
        | Detect ->
            (* Every edge added by this block is incident to [t], so any new
               cycle runs through it: search from [t] only, over the
               incrementally maintained graph.  One block can close several
               cycles, so keep resolving until none is left. *)
            let rec resolve () =
              match Lock_table.find_deadlock ~from:t.id locks with
              | Some cycle ->
                  incr deadlocks;
                  tick (fun e -> Metrics.incr e.em_deadlocks);
                  (* Victim: the youngest transaction of the cycle. *)
                  let victim = List.fold_left max min_int cycle in
                  emit (Ev_deadlock (cycle, victim));
                  if victim = t.id then raise Deadlock_abort
                  else begin
                    abort_victim victim;
                    resolve ()
                  end
              | None -> ()
            in
            resolve ()
        | Wound_wait ->
            (* Wound every younger transaction in the way; wait for the
               older ones. *)
            let blocking =
              Lock_table.blockers locks req
              |> List.map (fun r -> r.Lock_table.r_txn)
              |> List.sort_uniq Int.compare
            in
            List.iter
              (fun txn ->
                let v = task_of_txn txn in
                if v.txn.Txn.birth > t.txn.Txn.birth && v.state <> Finished && v.state <> Dead
                then begin
                  emit (Ev_wound (t.id, txn));
                  tick (fun e -> Metrics.incr e.em_wounds);
                  abort_victim txn
                end)
              blocking
        | Wait_die ->
            (* Die (and restart with the same birth) rather than wait
               behind an older transaction. *)
            let blocking = Lock_table.blockers locks req in
            if
              List.exists
                (fun r -> (task_of_txn r.Lock_table.r_txn).txn.Txn.birth < t.txn.Txn.birth)
                blocking
            then begin
              emit (Ev_died t.id);
              tick (fun e -> Metrics.incr e.em_died);
              raise Deadlock_abort
            end
        | No_wait ->
            emit (Ev_died t.id);
            tick (fun e -> Metrics.incr e.em_died);
            raise Deadlock_abort
        | Timeout _ -> ());
        let rec wait parked =
          if not (request_held req) then begin
            Effect.perform Park;
            wait true
          end
          else if parked then emit (Ev_resumed t.id)
        in
        wait false
  in
  let start t =
    let a =
      Attempt.start ~record:(History.record history) ~acquire:(acquire t) t.txn
    in
    let body () =
      t.began_at <- !steps;
      emit (Ev_begin t.id);
      observe (Ob_begin t.id);
      let on_update =
        Option.map
          (fun f oid field ~before ~after ->
            f (Ob_write { txn = t.id; oid; field; before; after }))
          config.hooks.hk_observe
      in
      let yield =
        if config.yield_on_access then Some (fun () -> Effect.perform Yield) else None
      in
      let probe =
        Option.map
          (fun mk -> mk ~txn:t.id ~holds:(Lock_table.holds locks t.id))
          config.hooks.hk_probe
      in
      ignore
        (Attempt.run a ~scheme ~store ?probe
           ~observe_read:(fun oid f -> observe (Ob_read (t.id, oid, f)))
           ?on_update ?yield ~max_steps:config.max_steps t.actions)
    in
    Effect.Deep.match_with body ()
      {
        retc =
          (fun () ->
            Attempt.commit a;
            tick (fun e -> Metrics.incr e.em_commits);
            end_attempt t;
            emit (Ev_commit t.id);
            observe (Ob_commit t.id);
            incr commits;
            t.state <- Finished;
            t.k <- None;
            release_and_wake t.id);
        exnc = abort t a;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Park ->
                Some
                  (fun (k : (a, _) Effect.Deep.continuation) ->
                    t.state <- Parked;
                    t.parked_at <- !steps;
                    t.k <- Some k)
            | Yield ->
                Some
                  (fun (k : (a, _) Effect.Deep.continuation) ->
                    t.state <- Ready;
                    t.k <- Some k)
            | _ -> None);
      }
  in
  Option.iter (fun m -> m.Scheme.mv_run_begin ()) scheme.Scheme.mvcc;
  let rec loop () =
    (* Expire timed-out waiters before scheduling. *)
    (match config.policy with
    | Timeout n ->
        List.iter
          (fun t ->
            if t.state = Parked && !steps - t.parked_at > n then begin
              emit (Ev_timeout t.id);
              tick (fun e -> Metrics.incr e.em_timeouts);
              abort_victim t.id
            end)
          tasks
    | _ -> ());
    (match config.hooks.hk_forced_abort with
    | None -> ()
    | Some f ->
        (* Only parked or yielded fibers with a live continuation can be
           discontinued the way a deadlock victim is. *)
        let abortable t = (t.state = Parked || t.state = Ready) && t.k <> None in
        let eligible = List.filter abortable tasks in
        let ids = List.map (fun t -> t.id) eligible in
        if ids <> [] then
          List.iter
            (fun id ->
              (* Re-check at abort time: an earlier abort this round may
                 have restarted the task (fresh attempt, no continuation). *)
              if List.exists (fun t -> t.id = id && abortable t) eligible then begin
                emit (Ev_forced_abort id);
                abort_victim id
              end)
            (f ~step:!steps ~eligible:ids));
    let ready = List.filter (fun t -> t.state = Ready) tasks in
    match ready with
    | [] ->
        let parked = List.filter (fun t -> t.state = Parked) tasks in
        (match (parked, config.policy) with
        | [], _ -> ()
        | p :: _, Timeout _ ->
            (* Nothing can run: fire the oldest waiter's timeout early. *)
            let oldest = List.fold_left (fun a t -> if t.parked_at < a.parked_at then t else a) p parked in
            emit (Ev_timeout oldest.id);
            tick (fun e -> Metrics.incr e.em_timeouts);
            abort_victim oldest.id;
            loop ()
        | _ :: _, _ ->
            failwith "Engine: stalled — parked fibers with no runnable task and no deadlock")
    | ready ->
        incr steps;
        let t =
          match config.hooks.hk_pick with
          | None -> Rng.pick rng ready
          | Some f ->
              let id = f ~step:!steps ~ready:(List.map (fun t -> t.id) ready) in
              (match List.find_opt (fun t -> t.id = id) ready with
              | Some t -> t
              | None ->
                  invalid_arg "Engine: pick hook chose a non-ready transaction")
        in
        t.state <- Running;
        (match t.k with
        | Some k ->
            t.k <- None;
            Effect.Deep.continue k ()
        | None -> start t);
        loop ()
  in
  loop ();
  tick (fun e ->
      Metrics.add e.em_steps !steps;
      Metrics.add e.em_steps_policy !steps);
  (* A snapshot, so the result is not mutated by later table reuse. *)
  let ls = Lock_table.copy_stats (Lock_table.stats locks) in
  {
    commits = !commits;
    deadlocks = !deadlocks;
    aborts = !aborts;
    restarts = List.fold_left (fun n t -> n + t.restarts) 0 tasks;
    lock_requests = ls.Lock_table.requests;
    lock_waits = ls.Lock_table.waits;
    lock_conversions = ls.Lock_table.conversions;
    scheduler_steps = !steps;
    history;
    failed = !failed;
    events = Sink.contents config.sink;
    lock_stats = ls;
  }
