open Tavcc_cc
module Engine = Tavcc_sim.Engine
module LT = Tavcc_lock.Lock_table
module Txn = Tavcc_txn.Txn
module History = Tavcc_txn.History
module Metrics = Tavcc_obs.Metrics
module Store = Tavcc_model.Store
module Schema = Tavcc_model.Schema

type config = {
  domains : int;
  shards : int;
  policy : Engine.deadlock_policy;
  max_restarts : int;
  max_steps : int;
  restart_backoff_us : int;
  record_history : bool;
  metrics : Metrics.t option;
  obs : Par_obs.t option;
  probe :
    (dom:int ->
    txn:int ->
    holds:(Tavcc_lock.Resource.t -> (int * bool) list) ->
    Exec.probe)
    option;
  journal : journal option;
}

and journal = {
  j_begin : int -> unit;
  j_commit : int -> unit;
  j_abort : int -> unit;
}

(* The detector's sweep period and the ceiling of the restart backoff's
   doubling. *)
let detector_period_s = 500e-6
let backoff_cap_us = 5000

let default_config =
  {
    domains = 4;
    shards = 8;
    policy = Engine.Detect;
    max_restarts = 1000;
    max_steps = 1_000_000;
    restart_backoff_us = 50;
    record_history = false;
    metrics = None;
    obs = None;
    probe = None;
    journal = None;
  }

type result = {
  commits : int;
  aborts : int;
  deadlocks : int;
  wounds : int;
  died : int;
  timeouts : int;
  restarts : int;
  snapshot_commits : int;
  snapshot_aborts : int;
  occ_commits : int;
  occ_validation_failures : int;
  failed : (int * string) list;
  wall_seconds : float;
  throughput : float;
  lock_stats : LT.stats;
  history : History.t option;
}

let pp_result ppf r =
  Format.fprintf ppf
    "commits=%d aborts=%d deadlocks=%d wounds=%d died=%d timeouts=%d restarts=%d \
     snapshot=%d/%d occ=%d/%d failed=%d wall=%.3fs throughput=%.0f txn/s"
    r.commits r.aborts r.deadlocks r.wounds r.died r.timeouts r.restarts
    r.snapshot_commits r.snapshot_aborts r.occ_commits r.occ_validation_failures
    (List.length r.failed) r.wall_seconds r.throughput

let serializable r =
  match r.history with None -> true | Some h -> History.conflict_serializable h

type pmetrics = {
  pm_commits : Metrics.counter;
  pm_aborts : Metrics.counter;
  pm_deadlocks : Metrics.counter;
  pm_wounds : Metrics.counter;
  pm_died : Metrics.counter;
  pm_timeouts : Metrics.counter;
  pm_restarts : Metrics.counter;
  pm_txn_us : Metrics.histogram;
  pm_backoff_us : Metrics.histogram;
}

type job_status = Job_committed of { restarts : int } | Job_failed of string

(* --- the engine core -------------------------------------------------

   The sharded lock table, the shared counters and the detector domain
   live in a [core].  Batch jobs ([run]) and submitted ones ([submit])
   reach it through the one service queue and worker loop, interactive
   transactions from their session's thread; all of them go through
   [begin_attempt], [commit] and [abort]. *)

type counters = {
  n_commits : int Atomic.t;
  n_aborts : int Atomic.t;
  n_deadlocks : int Atomic.t;
  n_wounds : int Atomic.t;
  n_died : int Atomic.t;
  n_timeouts : int Atomic.t;
  n_restarts : int Atomic.t;
  n_snapshot_commits : int Atomic.t;
  n_snapshot_aborts : int Atomic.t;
  n_occ_commits : int Atomic.t;
  n_occ_vfails : int Atomic.t;
}

type core = {
  k_config : config;
  k_scheme : Scheme.t;
  k_store : Tavcc_lang.Ast.body Store.t;
  k_locks : Shard_table.t;
  k_pm : pmetrics option;
  k_n : counters;
  k_wait_policy : Shard_table.wait_policy;
  k_failed_mu : Mutex.t;
  mutable k_failed : (int * string) list;
  k_history : History.t option;
  k_hist_mu : Mutex.t;
  k_stop : bool Atomic.t;
  k_t0 : float;
  mutable k_detector : unit Domain.t option;
}

let tick c f = match c.k_pm with None -> () | Some p -> f p
let oemit c k = Option.iter (fun o -> Par_obs.emit o k) c.k_config.obs

let record c op =
  match c.k_history with
  | None -> ()
  | Some h ->
      Mutex.lock c.k_hist_mu;
      History.record h op;
      Mutex.unlock c.k_hist_mu

let add_failed c id msg =
  Mutex.lock c.k_failed_mu;
  c.k_failed <- (id, msg) :: c.k_failed;
  Mutex.unlock c.k_failed_mu

(* --- detector domain: cycles always, timeouts when asked --- *)

let detector c () =
  let config = c.k_config in
  Option.iter (fun o -> Par_obs.attach o ~dom:(Par_obs.detector_dom o)) config.obs;
  let timeout_s =
    match config.policy with Engine.Timeout n -> Some (float_of_int n /. 1000.) | _ -> None
  in
  let watchdog_s =
    match Sys.getenv_opt "TAVCC_PAR_WATCHDOG" with
    | Some v -> ( try float_of_string v with _ -> 3.)
    | None -> 0.
  in
  let last_progress = ref (0, Unix.gettimeofday ()) in
  while not (Atomic.get c.k_stop) do
    Unix.sleepf detector_period_s;
    (* The detector doubles as the ring coordinator: it is the single
       consumer of the per-domain event rings while the run is live. *)
    Option.iter (fun o -> ignore (Par_obs.drain o)) config.obs;
    if watchdog_s > 0. then begin
      let p =
        Atomic.get c.k_n.n_commits + Atomic.get c.k_n.n_aborts
        + Atomic.get c.k_n.n_restarts
      in
      let lp, lt = !last_progress in
      if p <> lp then last_progress := (p, Unix.gettimeofday ())
      else if Unix.gettimeofday () -. lt > watchdog_s then begin
        let report =
          Shard_table.stall_report ~elapsed_s:(Unix.gettimeofday () -. lt) c.k_locks
        in
        Format.eprintf "@[<v>=== par watchdog: no progress for %.1fs ===@,%a=== end ===@]@."
          report.Shard_table.sr_elapsed_s Shard_table.pp_stall_report report;
        last_progress := (p, Unix.gettimeofday ())
      end
    end;
    (match timeout_s with
    | None -> ()
    | Some limit ->
        List.iter
          (fun (id, waited) ->
            if waited > limit && Shard_table.kill c.k_locks ~victim:id Shard_table.Timed_out
            then begin
              Atomic.incr c.k_n.n_timeouts;
              tick c (fun p -> Metrics.incr p.pm_timeouts)
            end)
          (Shard_table.waiting_txns c.k_locks));
    (* Resolve every cycle visible in this sweep.  The victim is the
       youngest member (max birth, ties to max id), killed only if the
       kill actually lands — a member may have finished since the
       snapshot (phantom cycle), in which case the next sweep retries. *)
    let rec resolve edges =
      match Shard_table.find_cycle_edges edges with
      | None -> ()
      | Some cycle ->
          let victim =
            List.fold_left
              (fun best id ->
                let b v = Option.value ~default:v (Shard_table.birth_of c.k_locks v) in
                if b id > b best || (b id = b best && id > best) then id else best)
              (List.hd cycle) cycle
          in
          if Shard_table.kill c.k_locks ~victim Shard_table.Deadlock_victim then begin
            Atomic.incr c.k_n.n_deadlocks;
            tick c (fun p -> Metrics.incr p.pm_deadlocks)
          end;
          (* Drop the victim's edges and look for further cycles. *)
          resolve (List.filter (fun (a, b) -> a <> victim && b <> victim) edges)
    in
    resolve (Shard_table.waits_for_edges c.k_locks)
  done

let make_core ~config ~scheme ~store () =
  if config.domains <= 0 then invalid_arg "Par_engine: domains must be positive";
  if Option.fold ~none:false ~some:(fun o -> Par_obs.domain_count o <> config.domains)
       config.obs
  then invalid_arg "Par_engine: obs was created for a different domain count";
  (* Touch every extent ref before spawning: [Store.extent] lazily
     creates the per-class ref cell, and that Hashtbl write must not race
     with concurrent extent scans. *)
  List.iter
    (fun cl -> ignore (Store.extent store cl))
    (Schema.classes (Store.schema store));
  let t0 = Unix.gettimeofday () in
  let clock () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  let locks =
    Shard_table.create ~shards:config.shards ?metrics:config.metrics ~clock
      ?tracer:(Option.map Par_obs.tracer config.obs)
      ~conflict:scheme.Scheme.conflict ()
  in
  let pm =
    Option.map
      (fun m ->
        {
          pm_commits = Metrics.counter m "par.commits";
          pm_aborts = Metrics.counter m "par.aborts";
          pm_deadlocks = Metrics.counter m "par.deadlocks";
          pm_wounds = Metrics.counter m "par.wounds";
          pm_died = Metrics.counter m "par.died";
          pm_timeouts = Metrics.counter m "par.timeouts";
          pm_restarts = Metrics.counter m "par.restarts";
          pm_txn_us = Metrics.histogram m "par.txn_us";
          pm_backoff_us = Metrics.histogram m "par.backoff_us";
        })
      config.metrics
  in
  let counters =
    {
      n_commits = Atomic.make 0;
      n_aborts = Atomic.make 0;
      n_deadlocks = Atomic.make 0;
      n_wounds = Atomic.make 0;
      n_died = Atomic.make 0;
      n_timeouts = Atomic.make 0;
      n_restarts = Atomic.make 0;
      n_snapshot_commits = Atomic.make 0;
      n_snapshot_aborts = Atomic.make 0;
      n_occ_commits = Atomic.make 0;
      n_occ_vfails = Atomic.make 0;
    }
  in
  let wait_policy =
    match config.policy with
    | Engine.Detect | Engine.Timeout _ -> Shard_table.Block
    | Engine.Wound_wait -> Shard_table.Wound
    | Engine.Wait_die -> Shard_table.Die_if_older
    | Engine.No_wait -> Shard_table.Never_wait
  in
  let c =
    {
      k_config = config;
      k_scheme = scheme;
      k_store = store;
      k_locks = locks;
      k_pm = pm;
      k_n = counters;
      k_wait_policy = wait_policy;
      k_failed_mu = Mutex.create ();
      k_failed = [];
      k_history = (if config.record_history then Some (History.create ()) else None);
      k_hist_mu = Mutex.create ();
      k_stop = Atomic.make false;
      k_t0 = t0;
      k_detector = None;
    }
  in
  Option.iter (fun m -> m.Scheme.mv_run_begin ()) scheme.Scheme.mvcc;
  c.k_detector <- Some (Domain.spawn (detector c));
  c

(* Capped exponential backoff with deterministic jitter.  The old
   linear [attempt * base] kept every loser of a conflict on the same
   short cadence, so they re-collided and sustained the restart storm;
   doubling with a per-(txn, attempt) jitter spreads them out. *)
let backoff c ~id attempt =
  let config = c.k_config in
  if config.restart_backoff_us > 0 && attempt > 0 then begin
    let base = config.restart_backoff_us in
    let cap = max base backoff_cap_us in
    let bounded = min cap (base * (1 lsl min 20 (attempt - 1))) in
    let rng = Tavcc_sim.Rng.create ((id * 1_000_003) + attempt) in
    let jitter = if bounded >= 2 then Tavcc_sim.Rng.int rng (bounded / 2) else 0 in
    let us = (bounded / 2) + jitter in
    tick c (fun p -> Metrics.observe p.pm_backoff_us us);
    Unix.sleepf (float_of_int us /. 1e6)
  end

(* --- the transaction lifecycle -------------------------------------------

   Queued, batch and interactive transactions begin, commit and abort
   through [begin_attempt], [commit] and [abort]; the attempt itself is
   {!Tavcc_cc.Attempt}, shared with the step engine. *)

let journal c f = match c.k_config.journal with Some j -> f j | None -> ()

let begin_attempt c ~id ~n txn =
  Shard_table.register c.k_locks ~id ~birth:id;
  oemit c (Par_obs.E_begin { txn = id; attempt = n });
  Attempt.start ~record:(record c)
    ~acquire:(fun r -> Shard_table.acquire_blocking c.k_locks ~policy:c.k_wait_policy r)
    txn

(* The one commit path.  The caller has run [j_commit] already, under the
   locks and before the undo log goes: a journalled commit is durable
   before anyone can read its effects, and a failed force is undone like
   any other failure. *)
let commit c a ~id ~n ~mode ?began () =
  Attempt.commit a;
  (match mode with
  | Some Scheme.Mv_snapshot -> Atomic.incr c.k_n.n_snapshot_commits
  | Some Scheme.Mv_optimistic -> Atomic.incr c.k_n.n_occ_commits
  | Some Scheme.Mv_pessimistic | None -> ());
  oemit c (Par_obs.E_commit { txn = id; attempt = n });
  Atomic.incr c.k_n.n_commits;
  tick c (fun p ->
      Metrics.incr p.pm_commits;
      Option.iter
        (fun t0 ->
          Metrics.observe p.pm_txn_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)))
        began);
  Shard_table.finish c.k_locks id;
  ignore (Shard_table.release_all c.k_locks id)

(* Why an attempt was aborted, as its event label; [None] when it failed
   outright (the interpreter or a journal hook raised) and must not
   restart. *)
let abort_reason c = function
  | Shard_table.Aborted reason ->
      (match reason with
      | Shard_table.Wounded _ ->
          Atomic.incr c.k_n.n_wounds;
          tick c (fun p -> Metrics.incr p.pm_wounds)
      | Shard_table.Died ->
          Atomic.incr c.k_n.n_died;
          tick c (fun p -> Metrics.incr p.pm_died)
      | Shard_table.Deadlock_victim | Shard_table.Timed_out -> ());
      Some (Shard_table.reason_name reason)
  | Scheme.Validation_failed -> (
      (* optimistic commit lost its validation race: same shape as a
         deadlock abort *)
      Atomic.incr c.k_n.n_occ_vfails;
      Some "validation")
  | _ -> None

(* The one abort path: undo while the locks are still held (strict 2PL),
   then [j_abort] if [j_begin] returned, then release and wake whoever
   was queued behind.  It does not raise: when the undo or [j_abort]
   fails the locks are released all the same, and the failure comes back
   as the message. *)
let abort c a ~id ~n ~journalled ~reason ~counted =
  oemit c (Par_obs.E_abort { txn = id; attempt = n; reason });
  if counted then begin
    Atomic.incr c.k_n.n_aborts;
    tick c (fun p -> Metrics.incr p.pm_aborts)
  end;
  let error =
    match
      if Attempt.abort a c.k_store = Some Scheme.Mv_snapshot then
        Atomic.incr c.k_n.n_snapshot_aborts;
      if journalled then journal c (fun j -> j.j_abort id)
    with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  Shard_table.finish c.k_locks id;
  ignore (Shard_table.release_all c.k_locks id);
  error

let run_job c ~dom (id, actions) =
  let config = c.k_config in
  let probe =
    Option.map
      (fun mk -> mk ~dom ~txn:id ~holds:(Shard_table.holds c.k_locks id))
      config.probe
  in
  let rec attempt n txn =
    let a = begin_attempt c ~id ~n txn in
    let began = Unix.gettimeofday () in
    let journalled = ref false in
    match
      journal c (fun j -> j.j_begin id);
      journalled := true;
      let mode =
        Attempt.run a ~scheme:c.k_scheme ~store:c.k_store ?probe ~max_steps:config.max_steps
          actions
      in
      journal c (fun j -> j.j_commit id);
      mode
    with
    | mode ->
        commit c a ~id ~n ~mode ~began ();
        Job_committed { restarts = n }
    | exception e -> (
        let reason = abort_reason c e in
        match
          abort c a ~id ~n ~journalled:!journalled
            ~reason:(Option.value reason ~default:"failed") ~counted:(reason <> None)
        with
        | None when reason <> None && n < config.max_restarts ->
            Atomic.incr c.k_n.n_restarts;
            tick c (fun p -> Metrics.incr p.pm_restarts);
            backoff c ~id (n + 1);
            attempt (n + 1) (Txn.reset_for_restart txn)
        | error ->
            let msg =
              match (error, reason) with
              | Some msg, _ -> msg
              | None, Some _ -> "exceeded max restarts"
              | None, None -> Printexc.to_string e
            in
            add_failed c id msg;
            Job_failed msg)
  in
  attempt 0 (Txn.make ~id ~birth:id)

(* Per-domain busy time: what [oosim top] turns into utilisation. *)
let busy_counter c dom =
  Option.map
    (fun m -> Metrics.counter m (Printf.sprintf "par.dom%d.busy_us" dom))
    c.k_config.metrics

let core_finish c =
  Atomic.set c.k_stop true;
  Option.iter Domain.join c.k_detector;
  c.k_detector <- None;
  (* The joins make every ring quiescent and published; the final drain
     (consumer role handed from the detector to this domain) picks up
     whatever the last sweep missed. *)
  Option.iter (fun o -> ignore (Par_obs.drain o)) c.k_config.obs;
  let wall = Unix.gettimeofday () -. c.k_t0 in
  let commits = Atomic.get c.k_n.n_commits in
  {
    commits;
    aborts = Atomic.get c.k_n.n_aborts;
    deadlocks = Atomic.get c.k_n.n_deadlocks;
    wounds = Atomic.get c.k_n.n_wounds;
    died = Atomic.get c.k_n.n_died;
    timeouts = Atomic.get c.k_n.n_timeouts;
    restarts = Atomic.get c.k_n.n_restarts;
    snapshot_commits = Atomic.get c.k_n.n_snapshot_commits;
    snapshot_aborts = Atomic.get c.k_n.n_snapshot_aborts;
    occ_commits = Atomic.get c.k_n.n_occ_commits;
    occ_validation_failures = Atomic.get c.k_n.n_occ_vfails;
    failed = c.k_failed;
    wall_seconds = wall;
    throughput = (if wall > 0. then float_of_int commits /. wall else 0.);
    lock_stats = Shard_table.stats c.k_locks;
    history = c.k_history;
  }

(* --- submission service ----------------------------------------------

   The core behind a job queue: an external driver (the network server
   front-end) feeds transactions in as they arrive, [run] feeds a whole
   batch at once, and the worker domains drain the queue.  For [submit]
   the queue bound is the admission-control point: a full queue rejects
   instead of buffering without limit. *)

type submit_outcome = Accepted | Saturated | Closed

type service = {
  s_core : core;
  s_mu : Mutex.t;
  s_nonempty : Condition.t;
  s_idle : Condition.t;
  s_q : (int * Exec.action list * (job_status -> unit)) Queue.t;
  s_cap : int;
  mutable s_closed : bool;
  mutable s_in_flight : int;  (** queued + running jobs + open interactive txns *)
  s_next_id : int Atomic.t;
  mutable s_workers : unit Domain.t list;
}

let service_worker s dom () =
  let c = s.s_core in
  Option.iter (fun o -> Par_obs.attach o ~dom) c.k_config.obs;
  let busy = busy_counter c dom in
  let rec loop () =
    Mutex.lock s.s_mu;
    while Queue.is_empty s.s_q && not s.s_closed do
      Condition.wait s.s_nonempty s.s_mu
    done;
    if Queue.is_empty s.s_q then Mutex.unlock s.s_mu (* closed and drained *)
    else begin
      let id, actions, k = Queue.pop s.s_q in
      Mutex.unlock s.s_mu;
      let j0 = Unix.gettimeofday () in
      let st = run_job c ~dom (id, actions) in
      Option.iter
        (fun cnt -> Metrics.add cnt (int_of_float ((Unix.gettimeofday () -. j0) *. 1e6)))
        busy;
      (* A throwing completion callback must not take the worker down. *)
      (try k st with _ -> ());
      Mutex.lock s.s_mu;
      s.s_in_flight <- s.s_in_flight - 1;
      if s.s_in_flight = 0 then Condition.broadcast s.s_idle;
      Mutex.unlock s.s_mu;
      loop ()
    end
  in
  loop ()

let service_start ?(config = default_config) ?(queue_capacity = 256) ~scheme ~store () =
  if queue_capacity <= 0 then
    invalid_arg "Par_engine.service_start: queue_capacity must be positive";
  let c = make_core ~config ~scheme ~store () in
  let s =
    {
      s_core = c;
      s_mu = Mutex.create ();
      s_nonempty = Condition.create ();
      s_idle = Condition.create ();
      s_q = Queue.create ();
      s_cap = queue_capacity;
      s_closed = false;
      s_in_flight = 0;
      s_next_id = Atomic.make 1;
      s_workers = [];
    }
  in
  (* assign in place: a [{ s with ... }] copy here would leave the workers
     holding a different record, splitting the mutable close/in-flight state *)
  s.s_workers <- List.init config.domains (fun d -> Domain.spawn (service_worker s d));
  s

(* The caller holds [s_mu]. *)
let enqueue s job =
  Queue.push job s.s_q;
  s.s_in_flight <- s.s_in_flight + 1;
  Condition.signal s.s_nonempty

let submit s ~actions ~k =
  Mutex.lock s.s_mu;
  let outcome =
    if s.s_closed then Closed
    else if Queue.length s.s_q >= s.s_cap then Saturated
    else begin
      enqueue s (Atomic.fetch_and_add s.s_next_id 1, actions, k);
      Accepted
    end
  in
  Mutex.unlock s.s_mu;
  outcome

let service_backlog s =
  Mutex.lock s.s_mu;
  let n = Queue.length s.s_q in
  Mutex.unlock s.s_mu;
  n

let service_in_flight s =
  Mutex.lock s.s_mu;
  let n = s.s_in_flight in
  Mutex.unlock s.s_mu;
  n

let service_drain s =
  Mutex.lock s.s_mu;
  while s.s_in_flight > 0 do
    Condition.wait s.s_idle s.s_mu
  done;
  Mutex.unlock s.s_mu

let service_waiting s = Shard_table.waiting_txns s.s_core.k_locks

let service_stop s =
  Mutex.lock s.s_mu;
  s.s_closed <- true;
  Condition.broadcast s.s_nonempty;
  Mutex.unlock s.s_mu;
  List.iter Domain.join s.s_workers;
  core_finish s.s_core

(* --- batch driver ----------------------------------------------------- *)

let run ?(config = default_config) ~scheme ~store ~jobs () =
  List.iter
    (fun (id, _) ->
      if id <= 0 then invalid_arg "Par_engine.run: transaction ids must be positive")
    jobs;
  let s = service_start ~config ~scheme ~store () in
  Mutex.lock s.s_mu;
  List.iter (fun (id, actions) -> enqueue s (id, actions, ignore)) jobs;
  Mutex.unlock s.s_mu;
  service_stop s

(* --- interactive transactions ----------------------------------------

   A session-owned transaction driven one statement at a time on the
   caller's own thread, against the same shard table the worker domains
   use.  Only schemes whose per-access hooks actually lock can run
   interactively: a preclaiming scheme sees no action list up front and
   would execute unlocked, and a multi-version scheme needs the whole
   list to classify the transaction. *)

let interactive_supported (scheme : Scheme.t) =
  Option.is_none scheme.Scheme.mvcc && scheme.Scheme.name <> "tav-pre"

type itxn = {
  it_service : service;
  it_id : int;
  it_attempt : Attempt.t;
  mutable it_open : bool;
}

let itxn_id it = it.it_id

let itxn_close it =
  it.it_open <- false;
  let s = it.it_service in
  Mutex.lock s.s_mu;
  s.s_in_flight <- s.s_in_flight - 1;
  if s.s_in_flight = 0 then Condition.broadcast s.s_idle;
  Mutex.unlock s.s_mu

exception Rolled_back

(* Every interactive abort is counted, whatever its cause, and closes the
   transaction for good: the client decides whether to retry. *)
let itxn_fail ?(journalled = true) it e =
  let c = it.it_service.s_core in
  let reason = abort_reason c e in
  let error =
    abort c it.it_attempt ~id:it.it_id ~n:0 ~journalled ~reason:"interactive" ~counted:true
  in
  itxn_close it;
  match (error, reason) with
  | Some msg, _ -> Error msg
  | None, Some r -> Error ("aborted: " ^ r)
  | None, None -> Error (Printexc.to_string e)

let itxn_begin s =
  let c = s.s_core in
  if not (interactive_supported c.k_scheme) then
    Error
      (Printf.sprintf "scheme %s does not support interactive transactions"
         c.k_scheme.Scheme.name)
  else begin
    Mutex.lock s.s_mu;
    if s.s_closed then begin
      Mutex.unlock s.s_mu;
      Error "service is shutting down"
    end
    else begin
      let id = Atomic.fetch_and_add s.s_next_id 1 in
      s.s_in_flight <- s.s_in_flight + 1;
      Mutex.unlock s.s_mu;
      let a = begin_attempt c ~id ~n:0 (Txn.make ~id ~birth:id) in
      let it = { it_service = s; it_id = id; it_attempt = a; it_open = true } in
      match journal c (fun j -> j.j_begin id) with
      | () -> Ok it
      | exception e -> itxn_fail ~journalled:false it e
    end
  end

let itxn_perform it action =
  let c = it.it_service.s_core in
  if not it.it_open then Error "transaction is closed"
  else
    match
      Attempt.run it.it_attempt ~scheme:c.k_scheme ~store:c.k_store
        ~max_steps:c.k_config.max_steps [ action ]
    with
    | _ -> Ok ()
    | exception e -> itxn_fail it e

let itxn_commit it =
  let c = it.it_service.s_core in
  if not it.it_open then Error "transaction is closed"
  else
    match
      Shard_table.check_killed c.k_locks it.it_id;
      journal c (fun j -> j.j_commit it.it_id)
    with
    | () ->
        commit c it.it_attempt ~id:it.it_id ~n:0 ~mode:None ();
        itxn_close it;
        Ok ()
    | exception e -> itxn_fail it e

let itxn_rollback it = if it.it_open then ignore (itxn_fail it Rolled_back)
