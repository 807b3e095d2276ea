(* The multicore layer: sharded lock manager and domain-pool driver.

   Three groups:
   - S=1 equivalence: a [Shard_table] with one shard must be
     indistinguishable from the plain [Lock_table] on any trace — same
     grants, same wake-ups, same deadlock verdicts, same stats ledger;
   - the blocking layer's plumbing (registry, kill, park/wake) driven
     from real domains;
   - the parallel engine as a whole: every committed run must be
     conflict-serializable, and on the slice workload the final store
     state must equal the arithmetic sum of all committed increments —
     a lost update under any scheme fails the sum check. *)

open Tavcc_lock
open Tavcc_model
module LT = Lock_table
module ST = Tavcc_par.Shard_table
module Par_engine = Tavcc_par.Par_engine
module Engine = Tavcc_sim.Engine
module Workload = Tavcc_sim.Workload
module Rng = Tavcc_sim.Rng
module History = Tavcc_txn.History
module FN = Name.Field
module MN = Name.Method

let res_i n = Resource.Instance (Oid.of_int n)

let rw_conflict (held : LT.req) (req : LT.req) =
  not (Compat.compatible Compat.rw held.LT.r_mode req.LT.r_mode)

let req txn res mode = { LT.r_txn = txn; r_res = res; r_mode = mode; r_hier = false; r_pred = None }

(* --- S=1: the sharded table is the lock table --- *)

(* Drive the same random trace at both tables with the discipline the
   engines obey (a blocked transaction issues nothing until granted or
   restarted) and compare every observable at every step. *)
let s1_trace_property seed =
  let rng = Rng.create seed in
  let lt = LT.create ~conflict:rw_conflict () in
  let st = ST.create ~shards:1 ~conflict:rw_conflict () in
  let txns = 6 and resources = 5 and steps = 120 in
  let blocked = Array.make (txns + 1) false in
  let check_consistent step =
    List.iter
      (fun r ->
        let key (q : LT.req) = (q.LT.r_txn, q.LT.r_mode) in
        let h1 = List.map key (LT.holders lt r) and h2 = List.map key (ST.holders st r) in
        let q1 = List.map key (LT.queued lt r) and q2 = List.map key (ST.queued st r) in
        if h1 <> h2 || q1 <> q2 then
          QCheck.Test.fail_reportf "step %d: resource state diverged" step)
      (List.init resources res_i);
    let d1 = LT.find_deadlock lt and d2 = ST.find_deadlock st in
    if Option.is_some d1 <> Option.is_some d2 then
      QCheck.Test.fail_reportf "step %d: deadlock verdicts diverged" step
  in
  for step = 1 to steps do
    let txn = 1 + Rng.int rng txns in
    if blocked.(txn) || Rng.chance rng 0.25 then begin
      (* Restart: drop everything, as the engines' abort path does. *)
      let n1 = List.map (fun (r : LT.req) -> r.LT.r_txn) (LT.release_all lt txn) in
      let n2 = List.map (fun (r : LT.req) -> r.LT.r_txn) (ST.release_all st txn) in
      if n1 <> n2 then QCheck.Test.fail_reportf "step %d: wake-ups diverged" step;
      blocked.(txn) <- false;
      List.iter (fun t -> blocked.(t) <- false) n1
    end
    else begin
      let r = req txn (res_i (Rng.int rng resources)) (if Rng.bool rng then Compat.write else Compat.read) in
      let o1 = LT.acquire lt r and o2 = ST.acquire st r in
      if o1 <> o2 then QCheck.Test.fail_reportf "step %d: outcomes diverged" step;
      if o1 = LT.Waiting then blocked.(txn) <- true
    end;
    check_consistent step
  done;
  let s1 = LT.copy_stats (LT.stats lt) and s2 = ST.stats st in
  if
    s1.LT.requests <> s2.LT.requests
    || s1.LT.immediate <> s2.LT.immediate
    || s1.LT.waits <> s2.LT.waits
    || s1.LT.conversions <> s2.LT.conversions
    || s1.LT.reacquires <> s2.LT.reacquires
    || s1.LT.granted_after_wait <> s2.LT.granted_after_wait
    || s1.LT.max_queue_depth <> s2.LT.max_queue_depth
  then QCheck.Test.fail_reportf "stats ledger diverged";
  true

let s1_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"one shard == plain lock table on random traces"
       (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000))
       s1_trace_property)

let test_shard_of_partitions () =
  let st = ST.create ~shards:4 ~conflict:rw_conflict () in
  Alcotest.(check int) "count" 4 (ST.shard_count st);
  for i = 0 to 63 do
    let s = ST.shard_of st (res_i i) in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "stable" s (ST.shard_of st (res_i i))
  done

let test_cross_shard_release () =
  (* Locks spread over every shard all come back in one release. *)
  let st = ST.create ~shards:4 ~conflict:rw_conflict () in
  for i = 0 to 15 do
    Alcotest.(check bool) "granted" true (ST.acquire st (req 1 (res_i i) Compat.write) = LT.Granted)
  done;
  Alcotest.(check int) "held 16" 16 (List.length (ST.locks_of st 1));
  ignore (ST.release_all st 1);
  Alcotest.(check int) "all gone" 0 (List.length (ST.locks_of st 1))

(* --- the pure cycle search --- *)

let test_find_cycle () =
  Alcotest.(check bool) "empty" true (ST.find_cycle_edges [] = None);
  Alcotest.(check bool) "dag" true (ST.find_cycle_edges [ (1, 2); (2, 3); (1, 3) ] = None);
  (match ST.find_cycle_edges [ (1, 2); (2, 3); (3, 1); (4, 1) ] with
  | Some c -> Alcotest.(check (list int)) "triangle" [ 1; 2; 3 ] (List.sort compare c)
  | None -> Alcotest.fail "missed the triangle");
  (match ST.find_cycle_edges ~from:4 [ (1, 2); (2, 1); (4, 5) ] with
  | Some _ -> Alcotest.fail "4 reaches no cycle"
  | None -> ());
  match ST.find_cycle_edges ~from:1 [ (1, 2); (2, 1) ] with
  | Some c -> Alcotest.(check (list int)) "two-cycle" [ 1; 2 ] (List.sort compare c)
  | None -> Alcotest.fail "missed the two-cycle"

(* --- registry and kill semantics --- *)

let test_kill_semantics () =
  let st = ST.create ~shards:2 ~conflict:rw_conflict () in
  ST.register st ~id:7 ~birth:7;
  Alcotest.(check bool) "first kill lands" true (ST.kill st ~victim:7 ST.Deadlock_victim);
  Alcotest.(check bool) "second is a no-op" false (ST.kill st ~victim:7 ST.Timed_out);
  (match ST.check_killed st 7 with
  | () -> Alcotest.fail "pending kill not raised"
  | exception ST.Aborted ST.Deadlock_victim -> ());
  (* Re-registering (the restart) clears the stale kill. *)
  ST.register st ~id:7 ~birth:7;
  ST.check_killed st 7;
  ST.finish st 7;
  Alcotest.(check bool) "finished txns are safe" false (ST.kill st ~victim:7 ST.Died);
  Alcotest.(check bool) "unknown ids are safe" false (ST.kill st ~victim:99 ST.Died)

let test_park_and_wake () =
  let st = ST.create ~shards:2 ~conflict:rw_conflict () in
  ST.register st ~id:1 ~birth:1;
  ST.register st ~id:2 ~birth:2;
  ST.acquire_blocking st ~policy:ST.Block (req 1 (res_i 0) Compat.write);
  let woke = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        ST.acquire_blocking st ~policy:ST.Block (req 2 (res_i 0) Compat.write);
        Atomic.set woke true)
  in
  (* Give the waiter time to park, then hand over the lock. *)
  while ST.waiting_txns st = [] do Domain.cpu_relax () done;
  Alcotest.(check bool) "not woken early" false (Atomic.get woke);
  ignore (ST.release_all st 1);
  Domain.join d;
  Alcotest.(check bool) "woken by the grant" true (Atomic.get woke);
  Alcotest.(check int) "holds it now" 1 (List.length (ST.holds st 2 (res_i 0)))

let test_park_and_kill () =
  let st = ST.create ~shards:2 ~conflict:rw_conflict () in
  ST.register st ~id:1 ~birth:1;
  ST.register st ~id:2 ~birth:2;
  ST.acquire_blocking st ~policy:ST.Block (req 1 (res_i 0) Compat.write);
  let outcome = Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        match ST.acquire_blocking st ~policy:ST.Block (req 2 (res_i 0) Compat.write) with
        | () -> Atomic.set outcome 1
        | exception ST.Aborted ST.Deadlock_victim -> Atomic.set outcome 2)
  in
  while ST.waiting_txns st = [] do Domain.cpu_relax () done;
  Alcotest.(check bool) "kill lands" true (ST.kill st ~victim:2 ST.Deadlock_victim);
  Domain.join d;
  Alcotest.(check int) "aborted in its own domain" 2 (Atomic.get outcome)

(* --- the engine: serializability and exact sums --- *)

let run_slice ?(policy = Engine.Detect) ?(domains = 4) ?(check = true) ?journal ~scheme_of
    ~seed ~txns () =
  let work = 4 in
  let schema = Workload.slice_schema ~methods:8 ~work () in
  let an = Tavcc_core.Analysis.compile schema in
  let store = Store.create schema in
  Workload.populate store ~per_class:2;
  let jobs =
    Workload.slice_jobs (Rng.create seed) store ~txns ~actions_per_txn:3 ~hot_instances:2
  in
  let config =
    { Par_engine.default_config with domains; policy; record_history = check; shards = 4; journal }
  in
  (* Snapshot the expectations before the run mutates the store. *)
  let sums = Helpers.expected_sums store ~work jobs in
  let r = Par_engine.run ~config ~scheme:(scheme_of an) ~store ~jobs () in
  (r, store, sums, jobs)

let engine_property scheme_of seed =
  let txns = 40 in
  let r, store, sums, _ = run_slice ~scheme_of ~seed ~txns () in
  if r.Par_engine.failed <> [] then QCheck.Test.fail_reportf "transactions failed";
  if r.Par_engine.commits <> txns then
    QCheck.Test.fail_reportf "committed %d of %d" r.Par_engine.commits txns;
  if not (Par_engine.serializable r) then QCheck.Test.fail_reportf "not serializable";
  Helpers.check_sums store sums;
  true

let engine_qcheck name scheme_of =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name
       (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000))
       (engine_property scheme_of))

let test_policies_complete () =
  List.iter
    (fun policy ->
      List.iter
        (fun (name, scheme_of) ->
          let r, store, sums, _ =
            run_slice ~policy ~scheme_of ~seed:7 ~txns:32 ()
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s commits" (Engine.policy_name policy) name)
            32 r.Par_engine.commits;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s serializable" (Engine.policy_name policy) name)
            true
            (Par_engine.serializable r);
          Helpers.check_sums store sums)
        [ ("rw-msg", Tavcc_cc.Rw_instance.scheme); ("tav", Tavcc_cc.Tav_modes.scheme) ])
    [ Engine.Detect; Engine.Wound_wait; Engine.Wait_die; Engine.No_wait; Engine.Timeout 20 ]

let test_differential_vs_step_engine () =
  (* The same jobs through the step simulator and the domain pool must
     land the store in the same state: both are serializable executions
     of commutative increments, so any divergence is a lost or doubled
     update in one of the engines. *)
  List.iter
    (fun (name, scheme_of) ->
      let run_par () =
        let r, store, _, _ = run_slice ~scheme_of ~seed:11 ~txns:30 () in
        Alcotest.(check int) (name ^ " par commits") 30 r.Par_engine.commits;
        store
      in
      let run_step () =
        let schema = Workload.slice_schema ~methods:8 ~work:4 () in
        let an = Tavcc_core.Analysis.compile schema in
        let store = Store.create schema in
        Workload.populate store ~per_class:2;
        let jobs =
          Workload.slice_jobs (Rng.create 11) store ~txns:30 ~actions_per_txn:3
            ~hot_instances:2
        in
        let r = Engine.run ~scheme:(scheme_of an) ~store ~jobs () in
        Alcotest.(check int) (name ^ " step commits") 30 r.Engine.commits;
        store
      in
      let s_par = run_par () and s_step = run_step () in
      let grid = Name.Class.of_string "grid" in
      List.iter2
        (fun o1 o2 ->
          for i = 0 to Store.field_count s_par o1 - 1 do
            if Store.read_idx s_par o1 i <> Store.read_idx s_step o2 i then
              Alcotest.failf "%s: stores diverged at %a field %d" name Oid.pp o1 i
          done)
        (Store.extent s_par grid) (Store.extent s_step grid))
    [ ("rw-msg", Tavcc_cc.Rw_instance.scheme); ("tav", Tavcc_cc.Tav_modes.scheme) ]

let test_single_domain_degenerates () =
  (* domains=1 is a plain sequential run: no conflicts are even possible. *)
  let r, store, sums, _ =
    run_slice ~domains:1 ~scheme_of:Tavcc_cc.Rw_instance.scheme ~seed:3 ~txns:20 ()
  in
  Alcotest.(check int) "commits" 20 r.Par_engine.commits;
  Alcotest.(check int) "no aborts" 0 r.Par_engine.aborts;
  Alcotest.(check bool) "serializable" true (Par_engine.serializable r);
  Helpers.check_sums store sums

(* --- a journal hook that raises ---------------------------------------

   [j_commit] is where a durable store forces its log, so it is the hook
   that fails in production (a full disk, an IO error).  The job must
   fail on its own: its writes undone, its locks released, every other
   job served.  Each wait is bounded, so an engine that strands the
   locks fails the test instead of hanging the suite. *)

let within ~seconds what f =
  let result = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e))) in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get result with
    | Some r ->
        Domain.join d;
        (match r with Ok v -> v | Error e -> raise e)
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "%s did not return within %.0f s" what seconds;
        Unix.sleepf 0.002;
        wait ()
  in
  wait ()

(* Raises from the first [j_commit] only. *)
let commit_fails_once () =
  let fired = Atomic.make false in
  {
    Par_engine.j_begin = ignore;
    j_commit = (fun _ -> if not (Atomic.exchange fired true) then failwith "disk full");
    j_abort = ignore;
  }

let disk_full = Printexc.to_string (Failure "disk full")

(* Takes one job's increments back out of the expected sums. *)
let drop_job sums ~work (_, actions) =
  List.iter
    (function
      | Tavcc_cc.Exec.Call (oid, m, [ Value.Vint v ]) ->
          let key = (oid, Helpers.slice_field m) in
          Hashtbl.replace sums key (Hashtbl.find sums key - (work * v))
      | _ -> Alcotest.fail "unexpected action shape")
    actions

let test_raising_commit_run () =
  let r, store, sums, jobs =
    within ~seconds:30. "Par_engine.run" (fun () ->
        run_slice ~domains:2 ~journal:(commit_fails_once ()) ~scheme_of:Tavcc_cc.Tav_modes.scheme
          ~seed:5 ~txns:20 ())
  in
  (match r.Par_engine.failed with
  | [ (id, msg) ] ->
      Alcotest.(check string) "the exception's text" disk_full msg;
      drop_job sums ~work:4 (List.find (fun (j, _) -> j = id) jobs)
  | l -> Alcotest.failf "%d failed jobs, expected 1" (List.length l));
  Alcotest.(check int) "the others commit" 19 r.Par_engine.commits;
  Alcotest.(check bool) "serializable" true (Par_engine.serializable r);
  Helpers.check_sums store sums

let test_raising_commit_service () =
  let work = 4 in
  let schema = Workload.slice_schema ~methods:8 ~work () in
  let an = Tavcc_core.Analysis.compile schema in
  let store = Store.create schema in
  Workload.populate store ~per_class:2;
  let jobs =
    Workload.slice_jobs (Rng.create 5) store ~txns:20 ~actions_per_txn:3 ~hot_instances:2
  in
  let sums = Helpers.expected_sums store ~work jobs in
  let config =
    {
      Par_engine.default_config with
      domains = 2;
      shards = 4;
      journal = Some (commit_fails_once ());
    }
  in
  let s = Par_engine.service_start ~config ~scheme:(Tavcc_cc.Tav_modes.scheme an) ~store () in
  let mu = Mutex.create () and replies = ref [] in
  List.iter
    (fun job ->
      let k st =
        Mutex.lock mu;
        replies := (job, st) :: !replies;
        Mutex.unlock mu
      in
      match Par_engine.submit s ~actions:(snd job) ~k with
      | Par_engine.Accepted -> ()
      | Par_engine.Saturated | Par_engine.Closed -> Alcotest.fail "submit refused")
    jobs;
  within ~seconds:30. "service_drain" (fun () -> Par_engine.service_drain s);
  let r = within ~seconds:30. "service_stop" (fun () -> Par_engine.service_stop s) in
  Alcotest.(check int) "every job replied once" 20 (List.length !replies);
  let failed =
    List.filter_map
      (function
        | job, Par_engine.Job_failed msg -> Some (job, msg)
        | _, Par_engine.Job_committed _ -> None)
      !replies
  in
  (match failed with
  | [ (job, msg) ] ->
      Alcotest.(check string) "the exception's text" disk_full msg;
      drop_job sums ~work job
  | l -> Alcotest.failf "%d failed replies, expected 1" (List.length l));
  Alcotest.(check int) "listed in failed" 1 (List.length r.Par_engine.failed);
  Alcotest.(check int) "the others commit" 19 r.Par_engine.commits;
  Helpers.check_sums store sums

let test_raising_commit_itxn () =
  let schema = Workload.slice_schema ~methods:2 ~work:1 () in
  let an = Tavcc_core.Analysis.compile schema in
  let store = Store.create schema in
  Workload.populate store ~per_class:1;
  let oid = List.hd (Store.extent store (Name.Class.of_string "grid")) in
  let call = Tavcc_cc.Exec.Call (oid, MN.of_string "u0", [ Value.Vint 5 ]) in
  let config =
    { Par_engine.default_config with domains = 1; journal = Some (commit_fails_once ()) }
  in
  let s = Par_engine.service_start ~config ~scheme:(Tavcc_cc.Rw_instance.scheme an) ~store () in
  let run_one () =
    match Par_engine.itxn_begin s with
    | Error e -> Error e
    | Ok it -> (
        match Par_engine.itxn_perform it call with
        | Error e -> Error e
        | Ok () -> Par_engine.itxn_commit it)
  in
  (match within ~seconds:10. "itxn_commit" run_one with
  | Error msg -> Alcotest.(check string) "the exception's text" disk_full msg
  | Ok () -> Alcotest.fail "the failed force committed");
  let s0 () = Store.read store oid (FN.of_string "s0") in
  Alcotest.check Helpers.value "its write is undone" (Value.Vint 0) (s0 ());
  Alcotest.(check int) "the transaction is closed" 0 (Par_engine.service_in_flight s);
  (* Its lock is gone: the same write commits now. *)
  (match within ~seconds:10. "a second itxn_commit" run_one with
  | Ok () -> ()
  | Error e -> Alcotest.failf "second transaction: %s" e);
  let r = within ~seconds:10. "service_stop" (fun () -> Par_engine.service_stop s) in
  Alcotest.(check int) "one commit" 1 r.Par_engine.commits;
  Alcotest.(check int) "one abort" 1 r.Par_engine.aborts;
  Alcotest.check Helpers.value "one increment" (Value.Vint 5) (s0 ())

let suite =
  [
    Alcotest.test_case "shard_of partitions stably" `Quick test_shard_of_partitions;
    Alcotest.test_case "release spans all shards" `Quick test_cross_shard_release;
    Alcotest.test_case "cycle search on edge lists" `Quick test_find_cycle;
    Alcotest.test_case "kill and registry semantics" `Quick test_kill_semantics;
    Alcotest.test_case "park until the grant arrives" `Quick test_park_and_wake;
    Alcotest.test_case "kill wakes a parked waiter" `Quick test_park_and_kill;
    s1_equivalence;
    engine_qcheck "par run: all commit, serializable, exact sums (tav)"
      Tavcc_cc.Tav_modes.scheme;
    engine_qcheck "par run: all commit, serializable, exact sums (rw-msg)"
      Tavcc_cc.Rw_instance.scheme;
    Alcotest.test_case "every policy completes the contended run" `Quick
      test_policies_complete;
    Alcotest.test_case "par and step engines agree on the final store" `Quick
      test_differential_vs_step_engine;
    Alcotest.test_case "one domain degenerates to sequential" `Quick
      test_single_domain_degenerates;
    Alcotest.test_case "a raising j_commit fails its job (run)" `Quick test_raising_commit_run;
    Alcotest.test_case "a raising j_commit fails its job (service)" `Quick
      test_raising_commit_service;
    Alcotest.test_case "a raising j_commit fails its job (itxn_commit)" `Quick
      test_raising_commit_itxn;
  ]
