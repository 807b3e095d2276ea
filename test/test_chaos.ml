(* The fault-injection and schedule-exploration harness. *)

open Tavcc_model
open Tavcc_recovery
open Tavcc_chaos
open Helpers

(* --- the fault-plan DSL --- *)

let test_plan_roundtrip () =
  let plans =
    [
      Fault.none;
      { Fault.injections = []; schedule = Fault.Fixed [] };
      { Fault.injections = []; schedule = Fault.Fixed [ 1; 0; 2 ] };
      {
        Fault.injections =
          [
            Fault.Crash_at_append 17;
            Fault.Crash_at_flush 3;
            Fault.Torn_flush { nth = 3; keep = 9 };
            Fault.Delay { step = 5; txn = 2; ticks = 10 };
            Fault.Forced_abort { step = 9; txn = 3 };
          ];
        schedule = Fault.Random_sched 42;
      };
    ]
  in
  List.iter
    (fun p ->
      let s = Fault.to_string p in
      Alcotest.(check bool)
        (Printf.sprintf "plan %s round-trips" s)
        true
        (Fault.of_string s = p))
    plans;
  Alcotest.check_raises "malformed plan refused"
    (Invalid_argument "Fault.of_string: malformed component \"bogus:1\"") (fun () ->
      ignore (Fault.of_string "r:1;bogus:1"))

(* --- the WAL byte codec --- *)

let sample_records =
  let o = Oid.of_int 3 in
  [
    Wal.Checkpoint [ 1; 2 ];
    Wal.Begin 1;
    Wal.Update
      { txn = 1; oid = o; field = fn "a"; before = Value.Vint 1; after = Value.Vint 2 };
    Wal.Update
      {
        txn = 1;
        oid = o;
        field = fn "s";
        before = Value.Vstring "x;y";
        after = Value.Vnull;
      };
    Wal.Update
      {
        txn = 1;
        oid = o;
        field = fn "f";
        before = Value.Vfloat 0.1;
        after = Value.Vfloat (-1e300);
      };
    Wal.Update
      {
        txn = 1;
        oid = o;
        field = fn "r";
        before = Value.Vref (Oid.of_int 7);
        after = Value.Vbool true;
      };
    Wal.Clr { txn = 2; oid = o; field = fn "a"; after = Value.Vint 1 };
    Wal.Commit 1;
    Wal.Abort 2;
  ]

let test_codec_roundtrip () =
  let bytes = Codec.encode sample_records in
  Alcotest.(check bool) "decode_exact inverts encode" true
    (Codec.decode_exact bytes = sample_records);
  Alcotest.(check bool) "decode inverts encode" true
    (Codec.decode bytes = sample_records)

let test_codec_every_cut () =
  (* Cutting the byte image anywhere yields the longest whole-record
     prefix — never garbage, never an exception. *)
  let bytes = Codec.encode sample_records in
  let boundaries =
    (* Byte offset at which each record's frame ends. *)
    let _, offs =
      List.fold_left
        (fun (off, acc) r ->
          let off = off + String.length (Codec.encode_record r) in
          (off, off :: acc))
        (0, [ 0 ])
        sample_records
    in
    List.rev offs
  in
  for cut = 0 to String.length bytes - 1 do
    let decoded = Codec.decode (String.sub bytes 0 cut) in
    let expect = List.length (List.filter (fun b -> b <= cut) boundaries) - 1 in
    Alcotest.(check int) (Printf.sprintf "cut at byte %d" cut) expect
      (List.length decoded);
    Alcotest.(check bool)
      (Printf.sprintf "prefix at byte %d well-formed" cut)
      true
      (decoded = List.filteri (fun i _ -> i < expect) sample_records)
  done

let test_codec_corruption () =
  let bytes = Codec.encode sample_records in
  (* Flip a payload byte of the first frame: checksum mismatch stops the
     scan at record 0. *)
  let b = Bytes.of_string bytes in
  Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 0xff));
  Alcotest.(check int) "corrupt first frame decodes nothing" 0
    (List.length (Codec.decode (Bytes.to_string b)));
  Alcotest.check_raises "decode_exact refuses torn tail"
    (Invalid_argument "Codec.decode_exact: torn or corrupt tail") (fun () ->
      ignore (Codec.decode_exact (String.sub bytes 0 (String.length bytes - 1))))

(* --- the shared token codec --- *)

let prop_codec_reference =
  QCheck.Test.make ~count:500 ~name:"codec frames every record as the reference does"
    (QCheck.make ~print:(fun r -> String.escaped (Ref_tok.record r)) Tok_gen.record)
    (fun r ->
      let s = Codec.encode_record r in
      s = Ref_tok.frame (Ref_tok.record r) && compare (Codec.decode s) [ r ] = 0)

let test_walker_ints () =
  let parse s =
    let w = Codec.Tok.walker s ~pos:0 ~stop:(String.length s) in
    match Codec.Tok.int w with
    | n -> if Codec.Tok.at_end w then Some n else None
    | exception Codec.Tok.Malformed -> None
  in
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (string_of_int n) (Some n) (parse (string_of_int n ^ ",")))
    [ 0; 7; -7; 10; -10; max_int; min_int; max_int - 1; min_int + 1 ];
  (* one past [max_int] and [min_int]: their last digits are below 9 *)
  let past n =
    let s = string_of_int n in
    let k = String.length s - 1 in
    String.mapi (fun i c -> if i = k then Char.chr (Char.code c + 1) else c) s ^ ","
  in
  List.iter
    (fun s -> Alcotest.(check (option int)) (Printf.sprintf "%S refused" s) None (parse s))
    [ ""; ","; "-,"; "-0,"; "00,"; "07,"; "-07,"; "+7,"; "7"; "0x7,"; "1_0,"; " 7,";
      past max_int; past min_int; "99999999999999999999," ]

let prop_fnv_reference =
  QCheck.Test.make ~count:300 ~name:"fnv32_sub equals a reference byte loop"
    QCheck.(make Gen.(triple (string_size (0 -- 600)) nat nat))
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      Codec.fnv32_sub (Bytes.of_string s) pos len = Ref_tok.fnv32 (String.sub s pos len))

let test_fnv_allocates_nothing () =
  let b = Bytes.init 4096 (fun i -> Char.chr (i * 31 land 255)) in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 100 do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  (* the best of three, so that a thread switch into code that
     allocates cannot fail the check *)
  let extra () =
    words (fun () -> ignore (Sys.opaque_identity (Codec.fnv32_sub b 0 4096)))
    -. words (fun () -> ())
  in
  Alcotest.(check (float 0.)) "minor words of 100 checksums of 4 KiB, over an empty loop's" 0.
    (List.fold_left min infinity [ extra (); extra (); extra () ])

(* --- torn-tail recovery through the manager (satellite: WAL cut
   mid-record recovers the longest valid prefix) --- *)

let test_torn_tail_recovery () =
  let schema =
    schema_of_source
      {|class item is
          fields a : integer; b : integer;
        end|}
  in
  let store = Store.create schema in
  let o1 = Store.new_instance store (cn "item") in
  let wal = Wal.create () in
  let mgr = Recovery.Manager.create store wal in
  let snap = Recovery.Manager.checkpoint mgr in
  Recovery.Manager.begin_txn mgr 1;
  Recovery.Manager.write mgr ~txn:1 o1 (fn "a") (Value.Vint 10);
  Recovery.Manager.commit mgr 1;
  Recovery.Manager.begin_txn mgr 2;
  Recovery.Manager.write mgr ~txn:2 o1 (fn "a") (Value.Vint 99);
  Recovery.Manager.commit mgr 2;
  let log = Wal.stable wal in
  let bytes = Codec.encode log in
  (* Tear the disk inside the final record (t2's Commit): t2's updates
     redo but then undo as a loser — only t1 survives. *)
  let cut = String.length bytes - 3 in
  let surviving = Codec.decode (String.sub bytes 0 cut) in
  Alcotest.(check int) "one record torn off" (List.length log - 1)
    (List.length surviving);
  let rstore = Store.create schema in
  let r1 = Store.new_instance rstore (cn "item") in
  Recovery.Restart.recover rstore snap surviving;
  Alcotest.check value "t1 committed, survives" (Value.Vint 10)
    (Store.read rstore r1 (fn "a"))

(* --- torture determinism: (seed, plan) replays bit-for-bit --- *)

let slices = Torture.slices_workload ()
let escalation = Torture.escalation_workload ()
let tav = List.assoc "tav" Torture.schemes

let torture ?(crash_matrix = true) ?(torn_per_flush = 2) ?(scheme_name = "tav")
    ?(scheme = tav) ~workload ~seed plan =
  Torture.run ~crash_matrix ~torn_per_flush ~scheme_name ~scheme ~workload ~seed
    ~plan ()

let chaotic_plan =
  {
    Fault.injections =
      [
        Fault.Delay { step = 3; txn = 1; ticks = 8 };
        Fault.Forced_abort { step = 6; txn = 2 };
        Fault.Torn_flush { nth = 2; keep = 11 };
        Fault.Crash_at_append 9;
      ];
    schedule = Fault.Random_sched 77;
  }

let test_torture_deterministic () =
  let r1 = torture ~workload:slices ~seed:5 chaotic_plan in
  let r2 = torture ~workload:slices ~seed:5 chaotic_plan in
  Alcotest.(check string) "event hashes equal" r1.Torture.r_event_hash
    r2.Torture.r_event_hash;
  Alcotest.(check bool) "whole reports equal" true (r1 = r2);
  (* With a pick hook installed the plan's scheduler seed, not the
     engine seed, drives the interleaving. *)
  let r3 =
    torture ~workload:slices ~seed:5
      { chaotic_plan with Fault.schedule = Fault.Random_sched 78 }
  in
  Alcotest.(check bool) "different schedule seed, different stream" true
    (r1.Torture.r_event_hash <> r3.Torture.r_event_hash)

let test_torture_oracles_hold () =
  let r = torture ~workload:slices ~seed:5 chaotic_plan in
  Alcotest.(check bool) "run is clean" true (Torture.ok r);
  Alcotest.(check (list string)) "no violations" [] r.Torture.r_violations;
  Alcotest.(check bool) "forced abort fired" true (r.Torture.r_forced_aborts >= 1);
  Alcotest.(check bool) "delay diverted the scheduler" true
    (r.Torture.r_delays_honoured >= 1);
  Alcotest.(check bool) "crash matrix covered the log" true
    (r.Torture.r_crash_points > r.Torture.r_wal_appends);
  Alcotest.(check bool) "torn tails checked" true (r.Torture.r_torn_points >= 1);
  Alcotest.(check bool) "all transactions committed" true (r.Torture.r_commits = 6)

let test_escalation_torture () =
  (* The E4 cascade under the finest interleavings, with the full crash
     matrix: deadlock aborts and restarts flow through the mirror WAL. *)
  let r = torture ~workload:escalation ~seed:42
      { Fault.injections = []; schedule = Fault.Random_sched 1 }
  in
  Alcotest.(check bool) "clean" true (Torture.ok r);
  Alcotest.(check int) "all committed" 6 r.Torture.r_commits

(* --- differential testing: every scheme reaches the same final state ---

   Workload writes are read-modify-write increments, so any
   conflict-serializable execution of the same jobs produces the same
   final store no matter which scheme ordered them. *)

let test_differential_schemes () =
  List.iter
    (fun workload ->
      let reports =
        List.map
          (fun (name, mk) ->
            ( name,
              torture ~crash_matrix:false ~torn_per_flush:0 ~scheme_name:name
                ~scheme:mk ~workload ~seed:11
                { Fault.injections = []; schedule = Fault.Random_sched 4 } ))
          Torture.schemes
      in
      let _, first = List.hd reports in
      List.iter
        (fun (name, r) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s clean" workload.Torture.w_name name)
            true (Torture.ok r);
          Alcotest.(check string)
            (Printf.sprintf "%s/%s same final state" workload.Torture.w_name name)
            first.Torture.r_final_dump r.Torture.r_final_dump)
        reports)
    [ slices; escalation ]

let test_par_differential () =
  (* The real multicore driver, pinned to one domain, is a deterministic
     serial execution — its final state must match the step engine's. *)
  let r =
    torture ~crash_matrix:false ~torn_per_flush:0 ~workload:slices ~seed:11
      { Fault.injections = []; schedule = Fault.Random_sched 4 }
  in
  Alcotest.(check bool) "step run clean" true (Torture.ok r);
  Alcotest.(check (list string)) "par agrees with the step engine" []
    (Torture.par_differential ~scheme_name:"tav" ~scheme:tav ~workload:slices
       ~expect:r.Torture.r_final_dump ())

(* --- the explorer --- *)

let test_systematic_cases () =
  let cases =
    Explore.systematic_cases ~seed:3 ~ready_sizes:[ 1; 3; 2; 1; 2 ] ~preemptions:2
      ~max_cases:100
  in
  (* Steps 1, 2 and 4 have a choice (sizes 3, 2, 2): singles = 2+1+1,
     pairs = 2*1 + 2*1 + 1*1. *)
  Alcotest.(check int) "bounded enumeration size" 9 (List.length cases);
  List.iter
    (fun (c : Explore.case) ->
      match c.Explore.c_plan.Fault.schedule with
      | Fault.Fixed trail ->
          Alcotest.(check bool) "preemption bound respected" true
            (List.length (List.filter (fun v -> v <> 0) trail) <= 2)
      | Fault.Random_sched _ -> Alcotest.fail "systematic case must be Fixed")
    cases;
  let distinct =
    List.sort_uniq compare (List.map (fun c -> c.Explore.c_plan) cases)
  in
  Alcotest.(check int) "cases distinct" 9 (List.length distinct)

let test_fixed_schedule_runs () =
  (* Every bounded-preemption perturbation of the sticky schedule passes
     the oracles on the slices workload. *)
  let base =
    torture ~crash_matrix:false ~torn_per_flush:0 ~workload:slices ~seed:3
      { Fault.injections = []; schedule = Fault.Fixed [] }
  in
  Alcotest.(check bool) "sticky base clean" true (Torture.ok base);
  let cases =
    Explore.systematic_cases ~seed:3 ~ready_sizes:base.Torture.r_ready_sizes
      ~preemptions:1 ~max_cases:10
  in
  Alcotest.(check bool) "perturbations exist" true (cases <> []);
  List.iter
    (fun (c : Explore.case) ->
      let r =
        torture ~crash_matrix:false ~torn_per_flush:0 ~workload:slices
          ~seed:c.Explore.c_seed c.Explore.c_plan
      in
      Alcotest.(check bool) "perturbed schedule clean" true (Torture.ok r))
    cases

(* --- the shrinker --- *)

let test_shrinker_minimality () =
  (* A synthetic bug: the run "fails" exactly when the plan carries the
     culprit injection.  Shrinking from a big noisy case must isolate
     it. *)
  let culprit = Fault.Forced_abort { step = 7; txn = 2 } in
  let run (c : Explore.case) =
    (* true = ok, false = still failing *)
    not (List.mem culprit c.Explore.c_plan.Fault.injections)
  in
  let noisy =
    {
      Explore.c_seed = 13;
      c_plan =
        {
          Fault.injections =
            [
              Fault.Delay { step = 1; txn = 1; ticks = 64 };
              culprit;
              Fault.Crash_at_flush 4;
              Fault.Torn_flush { nth = 1; keep = 5 };
              Fault.Crash_at_append 31;
            ];
          schedule = Fault.Fixed [ 0; 2; 1; 0; 3; 0; 0 ];
        };
    }
  in
  let shrunk = Explore.shrink ~run noisy in
  Alcotest.(check bool) "shrunk case still fails" false (run shrunk);
  Alcotest.(check bool) "only the culprit remains" true
    (shrunk.Explore.c_plan.Fault.injections = [ culprit ]);
  (match shrunk.Explore.c_plan.Fault.schedule with
  | Fault.Fixed trail -> Alcotest.(check (list int)) "trail zeroed away" [] trail
  | Fault.Random_sched _ -> Alcotest.fail "schedule kind must be preserved");
  Alcotest.(check string) "replay command"
    "oosim chaos --workload slices --scheme tav --seed 13 --replay 'f:;abort:7:2'"
    (Explore.to_command ~workload:"slices" ~scheme:"tav" shrunk)

let test_shrinker_delay_ticks () =
  (* Delay windows shrink by halving while the failure persists. *)
  let run (c : Explore.case) =
    not
      (List.exists
         (function Fault.Delay { ticks; _ } -> ticks >= 4 | _ -> false)
         c.Explore.c_plan.Fault.injections)
  in
  let case =
    {
      Explore.c_seed = 1;
      c_plan =
        {
          Fault.injections = [ Fault.Delay { step = 2; txn = 1; ticks = 64 } ];
          schedule = Fault.Random_sched 9;
        };
    }
  in
  let shrunk = Explore.shrink ~run case in
  match shrunk.Explore.c_plan.Fault.injections with
  | [ Fault.Delay { ticks; _ } ] ->
      Alcotest.(check bool)
        (Printf.sprintf "ticks %d shrunk near the threshold" ticks)
        true
        (ticks >= 4 && ticks < 8)
  | _ -> Alcotest.fail "delay injection must survive shrinking"

let test_random_cases_deterministic () =
  let a = Explore.random_cases ~base_seed:5 ~runs:10 ~txns:[ 1; 2; 3 ] in
  let b = Explore.random_cases ~base_seed:5 ~runs:10 ~txns:[ 1; 2; 3 ] in
  Alcotest.(check bool) "same base seed, same cases" true (a = b);
  let c = Explore.random_cases ~base_seed:6 ~runs:10 ~txns:[ 1; 2; 3 ] in
  Alcotest.(check bool) "different base seed, different cases" true (a <> c)

(* --- randomized torture sweep (qcheck) --- *)

let prop_random_torture =
  QCheck.Test.make ~count:8 ~name:"random chaos cases: all oracles hold"
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)) (fun seed ->
      let txns = List.map fst (snd (escalation.Torture.w_build ())) in
      match Explore.random_cases ~base_seed:seed ~runs:1 ~txns with
      | [ c ] ->
          let r =
            torture ~workload:escalation ~seed:c.Explore.c_seed c.Explore.c_plan
          in
          Torture.ok r
      | _ -> false)

(* --- pinned streams: replays keep their digests across builds ---

   [test_torture_deterministic] compares two replays of one build; these
   cases compare against literal values, so a change to either engine's
   lifecycle that moves one event, one grant or one WAL record shows
   here.  (workload, scheme, seed, plan, event hash, commits, aborts),
   under the default policy and then under each of the others. *)

let pinned =
  [
    ("escalation", "tav", 1, "r:0", "7bef218a48db9340604186ff8da5982b", 6, 0);
    ("escalation", "tav", 1, "f:;abort:3:2;cf:2;torn:1:5", "eafd37c0667e7d9a5109d660414b521c", 6, 1);
    ("escalation", "tav", 1, "r:11;delay:4:1:3;abort:9:3;ca:5", "47d4329640d86af79d24b72c2b1ad230", 6, 1);
    ("escalation", "tav", 1, "f:1.0.2.1;abort:2:1", "a100cd48e4dd7f2995db18feab22d7ae", 6, 1);
    ("escalation", "rw-msg", 1, "r:0", "fab6f42b94fe9d7bacf5e0103f2f498f", 6, 12);
    ("escalation", "rw-msg", 1, "f:;abort:3:2;cf:2;torn:1:5", "f7d5328a50a171d207c45efad31e7c0d", 6, 1);
    ("escalation", "rw-msg", 1, "r:11;delay:4:1:3;abort:9:3;ca:5", "c09220c4fe299c072ebd8f9f835d5893", 6, 16);
    ("escalation", "rw-msg", 1, "f:1.0.2.1;abort:2:1", "fdf86f377b9fcf4f9e7e2a315016ed9e", 6, 3);
    ("escalation", "mvcc-tav", 1, "r:0", "7bef218a48db9340604186ff8da5982b", 6, 0);
    ("escalation", "mvcc-tav", 1, "f:;abort:3:2;cf:2;torn:1:5", "eafd37c0667e7d9a5109d660414b521c", 6, 1);
    ("escalation", "mvcc-tav", 1, "r:11;delay:4:1:3;abort:9:3;ca:5", "47d4329640d86af79d24b72c2b1ad230", 6, 1);
    ("escalation", "mvcc-tav", 1, "f:1.0.2.1;abort:2:1", "a100cd48e4dd7f2995db18feab22d7ae", 6, 1);
    ("slices", "tav", 7, "r:0", "d82215264a2c7fd41357397a1d5d012f", 6, 1);
    ("slices", "tav", 7, "f:;abort:3:2;cf:2;torn:1:5", "8f0e7922c276630be29e3a3385ca0ad5", 6, 1);
    ("slices", "tav", 7, "r:11;delay:4:1:3;abort:9:3;ca:5", "aaf47a09ee3cd88b7e6955128a2f21bf", 6, 2);
    ("slices", "tav", 7, "f:1.0.2.1;abort:2:1", "228fb6dc44c7a5cedf9ddebe34b61c8e", 6, 1);
    ("slices", "rw-msg", 7, "r:0", "be37515aac8ee483588753a987b4be69", 6, 4);
    ("slices", "rw-msg", 7, "f:;abort:3:2;cf:2;torn:1:5", "8f0e7922c276630be29e3a3385ca0ad5", 6, 1);
    ("slices", "rw-msg", 7, "r:11;delay:4:1:3;abort:9:3;ca:5", "69a0629fc256f163008f49942a541a99", 6, 4);
    ("slices", "rw-msg", 7, "f:1.0.2.1;abort:2:1", "6385ba7852877db38e4336a97b709959", 6, 1);
    ("slices", "mvcc-tav", 7, "r:0", "d82215264a2c7fd41357397a1d5d012f", 6, 1);
    ("slices", "mvcc-tav", 7, "f:;abort:3:2;cf:2;torn:1:5", "8f0e7922c276630be29e3a3385ca0ad5", 6, 1);
    ("slices", "mvcc-tav", 7, "r:11;delay:4:1:3;abort:9:3;ca:5", "aaf47a09ee3cd88b7e6955128a2f21bf", 6, 2);
    ("slices", "mvcc-tav", 7, "f:1.0.2.1;abort:2:1", "228fb6dc44c7a5cedf9ddebe34b61c8e", 6, 1);
    ("mixed", "tav", 42, "r:0", "2ea9b27a66001af6a4231835943bee36", 8, 1);
    ("mixed", "tav", 42, "f:;abort:3:2;cf:2;torn:1:5", "507829d626d3c0677e9384d1d1753d02", 8, 1);
    ("mixed", "tav", 42, "r:11;delay:4:1:3;abort:9:3;ca:5", "938d1a6fa0fe4189fb86fbd1ff026a8e", 8, 2);
    ("mixed", "tav", 42, "f:1.0.2.1;abort:2:1", "d9722ca58eecd5586d0e5e700fd9a2bf", 8, 1);
    ("mixed", "rw-msg", 42, "r:0", "7f2cdee49da2d86d6c2d1fb37971902d", 8, 3);
    ("mixed", "rw-msg", 42, "f:;abort:3:2;cf:2;torn:1:5", "507829d626d3c0677e9384d1d1753d02", 8, 1);
    ("mixed", "rw-msg", 42, "r:11;delay:4:1:3;abort:9:3;ca:5", "b4e1e2d1eec0e02a66a53ddb7c36cd2e", 8, 3);
    ("mixed", "rw-msg", 42, "f:1.0.2.1;abort:2:1", "d9722ca58eecd5586d0e5e700fd9a2bf", 8, 1);
    ("mixed", "mvcc-tav", 42, "r:0", "c7ae9d5b71e28230b1c6c00a1cc91509", 8, 1);
    ("mixed", "mvcc-tav", 42, "f:;abort:3:2;cf:2;torn:1:5", "4eac06d50d292433dc275d6bd7d36f3b", 8, 1);
    ("mixed", "mvcc-tav", 42, "r:11;delay:4:1:3;abort:9:3;ca:5", "5397be1d43b51355c2b8602baabeae60", 8, 2);
    ("mixed", "mvcc-tav", 42, "f:1.0.2.1;abort:2:1", "cb52356d968292cd7eaa7ac65390f773", 8, 1);
    ("random", "tav", 99, "r:0", "1760d7616969872e022baabc67ae2b1d", 5, 1);
    ("random", "tav", 99, "f:;abort:3:2;cf:2;torn:1:5", "9b72b078755918599d49a86e40d70961", 5, 1);
    ("random", "tav", 99, "r:11;delay:4:1:3;abort:9:3;ca:5", "e362effc5bc4f84b98bd3800f627f252", 5, 1);
    ("random", "tav", 99, "f:1.0.2.1;abort:2:1", "c118434c59dd4dca8bf2e23b16f3a8cc", 5, 1);
    ("random", "rw-msg", 99, "r:0", "b34d6c149a30962571fd2f3c8491588f", 5, 1);
    ("random", "rw-msg", 99, "f:;abort:3:2;cf:2;torn:1:5", "b746e17923b144d24ea761a91c792a9a", 5, 1);
    ("random", "rw-msg", 99, "r:11;delay:4:1:3;abort:9:3;ca:5", "d33e89a1a81cfdc7d797131b0614e4ec", 5, 1);
    ("random", "rw-msg", 99, "f:1.0.2.1;abort:2:1", "283aa09f931a03a2396f4e25b50456db", 5, 1);
    ("random", "mvcc-tav", 99, "r:0", "1760d7616969872e022baabc67ae2b1d", 5, 1);
    ("random", "mvcc-tav", 99, "f:;abort:3:2;cf:2;torn:1:5", "9b72b078755918599d49a86e40d70961", 5, 1);
    ("random", "mvcc-tav", 99, "r:11;delay:4:1:3;abort:9:3;ca:5", "e362effc5bc4f84b98bd3800f627f252", 5, 1);
    ("random", "mvcc-tav", 99, "f:1.0.2.1;abort:2:1", "666048bad23b8e2a4a6173d44da2b917", 5, 2);
  ]

let pinned_policies =
  [
    ("wound-wait", "rw-msg", "r:0", "9a78907857ea5942bebacf43bd2fa7d0", 6, 14);
    ("wound-wait", "rw-msg", "r:11;delay:4:1:3;abort:9:3;ca:5", "c792e91ba36087fba256eb25722fc0fc", 6, 16);
    ("wait-die", "rw-msg", "r:0", "fff92e2beb41d73b71574d30b1ad4545", 6, 82);
    ("wait-die", "rw-msg", "r:11;delay:4:1:3;abort:9:3;ca:5", "4422025a5478cb006c3547daea402712", 6, 92);
    ("no-wait", "rw-msg", "r:0", "5ed8f58c43c47fe73ca39a6ec32897ca", 2, 599);
    ("no-wait", "rw-msg", "r:11;delay:4:1:3;abort:9:3;ca:5", "8555f62ecf1e0dc20b9343596a6102f3", 2, 596);
    ("timeout", "rw-msg", "r:0", "5c5ad50fdb68b4f07adca2935a3d93fe", 6, 15);
    ("timeout", "rw-msg", "r:11;delay:4:1:3;abort:9:3;ca:5", "a9e7cacf863c20a20c6ccbed6af4a6e6", 6, 16);
  ]

let test_pinned_streams () =
  let workloads =
    [
      ("escalation", escalation);
      ("slices", slices);
      ("mixed", Torture.mixed_slices_workload ());
      ("random", Torture.random_workload ());
    ]
  in
  let check ?policy (w, scheme, seed, plan, hash, commits, aborts) =
    let r =
      Torture.run ?policy ~scheme_name:scheme ~scheme:(List.assoc scheme Torture.schemes)
        ~workload:(List.assoc w workloads) ~seed ~plan:(Fault.of_string plan) ()
    in
    let what = Printf.sprintf "%s/%s seed %d '%s'" w scheme seed plan in
    Alcotest.(check string) (what ^ " event hash") hash r.Torture.r_event_hash;
    Alcotest.(check int) (what ^ " commits") commits r.Torture.r_commits;
    Alcotest.(check int) (what ^ " aborts") aborts r.Torture.r_aborts
  in
  List.iter check pinned;
  List.iter
    (fun (name, scheme, plan, hash, commits, aborts) ->
      let policy =
        match name with
        | "wound-wait" -> Tavcc_sim.Engine.Wound_wait
        | "wait-die" -> Tavcc_sim.Engine.Wait_die
        | "no-wait" -> Tavcc_sim.Engine.No_wait
        | _ -> Tavcc_sim.Engine.Timeout 25
      in
      check ~policy ("escalation", scheme, 3, plan, hash, commits, aborts))
    pinned_policies

let suite =
  [
    case "fault plans round-trip" test_plan_roundtrip;
    case "codec round-trips" test_codec_roundtrip;
    case "codec survives every byte cut" test_codec_every_cut;
    case "codec detects corruption" test_codec_corruption;
    QCheck_alcotest.to_alcotest prop_codec_reference;
    case "token walker accepts exactly the encoder's ints" test_walker_ints;
    QCheck_alcotest.to_alcotest prop_fnv_reference;
    case "fnv32_sub allocates nothing" test_fnv_allocates_nothing;
    case "torn tail recovers longest valid prefix" test_torn_tail_recovery;
    case "torture replays bit-for-bit" test_torture_deterministic;
    case "pinned replay digests, counts and aborts" test_pinned_streams;
    case "oracles hold under a chaotic plan" test_torture_oracles_hold;
    case "escalation deadlocks under torture" test_escalation_torture;
    case "all schemes agree on the final state" test_differential_schemes;
    case "single-domain par engine agrees" test_par_differential;
    case "systematic enumeration is bounded" test_systematic_cases;
    case "perturbed schedules stay clean" test_fixed_schedule_runs;
    case "shrinker isolates the culprit" test_shrinker_minimality;
    case "shrinker halves delay windows" test_shrinker_delay_ticks;
    case "case generation is seeded" test_random_cases_deterministic;
    QCheck_alcotest.to_alcotest prop_random_torture;
  ]
