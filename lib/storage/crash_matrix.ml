open Tavcc_model
open Tavcc_recovery
module Fault = Tavcc_chaos.Fault
module Rng = Tavcc_sim.Rng
module CN = Name.Class
module FN = Name.Field

(* --- configuration --- *)

type config = {
  seed : int;
  txns : int;
  objs : int;
  ops_per_txn : int;
  page_size : int;
  pool_pages : int;
  base_dir : string;
  max_states : int;
  max_plans : int;
}

let default ?(dir = "_crash_matrix") ~seed () =
  {
    seed;
    txns = 24;
    objs = 96;
    ops_per_txn = 5;
    page_size = 512;
    pool_pages = 4;
    base_dir = dir;
    max_states = 120;
    max_plans = 48;
  }

(* --- tiny file helpers --- *)

let read_file path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let wal_path dir = Filename.concat dir "wal.log"
let data_path dir = Filename.concat dir "data.pages"
let dblwr_path dir = Filename.concat dir "dblwr.log"

(* --- the workload schema: a bank-ish pair of classes --- *)

let acct = CN.of_string "acct"
let evt = CN.of_string "evt"
let f_bal = FN.of_string "bal"
let f_tag = FN.of_string "tag"
let f_n = FN.of_string "n"

let build_schema () : unit Schema.t =
  let decl name fields =
    { Schema.c_name = CN.of_string name; c_parents = []; c_fields = fields; c_methods = [] }
  in
  match
    Schema.build
      [
        decl "acct" [ (f_bal, Value.Tint); (f_tag, Value.Tstring) ];
        decl "evt" [ (f_n, Value.Tint) ];
      ]
  with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "crash_matrix schema: %a" Schema.pp_error e)

(* --- the serial driver ---

   One thread, ambient transactions, a deliberately small buffer pool so
   evictions (and therefore page write-backs) happen constantly.  The
   variable-length [tag] writes force in-page relocations and
   cross-page migrations. *)

type tally = {
  mutable t_commits : int;
  mutable t_aborts : int;
  mutable t_acked : int list;  (** commits whose [Engine.commit] returned *)
}

let fresh_tally () = { t_commits = 0; t_aborts = 0; t_acked = [] }

let drive cfg eng tally =
  let schema = build_schema () in
  let store = Engine.store eng schema in
  let rng = Rng.create cfg.seed in
  let live = ref [] in
  for i = 0 to cfg.objs - 1 do
    let cls = if i mod 4 = 3 then evt else acct in
    let init =
      if CN.to_string cls = "evt" then [ (f_n, Value.Vint i) ]
      else [ (f_bal, Value.Vint (100 * i)); (f_tag, Value.Vstring (Printf.sprintf "tag%04d" i)) ]
    in
    let oid = Store.new_instance ~init store cls in
    live := (Oid.to_int oid, CN.to_string cls) :: !live
  done;
  Engine.checkpoint eng;
  for k = 1 to cfg.txns do
    Engine.begin_txn eng k;
    let added = ref [] and removed = ref [] in
    for _ = 1 to cfg.ops_per_txn do
      let r = Rng.int rng 100 in
      if r < 55 && !live <> [] then begin
        let o, cls = Rng.pick rng !live in
        if cls = "acct" then
          if Rng.bool rng then
            Store.write store (Oid.of_int o) f_bal (Value.Vint (Rng.int rng 10000))
          else
            Store.write store (Oid.of_int o) f_tag
              (Value.Vstring (String.make (1 + Rng.int rng 48) 'x'))
        else Store.write store (Oid.of_int o) f_n (Value.Vint (Rng.int rng 1000))
      end
      else if r < 70 && !live <> [] then begin
        let o, cls = Rng.pick rng !live in
        ignore (Store.read store (Oid.of_int o) (if cls = "acct" then f_tag else f_n))
      end
      else if r < 88 then begin
        let oid =
          Store.new_instance
            ~init:[ (f_bal, Value.Vint (Rng.int rng 500)); (f_tag, Value.Vstring "new") ]
            store acct
        in
        live := (Oid.to_int oid, "acct") :: !live;
        added := Oid.to_int oid :: !added
      end
      else if List.length !live > 8 then begin
        let o, cls = Rng.pick rng !live in
        Store.delete_instance store (Oid.of_int o);
        live := List.filter (fun (x, _) -> x <> o) !live;
        removed := (o, cls) :: !removed
      end
    done;
    if Rng.chance rng 0.25 then begin
      Engine.abort eng k;
      tally.t_aborts <- tally.t_aborts + 1;
      live := List.filter (fun (x, _) -> not (List.mem x !added)) !live;
      (* an instance created and deleted in this transaction is gone too *)
      List.iter
        (fun ((x, _) as rc) -> if not (List.mem x !added) then live := rc :: !live)
        !removed
    end
    else begin
      Engine.commit eng k;
      tally.t_commits <- tally.t_commits + 1;
      tally.t_acked <- k :: tally.t_acked
    end;
    if k mod 7 = 0 then Engine.checkpoint eng
  done

(* --- the committed-prefix oracle ---

   The driver is serial, so log order is execution order and the state a
   correct recovery must produce is exactly: replay, in log order, the
   operations of transaction 0 (autocommit) and of every transaction
   whose [Commit] made it into the surviving prefix.  Aborted
   transactions are skipped wholesale — their forward images and their
   compensations cancel. *)

let oracle records =
  let committed = Hashtbl.create 32 in
  Hashtbl.replace committed 0 ();
  List.iter
    (function Wal.Commit x -> Hashtbl.replace committed x () | _ -> ())
    records;
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun r ->
      match r with
      | Wal.Insert { txn; oid; cls; slots } when Hashtbl.mem committed txn ->
          Hashtbl.replace tbl (Oid.to_int oid)
            (CN.to_string cls, List.map (fun (f, v) -> (FN.to_string f, v)) slots)
      | Wal.Delete { txn; oid; _ } when Hashtbl.mem committed txn ->
          Hashtbl.remove tbl (Oid.to_int oid)
      | Wal.Update { txn; oid; field; after; _ } when Hashtbl.mem committed txn -> (
          let fname = FN.to_string field in
          match Hashtbl.find_opt tbl (Oid.to_int oid) with
          | Some (cls, slots) ->
              Hashtbl.replace tbl (Oid.to_int oid)
                (cls, List.map (fun (f, v) -> if f = fname then (f, after) else (f, v)) slots)
          | None -> ())
      | _ -> ())
    records;
  Hashtbl.fold (fun oid (cls, slots) l -> (oid, cls, slots) :: l) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let pp_value v =
  match v with
  | Value.Vint n -> string_of_int n
  | Value.Vbool b -> string_of_bool b
  | Value.Vstring s -> Printf.sprintf "%S" s
  | Value.Vfloat f -> string_of_float f
  | Value.Vref o -> Printf.sprintf "@%d" (Oid.to_int o)
  | Value.Vnull -> "null"

let dump_to_string dump =
  String.concat "\n"
    (List.map
       (fun (oid, cls, slots) ->
         Printf.sprintf "%d %s {%s}" oid cls
           (String.concat "; " (List.map (fun (f, v) -> f ^ "=" ^ pp_value v) slots)))
       dump)

let compare_state ~label dump records acked =
  let violations = ref [] in
  let add m = violations := m :: !violations in
  List.iter
    (fun k ->
      if not (List.exists (function Wal.Commit x -> x = k | _ -> false) records) then
        add
          (Printf.sprintf "%s: durability: acknowledged commit of txn %d missing from stable log"
             label k))
    acked;
  let expected = oracle records in
  if dump <> expected then begin
    let d = dump_to_string dump and e = dump_to_string expected in
    let first_diff =
      let dl = String.split_on_char '\n' d and el = String.split_on_char '\n' e in
      let rec go = function
        | x :: xs, y :: ys -> if x = y then go (xs, ys) else Printf.sprintf "got %s, want %s" x y
        | x :: _, [] -> Printf.sprintf "extra %s" x
        | [], y :: _ -> Printf.sprintf "missing %s" y
        | [], [] -> "?"
      in
      go (dl, el)
    in
    add
      (Printf.sprintf "%s: recovered state diverges from committed-prefix oracle (%d vs %d instances; %s)"
         label (List.length dump) (List.length expected) first_diff)
  end;
  List.rev !violations

(* --- recovering a captured or surviving image --- *)

let engine_config cfg ~dir ~io_hook =
  { (Engine.default_config ~dir) with page_size = cfg.page_size; pool_pages = cfg.pool_pages; io_hook }

type state = {
  st_label : string;
  st_wal : string;
  st_data : string;
  st_dblwr : string;
  st_acked : int list;
}

let capture dir acked label =
  {
    st_label = label;
    st_wal = read_file (wal_path dir);
    st_data = read_file (data_path dir);
    st_dblwr = read_file (dblwr_path dir);
    st_acked = acked;
  }

let recover_and_check cfg st =
  let dir = Filename.concat cfg.base_dir "rec" in
  rm_rf dir;
  mkdir_p dir;
  write_file (wal_path dir) st.st_wal;
  write_file (data_path dir) st.st_data;
  write_file (dblwr_path dir) st.st_dblwr;
  match Engine.create (engine_config cfg ~dir ~io_hook:None) with
  | eng ->
      let dump = Engine.dump eng in
      Engine.close ~flush:false eng;
      let records = Codec.decode st.st_wal in
      (compare_state ~label:st.st_label dump records st.st_acked, dump_to_string dump)
  | exception e ->
      ( [ Printf.sprintf "%s: recovery raised %s" st.st_label (Printexc.to_string e) ],
        "<recovery failed>" )

(* --- fault-plan hooks over the engine's IO points --- *)

(* The ordinals plans name: every write, WAL forces, page writes, and
   writes inside a checkpoint, counted across every checkpoint of the
   run. *)
type io_count = {
  mutable writes : int;
  mutable wal_n : int;
  mutable page_n : int;
  mutable ck_n : int;
  mutable in_ck : bool;
}

let io_count () = { writes = 0; wal_n = 0; page_n = 0; ck_n = 0; in_ck = false }

(* Counts [pt]; true when it is a write rather than a checkpoint marker. *)
let count io (pt : Engine.io_point) =
  (match pt with
  | Engine.Ckpt_begin -> io.in_ck <- true
  | Engine.Ckpt_end -> io.in_ck <- false
  | Engine.Wal_write _ -> io.wal_n <- io.wal_n + 1
  | Engine.Page_write _ -> io.page_n <- io.page_n + 1
  | Engine.Dblwr_write _ | Engine.Meta_write -> ());
  match pt with
  | Engine.Ckpt_begin | Engine.Ckpt_end -> false
  | Engine.Wal_write _ | Engine.Page_write _ | Engine.Dblwr_write _ | Engine.Meta_write ->
      io.writes <- io.writes + 1;
      if io.in_ck then io.ck_n <- io.ck_n + 1;
      true

let hook_of_plan (plan : Fault.plan) =
  let io = io_count () in
  fun (pt : Engine.io_point) ->
    let ck_write = count io pt && io.in_ck in
    let action = ref Engine.Proceed in
    List.iter
      (fun (inj : Fault.injection) ->
        match (inj, pt) with
        | Fault.Crash_at_flush n, Engine.Wal_write _ when io.wal_n = n ->
            raise (Engine.Crashed "cf")
        | Fault.Torn_flush { nth; keep }, Engine.Wal_write _ when io.wal_n = nth ->
            action := Engine.Torn keep
        | Fault.Crash_at_page_write n, Engine.Page_write _ when io.page_n = n ->
            raise (Engine.Crashed "cpw")
        | Fault.Torn_page { nth; keep }, Engine.Page_write _ when io.page_n = nth ->
            action := Engine.Torn keep
        | Fault.Crash_in_checkpoint n, _ when ck_write && io.ck_n = n ->
            raise (Engine.Crashed "cck")
        | _ -> ())
      plan.Fault.injections;
    !action

(* one full driver run under a plan; on a crash, recover from the
   surviving files and check.  Returns (violations, digest): the digest
   covers the surviving byte images and the recovered dump, so two runs
   of the same (seed, plan) must produce equal digests — the bit-for-bit
   replay guarantee. *)
let run_plan cfg (plan : Fault.plan) =
  let dir = Filename.concat cfg.base_dir "inj" in
  rm_rf dir;
  let tally = fresh_tally () in
  let label = Fault.to_string plan in
  let eng = Engine.create (engine_config cfg ~dir ~io_hook:(Some (hook_of_plan plan))) in
  (* the closing checkpoint writes too, so a planned crash may land in it *)
  match
    drive cfg eng tally;
    Engine.close eng
  with
  | () ->
      let st = capture dir tally.t_acked label in
      let violations, dump_s = recover_and_check cfg st in
      let digest =
        Digest.to_hex
          (Digest.string (st.st_wal ^ "\x00" ^ st.st_data ^ "\x00" ^ st.st_dblwr ^ "\x00" ^ dump_s))
      in
      (violations, digest, false)
  | exception Engine.Crashed _ ->
      Engine.abandon eng;
      let st = capture dir tally.t_acked label in
      let violations, dump_s = recover_and_check cfg st in
      let digest =
        Digest.to_hex
          (Digest.string (st.st_wal ^ "\x00" ^ st.st_data ^ "\x00" ^ st.st_dblwr ^ "\x00" ^ dump_s))
      in
      (violations, digest, true)

(* --- plan generation: a sweep over the observed IO-event space --- *)

let sample_points total n =
  if total <= 0 then []
  else
    List.sort_uniq Int.compare
      (List.init (min n total) (fun i -> 1 + (i * total / min n total)))

let plans_of cfg (io : io_count) =
  let sched = Fault.none.Fault.schedule in
  let mk inj = { Fault.injections = [ inj ]; schedule = sched } in
  let plans = ref [] in
  let add p = plans := p :: !plans in
  List.iter (fun n -> add (mk (Fault.Crash_at_flush n))) (sample_points io.wal_n 8);
  List.iter
    (fun n ->
      add (mk (Fault.Torn_flush { nth = n; keep = 1 }));
      add (mk (Fault.Torn_flush { nth = n; keep = 9 })))
    (sample_points io.wal_n 4);
  List.iter (fun n -> add (mk (Fault.Crash_at_page_write n))) (sample_points io.page_n 8);
  List.iter
    (fun n ->
      add (mk (Fault.Torn_page { nth = n; keep = 0 }));
      add (mk (Fault.Torn_page { nth = n; keep = 60 }));
      add (mk (Fault.Torn_page { nth = n; keep = cfg.page_size - 3 })))
    (sample_points io.page_n 4);
  List.iter (fun n -> add (mk (Fault.Crash_in_checkpoint n))) (sample_points io.ck_n 6);
  let all = List.rev !plans in
  if List.length all <= cfg.max_plans then all
  else List.filteri (fun i _ -> i < cfg.max_plans) all

(* --- the full matrix --- *)

type report = {
  m_seed : int;
  m_commits : int;
  m_aborts : int;
  m_wal_records : int;
  m_states_checked : int;
  m_plans_run : int;
  m_crashes_fired : int;
  m_replay_consistent : bool;
  m_violations : (string * string) list;
}

let ok r = r.m_violations = [] && r.m_replay_consistent

let pp_report fmt r =
  Format.fprintf fmt
    "crash-matrix seed=%d: %d commits, %d aborts, %d wal records; %d states, %d plans (%d fired); replay %s; %d violations"
    r.m_seed r.m_commits r.m_aborts r.m_wal_records r.m_states_checked r.m_plans_run
    r.m_crashes_fired
    (if r.m_replay_consistent then "bit-for-bit" else "DIVERGED")
    (List.length r.m_violations);
  List.iter (fun (p, v) -> Format.fprintf fmt "@.  [%s] %s" p v) r.m_violations

let run cfg =
  mkdir_p cfg.base_dir;
  let main_dir = Filename.concat cfg.base_dir "main" in
  rm_rf main_dir;
  let tally = fresh_tally () in
  (* the state sweep: the three files just before every write, so each
     state is one write on from the one before *)
  let io = io_count () and states = ref [] in
  let sweep_hook pt =
    if count io pt then
      states :=
        capture main_dir tally.t_acked (Printf.sprintf "before-write:%d" io.writes) :: !states;
    Engine.Proceed
  in
  let eng = Engine.create (engine_config cfg ~dir:main_dir ~io_hook:(Some sweep_hook)) in
  drive cfg eng tally;
  let wal_records = (Engine.stats eng).Engine.s_wal_records in
  Engine.close eng;
  (* the final, cleanly-closed image must recover to itself too *)
  let final_state = capture main_dir tally.t_acked "final" in
  let all_states = final_state :: List.rev !states in
  let picked =
    let n = List.length all_states in
    if n <= cfg.max_states then all_states
    else
      let stride = (n + cfg.max_states - 1) / cfg.max_states in
      List.filteri (fun i _ -> i mod stride = 0) all_states
  in
  let violations = ref [] in
  List.iter
    (fun st ->
      let v, _ = recover_and_check cfg st in
      List.iter (fun m -> violations := ("state-sweep", m) :: !violations) v)
    picked;
  (* injected fault plans, each run twice for the bit-for-bit check *)
  let plans = plans_of cfg io in
  let replay_consistent = ref true in
  let fired = ref 0 in
  List.iter
    (fun plan ->
      let p = Fault.to_string plan in
      let v1, d1, crashed = run_plan cfg plan in
      let _, d2, _ = run_plan cfg plan in
      if crashed then incr fired;
      if d1 <> d2 then begin
        replay_consistent := false;
        violations := (p, "replay diverged: two runs of the same (seed, plan) differ") :: !violations
      end;
      List.iter (fun m -> violations := (p, m) :: !violations) v1)
    plans;
  {
    m_seed = cfg.seed;
    m_commits = tally.t_commits;
    m_aborts = tally.t_aborts;
    m_wal_records = wal_records;
    m_states_checked = List.length picked;
    m_plans_run = List.length plans;
    m_crashes_fired = !fired;
    m_replay_consistent = !replay_consistent;
    m_violations = List.rev !violations;
  }
