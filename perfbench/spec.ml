(* Workload definitions shared by the server and the load process.

   Both processes build the same slice schema and populate it the same
   way, so the oids the load generates resolve on the server (the same
   contract [oosim serve]/[oosim blast] rely on). *)

open Tavcc_model
module Workload = Tavcc_sim.Workload
module Rng = Tavcc_sim.Rng

type store_kind = Memory | Disk

type t = {
  name : string;
  scheme : Tavcc_core.Analysis.t -> Tavcc_cc.Scheme.t;
  store : store_kind;
  domains : int;  (** server worker domains *)
  slices : int;  (** writer methods u0.. (one field each) *)
  readers : int;  (** reader methods r0.. (0 = none) *)
  work : int;  (** read-modify-writes (or reads) per call *)
  instances : int;  (** grid instances populated *)
  hot : int;  (** instances the calls are drawn from, uniformly *)
  actions : int;  (** calls per transaction *)
  read_frac : float;  (** share of read-only transactions *)
  pool_pages : int;  (** buffer-pool frames (disk only) *)
  warmup : int;  (** requests per round sent before the timed window *)
  timed : int;  (** requests per round inside the timed window *)
}

(* Round sizes are fixed request counts, not durations: RSS and the data
   directory grow with every commit, so a fixed count keeps them
   comparable between runs whatever the host's speed. *)
let hot_slices =
  {
    name = "hot-slices";
    scheme = Tavcc_cc.Tav_modes.scheme;
    store = Memory;
    domains = 2;
    slices = 16;
    readers = 0;
    work = 8;
    instances = 4;
    hot = 4;
    actions = 4;
    read_frac = 0.;
    pool_pages = 0;
    warmup = 300;
    timed = 6000;
  }

let durable_writes =
  {
    name = "durable-writes";
    scheme = Tavcc_cc.Tav_modes.scheme;
    store = Disk;
    (* the engine mutex serialises slot IO and commits, so a second
       worker only waits on it: on a 2-vCPU VM, two workers gave a quarter
       less txn_s than one, and a spread between runs of 0.37 against 0.10 *)
    domains = 1;
    slices = 16;
    readers = 0;
    work = 4;
    instances = 4096;
    hot = 4096;
    actions = 4;
    read_frac = 0.;
    pool_pages = 16;
    warmup = 200;
    timed = 2500;
  }

let read_mostly =
  {
    name = "read-mostly";
    scheme = (fun an -> Tavcc_mvcc.Mvcc_tav.scheme an);
    store = Memory;
    domains = 2;
    slices = 16;
    readers = 16;
    work = 8;
    instances = 4;
    hot = 4;
    actions = 4;
    read_frac = 0.9;
    pool_pages = 0;
    warmup = 300;
    timed = 7000;
  }

let all = [ hot_slices; durable_writes; read_mostly ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

let schema w = Workload.slice_schema ~readers:w.readers ~methods:w.slices ~work:w.work ()

(* The round's request stream: one seeded generator, [warmup + timed]
   transactions.  Transaction [i] uses slice method [i mod slices], so any
   16 consecutive requests touch distinct slices. *)
let jobs w ~seed ~round store =
  let rng = Rng.create ((seed * 1_000_003) + round) in
  let txns = w.warmup + w.timed in
  let js =
    if w.read_frac > 0. then
      Workload.mixed_slice_jobs rng store ~txns ~actions_per_txn:w.actions
        ~hot_instances:w.hot ~read_frac:w.read_frac
    else Workload.slice_jobs rng store ~txns ~actions_per_txn:w.actions ~hot_instances:w.hot
  in
  Array.of_list (List.map snd js)

(* Field index written by a slice method ("u3" -> 3), None for readers. *)
let slice_of_method m =
  let s = Name.Method.to_string m in
  if String.length s > 1 && s.[0] = 'u' then int_of_string_opt (String.sub s 1 (String.length s - 1))
  else None

let slice_field k = Name.Field.of_string (Printf.sprintf "s%d" k)

(* Monotonic nanoseconds; CLOCK_MONOTONIC is shared by the server and
   load processes, so their timestamps compare directly. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
