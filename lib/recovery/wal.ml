open Tavcc_model

type lsn = int

type record =
  | Begin of int
  | Update of {
      txn : int;
      oid : Oid.t;
      field : Name.Field.t;
      before : Value.t;
      after : Value.t;
    }
  | Clr of { txn : int; oid : Oid.t; field : Name.Field.t; after : Value.t }
  | Insert of {
      txn : int;
      oid : Oid.t;
      cls : Name.Class.t;
      slots : (Name.Field.t * Value.t) list;
    }
  | Delete of {
      txn : int;
      oid : Oid.t;
      cls : Name.Class.t;
      slots : (Name.Field.t * Value.t) list;
    }
  | Commit of int
  | Abort of int
  | Checkpoint of int list

let pp_slots ppf slots =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    (fun ppf (f, v) -> Format.fprintf ppf "%a=%a" Name.Field.pp f Value.pp v)
    ppf slots

let pp_record ppf = function
  | Begin t -> Format.fprintf ppf "begin(%d)" t
  | Update { txn; oid; field; before; after } ->
      Format.fprintf ppf "upd(%d,%a.%a:%a->%a)" txn Oid.pp oid Name.Field.pp field Value.pp
        before Value.pp after
  | Clr { txn; oid; field; after } ->
      Format.fprintf ppf "clr(%d,%a.%a:=%a)" txn Oid.pp oid Name.Field.pp field Value.pp after
  | Insert { txn; oid; cls; slots } ->
      Format.fprintf ppf "ins(%d,%a:%a{%a})" txn Oid.pp oid Name.Class.pp cls pp_slots slots
  | Delete { txn; oid; cls; slots } ->
      Format.fprintf ppf "del(%d,%a:%a{%a})" txn Oid.pp oid Name.Class.pp cls pp_slots slots
  | Commit t -> Format.fprintf ppf "commit(%d)" t
  | Abort t -> Format.fprintf ppf "abort(%d)" t
  | Checkpoint ts ->
      Format.fprintf ppf "ckpt{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        ts

(* Counter handles, resolved once at [create]. *)
type obs = { m_appends : Tavcc_obs.Metrics.counter; m_flushes : Tavcc_obs.Metrics.counter }

type event = Appended of record * lsn | Flushed of lsn

type t = {
  mutable records : record list (* newest first *);
  mutable n : int;
  mutable stable : int;
  obs : obs option;
  mutable observer : (event -> unit) option;
}

let create ?metrics () =
  let obs =
    Option.map
      (fun m ->
        {
          m_appends = Tavcc_obs.Metrics.counter m "wal.appends";
          m_flushes = Tavcc_obs.Metrics.counter m "wal.flushes";
        })
      metrics
  in
  { records = []; n = 0; stable = 0; obs; observer = None }

let set_observer t f = t.observer <- f

let notify t ev = match t.observer with None -> () | Some f -> f ev

let append t r =
  let lsn = t.n in
  t.records <- r :: t.records;
  t.n <- t.n + 1;
  (match t.obs with None -> () | Some o -> Tavcc_obs.Metrics.incr o.m_appends);
  notify t (Appended (r, lsn));
  lsn

let flush t =
  t.stable <- t.n;
  (match t.obs with None -> () | Some o -> Tavcc_obs.Metrics.incr o.m_flushes);
  notify t (Flushed t.stable)
let stable_lsn t = t.stable
let all t = List.rev t.records
let newest_first t = t.records
let stable t = List.filteri (fun i _ -> i < t.stable) (all t)
let length t = t.n
