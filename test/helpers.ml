(* Shared test utilities: name shortcuts, Alcotest testables, schema
   builders. *)

open Tavcc_model
open Tavcc_lang

let cn = Name.Class.of_string
let mn = Name.Method.of_string
let fn = Name.Field.of_string

let class_name : Name.Class.t Alcotest.testable =
  Alcotest.testable Name.Class.pp Name.Class.equal

let method_name : Name.Method.t Alcotest.testable =
  Alcotest.testable Name.Method.pp Name.Method.equal

let field_name : Name.Field.t Alcotest.testable =
  Alcotest.testable Name.Field.pp Name.Field.equal

let oid : Oid.t Alcotest.testable = Alcotest.testable Oid.pp Oid.equal
let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let mode : Tavcc_core.Mode.t Alcotest.testable =
  Alcotest.testable Tavcc_core.Mode.pp Tavcc_core.Mode.equal

let access_vector : Tavcc_core.Access_vector.t Alcotest.testable =
  Alcotest.testable Tavcc_core.Access_vector.pp Tavcc_core.Access_vector.equal

let site : Tavcc_core.Site.t Alcotest.testable =
  Alcotest.testable Tavcc_core.Site.pp Tavcc_core.Site.equal

let expr : Ast.expr Alcotest.testable = Alcotest.testable Pretty.pp_expr Ast.equal_expr

let body : Ast.body Alcotest.testable = Alcotest.testable Pretty.pp_body Ast.equal_body

(* Parses, builds and checks a schema from source; fails the test on any
   error. *)
let schema_of_source src =
  let decls = Parser.parse_decls src in
  match Schema.build decls with
  | Error e -> Alcotest.failf "schema build: %a" Schema.pp_error e
  | Ok s -> (
      match Check.check s with
      | Ok () -> s
      | Error errs ->
          Alcotest.failf "schema check: %a" (Format.pp_print_list Check.pp_error) errs)

let build_of_source src =
  (* Build without the static checker, for tests that target it. *)
  match Schema.build (Parser.parse_decls src) with
  | Error e -> Alcotest.failf "schema build: %a" Schema.pp_error e
  | Ok s -> s

let case name f = Alcotest.test_case name `Quick f

(* Allocation counters of the calling domain, in words: everything
   allocated, and what went straight to the major heap (blocks too big
   for the minor heap, such as a 4 KiB page image). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let direct_major_words () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

(* The minor words 100 calls of [f] allocate over an empty loop's, the
   best of three runs, so that a thread switch into code that allocates
   cannot fail a check for zero. *)
let extra_minor_words f =
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 100 do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let extra () = words f -. words (fun () -> ()) in
  List.fold_left min infinity [ extra (); extra (); extra () ]

(* Naive substring search, sufficient for matching diagnostics. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* --- the slice workload's exact-sum oracle --- *)

let slice_field m =
  (* u<i> writes s<i> and nothing else. *)
  let s = Name.Method.to_string m in
  Name.Field.of_string ("s" ^ String.sub s 1 (String.length s - 1))

(* Expected final value of every (instance, field) slot: the initial
   value plus [work] * arg for every call, since each call body performs
   [work] increments of its own slice field. *)
let expected_sums store ~work jobs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (_, actions) ->
      List.iter
        (function
          | Tavcc_cc.Exec.Call (oid, m, [ Value.Vint v ]) ->
              let key = (oid, slice_field m) in
              let base =
                match Hashtbl.find_opt tbl key with
                | Some x -> x
                | None -> (
                    match Store.read store oid (slice_field m) with
                    | Value.Vint x -> x
                    | _ -> Alcotest.fail "non-int slice field")
              in
              Hashtbl.replace tbl key (base + (work * v))
          | _ -> Alcotest.fail "unexpected action shape")
        actions)
    jobs;
  tbl

let check_sums store tbl =
  Hashtbl.iter
    (fun (oid, f) expect ->
      match Store.read store oid f with
      | Value.Vint got ->
          if got <> expect then
            Alcotest.failf "%a.%a = %d, expected %d (lost update)" Oid.pp oid Name.Field.pp f got
              expect
      | _ -> Alcotest.fail "non-int slice field")
    tbl

(* --- the token encoding, spelled out as a reference ---

   What the shared token codec ([Tavcc_chaos.Codec.Tok]) must write,
   byte for byte: ints through [string_of_int], float bits through
   [Printf], one token after another. *)
module Ref_tok = struct
  module W = Tavcc_recovery.Wal

  let int n = string_of_int n ^ ","
  let str s = int (String.length s) ^ s

  let value = function
    | Value.Vint n -> "i" ^ int n
    | Value.Vbool v -> if v then "b1" else "b0"
    | Value.Vstring s -> "s" ^ str s
    | Value.Vfloat f -> Printf.sprintf "f%016Lx" (Int64.bits_of_float f)
    | Value.Vref o -> "r" ^ int (Oid.to_int o)
    | Value.Vnull -> "n"

  let slots l =
    int (List.length l) ^ String.concat "" (List.map (fun (f, v) -> str f ^ value v) l)

  let named l = slots (List.map (fun (f, v) -> (Name.Field.to_string f, v)) l)
  let field f = str (Name.Field.to_string f)
  let cls c = str (Name.Class.to_string c)
  let oid o = int (Oid.to_int o)

  let record = function
    | W.Begin t -> "B" ^ int t
    | W.Update { txn; oid = o; field = f; before; after } ->
        "U" ^ int txn ^ oid o ^ field f ^ value before ^ value after
    | W.Clr { txn; oid = o; field = f; after } -> "C" ^ int txn ^ oid o ^ field f ^ value after
    | W.Insert { txn; oid = o; cls = c; slots = l } -> "I" ^ int txn ^ oid o ^ cls c ^ named l
    | W.Delete { txn; oid = o; cls = c; slots = l } -> "D" ^ int txn ^ oid o ^ cls c ^ named l
    | W.Commit t -> "T" ^ int t
    | W.Abort t -> "A" ^ int t
    | W.Checkpoint l -> "K" ^ int (List.length l) ^ String.concat "" (List.map int l)

  (* FNV-1a/32 one byte at a time, masked at every step *)
  let fnv32 s =
    let h = ref 0x811c9dc5 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff) s;
    !h

  let frame p = Printf.sprintf "%08x%08x%s" (String.length p) (fnv32 p) p
end

(* --- the page checksum, spelled out as a reference ---

   What [Tavcc_storage.Page.checksum] must compute, one 32-bit word at a
   time: the little-endian words of bytes [8, length), the last one
   zero-padded when short, go round-robin to four lanes; each word steps
   its lane; two zero steps end each lane; the lanes fold by XOR. *)
module Ref_page_sum = struct
  let step h w =
    let t = h lxor w in
    let t = t lxor (t lsr 15) in
    t * 0x01000193 land 0xffffffff

  let sum b =
    let n = Bytes.length b in
    let lanes = [| 0x811c9dc5; 0x2f8b63a1; 0x5c3e71d9; 0x9a4d0e27 |] in
    let word pos =
      let w = ref 0 in
      for j = 3 downto 0 do
        w := (!w lsl 8) lor if pos + j < n then Char.code (Bytes.get b (pos + j)) else 0
      done;
      !w
    in
    let rec go k pos =
      if pos < n then begin
        lanes.(k mod 4) <- step lanes.(k mod 4) (word pos);
        go (k + 1) (pos + 4)
      end
    in
    go 0 8;
    Array.fold_left (fun acc h -> acc lxor step (step h 0) 0) 0 lanes
end

(* Generators for the token codec's edge cases: the int extremes, strings
   made of the characters the codec itself uses, and the odd floats. *)
module Tok_gen = struct
  open QCheck.Gen
  module W = Tavcc_recovery.Wal

  let int =
    oneof
      [ oneofl [ 0; -1; 1; 9; 10; -10; min_int; max_int; min_int + 1 ]; small_signed_int; int ]

  let str =
    string_size ~gen:(oneofl [ ','; '-'; '0'; '1'; '9'; 'i'; 'n'; 'f'; '\000'; '\255' ]) (0 -- 12)

  let float = oneof [ oneofl [ nan; infinity; neg_infinity; -0.; 0.; 1e-310 ]; float ]

  let value =
    oneof
      [
        map (fun n -> Value.Vint n) int;
        map (fun v -> Value.Vbool v) bool;
        map (fun s -> Value.Vstring s) str;
        map (fun f -> Value.Vfloat f) float;
        map (fun n -> Value.Vref (Oid.of_int n)) int;
        return Value.Vnull;
      ]

  let slots = list_size (0 -- 6) (pair str value)
  let named = map (List.map (fun (f, v) -> (Name.Field.of_string f, v))) slots
  let field = map Name.Field.of_string str
  let cls = map Name.Class.of_string str
  let oid = map Oid.of_int int

  let record =
    oneof
      [
        map (fun t -> W.Begin t) int;
        map3 (fun (txn, oid) field (before, after) -> W.Update { txn; oid; field; before; after })
          (pair int oid) field (pair value value);
        map3
          (fun (txn, oid) field after -> W.Clr { txn; oid; field; after })
          (pair int oid) field value;
        map3 (fun (txn, oid) cls slots -> W.Insert { txn; oid; cls; slots }) (pair int oid) cls named;
        map3 (fun (txn, oid) cls slots -> W.Delete { txn; oid; cls; slots }) (pair int oid) cls named;
        map (fun t -> W.Commit t) int;
        map (fun t -> W.Abort t) int;
        map (fun l -> W.Checkpoint l) (list_size (0 -- 5) int);
      ]
end
