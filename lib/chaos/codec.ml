open Tavcc_model
open Tavcc_recovery

(* --- payload encoding ---

   Tokens are concatenated with no separators beyond their own
   terminators: ints are decimal with a trailing ',', strings are
   length-prefixed, floats are the fixed 16 hex digits of their IEEE
   bits.  Record tags: B(egin) U(pdate) C(lr) I(nsert) D(elete)
   T(commit) A(bort) K(checkpoint). *)

let enc_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ','

let enc_str b s =
  enc_int b (String.length s);
  Buffer.add_string b s

let enc_value b = function
  | Value.Vint n ->
      Buffer.add_char b 'i';
      enc_int b n
  | Value.Vbool v -> Buffer.add_string b (if v then "b1" else "b0")
  | Value.Vstring s ->
      Buffer.add_char b 's';
      enc_str b s
  | Value.Vfloat f ->
      Buffer.add_char b 'f';
      Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float f))
  | Value.Vref oid ->
      Buffer.add_char b 'r';
      enc_int b (Oid.to_int oid)
  | Value.Vnull -> Buffer.add_char b 'n'

let payload (r : Wal.record) =
  let b = Buffer.create 32 in
  (match r with
  | Wal.Begin txn ->
      Buffer.add_char b 'B';
      enc_int b txn
  | Wal.Update { txn; oid; field; before; after } ->
      Buffer.add_char b 'U';
      enc_int b txn;
      enc_int b (Oid.to_int oid);
      enc_str b (Name.Field.to_string field);
      enc_value b before;
      enc_value b after
  | Wal.Clr { txn; oid; field; after } ->
      Buffer.add_char b 'C';
      enc_int b txn;
      enc_int b (Oid.to_int oid);
      enc_str b (Name.Field.to_string field);
      enc_value b after
  | Wal.Insert { txn; oid; cls; slots } ->
      Buffer.add_char b 'I';
      enc_int b txn;
      enc_int b (Oid.to_int oid);
      enc_str b (Name.Class.to_string cls);
      enc_int b (List.length slots);
      List.iter
        (fun (f, v) ->
          enc_str b (Name.Field.to_string f);
          enc_value b v)
        slots
  | Wal.Delete { txn; oid; cls; slots } ->
      Buffer.add_char b 'D';
      enc_int b txn;
      enc_int b (Oid.to_int oid);
      enc_str b (Name.Class.to_string cls);
      enc_int b (List.length slots);
      List.iter
        (fun (f, v) ->
          enc_str b (Name.Field.to_string f);
          enc_value b v)
        slots
  | Wal.Commit txn ->
      Buffer.add_char b 'T';
      enc_int b txn
  | Wal.Abort txn ->
      Buffer.add_char b 'A';
      enc_int b txn
  | Wal.Checkpoint active ->
      Buffer.add_char b 'K';
      enc_int b (List.length active);
      List.iter (enc_int b) active);
  Buffer.contents b

let hex_digits = "0123456789abcdef"

let put_hex8 b pos v =
  if pos < 0 || pos > Bytes.length b - 8 then invalid_arg "Codec.put_hex8";
  for i = 0 to 7 do
    Bytes.unsafe_set b (pos + i) hex_digits.[(v lsr ((7 - i) * 4)) land 15]
  done

let to_hex8 v =
  let b = Bytes.create 8 in
  put_hex8 b 0 v;
  Bytes.unsafe_to_string b

(* FNV-1a folded to 32 bits: torn/flipped-frame detection, not crypto —
   and an order of magnitude cheaper than a digest on the per-record
   logging path. *)
let fnv32_sub b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.fnv32_sub";
  let h = ref 0x811c9dc5 in
  (* one mask after the loop: the low 32 bits of a product depend only
     on the low 32 bits of its factors, and the wrap-around of the
     63-bit multiply does not reach them *)
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193
  done;
  !h land 0xffffffff

let frame p =
  let n = String.length p in
  let b = Bytes.create (16 + n) in
  put_hex8 b 0 n;
  put_hex8 b 8 (fnv32_sub (Bytes.unsafe_of_string p) 0 n);
  Bytes.blit_string p 0 b 16 n;
  Bytes.unsafe_to_string b

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | _ -> -1

let get_hex8 b pos =
  let rec go i acc =
    if i = 8 then acc
    else
      let d = hex_digit (Bytes.get b (pos + i)) in
      if d < 0 then -1 else go (i + 1) ((acc lsl 4) lor d)
  in
  go 0 0

let scan ?(max = max_int) b ~pos ~stop =
  if pos < 0 || stop > Bytes.length b then invalid_arg "Codec.scan";
  let avail = stop - pos in
  if avail < 8 then
    (* even a partial length must be hex, or no completion exists *)
    let rec chk i =
      if i >= avail then `Incomplete
      else if hex_digit (Bytes.get b (pos + i)) < 0 then `Corrupt "non-hex length"
      else chk (i + 1)
    in
    chk 0
  else
    let len = get_hex8 b pos in
    if len < 0 then `Corrupt "non-hex length"
    else if len > max then `Corrupt (Printf.sprintf "oversized frame (%d bytes)" len)
    else if avail < 16 + len then `Incomplete
    else if get_hex8 b (pos + 8) <> fnv32_sub b (pos + 16) len then `Corrupt "checksum mismatch"
    else `Frame (pos + 16, len)

let encode_record r = frame (payload r)

let encode rs = String.concat "" (List.map encode_record rs)

(* --- decoding --- *)

exception Torn

type cursor = { s : string; mutable pos : int }

let take c n =
  if c.pos + n > String.length c.s then raise Torn;
  let r = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  r

let dec_char c = (take c 1).[0]

let dec_int c =
  let start = c.pos in
  let rec find i =
    if i >= String.length c.s then raise Torn
    else if c.s.[i] = ',' then i
    else find (i + 1)
  in
  let stop = find start in
  c.pos <- stop + 1;
  match int_of_string_opt (String.sub c.s start (stop - start)) with
  | Some n -> n
  | None -> raise Torn

let dec_str c =
  let n = dec_int c in
  if n < 0 then raise Torn;
  take c n

let dec_value c =
  match dec_char c with
  | 'i' -> Value.Vint (dec_int c)
  | 'b' -> (
      match dec_char c with
      | '0' -> Value.Vbool false
      | '1' -> Value.Vbool true
      | _ -> raise Torn)
  | 's' -> Value.Vstring (dec_str c)
  | 'f' -> (
      let hex = take c 16 in
      match Int64.of_string_opt ("0x" ^ hex) with
      | Some bits -> Value.Vfloat (Int64.float_of_bits bits)
      | None -> raise Torn)
  | 'r' -> Value.Vref (Oid.of_int (dec_int c))
  | 'n' -> Value.Vnull
  | _ -> raise Torn

let dec_record p : Wal.record =
  let c = { s = p; pos = 0 } in
  let r =
    match dec_char c with
    | 'B' -> Wal.Begin (dec_int c)
    | 'U' ->
        let txn = dec_int c in
        let oid = Oid.of_int (dec_int c) in
        let field = Name.Field.of_string (dec_str c) in
        let before = dec_value c in
        let after = dec_value c in
        Wal.Update { txn; oid; field; before; after }
    | 'C' ->
        let txn = dec_int c in
        let oid = Oid.of_int (dec_int c) in
        let field = Name.Field.of_string (dec_str c) in
        let after = dec_value c in
        Wal.Clr { txn; oid; field; after }
    | 'I' | 'D' as tag ->
        let txn = dec_int c in
        let oid = Oid.of_int (dec_int c) in
        let cls = Name.Class.of_string (dec_str c) in
        let n = dec_int c in
        if n < 0 then raise Torn;
        let rec slots_of i acc =
          if i = n then List.rev acc
          else
            let f = Name.Field.of_string (dec_str c) in
            let v = dec_value c in
            slots_of (i + 1) ((f, v) :: acc)
        in
        let slots = slots_of 0 [] in
        if tag = 'I' then Wal.Insert { txn; oid; cls; slots }
        else Wal.Delete { txn; oid; cls; slots }
    | 'T' -> Wal.Commit (dec_int c)
    | 'A' -> Wal.Abort (dec_int c)
    | 'K' ->
        let n = dec_int c in
        if n < 0 then raise Torn;
        Wal.Checkpoint (List.init n (fun _ -> dec_int c))
    | _ -> raise Torn
  in
  if c.pos <> String.length p then raise Torn;
  r

let decode_from s =
  let b = Bytes.unsafe_of_string s in
  let rec go pos acc =
    match scan b ~pos ~stop:(String.length s) with
    | `Frame (off, len) -> (
        match dec_record (String.sub s off len) with
        | r -> go (off + len) (r :: acc)
        | exception Torn -> (List.rev acc, pos))
    | `Incomplete | `Corrupt _ -> (List.rev acc, pos)
  in
  go 0 []

let decode s = fst (decode_from s)

let decode_exact s =
  let rs, consumed = decode_from s in
  if consumed <> String.length s then
    invalid_arg "Codec.decode_exact: torn or corrupt tail";
  rs
