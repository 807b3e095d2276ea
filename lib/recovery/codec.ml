open Tavcc_model

let hex_digits = "0123456789abcdef"

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | _ -> -1

(* The 8 lowercase hex digits at [pos] (the caller checks the bounds),
   or -1 if one is not. *)
let get_hex8_at s pos =
  let acc = ref 0 in
  for i = pos to pos + 7 do
    let d = hex_digit (String.unsafe_get s i) in
    acc := if d < 0 || !acc < 0 then -1 else (!acc lsl 4) lor d
  done;
  !acc

(* --- tokens ---

   Tokens are concatenated with no separators beyond their own
   terminators: ints are decimal with a trailing ',', strings are
   length-prefixed, floats are the fixed 16 hex digits of their IEEE
   bits.  The encoder writes digits straight into the buffer and the
   walker parses them where they lie: neither allocates per token. *)

module Tok = struct
  (* the digits of [n <= 0], most significant first: counting in the
     negatives spares [min_int] a case of its own *)
  let rec add_neg_digits b n =
    if n <= -10 then add_neg_digits b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

  let add_int b n =
    if n < 0 then begin
      Buffer.add_char b '-';
      add_neg_digits b n
    end
    else add_neg_digits b (-n);
    Buffer.add_char b ','

  let add_str b s =
    add_int b (String.length s);
    Buffer.add_string b s

  let add_value b = function
    | Value.Vint n ->
        Buffer.add_char b 'i';
        add_int b n
    | Value.Vbool v -> Buffer.add_string b (if v then "b1" else "b0")
    | Value.Vstring s ->
        Buffer.add_char b 's';
        add_str b s
    | Value.Vfloat f ->
        Buffer.add_char b 'f';
        let bits = Int64.bits_of_float f in
        for i = 15 downto 0 do
          Buffer.add_char b
            hex_digits.[Int64.to_int (Int64.shift_right_logical bits (4 * i)) land 15]
        done
    | Value.Vref oid ->
        Buffer.add_char b 'r';
        add_int b (Oid.to_int oid)
    | Value.Vnull -> Buffer.add_char b 'n'

  exception Malformed

  type walker = { s : string; mutable pos : int; stop : int }

  let walker s ~pos ~stop =
    if pos < 0 || pos > stop || stop > String.length s then invalid_arg "Codec.Tok.walker";
    { s; pos; stop }

  let pos w = w.pos
  let at_end w = w.pos = w.stop

  let char w =
    if w.pos >= w.stop then raise Malformed;
    let c = String.unsafe_get w.s w.pos in
    w.pos <- w.pos + 1;
    c

  let min_div10 = min_int / 10
  let min_last = -(min_int mod 10)

  (* the digits from [i] up to the next ',', where it leaves [w]: the
     value accumulates in the negatives, so [min_int] parses and an
     overflow is caught before it wraps *)
  let rec neg_digits w i acc =
    if i >= w.stop then raise Malformed;
    match String.unsafe_get w.s i with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc <= min_div10 && (acc < min_div10 || d > min_last) then raise Malformed;
        neg_digits w (i + 1) ((acc * 10) - d)
    | ',' ->
        w.pos <- i;
        acc
    | _ -> raise Malformed

  (* Exactly what [add_int] writes: an optional '-', then "0" or digits
     with no leading zero, then ','. *)
  let int w =
    let neg = w.pos < w.stop && String.unsafe_get w.s w.pos = '-' in
    let first = if neg then w.pos + 1 else w.pos in
    let acc = neg_digits w first 0 in
    let comma = w.pos in
    if comma = first || (comma > first + 1 && String.unsafe_get w.s first = '0') then
      raise Malformed;
    w.pos <- comma + 1;
    if neg then if acc = 0 then raise Malformed else acc
    else if acc = min_int then raise Malformed
    else -acc

  let str_len w =
    let n = int w in
    if n < 0 || n > w.stop - w.pos then raise Malformed;
    n

  let str w =
    let n = str_len w in
    let r = String.sub w.s w.pos n in
    w.pos <- w.pos + n;
    r

  let skip_str w = w.pos <- w.pos + str_len w

  (* 8 of a float's 16 hex digits *)
  let hex32 w =
    if w.stop - w.pos < 8 then raise Malformed;
    let v = get_hex8_at w.s w.pos in
    if v < 0 then raise Malformed;
    w.pos <- w.pos + 8;
    v

  let bool w = match char w with '0' -> false | '1' -> true | _ -> raise Malformed

  let value w =
    match char w with
    | 'i' -> Value.Vint (int w)
    | 'b' -> Value.Vbool (bool w)
    | 's' -> Value.Vstring (str w)
    | 'f' ->
        let hi = hex32 w in
        let lo = hex32 w in
        let bits = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo) in
        Value.Vfloat (Int64.float_of_bits bits)
    | 'r' -> Value.Vref (Oid.of_int (int w))
    | 'n' -> Value.Vnull
    | _ -> raise Malformed

  let skip_value w =
    match char w with
    | 'i' | 'r' -> ignore (int w)
    | 'b' -> ignore (bool w)
    | 's' -> skip_str w
    | 'f' ->
        ignore (hex32 w);
        ignore (hex32 w)
    | 'n' -> ()
    | _ -> raise Malformed
end

(* --- WAL record payloads ---

   Record tags: B(egin) U(pdate) C(lr) I(nsert) D(elete) T(commit)
   A(bort) K(checkpoint). *)

let add_slots b slots =
  Tok.add_int b (List.length slots);
  List.iter
    (fun (f, v) ->
      Tok.add_str b (Name.Field.to_string f);
      Tok.add_value b v)
    slots

let add_payload b (r : Wal.record) =
  match r with
  | Wal.Begin txn ->
      Buffer.add_char b 'B';
      Tok.add_int b txn
  | Wal.Update { txn; oid; field; before; after } ->
      Buffer.add_char b 'U';
      Tok.add_int b txn;
      Tok.add_int b (Oid.to_int oid);
      Tok.add_str b (Name.Field.to_string field);
      Tok.add_value b before;
      Tok.add_value b after
  | Wal.Clr { txn; oid; field; after } ->
      Buffer.add_char b 'C';
      Tok.add_int b txn;
      Tok.add_int b (Oid.to_int oid);
      Tok.add_str b (Name.Field.to_string field);
      Tok.add_value b after
  | Wal.Insert { txn; oid; cls; slots } ->
      Buffer.add_char b 'I';
      Tok.add_int b txn;
      Tok.add_int b (Oid.to_int oid);
      Tok.add_str b (Name.Class.to_string cls);
      add_slots b slots
  | Wal.Delete { txn; oid; cls; slots } ->
      Buffer.add_char b 'D';
      Tok.add_int b txn;
      Tok.add_int b (Oid.to_int oid);
      Tok.add_str b (Name.Class.to_string cls);
      add_slots b slots
  | Wal.Commit txn ->
      Buffer.add_char b 'T';
      Tok.add_int b txn
  | Wal.Abort txn ->
      Buffer.add_char b 'A';
      Tok.add_int b txn
  | Wal.Checkpoint active ->
      Buffer.add_char b 'K';
      Tok.add_int b (List.length active);
      List.iter (Tok.add_int b) active

let put_hex8 b pos v =
  if pos < 0 || pos > Bytes.length b - 8 then invalid_arg "Codec.put_hex8";
  for i = 0 to 7 do
    Bytes.unsafe_set b (pos + i) hex_digits.[(v lsr ((7 - i) * 4)) land 15]
  done

let to_hex8 v =
  let b = Bytes.create 8 in
  put_hex8 b 0 v;
  Bytes.unsafe_to_string b

(* FNV-1a/32: torn/flipped-frame detection, not crypto — and an order
   of magnitude cheaper than a digest on the per-record logging path.
   The hash lives in an [Int32] that the compiler keeps unboxed in a
   register: no allocation, and a shorter multiply chain than a tagged
   int's. *)
let fnv32_sub b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.fnv32_sub";
  let h = ref 0x811c9dc5l in
  for i = pos to pos + len - 1 do
    h := Int32.mul (Int32.logxor !h (Int32.of_int (Char.code (Bytes.unsafe_get b i)))) 0x01000193l
  done;
  Int32.to_int !h land 0xffffffff

(* a frame around the [n] payload bytes [fill] writes at offset 16 *)
let frame_with n fill =
  let b = Bytes.create (16 + n) in
  fill b;
  put_hex8 b 0 n;
  put_hex8 b 8 (fnv32_sub b 16 n);
  Bytes.unsafe_to_string b

let frame p =
  let n = String.length p in
  frame_with n (fun b -> Bytes.blit_string p 0 b 16 n)

let get_hex8 b pos =
  if pos < 0 || pos > Bytes.length b - 8 then invalid_arg "Codec.get_hex8";
  get_hex8_at (Bytes.unsafe_to_string b) pos

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

let encode_record r =
  let pl = Buffer.create 48 in
  add_payload pl r;
  let n = Buffer.length pl in
  frame_with n (fun b -> Buffer.blit pl 0 b 16 n)

let encode rs = String.concat "" (List.map encode_record rs)

(* --- decoding --- *)

let dec_slots w =
  let n = Tok.int w in
  if n < 0 then raise Tok.Malformed;
  let rec slots_of i acc =
    if i = n then List.rev acc
    else
      let f = Name.Field.of_string (Tok.str w) in
      let v = Tok.value w in
      slots_of (i + 1) ((f, v) :: acc)
  in
  slots_of 0 []

(* the payload [s.[pos, stop)], read where it lies in the log image *)
let dec_record s ~pos ~stop : Wal.record =
  let w = Tok.walker s ~pos ~stop in
  let r =
    match Tok.char w with
    | 'B' -> Wal.Begin (Tok.int w)
    | 'U' ->
        let txn = Tok.int w in
        let oid = Oid.of_int (Tok.int w) in
        let field = Name.Field.of_string (Tok.str w) in
        let before = Tok.value w in
        let after = Tok.value w in
        Wal.Update { txn; oid; field; before; after }
    | 'C' ->
        let txn = Tok.int w in
        let oid = Oid.of_int (Tok.int w) in
        let field = Name.Field.of_string (Tok.str w) in
        let after = Tok.value w in
        Wal.Clr { txn; oid; field; after }
    | ('I' | 'D') as tag ->
        let txn = Tok.int w in
        let oid = Oid.of_int (Tok.int w) in
        let cls = Name.Class.of_string (Tok.str w) in
        let slots = dec_slots w in
        if tag = 'I' then Wal.Insert { txn; oid; cls; slots }
        else Wal.Delete { txn; oid; cls; slots }
    | 'T' -> Wal.Commit (Tok.int w)
    | 'A' -> Wal.Abort (Tok.int w)
    | 'K' ->
        let n = Tok.int w in
        if n < 0 then raise Tok.Malformed;
        Wal.Checkpoint (List.init n (fun _ -> Tok.int w))
    | _ -> raise Tok.Malformed
  in
  if not (Tok.at_end w) then raise Tok.Malformed;
  r

let decode_from s =
  let b = Bytes.unsafe_of_string s in
  let rec go pos acc =
    match scan b ~pos ~stop:(String.length s) with
    | `Frame (off, len) -> (
        match dec_record s ~pos:off ~stop:(off + len) with
        | r -> go (off + len) (r :: acc)
        | exception Tok.Malformed -> (List.rev acc, pos))
    | `Incomplete | `Corrupt _ -> (List.rev acc, pos)
  in
  go 0 []

let decode s = fst (decode_from s)

let decode_exact s =
  let rs, consumed = decode_from s in
  if consumed <> String.length s then
    invalid_arg "Codec.decode_exact: torn or corrupt tail";
  rs
