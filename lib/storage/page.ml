open Tavcc_model
module Codec = Tavcc_chaos.Codec

(* --- fixed-width hex fields ---

   The whole header is printable hex, same discipline as the chaos
   Codec frames: torn writes tear mid-digit and fail to parse, and a
   page image diffs cleanly in a hexdump.  The checksum is the Codec's
   FNV-1a/32. *)

let hex_digits = "0123456789abcdef"

let put_hex buf pos width v =
  let rec go i v =
    if i >= 0 then begin
      Bytes.unsafe_set buf (pos + i) hex_digits.[v land 15];
      go (i - 1) (v lsr 4)
    end
  in
  go (width - 1) v

let get_hex buf pos width =
  if pos + width > Bytes.length buf then None
  else
    let rec go i acc =
      if i = width then Some acc
      else
        let d =
          match Bytes.unsafe_get buf (pos + i) with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
          | _ -> -1
        in
        if d < 0 then None else go (i + 1) ((acc lsl 4) lor d)
    in
    go 0 0

let header_size = 44
let slot_entry = 16
let min_size = 256

(* offsets *)
let o_sum = 0 (* 8: checksum of [8, size) *)
let o_magic = 8 (* 4: "TVPG" *)
let o_lsn = 12 (* 16 *)
let o_nslots = 28 (* 8 *)
let o_heap = 36 (* 8: lowest offset used by the record heap *)

let magic = "TVPG"

type t = { buf : Bytes.t }

let size t = Bytes.length t.buf

let clear t =
  let buf = t.buf in
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  Bytes.blit_string magic 0 buf o_magic 4;
  put_hex buf o_lsn 16 0;
  put_hex buf o_nslots 8 0;
  put_hex buf o_heap 8 (Bytes.length buf)

let create n =
  if n < min_size then invalid_arg "Page.create: page size too small";
  let t = { buf = Bytes.create n } in
  clear t;
  t

let lsn t = match get_hex t.buf o_lsn 16 with Some v -> v | None -> 0
let set_lsn t v = put_hex t.buf o_lsn 16 v
let nslots t = match get_hex t.buf o_nslots 8 with Some v -> v | None -> 0
let heap t = match get_hex t.buf o_heap 8 with Some v -> v | None -> size t
let set_nslots t v = put_hex t.buf o_nslots 8 v
let set_heap t v = put_hex t.buf o_heap 8 v
let dir_end t = header_size + (slot_entry * nslots t)

let slot t i =
  let base = header_size + (slot_entry * i) in
  match (get_hex t.buf base 8, get_hex t.buf (base + 8) 8) with
  | Some off, Some len when off > 0 -> Some (off, len)
  | _ -> None

let set_slot t i off len =
  let base = header_size + (slot_entry * i) in
  put_hex t.buf base 8 off;
  put_hex t.buf (base + 8) 8 len

let read_slot t i = if i >= nslots t then None else
    match slot t i with
    | Some (off, len) -> Some (Bytes.sub_string t.buf off len)
    | None -> None

let iter t f =
  for i = 0 to nslots t - 1 do
    match slot t i with
    | Some (off, len) -> f i (Bytes.sub_string t.buf off len)
    | None -> ()
  done

let live_bytes t =
  let n = ref 0 in
  for i = 0 to nslots t - 1 do
    match slot t i with Some (_, len) -> n := !n + len | None -> ()
  done;
  !n

let dead_slot t =
  let found = ref None in
  (try
     for i = 0 to nslots t - 1 do
       if slot t i = None then begin
         found := Some i;
         raise Exit
       end
     done
   with Exit -> ());
  !found

let compact t =
  let live = ref [] in
  iter t (fun i payload -> live := (i, payload) :: !live);
  let pos = ref (size t) in
  (* Slot indices are stable rids — only the heap moves.  Packing the
     newest-collected (highest offset is irrelevant) records back from
     the end; the order does not matter as long as they do not overlap,
     which packing guarantees. *)
  List.iter
    (fun (i, payload) ->
      let len = String.length payload in
      pos := !pos - len;
      Bytes.blit_string payload 0 t.buf !pos len;
      set_slot t i !pos len)
    !live;
  set_heap t !pos

let contiguous t = heap t - dir_end t

let insert_capacity t =
  let extra = match dead_slot t with Some _ -> 0 | None -> slot_entry in
  size t - dir_end t - live_bytes t - extra

let insert t payload =
  let len = String.length payload in
  if len > insert_capacity t then None
  else begin
    let i, new_slot = match dead_slot t with Some i -> (i, false) | None -> (nslots t, true) in
    (* compact before extending the directory: the new entry's 16 bytes
       must land in free space, never on a live record *)
    let need = len + if new_slot then slot_entry else 0 in
    if need > contiguous t then compact t;
    if new_slot then set_nslots t (nslots t + 1);
    let off = heap t - len in
    Bytes.blit_string payload 0 t.buf off len;
    set_slot t i off len;
    set_heap t off;
    Some i
  end

let delete t i =
  if i < nslots t then
    match slot t i with
    | Some (off, len) ->
        set_slot t i 0 0;
        (* reclaim eagerly when the record sat at the heap edge *)
        if off = heap t then set_heap t (off + len)
    | None -> ()

let replace t i payload =
  if i >= nslots t then false
  else
    match slot t i with
    | None -> false
    | Some (off, old_len) ->
        let len = String.length payload in
        if len <= old_len then begin
          (* overwrite in place: no heap consumed, no compaction.  A
             shrink leaves [off+len, off+old_len) as interior garbage,
             which [compact] reclaims like any other dead bytes. *)
          Bytes.blit_string payload 0 t.buf off len;
          if len < old_len then set_slot t i off len;
          true
        end
        else if len > size t - dir_end t - (live_bytes t - old_len) then false
        else begin
          set_slot t i 0 0;
          if off = heap t then set_heap t (off + old_len);
          if len > contiguous t then compact t;
          let noff = heap t - len in
          Bytes.blit_string payload 0 t.buf noff len;
          set_slot t i noff len;
          set_heap t noff;
          true
        end

(* --- checksummed images, in place --- *)

let image t = t.buf

let checksum t = Codec.fnv32_sub t.buf 8 (size t - 8)

let stamp t = Codec.put_hex8 t.buf o_sum (checksum t)

let check t =
  let b = t.buf in
  if Bytes.length b < min_size then Error "short page"
  else if Bytes.sub_string b o_magic 4 <> magic then Error "bad magic"
  else if Codec.get_hex8 b o_sum <> checksum t then Error "bad checksum"
  else
    match (get_hex b o_nslots 8, get_hex b o_heap 8) with
    | Some ns, Some hp
      when ns >= 0
           && header_size + (slot_entry * ns) <= hp
           && hp <= Bytes.length b ->
        Ok ()
    | _ -> Error "bad header"

let of_bytes b =
  let t = { buf = b } in
  Result.map (fun () -> t) (check t)

let rec zero_from b i =
  i >= Bytes.length b || (Bytes.unsafe_get b i = '\000' && zero_from b (i + 1))

let is_zero b = zero_from b 0

(* --- instance record payloads ---

   Same token discipline as the chaos Codec: ints are decimal with a
   trailing ',', strings length-prefixed, floats the 16 hex digits of
   their IEEE bits.  Records carry field *names* so a log or a page
   replays without a schema in hand. *)

module Rec = struct
  type t = { r_oid : int; r_cls : string; r_slots : (string * Value.t) array }

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

  let encode r =
    let b = Buffer.create 64 in
    enc_int b r.r_oid;
    enc_str b r.r_cls;
    enc_int b (Array.length r.r_slots);
    Array.iter
      (fun (f, v) ->
        enc_str b f;
        enc_value b v)
      r.r_slots;
    Buffer.contents b

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

  let decode s =
    let c = { s; pos = 0 } in
    match
      let r_oid = dec_int c in
      let r_cls = dec_str c in
      let n = dec_int c in
      if n < 0 then raise Torn;
      let slots = Array.make n ("", Value.Vnull) in
      for i = 0 to n - 1 do
        let f = dec_str c in
        let v = dec_value c in
        slots.(i) <- (f, v)
      done;
      { r_oid; r_cls; r_slots = slots }
    with
    | r -> if c.pos = String.length s then Some r else None
    | exception Torn -> None

  let splice payload idx v =
    (* re-encode with slot [idx]'s value swapped for [v], without
       decoding the rest — the field-write fast path *)
    let c = { s = payload; pos = 0 } in
    match
      let _ = dec_int c in
      let _ = dec_str c in
      let n = dec_int c in
      if idx < 0 || idx >= n then raise Torn;
      for _ = 1 to idx do
        let _ = dec_str c in
        ignore (dec_value c)
      done;
      let _ = dec_str c in
      let start = c.pos in
      ignore (dec_value c);
      let stop = c.pos in
      let b = Buffer.create (String.length payload + 16) in
      Buffer.add_substring b payload 0 start;
      enc_value b v;
      Buffer.add_substring b payload stop (String.length payload - stop);
      Buffer.contents b
    with
    | p -> Some p
    | exception Torn -> None
end
