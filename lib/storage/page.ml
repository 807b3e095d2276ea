open Tavcc_model
module Codec = Tavcc_recovery.Codec

(* --- fixed-width hex fields ---

   The whole header is printable hex, same discipline as the chaos
   Codec frames: torn writes tear mid-digit and fail to parse, and a
   page image diffs cleanly in a hexdump.  The checksum is the page's
   own ({!checksum} below), not the frames' FNV-1a/32. *)

let hex_digits = "0123456789abcdef"

let put_hex buf pos width v =
  let v = ref v in
  for i = pos + width - 1 downto pos do
    Bytes.unsafe_set buf i (String.unsafe_get hex_digits (!v land 15));
    v := !v lsr 4
  done

(* each byte's value as a hex digit, 16 when it is not one *)
let hex_value =
  String.init 256 (fun i ->
      Char.chr
        (match Char.chr i with
        | '0' .. '9' -> i - Char.code '0'
        | 'a' .. 'f' -> i - Char.code 'a' + 10
        | 'A' .. 'F' -> i - Char.code 'A' + 10
        | _ -> 16))

(* the [width] hex digits at [pos], or -1 if the field is cut short or a
   digit is not hex *)
let get_hex buf pos width =
  if pos + width > Bytes.length buf then -1
  else begin
    let acc = ref 0 and bad = ref 0 in
    for i = pos to pos + width - 1 do
      let d = Char.code (String.unsafe_get hex_value (Char.code (Bytes.unsafe_get buf i))) in
      bad := !bad lor d;
      acc := (!acc lsl 4) lor (d land 15)
    done;
    if !bad land 16 = 0 then !acc else -1
  end

let header_size = 44
let slot_entry = 16
let min_size = 256

(* offsets *)
let o_sum = 0 (* 8: checksum of [8, size) *)
let o_magic = 8 (* 4: "TVP2" *)
let o_lsn = 12 (* 16 *)
let o_nslots = 28 (* 8 *)
let o_heap = 36 (* 8: lowest offset used by the record heap *)

let magic = "TVP2"

(* format 1 summed pages with FNV-1a/32 under this magic *)
let format1_magic = "TVPG"

(* The image and its decoded form side by side.  The header's slot count
   and heap pointer and the slot directory are parsed once, by [clear] or
   [check], and every operation after that writes the bytes and the
   decoded fields together, so reads never parse hex.  A dead slot has
   offset 0.  The per-slot arrays grow on demand: a 4 KiB page of small
   records uses a few dozen of its 253 possible slots. *)
type t = {
  buf : Bytes.t;
  mutable n : int; (* slot count *)
  mutable hp : int; (* heap pointer *)
  mutable offs : int array; (* per slot, below [n] *)
  mutable lens : int array;
  mutable live : int; (* bytes in live records *)
  mutable dead : int; (* dead slots below [n] *)
  mutable scratch : Bytes.t; (* compaction's copy of the heap, made on first use *)
}

let size t = Bytes.length t.buf
let nslots t = t.n
let dir_end t = header_size + (slot_entry * t.n)

let reset t =
  t.n <- 0;
  t.hp <- size t;
  t.live <- 0;
  t.dead <- 0

let clear t =
  let buf = t.buf in
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  Bytes.blit_string magic 0 buf o_magic 4;
  put_hex buf o_lsn 16 0;
  put_hex buf o_nslots 8 0;
  put_hex buf o_heap 8 (Bytes.length buf);
  reset t

let wrap buf =
  { buf; n = 0; hp = 0; offs = [||]; lens = [||]; live = 0; dead = 0; scratch = Bytes.empty }

let create n =
  if n < min_size then invalid_arg "Page.create: page size too small";
  let t = wrap (Bytes.create n) in
  clear t;
  t

let lsn t = max 0 (get_hex t.buf o_lsn 16)
let set_lsn t v = put_hex t.buf o_lsn 16 v

(* room for [n] slots in the decoded directory *)
let reserve t n =
  let cap = Array.length t.offs in
  if n > cap then begin
    let cap' = max n (max 8 (2 * cap)) in
    let grow a = Array.append a (Array.make (cap' - cap) 0) in
    t.offs <- grow t.offs;
    t.lens <- grow t.lens
  end

(* one more directory entry, dead until [set_slot] fills it *)
let add_slot t =
  reserve t (t.n + 1);
  t.offs.(t.n) <- 0;
  t.lens.(t.n) <- 0;
  t.dead <- t.dead + 1;
  t.n <- t.n + 1;
  put_hex t.buf o_nslots 8 t.n

let set_heap t v =
  t.hp <- v;
  put_hex t.buf o_heap 8 v

let slot t i = if t.offs.(i) > 0 then Some (t.offs.(i), t.lens.(i)) else None

let set_slot t i off len =
  if t.offs.(i) > 0 then t.live <- t.live - t.lens.(i) else t.dead <- t.dead - 1;
  if off > 0 then t.live <- t.live + len else t.dead <- t.dead + 1;
  t.offs.(i) <- off;
  t.lens.(i) <- len;
  let base = header_size + (slot_entry * i) in
  put_hex t.buf base 8 off;
  put_hex t.buf (base + 8) 8 len

let read_slot t i =
  if i < 0 || i >= t.n || t.offs.(i) = 0 then None
  else Some (Bytes.sub_string t.buf t.offs.(i) t.lens.(i))

let iter t f =
  for i = 0 to t.n - 1 do
    if t.offs.(i) > 0 then f i (Bytes.sub_string t.buf t.offs.(i) t.lens.(i))
  done

let dead_slot t =
  if t.dead = 0 then None
  else
    let rec first i = if t.offs.(i) = 0 then Some i else first (i + 1) in
    first 0

(* Packs the live records against the end of the page, the highest slot
   outermost, from a copy of the heap taken first: a record's new place
   may overlap where another still waits to be moved. *)
let compact t =
  let hp = t.hp and sz = size t in
  if Bytes.length t.scratch < sz then t.scratch <- Bytes.create sz;
  Bytes.blit t.buf hp t.scratch hp (sz - hp);
  let pos = ref sz in
  for i = t.n - 1 downto 0 do
    let off = t.offs.(i) in
    if off > 0 then begin
      let len = t.lens.(i) in
      pos := !pos - len;
      (* a zero-length record may sit below the heap; it has no bytes *)
      if len > 0 then Bytes.blit t.scratch off t.buf !pos len;
      set_slot t i !pos len
    end
  done;
  set_heap t !pos

let contiguous t = t.hp - dir_end t

let insert_capacity t =
  let extra = if t.dead > 0 then 0 else slot_entry in
  size t - dir_end t - t.live - extra

let insert t payload =
  let len = String.length payload in
  if len > insert_capacity t then None
  else begin
    let i, new_slot = match dead_slot t with Some i -> (i, false) | None -> (t.n, true) in
    (* compact before extending the directory: the new entry's 16 bytes
       must land in free space, never on a live record *)
    let need = len + if new_slot then slot_entry else 0 in
    if need > contiguous t then compact t;
    if new_slot then add_slot t;
    let off = t.hp - len in
    Bytes.blit_string payload 0 t.buf off len;
    set_slot t i off len;
    set_heap t off;
    Some i
  end

let delete t i =
  if i >= 0 && i < t.n then
    match slot t i with
    | Some (off, len) ->
        set_slot t i 0 0;
        (* reclaim eagerly when the record sat at the heap edge *)
        if off = t.hp then set_heap t (off + len)
    | None -> ()

let replace t i payload =
  if i < 0 || i >= t.n then false
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
        else if len > size t - dir_end t - (t.live - old_len) then false
        else begin
          set_slot t i 0 0;
          if off = t.hp then set_heap t (off + old_len);
          if len > contiguous t then compact t;
          let noff = t.hp - len in
          Bytes.blit_string payload 0 t.buf noff len;
          set_slot t i noff len;
          set_heap t noff;
          true
        end

(* --- checksummed images, in place --- *)

let image t = t.buf

(* --- the page checksum ---

   Four 32-bit lanes, each an FNV-style chain with a shift mix: the
   32-bit words of [8, size) go round-robin to the lanes, two 64-bit
   little-endian loads feeding one word to each lane per 16 bytes; a
   tail shorter than a word is zero-padded.  Two zero rounds then mix
   each lane's last word through, and the lanes fold by XOR.  A step
   is a bijection of the lane for a fixed word (xor, xorshift, multiply
   by an odd prime, all mod 2^32) and of the word for a fixed lane, so
   a change confined to one aligned word changes its lane's final
   value and nothing else: the sum always changes.  The lanes are
   independent chains, so they run in parallel where FNV-1a's one chain
   waits on a multiply per byte. *)

let[@inline] step h w =
  let t = h lxor w in
  let t = t lxor (t lsr 15) in
  (t * 0x01000193) land 0xffffffff

(* the word at [pos], zero-padded past the end of [b] *)
let tail_word b pos =
  let len = Bytes.length b in
  if pos + 4 <= len then Int32.to_int (Bytes.get_int32_le b pos) land 0xffffffff
  else begin
    let w = ref 0 in
    for i = len - 1 downto pos do
      w := (!w lsl 8) lor Char.code (Bytes.unsafe_get b i)
    done;
    !w
  end

let checksum b =
  let len = Bytes.length b in
  if len < 8 then invalid_arg "Page.checksum";
  let h0 = ref 0x811c9dc5 and h1 = ref 0x2f8b63a1 and h2 = ref 0x5c3e71d9 and h3 = ref 0x9a4d0e27 in
  let stop = len - ((len - 8) land 15) in
  let i = ref 8 in
  while !i < stop do
    let a = Bytes.get_int64_le b !i and c = Bytes.get_int64_le b (!i + 8) in
    h0 := step !h0 (Int64.to_int a land 0xffffffff);
    h1 := step !h1 (Int64.to_int (Int64.shift_right_logical a 32));
    h2 := step !h2 (Int64.to_int c land 0xffffffff);
    h3 := step !h3 (Int64.to_int (Int64.shift_right_logical c 32));
    i := !i + 16
  done;
  if stop < len then h0 := step !h0 (tail_word b stop);
  if stop + 4 < len then h1 := step !h1 (tail_word b (stop + 4));
  if stop + 8 < len then h2 := step !h2 (tail_word b (stop + 8));
  if stop + 12 < len then h3 := step !h3 (tail_word b (stop + 12));
  let fin h = step (step h 0) 0 in
  fin !h0 lxor fin !h1 lxor fin !h2 lxor fin !h3

let stamp t = Codec.put_hex8 t.buf o_sum (checksum t.buf)

(* The directory as the image has it, into the decoded form: every entry
   must parse, every live record must end within the page, and one of
   non-zero length must start at or above the heap (a zero-length record
   can sit below it once a neighbour at the heap edge is deleted). *)
let decode_dir t ns hp =
  let b = t.buf and sz = size t in
  reserve t ns;
  t.n <- ns;
  t.hp <- hp;
  t.live <- 0;
  t.dead <- 0;
  let rec entry i =
    if i = ns then Ok ()
    else
      let base = header_size + (slot_entry * i) in
      let off = get_hex b base 8 and len = get_hex b (base + 8) 8 in
      t.offs.(i) <- off;
      t.lens.(i) <- len;
      if off < 0 || len < 0 then Error (Printf.sprintf "slot %d unparsable" i)
      else if off = 0 then begin
        t.dead <- t.dead + 1;
        entry (i + 1)
      end
      else if len > sz - off || (len > 0 && off < hp) then
        Error (Printf.sprintf "slot %d (offset %d, length %d) outside the heap" i off len)
      else begin
        t.live <- t.live + len;
        entry (i + 1)
      end
  in
  entry 0

let check t =
  let b = t.buf in
  let r =
    if Bytes.length b < min_size then Error "short page"
    else if Bytes.sub_string b o_magic 4 <> magic then Error "bad magic"
    else if Codec.get_hex8 b o_sum <> checksum b then Error "bad checksum"
    else
      let ns = get_hex b o_nslots 8 and hp = get_hex b o_heap 8 in
      if ns >= 0 && header_size + (slot_entry * ns) <= hp && hp <= Bytes.length b then
        decode_dir t ns hp
      else Error "bad header"
  in
  (* a refused image reads as an empty page until the next good one *)
  if Result.is_error r then reset t;
  r

let of_bytes b =
  let t = wrap b in
  Result.map (fun () -> t) (check t)

let is_format1 b = Bytes.length b >= o_magic + 4 && Bytes.sub_string b o_magic 4 = format1_magic

let rec zero_from b i =
  i >= Bytes.length b || (Bytes.unsafe_get b i = '\000' && zero_from b (i + 1))

let is_zero b = zero_from b 0

(* --- instance record payloads ---

   A record is a sequence of Codec's tokens: oid, class, slot
   count, then each slot's field name and value.  Records carry field
   *names* so a log or a page replays without a schema in hand. *)

module Rec = struct
  type t = { r_oid : int; r_cls : string; r_slots : (string * Value.t) array }

  module Tok = Codec.Tok

  let encode r =
    let b = Buffer.create (32 + (16 * Array.length r.r_slots)) in
    Tok.add_int b r.r_oid;
    Tok.add_str b r.r_cls;
    Tok.add_int b (Array.length r.r_slots);
    Array.iter
      (fun (f, v) ->
        Tok.add_str b f;
        Tok.add_value b v)
      r.r_slots;
    Buffer.contents b

  (* the slot count; each slot takes at least 3 bytes ("0,n"), which
     bounds a count a damaged payload claims *)
  let slot_count w s =
    let n = Tok.int w in
    if n < 0 || n > (String.length s - Tok.pos w) / 3 then raise Tok.Malformed;
    n

  let decode s =
    let w = Tok.walker s ~pos:0 ~stop:(String.length s) in
    match
      let r_oid = Tok.int w in
      let r_cls = Tok.str w in
      let n = slot_count w s in
      let slots = Array.make n ("", Value.Vnull) in
      for i = 0 to n - 1 do
        let f = Tok.str w in
        let v = Tok.value w in
        slots.(i) <- (f, v)
      done;
      { r_oid; r_cls; r_slots = slots }
    with
    | r -> if Tok.at_end w then Some r else None
    | exception Tok.Malformed -> None

  let splice payload idx v =
    (* re-encode with slot [idx]'s value swapped for [v], walking the
       prefix without decoding it — the field-write fast path *)
    let w = Tok.walker payload ~pos:0 ~stop:(String.length payload) in
    match
      ignore (Tok.int w);
      Tok.skip_str w;
      let n = slot_count w payload in
      if idx < 0 || idx >= n then raise Tok.Malformed;
      for _ = 1 to idx do
        Tok.skip_str w;
        Tok.skip_value w
      done;
      Tok.skip_str w;
      let start = Tok.pos w in
      Tok.skip_value w;
      start
    with
    | start ->
        let stop = Tok.pos w in
        let b = Buffer.create (String.length payload + 24) in
        Buffer.add_substring b payload 0 start;
        Tok.add_value b v;
        Buffer.add_substring b payload stop (String.length payload - stop);
        Some (Buffer.contents b)
    | exception Tok.Malformed -> None
end
