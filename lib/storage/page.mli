(** Slotted pages with checksummed printable-hex headers.

    A page is [size] bytes: a 44-byte header (checksum of everything
    past it, magic, page LSN, slot count, heap pointer), a slot
    directory growing down the front, and a record heap growing up from
    the back.  Slot indices are {e stable} — compaction moves record
    bytes but never renumbers slots, so an (oid → page, slot) directory
    entry stays valid for the record's lifetime on the page.

    The header reuses the {!Tavcc_recovery.Codec} discipline: every
    integer is fixed-width hex.  Bytes [0, 8) are the 8-hex {!checksum}
    of bytes [8, size), and bytes [8, 12) the magic ["TVP2"] of format 2,
    so a torn page write is detected at {!check} and repaired from the
    double-write slot at recovery.  Each slot entry is two 8-hex fields,
    offset then length; offset 0 marks a dead slot.

    A page is one [Bytes.t] that IO reads into and writes from directly
    ({!image}): the buffer pool's frames each own one page for their
    lifetime, and nothing on the page-IO path copies an image.

    Beside the bytes, a page keeps its slot count, heap pointer and slot
    directory decoded (each slot's offset and length, the live bytes,
    the number of dead slots); the LSN is read from the image.  {!clear}
    and {!check} derive that form from the image, so a page is decoded
    once per load; every operation after that updates the bytes and the
    decoded form together and parses no hex. *)

open Tavcc_model

type t

val min_size : int
val header_size : int
val slot_entry : int

val create : int -> t
(** An empty page. @raise Invalid_argument below {!min_size}. *)

val clear : t -> unit
(** Empties the page in place: afterwards its image is exactly what
    {!create} returns, and so is its decoded form. *)

val size : t -> int

val lsn : t -> int
(** The page LSN: the WAL position the page's latest change is covered
    by.  The buffer pool refuses to write a page back before the WAL is
    stable past it (WAL-before-data). *)

val set_lsn : t -> int -> unit
val nslots : t -> int

val insert : t -> string -> int option
(** Places a record payload, compacting if fragmented; [None] when the
    page cannot hold it even compacted.  Returns the (stable) slot. *)

val read_slot : t -> int -> string option
val delete : t -> int -> unit

val replace : t -> int -> string -> bool
(** In-place update of a live slot, relocating within the page as
    needed; [false] when the new payload cannot fit (the caller must
    migrate the record to another page) — the slot is untouched then. *)

val iter : t -> (int -> string -> unit) -> unit
val insert_capacity : t -> int
(** Largest payload {!insert} would accept right now. *)

val compact : t -> unit

val image : t -> bytes
(** The page's own buffer, not a copy: a read fills it in place (then
    {!check}), a write sends it out (after {!stamp}).  Bytes written into
    it from outside — by a read or a test — take effect at the next
    {!check} or {!clear}: until then the page answers from the form it
    decoded last. *)

val checksum : bytes -> int
(** The page checksum of bytes [8, length) of an image of any length
    >= 8 (page sizes need not be a multiple of 16): an unsigned 32-bit
    value, the same on every host, computed word at a time in place
    without allocating.  Four 32-bit FNV-style lanes with a shift mix
    take the little-endian 32-bit words round-robin (a short tail word
    zero-padded), and fold by XOR.

    Guarantee: a change confined to one 32-bit word at an offset that
    is a multiple of 4 (the short tail word included) always changes
    the checksum, whatever its bits.  Other damage (swapped words, a
    zeroed or torn sector) is caught with the odds of a 32-bit hash.
    The WAL and wire frames keep {!Tavcc_recovery.Codec.fnv32_sub}.
    @raise Invalid_argument on an image shorter than 8 bytes *)

val stamp : t -> unit
(** Writes the checksum of the current contents into the header, making
    {!image} the durable image. *)

val check : t -> (unit, string) result
(** Verifies the image in place and decodes it: length, magic,
    checksum, a slot count and heap pointer that leave the directory
    below the heap, and every slot entry.  An entry must parse; a live
    record must end within the page, and one of non-zero length must
    start at or above the heap pointer (a zero-length record may sit
    below it once its neighbour at the heap edge is deleted).  The error
    names the first bad slot.  After an [Error] the page reads as empty
    until the next successful [check] or {!clear}. *)

val of_bytes : bytes -> (t, string) result
(** [b] as a page, without copying (the page aliases [b]), after the
    {!check}s. *)

val is_format1 : bytes -> bool
(** The image carries the magic of format 1, whose pages were summed
    with FNV-1a/32.  A store refuses such a page rather than read or
    repair it: there is no conversion between formats. *)

val is_zero : bytes -> bool
(** A never-written (sparse-hole) page image; stops at the first
    non-zero byte. *)

(** Instance record payloads: oid, class and named field values, in the
    store's slot order, as tokens of {!Tavcc_recovery.Codec.Tok} — the
    token codec of WAL records and wire messages.  Self-describing: a
    page or a WAL record replays without the schema. *)
module Rec : sig
  type t = { r_oid : int; r_cls : string; r_slots : (string * Value.t) array }

  val encode : t -> string
  val decode : string -> t option

  val splice : string -> int -> Value.t -> string option
  (** [splice payload idx v] re-encodes [payload] with slot [idx]'s
      value replaced by [v], walking (not decoding) the prefix — the
      field-write fast path.  For a payload that decodes, it equals
      [encode] of [decode payload] with slot [idx] set to [v].  [None]
      when [idx] is out of range or the payload's tokens up to that slot
      do not parse. *)
end
