(** Slotted pages with checksummed printable-hex headers.

    A page is [size] bytes: a 44-byte header (checksum of everything
    past it, magic, page LSN, slot count, heap pointer), a slot
    directory growing down the front, and a record heap growing up from
    the back.  Slot indices are {e stable} — compaction moves record
    bytes but never renumbers slots, so an (oid → page, slot) directory
    entry stays valid for the record's lifetime on the page.

    The header reuses the chaos {!Tavcc_chaos.Codec} discipline: every
    integer is fixed-width hex, the checksum is the 8-hex
    FNV-1a/32 of bytes [8, size), so a torn page write is detected at
    {!check} and repaired from the double-write buffer at recovery.

    A page is one [Bytes.t] that IO reads into and writes from directly
    ({!image}): the buffer pool's frames each own one page for their
    lifetime, and nothing on the page-IO path copies an image. *)

open Tavcc_model

type t

val min_size : int
val header_size : int
val slot_entry : int

val create : int -> t
(** An empty page. @raise Invalid_argument below {!min_size}. *)

val clear : t -> unit
(** Empties the page in place: afterwards its image is exactly what
    {!create} returns. *)

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
    {!check}), a write sends it out (after {!stamp}). *)

val stamp : t -> unit
(** Writes the checksum of the current contents into the header, making
    {!image} the durable image. *)

val check : t -> (unit, string) result
(** Verifies length, magic, checksum and header sanity of the image in
    place. *)

val of_bytes : bytes -> (t, string) result
(** [b] as a page, without copying (the page aliases [b]), after the
    {!check}s. *)

val is_zero : bytes -> bool
(** A never-written (sparse-hole) page image; stops at the first
    non-zero byte. *)

(** Instance record payloads: oid, class and named field values, in the
    store's slot order.  Self-describing — a page or a WAL record
    replays without the schema. *)
module Rec : sig
  type t = { r_oid : int; r_cls : string; r_slots : (string * Value.t) array }

  val encode : t -> string
  val decode : string -> t option

  val splice : string -> int -> Value.t -> string option
  (** [splice payload idx v] re-encodes [payload] with slot [idx]'s
      value replaced by [v], walking (not decoding) the prefix — the
      field-write fast path.  [None] when [idx] is out of range or the
      payload does not parse. *)
end
