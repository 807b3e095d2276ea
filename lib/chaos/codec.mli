(** Byte-level framing of WAL records, for torn-tail simulation.

    {!Tavcc_recovery.Wal} keeps records as values; real logs are byte
    streams, and real crashes cut them at arbitrary byte offsets — most
    interestingly {e inside} the last record (a torn write).  This codec
    gives the in-memory log a faithful byte representation: each record
    is framed as

    {v <len:8 hex chars><checksum:8 hex chars><payload:len bytes> v}

    where the checksum covers the payload.  {!decode} scans frames and
    stops at the first incomplete or corrupt one, returning the longest
    valid record prefix — exactly the recovery-time behaviour of a real
    log scanner finding a torn tail.  The chaos harness encodes a flushed
    image, cuts it at a byte offset, decodes, and feeds the surviving
    prefix to {!Tavcc_recovery.Restart.recover}. *)

open Tavcc_model

(** {1 The frame envelope}

    One format for the framed byte streams in the tree: WAL records
    here, wire messages ({!Tavcc_net.Wire}) and the page store's
    double-write frame are all frames, and the page store's headers
    use the same hex fields.  {!fnv32_sub} is the frame checksum only:
    page images carry their own word-at-a-time checksum
    ([Tavcc_storage.Page.checksum]). *)

val frame : string -> string
(** [<8 hex: length><8 hex: FNV-1a/32 of payload><payload>]. *)

val to_hex8 : int -> string
(** The low 32 bits as 8 lowercase hex digits. *)

val put_hex8 : bytes -> int -> int -> unit
(** [put_hex8 b pos v] writes {!to_hex8}[ v] into [b] at [pos], in
    place.  @raise Invalid_argument if the 8 bytes are not inside [b] *)

val get_hex8 : bytes -> int -> int
(** [get_hex8 b pos]: the 8-hex field at [pos], read in place, or [-1]
    if a digit is not lowercase hex — so it equals [v] exactly when the
    field is {!to_hex8}[ v].
    @raise Invalid_argument if the 8 bytes are not inside [b] *)

val fnv32_sub : bytes -> int -> int -> int
(** [fnv32_sub b pos len]: FNV-1a/32 of [len] bytes of [b] from [pos],
    read in place — what lets a reader check a frame without copying it.
    The hash is folded byte by byte in [Int32] arithmetic (offset basis
    [0x811c9dc5], prime [0x01000193]), which the compiler keeps unboxed:
    the call allocates nothing, and the result is the unsigned 32-bit
    value.  @raise Invalid_argument if the range is not inside [b] *)

val scan :
  ?max:int ->
  bytes ->
  pos:int ->
  stop:int ->
  [ `Frame of int * int | `Incomplete | `Corrupt of string ]
(** The one frame scanner.  [scan b ~pos ~stop] inspects the bytes of
    [b] from [pos] up to [stop] in place, copying nothing:
    [`Frame (off, len)] locates the payload of a whole valid frame (the
    next frame starts at [off + len]); [`Incomplete] means more bytes
    may complete it, and every strict prefix of a valid frame is
    [`Incomplete]; [`Corrupt] means no continuation can (a non-hex
    length, one above [max], or a checksum mismatch).
    @raise Invalid_argument if [pos < 0] or [stop] is past the end of [b] *)

(** {1 Tokens}

    The one token codec: WAL payloads here and the page store's record
    payloads ([Tavcc_storage.Page.Rec]) are sequences of these tokens,
    with no separators beyond their own terminators.

    - an int is its decimal digits (a leading ['-'] if negative) and a
      [','], e.g. [-42,];
    - a string is its length as an int, then its bytes: [3,a,b];
    - a value is a tag and a body: [i] int, [b0]/[b1], [s] string, [f]
      and the 16 lowercase hex digits of the float's IEEE bits, [r] an
      oid as an int, [n] null.

    The encoder writes digits straight into the buffer; the walker finds
    token boundaries and parses ints where they lie.  Neither allocates
    per token: only {!Tok.str} and {!Tok.value} allocate, for what they
    return. *)

module Tok : sig
  val add_int : Buffer.t -> int -> unit
  val add_str : Buffer.t -> string -> unit
  val add_value : Buffer.t -> Value.t -> unit

  exception Malformed
  (** Raised by the walker at the first byte that is not the token it
      expects: a truncation, a non-digit, an overflow, or a form the
      encoder never writes (a leading zero, ["-0"], uppercase hex). *)

  type walker
  (** A position in [s.[pos, stop)]; each read advances it past one
      token. *)

  val walker : string -> pos:int -> stop:int -> walker
  (** @raise Invalid_argument unless [0 <= pos <= stop <= length s] *)

  val pos : walker -> int
  val at_end : walker -> bool
  val char : walker -> char

  val int : walker -> int
  (** Exactly the forms {!add_int} writes, [min_int] and [max_int]
      included. *)

  val str : walker -> string
  val skip_str : walker -> unit
  val value : walker -> Value.t
  val skip_value : walker -> unit
end

(** {1 WAL records} *)

val encode_record : Tavcc_recovery.Wal.record -> string
(** One framed record. *)

val encode : Tavcc_recovery.Wal.record list -> string
(** The concatenation of the framed records, oldest first. *)

val decode : string -> Tavcc_recovery.Wal.record list
(** The longest prefix of well-formed frames: scanning stops (without
    raising) at a truncated header, a truncated payload, a checksum
    mismatch, or a payload that does not parse back to a record. *)

val decode_from : string -> Tavcc_recovery.Wal.record list * int
(** {!decode}, with the byte offset where that valid prefix ends: the
    length a log file with a torn tail is cut back to. *)

val decode_exact : string -> Tavcc_recovery.Wal.record list
(** Like {!decode} but refuses torn input.
    @raise Invalid_argument unless the whole string is consumed *)
