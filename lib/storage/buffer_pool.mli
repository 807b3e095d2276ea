(** Clock (second-chance) buffer pool over {!Page}s.

    Not thread-safe on its own — the storage engine serialises access
    under its mutex; tests that hammer it from two domains must wrap it
    the same way.  Invariants (all raising [Invalid_argument] /
    [Failure] on violation, and tested in [test_storage]):

    - the pin ledger never goes negative;
    - a dirty frame is never evicted without the [write_back] callback
      completing first (which is where the engine enforces
      WAL-before-data);
    - the clock hand makes progress: at most two sweeps per eviction,
      then [Failure "Buffer_pool: all frames pinned"]. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable write_backs : int;
}

type t

val create :
  pages:int ->
  page_size:int ->
  load:(int -> Page.t -> unit) ->
  write_back:(int -> Page.t -> unit) ->
  t
(** Allocates every frame's page up front; the pool allocates no image
    after this.  On a miss, [load pid page] fills the victim frame's own
    [page] in place with page [pid] (after any [write_back] of the
    frame's previous page).  A [load] that raises leaves the frame
    empty, and the exception reaches the caller of {!get}.
    @raise Invalid_argument when [pages < 2] (relocation pins two). *)

val get : t -> int -> Page.t
(** Pins the page (loading and possibly evicting first).  Balance every
    [get] with exactly one {!unpin}. *)

val unpin : t -> int -> dirty:bool -> unit
val mark_dirty : t -> int -> unit

val flush_all : t -> unit
(** Writes every dirty resident page back (the checkpoint sweep). *)

val stats : t -> stats
val capacity : t -> int
val pinned : t -> int
(** Outstanding pins across all frames. *)

val dirty_count : t -> int

val drop_all : t -> unit
(** Empties the pool without writing anything — crash simulation. *)
