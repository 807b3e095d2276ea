(** Synthetic schemas, stores and transaction workloads.

    The generators build ODML ASTs directly (no text round trip) and are
    fully driven by a {!Rng.t}, so workloads replay from a seed.  Method
    bodies are shaped like the paper's examples: a few field reads and
    writes plus self-directed sends, with subclass overrides extending the
    overridden method through a prefixed call — the code-reuse pattern
    behind problems P2 and P3.

    Runtime termination is guaranteed by construction: a simple self-send
    only targets a strictly lower-numbered shared method, and a prefixed
    send strictly ascends the inheritance chain.  (Analysis-only schemas
    may additionally contain recursive cycles — see
    {!recursive_cluster_schema} — to exercise the SCC path of the TAV
    algorithm.) *)

open Tavcc_model
open Tavcc_lang

type schema_params = {
  sp_depth : int;  (** inheritance depth (1 = root only) *)
  sp_fanout : int;  (** subclasses per class *)
  sp_shared_methods : int;  (** methods defined at the root, overridable *)
  sp_own_methods : int;  (** extra methods per class *)
  sp_fields : int;  (** own integer fields per class *)
  sp_reads : int;  (** field reads per method body *)
  sp_writes : int;  (** field writes per method body *)
  sp_selfcalls : int;  (** self-sends per shared method body *)
  sp_override_prob : float;  (** chance a class overrides a shared method *)
}

val default_params : schema_params

val make_schema : Rng.t -> schema_params -> Ast.body Schema.t
(** @raise Failure if the generated schema fails validation (a generator
    bug, not an input condition) *)

val chain_schema : levels:int -> Ast.body Schema.t
(** One class, methods [m0 .. m{levels}]: [m0] writes the field, [m_j]
    (j>0) reads it and self-sends [m_{j-1}] — the reader-then-writer
    cascade behind lock escalation (problems P2/P3).  [m{levels}] is the
    entry point. *)

val pseudo_conflict_schema : unit -> Ast.body Schema.t
(** Two-class hierarchy shaped like the paper's example: the subclass adds
    fields and a method [wsub] touching only them, while [wbase] writes
    inherited fields — the m2/m4 pseudo-conflict (problem P4). *)

val recursive_cluster_schema : methods:int -> Ast.body Schema.t
(** One class whose methods all call each other (one directed cycle plus
    chords): every method's TAV equals the join of all DAVs.  Used to test
    and bench the SCC path; not meant to be executed. *)

val wide_schema : fields:int -> touched:int -> Ast.body Schema.t
(** One class with [fields] integer fields and one method [touch] writing
    the first [touched] of them (plus [probe] reading the last field) —
    the lock-call-count workload of bench E6. *)

val slice_schema : ?readers:int -> methods:int -> work:int -> unit -> Ast.body Schema.t
(** One class [grid] with [methods] integer fields [s0..] and methods
    [u0..], where [u_i] performs [work] read-modify-writes of field
    [s_i] and touches nothing else.  The slices are pairwise disjoint,
    so under the paper's TAV modes every pair of distinct methods
    commutes on the same instance, while an instance-granularity r/w
    scheme sees every [u_i] as a writer and serialises them — the
    multicore benchmark's contended workload (E16).

    [readers] (default 0) adds write-free methods [r0..]: [r_i] performs
    [work] reads of field [s_(i mod methods)].  These are
    snapshot-eligible under [mvcc-tav] and plain readers elsewhere. *)

val slice_jobs :
  Rng.t ->
  Ast.body Store.t ->
  txns:int ->
  actions_per_txn:int ->
  hot_instances:int ->
  (int * Tavcc_cc.Exec.action list) list
(** Transaction [i] calls its own slice method [u_{(i-1) mod methods}]
    [actions_per_txn] times, each on a random instance of a hot set of
    [hot_instances] grid instances.  Every transaction hammers the same
    few instances — full contention for instance locking (including
    lock-order deadlocks across the hot set), none for field-disjoint
    modes.  Only the [u*] slice methods are used.  Transaction ids start
    at 1.  This is {!mixed_slice_jobs} with [read_frac = 0.], which draws
    nothing for the read/write choice. *)

val mixed_slice_jobs :
  Rng.t ->
  Ast.body Store.t ->
  txns:int ->
  actions_per_txn:int ->
  hot_instances:int ->
  read_frac:float ->
  (int * Tavcc_cc.Exec.action list) list
(** Like {!slice_jobs} over a {!slice_schema} built with [readers > 0]:
    with probability [read_frac] a transaction performs only [r*] calls
    (all of its actions), otherwise only [u*] calls — whole transactions
    are read-only, which is what snapshot classification needs.
    @raise Invalid_argument when [read_frac > 0] but the schema has no
    reader methods *)

val populate : 'a Store.t -> per_class:int -> unit
(** Creates [per_class] instances of every class. *)

val random_jobs :
  Rng.t ->
  Ast.body Store.t ->
  txns:int ->
  actions_per_txn:int ->
  extent_prob:float ->
  hot_instances:int ->
  hot_prob:float ->
  (int * Tavcc_cc.Exec.action list) list
(** Random single-instance calls (biased towards a hot set of
    [hot_instances] with probability [hot_prob]) mixed with extent scans.
    Transaction ids start at 1. *)
