(** Execution of physical plans.

    {ul
    {- {!Interpreted} is the original Volcano path — one canonical tuple
       per [next ()], references resolved by name on every row.  It is
       the executable specification the batch executor is
       property-tested against.}
    {- The batch executor ({!run}) first {!compile}s the plan —
       resolving every reference, join key and projection to an integer
       slot against per-operator {!Relation.Layout.t}s — then evaluates
       blocks of rows ([Value.t array array]) with tight array kernels:
       no assoc lists and no name lookups inside the per-row loops.
       Each operator is one kernel mapping a block of input rows to its
       output rows; breakers (join build sides, diff's exclusion set,
       dedup) add a build step.  Two drivers run the same kernels: the
       serial driver ({!open_compiled}) pulls blocks of at most
       {!block_size} rows through them, the parallel driver
       ({!eval_parallel}) pushes {!morsel_size}-row morsels.}}

    Per-operator memo tables cache method invocations and property
    accesses keyed by receiver and argument {e values} in both paths
    (one table per worker in the batch executor): safe because optimized
    queries are side-effect free, and exactly what makes
    tuple-independent operator chains (a class-method call with constant
    arguments and the accesses hanging off it) cost one evaluation per
    execution instead of one per tuple. *)

open Soqm_vml
open Soqm_algebra

exception Error of string

type ctx = {
  store : Object_store.t;
  probe_index : cls:string -> prop:string -> Value.t -> Oid.t list option;
      (** probe a value index if one exists on [cls.prop]; implementations
          charge the index-probe counter themselves *)
  probe_range :
    cls:string ->
    prop:string ->
    lo:Soqm_storage.Sorted_index.bound ->
    hi:Soqm_storage.Sorted_index.bound ->
    Oid.t list option;
      (** probe an ordered index if one exists on [cls.prop] *)
  scan_cost : cls:string -> (int * int) option;
      (** drive the class extent's traffic through an attached paged disk
          store ([Soqm_disk]), returning [(pages touched, bytes decoded)]
          — whole pages for a row-slotted class, chunk metadata for a
          columnar one — or [None] when the database is purely
          in-memory.  Full scans call this so disk-backed databases
          charge real buffer-pool traffic (and the [pages=] / [bytes=]
          columns of [explain --analyze]). *)
}

val basic_ctx : Object_store.t -> ctx
(** A context with no indexes (index and range scans fail to resolve). *)

type iter = {
  next : unit -> Relation.tuple option;
  close : unit -> unit;
}

(** The tuple-at-a-time reference executor. *)
module Interpreted : sig
  val open_plan : ctx -> Plan.t -> iter
  (** Open the plan's root iterator.  @raise Error on dynamic failures. *)

  val run : ctx -> Plan.t -> Relation.t
  (** Exhaust the plan and canonicalize the result into a relation. *)
end

(** {1 Batch execution} *)

val block_size : int
(** Maximum rows per emitted block (128) — sized so a block's backing
    array stays within the minor-heap allocation limit
    ([Max_young_wosize]); see DESIGN.md §9. *)

type biter = {
  next_block : unit -> Relation.Row.t array option;
      (** at most {!block_size} rows, laid out per the operator's
          compiled layout; rows may be shared with input blocks *)
  close_blocks : unit -> unit;
}

type node_stats = {
  node_rows : int array;
  node_blocks : int array;
  node_morsels : int array;
      (** morsels that passed through the operator's kernel under the
          parallel driver, plus the build-side morsels a hash join or
          diff built its tables from (0 under serial execution) *)
  node_partitions : int array;
      (** build-side partitions used by the parallel hash join / diff
          kernels (0 under serial execution, for non-hashing operators
          and for a diff whose exclusion set is empty; 1 when a build
          side within one morsel collapsed to a single shared table) *)
  node_pages : int array;
      (** disk pages touched by full scans of this node ([ctx.scan_cost]);
          0 for in-memory databases *)
  node_bytes : int array;
      (** bytes the storage layer decoded for full scans of this node —
          whole pages for row-slotted classes, chunk metadata for
          columnar ones; 0 for in-memory databases *)
}
(** Per-operator actuals, indexed by [Plan.compiled] node id — the
    [explain --analyze] sink. *)

val make_stats : Plan.compiled -> node_stats

val compile : ?fuse:bool -> ctx -> Plan.t -> Plan.compiled
(** {!Plan.compile} (chain fusion on by default; [~fuse:false] keeps
    the one-operator-per-node tree), with compile failures charged to
    the slot-miss counter and re-raised as {!Error} (same messages the
    interpreted executor raises at run time). *)

val open_compiled : ?stats:node_stats -> ctx -> Plan.compiled -> biter
(** The serial driver: open the root block iterator.  Every emitted
    block charges the block counter; with [stats] it also accumulates
    per-node actual rows/blocks.  Joins, diff and nested loops drain
    their build (right) side lazily, when first needed.  @raise Error
    on dynamic failures. *)

val drain_blocks : biter -> Relation.Row.t array list

(** {1 Morsel-driven parallel execution}

    With [jobs >= 2] the plan runs on the {!Pool.global} domain pool as
    pipelines: a scan's {!morsel_size}-row morsels, claimed by workers
    through an atomic cursor, each pass through the kernels of the
    streaming operators above the scan, and the per-morsel outputs are
    concatenated in morsel order — so the parallel output is row-for-row
    identical to the serial driver's (DESIGN.md §10).  Pipelines break
    at build sides, which are materialized first (equi- and natural
    joins and diff hash-partition large ones and build one table per
    partition in parallel, preserving build-input match order), and at
    dedup, which dedups each morsel locally and merges the survivors in
    morsel order. *)

val morsel_size : int
(** Rows per work unit claimed by a parallel worker (1024 = 8 serial
    blocks); see DESIGN.md §10 for the sizing rationale. *)

val partition_build :
  nparts:int ->
  parallel_for:(int -> (int -> unit) -> unit) ->
  Relation.Row.t array ->
  (Relation.Row.t -> int) ->
  (Relation.Row.t array -> 'tbl) ->
  'tbl array
(** [partition_build ~nparts ~parallel_for rows hash build]: how the
    parallel driver turns a materialized build side into hash tables —
    rows split by [hash] into [nparts] (a power of two) partitions, each
    in build-input order and built by [build]; one table when [nparts =
    1] or the rows fit one morsel.  [parallel_for m f] must run [f i]
    for every [i < m] (the driver uses the pool).  The partition comes
    from different bits of the hash than the tables' buckets, so every
    table can use all of its buckets.  Exposed for tests. *)

val eval_parallel :
  ?stats:node_stats -> ctx -> jobs:int -> Plan.compiled -> Relation.Row.t array
(** The parallel driver: evaluate with [jobs] workers and return the
    root's materialized rows (in deterministic, serial-identical order —
    exposed for the determinism tests and benchmarks).  Build sides are
    evaluated even when the probe side turns out empty, so a run's
    charged counters can exceed the serial run's there.  @raise Error
    on dynamic failures, re-raised on the caller after all workers
    join. *)

val effective_jobs : ctx -> int -> Plan.compiled -> int
(** The worker count the default executor would actually use: [jobs]
    capped at [Domain.recommended_domain_count ()], collapsing to 1
    when every leaf extent of the plan fits inside a single
    {!morsel_size} morsel (one work unit per operator — domain
    handoff with no overlap). *)

val run_compiled :
  ?stats:node_stats ->
  ?jobs:int ->
  ?clamp:bool ->
  ctx ->
  Plan.compiled ->
  Relation.t
(** Exhaust the compiled plan and canonicalize the result.  [jobs]
    (default 1) selects the executor: 1 streams blocks exactly as
    before — no pool, no domain spawns — while [>= 2] runs the
    morsel-parallel path.  Unless [clamp:false], [jobs] first passes
    through {!effective_jobs}, so over-subscribed hosts and sub-morsel
    inputs silently take the serial path; pass [~clamp:false] to force
    the parallel internals regardless (determinism tests, benchmarks on
    small fixtures). *)

val run : ?jobs:int -> ?clamp:bool -> ctx -> Plan.t -> Relation.t
(** [compile] + [run_compiled] — the default executor. *)
