(** oneDNN Graph Compiler (OCaml reproduction) — public API.

    The expected flow mirrors the oneDNN Graph API:

    {[
      open Core
      let b = Builder.create () in
      let x = Builder.input b ~name:"x" Dtype.F32 (Shape.of_list [64; 13]) in
      let w = Builder.input b ~name:"w" ~const:true Dtype.F32 (Shape.of_list [13; 512]) in
      let y = Builder.relu b (Builder.matmul b x w) in
      let g = Builder.finalize b ~outputs:[y] in
      let compiled = compile g in
      let outputs = execute compiled [ (x, x_data); (w, w_data) ]
    ]}

    [compile] runs the Graph IR optimization pipeline (decomposition,
    constant folding, low-precision conversion, constant-weight
    preprocessing, layout propagation, fine- and coarse-grain fusion),
    lowers the fused graph through the microkernel templates to Tensor IR,
    optimizes the Tensor IR (loop merging, tensor shrinking, buffer
    planning) and prepares the execution engine. The first [execute] runs
    the constant-preprocessing init step and caches its results; later
    calls reuse them.

    Three entry points compile: {!compile}, {!compile_cached} (through
    the process-wide cache) and {!compile_poly} (shape-polymorphic). Each
    raises [Errors.Error]; a foreign exception escaping the pipeline
    surfaces as [Compile_error {stage = "pipeline"}].

    Four entry points execute. {!execute} and {!execute_poly} are the raw
    calls: a fixed-shape partition, or a shape-polymorphic one through
    its bucketed instances, raising [Errors.Error] on failure. Every
    resilient caller goes through one path, over an {!artifact} of either
    kind: {!execute_checked} (one guarded attempt: validation, watchdog,
    optional sanitizer, typed [result]) — the analogue of oneDNN Graph's
    [execute_compiled_partition] — and {!execute_fallback}, the
    reference-interpreter degraded path. Retrying a fault and deciding
    when to fall back is the serving layer's job ([Gc_serve]), not
    Core's. *)

(** {1 Re-exported substrate modules} *)

module Dtype = Gc_tensor.Dtype
module Shape = Gc_tensor.Shape
module Layout = Gc_tensor.Layout
module Tensor = Gc_tensor.Tensor
module Reorder = Gc_tensor.Reorder
module Ref_ops = Gc_tensor.Ref_ops
module Machine = Gc_microkernel.Machine
module Graph = Gc_graph_ir.Graph
module Builder = Gc_graph_ir.Builder
module Op = Gc_graph_ir.Op
module Op_kind = Gc_graph_ir.Op_kind
module Logical_tensor = Gc_graph_ir.Logical_tensor
module Reference = Gc_graph_ir.Reference
module Pipeline = Gc_graph_passes.Pipeline
module Fused_op = Gc_lowering.Fused_op
module Params = Gc_lowering.Params
module Heuristic = Gc_lowering.Heuristic
module Ir = Gc_tensor_ir.Ir
module Printer = Gc_tensor_ir.Printer
module Tir_pipeline = Gc_tir_passes.Tir_pipeline

(** The observability layer: [Observe.Trace] (per-pass timings + IR stats,
    JSON export), [Observe.Counters] (runtime counters), [Observe.Json]. *)
module Observe = Gc_observe

(** The typed error taxonomy ({!Gc_errors} re-exported): every failure the
    public API can surface is an [Errors.error] — [Invalid_input],
    [Compile_error], [Runtime_fault], [Resource_exhausted] or [Timeout] —
    raised as [Errors.Error] by the raising entry points and returned as
    [result] by {!execute_checked} / {!execute_fallback}. *)
module Errors = Gc_errors

(** The watchdog ({!Gc_runtime.Guard} re-exported): per-execute deadlines,
    cooperative cancellation checks, [GC_EXEC_TIMEOUT_MS]. *)
module Guard = Gc_runtime.Guard

(** {1 Compilation} *)

type config = {
  graph : Pipeline.config;  (** Graph IR pass configuration *)
  tir : Tir_pipeline.config;  (** Tensor IR pass configuration *)
  pool : Gc_runtime.Parallel.t option;
      (** domain pool for execution ([None] = shared default pool) *)
}

val default_config : ?machine:Machine.t -> unit -> config

(** A compiled partition. *)
type t

(** [compile ?config ?trace g] compiles a DNN computation graph. Raises
    [Errors.Error] on a malformed graph; any other exception escaping the
    pipeline is re-raised as [Compile_error {stage = "pipeline"}], so every
    compile failure is typed. When [trace] is given, every
    Graph-IR and Tensor-IR pass (plus lowering and engine preparation) is
    timed and its before/after IR statistics are recorded into the trace. *)
val compile : ?config:config -> ?trace:Observe.Trace.t -> Graph.t -> t

(** The optimization artifacts, for inspection, testing and benchmarks. *)

val fused_graph : t -> Fused_op.graph
val tir_module : t -> Ir.module_  (** after Tensor IR optimization *)

val tir_stats : t -> Tir_pipeline.stats
val config_of : t -> config

(** [execute t bindings] runs the compiled partition. [bindings] must
    cover every graph input (including constant weights — they are read on
    the first call, preprocessed by the init step, and cached). Returns
    the graph outputs in declaration order.

    Binding resolution is precomputed at compile time (one hash lookup per
    binding); the constant init step is idempotent and mutex-guarded, so
    concurrent executes from several domains are safe and run the init
    exactly once.

    [reuse_outputs] (default [false]): return pooled per-domain output
    tensors instead of freshly allocated ones. Opt-in for steady-state
    serving loops — the tensors returned by a call are overwritten by that
    domain's next execute, so callers must consume (or copy) them before
    re-executing. Pools are discarded by {!invalidate_constants}. *)
val execute :
  ?reuse_outputs:bool -> t -> (Logical_tensor.t * Tensor.t) list -> Tensor.t list

(** Force re-running the constant preprocessing on the next execute (e.g.
    after weights changed). Also resets engine-side cached state derived
    from the old constants: the global buffers are repopulated by the next
    init run, and pooled output tensors ([execute ~reuse_outputs:true]) are
    discarded. *)
val invalidate_constants : t -> unit

(** {1 Compilation cache} *)

(** Cache key of a graph under a configuration: a digest of the canonical
    graph structure (topological op order with canonically numbered
    tensors, op kinds and attributes, per-tensor dtype/shape/layout/
    constness including compile-time constant contents) concatenated with
    a digest of the pass configuration (the pool is excluded — it carries
    execution resources, not compilation choices). Structurally identical
    graphs fingerprint equal even when built independently.

    Symbolic dims are canonicalized by first mention ([$0], [$1], ...) and
    the representative concrete size of a symbolic axis is excluded, so
    graphs differing only in a symbolic axis's representative size belong
    to one {e shape class} and fingerprint equal. *)
val fingerprint : ?config:config -> Graph.t -> string

(** Estimated resident bytes of a compiled partition: packed
    runtime-constant globals plus one arena instance per function's
    allocation plan. The compile cache charges this against
    {!Gc_tensor.Memgov} at insert, so budget-aware residency decisions
    run on a stable per-entry figure. *)
val estimated_bytes : t -> int

(** Process-wide, thread-safe compilation cache keyed by {!fingerprint}.
    Optionally bounded by [set_max_bytes (Some b)] (or
    [GC_CACHE_MAX_BYTES]) on the summed {!estimated_bytes}. Eviction takes
    the least-recently used entry first (use = hit or insert) and skips
    {e pinned} entries — a pin is a hard residency guarantee taken by a
    registered serve handle or an in-flight poly specialization, so the
    cache can be over-bound while everything evictable is pinned.

    Inserts charge their estimated bytes against {!Gc_tensor.Memgov};
    eviction releases them. The cache never originates
    [Resource_exhausted] — when the budget refuses an insert even after
    LRU eviction, the entry is admitted uncharged and counted as an
    overcommit. *)
module Compile_cache : sig
  type stats = {
    hits : int;
    misses : int;
    entries : int;
    evictions : int;
    resident_bytes : int;  (** summed {!estimated_bytes} of resident entries *)
    pinned : int;  (** entries with at least one pin *)
  }

  val stats : unit -> stats
  val size : unit -> int
  val keys : unit -> string list
  val mem : string -> bool

  (** The entry's estimated bytes ([None]: not resident). *)
  val entry_bytes : string -> int option

  val set_max_bytes : int option -> unit
  (** [Some b] bounds the summed estimated bytes with LRU eviction
      (evicts immediately if over); [None] is unbounded. The bound starts
      at [GC_CACHE_MAX_BYTES] when set, else unbounded. *)

  val max_bytes : unit -> int option

  (** [pin key] takes one residency pin on the entry (false: not
      resident). Pinned entries are never evicted — not by bounds, not
      by budget pressure, not by {!evict_key}. Pins nest; every [pin]
      needs a matching {!unpin}. *)
  val pin : string -> bool

  val unpin : string -> unit
  val pins : string -> int

  (** [evict_key key] drops the entry now, releasing its budget charge.
      False when not resident or pinned. The registry's parking path. *)
  val evict_key : string -> bool

  val clear : unit -> unit
  (** Drop everything (releasing budget charges) and zero the stats.
      Ignores pins — test/bench isolation only. *)
end

(** [compile_cached ?config ?trace g]: like {!compile}, but a cache hit
    returns the already-compiled partition re-keyed to [g]'s logical
    tensors (positionally, inputs then outputs — sound because the
    fingerprint pins per-position shapes and dtypes). The engine, compiled
    code and constant-init state are shared between all graphs hitting the
    same entry, so hits assume the same runtime-constant weight values;
    call {!invalidate_constants} after swapping weights.

    [pin:true] additionally takes one residency pin on the entry (hit or
    fresh insert alike); the caller must {!Compile_cache.unpin} the
    graph's fingerprint when the reference is dropped. *)
val compile_cached :
  ?config:config ->
  ?trace:Observe.Trace.t ->
  ?pin:bool ->
  Graph.t ->
  t

(** Compile and run the reference evaluator instead — ground truth for
    differential testing. *)
val reference : Graph.t -> (Logical_tensor.t * Tensor.t) list -> Tensor.t list

(** {1 Shape-polymorphic compilation: bucketed specialization}

    A graph with symbolic dims ({!Gc_graph_ir.Dim.Sym}) compiles once per
    {e bucketed} symbol environment instead of once per exact shape: the
    request's symbol sizes are rounded up to a bucket ladder (default
    1/2/4/8/16/32, [GC_BUCKETS] override), the symbolic graph is
    substituted to that concrete bucket and compiled through
    {!compile_cached}, inputs are zero-padded up to the bucket and outputs
    sliced back to the request's true sizes.

    Zero-padding is sound only for {e row-independent} symbolic axes —
    ones where each index along the axis is computed independently (a
    batch dim). An axis that mixes positions (a sequence dim under
    softmax) must not be bucketed: exclude it from [bucket_syms] and it is
    substituted at its exact size instead (still cached per size). *)

module Buckets : sig
  type t

  val default_sizes : int list
  val of_list : int list -> t  (** sorted/deduped; rejects non-positive *)

  val of_env : unit -> int list
  (** [GC_BUCKETS="1,2,4,8,16,32"] override, else {!default_sizes}. *)

  val max_size : t -> int

  val pick : t -> int -> int
  (** Smallest bucket >= n; beyond the ladder, the next multiple of the
      largest bucket. *)
end

type poly

(** [compile_poly ?config ?buckets ?bucket_syms g] prepares a polymorphic
    compilation of [g]. Nothing is compiled until the first execute.
    [bucket_syms] (default: every symbol in [g]) lists the symbols that
    may be bucket-padded; the caller asserts their axes are
    row-independent. Raises on unknown symbol names. *)
val compile_poly :
  ?config:config -> ?buckets:int list -> ?bucket_syms:string list -> Graph.t -> poly

val poly_graph : poly -> Graph.t
val poly_syms : poly -> string list
val poly_buckets : poly -> Buckets.t
val poly_bucket_syms : poly -> string list

val poly_instances : poly -> int
(** Number of bucketed instances compiled so far. *)

val poly_env :
  poly -> (Logical_tensor.t * Tensor.t) list -> (string * int) list
(** Resolve each symbol's concrete size from the bound inputs; raises
    typed [Invalid_input] on missing bindings, rank mismatches, or one
    symbol bound to two sizes. *)

val poly_bucket_env : poly -> (string * int) list -> (string * int) list
(** Round the bucketed symbols of an environment up their bucket ladder. *)

(** Execute under the bucketed instance for the request's shape class
    (compiling it on first use — counted as [bucket_compiles] /
    [bucket_cache_hits]); pads symbolic inputs, slices outputs back. *)
val execute_poly :
  ?reuse_outputs:bool ->
  poly ->
  (Logical_tensor.t * Tensor.t) list ->
  Tensor.t list

(** {1 Checked execution}

    The resilient surface and the one execute path for both artifact
    kinds: every failure comes back as a typed [result] instead of an
    exception, guarded by a watchdog. *)

(** What a checked execute runs: a fixed-shape partition, or a
    shape-polymorphic compilation (a graph without symbols is a poly with
    one instance). *)
type artifact = Fixed of t | Poly of poly

(** [execute_checked art bindings] is one guarded attempt at {!execute}
    (a [Fixed] artifact) or {!execute_poly} (a [Poly] one): bindings are
    validated (arity, shape, dtype, layout) before any engine state is
    touched; a [Poly] request's bucket is resolved (and compiled on first
    use) before the watchdog starts; execution runs under the watchdog
    deadline; every failure class maps to exactly one [Errors.error], and
    a [Resource_exhausted] is counted in [Observe.Counters] whichever kind
    raised it. Nothing is retried and nothing falls back: the serving
    layer ([Gc_serve]) owns that ladder, calling {!execute_fallback} once
    its retries are spent.

    [deadline_ms] is the watchdog deadline for this call; without it the
    deadline is [Guard.env_timeout_ms ()] (the [GC_EXEC_TIMEOUT_MS]
    variable, none when unset). The serving layer passes each request's
    remaining deadline here.

    [sanitize] (default [false]) scans float outputs for NaN/Inf and
    promotes a hit to a [Runtime_fault] (counted as [sanitizer_hits]),
    making silent kernel poisoning visible to the caller's ladder. It
    reads every output element. *)
val execute_checked :
  ?deadline_ms:int ->
  ?sanitize:bool ->
  ?reuse_outputs:bool ->
  artifact ->
  (Logical_tensor.t * Tensor.t) list ->
  (Tensor.t list, Errors.error) result

(** The degraded path, skipping the compiled engine entirely (counted as
    [fallback_interp]): a [Fixed] artifact interprets its source graph, a
    [Poly] one its symbolic graph substituted at the request's {e exact}
    environment (no bucket, no padding). The serving layer runs it when a
    request's retries are spent or its partition's circuit breaker is
    open. Errors go through the same boundary as {!execute_checked}. *)
val execute_fallback :
  ?deadline_ms:int ->
  artifact ->
  (Logical_tensor.t * Tensor.t) list ->
  (Tensor.t list, Errors.error) result

val version : string
