(** Process-global runtime counters, each declared once and documented
    once, below. A counter's OCaml name is its key in the JSON snapshot
    ({!snapshot_to_json}, the ["counters"] object of [gc-health/1] and
    [gc-trace/1] documents), and {!all} lists them in that order.

    Two kinds:
    - {b gated} counters sit on the execution hot path (per kernel, per
      parallel section, per [Alloc] statement) and count only while
      {!enabled}, which is off by default. Disabled, a bump costs one
      atomic load and a branch, with no allocation.
    - every other counter sits on an error, serving, supervision or
      tenancy path and is {b always} counted, so a serving process keeps
      its history without paying for the hot-path counters.

    All mutation is via [Atomic]: the engine's compiled closures and the
    serve workers run on separate domains. *)

type t

val incr : t -> unit
val add : t -> int -> unit

(** [record_max c n] raises [c] to [n] if [n] is larger: a high-water
    mark rather than a sum. *)
val record_max : t -> int -> unit

val get : t -> int
val name : t -> string
val gated : t -> bool

(** Every counter, in declaration (= JSON) order. *)
val all : t list

(** Start counting the gated counters (the others always count). *)
val enable : unit -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** Zero every counter (does not change enablement). *)
val reset : unit -> unit

(** {1 Execution (gated)} *)

val kernel_invocations : t
(** microkernel/intrinsic dispatches (brgemm, zero, copy) *)

val parallel_sections : t
(** pool dispatches (a parallel loop or task batch) *)

val barriers : t
(** synchronization points (end-of-section join, explicit barrier) *)

val task_launches : t
(** worker tasks launched by parallel sections *)

val bytes_allocated : t
(** bytes allocated for runtime temporaries *)

val tasks_stolen : t
(** grains run by a pool worker other than the section's submitter (the
    self-scheduling queue balanced load across domains) *)

val envs_reused : t
(** execution environments (a call's or a parallel grain's) taken from an
    engine pool instead of freshly allocated *)

val arena_hits : t
(** [Alloc] statements served from an environment's pre-sized arena slot
    instead of a fresh buffer *)

val arena_bytes_saved : t
(** buffer bytes not allocated because the arena already held a buffer of
    the right size *)

(** {1 Faults and recovery} *)

val validation_rejects : t
(** binding sets rejected at the execute boundary (bad shape, dtype or
    arity, missing input) before any engine work *)

val worker_faults : t
(** exceptions contained in a parallel-pool worker (wrapped into a
    [Runtime_fault] after the barrier drained) *)

val runtime_faults : t
(** executes classified as [Runtime_fault] at the API boundary *)

val timeouts : t
(** guarded executes that exceeded their deadline *)

val resource_exhausted : t
(** executes classified as [Resource_exhausted] *)

val exec_retries : t
(** serve-tier retries of a compiled execute after a [Runtime_fault]
    ([Gc_serve]'s retry ladder; [Core] never retries) *)

val fallback_interp : t
(** executes served by the reference interpreter ([Core.execute_fallback])
    after the engine faulted or while a breaker is open (slow-but-correct
    degradation) *)

val sanitizer_hits : t
(** non-finite values caught by the output sanitizer *)

(** {1 Serving: admission, shedding, circuit breaker} *)

val serve_admitted : t
(** requests admitted into the bounded serving queue *)

val serve_overloaded : t
(** requests shed with [Overloaded] (queue full, unmeetable deadline,
    over quota, expired in queue, draining or stranded at the drain
    deadline) *)

val serve_shed_expired : t
(** queued requests whose deadline expired before dispatch (a subset of
    [serve_overloaded]) *)

val serve_budget_rejects : t
(** requests failed by the memory-budget governor ([Resource_exhausted]
    from {!Gc_tensor.Memgov}) *)

val breaker_opens : t
(** circuit breakers tripped open (too many consecutive fallbacks to the
    interpreter, or a failed half-open probe) *)

val breaker_probes : t
(** half-open probes of the compiled path after the breaker cooldown *)

val breaker_closes : t
(** breakers closed again by a successful half-open probe *)

val breaker_shortcircuits : t
(** requests routed straight to the interpreter because the breaker was
    open *)

(** {1 Batching: shape buckets and request coalescing} *)

val bucket_compiles : t
(** concrete specializations compiled for a (shape class, bucket) pair *)

val bucket_cache_hits : t
(** polymorphic executes served by an already-compiled bucket *)

val pad_waste_rows : t
(** padding rows executed because a request was rounded up to its bucket
    (the price of specialization) *)

val coalesced_batches : t
(** batched executions packing two or more coalesced requests *)

val coalesced_tickets : t
(** tickets across all coalesced batches *)

val coalesced_max_tickets : t
(** the largest single coalesced batch (a high-water mark, see
    {!record_max}) *)

val window_deadline_violations : t
(** tickets whose deadline expired during the coalescing gather window.
    Must stay zero: the window is sized never to outwait the tightest
    admitted deadline. *)

(** {1 Supervision} *)

val workers_restarted : t
(** dead worker domains (serve or pool) respawned by supervision *)

val workers_superseded : t
(** stuck-but-alive workers replaced (the slot re-spawned; the old domain
    exits at its next epoch check) *)

val pools_reincarnated : t
(** poisoned or dead parallel pools replaced by a fresh incarnation
    behind the same handle *)

val pool_inline_runs : t
(** parallel sections run inline because the pool was poisoned: the
    degraded-throughput tell supervision exists to heal *)

val heartbeats_missed : t
(** monitor ticks that found a busy worker's heartbeat older than the
    staleness threshold (once per stuck episode) *)

(** {1 Multi-model tenancy} *)

val models_loaded : t
(** named models registered (a first load or a new version) *)

val models_retired : t
(** named models retired from the registry *)

val hot_swaps : t
(** atomic weight/artifact swaps behind a registered name *)

val models_parked : t
(** resident models evicted to [Parked] under memory-budget pressure (the
    artifact released; the name stays registered) *)

val models_reloaded : t
(** parked models re-admitted via lazy recompile through the cache *)

val quota_sheds : t
(** requests shed because their model exceeded its weighted-fair share
    of the admission queue (a subset of [serve_overloaded]) *)

val cache_bytes_evicted : t
(** estimated bytes released by evicting compile-cache entries *)

val cache_overcommits : t
(** compile-cache inserts admitted uncharged because the memory governor
    refused the charge even after LRU eviction (the cache never originates
    [Resource_exhausted]) *)

(** {1 Snapshots} *)

(** Every counter's value at one moment, one field per counter, named
    like it. *)
type snapshot = {
  kernel_invocations : int;
  parallel_sections : int;
  barriers : int;
  task_launches : int;
  bytes_allocated : int;
  tasks_stolen : int;
  envs_reused : int;
  arena_hits : int;
  arena_bytes_saved : int;
  validation_rejects : int;
  worker_faults : int;
  runtime_faults : int;
  timeouts : int;
  resource_exhausted : int;
  exec_retries : int;
  fallback_interp : int;
  sanitizer_hits : int;
  serve_admitted : int;
  serve_overloaded : int;
  serve_shed_expired : int;
  serve_budget_rejects : int;
  breaker_opens : int;
  breaker_probes : int;
  breaker_closes : int;
  breaker_shortcircuits : int;
  bucket_compiles : int;
  bucket_cache_hits : int;
  pad_waste_rows : int;
  coalesced_batches : int;
  coalesced_tickets : int;
  coalesced_max_tickets : int;
  window_deadline_violations : int;
  workers_restarted : int;
  workers_superseded : int;
  pools_reincarnated : int;
  pool_inline_runs : int;
  heartbeats_missed : int;
  models_loaded : int;
  models_retired : int;
  hot_swaps : int;
  models_parked : int;
  models_reloaded : int;
  quota_sheds : int;
  cache_bytes_evicted : int;
  cache_overcommits : int;
}

val snapshot : unit -> snapshot

(** One [Int] member per counter, in {!all} order. *)
val snapshot_to_json : snapshot -> Json.t

(** [check_document doc] checks every ["counters"] object of a trace or
    health document: the top-level one and the one in each ["bench:*"]
    section. Each must hold exactly the declared counters, in {!all}
    order, each an [Int]. [Error] describes the first violation. *)
val check_document : Json.t -> (unit, string) result

(** [with_counters f] enables and resets the counters, runs [f], returns
    its result with the snapshot, and restores the previous enablement. *)
val with_counters : (unit -> 'a) -> 'a * snapshot
