(** Global runtime counters, incremented by the execution substrate
    ({!Gc_runtime.Parallel} and {!Gc_runtime.Engine}) at coarse events:
    kernel invocations, parallel-section launches, barriers, temporary
    allocations. Disabled by default; when disabled every hook is a single
    atomic load and branch, so the hot path cost is negligible (the events
    are per-kernel/per-section, never per-element).

    Counters are process-global because the engine's compiled closures run
    on worker domains — all mutation is via [Atomic]. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Reset all counters to zero (does not change enablement). *)
val reset : unit -> unit

(** Hooks for the runtime (no-ops when disabled). *)

val kernel_invocation : unit -> unit
(** one microkernel/intrinsic dispatch (brgemm, zero, copy) *)

val parallel_section : unit -> unit
(** one pool dispatch (a parallel loop or task batch) *)

val barrier : unit -> unit
(** one synchronization point (end-of-section join, explicit barrier) *)

val tasks : int -> unit
(** [tasks n]: [n] worker tasks launched *)

val alloc_bytes : int -> unit
(** bytes allocated for a runtime temporary *)

val task_stolen : unit -> unit
(** one grain executed by a pool worker other than the section's submitter
    (the self-scheduling queue balanced load across domains) *)

val env_reused : unit -> unit
(** one execution environment (a call's or a parallel grain's) taken
    from an engine pool instead of being freshly allocated *)

val arena_hit : unit -> unit
(** one [Alloc] statement served from an execution environment's
    pre-sized arena slot instead of a fresh buffer allocation *)

val arena_bytes_saved : int -> unit
(** [arena_bytes_saved n]: [n] bytes of buffer allocation avoided because
    the arena already held a correctly-sized buffer *)

(** Resilience hooks (PR 4). Unlike the hot-path hooks above, these sit on
    error paths only and are {b always} counted, independent of
    {!enabled} — a serving process keeps its fault history without paying
    for per-kernel counters. [reset] zeroes them like everything else. *)

val validation_reject : unit -> unit
(** one binding set rejected at the execute boundary (bad shape/dtype/
    arity/missing input) before any engine work *)

val worker_fault : unit -> unit
(** one exception contained in a parallel-pool worker (wrapped into a
    [Runtime_fault] after the barrier drained) *)

val runtime_fault : unit -> unit
(** one execute classified as [Runtime_fault] at the API boundary *)

val timeout : unit -> unit
(** one guarded execute that exceeded its deadline *)

val resource_exhausted : unit -> unit
(** one execute classified as [Resource_exhausted] *)

val exec_retry : unit -> unit
(** one engine retry after a [Runtime_fault] *)

val fallback_interp : unit -> unit
(** one execute served by the reference interpreter after the engine
    faulted (slow-but-correct degradation) *)

val sanitizer_hit : unit -> unit
(** one non-finite value caught by the output sanitizer *)

(** Serving hooks (PR 5): admission, shedding and circuit-breaker
    transitions in {!Gc_serve}. Always counted, like the resilience
    hooks. *)

val serve_admitted : unit -> unit
(** one request admitted into the bounded serving queue *)

val serve_overloaded : unit -> unit
(** one request shed with [Overloaded] (queue full, unmeetable deadline,
    expired in queue, or draining) *)

val serve_shed_expired : unit -> unit
(** one queued request whose deadline expired before dispatch (subset of
    [serve_overloaded]) *)

val serve_budget_reject : unit -> unit
(** one request failed by the memory-budget governor
    ([Resource_exhausted] from {!Gc_tensor.Memgov}) *)

val breaker_open : unit -> unit
(** one per-partition circuit breaker tripped open (too many consecutive
    fallbacks-to-interpreter) *)

val breaker_probe : unit -> unit
(** one half-open probe of the compiled path after the breaker cooldown *)

val breaker_close : unit -> unit
(** one breaker closed again after a successful half-open probe *)

val breaker_shortcircuit : unit -> unit
(** one request routed straight to the reference interpreter because the
    breaker was open *)

(** Batching hooks (PR 7): bucketed shape-class specialization in
    {!module-Core} and request coalescing in {!Gc_serve}. Always counted,
    like the serving hooks. *)

val bucket_compile : unit -> unit
(** one concrete specialization compiled for a (shape class, bucket) pair *)

val bucket_cache_hit : unit -> unit
(** one polymorphic execute served by an already-compiled bucket *)

val pad_waste_rows : int -> unit
(** [pad_waste_rows n]: [n] padding rows executed because the request was
    rounded up to its bucket (wasted work, the price of specialization) *)

val coalesced_batch : tickets:int -> unit
(** one batched execution packing [tickets] (>= 2) coalesced requests *)

val window_deadline_violation : unit -> unit
(** one ticket whose deadline expired during the coalescing gather window
    — must stay zero; the window is sized to never outwait the tightest
    admitted deadline *)

(** Supervision hooks (PR 9): self-healing actions taken by
    [Gc_supervise] and the degraded-mode tells they react to. Always
    counted, like the serving hooks. *)

val worker_restarted : unit -> unit
(** one dead worker domain (serve or pool) respawned by supervision *)

val worker_superseded : unit -> unit
(** one stuck-but-alive worker replaced (its slot re-spawned; the old
    domain exits on its next epoch check) *)

val pool_reincarnated : unit -> unit
(** one poisoned/dead parallel pool replaced by a fresh incarnation
    behind the same handle *)

val pool_inline_run : unit -> unit
(** one parallel section executed inline because the pool was poisoned —
    the degraded-throughput tell supervision exists to heal *)

val heartbeat_missed : unit -> unit
(** one monitor tick that found a busy worker's heartbeat older than the
    configured staleness threshold *)

(** Multi-model hooks (PR 10): registry lifecycle, per-model quota sheds
    and budget-aware cache residency churn in [Gc_registry], {!Gc_serve}
    and [Core.Compile_cache]. Always counted, like the serving hooks. *)

val model_loaded : unit -> unit
(** one named model registered (first load or a new version) *)

val model_retired : unit -> unit
(** one named model retired from the registry *)

val hot_swap : unit -> unit
(** one atomic weight/artifact swap behind a registered name *)

val model_parked : unit -> unit
(** one resident model evicted to [Parked] under memory-budget pressure
    (its compiled artifact released; the name stays registered) *)

val model_reloaded : unit -> unit
(** one parked model re-admitted via lazy recompile through the cache *)

val quota_shed : unit -> unit
(** one request shed because its model exceeded its weighted-fair share
    of the admission queue (subset of [serve_overloaded]) *)

val cache_bytes_evicted : int -> unit
(** [cache_bytes_evicted n]: [n] estimated bytes released by evicting
    compile-cache entries (accumulated) *)

val cache_overcommit : unit -> unit
(** one compile-cache insert admitted uncharged because the memory
    governor refused the charge even after LRU eviction — the cache
    layer never originates [Resource_exhausted] *)

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
  coalesced_tickets : int;  (** total tickets across coalesced batches *)
  coalesced_max_tickets : int;  (** largest single coalesced batch *)
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
  cache_bytes_evicted : int;  (** estimated bytes released by cache eviction *)
  cache_overcommits : int;
}

val snapshot : unit -> snapshot
val snapshot_to_json : snapshot -> Json.t
val pp_snapshot : Format.formatter -> snapshot -> unit

(** [with_counters f] enables and resets the counters, runs [f], returns
    its result with the snapshot, and restores the previous enablement. *)
val with_counters : (unit -> 'a) -> 'a * snapshot
