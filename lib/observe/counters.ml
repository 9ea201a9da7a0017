let on = Atomic.make false
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

let c_kernels = Atomic.make 0
let c_sections = Atomic.make 0
let c_barriers = Atomic.make 0
let c_tasks = Atomic.make 0
let c_alloc = Atomic.make 0
let c_steals = Atomic.make 0
let c_env_reuse = Atomic.make 0
let c_arena_hits = Atomic.make 0
let c_arena_saved = Atomic.make 0

(* Resilience counters (PR 4). These sit on error paths only — a fault, a
   rejected input, a fallback — never on the per-kernel hot path, so they
   are always counted regardless of enablement: a serving process wants
   its fault history without paying for hot-path counters. *)
let c_validation_rejects = Atomic.make 0
let c_worker_faults = Atomic.make 0
let c_runtime_faults = Atomic.make 0
let c_timeouts = Atomic.make 0
let c_resource_exhausted = Atomic.make 0
let c_exec_retries = Atomic.make 0
let c_fallback_interp = Atomic.make 0
let c_sanitizer_hits = Atomic.make 0

(* Serving counters (PR 5). Admission/shedding/breaker transitions are
   rare relative to per-kernel work and a serving process always wants its
   overload history, so these too are counted unconditionally. *)
let c_serve_admitted = Atomic.make 0
let c_serve_overloaded = Atomic.make 0
let c_serve_shed_expired = Atomic.make 0
let c_serve_budget_rejects = Atomic.make 0
let c_breaker_opens = Atomic.make 0
let c_breaker_probes = Atomic.make 0
let c_breaker_closes = Atomic.make 0
let c_breaker_shortcircuits = Atomic.make 0

(* Batching counters (PR 7). Bucketed specialization and request
   coalescing events are per-compile / per-batch, not per-kernel, and a
   serving process always wants its batching history — unconditional like
   the serve counters above. *)
let c_bucket_compiles = Atomic.make 0
let c_bucket_cache_hits = Atomic.make 0
let c_pad_waste_rows = Atomic.make 0
let c_coalesced_batches = Atomic.make 0
let c_coalesced_tickets = Atomic.make 0
let c_coalesced_max_tickets = Atomic.make 0
let c_window_deadline_violations = Atomic.make 0

(* Supervision counters (PR 9). Every supervision action — a restart, a
   reincarnation — is an error-path event by definition, and
   a serving process always wants its self-healing history; unconditional
   like the serve counters above. [pool_inline_runs] is the poisoned-pool
   perf-cliff tell: parallel sections silently degraded to inline. *)
let c_workers_restarted = Atomic.make 0
let c_workers_superseded = Atomic.make 0
let c_pools_reincarnated = Atomic.make 0
let c_pool_inline_runs = Atomic.make 0
let c_heartbeats_missed = Atomic.make 0

(* Multi-model counters (PR 10). Registry lifecycle transitions, quota
   sheds and cache residency churn are per-request or rarer, and a
   multi-tenant process always wants its tenancy history — unconditional
   like the serve counters above. *)
let c_models_loaded = Atomic.make 0
let c_models_retired = Atomic.make 0
let c_hot_swaps = Atomic.make 0
let c_models_parked = Atomic.make 0
let c_models_reloaded = Atomic.make 0
let c_quota_sheds = Atomic.make 0
let c_cache_bytes_evicted = Atomic.make 0
let c_cache_overcommits = Atomic.make 0

let reset () =
  Atomic.set c_kernels 0;
  Atomic.set c_sections 0;
  Atomic.set c_barriers 0;
  Atomic.set c_tasks 0;
  Atomic.set c_alloc 0;
  Atomic.set c_steals 0;
  Atomic.set c_env_reuse 0;
  Atomic.set c_arena_hits 0;
  Atomic.set c_arena_saved 0;
  Atomic.set c_validation_rejects 0;
  Atomic.set c_worker_faults 0;
  Atomic.set c_runtime_faults 0;
  Atomic.set c_timeouts 0;
  Atomic.set c_resource_exhausted 0;
  Atomic.set c_exec_retries 0;
  Atomic.set c_fallback_interp 0;
  Atomic.set c_sanitizer_hits 0;
  Atomic.set c_serve_admitted 0;
  Atomic.set c_serve_overloaded 0;
  Atomic.set c_serve_shed_expired 0;
  Atomic.set c_serve_budget_rejects 0;
  Atomic.set c_breaker_opens 0;
  Atomic.set c_breaker_probes 0;
  Atomic.set c_breaker_closes 0;
  Atomic.set c_breaker_shortcircuits 0;
  Atomic.set c_bucket_compiles 0;
  Atomic.set c_bucket_cache_hits 0;
  Atomic.set c_pad_waste_rows 0;
  Atomic.set c_coalesced_batches 0;
  Atomic.set c_coalesced_tickets 0;
  Atomic.set c_coalesced_max_tickets 0;
  Atomic.set c_window_deadline_violations 0;
  Atomic.set c_workers_restarted 0;
  Atomic.set c_workers_superseded 0;
  Atomic.set c_pools_reincarnated 0;
  Atomic.set c_pool_inline_runs 0;
  Atomic.set c_heartbeats_missed 0;
  Atomic.set c_models_loaded 0;
  Atomic.set c_models_retired 0;
  Atomic.set c_hot_swaps 0;
  Atomic.set c_models_parked 0;
  Atomic.set c_models_reloaded 0;
  Atomic.set c_quota_sheds 0;
  Atomic.set c_cache_bytes_evicted 0;
  Atomic.set c_cache_overcommits 0

(* The [if] on a plain atomic load is the entire disabled-path cost. *)
let kernel_invocation () =
  if Atomic.get on then ignore (Atomic.fetch_and_add c_kernels 1)

let parallel_section () =
  if Atomic.get on then ignore (Atomic.fetch_and_add c_sections 1)

let barrier () = if Atomic.get on then ignore (Atomic.fetch_and_add c_barriers 1)
let tasks n = if Atomic.get on then ignore (Atomic.fetch_and_add c_tasks n)
let alloc_bytes n = if Atomic.get on then ignore (Atomic.fetch_and_add c_alloc n)
let task_stolen () = if Atomic.get on then ignore (Atomic.fetch_and_add c_steals 1)
let env_reused () = if Atomic.get on then ignore (Atomic.fetch_and_add c_env_reuse 1)
let arena_hit () = if Atomic.get on then ignore (Atomic.fetch_and_add c_arena_hits 1)

let arena_bytes_saved n =
  if Atomic.get on then ignore (Atomic.fetch_and_add c_arena_saved n)

(* Error-path events: always counted (see above). *)
let validation_reject () = ignore (Atomic.fetch_and_add c_validation_rejects 1)
let worker_fault () = ignore (Atomic.fetch_and_add c_worker_faults 1)
let runtime_fault () = ignore (Atomic.fetch_and_add c_runtime_faults 1)
let timeout () = ignore (Atomic.fetch_and_add c_timeouts 1)
let resource_exhausted () = ignore (Atomic.fetch_and_add c_resource_exhausted 1)
let exec_retry () = ignore (Atomic.fetch_and_add c_exec_retries 1)
let fallback_interp () = ignore (Atomic.fetch_and_add c_fallback_interp 1)
let sanitizer_hit () = ignore (Atomic.fetch_and_add c_sanitizer_hits 1)
let serve_admitted () = ignore (Atomic.fetch_and_add c_serve_admitted 1)
let serve_overloaded () = ignore (Atomic.fetch_and_add c_serve_overloaded 1)
let serve_shed_expired () = ignore (Atomic.fetch_and_add c_serve_shed_expired 1)

let serve_budget_reject () =
  ignore (Atomic.fetch_and_add c_serve_budget_rejects 1)

let breaker_open () = ignore (Atomic.fetch_and_add c_breaker_opens 1)
let breaker_probe () = ignore (Atomic.fetch_and_add c_breaker_probes 1)
let breaker_close () = ignore (Atomic.fetch_and_add c_breaker_closes 1)

let breaker_shortcircuit () =
  ignore (Atomic.fetch_and_add c_breaker_shortcircuits 1)

let bucket_compile () = ignore (Atomic.fetch_and_add c_bucket_compiles 1)
let bucket_cache_hit () = ignore (Atomic.fetch_and_add c_bucket_cache_hits 1)
let pad_waste_rows n = ignore (Atomic.fetch_and_add c_pad_waste_rows n)

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let coalesced_batch ~tickets =
  ignore (Atomic.fetch_and_add c_coalesced_batches 1);
  ignore (Atomic.fetch_and_add c_coalesced_tickets tickets);
  atomic_max c_coalesced_max_tickets tickets

let window_deadline_violation () =
  ignore (Atomic.fetch_and_add c_window_deadline_violations 1)

let worker_restarted () = ignore (Atomic.fetch_and_add c_workers_restarted 1)
let worker_superseded () = ignore (Atomic.fetch_and_add c_workers_superseded 1)
let pool_reincarnated () = ignore (Atomic.fetch_and_add c_pools_reincarnated 1)
let pool_inline_run () = ignore (Atomic.fetch_and_add c_pool_inline_runs 1)
let heartbeat_missed () = ignore (Atomic.fetch_and_add c_heartbeats_missed 1)
let model_loaded () = ignore (Atomic.fetch_and_add c_models_loaded 1)
let model_retired () = ignore (Atomic.fetch_and_add c_models_retired 1)
let hot_swap () = ignore (Atomic.fetch_and_add c_hot_swaps 1)
let model_parked () = ignore (Atomic.fetch_and_add c_models_parked 1)
let model_reloaded () = ignore (Atomic.fetch_and_add c_models_reloaded 1)
let quota_shed () = ignore (Atomic.fetch_and_add c_quota_sheds 1)

let cache_bytes_evicted n =
  if n > 0 then ignore (Atomic.fetch_and_add c_cache_bytes_evicted n)

let cache_overcommit () = ignore (Atomic.fetch_and_add c_cache_overcommits 1)

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

let snapshot () =
  {
    kernel_invocations = Atomic.get c_kernels;
    parallel_sections = Atomic.get c_sections;
    barriers = Atomic.get c_barriers;
    task_launches = Atomic.get c_tasks;
    bytes_allocated = Atomic.get c_alloc;
    tasks_stolen = Atomic.get c_steals;
    envs_reused = Atomic.get c_env_reuse;
    arena_hits = Atomic.get c_arena_hits;
    arena_bytes_saved = Atomic.get c_arena_saved;
    validation_rejects = Atomic.get c_validation_rejects;
    worker_faults = Atomic.get c_worker_faults;
    runtime_faults = Atomic.get c_runtime_faults;
    timeouts = Atomic.get c_timeouts;
    resource_exhausted = Atomic.get c_resource_exhausted;
    exec_retries = Atomic.get c_exec_retries;
    fallback_interp = Atomic.get c_fallback_interp;
    sanitizer_hits = Atomic.get c_sanitizer_hits;
    serve_admitted = Atomic.get c_serve_admitted;
    serve_overloaded = Atomic.get c_serve_overloaded;
    serve_shed_expired = Atomic.get c_serve_shed_expired;
    serve_budget_rejects = Atomic.get c_serve_budget_rejects;
    breaker_opens = Atomic.get c_breaker_opens;
    breaker_probes = Atomic.get c_breaker_probes;
    breaker_closes = Atomic.get c_breaker_closes;
    breaker_shortcircuits = Atomic.get c_breaker_shortcircuits;
    bucket_compiles = Atomic.get c_bucket_compiles;
    bucket_cache_hits = Atomic.get c_bucket_cache_hits;
    pad_waste_rows = Atomic.get c_pad_waste_rows;
    coalesced_batches = Atomic.get c_coalesced_batches;
    coalesced_tickets = Atomic.get c_coalesced_tickets;
    coalesced_max_tickets = Atomic.get c_coalesced_max_tickets;
    window_deadline_violations = Atomic.get c_window_deadline_violations;
    workers_restarted = Atomic.get c_workers_restarted;
    workers_superseded = Atomic.get c_workers_superseded;
    pools_reincarnated = Atomic.get c_pools_reincarnated;
    pool_inline_runs = Atomic.get c_pool_inline_runs;
    heartbeats_missed = Atomic.get c_heartbeats_missed;
    models_loaded = Atomic.get c_models_loaded;
    models_retired = Atomic.get c_models_retired;
    hot_swaps = Atomic.get c_hot_swaps;
    models_parked = Atomic.get c_models_parked;
    models_reloaded = Atomic.get c_models_reloaded;
    quota_sheds = Atomic.get c_quota_sheds;
    cache_bytes_evicted = Atomic.get c_cache_bytes_evicted;
    cache_overcommits = Atomic.get c_cache_overcommits;
  }

let snapshot_to_json s =
  Json.Obj
    [
      ("kernel_invocations", Json.Int s.kernel_invocations);
      ("parallel_sections", Json.Int s.parallel_sections);
      ("barriers", Json.Int s.barriers);
      ("task_launches", Json.Int s.task_launches);
      ("bytes_allocated", Json.Int s.bytes_allocated);
      ("tasks_stolen", Json.Int s.tasks_stolen);
      ("envs_reused", Json.Int s.envs_reused);
      ("arena_hits", Json.Int s.arena_hits);
      ("arena_bytes_saved", Json.Int s.arena_bytes_saved);
      ("validation_rejects", Json.Int s.validation_rejects);
      ("worker_faults", Json.Int s.worker_faults);
      ("runtime_faults", Json.Int s.runtime_faults);
      ("timeouts", Json.Int s.timeouts);
      ("resource_exhausted", Json.Int s.resource_exhausted);
      ("exec_retries", Json.Int s.exec_retries);
      ("fallback_interp", Json.Int s.fallback_interp);
      ("sanitizer_hits", Json.Int s.sanitizer_hits);
      ("serve_admitted", Json.Int s.serve_admitted);
      ("serve_overloaded", Json.Int s.serve_overloaded);
      ("serve_shed_expired", Json.Int s.serve_shed_expired);
      ("serve_budget_rejects", Json.Int s.serve_budget_rejects);
      ("breaker_opens", Json.Int s.breaker_opens);
      ("breaker_probes", Json.Int s.breaker_probes);
      ("breaker_closes", Json.Int s.breaker_closes);
      ("breaker_shortcircuits", Json.Int s.breaker_shortcircuits);
      ("bucket_compiles", Json.Int s.bucket_compiles);
      ("bucket_cache_hits", Json.Int s.bucket_cache_hits);
      ("pad_waste_rows", Json.Int s.pad_waste_rows);
      ("coalesced_batches", Json.Int s.coalesced_batches);
      ("coalesced_tickets", Json.Int s.coalesced_tickets);
      ("coalesced_max_tickets", Json.Int s.coalesced_max_tickets);
      ("window_deadline_violations", Json.Int s.window_deadline_violations);
      ("workers_restarted", Json.Int s.workers_restarted);
      ("workers_superseded", Json.Int s.workers_superseded);
      ("pools_reincarnated", Json.Int s.pools_reincarnated);
      ("pool_inline_runs", Json.Int s.pool_inline_runs);
      ("heartbeats_missed", Json.Int s.heartbeats_missed);
      ("models_loaded", Json.Int s.models_loaded);
      ("models_retired", Json.Int s.models_retired);
      ("hot_swaps", Json.Int s.hot_swaps);
      ("models_parked", Json.Int s.models_parked);
      ("models_reloaded", Json.Int s.models_reloaded);
      ("quota_sheds", Json.Int s.quota_sheds);
      ("cache_bytes_evicted", Json.Int s.cache_bytes_evicted);
      ("cache_overcommits", Json.Int s.cache_overcommits);
    ]

let pp_snapshot fmt s =
  Format.fprintf fmt
    "kernels=%d sections=%d barriers=%d tasks=%d alloc_bytes=%d stolen=%d \
     env_reuse=%d arena_hits=%d arena_saved=%d rejects=%d worker_faults=%d \
     faults=%d timeouts=%d oom=%d retries=%d fallbacks=%d sanitizer=%d \
     admitted=%d overloaded=%d shed_expired=%d budget_rejects=%d \
     breaker_opens=%d breaker_probes=%d breaker_closes=%d breaker_short=%d \
     bucket_compiles=%d bucket_hits=%d pad_waste=%d coalesced=%d \
     coalesced_tickets=%d coalesced_max=%d window_violations=%d \
     restarts=%d superseded=%d reincarnations=%d inline_runs=%d \
     hb_missed=%d \
     models_loaded=%d models_retired=%d hot_swaps=%d parked=%d reloaded=%d \
     quota_sheds=%d cache_evicted_bytes=%d cache_overcommits=%d"
    s.kernel_invocations s.parallel_sections s.barriers s.task_launches
    s.bytes_allocated s.tasks_stolen s.envs_reused s.arena_hits
    s.arena_bytes_saved s.validation_rejects s.worker_faults s.runtime_faults
    s.timeouts s.resource_exhausted s.exec_retries s.fallback_interp
    s.sanitizer_hits s.serve_admitted s.serve_overloaded s.serve_shed_expired
    s.serve_budget_rejects s.breaker_opens s.breaker_probes s.breaker_closes
    s.breaker_shortcircuits s.bucket_compiles s.bucket_cache_hits
    s.pad_waste_rows s.coalesced_batches s.coalesced_tickets
    s.coalesced_max_tickets s.window_deadline_violations s.workers_restarted
    s.workers_superseded s.pools_reincarnated s.pool_inline_runs
    s.heartbeats_missed s.models_loaded
    s.models_retired s.hot_swaps s.models_parked s.models_reloaded
    s.quota_sheds s.cache_bytes_evicted s.cache_overcommits

let with_counters f =
  let was = enabled () in
  reset ();
  enable ();
  let finish () = if not was then disable () in
  match f () with
  | v ->
      let snap = snapshot () in
      finish ();
      (v, snap)
  | exception e ->
      finish ();
      raise e
