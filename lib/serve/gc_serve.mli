(** Overload-protected serving layer.

    Wraps {!Core.execute_checked} / {!Core.execute_fallback} behind a
    bounded admission queue served by a fixed pool of worker domains, so a
    burst of requests degrades into {e typed, observable} rejections
    instead of unbounded queueing, memory growth or hangs. The protection
    has four coupled mechanisms:

    {2 Admission control and deadlines}

    Every request carries a deadline (per-call [?deadline_ms], else the
    server's default). Admission refuses — raising nothing, resolving the
    request's ticket with [Error (Overloaded _)] — when:

    - the bounded queue is full (its {e effective} depth shrinks under
      memory-budget backpressure, see below);
    - the request's deadline is provably unmeetable: the serving layer
      keeps an EWMA of recent per-handle execute latencies and rejects
      when [remaining < ewma * (queue_len + 1) * safety_factor];
    - the server is draining or shut down.

    Requests whose deadline expires {e while queued} are shed before
    dispatch (no execute work is spent on a request nobody is waiting
    for), also as [Overloaded]. The remaining deadline of a dispatched
    request is installed as the {!Core} watchdog deadline, so execution
    itself is bounded too.

    {2 Memory-budget backpressure}

    When a {!Gc_tensor.Memgov} budget is armed, the effective queue depth
    scales down linearly as the budget fills beyond one half —
    [depth * 2 * (1 - fill)], clamped to [0, depth] — so admission slows
    {e before} allocations start failing. Allocations that do exceed the
    budget surface as typed [Resource_exhausted] outcomes naming the
    buffer and the budget.

    {2 Circuit breaker and retries}

    This is the one retry ladder: {!Core.execute_checked} makes a single
    guarded attempt, and the serving layer decides what follows.
    Transient [Runtime_fault]s are retried up to [max_retries] times,
    spaced by {!Gc_supervise.next_backoff_ms} under the [supervision]
    policy (the same decorrelated jitter as worker respawn), never
    sleeping past half the request's remaining deadline; exhausted
    retries degrade to the reference interpreter
    ({!Core.execute_fallback}). The breaker is each handle's one health
    ladder, [Closed -> Open -> Half_open]: [breaker_threshold]
    {e consecutive} fallbacks trip it open, and requests then
    short-circuit straight to the interpreter (counted, visible in
    [Observe.Counters]) without burning retries on a compiled path that
    keeps faulting. After [breaker_cooldown_ms] the next request becomes
    the one half-open probe of the compiled path; a compiled [Ok] closes
    the breaker, another fallback re-opens it. While any bound handle is
    not [Closed] the tier reports [Degraded] ({!tier_health},
    [open_handles]); each open and close is an {!Gc_observe.Events}
    record.

    {2 Request coalescing (continuous batching)}

    A handle registered with a shape-polymorphic artifact ([Core.Poly],
    see {!register}) whose graph is batch-shaped — every output and every
    symbolic input carries one bucketable symbol on axis 0 and nowhere
    else — participates in {e coalescing} when
    [coalesce_window_ms > 0]: a worker that dequeues such a request holds
    it for at most the window, pulls compatible queued requests (same
    handle, same symbol environment apart from the batch symbol,
    physically identical weight bindings), concatenates their inputs
    along the batch axis, executes {e once} through the bucketed
    instance, and splits the outputs back per ticket. The window is
    clamped so it never extends past any gathered ticket's deadline minus
    the handle's EWMA execute estimate times [safety_factor] — gathering
    must not cause a deadline miss ([window_deadline_violations] in
    {!Gc_observe.Counters} counts the residual cases; tests pin it to
    zero). A failed batch re-runs every ticket solo, so one poisoned
    request cannot sink its batchmates.

    {2 Graceful drain}

    {!drain} stops admission and waits (bounded) for queued and in-flight
    work; queued requests still waiting at the drain deadline are shed as
    [Overloaded]. {!shutdown} drains and then joins the worker domains.
    Engine arenas and environments belong to the compiled artifacts, and a
    pooled environment drops each batch's buffers when its call returns,
    so with a Memgov budget armed the ledger returns to its pre-serving
    value once the requests' buffers are collected.

    Every request ends in {e exactly one} typed outcome: [Ok] or one of
    [Overloaded] / [Timeout] / [Resource_exhausted] / [Runtime_fault] /
    [Invalid_input] / [Compile_error]. *)

(** {1 Configuration} *)

type config = {
  queue_depth : int;  (** bounded queue slots ([GC_SERVE_QUEUE_DEPTH], 16) *)
  workers : int;  (** worker domains ([GC_SERVE_WORKERS], 2) *)
  default_deadline_ms : int option;
      (** deadline for requests that carry none
          ([GC_SERVE_DEADLINE_MS]; [None] = unbounded) *)
  max_retries : int;
      (** serving-level retries of a [Runtime_fault] execute before
          degrading to the interpreter ([GC_SERVE_MAX_RETRIES], 2) *)
  breaker_threshold : int;
      (** consecutive fallbacks that trip a handle's breaker
          ([GC_SERVE_BREAKER_THRESHOLD], 5) *)
  breaker_cooldown_ms : float;
      (** open-state dwell before a half-open probe
          ([GC_SERVE_BREAKER_COOLDOWN_MS], 100 ms) *)
  ewma_alpha : float;  (** latency EWMA smoothing (0.2) *)
  safety_factor : float;
      (** admission feasibility margin on the EWMA estimate (1.5) *)
  sanitize_outputs : bool;
      (** scan float outputs for NaN/Inf, promoting a hit to a retried
          [Runtime_fault] (see [?sanitize] on {!Core.execute_checked};
          [false]) *)
  coalesce_window_ms : float;
      (** gather window for request coalescing on poly handles
          ([GC_SERVE_COALESCE_MS]; 0 = coalescing off) *)
  max_coalesce : int;
      (** most tickets packed into one batched execution
          ([GC_SERVE_MAX_COALESCE], 8) *)
  quota_borrow : float;
      (** weighted-fair admission quotas: a model may queue past its
          share of the effective depth (share = depth × weight / total
          weight, at least 1) only while the whole queue is under
          [quota_borrow × depth] — slack capacity is borrowable, but a
          flooding tenant cannot starve others' slots once the queue
          fills ([GC_SERVE_QUOTA_BORROW], 0.5) *)
  supervision : Gc_supervise.policy;
      (** self-healing policy: worker heartbeat staleness, restart budget
          and the backoff shared by worker respawn and request retries
          (defaults from {!Gc_supervise.default_policy}, i.e.
          the [GC_SUPERVISE_*] environment). With [sup_enabled = false]
          the server registers no monitor and respawns no worker; the
          breaker still runs. *)
}

(** Defaults above, overridden by the [GC_SERVE_*] environment knobs. *)
val default_config : unit -> config

(** {1 Server and handles} *)

type t

(** A registered compiled partition plus its serving state (latency EWMA,
    circuit breaker). *)
type handle

(** [create ()] starts the worker domains. Raises [Invalid_input] on a
    non-positive queue depth or worker count. *)
val create : ?config:config -> unit -> t

(** Register a compiled artifact, e.g.
    [register t (Core.Fixed (Core.compile ~config g))]. [name] appears in
    error context and stats; [weight] (default 1, must be positive) is the
    model's weighted-fair admission share — see [quota_borrow]. Raises
    [Invalid_input] on a non-positive weight.

    A [Poly] artifact ({!Core.compile_poly}) takes requests binding any
    concrete sizes for the graph's symbolic dims, served by bucketed
    specializations, and — when the graph is batch-shaped and
    [coalesce_window_ms > 0] — compatible requests are coalesced into
    batched executions. *)
val register : ?name:string -> ?weight:float -> t -> Core.artifact -> handle

(** [register_poly t p] is [register t (Core.Poly p)]. *)
val register_poly : ?name:string -> ?weight:float -> t -> Core.poly -> handle

(** {1 Rebinding — the registry's hot-swap / park / re-admit lever}

    A handle's compiled target is swappable while the server runs. The
    swap resets the circuit breaker, which judged the old artifact, to
    [Closed] and keeps the latency EWMA —
    it tracks the model's cost profile, which a like-for-like swap
    preserves. The caller must swap like-for-like (same graph I/O
    signature): queued requests execute against the new target with
    their original bindings. *)

(** Atomically point the handle at a new compiled artifact. *)
val rebind : t -> handle -> Core.artifact -> unit

(** Park the handle: requests reaching execution resolve
    [Invalid_input] ("model is not resident") — callers are expected to
    re-bind (lazy re-admission) before submitting. *)
val unbind : t -> handle -> unit

(** Does the handle currently hold a compiled target? *)
val is_bound : handle -> bool

(** Remove the handle from the tier's health count and the fair-share
    weight total (a retired tenant). The handle stays safe to submit to —
    requests resolve typed — but no longer counts as a tenant.
    Idempotent. *)
val unregister : t -> handle -> unit

(** {1 Submitting work} *)

type outcome = (Core.Tensor.t list, Core.Errors.error) result

(** A pending request. *)
type ticket

(** [submit t h bindings] tries to admit a request; never raises and
    never blocks on execution. A refused request's ticket is already
    resolved with [Error (Overloaded _)]. [deadline_ms] overrides the
    server's default deadline. *)
val submit :
  ?deadline_ms:int ->
  t ->
  handle ->
  (Core.Logical_tensor.t * Core.Tensor.t) list ->
  ticket

(** Block until the request resolves. Idempotent. *)
val await : ticket -> outcome

(** Resolved yet? (Non-blocking.) *)
val peek : ticket -> outcome option

(** [call t h bindings] = submit + await. *)
val call :
  ?deadline_ms:int ->
  t ->
  handle ->
  (Core.Logical_tensor.t * Core.Tensor.t) list ->
  outcome

(** {1 Introspection} *)

type breaker_state = Closed | Open | Half_open

val breaker_state : handle -> breaker_state

(** ["closed"], ["open"] or ["half_open"]. *)
val breaker_state_to_string : breaker_state -> string

(** Double ticket resolutions ever observed, process-wide. Stays zero
    while supervision kills, supersedes and respawns workers — the health
    bench pins it. *)
val double_resolve_count : unit -> int

(** The tier's health as the supervision monitor reports it: [Critical]
    with zero live workers, [Degraded] with dead workers awaiting respawn
    (including crash-loopers that exhausted the restart budget) or bound
    handles whose breaker is not [Closed], else [Healthy]. Also folded into
    {!Gc_supervise.health} while the server is registered. *)
val tier_health : t -> Gc_supervise.component_health

(** The handle's latency EWMA over compiled executes, ms ([None] until the
    first completion). *)
val ewma_ms : handle -> float option

type stats = {
  submitted : int;  (** all [submit] calls *)
  admitted : int;  (** entered the queue *)
  completed : int;  (** resolved after dispatch (any outcome) *)
  ok : int;  (** resolved [Ok] *)
  overloaded : int;  (** shed at admission, in queue, or at drain *)
  shed_expired : int;  (** subset of [overloaded]: expired while queued *)
  timeouts : int;  (** resolved [Error Timeout] *)
  faults : int;  (** resolved [Error Runtime_fault] *)
  budget_rejects : int;  (** resolved [Error Resource_exhausted] *)
  fallbacks : int;  (** served by the reference interpreter *)
  coalesced_batches : int;  (** batched executions packing >= 2 tickets *)
  coalesced_tickets : int;  (** tickets served by those batches *)
  quota_shed : int;  (** subset of [overloaded]: over weighted-fair share *)
  queue_len : int;  (** current queue occupancy *)
  in_flight : int;  (** currently executing *)
  effective_depth : int;  (** queue depth after budget backpressure *)
  draining : bool;
  workers_live : int;  (** worker slots not currently dead *)
  open_handles : int;
      (** bound handles whose breaker is not [Closed]: their traffic goes
          to the interpreter until a half-open probe succeeds *)
}

val stats : t -> stats

(** Per-model serving state: admission tallies, residency, breaker. *)
type handle_stats = {
  hs_name : string;
  hs_weight : float;
  hs_submitted : int;
  hs_admitted : int;
  hs_ok : int;
  hs_shed : int;  (** all Overloaded outcomes charged to the model *)
  hs_quota_shed : int;  (** subset of [hs_shed]: over weighted share *)
  hs_queued : int;  (** currently queued *)
  hs_bound : bool;  (** holds a compiled target (not parked) *)
  hs_breaker : breaker_state;
  hs_ewma_ms : float option;
}

val handle_name : handle -> string
val handle_weight : handle -> float
val handle_stats : t -> handle -> handle_stats

(** {1 Lifecycle} *)

(** Stop admitting and wait for queued + in-flight work, at most
    [deadline_ms] (default 1000). Queued requests still unserved at the
    deadline are shed as [Overloaded]; in-flight requests keep their
    tickets and resolve when their (watchdog-bounded) execution ends.
    The ["slow_drain"] fault-injection site fires at the start of the
    wait. Idempotent; admission stays closed afterwards. *)
val drain : ?deadline_ms:int -> t -> unit

(** {!drain}, then stop and join the worker domains, then dump the
    {!Gc_observe.Events} flight recorder if [GC_EVENTS_DUMP] is armed.
    Idempotent. *)
val shutdown : ?drain_deadline_ms:int -> t -> unit
