(** Multi-model registry: fault-isolated tenancy over one serve tier.

    The serve tier ([Gc_serve]) gives each registered handle its own
    circuit breaker, supervision health and weighted-fair
    admission share — but it manages {e handles}, not {e models}: nothing
    owns the compiled artifact's lifecycle. This module adds that layer:

    - {b Named models} with versions: {!load}, {!hot_swap}, {!retire}.
      A hot swap whose new graph fingerprints identically to the bound
      artifact takes the cheap weights-swap path
      ([Core.invalidate_constants] behind the live handle — the next
      execution re-runs one-time constant preprocessing); a structural
      change compiles the new artifact first and flips the handle
      atomically ({!Gc_serve.rebind}), so traffic never observes a
      half-swapped model.
    - {b Budget-aware residency}: every resident model pins its
      compile-cache entry ([Core.compile_cached ~pin:true]), whose
      estimated bytes are charged against the [Memgov] ledger. When a
      compile hits [Resource_exhausted], the registry parks the
      least-recently-used {e idle} tenant (unbind, unpin, evict its
      cache entry, run a major GC so finalizer-released buffers actually
      return bytes) and retries — so a budget sized for ~2 resident
      models serves a wider zipf mix through eviction and lazy
      recompile, and the pressure never surfaces to a client whose
      deadline still holds.
    - {b Lazy re-admission}: submitting to a {!Parked} model recompiles
      through the cache (hits if the entry survived) and rebinds before
      admission.
    - {b Fault isolation}: each model's faults (crash loops, breaker
      trips) are scoped to its own handle by the serve tier; the registry
      folds per-model states into one supervision component
      (["registry"], [Degraded] while any resident model's breaker is not
      [Closed]).

    Locking: each model has a flight lock serializing its residency
    transitions, taken before the registry mutex and before any serve
    lock; cross-model parking uses [try_lock] on the victim's flight
    lock (skipping busy victims), so concurrent reloads that park each
    other's tenants cannot deadlock.

    The registry manages monomorphic models. Shape-polymorphic handles
    ([Gc_serve.register_poly]) remain direct serve-tier clients — their
    in-flight specializations pin their own cache entries. *)

module Errors = Core.Errors

type t

(** [Resident]: compiled, pinned in the cache, handle bound.
    [Parked]: evicted under budget pressure (or {!park}); the handle
    survives and the next {!submit} re-admits lazily.
    [Retired]: permanently removed; the name may be {!load}ed anew. *)
type status = Resident | Parked | Retired

val status_string : status -> string

(** [create ()] builds a registry over its own serve server ([?config]
    forwarded to {!Gc_serve.create}) — or over [?server], whose lifecycle
    then stays the caller's. Registers the ["registry"] supervision
    component when supervision is enabled. *)
val create : ?config:Gc_serve.config -> ?server:Gc_serve.t -> unit -> t

val server : t -> Gc_serve.t

(** {1 Lifecycle} *)

(** [load t ~name graph] compiles (pinned, budget-charged, parking idle
    LRU tenants on pressure) and registers the model. [weight] is its
    weighted-fair admission share. Errors: name already live
    ([Invalid_input]), compile failure, or [Resource_exhausted] when
    nothing is left to park. A failed load publishes nothing. *)
val load :
  ?weight:float ->
  ?config:Core.config ->
  t ->
  name:string ->
  Core.Graph.t ->
  (unit, Errors.error) result

(** [hot_swap t ~name graph] replaces the model's graph, bumping its
    version. Same fingerprint and resident: constants-invalidation
    behind the live handle. Otherwise: compile-then-rebind; the old
    cache entry is unpinned and evicted. [config] defaults to the
    model's load-time config (note: a config change always fingerprints
    differently, hence always structural). *)
val hot_swap :
  ?config:Core.config ->
  t ->
  name:string ->
  Core.Graph.t ->
  (unit, Errors.error) result

(** Unregister the model's handle and release its residency. Idempotent;
    [false] when the name is unknown or already retired. *)
val retire : t -> string -> bool

(** Voluntarily evict an idle resident model (the same transition budget
    pressure takes). [false] if unknown, not resident, mid-transition,
    or it has queued work. *)
val park : t -> string -> bool

(** {1 Serving} *)

(** [submit t name bindings] ensures residency (lazily recompiling a
    parked model) and admits the request under the model's quota.
    [Error] only for registry-level refusals (unknown/retired model,
    reload failure); admission-level shedding resolves the {e ticket}
    with [Error (Overloaded _)] as usual. *)
val submit :
  ?deadline_ms:int ->
  t ->
  string ->
  (Core.Logical_tensor.t * Core.Tensor.t) list ->
  (Gc_serve.ticket, Errors.error) result

(** Submit + await, flattened. *)
val call :
  ?deadline_ms:int ->
  t ->
  string ->
  (Core.Logical_tensor.t * Core.Tensor.t) list ->
  Gc_serve.outcome

(** {1 Introspection} *)

type model_info = {
  mi_name : string;
  mi_status : status;
  mi_version : int;
  mi_weight : float;
  mi_cache_key : string;  (** compile-cache fingerprint *)
  mi_serve : Gc_serve.handle_stats;
}

(** Registered names (including retired), sorted. *)
val names : t -> string list

val status_of : t -> string -> status option
val version : t -> string -> int option
val model_info : t -> string -> model_info option

(** The folded ["registry"] supervision component status (also what the
    supervisor polls). *)
val health : t -> Gc_supervise.component_health

(** Per-model JSON object keyed by name — status, version, weight,
    serve-tier tallies and breaker state ([closed], [open] or
    [half_open]). Feeds [gc_cli health]. *)
val to_json : t -> Gc_observe.Json.t

(** Retire every model, drop the supervision component, and (when the
    registry owns its server) drain and stop the serve tier. *)
val shutdown : ?drain_deadline_ms:int -> t -> unit
