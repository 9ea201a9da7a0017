(** Supervision: the self-healing tier above the kernel engine.

    PR-4/PR-5 resilience {e contains} faults — a poisoned pool degrades to
    inline execution, a dead serve worker shrinks capacity, a faulting
    specialization leans on the breaker's interpreter fallback — but
    nothing ever {e heals}. This module adds the supervisory layer that
    production compiler runtimes assume: one process-global monitor thread
    ticks registered components, each of which takes its own healing
    actions (pool reincarnation via {!Gc_runtime.Parallel.reincarnate},
    worker respawn in [Gc_serve]) and reports a typed
    health status, folded into a process {!health} snapshot.

    The monitor reuses the {!Gc_runtime.Guard} retire-when-idle contract:
    it exits when the component registry empties (so joining a domain that
    registered components cannot wedge on a parked monitor thread) and is
    respawned by the next {!register}.

    Everything is tunable via [GC_SUPERVISE_*] environment variables and
    inert when [GC_SUPERVISE=0] ({!register} becomes a no-op). *)

(** {2 Policy} *)

type policy = {
  sup_enabled : bool;  (** [GC_SUPERVISE] (default on) *)
  heartbeat_ms : float;
      (** monitor tick interval, [GC_SUPERVISE_HEARTBEAT_MS] (default 5) *)
  stale_ms : float;
      (** a {e busy} worker whose heartbeat is older than this is stuck,
          [GC_SUPERVISE_STALE_MS] (default 250) *)
  grace_ms : float;
      (** how long a pool may stay poisoned before reincarnation,
          [GC_SUPERVISE_GRACE_MS] (default 50) *)
  restart_budget : int;
      (** max respawns per worker slot per window before the tier reports
          [Degraded] instead of respawning,
          [GC_SUPERVISE_RESTART_BUDGET] (default 5) *)
  restart_window_ms : float;
      (** the sliding window for the restart budget,
          [GC_SUPERVISE_RESTART_WINDOW_MS] (default 10000) *)
  backoff_base_ms : float;
      (** respawn (and serve retry) backoff floor,
          [GC_SUPERVISE_BACKOFF_BASE_MS] (default 1) *)
  backoff_cap_ms : float;
      (** respawn (and serve retry) backoff ceiling,
          [GC_SUPERVISE_BACKOFF_CAP_MS] (default 50) *)
}

(** Policy from the environment (defaults above). Re-read on each call. *)
val default_policy : unit -> policy

(** {2 Health} *)

type level = Healthy | Degraded | Critical

val level_to_string : level -> string

(** The worse of two levels. *)
val worst : level -> level -> level

type component_health = {
  ch_name : string;
  ch_level : level;
  ch_detail : string;  (** human-readable cause, e.g. ["poisoned for 80ms"] *)
}

type health = { h_level : level; h_components : component_health list }

(** Fold every registered component's status; [Healthy] with no components
    when nothing is registered (or supervision is disabled). *)
val health : unit -> health

val health_to_json : health -> Gc_observe.Json.t

(** {2 Component registry} *)

type registration

(** [register ~name ~tick ~status] adds a supervised component: [tick] is
    invoked by the monitor thread every {!policy.heartbeat_ms} and takes
    the component's healing actions; [status] reports its health on
    demand. Spawns the monitor if it is not running. No-op (returning a
    dummy registration) when supervision is disabled. [tick] runs on the
    monitor thread — it must not block for long and must take no lock
    that is held while calling {!register}/{!unregister}. *)
val register :
  name:string ->
  tick:(unit -> unit) ->
  status:(unit -> component_health) ->
  registration

(** Remove a component. The monitor retires once the registry is empty.
    Unregister {b before} joining domains the callbacks touch. *)
val unregister : registration -> unit

(** {2 Prefab supervision} *)

(** [supervise_pool pool] registers the two-trigger healing rule for a
    parallel pool: reincarnate when poisoned past [grace_ms] or when a
    worker domain is confirmed dead. A stale heartbeat alone never forces
    reincarnation (it may be a legitimately long kernel) — it only shows
    up in health detail. Unregister before [Parallel.shutdown]. *)
val supervise_pool :
  ?policy:policy -> ?name:string -> Gc_runtime.Parallel.t -> registration

(** {2 Backoff} *)

(** [next_backoff_ms ~policy ~prev] — decorrelated jitter: uniform in
    [[base, min cap (3 * prev)]]. Consecutive respawns of a flapping
    worker spread out instead of synchronizing into a spawn storm, and
    [Gc_serve] spaces its [Runtime_fault] retries with the same call under
    its [supervision] policy. Draws from the calling domain's default
    [Random] state. *)
val next_backoff_ms : policy:policy -> prev:float -> float
