(** An always-on, bounded flight recorder for supervision and degradation
    events: worker restarts, pool reincarnations, circuit-breaker opens
    and closes, poisoned-pool inline runs. Complements {!Counters} (how many)
    with ordered, stamped detail (what, when, to which component).

    Process-global and lock-protected; events are rare — every recording
    site sits on an error/supervision path, never the per-kernel hot
    path. The ring keeps the most recent {!capacity} events. *)

type event = {
  ev_ts : float;  (** wall clock ([Unix.gettimeofday]) at record time *)
  ev_kind : string;  (** e.g. ["worker_restart"], ["pool_reincarnate"] *)
  ev_component : string;  (** e.g. ["pool"], ["serve:w3"], handle name *)
  ev_detail : string;  (** free-form human-readable context *)
}

val capacity : int

(** [record ~kind ~component detail] appends an event, evicting the oldest
    when the ring is full. *)
val record : kind:string -> component:string -> string -> unit

(** Total events ever recorded since start / last {!clear} (may exceed
    {!capacity}; the difference is the evicted count). *)
val recorded : unit -> int

(** The buffered tail, oldest first; [limit] caps the count (default all
    buffered). *)
val recent : ?limit:int -> unit -> event list

val clear : unit -> unit
val event_to_json : event -> Json.t
val to_json : ?limit:int -> unit -> Json.t

(** {2 Post-mortem dump}

    [GC_EVENTS_DUMP=path] arms an automatic flight-recorder dump: the
    buffered ring is written to [path] as one JSON document (schema
    ["gc-events/1"], atomic tmp+rename) from an [at_exit] hook — which
    OCaml runs on orderly exit {e and} after an uncaught exception, so
    graceful shutdowns and fatal error paths both leave a post-mortem.
    The serving/registry shutdown paths also dump explicitly, so a
    long-lived process that drains a tier mid-life persists the tier's
    incident history without exiting. *)

(** The armed dump path ([GC_EVENTS_DUMP]; [None] when unset/blank). *)
val dump_path : unit -> string option

(** [dump ?path ()] writes the ring now. [path] defaults to
    {!dump_path}; [None] is returned when no path is armed or the write
    failed (a failing post-mortem never raises), [Some file] on
    success. *)
val dump : ?path:string -> unit -> string option
