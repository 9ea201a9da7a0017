(* Supervision: the self-healing tier above the kernel engine. One
   process-global monitor thread (Guard's retire-when-idle pattern) ticks
   registered components — supervised pools, serve tiers — each of which
   performs its own healing actions (reincarnation, respawn) and
   reports a typed health status. See gc_supervise.mli. *)

module Counters = Gc_observe.Counters
module Events = Gc_observe.Events
module Parallel = Gc_runtime.Parallel

(* ---- policy ----------------------------------------------------------- *)

type policy = {
  sup_enabled : bool;
  heartbeat_ms : float;
  stale_ms : float;
  grace_ms : float;
  restart_budget : int;
  restart_window_ms : float;
  backoff_base_ms : float;
  backoff_cap_ms : float;
}

let env_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some v when v > 0. -> v
  | _ -> default

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v >= 0 -> v
  | _ -> default

let env_bool name default =
  match Sys.getenv_opt name with
  | Some ("0" | "false" | "no" | "off") -> false
  | Some _ -> true
  | None -> default

let default_policy () =
  {
    sup_enabled = env_bool "GC_SUPERVISE" true;
    heartbeat_ms = env_float "GC_SUPERVISE_HEARTBEAT_MS" 5.;
    stale_ms = env_float "GC_SUPERVISE_STALE_MS" 250.;
    grace_ms = env_float "GC_SUPERVISE_GRACE_MS" 50.;
    restart_budget = env_int "GC_SUPERVISE_RESTART_BUDGET" 5;
    restart_window_ms = env_float "GC_SUPERVISE_RESTART_WINDOW_MS" 10_000.;
    backoff_base_ms = env_float "GC_SUPERVISE_BACKOFF_BASE_MS" 1.;
    backoff_cap_ms = env_float "GC_SUPERVISE_BACKOFF_CAP_MS" 50.;
  }

(* ---- health ----------------------------------------------------------- *)

type level = Healthy | Degraded | Critical

let level_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Critical -> "critical"

let worst a b =
  match (a, b) with
  | Critical, _ | _, Critical -> Critical
  | Degraded, _ | _, Degraded -> Degraded
  | Healthy, Healthy -> Healthy

type component_health = {
  ch_name : string;
  ch_level : level;
  ch_detail : string;
}

type health = { h_level : level; h_components : component_health list }

let health_to_json h =
  Gc_observe.Json.Obj
    [
      ("level", Gc_observe.Json.String (level_to_string h.h_level));
      ( "components",
        Gc_observe.Json.List
          (List.map
             (fun c ->
               Gc_observe.Json.Obj
                 [
                   ("name", Gc_observe.Json.String c.ch_name);
                   ("level", Gc_observe.Json.String (level_to_string c.ch_level));
                   ("detail", Gc_observe.Json.String c.ch_detail);
                 ])
             h.h_components) );
    ]

(* ---- component registry + monitor ------------------------------------- *)

type component = {
  c_id : int;
  c_name : string;
  c_tick : unit -> unit;
  c_status : unit -> component_health;
}

type registration = int

(* The monitor mirrors Guard's retire-when-idle contract: it must not
   outlive the components it watches, because registered components live
   in short-lived structures (a serve tier joins its worker domains at
   shutdown) and a parked-forever monitor thread would wedge the owning
   domain's termination. It retires when the registry empties; the next
   register spawns a fresh one. *)
let mon_mutex = Mutex.create ()
let components : component list ref = ref []
let monitor_started = ref false
let next_id = ref 0
let disabled_registration = -1

let monitor_interval_s () =
  (default_policy ()).heartbeat_ms /. 1000.

let monitor_loop () =
  let rec loop () =
    Mutex.lock mon_mutex;
    if !components = [] then begin
      monitor_started := false;
      Mutex.unlock mon_mutex
    end
    else begin
      (* copy the registry out before ticking: a tick may take arbitrary
         component-internal locks, and those lock owners may be calling
         [unregister] — never hold mon_mutex across a tick *)
      let cs = !components in
      Mutex.unlock mon_mutex;
      List.iter
        (fun c ->
          try c.c_tick ()
          with e ->
            Events.record ~kind:"monitor_tick_error" ~component:c.c_name
              (Printexc.to_string e))
        cs;
      Thread.delay (monitor_interval_s ());
      loop ()
    end
  in
  loop ()

let register ~name ~tick ~status =
  if not (default_policy ()).sup_enabled then disabled_registration
  else begin
    Mutex.lock mon_mutex;
    incr next_id;
    let id = !next_id in
    components :=
      { c_id = id; c_name = name; c_tick = tick; c_status = status }
      :: !components;
    if not !monitor_started then begin
      monitor_started := true;
      ignore (Thread.create monitor_loop ())
    end;
    Mutex.unlock mon_mutex;
    id
  end

let unregister id =
  if id <> disabled_registration then begin
    Mutex.lock mon_mutex;
    components := List.filter (fun c -> c.c_id <> id) !components;
    Mutex.unlock mon_mutex
  end

let health () =
  let cs = Mutex.protect mon_mutex (fun () -> !components) in
  let statuses =
    List.filter_map
      (fun c ->
        try Some (c.c_status ())
        with e ->
          Some
            {
              ch_name = c.c_name;
              ch_level = Degraded;
              ch_detail = "status error: " ^ Printexc.to_string e;
            })
      cs
  in
  {
    h_level = List.fold_left (fun acc s -> worst acc s.ch_level) Healthy statuses;
    h_components = List.rev statuses;
  }

(* ---- pool supervision -------------------------------------------------- *)

(* A pool heals for exactly two reasons (and only those — a stale
   heartbeat alone may be a legitimately long kernel, so it feeds health
   detail, never a forced reincarnation):
   - poisoned past the grace period: the abandoned job's straggler is not
     draining; without intervention every subsequent section runs inline.
   - a confirmed-dead worker domain: capacity is silently down a core for
     the life of the process otherwise. *)
let supervise_pool ?(policy = default_policy ()) ?(name = "pool") pool =
  let tick () =
    let dead = Parallel.dead_workers pool in
    let poisoned_ms = Parallel.poisoned_for pool *. 1000. in
    if dead > 0 || poisoned_ms > policy.grace_ms then begin
      if Parallel.reincarnate pool then begin
        Events.record ~kind:"pool_heal" ~component:name
          (Printf.sprintf "reincarnated: dead=%d poisoned_ms=%.1f" dead
             poisoned_ms);
        Counters.(add workers_restarted dead)
      end
    end
  in
  let status () =
    let dead = Parallel.dead_workers pool in
    let poisoned_ms = Parallel.poisoned_for pool *. 1000. in
    if Parallel.is_poisoned pool then
      {
        ch_name = name;
        ch_level = Degraded;
        ch_detail =
          Printf.sprintf "poisoned for %.1fms (epoch %d)" poisoned_ms
            (Parallel.epoch pool);
      }
    else if dead > 0 then
      {
        ch_name = name;
        ch_level = Degraded;
        ch_detail =
          Printf.sprintf "%d dead worker(s) awaiting reincarnation" dead;
      }
    else
      {
        ch_name = name;
        ch_level = Healthy;
        ch_detail =
          Printf.sprintf "epoch %d, %d workers" (Parallel.epoch pool)
            (Parallel.size pool);
      }
  in
  register ~name ~tick ~status

(* ---- respawn backoff --------------------------------------------------- *)

(* Decorrelated jitter (also the serve retry ladder's spacing): each delay
   is uniform in [base, 3 * previous], capped — consecutive respawns of a
   flapping worker spread out instead of synchronizing into a storm. *)
let next_backoff_ms ~policy ~prev =
  let lo = policy.backoff_base_ms in
  let hi = Float.max lo (Float.min policy.backoff_cap_ms (3. *. prev)) in
  lo +. Random.float (Float.max 1e-9 (hi -. lo))
