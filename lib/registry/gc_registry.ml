(* Multi-model registry with fault-isolated tenancy. See gc_registry.mli.

   Locking: [rg_mu] guards the model table and every model's status
   fields; each model additionally has a flight lock serializing its own
   residency transitions (load, swap, park, reload), taken BEFORE rg_mu
   and never while holding another model's flight lock — cross-model
   parking uses try_lock, so two models reloading and parking each other
   cannot deadlock, they just skip the busy victim. Compiles run under
   the flight lock but outside rg_mu, so one model's recompile never
   blocks another model's lookups or submissions. *)

module Errors = Core.Errors
module Counters = Gc_observe.Counters
module Events = Gc_observe.Events
module Labels = Gc_observe.Labels
module Json = Gc_observe.Json
module Memgov = Gc_tensor.Memgov
module Supervise = Gc_supervise

type status = Resident | Parked | Retired

let status_string = function
  | Resident -> "resident"
  | Parked -> "parked"
  | Retired -> "retired"

type model = {
  md_name : string;
  md_weight : float;
  md_config : Core.config;
  md_handle : Gc_serve.handle;
  md_flight : Mutex.t;
  mutable md_graph : Core.Graph.t;
  mutable md_key : string;  (* fingerprint of the current graph+config *)
  mutable md_core : Core.t option;  (* the bound artifact while Resident *)
  mutable md_version : int;
  mutable md_status : status;
  mutable md_last_used : float;  (* LRU stamp for park-victim selection *)
}

type t = {
  rg_mu : Mutex.t;
  rg_server : Gc_serve.t;
  rg_owns_server : bool;
  rg_models : (string, model) Hashtbl.t;
  mutable rg_sup : Supervise.registration option;
  mutable rg_closed : bool;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let now () = Unix.gettimeofday ()

(* One model lifecycle event: its global counter, the model's [Labels]
   family and an [Events] record move together. *)
let note counter ~label ~kind name detail =
  Counters.incr counter;
  Labels.incr ~label:name label;
  Events.record ~kind ~component:name detail

let server t = t.rg_server

(* {2 Supervision: fold per-model health into one component} *)

let registry_status t =
  let models =
    locked t.rg_mu (fun () ->
        Hashtbl.fold (fun _ m acc -> m :: acc) t.rg_models [])
  in
  (* each live model with its breaker state, [None] unless it is resident
     and not Closed *)
  let live =
    List.filter_map
      (fun m ->
        match m.md_status with
        | Retired -> None
        | Parked -> Some (m, None)
        | Resident -> (
            match Gc_serve.breaker_state m.md_handle with
            | Gc_serve.Closed -> Some (m, None)
            | st -> Some (m, Some st)))
      models
  in
  let opened = List.filter (fun (_, st) -> st <> None) live in
  let parked = List.filter (fun (m, _) -> m.md_status = Parked) live in
  let per_model =
    String.concat " "
      (List.map
         (fun (m, st) ->
           Printf.sprintf "%s=%s%s" m.md_name
             (status_string m.md_status)
             (match st with
             | Some st -> "(" ^ Gc_serve.breaker_state_to_string st ^ ")"
             | None -> ""))
         (List.sort (fun (a, _) (b, _) -> compare a.md_name b.md_name) live))
  in
  let level = if opened <> [] then Supervise.Degraded else Supervise.Healthy in
  {
    Supervise.ch_name = "registry";
    ch_level = level;
    ch_detail =
      Printf.sprintf "%d model(s), %d parked, %d open%s"
        (List.length live) (List.length parked) (List.length opened)
        (if per_model = "" then "" else ": " ^ per_model);
  }

let create ?config ?server () =
  let rg_server, rg_owns_server =
    match server with
    | Some s -> (s, false)
    | None -> (Gc_serve.create ?config (), true)
  in
  let t =
    {
      rg_mu = Mutex.create ();
      rg_server;
      rg_owns_server;
      rg_models = Hashtbl.create 8;
      rg_sup = None;
      rg_closed = false;
    }
  in
  if (Supervise.default_policy ()).Supervise.sup_enabled then
    t.rg_sup <-
      Some
        (Supervise.register ~name:"registry"
           ~tick:(fun () -> ())
           ~status:(fun () -> registry_status t));
  t

(* {2 Residency} *)

let find_opt t name =
  locked t.rg_mu (fun () -> Hashtbl.find_opt t.rg_models name)

let unknown_model name =
  Errors.Invalid_input
    { what = "unknown model"; ctx = [ ("model", name) ] }

let retired_model name =
  Errors.Invalid_input
    { what = "model is retired"; ctx = [ ("model", name) ] }

(* Park one idle Resident victim, LRU by last use, skipping [excluding]
   and any model whose flight lock is busy (it is mid-transition; parking
   it would deadlock or race). Returns whether a victim was parked. The
   idleness check (nothing queued) makes parking invisible to admitted
   traffic: in-flight executes keep the old artifact alive through their
   own references. *)
let park_victim t ~excluding =
  let candidates =
    locked t.rg_mu (fun () ->
        Hashtbl.fold
          (fun _ m acc ->
            if m.md_status = Resident && m.md_name <> excluding then m :: acc
            else acc)
          t.rg_models [])
  in
  let by_lru =
    List.sort (fun a b -> compare a.md_last_used b.md_last_used) candidates
  in
  let rec try_park = function
    | [] -> false
    | m :: rest ->
        if Mutex.try_lock m.md_flight then begin
          let parked =
            Fun.protect
              ~finally:(fun () -> Mutex.unlock m.md_flight)
              (fun () ->
                let hs = Gc_serve.handle_stats t.rg_server m.md_handle in
                if m.md_status = Resident && hs.Gc_serve.hs_queued = 0 then begin
                  Gc_serve.unbind t.rg_server m.md_handle;
                  m.md_core <- None;
                  Core.Compile_cache.unpin m.md_key;
                  ignore (Core.Compile_cache.evict_key m.md_key);
                  locked t.rg_mu (fun () -> m.md_status <- Parked);
                  note Counters.models_parked ~label:"parked" ~kind:"model_park" m.md_name
                    "evicted from residency under memory-budget pressure";
                  true
                end
                else false)
          in
          if parked then true else try_park rest
        end
        else try_park rest
  in
  try_park by_lru

(* Compile a graph into residency through the cache, taking a pin.
   Budget pressure is absorbed by parking idle LRU tenants (then running
   a major GC so their finalizer-released buffers actually return bytes)
   and retrying; [Resource_exhausted] escapes only when there is nothing
   left to park. *)
let rec compile_pinned t ~excluding ~config graph =
  match Core.compile_cached ~config ~pin:true graph with
  | core -> core
  | exception (Errors.Error (Errors.Resource_exhausted _) as e) ->
      if park_victim t ~excluding then begin
        Gc.full_major ();
        compile_pinned t ~excluding ~config graph
      end
      else raise e

let compile_into_residency t m =
  compile_pinned t ~excluding:m.md_name ~config:m.md_config m.md_graph

(* Pinned entries are invisible to the cache's own LRU eviction, so when
   resident models alone push the cache over its byte bound
   ([GC_CACHE_MAX_BYTES]) the bound can only be restored by giving up
   residency: park idle LRU tenants (which unpins and evicts their
   entries) until the cache fits again or nothing parkable remains.
   Called after every transition into residency. *)
let enforce_cache_bound t ~excluding =
  match Core.Compile_cache.max_bytes () with
  | None -> ()
  | Some cap ->
      let over () =
        (Core.Compile_cache.stats ()).Core.Compile_cache.resident_bytes > cap
      in
      let rec go budget =
        if budget > 0 && over () && park_victim t ~excluding then
          go (budget - 1)
      in
      go 16

(* Make [m] Resident. Caller holds [m.md_flight]. *)
let ensure_resident_flight t m =
  match locked t.rg_mu (fun () -> m.md_status) with
  | Retired -> Error (retired_model m.md_name)
  | Resident -> Ok ()
  | Parked -> (
      match compile_into_residency t m with
      | core ->
          Gc_serve.rebind t.rg_server m.md_handle (Core.Fixed core);
          m.md_core <- Some core;
          locked t.rg_mu (fun () -> m.md_status <- Resident);
          note Counters.models_reloaded ~label:"reloaded" ~kind:"model_reload" m.md_name
            "re-admitted via lazy recompile through the compile cache";
          enforce_cache_bound t ~excluding:m.md_name;
          Ok ()
      | exception Errors.Error e -> Error e
      | exception e ->
          Error (Errors.classify ~site:"registry.reload" e))

(* {2 Lifecycle} *)

let closed_error () =
  Errors.Invalid_input { what = "registry is shut down"; ctx = [] }

let load ?(weight = 1.) ?config t ~name graph =
  let config =
    match config with Some c -> c | None -> Core.default_config ()
  in
  if locked t.rg_mu (fun () -> t.rg_closed) then Error (closed_error ())
  else
    let live_exists =
      match find_opt t name with
      | Some m -> locked t.rg_mu (fun () -> m.md_status) <> Retired
      | None -> false
    in
    if live_exists then
      Error
        (Errors.Invalid_input
           {
             what = "model already loaded (use hot_swap)";
             ctx = [ ("model", name) ];
           })
    else
      (* compile first so a failed load publishes nothing; a retired name
         is revived under a fresh record (new handle, version restarts) *)
      match compile_pinned t ~excluding:name ~config graph with
      | core ->
          let handle =
            Gc_serve.register ~name ~weight t.rg_server (Core.Fixed core)
          in
          let m =
            {
              md_name = name;
              md_weight = weight;
              md_config = config;
              md_handle = handle;
              md_flight = Mutex.create ();
              md_graph = graph;
              md_key = Core.fingerprint ~config graph;
              md_core = Some core;
              md_version = 1;
              md_status = Resident;
              md_last_used = now ();
            }
          in
          locked t.rg_mu (fun () -> Hashtbl.replace t.rg_models name m);
          note Counters.models_loaded ~label:"loaded" ~kind:"model_load" name
            (Printf.sprintf "version 1, weight %.2f" weight);
          enforce_cache_bound t ~excluding:name;
          Ok ()
      | exception Errors.Error e -> Error e
      | exception e -> Error (Errors.classify ~site:"registry.load" e)

let retire t name =
  match find_opt t name with
  | None -> false
  | Some m ->
      Mutex.lock m.md_flight;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock m.md_flight)
        (fun () ->
          let was =
            locked t.rg_mu (fun () ->
                let was = m.md_status in
                m.md_status <- Retired;
                was)
          in
          if was = Retired then false
          else begin
            if was = Resident then begin
              Gc_serve.unbind t.rg_server m.md_handle;
              m.md_core <- None;
              Core.Compile_cache.unpin m.md_key;
              ignore (Core.Compile_cache.evict_key m.md_key)
            end;
            Gc_serve.unregister t.rg_server m.md_handle;
            note Counters.models_retired ~label:"retired" ~kind:"model_retire" name
              (Printf.sprintf "version %d retired" m.md_version);
            true
          end)

let hot_swap ?config t ~name graph =
  match find_opt t name with
  | None -> Error (unknown_model name)
  | Some m ->
      Mutex.lock m.md_flight;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock m.md_flight)
        (fun () ->
          if locked t.rg_mu (fun () -> m.md_status) = Retired then
            Error (retired_model name)
          else begin
            let config = Option.value config ~default:m.md_config in
            let new_key = Core.fingerprint ~config graph in
            let same_artifact =
              new_key = m.md_key
              && locked t.rg_mu (fun () -> m.md_status) = Resident
            in
            if same_artifact then begin
              (* the weights-swap path: same compiled structure, updated
                 runtime-constant contents. A cache hit re-keys the shared
                 artifact to the NEW graph's logical tensors (so bindings
                 against the new graph resolve), then we drop the derived
                 constant state — the next execute re-runs the one-time
                 init against the new weights. The extra pin from the hit
                 is released against the old residency pin: net one. *)
              let core = Core.compile_cached ~config ~pin:true graph in
              Core.Compile_cache.unpin m.md_key;
              Core.invalidate_constants core;
              Gc_serve.rebind t.rg_server m.md_handle (Core.Fixed core);
              m.md_core <- Some core;
              m.md_graph <- graph;
              locked t.rg_mu (fun () ->
                  m.md_version <- m.md_version + 1);
              note Counters.hot_swaps ~label:"hot_swap" ~kind:"hot_swap" name
                (Printf.sprintf
                   "version %d: constants invalidated behind the live handle"
                   m.md_version);
              Ok ()
            end
            else begin
              (* structural swap: compile the new artifact, then flip the
                 handle atomically and release the old pin *)
              let old_key = m.md_key in
              let was_resident =
                locked t.rg_mu (fun () -> m.md_status) = Resident
              in
              match compile_pinned t ~excluding:name ~config graph with
              | core ->
                  Gc_serve.rebind t.rg_server m.md_handle (Core.Fixed core);
                  m.md_core <- Some core;
                  m.md_graph <- graph;
                  m.md_key <- new_key;
                  if was_resident then begin
                    Core.Compile_cache.unpin old_key;
                    ignore (Core.Compile_cache.evict_key old_key)
                  end;
                  locked t.rg_mu (fun () ->
                      m.md_status <- Resident;
                      m.md_version <- m.md_version + 1);
                  note Counters.hot_swaps ~label:"hot_swap" ~kind:"hot_swap" name
                    (Printf.sprintf "version %d: new artifact bound"
                       m.md_version);
                  enforce_cache_bound t ~excluding:name;
                  Ok ()
              | exception Errors.Error e -> Error e
              | exception e ->
                  Error (Errors.classify ~site:"registry.hot_swap" e)
            end
          end)

(* {2 Serving} *)

let submit ?deadline_ms t name bindings =
  match find_opt t name with
  | None -> Error (unknown_model name)
  | Some m ->
      (* The flight lock covers ensure-resident AND admission, so a
         concurrent parker (which try_locks the flight) cannot unbind
         between the residency check and the queue push. Admission never
         blocks on execution, so the hold is short. *)
      Mutex.lock m.md_flight;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock m.md_flight)
        (fun () ->
          locked t.rg_mu (fun () -> m.md_last_used <- now ());
          match ensure_resident_flight t m with
          | Error e -> Error e
          | Ok () ->
              Ok (Gc_serve.submit ?deadline_ms t.rg_server m.md_handle bindings))

let call ?deadline_ms t name bindings =
  match submit ?deadline_ms t name bindings with
  | Error e -> Error e
  | Ok ticket -> Gc_serve.await ticket

let park t name =
  match find_opt t name with
  | None -> false
  | Some m ->
      if not (Mutex.try_lock m.md_flight) then false
      else
        Fun.protect
          ~finally:(fun () -> Mutex.unlock m.md_flight)
          (fun () ->
            let hs = Gc_serve.handle_stats t.rg_server m.md_handle in
            if
              locked t.rg_mu (fun () -> m.md_status) = Resident
              && hs.Gc_serve.hs_queued = 0
            then begin
              Gc_serve.unbind t.rg_server m.md_handle;
              m.md_core <- None;
              Core.Compile_cache.unpin m.md_key;
              ignore (Core.Compile_cache.evict_key m.md_key);
              locked t.rg_mu (fun () -> m.md_status <- Parked);
              note Counters.models_parked ~label:"parked" ~kind:"model_park" name
                "parked on request";
              true
            end
            else false)

(* {2 Introspection} *)

type model_info = {
  mi_name : string;
  mi_status : status;
  mi_version : int;
  mi_weight : float;
  mi_cache_key : string;
  mi_serve : Gc_serve.handle_stats;
}

let names t =
  locked t.rg_mu (fun () ->
      List.sort compare
        (Hashtbl.fold (fun n _ acc -> n :: acc) t.rg_models []))

let status_of t name =
  Option.map
    (fun m -> locked t.rg_mu (fun () -> m.md_status))
    (find_opt t name)

let version t name =
  Option.map
    (fun m -> locked t.rg_mu (fun () -> m.md_version))
    (find_opt t name)

let model_info t name =
  Option.map
    (fun m ->
      let status, version =
        locked t.rg_mu (fun () -> (m.md_status, m.md_version))
      in
      {
        mi_name = m.md_name;
        mi_status = status;
        mi_version = version;
        mi_weight = m.md_weight;
        mi_cache_key = m.md_key;
        mi_serve = Gc_serve.handle_stats t.rg_server m.md_handle;
      })
    (find_opt t name)

let health t = registry_status t

let to_json t =
  let infos = List.filter_map (model_info t) (names t) in
  Json.Obj
    (List.map
       (fun i ->
         let s = i.mi_serve in
         ( i.mi_name,
           Json.Obj
             [
               ("status", Json.String (status_string i.mi_status));
               ("version", Json.Int i.mi_version);
               ("weight", Json.Float i.mi_weight);
               ("submitted", Json.Int s.Gc_serve.hs_submitted);
               ("admitted", Json.Int s.Gc_serve.hs_admitted);
               ("ok", Json.Int s.Gc_serve.hs_ok);
               ("shed", Json.Int s.Gc_serve.hs_shed);
               ("quota_shed", Json.Int s.Gc_serve.hs_quota_shed);
               ("queued", Json.Int s.Gc_serve.hs_queued);
               ("bound", Json.Bool s.Gc_serve.hs_bound);
               ( "breaker",
                 Json.String
                   (Gc_serve.breaker_state_to_string s.Gc_serve.hs_breaker) );
             ] ))
       infos)

let shutdown ?drain_deadline_ms t =
  let already = locked t.rg_mu (fun () -> t.rg_closed) in
  if not already then begin
    locked t.rg_mu (fun () -> t.rg_closed <- true);
    List.iter (fun n -> ignore (retire t n)) (names t);
    (match t.rg_sup with
    | Some reg ->
        t.rg_sup <- None;
        Supervise.unregister reg
    | None -> ());
    if t.rg_owns_server then Gc_serve.shutdown ?drain_deadline_ms t.rg_server
  end
