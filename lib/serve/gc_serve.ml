(* Overload-protected serving layer. See gc_serve.mli for the contract.

   Concurrency picture: one server mutex guards the queue, the admission
   flags and the stats; each ticket has its own mutex + condvar; each
   handle has its own mutex for the latency EWMA and breaker state.
   Workers are domains (requests execute real kernels in parallel);
   clients may be systhreads or domains — they only ever block on a
   ticket condvar. Lock order is strictly server -> ticket / handle,
   never nested the other way, so no ordering cycles exist. *)

module Errors = Core.Errors
module Counters = Gc_observe.Counters
module Events = Gc_observe.Events
module Memgov = Gc_tensor.Memgov
module Dim = Gc_graph_ir.Dim
module Supervise = Gc_supervise

type config = {
  queue_depth : int;
  workers : int;
  default_deadline_ms : int option;
  max_retries : int;
  breaker_threshold : int;
  breaker_cooldown_ms : float;
  ewma_alpha : float;
  safety_factor : float;
  sanitize_outputs : bool;
  coalesce_window_ms : float;
  max_coalesce : int;
  quota_borrow : float;
  supervision : Supervise.policy;
}

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v -> v
  | None -> default

let env_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some v -> v
  | None -> default

let env_int_opt name =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v >= 1 -> Some v
  | _ -> None

let default_config () =
  {
    queue_depth = env_int "GC_SERVE_QUEUE_DEPTH" 16;
    workers = env_int "GC_SERVE_WORKERS" 2;
    default_deadline_ms = env_int_opt "GC_SERVE_DEADLINE_MS";
    max_retries = env_int "GC_SERVE_MAX_RETRIES" 2;
    breaker_threshold = env_int "GC_SERVE_BREAKER_THRESHOLD" 5;
    breaker_cooldown_ms =
      float_of_int (env_int "GC_SERVE_BREAKER_COOLDOWN_MS" 100);
    ewma_alpha = 0.2;
    safety_factor = 1.5;
    sanitize_outputs = false;
    coalesce_window_ms =
      float_of_int (env_int "GC_SERVE_COALESCE_MS" 0) (* 0 = off *);
    max_coalesce = env_int "GC_SERVE_MAX_COALESCE" 8;
    quota_borrow = env_float "GC_SERVE_QUOTA_BORROW" 0.5;
    supervision = Supervise.default_policy ();
  }

type outcome = (Core.Tensor.t list, Core.Errors.error) result

type ticket = {
  tk_mu : Mutex.t;
  tk_cv : Condition.t;
  mutable tk_result : outcome option;
}

type breaker_state = Closed | Open | Half_open

(* What a bound handle executes: a compiled artifact of either kind, plus
   its coalescing symbol — the batch-like symbol of a poly artifact along
   which in-flight requests may be concatenated into one execution — or
   [None] when the artifact's shape doesn't admit coalescing (see
   [coalesce_sym_of]). *)
type target = { art : Core.artifact; coalesce_sym : string option }

type handle = {
  h_name : string;
  mutable h_target : target option;
      (* guarded by h_mu; rebind on hot-swap/park. [None] is a parked
         model: the registry dropped the artifact under budget pressure
         and will rebind on re-admission; traffic meanwhile resolves
         [Invalid_input] (the registry's residency path prevents it). *)
  h_weight : float;  (* weighted-fair admission share (immutable) *)
  h_mu : Mutex.t;
  mutable h_ewma_ms : float option;
  mutable h_consec_fb : int;  (* consecutive fallbacks-to-interpreter *)
  mutable h_state : breaker_state;
  mutable h_opened_at : float;  (* when the breaker last tripped open *)
  (* per-model admission tallies (all guarded by t.mu) *)
  mutable h_queued : int;  (* requests of this handle currently queued *)
  mutable h_submitted : int;
  mutable h_admitted : int;
  mutable h_ok : int;
  mutable h_shed : int;  (* all Overloaded outcomes charged to the model *)
  mutable h_quota_shed : int;  (* subset of h_shed: over weighted share *)
  mutable h_registered : bool;  (* counts toward the fair-share total *)
}

type request = {
  rq_handle : handle;
  rq_bindings : (Core.Logical_tensor.t * Core.Tensor.t) list;
  rq_deadline : float option;  (* absolute, Unix.gettimeofday seconds *)
  rq_deadline_ms : int option;  (* the original relative deadline *)
  rq_env : (string * int) list option;
      (* resolved symbol environment of a poly request (its shape class);
         [None] for mono handles or unresolvable bindings *)
  rq_ticket : ticket;
}

(* One worker slot: the supervision unit. The domain occupying a slot can
   die (respawned under the restart budget) or be superseded (a stuck
   domain is signalled out via the slot epoch and replaced). Heartbeat /
   busy / epoch are atomics so the monitor reads them without the server
   lock; restart bookkeeping is guarded by [t.mu]. *)
type wslot = {
  ws_idx : int;
  mutable ws_domain : unit Domain.t option;  (* guarded by t.mu *)
  ws_beat : float Atomic.t;  (* wall-clock heartbeat stamp *)
  ws_busy : bool Atomic.t;  (* processing a request right now *)
  ws_epoch : int Atomic.t;  (* supersession signal: mismatched worker exits *)
  ws_dead : bool Atomic.t;  (* the occupying domain exited uncleanly *)
  mutable ws_restarts : float list;  (* respawn stamps inside the window *)
  mutable ws_backoff_ms : float;  (* decorrelated-jitter backoff state *)
  mutable ws_next_respawn : float;  (* earliest wall clock for a respawn *)
  mutable ws_budget_logged : bool;  (* exhaustion event recorded once *)
  mutable ws_stuck_logged : bool;  (* staleness counted once per episode *)
}

type t = {
  cfg : config;
  mu : Mutex.t;
  cv_work : Condition.t;  (* workers park here when the queue is empty *)
  queue : request Queue.t;
  mutable accepting : bool;
  mutable stopping : bool;  (* workers exit once true and queue is empty *)
  mutable in_flight : int;
  mutable slots : wslot array;
  mutable zombies : unit Domain.t list;
      (* dead or superseded worker domains, joined at shutdown *)
  mutable handles : handle list;  (* registered handles, for tier health *)
  mutable sup_reg : Supervise.registration option;
  mutable next_handle : int;
  (* stats (all guarded by [mu]) *)
  mutable s_submitted : int;
  mutable s_admitted : int;
  mutable s_completed : int;
  mutable s_ok : int;
  mutable s_overloaded : int;
  mutable s_shed_expired : int;
  mutable s_timeouts : int;
  mutable s_faults : int;
  mutable s_budget_rejects : int;
  mutable s_fallbacks : int;
  mutable s_coalesced_batches : int;
  mutable s_coalesced_tickets : int;
  mutable s_quota_shed : int;
  mutable total_weight : float;  (* sum of registered handles' weights *)
}

let now () = Unix.gettimeofday ()

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* {2 Tickets} *)

let new_ticket () =
  { tk_mu = Mutex.create (); tk_cv = Condition.create (); tk_result = None }

(* Double resolutions ever observed, process-wide. Resolve-twice is
   harmless by construction (first result wins) but must also never
   happen while supervision kills, supersedes and respawns workers — the
   health bench pins this at zero. *)
let c_double_resolves = Atomic.make 0
let double_resolve_count () = Atomic.get c_double_resolves

(* Idempotent: the queue pop is exclusive so each ticket has one resolver,
   but resolve-twice must still be harmless. *)
let resolve tk outcome =
  locked tk.tk_mu (fun () ->
      if tk.tk_result = None then begin
        tk.tk_result <- Some outcome;
        Condition.broadcast tk.tk_cv
      end
      else Atomic.incr c_double_resolves)

let await tk =
  locked tk.tk_mu (fun () ->
      while tk.tk_result = None do
        Condition.wait tk.tk_cv tk.tk_mu
      done;
      Option.get tk.tk_result)

let peek tk = locked tk.tk_mu (fun () -> tk.tk_result)

(* The handle's current target, read under its lock (rebind/park mutate
   it concurrently). *)
let target_of h = locked h.h_mu (fun () -> h.h_target)

let is_bound h = Option.is_some (target_of h)

(* {2 Tallies}

   Each serve event is counted by exactly one function below: a submit,
   an admit, a shed, a coalesced batch, and the completion of an admitted
   request ([record_outcome], which takes [t.mu]; the others run under
   it). Each moves the server stats, the handle's tallies, the handle's
   [Labels] family and the global [Counters] together, so the four views
   cannot drift apart. *)

let label h name = Gc_observe.Labels.incr ~label:h.h_name name

let tally_submitted t h =
  t.s_submitted <- t.s_submitted + 1;
  h.h_submitted <- h.h_submitted + 1;
  label h "submitted"

let tally_admitted t h =
  t.s_admitted <- t.s_admitted + 1;
  h.h_admitted <- h.h_admitted + 1;
  label h "admitted";
  Counters.(incr serve_admitted)

(* Why a request was shed: over its model's quota, expired while queued,
   or any other overload (a full queue, an unmeetable deadline, draining,
   the drain deadline). *)
type shed_cause = Overload | Over_quota | Expired

let tally_shed t h cause =
  t.s_overloaded <- t.s_overloaded + 1;
  h.h_shed <- h.h_shed + 1;
  label h "shed";
  Counters.(incr serve_overloaded);
  match cause with
  | Overload -> ()
  | Over_quota ->
      t.s_quota_shed <- t.s_quota_shed + 1;
      h.h_quota_shed <- h.h_quota_shed + 1;
      label h "quota_shed";
      Counters.(incr quota_sheds)
  | Expired ->
      t.s_shed_expired <- t.s_shed_expired + 1;
      Counters.(incr serve_shed_expired)

let tally_coalesced t n =
  t.s_coalesced_batches <- t.s_coalesced_batches + 1;
  t.s_coalesced_tickets <- t.s_coalesced_tickets + n;
  Counters.(incr coalesced_batches);
  Counters.(add coalesced_tickets n);
  Counters.(record_max coalesced_max_tickets n)

(* The end of an admitted request: it leaves the server exactly once,
   here. [shed] says why, when the outcome is [Overloaded]. *)
let record_outcome ?(shed = Overload) t h (outcome : outcome) ~used_fallback =
  locked t.mu (fun () ->
      t.s_completed <- t.s_completed + 1;
      if used_fallback then t.s_fallbacks <- t.s_fallbacks + 1;
      match outcome with
      | Ok _ ->
          t.s_ok <- t.s_ok + 1;
          h.h_ok <- h.h_ok + 1;
          label h "ok"
      | Error (Errors.Overloaded _) -> tally_shed t h shed
      | Error (Errors.Timeout _) ->
          t.s_timeouts <- t.s_timeouts + 1;
          label h "timeout"
      | Error (Errors.Runtime_fault _) ->
          t.s_faults <- t.s_faults + 1;
          label h "fault"
      | Error (Errors.Resource_exhausted _) ->
          t.s_budget_rejects <- t.s_budget_rejects + 1;
          label h "budget_reject";
          Counters.(incr serve_budget_rejects)
      | Error (Errors.Invalid_input _ | Errors.Compile_error _) -> ())

(* {2 Deadlines} *)

let remaining_ms rq =
  match rq.rq_deadline with
  | None -> None
  | Some dl -> Some (int_of_float (ceil ((dl -. now ()) *. 1000.)))

let expired rq =
  match rq.rq_deadline with None -> false | Some dl -> now () > dl

let timeout_error ~site rq =
  let ms = Option.value rq.rq_deadline_ms ~default:0 in
  Errors.Timeout
    { site; timeout_ms = ms; ctx = [ ("handle", rq.rq_handle.h_name) ] }

(* {2 Circuit breaker: the handle's health ladder}

   Closed -> Open after [breaker_threshold] consecutive fallbacks; while
   Open, requests short-circuit to the reference interpreter; after
   [breaker_cooldown_ms] the next request is the one half-open probe of
   the compiled path, which closes the breaker on a compiled [Ok] and
   re-opens it on a fallback. A bound handle that is not Closed degrades
   the tier's health (and the registry's); every open and close is an
   [Events] record. *)

(* What the worker should do with this request, given the handle's breaker
   state. Deciding a probe transitions Open -> Half_open, so concurrent
   requests on the same handle cannot all probe at once: the first gets
   the probe, the rest keep short-circuiting until it resolves. *)
type route = Compiled | Probe | Shortcircuit

let route_of cfg h =
  locked h.h_mu (fun () ->
      match h.h_state with
      | Closed -> Compiled
      | Half_open -> Shortcircuit
      | Open ->
          if (now () -. h.h_opened_at) *. 1000. >= cfg.breaker_cooldown_ms
          then begin
            h.h_state <- Half_open;
            Counters.(incr breaker_probes);
            Probe
          end
          else Shortcircuit)

let note_compiled_success h =
  let closed =
    locked h.h_mu (fun () ->
        h.h_consec_fb <- 0;
        if h.h_state = Half_open then begin
          h.h_state <- Closed;
          Counters.(incr breaker_closes);
          true
        end
        else false)
  in
  if closed then
    Events.record ~kind:"breaker_close" ~component:h.h_name
      "half-open probe served by the compiled path; artifact re-admitted"

(* The compiled path faulted hard enough that we degraded to the
   interpreter (whether or not the interpreter then succeeded). *)
let note_fallback cfg h =
  let opened =
    locked h.h_mu (fun () ->
        h.h_consec_fb <- h.h_consec_fb + 1;
        let trip =
          match h.h_state with
          | Half_open -> true (* the probe failed: another cooldown *)
          | Closed -> h.h_consec_fb >= cfg.breaker_threshold
          | Open -> false
        in
        if trip then begin
          h.h_state <- Open;
          h.h_opened_at <- now ();
          Counters.(incr breaker_opens)
        end;
        trip)
  in
  if opened then
    Events.record ~kind:"breaker_open" ~component:h.h_name
      (Printf.sprintf
         "compiled path fell back to the interpreter; short-circuiting to \
          it for %.0fms"
         cfg.breaker_cooldown_ms)

(* A probe that ended in neither a compiled [Ok] nor a fallback (a
   timeout, a budget reject) judged nothing: back to Open with the
   cooldown already served, so the next request probes. *)
let release_probe h =
  locked h.h_mu (fun () -> if h.h_state = Half_open then h.h_state <- Open)

let note_latency cfg h dt_ms =
  locked h.h_mu (fun () ->
      h.h_ewma_ms <-
        Some
          (match h.h_ewma_ms with
          | None -> dt_ms
          | Some e -> (cfg.ewma_alpha *. dt_ms) +. ((1. -. cfg.ewma_alpha) *. e)))

let breaker_state h = locked h.h_mu (fun () -> h.h_state)
let ewma_ms h = locked h.h_mu (fun () -> h.h_ewma_ms)

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

(* {2 Request processing (worker side)} *)

(* Run [f] on the handle's current artifact. A request that reaches
   execution on a parked handle (the registry parks only idle models, so
   this is belt and braces) resolves typed, never raises. *)
let on_artifact h f =
  match target_of h with
  | Some { art; _ } -> f art
  | None ->
      Error
        (Errors.Invalid_input
           {
             what = "model is not resident (parked or retired)";
             ctx = [ ("handle", h.h_name) ];
           })

let run_fallback_path t rq ~via =
  let h = rq.rq_handle in
  (match via with
  | `Breaker_open -> Counters.(incr breaker_shortcircuits)
  | `Degraded -> note_fallback t.cfg h);
  ( on_artifact h (fun art ->
        Core.execute_fallback ?deadline_ms:(remaining_ms rq) art
          rq.rq_bindings),
    true )

(* The one retry ladder: a [Runtime_fault] attempt is retried up to
   [max_retries] times, spaced by the supervision policy's decorrelated
   jitter (never sleeping past half the remaining deadline), then
   degraded to the reference interpreter. Other errors are final. *)
let process t rq =
  let h = rq.rq_handle in
  let cfg = t.cfg in
  match route_of cfg h with
  | Shortcircuit -> run_fallback_path t rq ~via:`Breaker_open
  | (Compiled | Probe) as route ->
      let rec attempt tries prev_ms =
        if expired rq then (Error (timeout_error ~site:"serve.retry" rq), false)
        else begin
          let t0 = now () in
          match
            on_artifact h (fun art ->
                Core.execute_checked ?deadline_ms:(remaining_ms rq)
                  ~sanitize:cfg.sanitize_outputs art rq.rq_bindings)
          with
          | Ok outs ->
              note_latency cfg h ((now () -. t0) *. 1000.);
              note_compiled_success h;
              (Ok outs, false)
          | Error (Errors.Runtime_fault _) when tries < cfg.max_retries ->
              Counters.(incr exec_retries);
              let ms =
                Supervise.next_backoff_ms ~policy:cfg.supervision ~prev:prev_ms
              in
              let ms =
                match remaining_ms rq with
                | Some r -> Float.min ms (float_of_int r /. 2.)
                | None -> ms
              in
              if ms > 0. then Unix.sleepf (ms /. 1000.);
              attempt (tries + 1) ms
          | Error (Errors.Runtime_fault _) ->
              run_fallback_path t rq ~via:`Degraded
          | Error e -> (Error e, false)
        end
      in
      let outcome = attempt 0 cfg.supervision.Supervise.backoff_base_ms in
      (match (route, outcome) with
      | Probe, (Error _, false) -> release_probe h
      | _ -> ());
      outcome

let overloaded ~site rq reason extra_ctx =
  let deadline =
    match rq.rq_deadline_ms with
    | Some ms -> [ ("deadline_ms", string_of_int ms) ]
    | None -> []
  in
  let ctx = (("handle", rq.rq_handle.h_name) :: extra_ctx) @ deadline in
  Error (Errors.Overloaded { site; what = reason; ctx })

(* Shed a dequeued request. *)
let shed t rq cause reason extra_ctx =
  let outcome = overloaded ~site:"serve" rq reason extra_ctx in
  record_outcome ~shed:cause t rq.rq_handle outcome ~used_fallback:false;
  resolve rq.rq_ticket outcome

let shed_expired_in_queue t rq = shed t rq Expired "deadline expired in queue" []

(* Solo dispatch of one request (the non-coalesced path). *)
let run_solo t rq =
  let outcome, used_fallback =
    try process t rq
    with e ->
      (* belt and braces: nothing may escape a worker domain *)
      (Error (Errors.classify ~site:"serve.worker" e), false)
  in
  record_outcome t rq.rq_handle outcome ~used_fallback;
  resolve rq.rq_ticket outcome

(* {2 Request coalescing (continuous batching)}

   A worker that pops a poly request whose handle admits coalescing holds
   it for a short gather window, pulling {e compatible} queued requests —
   same handle, same symbol environment apart from the coalescing symbol,
   physically identical non-symbolic (weight) bindings — and executes
   them as one batched request: inputs concatenated along the coalescing
   axis, one bucketed execute, outputs split back per ticket. The window
   never extends past any gathered ticket's latest safe dispatch time
   (deadline minus the EWMA execute estimate times the safety factor), so
   gathering itself cannot cause a deadline miss; a ticket that still
   expires between gather and dispatch is counted as a
   [window_deadline_violations] — the invariant tests pin that count to
   zero. A failed batch falls back to per-ticket solo execution so one
   poisoned request cannot sink its batchmates. *)

(* Two environments are coalescible when they agree on every symbol
   except the coalescing one. *)
let env_compatible ~sym a b =
  List.length a = List.length b
  && List.for_all
       (fun (s, v) ->
         s = sym || match List.assoc_opt s b with Some v' -> v = v' | None -> false)
       a

let binding_of rq (lt : Core.Logical_tensor.t) =
  List.find_map
    (fun ((l : Core.Logical_tensor.t), v) -> if l.id = lt.id then Some v else None)
    rq.rq_bindings

(* Non-symbolic inputs (weights, masks of fixed shape) must be the same
   physical tensors: they are passed through unconcatenated, so differing
   values would silently serve one client's weights to another. *)
let shared_inputs_equal p base rq =
  List.for_all
    (fun (lt : Core.Logical_tensor.t) ->
      Dim.has_sym lt.dims
      ||
      match (binding_of base lt, binding_of rq lt) with
      | Some a, Some b -> a == b
      | _ -> false)
    (Core.poly_graph p).inputs

let compatible p ~sym base env rq =
  rq.rq_handle == base.rq_handle
  && (match rq.rq_env with
     | Some e -> env_compatible ~sym env e
     | None -> false)
  && shared_inputs_equal p base rq

(* Pull up to [room] compatible, unexpired requests out of the queue,
   preserving the order of everything left behind. *)
let extract_compatible t p ~sym base env room =
  locked t.mu (fun () ->
      let taken = ref [] and kept = Queue.create () in
      Queue.iter
        (fun rq ->
          if
            List.length !taken < room
            && (not (expired rq))
            && compatible p ~sym base env rq
          then begin
            rq.rq_handle.h_queued <- rq.rq_handle.h_queued - 1;
            taken := rq :: !taken
          end
          else Queue.push rq kept)
        t.queue;
      Queue.clear t.queue;
      Queue.transfer kept t.queue;
      List.rev !taken)

(* Latest moment [rq] may still be dispatched without predictably missing
   its deadline, given the handle's latency estimate. *)
let safe_start cfg h rq =
  match rq.rq_deadline with
  | None -> infinity
  | Some dl -> (
      match ewma_ms h with
      | Some e -> dl -. (e *. cfg.safety_factor /. 1000.)
      | None -> now () (* no estimate yet: deadline-bearing work is not held *))

let gather_window t p ~sym base env =
  let cfg = t.cfg in
  let h = base.rq_handle in
  let taken = ref [ base ] in
  let window_end = ref (now () +. (cfg.coalesce_window_ms /. 1000.)) in
  let clamp rq = window_end := Float.min !window_end (safe_start cfg h rq) in
  clamp base;
  let rec loop () =
    let room = cfg.max_coalesce - List.length !taken in
    if room > 0 then begin
      let pulled = extract_compatible t p ~sym base env room in
      List.iter clamp pulled;
      taken := !taken @ pulled;
      if List.length !taken < cfg.max_coalesce && now () < !window_end then begin
        Unix.sleepf 0.0002;
        loop ()
      end
    end
  in
  loop ();
  !taken

(* Concatenate the gathered requests' symbolic inputs along the
   coalescing axis; non-symbolic inputs pass through from [base]. *)
let batch_bindings p base rqs =
  List.map
    (fun (lt : Core.Logical_tensor.t) ->
      let v =
        if Dim.has_sym lt.dims then
          Core.Tensor.concat0
            (List.map (fun rq -> Option.get (binding_of rq lt)) rqs)
        else Option.get (binding_of base lt)
      in
      (lt, v))
    (Core.poly_graph p).inputs

let min_remaining_ms rqs =
  List.fold_left
    (fun acc rq ->
      match (acc, remaining_ms rq) with
      | None, r | r, None -> r
      | Some a, Some b -> Some (min a b))
    None rqs

let run_coalesced t p ~sym base env =
  let cfg = t.cfg in
  let h = base.rq_handle in
  let taken = gather_window t p ~sym base env in
  (* Everything gathered was unexpired; a ticket dead by dispatch time
     expired during our window — the violation the clamp exists to
     prevent. *)
  let live, dead = List.partition (fun rq -> not (expired rq)) taken in
  List.iter
    (fun rq ->
      Counters.(incr window_deadline_violations);
      shed_expired_in_queue t rq)
    dead;
  match live with
  | [] -> ()
  | [ rq ] -> run_solo t rq
  | rqs -> (
      let sizes =
        List.map (fun rq -> List.assoc sym (Option.get rq.rq_env)) rqs
      in
      let n = List.length rqs in
      let result =
        try
          let bindings = batch_bindings p base rqs in
          let t0 = now () in
          let r =
            on_artifact h (fun art ->
                Core.execute_checked ?deadline_ms:(min_remaining_ms rqs)
                  ~sanitize:cfg.sanitize_outputs art bindings)
          in
          (match r with
          | Ok _ ->
              note_latency cfg h ((now () -. t0) *. 1000.);
              note_compiled_success h
          | Error _ -> ());
          r
        with e -> Error (Errors.classify ~site:"serve.coalesce" e)
      in
      match result with
      | Ok outs ->
          locked t.mu (fun () -> tally_coalesced t n);
          (* split each output along the coalescing axis, ticket order *)
          let splits = List.map (fun o -> Core.Tensor.split0 o sizes) outs in
          List.iteri
            (fun i rq ->
              let mine = List.map (fun parts -> List.nth parts i) splits in
              record_outcome t rq.rq_handle (Ok mine) ~used_fallback:false;
              resolve rq.rq_ticket (Ok mine))
            rqs
      | Error _ ->
          (* batch-level failure: isolate by re-running each ticket solo
             (with its own retries, breaker routing and fallback) *)
          List.iter (run_solo t) rqs)

(* A request is a coalescing candidate when the feature is on, its handle
   is polymorphic with a coalescible shape, its environment resolved, the
   breaker is closed (probe and short-circuit traffic stays solo), and
   its deadline leaves room for the gather window plus the predicted
   execute — a tight-deadline ticket dispatches solo immediately rather
   than gambling its deadline on the window. *)
let coalesce_plan t rq =
  if t.cfg.coalesce_window_ms <= 0. then None
  else
    let too_tight =
      match remaining_ms rq with
      | None -> false
      | Some r ->
          let predicted =
            match ewma_ms rq.rq_handle with
            | Some e -> e *. t.cfg.safety_factor
            | None -> 0.
          in
          float_of_int r < t.cfg.coalesce_window_ms +. predicted
    in
    if too_tight then None
    else
      match (target_of rq.rq_handle, rq.rq_env) with
      | Some { art = Core.Poly p; coalesce_sym = Some sym }, Some env
        when breaker_state rq.rq_handle = Closed ->
          Some (p, sym, env)
      | _ -> None

(* Workers are bound to the slot epoch they were spawned under: the
   monitor supersedes a stuck worker by bumping the slot epoch and
   spawning a replacement; the old domain observes the mismatch at its
   next loop top, after resolving whatever ticket it holds (a popped
   request has exactly one resolver, so supersession cannot double- or
   un-resolve it), and exits cleanly into the zombie list. *)
let worker_loop t ~(slot : wslot) ~my_epoch =
  let beat () = Atomic.set slot.ws_beat (now ()) in
  let owns_slot () = Atomic.get slot.ws_epoch = my_epoch in
  (* The model this worker last dispatched: the fault scope its probes
     carry, so a scoped arm ("worker_death:10@model") produces faults
     correlated with that model's traffic and no one else's. *)
  let last_model = ref None in
  let rec next () =
    beat ();
    if not (owns_slot ()) then () (* superseded: exit *)
    else begin
      (* Supervision fault site, at the loop boundary only: no lock is
         held and no ticket has been popped, so an injected death here
         never orphans a request — survivors drain the queue. *)
      Gc_faultinject.worker_death_check ?scope:!last_model ();
      Mutex.lock t.mu;
      while Queue.is_empty t.queue && not t.stopping && owns_slot () do
        Condition.wait t.cv_work t.mu
      done;
      if Queue.is_empty t.queue || not (owns_slot ()) then
        Mutex.unlock t.mu (* stopping and drained, or superseded: exit *)
      else begin
        let rq = Queue.pop t.queue in
        rq.rq_handle.h_queued <- rq.rq_handle.h_queued - 1;
        t.in_flight <- t.in_flight + 1;
        Mutex.unlock t.mu;
        last_model := Some rq.rq_handle.h_name;
        if owns_slot () then Atomic.set slot.ws_busy true;
        beat ();
        (* a stuck spin fires after the pop, while busy: the heartbeat
           goes stale under the monitor's nose, but the held ticket still
           resolves exactly once when the spin ends *)
        Gc_faultinject.stuck_worker_check ~scope:rq.rq_handle.h_name ();
        (* Shed-before-dispatch: no execute work for a request whose
           waiter has already timed out. *)
        (if expired rq then shed_expired_in_queue t rq
         else
           match coalesce_plan t rq with
           | Some (p, sym, env) -> run_coalesced t p ~sym rq env
           | None -> run_solo t rq);
        locked t.mu (fun () -> t.in_flight <- t.in_flight - 1);
        if owns_slot () then Atomic.set slot.ws_busy false;
        next ()
      end
    end
  in
  next ()

(* The spawn wrapper is the death detector: the worker body may only exit
   by returning (drain or supersession); anything escaping — including an
   injected [worker_death] — marks the slot dead for the monitor. *)
let spawn_into_slot t slot =
  let my_epoch = Atomic.get slot.ws_epoch in
  Atomic.set slot.ws_beat (now ());
  slot.ws_domain <-
    Some
      (Domain.spawn (fun () ->
           try
             worker_loop t ~slot ~my_epoch;
             (* release this domain's dead buffers while it still runs
                their finalisers (see [Buffer.create]) *)
             Gc.full_major ()
           with e ->
             Atomic.set slot.ws_busy false;
             Atomic.set slot.ws_dead true;
             Events.record ~kind:"serve_worker_death"
               ~component:(Printf.sprintf "serve:w%d" slot.ws_idx)
               (Printexc.to_string e);
             (* the queue may hold work and every sibling may be parked;
                wake one so a single death cannot strand a quiet queue *)
             locked t.mu (fun () -> Condition.broadcast t.cv_work)))

(* {2 Supervision (monitor-thread side)} *)

let live_workers t =
  Array.fold_left
    (fun acc s -> if Atomic.get s.ws_dead then acc else acc + 1)
    0 t.slots

let budget_exhausted pol slot ~at =
  let horizon = at -. (pol.Supervise.restart_window_ms /. 1000.) in
  slot.ws_restarts <- List.filter (fun s -> s >= horizon) slot.ws_restarts;
  List.length slot.ws_restarts >= pol.Supervise.restart_budget

(* Respawn a dead slot under the restart budget, with decorrelated-jitter
   spacing between consecutive respawns of the same slot. A slot that
   exhausts its budget inside the window stays down — the tier reports
   Degraded — until the window slides, rather than feeding a spawn storm
   on a deterministically crashing worker. *)
let heal_dead_slot t pol slot =
  let t_now = now () in
  Mutex.lock t.mu;
  if t.stopping then Mutex.unlock t.mu
  else if budget_exhausted pol slot ~at:t_now then begin
    let log = not slot.ws_budget_logged in
    slot.ws_budget_logged <- true;
    Mutex.unlock t.mu;
    if log then
      Events.record ~kind:"restart_budget_exhausted"
        ~component:(Printf.sprintf "serve:w%d" slot.ws_idx)
        (Printf.sprintf "%d restarts inside %.0fms; tier degraded until the \
                         window slides"
           pol.Supervise.restart_budget pol.Supervise.restart_window_ms)
  end
  else if t_now < slot.ws_next_respawn then Mutex.unlock t.mu
  else begin
    (match slot.ws_domain with
    | Some d -> t.zombies <- d :: t.zombies
    | None -> ());
    slot.ws_domain <- None;
    slot.ws_restarts <- t_now :: slot.ws_restarts;
    slot.ws_budget_logged <- false;
    slot.ws_backoff_ms <-
      Supervise.next_backoff_ms ~policy:pol ~prev:slot.ws_backoff_ms;
    slot.ws_next_respawn <- t_now +. (slot.ws_backoff_ms /. 1000.);
    (* count before the slot reads live again: an observer that sees the
       tier back at capacity must already see the restart counted *)
    Counters.(incr workers_restarted);
    Atomic.set slot.ws_dead false;
    spawn_into_slot t slot;
    Mutex.unlock t.mu;
    Events.record ~kind:"worker_restart"
      ~component:(Printf.sprintf "serve:w%d" slot.ws_idx)
      (Printf.sprintf "respawned; next respawn backoff %.1fms"
         slot.ws_backoff_ms)
  end

(* Supersede a busy worker whose heartbeat went stale: bump the slot epoch
   (the old domain exits at its next loop top, after resolving the ticket
   it holds) and spawn a replacement so capacity recovers immediately.
   Indistinguishable from a legitimately long execute — which is exactly
   why supersession is safe for both: nothing is killed, the slow domain
   finishes its work and leaves. *)
let supersede_stuck_slot t slot =
  Mutex.lock t.mu;
  if t.stopping then Mutex.unlock t.mu
  else begin
    (match slot.ws_domain with
    | Some d -> t.zombies <- d :: t.zombies
    | None -> ());
    slot.ws_domain <- None;
    ignore (Atomic.fetch_and_add slot.ws_epoch 1);
    Atomic.set slot.ws_busy false;
    spawn_into_slot t slot;
    Mutex.unlock t.mu;
    (* the superseded domain may be parked on cv_work (raced the pop):
       wake it so it observes the epoch bump and exits *)
    locked t.mu (fun () -> Condition.broadcast t.cv_work);
    Counters.(incr workers_superseded);
    Events.record ~kind:"worker_supersede"
      ~component:(Printf.sprintf "serve:w%d" slot.ws_idx)
      "stale heartbeat while busy; slot re-spawned, old domain exits at \
       its next loop boundary"
  end

let tick_serve t =
  let pol = t.cfg.supervision in
  let stop = locked t.mu (fun () -> t.stopping) in
  if not stop then begin
    Array.iter
      (fun slot ->
        if Atomic.get slot.ws_dead then heal_dead_slot t pol slot
        else if Atomic.get slot.ws_busy then begin
          let age_ms = (now () -. Atomic.get slot.ws_beat) *. 1000. in
          if age_ms > pol.Supervise.stale_ms then begin
            if not slot.ws_stuck_logged then begin
              slot.ws_stuck_logged <- true;
              Counters.(incr heartbeats_missed)
            end;
            supersede_stuck_slot t slot
          end
          else slot.ws_stuck_logged <- false
        end
        else slot.ws_stuck_logged <- false)
      t.slots
  end

(* Bound handles whose breaker is not Closed. *)
let open_handles t =
  let handles = locked t.mu (fun () -> t.handles) in
  List.length
    (List.filter
       (fun h ->
         locked h.h_mu (fun () ->
             Option.is_some h.h_target && h.h_state <> Closed))
       handles)

let serve_status t =
  let pol = t.cfg.supervision in
  let live = live_workers t in
  let t_now = now () in
  let exhausted =
    locked t.mu (fun () ->
        Array.fold_left
          (fun acc s ->
            if Atomic.get s.ws_dead && budget_exhausted pol s ~at:t_now then
              acc + 1
            else acc)
          0 t.slots)
  in
  let dead = t.cfg.workers - live in
  let opened = open_handles t in
  let level =
    if live = 0 then Supervise.Critical
    else if dead > 0 || opened > 0 then Supervise.Degraded
    else Supervise.Healthy
  in
  {
    Supervise.ch_name = "serve";
    ch_level = level;
    ch_detail =
      (if level = Supervise.Healthy then
         Printf.sprintf "%d/%d workers live" live t.cfg.workers
       else
         Printf.sprintf
           "%d/%d workers live (%d crash-looping), %d open handle(s)" live
           t.cfg.workers exhausted opened);
  }

(* {2 Admission (client side)} *)

(* Effective queue depth under memory-budget backpressure: full depth up
   to 50% budget fill, then linearly down to zero at 100% —
   depth * 2 * (1 - fill), clamped to [0, depth]. *)
let effective_depth cfg =
  let fill = Memgov.fill_fraction () in
  if fill <= 0.5 then cfg.queue_depth
  else if fill >= 1. then 0
  else
    let d =
      int_of_float (Float.round (float_of_int cfg.queue_depth *. 2. *. (1. -. fill)))
    in
    max 0 (min cfg.queue_depth d)

(* The admission verdict on a request for [h], under [t.mu]. *)
let admission t h ~deadline_ms =
  if not t.accepting then `Reject (Overload, "server is draining", [])
  else if Gc_faultinject.queue_full_check () then
    `Reject (Overload, "queue full", [ ("injected", "true") ])
  else
    let eff = effective_depth t.cfg in
    let qlen = Queue.length t.queue in
    if qlen >= eff then
      `Reject
        ( Overload,
          "queue full",
          [
            ("queue_len", string_of_int qlen);
            ("depth", string_of_int t.cfg.queue_depth);
            ("effective_depth", string_of_int eff);
            ("budget_fill", Printf.sprintf "%.2f" (Memgov.fill_fraction ()));
          ] )
    else
      (* Weighted-fair quota: a model may queue up to its share of the
         effective depth (eff * weight / total weight, at least one slot).
         Past its share it may still borrow while the whole queue is under
         [quota_borrow * eff] — slack capacity belongs to whoever shows up
         — but once the queue is that full, over-share traffic is shed so
         a flooding tenant cannot starve the others' slots. *)
      let over_quota =
        t.total_weight > 0. && h.h_registered
        &&
        let share = float_of_int eff *. h.h_weight /. t.total_weight in
        let share = max 1 (int_of_float (floor share)) in
        h.h_queued >= share
        && float_of_int qlen >= t.cfg.quota_borrow *. float_of_int eff
      in
      if over_quota then
        `Reject
          ( Over_quota,
            "model over admission quota",
            [
              ("model_queued", string_of_int h.h_queued);
              ("queue_len", string_of_int qlen);
              ("effective_depth", string_of_int eff);
              ("weight", Printf.sprintf "%.2f" h.h_weight);
            ] )
      else
        (* Deadline feasibility: with a latency estimate in hand, refuse
           work we can predict we cannot finish in time. *)
        let infeasible =
          match (deadline_ms, ewma_ms h) with
          | Some ms, Some ewma ->
              let predicted =
                ewma *. float_of_int (qlen + 1) *. t.cfg.safety_factor
              in
              if float_of_int ms < predicted then Some (ewma, predicted)
              else None
          | _ -> None
        in
        match infeasible with
        | Some (ewma, predicted) ->
            `Reject
              ( Overload,
                "deadline unmeetable",
                [
                  ("ewma_ms", Printf.sprintf "%.2f" ewma);
                  ("predicted_ms", Printf.sprintf "%.2f" predicted);
                  ("queue_len", string_of_int qlen);
                ] )
        | None -> `Admit

let submit ?deadline_ms t h bindings =
  let tk = new_ticket () in
  let deadline_ms =
    match deadline_ms with Some _ as d -> d | None -> t.cfg.default_deadline_ms
  in
  let rq_env =
    match target_of h with
    | Some { art = Core.Poly p; _ } -> (
        try Some (Core.poly_env p bindings) with _ -> None)
    | _ -> None
  in
  let rq =
    {
      rq_handle = h;
      rq_bindings = bindings;
      rq_deadline =
        Option.map (fun ms -> now () +. (float_of_int ms /. 1000.)) deadline_ms;
      rq_deadline_ms = deadline_ms;
      rq_env;
      rq_ticket = tk;
    }
  in
  let verdict =
    locked t.mu (fun () ->
        tally_submitted t h;
        let verdict = admission t h ~deadline_ms in
        (match verdict with
        | `Admit ->
            tally_admitted t h;
            h.h_queued <- h.h_queued + 1;
            Queue.push rq t.queue;
            Condition.signal t.cv_work
        | `Reject (cause, _, _) -> tally_shed t h cause);
        verdict)
  in
  (match verdict with
  | `Admit -> ()
  | `Reject (_, reason, ctx) ->
      resolve tk (overloaded ~site:"serve.admission" rq reason ctx));
  tk

let call ?deadline_ms t h bindings = await (submit ?deadline_ms t h bindings)

(* {2 Construction} *)

let create ?config () =
  let cfg = match config with Some c -> c | None -> default_config () in
  if cfg.queue_depth < 1 then
    Errors.invalid_input
      ~ctx:[ ("queue_depth", string_of_int cfg.queue_depth) ]
      "Gc_serve.create: queue_depth must be >= 1";
  if cfg.workers < 1 then
    Errors.invalid_input
      ~ctx:[ ("workers", string_of_int cfg.workers) ]
      "Gc_serve.create: workers must be >= 1";
  let t =
    {
      cfg;
      mu = Mutex.create ();
      cv_work = Condition.create ();
      queue = Queue.create ();
      accepting = true;
      stopping = false;
      in_flight = 0;
      slots = [||];
      zombies = [];
      handles = [];
      sup_reg = None;
      next_handle = 0;
      s_submitted = 0;
      s_admitted = 0;
      s_completed = 0;
      s_ok = 0;
      s_overloaded = 0;
      s_shed_expired = 0;
      s_timeouts = 0;
      s_faults = 0;
      s_budget_rejects = 0;
      s_fallbacks = 0;
      s_coalesced_batches = 0;
      s_coalesced_tickets = 0;
      s_quota_shed = 0;
      total_weight = 0.;
    }
  in
  t.slots <-
    Array.init cfg.workers (fun i ->
        {
          ws_idx = i;
          ws_domain = None;
          ws_beat = Atomic.make (now ());
          ws_busy = Atomic.make false;
          ws_epoch = Atomic.make 0;
          ws_dead = Atomic.make false;
          ws_restarts = [];
          ws_backoff_ms = cfg.supervision.Supervise.backoff_base_ms;
          ws_next_respawn = 0.;
          ws_budget_logged = false;
          ws_stuck_logged = false;
        });
  Array.iter (fun slot -> spawn_into_slot t slot) t.slots;
  if cfg.supervision.Supervise.sup_enabled then
    t.sup_reg <-
      Some
        (Supervise.register ~name:"serve"
           ~tick:(fun () -> tick_serve t)
           ~status:(fun () -> serve_status t));
  t

let mk_handle ?name ?(weight = 1.) t target =
  if weight <= 0. then
    Errors.invalid_input
      ~ctx:[ ("weight", Printf.sprintf "%.3f" weight) ]
      "Gc_serve.register: weight must be positive";
  let name =
    match name with
    | Some n -> n
    | None ->
        locked t.mu (fun () ->
            t.next_handle <- t.next_handle + 1;
            Printf.sprintf "partition-%d" t.next_handle)
  in
  let h =
    {
      h_name = name;
      h_target = target;
      h_weight = weight;
      h_mu = Mutex.create ();
      h_ewma_ms = None;
      h_consec_fb = 0;
      h_state = Closed;
      h_opened_at = 0.;
      h_queued = 0;
      h_submitted = 0;
      h_admitted = 0;
      h_ok = 0;
      h_shed = 0;
      h_quota_shed = 0;
      h_registered = true;
    }
  in
  locked t.mu (fun () ->
      t.handles <- h :: t.handles;
      t.total_weight <- t.total_weight +. weight);
  h

(* A poly handle coalesces along symbol [s] iff every output and every
   symbolic input carries [s] on axis 0 (and nowhere else), so
   concatenating inputs and splitting outputs along dim 0 is exactly a
   batched execution — and [s] must be bucketable (row-independent), the
   same property that makes zero-padding sound. *)
let coalesce_sym_of p =
  let g = Core.poly_graph p in
  let sym0 (lt : Core.Logical_tensor.t) =
    if Array.length lt.dims = 0 then None
    else match lt.dims.(0) with Dim.Sym s -> Some s | Dim.Fixed _ -> None
  in
  let only_on_axis0 s (lt : Core.Logical_tensor.t) =
    let ok = ref true in
    Array.iteri
      (fun i d -> if i > 0 && d = Dim.Sym s then ok := false)
      lt.dims;
    !ok
  in
  match List.find_map sym0 g.outputs with
  | None -> None
  | Some s ->
      let out_ok (lt : Core.Logical_tensor.t) =
        sym0 lt = Some s && only_on_axis0 s lt
      in
      let in_ok (lt : Core.Logical_tensor.t) =
        (not (Dim.has_sym lt.dims)) || (sym0 lt = Some s && only_on_axis0 s lt)
      in
      if
        List.for_all out_ok g.outputs
        && List.for_all in_ok g.inputs
        && List.mem s (Core.poly_bucket_syms p)
      then Some s
      else None

let target_of_artifact art =
  let coalesce_sym =
    match art with Core.Fixed _ -> None | Core.Poly p -> coalesce_sym_of p
  in
  Some { art; coalesce_sym }

let register ?name ?weight t art =
  mk_handle ?name ?weight t (target_of_artifact art)

let register_poly ?name ?weight t p = register ?name ?weight t (Core.Poly p)

(* {2 Rebinding (the registry's hot-swap / park / re-admit lever)} *)

(* Swap the artifact behind a live handle. The breaker, which judged the
   old artifact, resets to Closed; the latency EWMA survives — it tracks
   the model's cost profile, which a same-structure swap preserves, and
   one wrong estimate self-corrects in a few completions either way.
   Queued requests execute against the new target: the registry swaps
   like-for-like (same graph I/O), so bindings stay valid. *)
let set_target h target =
  locked h.h_mu (fun () ->
      h.h_target <- target;
      h.h_consec_fb <- 0;
      h.h_state <- Closed)

let rebind _ h art = set_target h (target_of_artifact art)
let unbind _ h = set_target h None

(* Drop the handle from the tier's health count and the fair-share
   total. The handle itself stays usable by anyone still holding it
   (submissions resolve typed), but it no longer counts as a tenant.
   Idempotent. *)
let unregister t h =
  locked t.mu (fun () ->
      if h.h_registered then begin
        h.h_registered <- false;
        t.total_weight <- Float.max 0. (t.total_weight -. h.h_weight);
        t.handles <- List.filter (fun h' -> not (h' == h)) t.handles
      end)

(* {2 Introspection} *)

type stats = {
  submitted : int;
  admitted : int;
  completed : int;
  ok : int;
  overloaded : int;
  shed_expired : int;
  timeouts : int;
  faults : int;
  budget_rejects : int;
  fallbacks : int;
  coalesced_batches : int;
  coalesced_tickets : int;
  quota_shed : int;
  queue_len : int;
  in_flight : int;
  effective_depth : int;
  draining : bool;
  workers_live : int;
  open_handles : int;
}

let tier_health t = serve_status t

let stats t =
  let opened = open_handles t in
  locked t.mu (fun () ->
      {
        submitted = t.s_submitted;
        admitted = t.s_admitted;
        completed = t.s_completed;
        ok = t.s_ok;
        overloaded = t.s_overloaded;
        shed_expired = t.s_shed_expired;
        timeouts = t.s_timeouts;
        faults = t.s_faults;
        budget_rejects = t.s_budget_rejects;
        fallbacks = t.s_fallbacks;
        coalesced_batches = t.s_coalesced_batches;
        coalesced_tickets = t.s_coalesced_tickets;
        quota_shed = t.s_quota_shed;
        queue_len = Queue.length t.queue;
        in_flight = t.in_flight;
        effective_depth = effective_depth t.cfg;
        draining = not t.accepting;
        workers_live = live_workers t;
        open_handles = opened;
      })

(* Per-model view: admission tallies under the server lock, breaker /
   EWMA under the handle lock (taken after, per the lock order). *)
type handle_stats = {
  hs_name : string;
  hs_weight : float;
  hs_submitted : int;
  hs_admitted : int;
  hs_ok : int;
  hs_shed : int;
  hs_quota_shed : int;
  hs_queued : int;
  hs_bound : bool;
  hs_breaker : breaker_state;
  hs_ewma_ms : float option;
}

let handle_name h = h.h_name
let handle_weight h = h.h_weight

let handle_stats t h =
  let submitted, admitted, ok, shed, quota_shed, queued =
    locked t.mu (fun () ->
        (h.h_submitted, h.h_admitted, h.h_ok, h.h_shed, h.h_quota_shed,
         h.h_queued))
  in
  locked h.h_mu (fun () ->
      {
        hs_name = h.h_name;
        hs_weight = h.h_weight;
        hs_submitted = submitted;
        hs_admitted = admitted;
        hs_ok = ok;
        hs_shed = shed;
        hs_quota_shed = quota_shed;
        hs_queued = queued;
        hs_bound = Option.is_some h.h_target;
        hs_breaker = h.h_state;
        hs_ewma_ms = h.h_ewma_ms;
      })

(* {2 Lifecycle} *)

let drain ?(deadline_ms = 1000) t =
  locked t.mu (fun () -> t.accepting <- false);
  Gc_faultinject.slow_drain_check ();
  let dl = now () +. (float_of_int deadline_ms /. 1000.) in
  (* No timed condvar wait in the stdlib: poll at 1 ms. Drain is a
     shutdown path, not a hot path. *)
  let rec wait () =
    let idle =
      locked t.mu (fun () -> Queue.is_empty t.queue && t.in_flight = 0)
    in
    if idle then ()
    else if now () > dl then begin
      (* shed whatever is still queued; in-flight requests keep their
         tickets and resolve under their own (watchdog-bounded) execution *)
      let stranded =
        locked t.mu (fun () ->
            let rqs = List.of_seq (Queue.to_seq t.queue) in
            Queue.clear t.queue;
            List.iter (fun rq -> rq.rq_handle.h_queued <- rq.rq_handle.h_queued - 1) rqs;
            rqs)
      in
      List.iter
        (fun rq ->
          shed t rq Overload "shed at drain deadline"
            [ ("drain_deadline_ms", string_of_int deadline_ms) ])
        stranded
    end
    else begin
      Unix.sleepf 0.001;
      wait ()
    end
  in
  wait ()

let shutdown ?drain_deadline_ms t =
  (* unregister from supervision first: the monitor must not respawn or
     supersede workers we are about to join, and the retire-when-idle
     monitor cannot be left watching a dead server *)
  (match t.sup_reg with
  | Some reg ->
      t.sup_reg <- None;
      Supervise.unregister reg
  | None -> ());
  drain ?deadline_ms:drain_deadline_ms t;
  let ds =
    locked t.mu (fun () ->
        t.stopping <- true;
        Condition.broadcast t.cv_work;
        let ds =
          Array.fold_left
            (fun acc slot ->
              let acc =
                match slot.ws_domain with Some d -> d :: acc | None -> acc
              in
              slot.ws_domain <- None;
              acc)
            t.zombies t.slots
        in
        t.zombies <- [];
        ds)
  in
  List.iter Domain.join ds;
  (* graceful-shutdown post-mortem: persist the flight recorder when
     GC_EVENTS_DUMP is armed (no-op otherwise) *)
  ignore (Events.dump ())
