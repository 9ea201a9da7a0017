(* Watchdog: per-execute deadline enforcement. See guard.mli. *)

type deadline = { dl_abs : float; dl_timeout_ms : int; dl_site : string }

let env_timeout_ms () =
  match Sys.getenv_opt "GC_EXEC_TIMEOUT_MS" with
  | None | Some "" -> None
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ -> Some 1
    | None -> None)

(* Per-domain active deadline. Workers adopt the submitter's deadline for
   the duration of one job (Parallel), so this is readable from any domain
   participating in a guarded execute. *)
let active : deadline option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get active)

let expired d = Unix.gettimeofday () > d.dl_abs

(* ---- monitor thread --------------------------------------------------- *)
(* Installed deadlines are mirrored into a global registry so one monitor
   thread can tell whether any deadline is expired, and while one is, it
   broadcasts registered barrier condvars so parked submitters wake up and
   re-check their predicate.  The monitor retires itself as soon as there
   is nothing left to watch: a domain cannot terminate while a thread it
   spawned is alive, and deadlines may be installed from short-lived
   worker domains (the serving layer joins its workers on shutdown), so a
   parked-forever monitor would wedge Domain.join. The next install
   spawns a fresh one. *)

let mon_mutex = Mutex.create ()
let installed : deadline list ref = ref []
let waiters : (Mutex.t * Condition.t) list ref = ref []
let monitor_started = ref false

let any_expired now l = List.exists (fun d -> now > d.dl_abs) l

let monitor_loop () =
  let rec loop () =
    Mutex.lock mon_mutex;
    if !installed = [] then begin
      (* retire under the lock: install either sees started=false and
         spawns a replacement, or we observe its deadline and keep going *)
      monitor_started := false;
      Mutex.unlock mon_mutex
    end
    else begin
      let guards = !installed and parked = !waiters in
      Mutex.unlock mon_mutex;
      let now = Unix.gettimeofday () in
      if any_expired now guards then
        List.iter
          (fun (m, c) ->
            Mutex.lock m;
            Condition.broadcast c;
            Mutex.unlock m)
          parked;
      (* 1ms resolution is plenty: deadlines are >= 1ms and the monitor
         only bounds how late a parked submitter notices an overrun. *)
      Thread.delay 0.001;
      loop ()
    end
  in
  loop ()

let ensure_monitor () =
  (* called with mon_mutex held *)
  if not !monitor_started then begin
    monitor_started := true;
    ignore (Thread.create monitor_loop ())
  end

let install d =
  Mutex.lock mon_mutex;
  installed := d :: !installed;
  ensure_monitor ();
  Mutex.unlock mon_mutex

let uninstall d =
  Mutex.lock mon_mutex;
  let removed = ref false in
  installed :=
    List.filter
      (fun d' ->
        if (not !removed) && d' == d then (
          removed := true;
          false)
        else true)
      !installed;
  Mutex.unlock mon_mutex

let register_waiter m c =
  Mutex.lock mon_mutex;
  waiters := (m, c) :: !waiters;
  Mutex.unlock mon_mutex

let unregister_waiter m =
  Mutex.lock mon_mutex;
  let removed = ref false in
  waiters :=
    List.filter
      (fun (m', _) ->
        if (not !removed) && m' == m then (
          removed := true;
          false)
        else true)
      !waiters;
  Mutex.unlock mon_mutex

(* ---- cooperative check + scoped installation -------------------------- *)

let raise_timeout d =
  Gc_errors.timeout ~site:d.dl_site ~timeout_ms:d.dl_timeout_ms
    ~ctx:[ ("deadline_abs", Printf.sprintf "%.6f" d.dl_abs) ]
    ()

let check () =
  match !(Domain.DLS.get active) with
  | None -> ()
  | Some d -> if expired d then raise_timeout d

let adopt d f =
  let slot = Domain.DLS.get active in
  let saved = !slot in
  slot := d;
  Fun.protect ~finally:(fun () -> slot := saved) f

let with_deadline ~timeout_ms ~site f =
  let now = Unix.gettimeofday () in
  let abs = now +. (float_of_int timeout_ms /. 1000.) in
  let slot = Domain.DLS.get active in
  let saved = !slot in
  (* nested deadlines compose: keep the earlier absolute deadline *)
  let d =
    match saved with
    | Some p when p.dl_abs <= abs -> p
    | _ -> { dl_abs = abs; dl_timeout_ms = timeout_ms; dl_site = site }
  in
  slot := Some d;
  install d;
  let finish () =
    slot := saved;
    uninstall d
  in
  match f () with
  | v ->
      let late = expired d in
      finish ();
      if late then begin
        Gc_observe.Counters.(incr timeouts);
        raise_timeout d
      end;
      v
  | exception Gc_errors.Error (Gc_errors.Timeout _) ->
      finish ();
      Gc_observe.Counters.(incr timeouts);
      raise_timeout d
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
