(* A failed task is recorded with enough context to surface a single
   typed [Runtime_fault]: the originating exception, its backtrace, and
   the task index that raised it. *)
type fail = {
  f_exn : exn;
  f_bt : Printexc.raw_backtrace;
  f_task : int;
}

type job = {
  tasks : (unit -> unit) array;
  next : int Atomic.t;
  pending : int Atomic.t;
  failure : fail option Atomic.t;
  abandoned : bool Atomic.t;
      (* submitter gave up on the barrier (deadline overrun) *)
  released : bool Atomic.t;
      (* the pool's [in_run] slot has been released for this job *)
  j_epoch : int;
      (* pool incarnation this job was submitted against; a release from
         an older incarnation is discarded (see [release_pool]) *)
  deadline : Guard.deadline option;
  done_mutex : Mutex.t;
  done_cond : Condition.t;
}

type t = {
  n : int;
  mutable domains : unit Domain.t list;
  mutable zombies : unit Domain.t list;
      (* superseded incarnations' domains, joined at [shutdown] *)
  mutex : Mutex.t;
  cond : Condition.t;
  mutable current : job option;
  mutable generation : int;
  mutable epoch : int;  (* incarnation; bumped by [reincarnate] *)
  mutable stop : bool;
  in_run : bool Atomic.t;  (* re-entrancy guard *)
  poisoned : bool Atomic.t;
      (* an abandoned job is still draining; runs fall back to inline *)
  mutable poisoned_since : float;  (* wall clock at poisoning, else 0. *)
  dead : int Atomic.t;  (* workers of the current epoch that died uncleanly *)
  heartbeats : float Atomic.t array;  (* per-slot wall-clock stamps *)
  faults : int Atomic.t;  (* contained task failures, ever *)
}

let is_poisoned t = Atomic.get t.poisoned
let faults_survived t = Atomic.get t.faults
let epoch t = t.epoch
let dead_workers t = Atomic.get t.dead

let poisoned_for t =
  if Atomic.get t.poisoned && t.poisoned_since > 0. then
    Unix.gettimeofday () -. t.poisoned_since
  else 0.

let heartbeat_ages t =
  let now = Unix.gettimeofday () in
  Array.map (fun hb -> now -. Atomic.get hb) t.heartbeats

(* Exactly-once release of the pool after a job: on the normal path the
   submitter releases; when the submitter abandoned the barrier on a
   deadline overrun, the worker that drains the last grain does, which is
   also the moment the pool transitions poisoned -> recovered. A release
   from a job submitted against an older incarnation is discarded — after
   a reincarnation the fresh pool owns [in_run]/[poisoned], and a late
   straggler's write must not clobber it (the epoch-discard rule). *)
let release_pool t job =
  if Atomic.compare_and_set job.released false true then begin
    Mutex.lock t.mutex;
    let live = job.j_epoch = t.epoch in
    if live && t.current == Some job then t.current <- None;
    Mutex.unlock t.mutex;
    if live then begin
      Atomic.set t.poisoned false;
      t.poisoned_since <- 0.;
      Atomic.set t.in_run false
    end
  end

(* Grains are claimed off a shared atomic counter, so a worker that
   finishes early keeps pulling work instead of idling behind a static
   partition. A task exception is contained: it is recorded (first one
   wins, with task index and backtrace), remaining unclaimed grains are
   skipped (fast-fail), the [pending] slots still drain so the barrier
   releases, and the submitter surfaces it as one typed error. *)
let work_off ~stealing t job =
  Guard.adopt job.deadline @@ fun () ->
  let n = Array.length job.tasks in
  let rec loop () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < n then begin
      (if Atomic.get job.failure = None then
         try
           Gc_faultinject.slow_check ();
           Gc_faultinject.worker_check ~task:i;
           Guard.check ();
           job.tasks.(i) ();
           if stealing then Gc_observe.Counters.(incr tasks_stolen)
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           if
             Atomic.compare_and_set job.failure None
               (Some { f_exn = e; f_bt = bt; f_task = i })
           then Gc_observe.Counters.(incr worker_faults));
      (if Atomic.fetch_and_add job.pending (-1) = 1 then begin
         (* last grain: recover an abandoned pool, wake the submitter if
            it is still parked *)
         if Atomic.get job.abandoned then release_pool t job;
         Mutex.lock job.done_mutex;
         Condition.broadcast job.done_cond;
         Mutex.unlock job.done_mutex
       end);
      loop ()
    end
  in
  loop ()

(* Workers are bound to the incarnation they were spawned for: an epoch
   bump (reincarnation) is an exit signal, checked both in the wait
   predicate and at the loop top, so superseded domains drain their
   current grains and leave instead of competing with the fresh pool. *)
let worker t ~slot ~epoch =
  let seen = ref 0 in
  let beat () =
    if slot < Array.length t.heartbeats then
      Atomic.set t.heartbeats.(slot) (Unix.gettimeofday ())
  in
  let rec loop () =
    Mutex.lock t.mutex;
    while
      (not t.stop) && t.epoch = epoch
      && (t.generation = !seen || t.current = None)
    do
      Condition.wait t.cond t.mutex
    done;
    if t.stop || t.epoch <> epoch then Mutex.unlock t.mutex
    else begin
      seen := t.generation;
      let job = Option.get t.current in
      Mutex.unlock t.mutex;
      beat ();
      (* Supervision fault sites, at the job boundary only: no grain has
         been claimed and no lock is held, so a death here shrinks the
         pool without wedging the barrier (survivors and the submitter
         self-schedule the whole job), and a stuck spin here stalls the
         heartbeat without stalling the job. *)
      Gc_faultinject.stuck_worker_check ();
      Gc_faultinject.worker_death_check ();
      work_off ~stealing:true t job;
      beat ();
      loop ()
    end
  in
  loop ()

(* The spawn wrapper is the death detector: a worker body may only exit
   via clean return (stop / epoch bump); anything escaping — including an
   injected [worker_death] — is recorded as an unclean domain death for
   supervision to react to. *)
let spawn_worker t ~slot ~epoch =
  Domain.spawn (fun () ->
      try
        worker t ~slot ~epoch;
        (* release this domain's dead buffers while it still runs their
           finalisers (see [Buffer.create]) *)
        Gc.full_major ()
      with e ->
        Atomic.incr t.dead;
        Gc_observe.Events.record ~kind:"pool_worker_death"
          ~component:(Printf.sprintf "pool:w%d" slot)
          (Printexc.to_string e))

let create n =
  if n < 1 then
    Gc_errors.invalid_input
      ~ctx:[ ("requested", string_of_int n) ]
      "Parallel.create: need at least one worker";
  let now = Unix.gettimeofday () in
  let t =
    {
      n;
      domains = [];
      zombies = [];
      mutex = Mutex.create ();
      cond = Condition.create ();
      current = None;
      generation = 0;
      epoch = 0;
      stop = false;
      in_run = Atomic.make false;
      poisoned = Atomic.make false;
      poisoned_since = 0.;
      dead = Atomic.make 0;
      heartbeats = Array.init (n - 1) (fun _ -> Atomic.make now);
      faults = Atomic.make 0;
    }
  in
  t.domains <-
    List.init (n - 1) (fun slot -> spawn_worker t ~slot ~epoch:0);
  t

(* Replace a pool's worker complement behind the same handle: bump the
   epoch (the exit signal for the old incarnation), discard the abandoned
   job, and spawn a fresh set of workers. Returns [false] without acting
   when the pool is mid-flight on a healthy (non-abandoned) job — the
   monitor retries on its next tick — or already stopped. The old domains
   become zombies joined at [shutdown]; any late [release_pool] they
   perform is epoch-discarded. *)
let reincarnate t =
  if t.n = 1 then false
  else begin
    Mutex.lock t.mutex;
    let busy = Atomic.get t.in_run && not (Atomic.get t.poisoned) in
    if t.stop || busy then begin
      Mutex.unlock t.mutex;
      false
    end
    else begin
      t.epoch <- t.epoch + 1;
      let epoch = t.epoch in
      t.zombies <- t.domains @ t.zombies;
      t.current <- None;
      (* count before clearing the poison flag: an observer that reads
         the pool as healed must already see the reincarnation counted *)
      Gc_observe.Counters.(incr pools_reincarnated);
      Atomic.set t.poisoned false;
      t.poisoned_since <- 0.;
      Atomic.set t.dead 0;
      let now = Unix.gettimeofday () in
      Array.iter (fun hb -> Atomic.set hb now) t.heartbeats;
      Atomic.set t.in_run false;
      t.domains <-
        List.init (t.n - 1) (fun slot -> spawn_worker t ~slot ~epoch);
      (* wake parked old-epoch workers so they observe the bump and exit *)
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      Gc_observe.Events.record ~kind:"pool_reincarnate" ~component:"pool"
        (Printf.sprintf "fresh incarnation, epoch %d" epoch);
      true
    end
  end

let size t = t.n

(* Surface a recorded task failure as a single typed error. Already-typed
   errors (e.g. an injected Resource_exhausted, or a Timeout raised at a
   cooperative check) pass through unchanged; anything else is wrapped as
   a [Runtime_fault] carrying the task index and backtrace. *)
let reraise_failure t { f_exn; f_bt; f_task } =
  Atomic.incr t.faults;
  match f_exn with
  | Gc_errors.Error _ -> Printexc.raise_with_backtrace f_exn f_bt
  | e ->
      Gc_observe.Counters.(incr runtime_faults);
      Gc_errors.runtime_fault ~site:"parallel" ~task:f_task
        ~backtrace:(Printexc.raw_backtrace_to_string f_bt)
        ~ctx:[ ("tasks", "pool") ]
        (Printexc.to_string e)

(* Inline execution (sequential pool, nested run, poisoned pool) applies
   the same containment contract: the same fault-injection probes fire and
   foreign exceptions surface as one typed Runtime_fault. *)
let run_inline t tasks =
  Array.iteri
    (fun i f ->
      try
        Gc_faultinject.slow_check ();
        Gc_faultinject.worker_check ~task:i;
        Guard.check ();
        f ()
      with
      | Gc_errors.Error _ as e ->
          Atomic.incr t.faults;
          Gc_observe.Counters.(incr worker_faults);
          raise e
      | e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.incr t.faults;
          Gc_observe.Counters.(incr worker_faults);
          Gc_observe.Counters.(incr runtime_faults);
          Gc_errors.runtime_fault ~site:"parallel(inline)" ~task:i
            ~backtrace:(Printexc.raw_backtrace_to_string bt)
            (Printexc.to_string e))
    tasks

(* How long the submitter spins on the straggler barrier before parking on
   the job's condition variable. The common case (workers finish within a
   task's length of each other) stays on the fast spin path; a long
   straggler no longer pins the submitting core at 100%. *)
let barrier_spins = 2_000

let run t tasks =
  if Array.length tasks = 0 then ()
  else begin
  Gc_observe.Counters.(incr parallel_sections);
  Gc_observe.Counters.(add task_launches (Array.length tasks));
  if t.n = 1 || not (Atomic.compare_and_set t.in_run false true) then begin
    (* sequential pool, nested run from inside a task, or a poisoned pool
       still draining an abandoned job: execute inline *)
    (if Atomic.get t.poisoned then begin
       (* the poisoned-pool perf cliff must be diagnosable from counters
          and the event ring alone, not just visible as low throughput *)
       Gc_observe.Counters.(incr pool_inline_runs);
       Gc_observe.Events.record ~kind:"pool_inline_run" ~component:"pool"
         (Printf.sprintf "%d tasks ran inline on a poisoned pool"
            (Array.length tasks))
     end);
    run_inline t tasks
  end
  else begin
    let deadline = Guard.current () in
    (* the job is stamped with the pool's epoch under the mutex, so a
       reincarnation serializes either wholly before (job joins the fresh
       incarnation) or wholly after this submission *)
    Mutex.lock t.mutex;
    let job =
      {
        tasks;
        next = Atomic.make 0;
        pending = Atomic.make (Array.length tasks);
        failure = Atomic.make None;
        abandoned = Atomic.make false;
        released = Atomic.make false;
        j_epoch = t.epoch;
        deadline;
        done_mutex = Mutex.create ();
        done_cond = Condition.create ();
      }
    in
    t.current <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    (* submitter participates; its own Timeout is contained like any
       other task failure so the barrier still drains *)
    work_off ~stealing:false t job;
    (* straggler barrier: spin briefly, then back off to a condvar sleep *)
    let spins = ref 0 in
    while Atomic.get job.pending > 0 && !spins < barrier_spins do
      Domain.cpu_relax ();
      incr spins
    done;
    let deadline_expired () =
      match deadline with Some d -> Guard.expired d | None -> false
    in
    if Atomic.get job.pending > 0 then begin
      (match deadline with
      | Some _ -> Guard.register_waiter job.done_mutex job.done_cond
      | None -> ());
      Mutex.lock job.done_mutex;
      while Atomic.get job.pending > 0 && not (deadline_expired ()) do
        Condition.wait job.done_cond job.done_mutex
      done;
      Mutex.unlock job.done_mutex;
      (match deadline with
      | Some _ -> Guard.unregister_waiter job.done_mutex
      | None -> ())
    end;
    if Atomic.get job.pending > 0 then begin
      (* Deadline overrun with a straggler still running: the watchdog
         abandons the barrier rather than hang. The pool is poisoned —
         subsequent runs fall back to inline execution — and recovers when
         the straggler drains the last grain (see [work_off]). *)
      Atomic.set t.poisoned true;
      t.poisoned_since <- Unix.gettimeofday ();
      Atomic.set job.abandoned true;
      if Atomic.get job.pending = 0 then
        (* drained in the same instant; nothing left to recover *)
        release_pool t job;
      Gc_observe.Counters.(incr barriers);
      Atomic.incr t.faults;
      match deadline with
      | Some d ->
          Gc_errors.timeout ~site:d.Guard.dl_site
            ~timeout_ms:d.Guard.dl_timeout_ms
            ~ctx:[ ("barrier", "abandoned") ]
            ()
      | None -> assert false
    end
    else begin
      release_pool t job;
      Gc_observe.Counters.(incr barriers);
      match Atomic.get job.failure with
      | Some f -> reraise_failure t f
      | None -> ()
    end
  end
  end

(* Target grains per worker when no explicit grain is given: enough slack
   for the self-scheduler to absorb uneven grain runtimes, few enough that
   per-grain dispatch stays negligible. *)
let grains_per_worker = 4

let parallel_for ?grain t ~lo ~hi f =
  let total = hi - lo in
  if total <= 0 then ()
  else begin
    let grain =
      match grain with
      | Some g ->
          if g < 1 then
            Gc_errors.invalid_input
              ~ctx:[ ("grain", string_of_int g) ]
              "Parallel.parallel_for: grain must be >= 1";
          g
      | None -> max 1 (total / (grains_per_worker * t.n))
    in
    let n_grains = (total + grain - 1) / grain in
    let tasks =
      Array.init n_grains (fun g ->
          let start = lo + (g * grain) in
          let stop = min hi (start + grain) in
          fun () -> f start stop)
    in
    run t tasks
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.cond;
  let ds = t.domains @ t.zombies in
  t.domains <- [];
  t.zombies <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join ds

let default_pool = ref None

(* GC_NUM_THREADS overrides the machine-derived default; values are clamped
   to [1, 128] so a stray setting cannot oversubscribe the host into
   unusability or underflow to an invalid pool. *)
let threads_of_env s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Some (max 1 (min 128 v))
  | None -> None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let n =
        match Option.bind (Sys.getenv_opt "GC_NUM_THREADS") threads_of_env with
        | Some n -> n
        | None -> max 1 (min 16 (Domain.recommended_domain_count () - 1))
      in
      let p = create n in
      default_pool := Some p;
      (* worker domains must not leak past program exit *)
      at_exit (fun () ->
          match !default_pool with
          | Some p ->
              default_pool := None;
              shutdown p
          | None -> ());
      p
