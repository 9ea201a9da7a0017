(* Each counter is one [declare] line below. [reset], the snapshot JSON
   and the schema check ([check_document]) all walk [all], so the
   declaration order is the JSON order. The snapshot record and its
   constructor are the only other places a counter is named: the compiler
   checks every field is filled, and test_observe checks each is filled
   from its own counter. *)

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

type t = {
  name : string;
  gate : bool Atomic.t;  (* [on] for a gated counter, [always] otherwise *)
  cell : int Atomic.t;
  field : snapshot -> int;  (* the counter's field in a snapshot *)
}

let on = Atomic.make false
let always = Atomic.make true
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on
let declared = ref []

let declare ?(gated = false) name field =
  let gate = if gated then on else always in
  let c = { name; gate; cell = Atomic.make 0; field } in
  declared := c :: !declared;
  c

(* Execution hot path (per kernel, section or [Alloc]): gated. *)
let kernel_invocations =
  declare ~gated:true "kernel_invocations" (fun s -> s.kernel_invocations)
let parallel_sections =
  declare ~gated:true "parallel_sections" (fun s -> s.parallel_sections)
let barriers = declare ~gated:true "barriers" (fun s -> s.barriers)
let task_launches = declare ~gated:true "task_launches" (fun s -> s.task_launches)
let bytes_allocated =
  declare ~gated:true "bytes_allocated" (fun s -> s.bytes_allocated)
let tasks_stolen = declare ~gated:true "tasks_stolen" (fun s -> s.tasks_stolen)
let envs_reused = declare ~gated:true "envs_reused" (fun s -> s.envs_reused)
let arena_hits = declare ~gated:true "arena_hits" (fun s -> s.arena_hits)
let arena_bytes_saved =
  declare ~gated:true "arena_bytes_saved" (fun s -> s.arena_bytes_saved)

(* Error, serving, supervision and tenancy paths: always counted. *)
let validation_rejects = declare "validation_rejects" (fun s -> s.validation_rejects)
let worker_faults = declare "worker_faults" (fun s -> s.worker_faults)
let runtime_faults = declare "runtime_faults" (fun s -> s.runtime_faults)
let timeouts = declare "timeouts" (fun s -> s.timeouts)
let resource_exhausted = declare "resource_exhausted" (fun s -> s.resource_exhausted)
let exec_retries = declare "exec_retries" (fun s -> s.exec_retries)
let fallback_interp = declare "fallback_interp" (fun s -> s.fallback_interp)
let sanitizer_hits = declare "sanitizer_hits" (fun s -> s.sanitizer_hits)
let serve_admitted = declare "serve_admitted" (fun s -> s.serve_admitted)
let serve_overloaded = declare "serve_overloaded" (fun s -> s.serve_overloaded)
let serve_shed_expired = declare "serve_shed_expired" (fun s -> s.serve_shed_expired)
let serve_budget_rejects =
  declare "serve_budget_rejects" (fun s -> s.serve_budget_rejects)
let breaker_opens = declare "breaker_opens" (fun s -> s.breaker_opens)
let breaker_probes = declare "breaker_probes" (fun s -> s.breaker_probes)
let breaker_closes = declare "breaker_closes" (fun s -> s.breaker_closes)
let breaker_shortcircuits =
  declare "breaker_shortcircuits" (fun s -> s.breaker_shortcircuits)
let bucket_compiles = declare "bucket_compiles" (fun s -> s.bucket_compiles)
let bucket_cache_hits = declare "bucket_cache_hits" (fun s -> s.bucket_cache_hits)
let pad_waste_rows = declare "pad_waste_rows" (fun s -> s.pad_waste_rows)
let coalesced_batches = declare "coalesced_batches" (fun s -> s.coalesced_batches)
let coalesced_tickets = declare "coalesced_tickets" (fun s -> s.coalesced_tickets)
let coalesced_max_tickets =
  declare "coalesced_max_tickets" (fun s -> s.coalesced_max_tickets)
let window_deadline_violations =
  declare "window_deadline_violations" (fun s -> s.window_deadline_violations)
let workers_restarted = declare "workers_restarted" (fun s -> s.workers_restarted)
let workers_superseded = declare "workers_superseded" (fun s -> s.workers_superseded)
let pools_reincarnated = declare "pools_reincarnated" (fun s -> s.pools_reincarnated)
let pool_inline_runs = declare "pool_inline_runs" (fun s -> s.pool_inline_runs)
let heartbeats_missed = declare "heartbeats_missed" (fun s -> s.heartbeats_missed)
let models_loaded = declare "models_loaded" (fun s -> s.models_loaded)
let models_retired = declare "models_retired" (fun s -> s.models_retired)
let hot_swaps = declare "hot_swaps" (fun s -> s.hot_swaps)
let models_parked = declare "models_parked" (fun s -> s.models_parked)
let models_reloaded = declare "models_reloaded" (fun s -> s.models_reloaded)
let quota_sheds = declare "quota_sheds" (fun s -> s.quota_sheds)
let cache_bytes_evicted = declare "cache_bytes_evicted" (fun s -> s.cache_bytes_evicted)
let cache_overcommits = declare "cache_overcommits" (fun s -> s.cache_overcommits)

let all = List.rev !declared
let name c = c.name
let gated c = c.gate == on
let get c = Atomic.get c.cell

(* The [if] on one atomic load is the entire disabled-path cost. *)
let add c n = if Atomic.get c.gate then ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1

let record_max c v =
  let rec raise_to () =
    let cur = Atomic.get c.cell in
    if v > cur && not (Atomic.compare_and_set c.cell cur v) then raise_to ()
  in
  if Atomic.get c.gate then raise_to ()

let reset () = List.iter (fun c -> Atomic.set c.cell 0) all

let snapshot () =
  {
    kernel_invocations = get kernel_invocations;
    parallel_sections = get parallel_sections;
    barriers = get barriers;
    task_launches = get task_launches;
    bytes_allocated = get bytes_allocated;
    tasks_stolen = get tasks_stolen;
    envs_reused = get envs_reused;
    arena_hits = get arena_hits;
    arena_bytes_saved = get arena_bytes_saved;
    validation_rejects = get validation_rejects;
    worker_faults = get worker_faults;
    runtime_faults = get runtime_faults;
    timeouts = get timeouts;
    resource_exhausted = get resource_exhausted;
    exec_retries = get exec_retries;
    fallback_interp = get fallback_interp;
    sanitizer_hits = get sanitizer_hits;
    serve_admitted = get serve_admitted;
    serve_overloaded = get serve_overloaded;
    serve_shed_expired = get serve_shed_expired;
    serve_budget_rejects = get serve_budget_rejects;
    breaker_opens = get breaker_opens;
    breaker_probes = get breaker_probes;
    breaker_closes = get breaker_closes;
    breaker_shortcircuits = get breaker_shortcircuits;
    bucket_compiles = get bucket_compiles;
    bucket_cache_hits = get bucket_cache_hits;
    pad_waste_rows = get pad_waste_rows;
    coalesced_batches = get coalesced_batches;
    coalesced_tickets = get coalesced_tickets;
    coalesced_max_tickets = get coalesced_max_tickets;
    window_deadline_violations = get window_deadline_violations;
    workers_restarted = get workers_restarted;
    workers_superseded = get workers_superseded;
    pools_reincarnated = get pools_reincarnated;
    pool_inline_runs = get pool_inline_runs;
    heartbeats_missed = get heartbeats_missed;
    models_loaded = get models_loaded;
    models_retired = get models_retired;
    hot_swaps = get hot_swaps;
    models_parked = get models_parked;
    models_reloaded = get models_reloaded;
    quota_sheds = get quota_sheds;
    cache_bytes_evicted = get cache_bytes_evicted;
    cache_overcommits = get cache_overcommits;
  }

let snapshot_to_json s =
  Json.Obj (List.map (fun c -> (c.name, Json.Int (c.field s))) all)

(* [where] prefixes each message with the offending section. *)
let check_counters where = function
  | Json.Obj kvs -> (
      let want = List.map name all in
      let got = List.map fst kvs in
      if got <> want then
        Error
          (Printf.sprintf "%s\"counters\" keys [%s], want the %d declared [%s]"
             where (String.concat "," got) (List.length want)
             (String.concat "," want))
      else
        let not_int = function _, Json.Int _ -> false | _ -> true in
        match List.find_opt not_int kvs with
        | Some (k, _) ->
            Error (Printf.sprintf "%scounter %S is not an integer" where k)
        | None -> Ok ())
  | _ -> Error (where ^ "\"counters\" is not an object")

let check_document doc =
  let bench_sections =
    match doc with
    | Json.Obj kvs ->
        List.filter (fun (k, _) -> String.starts_with ~prefix:"bench:" k) kvs
    | _ -> []
  in
  List.fold_left
    (fun acc (where, j) ->
      Result.bind acc (fun () ->
          match Json.member "counters" j with
          | None -> Ok ()
          | Some c -> check_counters where c))
    (Ok ())
    (("", doc) :: List.map (fun (k, j) -> (k ^ ": ", j)) bench_sections)

let with_counters f =
  let was = enabled () in
  reset ();
  enable ();
  Fun.protect
    ~finally:(fun () -> if not was then disable ())
    (fun () ->
      let v = f () in
      (v, snapshot ()))
