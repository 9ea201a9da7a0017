module Dtype = Gc_tensor.Dtype
module Shape = Gc_tensor.Shape
module Layout = Gc_tensor.Layout
module Tensor = Gc_tensor.Tensor
module Reorder = Gc_tensor.Reorder
module Ref_ops = Gc_tensor.Ref_ops
module Machine = Gc_microkernel.Machine
module Graph = Gc_graph_ir.Graph
module Builder = Gc_graph_ir.Builder
module Op = Gc_graph_ir.Op
module Op_kind = Gc_graph_ir.Op_kind
module Attrs = Gc_graph_ir.Attrs
module Logical_tensor = Gc_graph_ir.Logical_tensor
module Dim = Gc_graph_ir.Dim
module Reference = Gc_graph_ir.Reference
module Pipeline = Gc_graph_passes.Pipeline
module Fused_op = Gc_lowering.Fused_op
module Params = Gc_lowering.Params
module Heuristic = Gc_lowering.Heuristic
module Ir = Gc_tensor_ir.Ir
module Printer = Gc_tensor_ir.Printer
module Tir_pipeline = Gc_tir_passes.Tir_pipeline
module Buffer_schedule = Gc_tir_passes.Buffer_schedule
module Memgov = Gc_tensor.Memgov
module Lower_graph = Gc_lowering.Lower_graph
module Engine = Gc_runtime.Engine
module Guard = Gc_runtime.Guard
module Buffer = Gc_tensor.Buffer
module Observe = Gc_observe
module Errors = Gc_errors

let version = "1.0.0"

type config = {
  graph : Pipeline.config;
  tir : Tir_pipeline.config;
  pool : Gc_runtime.Parallel.t option;
}

let default_config ?machine () =
  {
    graph = Pipeline.default ?machine ();
    tir = Tir_pipeline.default;
    pool = None;
  }

(* The binding plan: [execute]'s binding resolution, compiled once. Each
   entry parameter of the Tensor IR entry function is a slot; the plan maps
   logical-tensor ids (clone and original) to slots, so a steady-state call
   resolves its bindings with one hash lookup per binding instead of
   scanning association lists per parameter. *)
type binding_plan = {
  bp_params : (Logical_tensor.t * Ir.tensor) array;
      (** the entry function's parameters, call order *)
  bp_input : bool array;  (** slot is a graph input — a binding is required *)
  bp_slots : (int, int list) Hashtbl.t;
      (** logical tensor id (clone or pre-clone original) → slots *)
  bp_out_slots : int array;
      (** slot of each graph output, in declaration order; [-1] when the
          output is not an entry parameter (resolved via bindings) *)
}

(* One domain's pooled output tensors ([execute ~reuse_outputs:true]),
   stamped with the owning domain and the constant generation that
   produced them. Only the owner fills [op_tensors] and stamps [op_used]
   (the artifact's [out_clock] at its last use). *)
type out_pool = {
  op_domain : int;
  op_gen : int;
  mutable op_used : int;
  op_tensors : Tensor.t option array;
}

type t = {
  config : config;
  fused : Fused_op.graph;
  lowered : Lower_graph.t;
  module_opt : Ir.module_;
  stats : Tir_pipeline.stats;
  engine : Engine.t;
  clone_map : (int, Logical_tensor.t) Hashtbl.t;
      (** original logical tensor id → compiled clone *)
  plan : binding_plan;
  compiled_io : Logical_tensor.t array;
      (** the compiled clone's [inputs @ outputs], for re-keying cache hits *)
  source_graph : Graph.t;
      (** the caller's (unmutated) graph — the reference interpreter runs
          it directly when the watchdog falls back, so user bindings apply
          without translation *)
  init_gen : int Atomic.t;
      (** the [pool_gen] value the constant init is valid for; [-1] =
          never initialized. Comparing generations (rather than a boolean)
          closes the race where an init concurrent with
          [invalidate_constants] could republish stale constants. *)
  init_mutex : Mutex.t;
  pool_gen : int Atomic.t;
      (** bumped by [invalidate_constants]; stale output pools are dropped *)
  out_pools : out_pool option Atomic.t array;
      (** per-domain output pools, one cell each (see [out_pool]) *)
  out_clock : int Atomic.t;  (** ticks once per use of an output pool *)
}

let out_pool_slots = 16

let build_plan (fused : Fused_op.graph) (lowered : Lower_graph.t)
    (clone_map : (int, Logical_tensor.t) Hashtbl.t) =
  let bp_params = Array.of_list lowered.entry_params in
  let n = Array.length bp_params in
  let bp_slots = Hashtbl.create (2 * (n + 1)) in
  let add id slot =
    let cur = Option.value ~default:[] (Hashtbl.find_opt bp_slots id) in
    Hashtbl.replace bp_slots id (cur @ [ slot ])
  in
  Array.iteri (fun i ((lt : Logical_tensor.t), _) -> add lt.id i) bp_params;
  (* user bindings may reference the original (pre-clone) tensors: alias
     their ids to the clone's slots *)
  Hashtbl.iter
    (fun src_id (clone : Logical_tensor.t) ->
      if src_id <> clone.id then
        match Hashtbl.find_opt bp_slots clone.id with
        | Some slots -> Hashtbl.replace bp_slots src_id slots
        | None -> ())
    clone_map;
  let bp_input =
    Array.map
      (fun ((lt : Logical_tensor.t), _) ->
        List.exists (Logical_tensor.equal lt) fused.g_inputs)
      bp_params
  in
  let bp_out_slots =
    Array.of_list
      (List.map
         (fun (lt : Logical_tensor.t) ->
           match Hashtbl.find_opt bp_slots lt.id with
           | Some (_ :: _ as slots) -> List.nth slots (List.length slots - 1)
           | _ -> -1)
         fused.g_outputs)
  in
  { bp_params; bp_input; bp_slots; bp_out_slots }

let attr_value_string : Attrs.value -> string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%h" f
  | Bool b -> string_of_bool b
  | Str s -> s
  | Ints l -> String.concat "x" (List.map string_of_int l)
  | Floats l -> String.concat "x" (List.map (Printf.sprintf "%h") l)

let fingerprint ?config (g : Graph.t) =
  let config = match config with Some c -> c | None -> default_config () in
  let b = Stdlib.Buffer.create 1024 in
  let add = Stdlib.Buffer.add_string b in
  (* canonical tensor numbering: first-mention order over inputs, the
     topologically sorted ops, then outputs — structurally identical graphs
     built at different times (different raw ids) fingerprint equal *)
  let canon = Hashtbl.create 64 in
  let idx (lt : Logical_tensor.t) =
    match Hashtbl.find_opt canon lt.id with
    | Some i -> i
    | None ->
        let i = Hashtbl.length canon in
        Hashtbl.add canon lt.id i;
        i
  in
  (* symbolic dims are canonicalized by first mention ($0, $1, ...) and the
     representative concrete size of a symbolic axis is deliberately NOT
     part of the key: graphs differing only there are one shape class and
     must share a compiled artifact *)
  let sym_canon = Hashtbl.create 8 in
  let sym_idx s =
    match Hashtbl.find_opt sym_canon s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length sym_canon in
        Hashtbl.add sym_canon s i;
        i
  in
  let add_dims (lt : Logical_tensor.t) =
    if Dim.has_sym lt.dims then begin
      add "[";
      Array.iter
        (fun d ->
          (match d with
          | Dim.Fixed n -> add (string_of_int n)
          | Dim.Sym s -> add ("$" ^ string_of_int (sym_idx s)));
          add "x")
        lt.dims;
      add "]"
    end
    else add (Shape.to_string lt.shape)
  in
  let add_lt (lt : Logical_tensor.t) =
    add (string_of_int (idx lt));
    add ":";
    add (Dtype.to_string lt.dtype);
    add ":";
    add_dims lt;
    add ":";
    add (Layout.to_string lt.layout);
    (match lt.property with
    | Variable -> add ":v"
    | Runtime_const -> add ":rc"
    | Compile_const v ->
        (* compile-time constants are part of the generated code *)
        add ":cc[";
        Array.iter
          (fun x -> add (Printf.sprintf "%h," x))
          (Tensor.to_float_array v);
        add "]");
    add ";"
  in
  let ops = match Graph.topo_sort g with Ok g' -> g'.ops | Error _ -> g.ops in
  add "in:";
  List.iter add_lt g.inputs;
  add "ops:";
  List.iter
    (fun (op : Op.t) ->
      add (Op_kind.to_string op.kind);
      add "{";
      List.iter
        (fun (k, v) ->
          add k;
          add "=";
          add (attr_value_string v);
          add ",")
        (List.sort compare (Attrs.bindings op.attrs));
      add "}(";
      List.iter add_lt op.inputs;
      add ")->(";
      List.iter add_lt op.outputs;
      add ");")
    ops;
  add "out:";
  List.iter add_lt g.outputs;
  let graph_digest = Digest.string (Stdlib.Buffer.contents b) in
  (* the compiled artifact also depends on the pass configuration; the pool
     only carries execution resources and is deliberately excluded *)
  let config_digest =
    Digest.string (Marshal.to_string (config.graph, config.tir) [])
  in
  Digest.to_hex graph_digest ^ Digest.to_hex config_digest

let compile_pipeline ?config ?trace (g : Graph.t) =
  let config = match config with Some c -> c | None -> default_config () in
  (* compilation refines tensor metadata (layouts, constness) in place, so
     work on a private clone of the graph *)
  let source_graph = g in
  let g, clone_map = Graph.clone g in
  let compiled_io = Array.of_list (g.inputs @ g.outputs) in
  let fused = Pipeline.run ?trace config.graph g in
  let lowered =
    Gc_observe.Trace.time_into trace ~stage:"lowering" ~name:"lower_graph"
      ~before:(Gc_observe.Stats.of_fused fused)
      ~after:(fun (l : Lower_graph.t) -> Gc_observe.Stats.of_module l.module_)
      Lower_graph.lower fused
  in
  let module_opt, stats =
    Tir_pipeline.run ?trace ~config:config.tir lowered.module_
  in
  let engine =
    Gc_observe.Trace.time_into trace ~stage:"runtime" ~name:"engine_create"
      ~before:(Gc_observe.Stats.of_module module_opt)
      ~after:(fun _ -> Gc_observe.Stats.of_module module_opt)
      (Engine.create ?pool:config.pool)
      module_opt
  in
  let plan = build_plan fused lowered clone_map in
  {
    config;
    fused;
    lowered;
    module_opt;
    stats;
    engine;
    clone_map;
    plan;
    compiled_io;
    source_graph;
    init_gen = Atomic.make (-1);
    init_mutex = Mutex.create ();
    pool_gen = Atomic.make 0;
    out_pools = Array.init out_pool_slots (fun _ -> Atomic.make None);
    out_clock = Atomic.make 0;
  }

let compile ?config ?trace g =
  try compile_pipeline ?config ?trace g with
  | Gc_errors.Error _ as e -> raise e
  | e ->
      (* anything foreign escaping the compilation pipeline is by
         definition a compile error, whatever its original form *)
      Gc_errors.compile_error ~stage:"pipeline" (Printexc.to_string e)

let fused_graph t = t.fused
let tir_module t = t.module_opt
let tir_stats t = t.stats
let config_of t = t.config

let invalidate_constants t =
  Mutex.lock t.init_mutex;
  (* bumping the generation is the single linearization point: it both
     forces the next execute to re-run the init ([init_gen] no longer
     matches) and lazily discards the generation-stamped per-domain output
     pools; the engine's global buffers are repopulated in place by the
     next init run. Taking [init_mutex] orders the bump against any
     in-flight init, so a concurrent execute either observes the new
     generation (and re-inits) or publishes its init stamped with the old
     one — which the next execute then redoes. *)
  Atomic.incr t.pool_gen;
  Mutex.unlock t.init_mutex

(* User bindings reference the original graph's tensors; the compiled
   partition works on clones. Accept either. *)
let find_binding t bindings (lt : Logical_tensor.t) =
  List.find_map
    (fun ((l : Logical_tensor.t), v) ->
      if l.id = lt.id then Some v
      else
        match Hashtbl.find_opt t.clone_map l.id with
        | Some clone when clone.id = lt.id -> Some v
        | _ -> None)
    bindings

(* Boundary validation failures are typed Invalid_input and counted —
   both for [run_init]'s constant bindings and [execute]'s per-call
   bindings. *)
let reject what ctx =
  Gc_observe.Counters.(incr validation_rejects);
  Gc_errors.invalid_input ~ctx what

let check_binding (lt : Logical_tensor.t) (v : Tensor.t) =
  if not (Shape.equal lt.shape (Tensor.shape v)) then
    reject
      (Printf.sprintf "Core.execute: input %s has shape %s, expected %s"
         lt.name
         (Shape.to_string (Tensor.shape v))
         (Shape.to_string lt.shape))
      [
        ("input", lt.name);
        ("shape", Shape.to_string (Tensor.shape v));
        ("expected_shape", Shape.to_string lt.shape);
      ];
  if not (Dtype.equal lt.dtype (Tensor.dtype v)) then
    reject
      (Printf.sprintf "Core.execute: input %s has dtype %s, expected %s"
         lt.name
         (Dtype.to_string (Tensor.dtype v))
         (Dtype.to_string lt.dtype))
      [
        ("input", lt.name);
        ("dtype", Dtype.to_string (Tensor.dtype v));
        ("expected_dtype", Dtype.to_string lt.dtype);
      ];
  if not (Layout.equal lt.layout (Tensor.layout v)) then
    reject
      (Printf.sprintf "Core.execute: input %s has layout %s, expected %s"
         lt.name
         (Layout.to_string (Tensor.layout v))
         (Layout.to_string lt.layout))
      [
        ("input", lt.name);
        ("layout", Layout.to_string (Tensor.layout v));
        ("expected_layout", Layout.to_string lt.layout);
      ]

(* The constant-preprocessing step ("init function"): evaluates the init
   subgraph once with the reference evaluator (the host-side analogue of
   the paper's generated init code) and uploads the results — and every
   compile-time constant — into the engine's global buffers. *)
let run_init t bindings =
  let init_env =
    match t.fused.init with
    | None -> []
    | Some init ->
        let const_bindings =
          List.filter_map
            (fun (lt : Logical_tensor.t) ->
              match find_binding t bindings lt with
              | Some v ->
                  check_binding lt v;
                  Some (lt, v)
              | None ->
                  if Logical_tensor.is_compile_const lt then None
                  else
                    reject
                      (Printf.sprintf
                         "Core.execute: missing binding for constant input %s"
                         lt.name)
                      [ ("input", lt.name) ])
            init.Graph.inputs
        in
        Reference.eval_tensors init const_bindings
  in
  List.iter
    (fun ((lt : Logical_tensor.t), (gt : Ir.tensor)) ->
      let value =
        match lt.property with
        | Compile_const v -> Some v
        | _ -> (
            match List.assoc_opt lt.id init_env with
            | Some v -> Some v
            | None -> find_binding t bindings lt)
      in
      match value with
      | Some v ->
          Buffer.blit ~src:(Tensor.buffer v) ~dst:(Engine.global_buffer t.engine gt)
      | None ->
          reject
            (Printf.sprintf "Core.execute: no value for runtime constant %s"
               lt.name)
            [ ("input", lt.name) ])
    t.lowered.globals

(* Idempotent, mutex-guarded (double-checked) constant initialization:
   concurrent first executes run the init exactly once; the winner
   publishes [init_gen] only after the global buffers are populated. The
   published value is the generation re-read UNDER the mutex, so an
   [invalidate_constants] (which also takes the mutex to bump the
   generation) can never be overwritten by a racing init stamped with the
   generation it just retired. *)
let ensure_init t bindings =
  if Atomic.get t.init_gen <> Atomic.get t.pool_gen then begin
    Mutex.lock t.init_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.init_mutex)
      (fun () ->
        let gen = Atomic.get t.pool_gen in
        if Atomic.get t.init_gen <> gen then begin
          run_init t bindings;
          Atomic.set t.init_gen gen
        end)
  end

(* Output-pool cells are probed from [domain mod out_pool_slots]. *)
let rec own_cell cells domain home k =
  if k = out_pool_slots then -1
  else
    let c = (home + k) mod out_pool_slots in
    match Atomic.get cells.(c) with
    | Some p when p.op_domain = domain -> c
    | _ -> own_cell cells domain home (k + 1)

(* The cell a domain without a pool claims, with the value seen in it:
   the first empty one or one holding a stale generation, else the least
   recently used. *)
let rec free_cell cells gen home k best =
  if k = out_pool_slots then best
  else
    let c = (home + k) mod out_pool_slots in
    match Atomic.get cells.(c) with
    | None -> (c, None)
    | Some p as seen when p.op_gen <> gen -> (c, seen)
    | Some p as seen -> (
        match best with
        | _, Some q when q.op_used <= p.op_used ->
            free_cell cells gen home (k + 1) best
        | _ -> free_cell cells gen home (k + 1) (c, seen))

(* The calling domain's output pool at constant generation [gen]. A domain
   keeps its pool in one cell; it claims a cell by CAS and never evicts a
   current pool while a free or stale cell exists, so a pool is lost only
   when more than [out_pool_slots] domains reuse this artifact's outputs
   (or to a lost CAS, in which case this call's pool goes unpublished). *)
let out_pool t gen =
  let domain = (Domain.self () :> int) in
  let home = domain mod out_pool_slots in
  let own = own_cell t.out_pools domain home 0 in
  let current = if own < 0 then None else Atomic.get t.out_pools.(own) in
  match current with
  | Some p when p.op_domain = domain && p.op_gen = gen ->
      p.op_used <- Atomic.fetch_and_add t.out_clock 1;
      p
  | _ ->
      let p =
        {
          op_domain = domain;
          op_gen = gen;
          op_used = Atomic.fetch_and_add t.out_clock 1;
          op_tensors = Array.make (Array.length t.plan.bp_params) None;
        }
      in
      let c, seen =
        match current with
        | Some q when q.op_domain = domain -> (own, current)
        | _ -> free_cell t.out_pools gen home 0 (home, None)
      in
      ignore (Atomic.compare_and_set t.out_pools.(c) seen (Some p));
      p

let output_tensor t ~reuse_outputs slot (lt : Logical_tensor.t) =
  if not reuse_outputs then
    Tensor.create ~name:lt.name ~layout:lt.layout lt.dtype lt.shape
  else begin
    let pool = out_pool t (Atomic.get t.pool_gen) in
    match pool.op_tensors.(slot) with
    | Some v -> v
    | None ->
        let v = Tensor.create ~name:lt.name ~layout:lt.layout lt.dtype lt.shape in
        pool.op_tensors.(slot) <- Some v;
        v
  end

(* Resolve and validate the per-call bindings against the plan. Runs
   BEFORE any engine state is touched (constant init, arenas, execution
   environments): a malformed call is rejected while the partition is
   still untouched, so rejection is cheap and leaves no half-initialized
   state behind. *)
let resolve_bindings t bindings =
  let plan = t.plan in
  let n = Array.length plan.bp_params in
  let vals : Tensor.t option array = Array.make n None in
  List.iter
    (fun ((l : Logical_tensor.t), v) ->
      match Hashtbl.find_opt plan.bp_slots l.id with
      | Some slots ->
          List.iter
            (fun s ->
              let lt, _ = plan.bp_params.(s) in
              check_binding lt v;
              vals.(s) <- Some v)
            slots
      | None -> () (* e.g. constant weights: consumed by the init step *))
    bindings;
  Array.iteri
    (fun i slot_val ->
      if slot_val = None && plan.bp_input.(i) then begin
        let lt, _ = plan.bp_params.(i) in
        reject
          (Printf.sprintf "Core.execute: missing binding for input %s" lt.name)
          [ ("input", lt.name) ]
      end)
    vals;
  vals

let execute ?(reuse_outputs = false) t bindings =
  let plan = t.plan in
  let vals = resolve_bindings t bindings in
  ensure_init t bindings;
  let bufs =
    Array.mapi
      (fun i slot_val ->
        match slot_val with
        | Some v -> Tensor.buffer v
        | None ->
            let lt, _ = plan.bp_params.(i) in
            let out = output_tensor t ~reuse_outputs i lt in
            vals.(i) <- Some out;
            Tensor.buffer out)
      vals
  in
  Engine.run_entry t.engine bufs;
  List.mapi
    (fun i (lt : Logical_tensor.t) ->
      let slot = plan.bp_out_slots.(i) in
      if slot >= 0 then
        match vals.(slot) with Some v -> v | None -> assert false
      else
        match find_binding t bindings lt with
        | Some v -> v
        | None ->
            reject
              (Printf.sprintf "Core.execute: output %s was not produced"
                 lt.name)
              [ ("output", lt.name) ])
    t.fused.g_outputs

let reference = Reference.run

(* Opt-in output sanitizer: a kernel that silently produced NaN/Inf into a
   float output is promoted to a typed Runtime_fault, which the serve
   tier's retry / fallback ladder can then act on. Integer outputs cannot
   encode non-finite values and are skipped. *)
let sanitize_outputs outs =
  List.iter
    (fun v ->
      match Tensor.dtype v with
      | Dtype.F32 | Dtype.Bf16 ->
          let b = Tensor.buffer v in
          let n = Buffer.length b in
          let bad = ref (-1) in
          (try
             for i = 0 to n - 1 do
               if not (Float.is_finite (Buffer.get b i)) then begin
                 bad := i;
                 raise Exit
               end
             done
           with Exit -> ());
          if !bad >= 0 then begin
            Gc_observe.Counters.(incr sanitizer_hits);
            Gc_errors.runtime_fault ~site:"core.sanitizer"
              ~ctx:
                [
                  ("index", string_of_int !bad);
                  ("value", Printf.sprintf "%h" (Buffer.get b !bad));
                ]
              "Core.execute: non-finite value in output"
          end
      | _ -> ())
    outs

(* {2 Compilation cache} *)

(* Estimated resident bytes of a compiled partition: packed runtime-
   constant globals plus one arena instance per function's alloc plan.
   An estimate — the live [Buffer] charges in [Memgov] track exact
   storage — but stable and cheap (computed once at insert), which is
   what budget-aware cache residency needs. *)
let estimated_bytes (t : t) =
  let globals =
    List.fold_left
      (fun acc g -> acc + Ir.tensor_bytes g)
      0 t.module_opt.Ir.globals
  in
  let arenas =
    List.fold_left
      (fun acc (f : Ir.func) ->
        match Buffer_schedule.plan_bytes (Buffer_schedule.alloc_plan f) with
        | b -> acc + b
        | exception _ -> acc)
      0 t.module_opt.Ir.funcs
  in
  globals + arenas

module Compile_cache = struct
  type stats = {
    hits : int;
    misses : int;
    entries : int;
    evictions : int;
    resident_bytes : int;
    pinned : int;
  }

  (* Residency record: the compiled partition plus the byte/pin state the
     eviction policy runs on. [ce_charged] remembers whether the insert
     recorded a Memgov charge, so release is exactly symmetric whatever
     the budget was doing at insert time. *)
  type entry = {
    ce_t : t;
    ce_bytes : int;
    ce_charged : bool;
    mutable ce_pins : int;
  }

  let lock = Mutex.create ()
  let table : (string, entry) Hashtbl.t = Hashtbl.create 16
  let n_hits = ref 0
  let n_misses = ref 0
  let n_evictions = ref 0

  (* LRU bookkeeping: a monotonically increasing use stamp per key; the
     eviction scan is O(entries), fine at the cache sizes a bound makes
     sense for (tens to hundreds of compiled modules). *)
  let stamps : (string, int) Hashtbl.t = Hashtbl.create 16
  let tick = ref 0

  let env_max_bytes () =
    match Sys.getenv_opt "GC_CACHE_MAX_BYTES" with
    | None | Some "" -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | _ -> None)

  let byte_bound : int option ref = ref (env_max_bytes ())

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let touch_locked key =
    incr tick;
    Hashtbl.replace stamps key !tick

  let resident_bytes_locked () =
    Hashtbl.fold (fun _ e acc -> acc + e.ce_bytes) table 0

  (* Drop [key] now: release its Memgov charge, count the freed bytes. *)
  let drop_locked key e =
    Hashtbl.remove table key;
    Hashtbl.remove stamps key;
    if e.ce_charged then Memgov.release e.ce_bytes;
    Gc_observe.Counters.(add cache_bytes_evicted e.ce_bytes);
    incr n_evictions

  (* Least-recently-used entry among the evictable (unpinned) ones. *)
  let lru_unpinned_locked () =
    Hashtbl.fold
      (fun key e acc ->
        if e.ce_pins > 0 then acc
        else
          let stamp = Option.value ~default:0 (Hashtbl.find_opt stamps key) in
          match acc with
          | Some (_, _, best) when best <= stamp -> acc
          | _ -> Some (key, e, stamp))
      table None

  (* Enforce the byte bound, LRU-first, skipping pinned entries. When
     everything left is pinned the cache stays over-bound — pins are hard
     residency guarantees. *)
  let evict_locked () =
    let continue = ref true in
    match !byte_bound with
    | None -> ()
    | Some mb ->
        while !continue && resident_bytes_locked () > max mb 0 do
          match lru_unpinned_locked () with
          | Some (key, e, _) -> drop_locked key e
          | None -> continue := false
        done

  (* Charge a fresh insert's estimated bytes against the memory budget.
     This layer never originates [Resource_exhausted]: on refusal it
     evicts LRU unpinned entries to make headroom and retries; when the
     budget still refuses with nothing left to evict, the entry is
     admitted uncharged and the overcommit counted — serving traffic must
     not fail because residency accounting is full. *)
  let charge_insert_locked key bytes =
    let name = "compile_cache:" ^ String.sub key 0 (min 12 (String.length key)) in
    let rec go () =
      match Memgov.charge ~name bytes with
      | charged -> charged
      | exception Gc_errors.Error (Gc_errors.Resource_exhausted _) -> (
          match lru_unpinned_locked () with
          | Some (k, e, _) ->
              drop_locked k e;
              go ()
          | None ->
              Gc_observe.Counters.(incr cache_overcommits);
              false)
    in
    go ()

  let set_max_bytes m =
    locked (fun () ->
        byte_bound := m;
        evict_locked ())

  let max_bytes () = locked (fun () -> !byte_bound)
  let size () = locked (fun () -> Hashtbl.length table)

  let keys () =
    locked (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) table [])

  let mem key = locked (fun () -> Hashtbl.mem table key)

  let entry_bytes key =
    locked (fun () ->
        Option.map (fun e -> e.ce_bytes) (Hashtbl.find_opt table key))

  let pin key =
    locked (fun () ->
        match Hashtbl.find_opt table key with
        | Some e ->
            e.ce_pins <- e.ce_pins + 1;
            true
        | None -> false)

  let unpin key =
    locked (fun () ->
        match Hashtbl.find_opt table key with
        | Some e when e.ce_pins > 0 -> e.ce_pins <- e.ce_pins - 1
        | _ -> ())

  let pins key =
    locked (fun () ->
        match Hashtbl.find_opt table key with
        | Some e -> e.ce_pins
        | None -> 0)

  let evict_key key =
    locked (fun () ->
        match Hashtbl.find_opt table key with
        | Some e when e.ce_pins = 0 ->
            drop_locked key e;
            true
        | _ -> false)

  let stats () =
    locked (fun () ->
        {
          hits = !n_hits;
          misses = !n_misses;
          entries = Hashtbl.length table;
          evictions = !n_evictions;
          resident_bytes = resident_bytes_locked ();
          pinned =
            Hashtbl.fold
              (fun _ e acc -> if e.ce_pins > 0 then acc + 1 else acc)
              table 0;
        })

  let clear () =
    locked (fun () ->
        Hashtbl.iter
          (fun _ e -> if e.ce_charged then Memgov.release e.ce_bytes)
          table;
        Hashtbl.reset table;
        Hashtbl.reset stamps;
        n_hits := 0;
        n_misses := 0;
        n_evictions := 0)
end

(* A cache hit is re-keyed to the requesting graph's logical tensors: the
   engine, Tensor IR, init state (constants) and output pools stay shared
   with the cached partition; only the id → slot maps are extended so the
   new graph's tensors resolve positionally (the fingerprint guarantees
   matching shapes/dtypes per position). *)
let rekey (base : t) (g : Graph.t) =
  let io = g.inputs @ g.outputs in
  if
    List.for_all
      (fun (lt : Logical_tensor.t) -> Hashtbl.mem base.clone_map lt.id)
      io
  then base
  else begin
    let clone_map = Hashtbl.copy base.clone_map in
    let bp_slots = Hashtbl.copy base.plan.bp_slots in
    List.iteri
      (fun i (lt : Logical_tensor.t) ->
        if i < Array.length base.compiled_io then begin
          let target = base.compiled_io.(i) in
          Hashtbl.replace clone_map lt.id target;
          match Hashtbl.find_opt bp_slots target.id with
          | Some slots -> Hashtbl.replace bp_slots lt.id slots
          | None -> ()
        end)
      io;
    { base with clone_map; plan = { base.plan with bp_slots }; source_graph = g }
  end

let compile_cached ?config ?trace ?(pin = false) (g : Graph.t) =
  let config = match config with Some c -> c | None -> default_config () in
  let key = fingerprint ~config g in
  let cached =
    Compile_cache.locked (fun () ->
        match Hashtbl.find_opt Compile_cache.table key with
        | Some e ->
            incr Compile_cache.n_hits;
            Compile_cache.touch_locked key;
            if pin then e.Compile_cache.ce_pins <- e.Compile_cache.ce_pins + 1;
            Some e.Compile_cache.ce_t
        | None ->
            incr Compile_cache.n_misses;
            None)
  in
  match cached with
  | Some base -> rekey base g
  | None -> (
      (* compile outside the lock: concurrent misses race, first insert
         wins and the losers re-key against the winner *)
      let t = compile ~config ?trace g in
      let bytes = estimated_bytes t in
      Compile_cache.locked (fun () ->
          match Hashtbl.find_opt Compile_cache.table key with
          | Some winner ->
              Compile_cache.touch_locked key;
              if pin then
                winner.Compile_cache.ce_pins <-
                  winner.Compile_cache.ce_pins + 1;
              winner.Compile_cache.ce_t
          | None ->
              let charged = Compile_cache.charge_insert_locked key bytes in
              Hashtbl.add Compile_cache.table key
                {
                  Compile_cache.ce_t = t;
                  ce_bytes = bytes;
                  ce_charged = charged;
                  ce_pins = (if pin then 1 else 0);
                };
              Compile_cache.touch_locked key;
              Compile_cache.evict_locked ();
              t)
      |> fun winner -> if winner == t then t else rekey winner g)

(* {2 Shape-polymorphic compilation: bucketed specialization} *)

module Buckets = struct
  type t = int list (* strictly increasing, all positive *)

  let default_sizes = [ 1; 2; 4; 8; 16; 32 ]

  let validate sizes =
    match sizes with
    | [] -> Gc_errors.invalid_input "Buckets: empty bucket list"
    | _ ->
        List.iter
          (fun b ->
            if b <= 0 then
              Gc_errors.invalid_input
                ~ctx:[ ("bucket", string_of_int b) ]
                "Buckets: sizes must be positive")
          sizes;
        let sorted = List.sort_uniq Int.compare sizes in
        sorted

  let of_list sizes = validate sizes

  (* GC_BUCKETS="1,2,4,8,16,32" overrides the default ladder. *)
  let of_env () =
    match Sys.getenv_opt "GC_BUCKETS" with
    | None | Some "" -> default_sizes
    | Some s ->
        let parts = String.split_on_char ',' (String.trim s) in
        validate
          (List.filter_map
             (fun p ->
               match int_of_string_opt (String.trim p) with
               | Some v -> Some v
               | None ->
                   Gc_errors.invalid_input
                     ~ctx:[ ("GC_BUCKETS", s) ]
                     "Buckets.of_env: not a comma-separated int list")
             parts)

  let max_size t = List.fold_left max 1 t

  (* Smallest bucket >= n; beyond the ladder, round up to the next
     multiple of the largest bucket so oversized requests still land on a
     small number of shape classes. *)
  let pick t n =
    if n <= 0 then
      Gc_errors.invalid_input
        ~ctx:[ ("n", string_of_int n) ]
        "Buckets.pick: size must be positive";
    match List.find_opt (fun b -> b >= n) t with
    | Some b -> b
    | None ->
        let m = max_size t in
        (n + m - 1) / m * m
end

(* A polymorphic compilation: one symbolic source graph, one compiled
   instance per bucketed symbol environment. Instances go through
   [compile_cached], so two poly handles over the same shape class share
   engines via the global cache. *)

type poly_instance = {
  pi_core : t;
  pi_subst : (int, Logical_tensor.t) Hashtbl.t;
      (* symbolic graph tensor id -> concrete substituted tensor *)
  pi_graph : Graph.t; (* the substituted concrete graph *)
}

type poly = {
  p_graph : Graph.t;
  p_config : config;
  p_buckets : Buckets.t;
  p_bucket_syms : string list;
  p_syms : string list;
  p_lock : Mutex.t;
  p_instances : (string, poly_instance) Hashtbl.t;
}

let compile_poly ?config ?buckets ?bucket_syms (g : Graph.t) =
  let config = match config with Some c -> c | None -> default_config () in
  let buckets =
    match buckets with Some b -> Buckets.of_list b | None -> Buckets.of_env ()
  in
  let syms = Graph.syms g in
  let bucket_syms = match bucket_syms with Some l -> l | None -> syms in
  List.iter
    (fun s ->
      if not (List.mem s syms) then
        Gc_errors.invalid_input
          ~ctx:[ ("sym", s) ]
          "Core.compile_poly: bucket_syms names an unknown symbol")
    bucket_syms;
  {
    p_graph = g;
    p_config = config;
    p_buckets = buckets;
    p_bucket_syms = bucket_syms;
    p_syms = syms;
    p_lock = Mutex.create ();
    p_instances = Hashtbl.create 8;
  }

let poly_graph p = p.p_graph
let poly_syms p = p.p_syms
let poly_buckets p = p.p_buckets
let poly_bucket_syms p = p.p_bucket_syms

(* Resolve each symbol's concrete size from the bound input tensors,
   rejecting inconsistent bindings (same symbol, two sizes). *)
let poly_env p bindings =
  let env : (string * int) list ref = ref [] in
  List.iter
    (fun (lt : Logical_tensor.t) ->
      if Dim.has_sym lt.dims then begin
        match
          List.find_map
            (fun ((l : Logical_tensor.t), v) ->
              if l.id = lt.id then Some v else None)
            bindings
        with
        | None ->
            reject
              (Printf.sprintf
                 "Core.execute_poly: symbolic input %s is not bound" lt.name)
              [ ("input", lt.name) ]
        | Some v ->
            let shape = Tensor.shape v in
            if Shape.rank shape <> Array.length lt.dims then
              reject
                (Printf.sprintf
                   "Core.execute_poly: input %s has rank %d, expected %d"
                   lt.name (Shape.rank shape) (Array.length lt.dims))
                [ ("input", lt.name) ];
            Array.iteri
              (fun i d ->
                match d with
                | Dim.Fixed n ->
                    let actual = Shape.dim shape i in
                    if actual <> n then
                      reject
                        (Printf.sprintf
                           "Core.execute_poly: input %s has size %d on fixed \
                            axis %d, expected %d"
                           lt.name actual i n)
                        [ ("input", lt.name) ]
                | Dim.Sym s -> (
                    let actual = Shape.dim shape i in
                    match List.assoc_opt s !env with
                    | None -> env := (s, actual) :: !env
                    | Some prev when prev = actual -> ()
                    | Some prev ->
                        reject
                          (Printf.sprintf
                             "Core.execute_poly: symbol %s bound to both %d \
                              and %d"
                             s prev actual)
                          [
                            ("sym", s);
                            ("a", string_of_int prev);
                            ("b", string_of_int actual);
                          ]))
              lt.dims
      end)
    p.p_graph.Graph.inputs;
  List.rev !env

let poly_bucket_env p env =
  List.map
    (fun (s, v) ->
      if List.mem s p.p_bucket_syms then (s, Buckets.pick p.p_buckets v)
      else (s, v))
    env

let env_key env =
  String.concat ","
    (List.map
       (fun (s, v) -> s ^ "=" ^ string_of_int v)
       (List.sort compare env))

(* Find or build the compiled instance for a bucketed environment. Lookup
   under the poly lock, compile outside it (mirroring [compile_cached]):
   concurrent misses race and the first insert wins. *)
let poly_instance p env_bucket =
  let key = env_key env_bucket in
  let cached =
    Mutex.lock p.p_lock;
    let r = Hashtbl.find_opt p.p_instances key in
    Mutex.unlock p.p_lock;
    r
  in
  match cached with
  | Some inst ->
      Gc_observe.Counters.(incr bucket_cache_hits);
      inst
  | None -> (
      match Graph.substitute ~env:env_bucket p.p_graph with
      | Error e ->
          raise
            (Gc_errors.Error
               (Gc_errors.Compile_error
                  { stage = "substitute"; what = e; ctx = [ ("env", key) ] }))
      | Ok (g_sub, subst) ->
          (* Pin the cache entry for the in-flight window between the
             compile and the p_instances registration, so byte-pressure
             eviction cannot drop a specialization that is about to be
             referenced. Once registered, the instance itself keeps the
             compiled core alive; the cache entry becomes evictable. *)
          let ck = fingerprint ~config:p.p_config g_sub in
          let core = compile_cached ~config:p.p_config ~pin:true g_sub in
          let inst = { pi_core = core; pi_subst = subst; pi_graph = g_sub } in
          Mutex.lock p.p_lock;
          let winner =
            match Hashtbl.find_opt p.p_instances key with
            | Some w -> w
            | None ->
                Hashtbl.add p.p_instances key inst;
                inst
          in
          Mutex.unlock p.p_lock;
          Compile_cache.unpin ck;
          if winner == inst then Gc_observe.Counters.(incr bucket_compiles)
          else Gc_observe.Counters.(incr bucket_cache_hits);
          winner)

let poly_instances p =
  Mutex.lock p.p_lock;
  let n = Hashtbl.length p.p_instances in
  Mutex.unlock p.p_lock;
  n

(* Translate caller bindings (symbolic-graph tensors) to the tensors of a
   graph substituted by [subst], zero-padding symbolic inputs up to a
   bucketed shape. Padding is sound only for row-independent (batch-like)
   symbolic axes — the contract of [bucket_syms]; under an exact
   substitution no binding needs it. *)
let poly_translate_bindings subst bindings =
  List.filter_map
    (fun ((lt : Logical_tensor.t), v) ->
      match Hashtbl.find_opt subst lt.id with
      | None -> None (* binding for a tensor outside this graph: drop *)
      | Some sub_lt ->
          let target = sub_lt.Logical_tensor.shape in
          if Shape.equal (Tensor.shape v) target then Some (sub_lt, v)
          else Some (sub_lt, Tensor.pad_to v target))
    bindings

let poly_pad_waste env_actual env_bucket =
  List.fold_left
    (fun acc (s, b) ->
      match List.assoc_opt s env_actual with
      | Some a when b > a -> acc + (b - a)
      | _ -> acc)
    0 env_bucket

(* Slice each output back from the bucketed shape to the request's actual
   shape (evaluated from the output's symbolic dims under the actual
   environment). *)
let poly_slice_outputs p env_actual outs =
  List.map2
    (fun (lt : Logical_tensor.t) v ->
      if Dim.has_sym lt.Logical_tensor.dims then
        match Dim.eval ~env:env_actual lt.Logical_tensor.dims with
        | Ok actual when not (Shape.equal actual (Tensor.shape v)) ->
            Tensor.slice_to v actual
        | _ -> v
      else v)
    p.p_graph.Graph.outputs outs

(* Resolve a request's shape class (compiling its bucketed instance on
   first use) and return the bucketed execute: padded bindings in, outputs
   sliced back. The checked path runs only the returned closure under the
   watchdog, so a first-use compile never counts against the deadline. *)
let poly_run ?reuse_outputs p bindings =
  let env_actual = poly_env p bindings in
  let env_bucket = poly_bucket_env p env_actual in
  let inst = poly_instance p env_bucket in
  Gc_observe.Counters.(add pad_waste_rows (poly_pad_waste env_actual env_bucket));
  let sub_bindings = poly_translate_bindings inst.pi_subst bindings in
  fun () ->
    poly_slice_outputs p env_actual
      (execute ?reuse_outputs inst.pi_core sub_bindings)

let execute_poly ?reuse_outputs p bindings =
  poly_run ?reuse_outputs p bindings ()

(* {2 Checked execution: one path over both artifact kinds} *)

type artifact = Fixed of t | Poly of poly

(* The degraded path: run the artifact's graph through the reference
   interpreter. A fixed partition interprets the caller's (unmutated)
   source graph, so user bindings apply directly; a poly interprets its
   symbolic graph substituted at the request's EXACT environment, so the
   interpreter never sees padded rows. The interpreter reconstitutes the
   compile-time constants the engine baked into generated code from the
   logical tensors' properties. *)
let interpret art bindings =
  let g, bindings =
    match art with
    | Fixed t -> (t.source_graph, bindings)
    | Poly p -> (
        match Graph.substitute ~env:(poly_env p bindings) p.p_graph with
        | Ok (g_sub, subst) -> (g_sub, poly_translate_bindings subst bindings)
        | Error e -> Gc_errors.compile_error ~stage:"substitute" e)
  in
  Gc_observe.Counters.(incr fallback_interp);
  Reference.run g bindings

(* The one error boundary of both checked entry points: typed errors pass
   through, foreign exceptions are classified. Resource_exhausted is
   counted here: its raise sites live below the observability layer
   (Buffer/faultinject), so the boundary does the counting. *)
let boundary ~site f =
  let r = Gc_errors.guard ~site f in
  (match r with
  | Error (Gc_errors.Resource_exhausted _) ->
      Gc_observe.Counters.(incr resource_exhausted)
  | _ -> ());
  r

let with_deadline ~site timeout_ms run =
  match timeout_ms with
  | Some ms -> Guard.with_deadline ~timeout_ms:ms ~site run
  | None -> run ()

let execute_checked ?deadline_ms ?(sanitize = false) ?(reuse_outputs = false)
    art bindings =
  let timeout_ms =
    match deadline_ms with
    | Some _ -> deadline_ms
    | None -> Guard.env_timeout_ms ()
  in
  boundary ~site:"core.execute" (fun () ->
      let compiled =
        match art with
        | Fixed t -> fun () -> execute ~reuse_outputs t bindings
        | Poly p -> poly_run ~reuse_outputs p bindings
      in
      with_deadline ~site:"core.execute" timeout_ms (fun () ->
          let outs = compiled () in
          if sanitize then sanitize_outputs outs;
          outs))

let execute_fallback ?deadline_ms art bindings =
  boundary ~site:"core.fallback" (fun () ->
      with_deadline ~site:"core.fallback" deadline_ms (fun () ->
          interpret art bindings))
