(* The four benchmark workloads. Each run is split into [epochs]; every
   epoch starts with one cold set-up (a [setup_s] sample) and then measures
   for its share of the run, so set-up, measurement and (in traced runs)
   tracing are interleaved through the run instead of being run as blocks
   that a host speed swing could hit unevenly. Where a comparator exists it
   runs op by op in alternation with the measured path, and the speedup is
   the median of per-pair ratios, so a speed swing hits both sides of a
   pair. *)

open Core
module M = Measure
module Parallel = Gc_runtime.Parallel
module Serve = Gc_serve
module Counters = Observe.Counters

let epochs = 5

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  pool : Parallel.t;
  tr : M.tracer;
}

type report = {
  attempted : int;
  failed : int;
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
  notes : string list;
}

(* Traced runs alternate traced and untraced epochs: per-layer numbers come
   from the traced ones, the tracing overhead from comparing the two. *)
let begin_epoch ctx e =
  ctx.tr.on <- ctx.traced && e mod 2 = 0;
  if ctx.tr.on then Counters.enable () else Counters.disable ()

let full_config ctx = { (default_config ()) with pool = Some ctx.pool }

let prim_config ctx =
  { (Gc_baseline.Baseline.config ()) with pool = Some ctx.pool }

(* The machine model perfsim costs against: the paper's Xeon reduced to the
   cores the benchmark actually executes on. *)
let host_model ctx =
  { Machine.xeon_8358 with Machine.cores = Parallel.size ctx.pool; name = "host" }

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* A violation that is not tied to one op still fails the run. *)
let violation t what notes =
  t.failed <- t.failed + 1;
  notes := what :: !notes

let epoch_deadline ctx = M.now () +. (ctx.seconds /. float_of_int epochs)

(* ------------------------------------------------------------------ *)
(* Compile-pass spans: [Core.compile ~trace] records each pass's elapsed
   time; the spans are laid out back to back from the compile's start. *)

let layer_of_stage = function
  | "graph" -> "graph_passes"
  | "tir" -> "tir_passes"
  | s -> s

let record_passes tr ~op ~parent t0 trace =
  ignore
    (List.fold_left
       (fun t (e : Observe.Trace.pass_event) ->
         let t1 = t +. (e.elapsed_ms /. 1000.) in
         M.record tr ~parent ~op (layer_of_stage e.stage ^ "." ^ e.pass_name) t t1;
         t1)
       t0 (Observe.Trace.passes trace))

let traced_compile ctx ~op ~parent config g =
  let trace = if ctx.tr.on then Some (Observe.Trace.create ()) else None in
  let id = M.fresh ctx.tr in
  let c, _, t0 = M.timed (fun () -> compile ~config ?trace g) in
  M.record ctx.tr ~id ~parent ~op "core.compile" t0 (M.now ());
  Option.iter (record_passes ctx.tr ~op ~parent:id t0) trace;
  c

(* Mean per traced compile of the pass spans selected by [keep]. *)
let pass_ms tr ~compiles keep =
  if compiles = 0 then 0.
  else
    List.fold_left
      (fun acc (s : M.span) ->
        if keep s.name then acc +. M.ms_between s.t0 s.t1 else acc)
      0. tr.M.spans
    /. float_of_int compiles

let compile_layers tr ~compiles =
  let ms = pass_ms tr ~compiles in
  [
    ("graph_passes.fine_fusion_ms", ms (( = ) "graph_passes.fine_fusion"), "ms");
    ( "graph_passes.other_ms",
      ms (fun n -> String.starts_with ~prefix:"graph_passes." n && n <> "graph_passes.fine_fusion"),
      "ms" );
    ("lowering.lower_ms", ms (String.starts_with ~prefix:"lowering."), "ms");
    ("tir_passes.total_ms", ms (String.starts_with ~prefix:"tir_passes."), "ms");
    ("runtime.engine_create_ms", ms (( = ) "runtime.engine_create"), "ms");
  ]

(* Fused partitions as launched: ops sharing a coarse-grain merge tag run
   as one function. *)
let partitions c =
  let tags = Hashtbl.create 8 in
  List.fold_left
    (fun n (f : Fused_op.t) ->
      match f.merge_tag with
      | None -> n + 1
      | Some t when Hashtbl.mem tags t -> n
      | Some t ->
          Hashtbl.add tags t ();
          n + 1)
    0 (fused_graph c).fused

let ir_ops c = (Observe.Stats.of_module (tir_module c)).ops

(* ------------------------------------------------------------------ *)
(* Isolated microkernel: the op's GEMM problems at the tile parameters the
   compiler chose, replayed straight through [Brgemm] on cache-resident
   blocks. *)

type gemm = {
  calls : int;
  bs : int;
  mb : int;
  nb : int;
  kb : int;
  a : Gc_tensor.Buffer.t;
  b : Gc_tensor.Buffer.t;
  c : Gc_tensor.Buffer.t;
  a_offs : int array;
  b_offs : int array;
  int8 : bool;
}

let gemms_of c =
  List.filter_map
    (fun (f : Fused_op.t) ->
      Option.map
        (fun (p : Params.t) ->
          let bs = min p.bs (Params.kblocks p) in
          let a_dt, b_dt, c_dt, int8 =
            match p.dtype with
            | Dtype.U8 -> (Dtype.U8, Dtype.S8, Dtype.S32, true)
            | Dtype.S8 -> (Dtype.S8, Dtype.S8, Dtype.S32, true)
            | _ -> (Dtype.F32, Dtype.F32, Dtype.F32, false)
          in
          let buf dt n = Gc_tensor.Buffer.create dt n in
          {
            calls = p.batch * Params.mblocks p * Params.nblocks p * Params.ksteps p;
            bs;
            mb = p.mb;
            nb = p.nb;
            kb = p.kb;
            a = buf a_dt (p.mb * p.kb * bs);
            b = buf b_dt (p.nb * p.kb * bs);
            c = buf c_dt (p.mb * p.nb);
            a_offs = Array.init bs (fun i -> i * p.mb * p.kb);
            b_offs = Array.init bs (fun i -> i * p.nb * p.kb);
            int8;
          })
        f.params)
    (fused_graph c).fused

let gemm_flops ~int8 gs =
  List.fold_left
    (fun acc g ->
      if g.int8 = int8 then acc +. float_of_int (2 * g.calls * g.bs * g.mb * g.nb * g.kb)
      else acc)
    0. gs

let run_gemms gs =
  List.iter
    (fun g ->
      for _ = 1 to g.calls do
        Gc_microkernel.Brgemm.dispatch ~batch:g.bs ~mb:g.mb ~nb:g.nb ~kb:g.kb ~a:g.a
          ~a_offs:g.a_offs ~b:g.b ~b_offs:g.b_offs ~c:g.c ~c_off:0
      done)
    gs

let brgemm_probe ctx ~op gs =
  let (), _, t0 = M.timed (fun () -> run_gemms gs) in
  M.record ctx.tr ~op "microkernel.brgemm" t0 (M.now ())

let microkernel_layers tr gs ~execute_ms =
  let brgemm_ms = M.median (M.durations tr "microkernel.brgemm") in
  let gflops int8 =
    let f = gemm_flops ~int8 gs in
    if f = 0. || Float.is_nan brgemm_ms then 0. else f /. (brgemm_ms *. 1e6)
  in
  [
    ("microkernel.brgemm_ms", brgemm_ms, "ms");
    ("microkernel.brgemm_gflops_u8s8s32", gflops true, "GFLOP/s");
    ("microkernel.brgemm_gflops_f32", gflops false, "GFLOP/s");
    ("runtime.non_brgemm_ms", execute_ms -. brgemm_ms, "ms");
  ]

(* Counter and GC deltas taken at the boundaries of one call. *)
let counted f =
  let c0 = Counters.snapshot () and g0 = M.gc_mark () in
  let r = f () in
  let c1 = Counters.snapshot () and g = M.gc_since g0 in
  let d (sel : Counters.snapshot -> int) = float_of_int (sel c1 - sel c0) in
  ( r,
    [
      ("kernel_invocations", d (fun s -> s.kernel_invocations));
      ("parallel_sections", d (fun s -> s.parallel_sections));
      ("barriers", d (fun s -> s.barriers));
      ("arena_hits", d (fun s -> s.arena_hits));
      ("minor_words", g.minor_words);
      ("major_words", g.major_words);
      ("minor_gcs", float_of_int g.minor_gcs);
      ("major_gcs", float_of_int g.major_gcs);
    ] )

let per_op_layers tr span =
  let n = float_of_int (max 1 (List.length (M.durations tr span))) in
  let per key = M.sum_args tr span key /. n in
  [
    ("runtime.kernel_invocations_per_op", per "kernel_invocations", "count");
    ("runtime.parallel_sections_per_op", per "parallel_sections", "count");
    ("runtime.barriers_per_op", per "barriers", "count");
    ("runtime.arena_hits_per_op", per "arena_hits", "count");
    ("tensor.minor_words_per_op", per "minor_words", "words");
    ("tensor.major_words_per_op", per "major_words", "words");
    ("gc.minor_collections_per_op", per "minor_gcs", "count");
    ("gc.major_collections_per_op", per "major_gcs", "count");
  ]

let serve_layers_absent =
  [
    ("serve.submit_us", 0., "us");
    ("serve.exec_ewma_ms", 0., "ms");
    ("serve.direct_exec_ms", 0., "ms");
    ("serve.overhead_ms", 0., "ms");
    ("serve.tickets_per_batch", 0., "count");
    ("core.pad_waste_frac", 0., "ratio");
    ("core.bucket_hit_rate", 0., "ratio");
    ("serve.sheds", 0., "count");
    ("serve.fallbacks", 0., "count");
    ("serve.breaker_opens", 0., "count");
    ("supervise.workers_restarted", 0., "count");
    ("serve.window_deadline_violations", 0., "count");
  ]

(* Whole-op latency and throughput, and the tracing overhead, common to
   every workload. [lat] holds (traced epoch?, compiled op ms) samples.
   Latency and throughput are reported but not gated: they follow the
   host's contention regime (see README.md). *)
let common_layers tr lat ~ops_per_s =
  let all = List.map snd lat in
  let part on = List.filter_map (fun (t, x) -> if t = on then Some x else None) lat in
  let tail p = Option.value ~default:0. (M.tail p all) in
  [
    ("e2e.lat_p50_ms", M.median all, "ms");
    ("e2e.lat_p90_ms", tail 0.9, "ms");
    ("e2e.lat_p99_ms", tail 0.99, "ms");
    ("e2e.ops_per_s", ops_per_s, "1/s");
    ("trace.uncovered_frac", M.uncovered_frac tr, "ratio");
    ("trace.overhead_frac", (M.median (part true) /. M.median (part false)) -. 1., "ratio");
  ]

(* The gated end-to-end metrics. *)
let e2e ~setup ~speedup =
  [
    ("setup_s", M.median setup, "s");
    ("speedup_vs_primitives", M.median speedup, "x");
    ("peak_rss_mb", M.peak_rss_mb (), "MB");
  ]

let lat_notes name lat ~ops_per_s =
  let tail p =
    match M.tail p lat with
    | Some v -> Printf.sprintf "%.3f ms" v
    | None -> "n/a (fewer than 10 samples beyond)"
  in
  [
    Printf.sprintf "%s: %d samples, p50 %.3f ms, p90 %s, p99 %s; ops_per_s %.2f" name
      (List.length lat) (M.median lat) (tail 0.9) (tail 0.99) ops_per_s;
  ]

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* Bindings whose variable inputs come from [alt] (the same graph built
   from another seed) and whose constant weights stay those of [base]. *)
let vary ~(base : (Logical_tensor.t * Tensor.t) list) ~alt =
  List.map2
    (fun ((lt : Logical_tensor.t), w) (_, x) ->
      if Logical_tensor.is_constant lt then (lt, w) else (lt, x))
    base alt

let input_variants ~seed ~n build =
  let g, base = build seed in
  (g, Array.init n (fun i -> if i = 0 then base else vary ~base ~alt:(snd (build ((seed * 7919) + i)))))

(* ------------------------------------------------------------------ *)
(* mlp1_int8 and mha_f32: one closed-loop caller; each op runs the full
   pipeline's execute and the primitives' execute in alternating order. *)

let paired ctx ~kind ~n_inputs build =
  let g, inputs = input_variants ~seed:ctx.seed ~n:n_inputs build in
  let refs = Array.map (reference g) inputs in
  let t = tally () in
  let setup = ref [] and lat = ref [] and speedup = ref [] and busy = ref 0. in
  let op = ref 0 and compiles = ref 0 in
  let gemms = ref [] and shape = ref (0, 0, nan) in
  for e = 0 to epochs - 1 do
    begin_epoch ctx e;
    let setup_id = M.fresh ctx.tr in
    let t_setup = M.now () in
    let c = traced_compile ctx ~op:(-1) ~parent:setup_id (full_config ctx) g in
    let first_c, _, t0 = M.timed (fun () -> execute c inputs.(0)) in
    M.record ctx.tr ~parent:setup_id ~op:(-1) "core.execute.first" t0 (M.now ());
    let p = compile ~config:(prim_config ctx) g in
    let first_p, _, t0 = M.timed (fun () -> execute p inputs.(0)) in
    M.record ctx.tr ~parent:setup_id ~op:(-1) "baseline.execute.first" t0 (M.now ());
    let t_end = M.now () in
    M.record ctx.tr ~id:setup_id ~op:(-1) "setup" t_setup t_end;
    setup := (t_end -. t_setup) :: !setup;
    check t (M.outputs_match kind first_c refs.(0));
    check t (M.outputs_match kind first_p refs.(0));
    if ctx.tr.on then incr compiles;
    if e = 0 then begin
      gemms := gemms_of c;
      let sim cfg api_per_call =
        (Gc_perfsim.Sim.cost_module ~machine:(host_model ctx) ~api_per_call (tir_module cfg))
          .cycles
      in
      shape := (partitions c, ir_ops c, sim p true /. sim c false)
    end;
    let deadline = epoch_deadline ctx in
    while M.now () < deadline do
      incr op;
      let i = !op mod n_inputs in
      let root = M.fresh ctx.tr in
      let run_c () =
        let (out, ms, t0), args =
          if ctx.tr.on then counted (fun () -> M.timed (fun () -> execute c inputs.(i)))
          else (M.timed (fun () -> execute c inputs.(i)), [])
        in
        M.record ctx.tr ~parent:root ~op:!op ~args "core.execute" t0 (t0 +. (ms /. 1000.));
        (out, ms)
      in
      let run_p () =
        let out, ms, t0 = M.timed (fun () -> execute p inputs.(i)) in
        M.record ctx.tr ~parent:root ~op:!op "baseline.execute" t0 (t0 +. (ms /. 1000.));
        (out, ms)
      in
      let t_op = M.now () in
      let (oc, tc), (op_, tp) =
        if !op mod 2 = 0 then
          let c = run_c () in
          (c, run_p ())
        else
          let p = run_p () in
          (run_c (), p)
      in
      M.record ctx.tr ~id:root ~op:!op "op" t_op (M.now ());
      check t (M.outputs_match kind oc refs.(i) && M.outputs_match kind op_ refs.(i));
      lat := (ctx.tr.on, tc) :: !lat;
      speedup := (tp /. tc) :: !speedup;
      busy := !busy +. tc;
      if ctx.tr.on then brgemm_probe ctx ~op:!op !gemms
    done
  done;
  let lat_ms = List.map snd !lat in
  let ops_per_s = float_of_int (List.length lat_ms) /. (!busy /. 1000.) in
  let tr = ctx.tr in
  let execute_ms = M.median (M.durations tr "core.execute") in
  let first_ms = M.median (M.durations tr "core.execute.first") in
  let parts, ops, pred = !shape in
  let layers =
    compile_layers tr ~compiles:!compiles
    @ [
        ("graph_passes.partitions", float_of_int parts, "count");
        ("tir_passes.ir_ops", float_of_int ops, "count");
        ("core.init_ms", first_ms -. execute_ms, "ms");
        ("core.execute_ms", execute_ms, "ms");
        ("baseline.execute_ms", M.median (M.durations tr "baseline.execute"), "ms");
      ]
    @ microkernel_layers tr !gemms ~execute_ms
    @ per_op_layers tr "core.execute"
    @ serve_layers_absent
    @ [ ("perfsim.speedup_pred", pred, "x") ]
    @ common_layers tr !lat ~ops_per_s
  in
  {
    attempted = t.attempted;
    failed = t.failed;
    e2e = e2e ~setup:!setup ~speedup:!speedup;
    layers;
    notes =
      lat_notes "compiled op" lat_ms ~ops_per_s
      @ [
          Printf.sprintf "perfsim.speedup_pred: %.3f (beside speedup_vs_primitives %.3f)" pred
            (M.median !speedup);
        ];
  }

let mlp1_int8 ctx =
  paired ctx ~kind:`Int8 ~n_inputs:4 (fun seed ->
      let b =
        Gc_workloads.Mlp.build_int8 ~seed ~batch:32 ~hidden:Gc_workloads.Table1.mlp_1.hidden ()
      in
      (b.graph, b.data))

(* Table 1's MHA head width (hidden/heads = 64, as MHA_3) at seq 64 and
   batch 2, so one op takes tens of ms instead of MHA_1's ~130 ms. *)
let mha_f32 ctx =
  paired ctx ~kind:`F32 ~n_inputs:4 (fun seed ->
      let b = Gc_workloads.Mha.build_f32 ~seed ~batch:2 ~seq:64 ~hidden:256 ~heads:4 () in
      (b.graph, b.data))

(* ------------------------------------------------------------------ *)
(* compile_bert: one op is a cold compile of a 2-layer BERT block stack
   plus its first execute — the time to first result for a new model. The
   primitives configuration compiles the same graph in alternation. *)

let compile_bert ctx =
  let t = tally () in
  let setup = ref [] and lat = ref [] and speedup = ref [] and busy = ref 0. in
  let op = ref 0 and compiles = ref 0 and gemms = ref [] and shape = ref (0, 0) in
  for e = 0 to epochs - 1 do
    begin_epoch ctx e;
    let t_setup = M.now () in
    let b =
      Gc_workloads.Bert.build_f32 ~seed:ctx.seed ~layers:2 ~batch:1 ~seq:8 ~hidden:32 ~heads:2 ()
    in
    let want = reference b.graph b.data in
    let t_end = M.now () in
    M.record ctx.tr ~op:(-1) "setup" t_setup t_end;
    setup := (t_end -. t_setup) :: !setup;
    let deadline = epoch_deadline ctx in
    while M.now () < deadline do
      incr op;
      let root = M.fresh ctx.tr in
      let first_result name config =
        let t0 = M.now () in
        let c =
          if name = "core" then traced_compile ctx ~op:!op ~parent:root config b.graph
          else compile ~config b.graph
        in
        let t1 = M.now () in
        let out = execute c b.data in
        let t2 = M.now () in
        if name = "core" then
          M.record ctx.tr ~parent:root ~op:!op "core.execute.first" t1 t2
        else M.record ctx.tr ~parent:root ~op:!op "baseline.first_result" t0 t2;
        (c, out, M.ms_between t0 t2)
      in
      let t_op = M.now () in
      let (c, oc, tc), (_, op_, tp) =
        if !op mod 2 = 0 then
          let r = first_result "core" (full_config ctx) in
          (r, first_result "baseline" (prim_config ctx))
        else
          let r = first_result "baseline" (prim_config ctx) in
          (first_result "core" (full_config ctx), r)
      in
      M.record ctx.tr ~id:root ~op:!op "op" t_op (M.now ());
      check t (M.outputs_match `F32 oc want && M.outputs_match `F32 op_ want);
      lat := (ctx.tr.on, tc) :: !lat;
      speedup := (tp /. tc) :: !speedup;
      busy := !busy +. tc;
      if ctx.tr.on then begin
        incr compiles;
        (* a steady execute after the timed op: core.init_ms is the first
           execute's excess over it *)
        let (out, ms, t0), args = counted (fun () -> M.timed (fun () -> execute c b.data)) in
        M.record ctx.tr ~op:!op ~args "core.execute" t0 (t0 +. (ms /. 1000.));
        check t (M.outputs_match `F32 out want);
        if !gemms = [] then begin
          gemms := gemms_of c;
          shape := (partitions c, ir_ops c)
        end;
        brgemm_probe ctx ~op:!op !gemms
      end
    done
  done;
  let lat_ms = List.map snd !lat in
  let ops_per_s = float_of_int (List.length lat_ms) /. (!busy /. 1000.) in
  let tr = ctx.tr in
  let execute_ms = M.median (M.durations tr "core.execute") in
  let parts, ops = !shape in
  let layers =
    compile_layers tr ~compiles:!compiles
    @ [
        ("graph_passes.partitions", float_of_int parts, "count");
        ("tir_passes.ir_ops", float_of_int ops, "count");
        ( "core.init_ms",
          M.median (M.durations tr "core.execute.first") -. execute_ms,
          "ms" );
        ("core.execute_ms", execute_ms, "ms");
        ("baseline.execute_ms", M.median (M.durations tr "baseline.first_result"), "ms");
      ]
    @ microkernel_layers tr !gemms ~execute_ms
    @ per_op_layers tr "core.execute"
    @ serve_layers_absent
    @ [ ("perfsim.speedup_pred", 0., "x") ]
    @ common_layers tr !lat ~ops_per_s
  in
  {
    attempted = t.attempted;
    failed = t.failed;
    e2e = e2e ~setup:!setup ~speedup:!speedup;
    layers;
    notes = lat_notes "cold compile + first execute" lat_ms ~ops_per_s;
  }

(* ------------------------------------------------------------------ *)
(* serve_mlp: MLP_1 f32 with a symbolic batch, served by one worker with
   coalescing on. K logical callers are multiplexed on the generator
   domain as a closed loop: submit until K requests are outstanding, then
   await the oldest. Each epoch also times the same requests executed
   directly, one at a time, through the compiled and the primitives
   polymorphic artifacts in alternation. *)

let callers = 8

(* Not a multiple of [callers]: the closed loop cycles through the pool,
   and an odd pool length shifts which requests share a coalesced batch
   from one cycle to the next. *)
let n_requests = 97
let serve_budget_bytes = 1 lsl 30

let serve_config () =
  {
    (Serve.default_config ()) with
    Serve.workers = 1;
    queue_depth = 2 * callers;
    default_deadline_ms = None;
    coalesce_window_ms = 2.;
    max_coalesce = callers;
  }

type request = { rows : int; bindings : (Logical_tensor.t * Tensor.t) list; want : Tensor.t list }

let serve_requests seed =
  let hidden = Gc_workloads.Table1.mlp_1.hidden in
  let poly =
    Gc_workloads.Mlp.build_f32 ~seed ~batch:4 ~batch_dim:(Gc_graph_ir.Dim.Sym "b") ~hidden ()
  in
  let request i rows =
    (* the same seed gives the same weights at every batch; only the
       activations are drawn per request *)
    let exact = Gc_workloads.Mlp.build_f32 ~seed ~batch:rows ~hidden () in
    let x =
      Tensor.random ~seed:((seed * 7919) + i) Dtype.F32 (Shape.of_list [ rows; List.hd hidden ])
    in
    let swap data =
      List.map
        (fun ((lt : Logical_tensor.t), v) ->
          if Logical_tensor.is_constant lt then (lt, v) else (lt, x))
        data
    in
    { rows; bindings = swap poly.data; want = reference exact.graph (swap exact.data) }
  in
  (* every seed serves the same multiset of sizes (1..8 rows, near equally
     often) in a seeded order, so the seed changes which requests meet in
     a coalesced batch but not the total work *)
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let rows = Array.init n_requests (fun i -> 1 + (i mod 8)) in
  for i = n_requests - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = rows.(i) in
    rows.(i) <- rows.(j);
    rows.(j) <- t
  done;
  let reqs = Array.mapi request rows in
  (* one request per bucket a coalesced batch of up to [callers] requests
     can land in, so set-up compiles every specialization the load uses *)
  let buckets = poly_buckets (compile_poly poly.graph) in
  let warm =
    List.sort_uniq compare (List.init (callers * 8) (fun n -> Buckets.pick buckets (n + 1)))
    |> List.map (fun rows -> request (n_requests + rows) rows)
  in
  (poly.graph, reqs, warm)

let serve_mlp ctx =
  if Domain.recommended_domain_count () < 1 + Parallel.size ctx.pool then
    failwith "serve_mlp needs one core for the generator and one for the serve worker";
  let g, reqs, warm = serve_requests ctx.seed in
  let t = tally () and notes = ref [] in
  let setup = ref [] and lat = ref [] and speedup = ref [] in
  let direct = ref [] and load_s = ref 0. and ok = ref 0 and rows_done = ref 0 in
  let op = ref 0 and next = ref 0 and i = ref 0 in
  let stat_sum = Hashtbl.create 16 in
  let add k v = Hashtbl.replace stat_sum k (v +. Option.value ~default:0. (Hashtbl.find_opt stat_sum k)) in
  let ewma = ref [] in
  (* the microkernel probe replays an 8-row request, which runs at bucket 8 *)
  let gemms =
    gemms_of
      (compile ~config:(full_config ctx)
         (Gc_workloads.Mlp.build_f32 ~seed:ctx.seed ~batch:8
            ~hidden:Gc_workloads.Table1.mlp_1.hidden ())
           .graph)
  in
  Gc_tensor.Memgov.set_limit (Some serve_budget_bytes);
  let resolves0 = Serve.double_resolve_count () in
  let epoch e =
    begin_epoch ctx e;
    Compile_cache.clear ();
    let setup_id = M.fresh ctx.tr in
    let t_setup = M.now () in
    let pc = compile_poly ~config:(full_config ctx) g in
    let pp = compile_poly ~config:(prim_config ctx) g in
    (* first execute of every bucket, on both artifacts and then through
       the worker *)
    List.iter
      (fun r ->
        check t (M.outputs_match `F32 (execute_poly pc r.bindings) r.want);
        (* the primitives artifact only runs the requests themselves *)
        if r.rows <= 8 then check t (M.outputs_match `F32 (execute_poly pp r.bindings) r.want))
      warm;
    let t_direct = M.now () in
    (* the ledger the serve tier must hand back at shutdown; the generator
       domain keeps its own per-engine arenas from the executes above *)
    Gc.full_major ();
    let ledger = Gc_tensor.Memgov.used () in
    let t_serve = M.now () in
    let server = Serve.create ~config:(serve_config ()) () in
    let h = Serve.register_poly server pc in
    List.iter
      (fun r ->
        check t
          (match Serve.call server h r.bindings with
          | Ok out -> M.outputs_match `F32 out r.want
          | Error _ -> false))
      warm;
    let t_end = M.now () in
    M.record ctx.tr ~id:setup_id ~op:(-1) "setup" t_setup t_end;
    setup := (t_direct -. t_setup +. (t_end -. t_serve)) :: !setup;
    let slice = ctx.seconds /. float_of_int epochs in
    (* closed-loop load *)
    let s0 = Serve.stats server and c0 = Counters.snapshot () and g0 = M.gc_mark () in
    let outstanding = Queue.create () and submits = ref 0 in
    let submit slot =
      incr op;
      incr submits;
      let r = reqs.(!next mod n_requests) in
      incr next;
      let root = M.fresh ctx.tr in
      let t0 = M.now () in
      let tk = Serve.submit server h r.bindings in
      let t1 = M.now () in
      M.record ctx.tr ~parent:root ~tid:slot ~op:!op "serve.submit" t0 t1;
      Queue.push (tk, t0, r, !op, root, slot) outstanding
    in
    let t_load = M.now () in
    let load_end = t_load +. (0.75 *. slice) in
    for slot = 1 to callers do submit slot done;
    while not (Queue.is_empty outstanding) do
      let tk, t0, r, id, root, slot = Queue.pop outstanding in
      let ta = M.now () in
      let outcome = Serve.await tk in
      let t1 = M.now () in
      M.record ctx.tr ~parent:root ~tid:slot ~op:id "serve.await" ta t1;
      M.record ctx.tr ~id:root ~tid:slot ~op:id "op" t0 t1;
      lat := (ctx.tr.on, M.ms_between t0 t1) :: !lat;
      (match outcome with
      | Ok out ->
          incr ok;
          rows_done := !rows_done + r.rows;
          check t (M.outputs_match `F32 out r.want)
      | Error err ->
          check t false;
          notes := ("request failed: " ^ Errors.to_string err) :: !notes);
      if t1 < load_end then submit slot
    done;
    let t_loaded = M.now () in
    load_s := !load_s +. (t_loaded -. t_load);
    let s1 = Serve.stats server and c1 = Counters.snapshot () and gd = M.gc_since g0 in
    let requests = float_of_int (s1.Serve.completed - s0.Serve.completed) in
    (* a request served by the reference interpreter is a failed op *)
    let fallbacks = s1.Serve.fallbacks - s0.Serve.fallbacks in
    t.failed <- t.failed + fallbacks;
    if ctx.tr.on then begin
      let d sel = float_of_int (sel c1 - sel c0) in
      add "requests" requests;
      add "rows" (float_of_int !rows_done);
      add "coalesced_batches" (d (fun s -> s.Counters.coalesced_batches));
      add "coalesced_tickets" (d (fun s -> s.Counters.coalesced_tickets));
      add "pad_waste_rows" (d (fun s -> s.Counters.pad_waste_rows));
      add "bucket_hits" (d (fun s -> s.Counters.bucket_cache_hits));
      add "bucket_compiles" (d (fun s -> s.Counters.bucket_compiles));
      add "kernel_invocations" (d (fun s -> s.Counters.kernel_invocations));
      add "parallel_sections" (d (fun s -> s.Counters.parallel_sections));
      add "barriers" (d (fun s -> s.Counters.barriers));
      add "arena_hits" (d (fun s -> s.Counters.arena_hits));
      add "minor_words" gd.minor_words;
      add "major_words" gd.major_words;
      add "minor_gcs" (float_of_int gd.minor_gcs);
      add "major_gcs" (float_of_int gd.major_gcs);
      add "load_s" (t_loaded -. t_load);
      ewma := Option.value ~default:nan (Serve.ewma_ms h) :: !ewma
    end;
    rows_done := 0;
    List.iter
      (fun (k, v) -> add k (float_of_int v))
      [
        ("sheds", s1.Serve.overloaded - s0.Serve.overloaded);
        ("fallbacks", fallbacks);
        ("breaker_opens", c1.breaker_opens - c0.breaker_opens);
        ("workers_restarted", c1.workers_restarted - c0.workers_restarted);
        ("window_violations", c1.window_deadline_violations - c0.window_deadline_violations);
      ];
    Serve.shutdown server;
    (* exactly one outcome per ticket: every submit was awaited once, and
       the server resolved each of them once *)
    let s2 = Serve.stats server in
    if s2.Serve.submitted <> !submits + List.length warm
       || s2.Serve.completed + s2.Serve.overloaded <> s2.Serve.submitted
    then violation t "serve outcomes do not match tickets" notes;
    Gc.full_major ();
    let held = Gc_tensor.Memgov.used () - ledger in
    if held <> 0 then
      violation t (Printf.sprintf "Memgov ledger holds %d bytes after shutdown" held) notes;
    (* direct executes, compiled and primitives in alternation *)
    let direct_end = M.now () +. (0.25 *. slice) in
    while M.now () < direct_end do
      let r = reqs.(!i mod n_requests) in
      incr i;
      let run name p =
        let out, ms, t0 = M.timed (fun () -> execute_poly p r.bindings) in
        M.record ctx.tr ~op:(-1) name t0 (t0 +. (ms /. 1000.));
        check t (M.outputs_match `F32 out r.want);
        ms
      in
      let tc, tp =
        if !i mod 2 = 0 then
          let tc = run "core.execute_poly" pc in
          (tc, run "baseline.execute_poly" pp)
        else
          let tp = run "baseline.execute_poly" pp in
          (run "core.execute_poly" pc, tp)
      in
      direct := (tc, r.rows) :: !direct;
      speedup := (tp /. tc) :: !speedup
    done;
    if ctx.tr.on then brgemm_probe ctx ~op:(-1) gemms
  in
  for e = 0 to epochs - 1 do
    epoch e
  done;
  Gc_tensor.Memgov.set_limit None;
  if Serve.double_resolve_count () <> resolves0 then violation t "a ticket resolved twice" notes;
  let lat_ms = List.map snd !lat in
  let tr = ctx.tr in
  let get k = Option.value ~default:0. (Hashtbl.find_opt stat_sum k) in
  let ops_per_s = float_of_int !ok /. !load_s in
  let requests = Float.max 1. (get "requests") in
  let per k = get k /. requests in
  let executions = get "requests" -. get "coalesced_tickets" +. get "coalesced_batches" in
  let layers =
    [
      ("graph_passes.fine_fusion_ms", 0., "ms");
      ("graph_passes.other_ms", 0., "ms");
      ("lowering.lower_ms", 0., "ms");
      ("tir_passes.total_ms", 0., "ms");
      ("runtime.engine_create_ms", 0., "ms");
      ("graph_passes.partitions", 0., "count");
      ("tir_passes.ir_ops", 0., "count");
      ("core.init_ms", 0., "ms");
      ("core.execute_ms", M.median (M.durations tr "core.execute_poly"), "ms");
      ("baseline.execute_ms", M.median (M.durations tr "baseline.execute_poly"), "ms");
    ]
    @ microkernel_layers tr gemms
        ~execute_ms:(M.median (List.filter_map (fun (ms, rows) -> if rows = 8 then Some ms else None) !direct))
    @ [
        ("runtime.kernel_invocations_per_op", per "kernel_invocations", "count");
        ("runtime.parallel_sections_per_op", per "parallel_sections", "count");
        ("runtime.barriers_per_op", per "barriers", "count");
        ("runtime.arena_hits_per_op", per "arena_hits", "count");
        ("tensor.minor_words_per_op", per "minor_words", "words");
        ("tensor.major_words_per_op", per "major_words", "words");
        ("gc.minor_collections_per_op", per "minor_gcs", "count");
        ("gc.major_collections_per_op", per "major_gcs", "count");
        ("serve.submit_us", 1000. *. M.median (M.durations tr "serve.submit"), "us");
        ("serve.exec_ewma_ms", M.median !ewma, "ms");
        ("serve.direct_exec_ms", M.median (M.durations tr "core.execute_poly"), "ms");
        ("serve.overhead_ms", (1000. *. get "load_s" /. requests) -. M.mean (List.map fst !direct), "ms");
        ("serve.tickets_per_batch", get "requests" /. Float.max 1. executions, "count");
        ("core.pad_waste_frac", get "pad_waste_rows" /. Float.max 1. (get "pad_waste_rows" +. get "rows"), "ratio");
        ("core.bucket_hit_rate", get "bucket_hits" /. Float.max 1. (get "bucket_hits" +. get "bucket_compiles"), "ratio");
        ("serve.sheds", get "sheds", "count");
        ("serve.fallbacks", get "fallbacks", "count");
        ("serve.breaker_opens", get "breaker_opens", "count");
        ("supervise.workers_restarted", get "workers_restarted", "count");
        ("serve.window_deadline_violations", get "window_violations", "count");
        ("perfsim.speedup_pred", 0., "x");
      ]
    @ common_layers tr !lat ~ops_per_s
  in
  {
    attempted = t.attempted;
    failed = t.failed;
    e2e = e2e ~setup:!setup ~speedup:!speedup;
    layers;
    notes =
      lat_notes "served request" lat_ms ~ops_per_s
      @ [
          Printf.sprintf "closed loop: %d callers, %d completed in %.2f s of load; %d direct pairs"
            callers !ok !load_s (List.length !direct);
        ]
      @ List.rev !notes;
  }

let all = [ ("mlp1_int8", mlp1_int8); ("mha_f32", mha_f32); ("serve_mlp", serve_mlp); ("compile_bert", compile_bert) ]
