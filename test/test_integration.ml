(* End-to-end integration tests: build a workload graph, compile it through
   the full pipeline (Graph IR passes -> templates -> Tensor IR passes ->
   engine) and compare against the reference evaluator. Also checks that
   the optimizations the paper describes actually fire (init extraction,
   fusion, coarse-grain merge tags, buffer reuse). *)

open Core

let pool = Gc_runtime.Parallel.create 4

let config ?(machine = Machine.test_machine) ?(graph_tweak = Fun.id) () =
  let c = default_config ~machine () in
  { c with graph = graph_tweak c.graph; pool = Some pool }

let run_both ?cfg ~graph ~data () =
  let cfg = match cfg with Some c -> c | None -> config () in
  let compiled = compile ~config:cfg graph in
  let got = execute compiled data in
  let expect = reference graph data in
  (compiled, got, expect)

let check_close ?(rtol = 2e-3) ?(atol = 2e-3) name got expect =
  List.iter2
    (fun g e ->
      if not (Tensor.allclose ~rtol ~atol g e) then
        Alcotest.failf "%s: output mismatch, max diff %g (shape %s)" name
          (Tensor.max_abs_diff g e)
          (Shape.to_string (Tensor.shape g)))
    got expect

(* ------------------------------------------------------------------ *)

let test_mlp_f32_small () =
  let built = Gc_workloads.Mlp.build_f32 ~batch:8 ~hidden:[ 13; 32; 16; 8 ] () in
  let compiled, got, expect = run_both ~graph:built.graph ~data:built.data () in
  check_close "mlp f32" got expect;
  (* weights were prepacked into the init graph *)
  let fg = fused_graph compiled in
  Alcotest.(check bool) "has init graph" true (fg.init <> None);
  (* relu fused: no standalone fusible group with relu *)
  let tunables = List.filter (fun (f : Fused_op.t) -> f.tunable <> None) fg.fused in
  Alcotest.(check int) "three tunable fused ops" 3 (List.length tunables);
  List.iteri
    (fun i (f : Fused_op.t) ->
      if i < 2 then
        Alcotest.(check bool)
          (Printf.sprintf "layer %d has post ops" i)
          true (f.post_groups <> []))
    tunables

let test_mlp_f32_batches () =
  List.iter
    (fun batch ->
      let built = Gc_workloads.Mlp.build_f32 ~batch ~hidden:[ 13; 64; 32 ] () in
      let _, got, expect = run_both ~graph:built.graph ~data:built.data () in
      check_close (Printf.sprintf "mlp f32 b%d" batch) got expect)
    [ 1; 4; 32; 100 ]

let test_mlp_int8 () =
  let built = Gc_workloads.Mlp.build_int8 ~batch:16 ~hidden:[ 13; 32; 16 ] () in
  let compiled, got, expect = run_both ~graph:built.graph ~data:built.data () in
  (* int8 path is exact integer arithmetic + deterministic float scaling *)
  check_close ~rtol:1e-4 ~atol:1e-3 "mlp int8" got expect;
  (* the low-precision pass must have produced an int8 matmul: check that
     some tunable op consumes u8/s8 inputs *)
  let fg = fused_graph compiled in
  let int8_matmuls =
    List.filter
      (fun (f : Fused_op.t) ->
        match f.tunable with
        | Some op ->
            Dtype.equal (List.hd op.inputs).Logical_tensor.dtype Dtype.U8
        | None -> false)
      fg.fused
  in
  Alcotest.(check bool) "int8 matmuls exist" true (int8_matmuls <> [])

let test_mlp_int8_compensation_in_init () =
  (* asymmetric activations (zp<>0): the compensation term must be computed
     once in the init graph, not per execution *)
  let built = Gc_workloads.Mlp.build_int8 ~batch:8 ~hidden:[ 13; 16 ] () in
  let compiled, got, expect = run_both ~graph:built.graph ~data:built.data () in
  check_close ~rtol:1e-4 ~atol:1e-3 "mlp int8 comp" got expect;
  let fg = fused_graph compiled in
  match fg.init with
  | None -> Alcotest.fail "expected an init graph"
  | Some init ->
      (* the init graph contains the colsum reduction of the weights *)
      let has_reduce =
        List.exists
          (fun (op : Op.t) ->
            match op.kind with Op_kind.Reduce _ -> true | _ -> false)
          init.Graph.ops
      in
      Alcotest.(check bool) "colsum in init" true has_reduce

(* MLP_1 f32 through the full pipeline, whose matmuls read the previous
   layer's blocked activation in place, against the primitives baseline
   (activations plain, A packed per block) and the reference evaluator.
   The batches leave padded tails in the 8-row (and 4-row) blocks. *)
let xeon () = config ~machine:Machine.xeon_8358 ()
let primitives () =
  { (Gc_baseline.Baseline.config ~machine:Machine.xeon_8358 ()) with pool = Some pool }
let mlp_1 = Gc_workloads.Table1.mlp_1.hidden

let test_mlp1_blocked_vs_primitives () =
  List.iter
    (fun batch ->
      let built = Gc_workloads.Mlp.build_f32 ~seed:batch ~batch ~hidden:mlp_1 () in
      let what = Printf.sprintf "mlp_1 f32 b%d" batch in
      let _, full, expect = run_both ~cfg:(xeon ()) ~graph:built.graph ~data:built.data () in
      let prim = execute (compile ~config:(primitives ()) built.graph) built.data in
      check_close (what ^ " full") full expect;
      check_close (what ^ " primitives") prim expect;
      check_close (what ^ " full vs primitives") full prim)
    [ 1; 3; 8; 13; 33; 64 ]

(* The served path: every request size 1-64 through execute_poly, each
   landing in its bucket's instance (rows beyond the request are padding) *)
let test_mlp1_poly_buckets () =
  let poly = Gc_workloads.Mlp.build_f32 ~seed:5 ~batch:64 ~batch_dim:(Gc_graph_ir.Dim.Sym "b") ~hidden:mlp_1 () in
  let exact = Gc_workloads.Mlp.build_f32 ~seed:5 ~batch:64 ~hidden:mlp_1 () in
  let want = List.hd (reference exact.graph exact.data) in
  let full = compile_poly ~config:(xeon ()) poly.graph in
  let prim = compile_poly ~config:(primitives ()) poly.graph in
  for rows = 1 to 64 do
    let bindings =
      List.map
        (fun ((lt : Logical_tensor.t), t) ->
          if Logical_tensor.is_constant lt then (lt, t)
          else (lt, Tensor.slice_to t (Shape.of_list [ rows; Shape.dim (Tensor.shape t) 1 ])))
        poly.data
    in
    let want = Tensor.slice_to want (Shape.of_list [ rows; Shape.dim (Tensor.shape want) 1 ]) in
    let what = Printf.sprintf "mlp_1 poly %d rows" rows in
    check_close (what ^ " full") (execute_poly full bindings) [ want ];
    check_close (what ^ " primitives") (execute_poly prim bindings) [ want ]
  done

(* int8 accumulates exactly in s32 and both pipelines requantize through
   the same post-op chain, so the blocked path must match the primitives
   bit for bit *)
let test_mlp1_int8_bit_exact () =
  List.iter
    (fun seed ->
      let built = Gc_workloads.Mlp.build_int8 ~seed ~batch:32 ~hidden:mlp_1 () in
      let full = execute (compile ~config:(xeon ()) built.graph) built.data in
      let prim = execute (compile ~config:(primitives ()) built.graph) built.data in
      List.iter2
        (fun f p ->
          if not (Tensor.equal f p) then
            Alcotest.failf "mlp_1 int8 seed %d: full differs from primitives by %g" seed
              (Tensor.max_abs_diff f p))
        full prim)
    [ 1; 2; 3; 4 ]

let test_mlp_table1_shapes () =
  (* the real MLP_1 layer dims at a small batch, through the full pipeline *)
  let built = Gc_workloads.Mlp.build_f32 ~batch:32 ~hidden:[ 13; 512; 256; 128 ] () in
  let _, got, expect = run_both ~graph:built.graph ~data:built.data () in
  check_close "mlp_1 b32" got expect

let test_mha_f32 () =
  let built = Gc_workloads.Mha.build_f32 ~batch:2 ~seq:16 ~hidden:64 ~heads:4 () in
  let compiled, got, expect = run_both ~graph:built.graph ~data:built.data () in
  check_close "mha f32" got expect;
  (* softmax must be decomposed and fused into the first batch matmul *)
  let fg = fused_graph compiled in
  let qk =
    List.find_opt
      (fun (f : Fused_op.t) ->
        f.tunable <> None
        && List.exists
             (fun (g : Fused_op.post_group) ->
               List.exists
                 (fun (op : Op.t) ->
                   match op.kind with Op_kind.Reduce _ -> true | _ -> false)
                 g.g_ops)
             f.post_groups)
      fg.fused
  in
  Alcotest.(check bool) "softmax fused into batch matmul" true (qk <> None)

let test_mha_f32_coarse_merge () =
  let built = Gc_workloads.Mha.build_f32 ~batch:2 ~seq:8 ~hidden:32 ~heads:2 () in
  let cfg = config () in
  let compiled = compile ~config:cfg built.graph in
  let fg = fused_graph compiled in
  let tagged = List.filter (fun (f : Fused_op.t) -> f.merge_tag <> None) fg.fused in
  Alcotest.(check bool) "the two batch matmuls are merge-tagged" true
    (List.length tagged >= 2);
  let got = execute compiled built.data in
  let expect = reference built.graph built.data in
  check_close "mha merged" got expect

let test_mha_int8 () =
  let built = Gc_workloads.Mha.build_int8 ~batch:2 ~seq:16 ~hidden:64 ~heads:4 () in
  let _, got, expect = run_both ~graph:built.graph ~data:built.data () in
  check_close ~rtol:1e-3 ~atol:1e-3 "mha int8" got expect

let test_mha_table1_shape_small_batch () =
  (* MHA_1 dims with one sequence, full heads *)
  let built = Gc_workloads.Mha.build_f32 ~batch:1 ~seq:128 ~hidden:768 ~heads:8 () in
  let _, got, expect = run_both ~graph:built.graph ~data:built.data () in
  check_close "mha_1 b1" got expect

(* ------------------------------------------------------------------ *)
(* ablation configurations stay correct *)

let ablation_cases =
  [
    ("no coarse", fun (c : Pipeline.config) -> { c with coarse_fusion = false });
    ("no fine", fun c -> { c with fine_fusion = false; coarse_fusion = false });
    ("no layout prop", fun c -> { c with layout_propagation = false });
    ("no const weights", fun c -> { c with const_weights = false });
    ("no low precision", fun c -> { c with low_precision = false });
    ("no opt", fun _ -> Pipeline.no_opt ~machine:Machine.test_machine ());
  ]

let test_ablations_mlp_f32 () =
  let built = Gc_workloads.Mlp.build_f32 ~batch:8 ~hidden:[ 13; 32; 16 ] () in
  let expect = reference built.graph built.data in
  List.iter
    (fun (name, tweak) ->
      let cfg = config ~graph_tweak:tweak () in
      let compiled = compile ~config:cfg built.graph in
      let got = execute compiled built.data in
      check_close ("mlp " ^ name) got expect)
    ablation_cases

let test_ablations_mlp_int8 () =
  let built = Gc_workloads.Mlp.build_int8 ~batch:8 ~hidden:[ 13; 32; 16 ] () in
  let expect = reference built.graph built.data in
  List.iter
    (fun (name, tweak) ->
      let cfg = config ~graph_tweak:tweak () in
      let compiled = compile ~config:cfg built.graph in
      let got = execute compiled built.data in
      (* quantize rounding may flip by one step when the fused chain keeps
         more precision than the per-op f32 reference; tolerate one step *)
      check_close ~rtol:0.05 ~atol:0.25 ("mlp int8 " ^ name) got expect)
    ablation_cases

let test_ablations_mha_f32 () =
  let built = Gc_workloads.Mha.build_f32 ~batch:2 ~seq:12 ~hidden:32 ~heads:2 () in
  let expect = reference built.graph built.data in
  List.iter
    (fun (name, tweak) ->
      let cfg = config ~graph_tweak:tweak () in
      let compiled = compile ~config:cfg built.graph in
      let got = execute compiled built.data in
      check_close ("mha " ^ name) got expect)
    ablation_cases

(* ------------------------------------------------------------------ *)
(* compiled-partition behaviour *)

let test_constant_caching () =
  let built = Gc_workloads.Mlp.build_f32 ~batch:4 ~hidden:[ 8; 16; 4 ] () in
  let compiled = compile ~config:(config ()) built.graph in
  let out1 = execute compiled built.data in
  (* second execution skips init and must give the same answer *)
  let out2 = execute compiled built.data in
  List.iter2
    (fun a b -> Alcotest.(check bool) "stable across runs" true (Tensor.equal a b))
    out1 out2;
  (* changing the input (not weights) changes the output *)
  let x_lt, _ = List.hd built.data in
  let new_x = Tensor.random ~seed:999 Dtype.F32 x_lt.Logical_tensor.shape in
  let out3 = execute compiled ((x_lt, new_x) :: List.tl built.data) in
  Alcotest.(check bool) "different input, different output" false
    (Tensor.equal (List.hd out1) (List.hd out3))

let test_missing_input_rejected () =
  let built = Gc_workloads.Mlp.build_f32 ~batch:4 ~hidden:[ 8; 16 ] () in
  let compiled = compile ~config:(config ()) built.graph in
  Alcotest.(check bool) "raises" true
    (try
       ignore (execute compiled [ List.hd built.data ]);
       false
     with Errors.Error (Errors.Invalid_input { ctx; _ }) ->
       List.mem_assoc "input" ctx)

let test_wrong_shape_rejected () =
  let built = Gc_workloads.Mlp.build_f32 ~batch:4 ~hidden:[ 8; 16 ] () in
  let compiled = compile ~config:(config ()) built.graph in
  let x_lt, _ = List.hd built.data in
  let bad = Tensor.random Dtype.F32 (Shape.of_list [ 5; 8 ]) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (execute compiled ((x_lt, bad) :: List.tl built.data));
       false
     with Errors.Error (Errors.Invalid_input { ctx; _ }) ->
       List.assoc_opt "shape" ctx = Some "[5x8]")

let test_tir_stats_buffer_reuse () =
  (* a deep MLP has several inter-layer buffers; the planner must reuse *)
  let built =
    Gc_workloads.Mlp.build_f32 ~batch:16 ~hidden:[ 16; 32; 32; 32; 32; 16 ] ()
  in
  let compiled = compile ~config:(config ()) built.graph in
  let stats = tir_stats compiled in
  Alcotest.(check bool) "planned <= naive" true
    (stats.buffers.planned_bytes <= stats.buffers.naive_bytes)

let test_matmul_layernorm_fusion () =
  (* transformer-style: matmul followed by layernorm; the mean/variance
     reductions fuse into the matmul's post anchors (2-reduction budget),
     the normalization tail runs as a fusible group *)
  let sh = Shape.of_list in
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 64; 16 ]) in
  let w = Builder.input b ~const:true Dtype.F32 (sh [ 16; 24 ]) in
  let gamma = Builder.const b (Tensor.random ~seed:1 ~lo:0.5 ~hi:1.5 Dtype.F32 (sh [ 24 ])) in
  let beta = Builder.const b (Tensor.random ~seed:2 Dtype.F32 (sh [ 24 ])) in
  let y = Builder.layernorm b ~epsilon:1e-5 ~x:(Builder.matmul b x w) ~gamma ~beta in
  let g = Builder.finalize b ~outputs:[ y ] in
  let data =
    [
      (x, Tensor.random ~seed:3 Dtype.F32 (sh [ 64; 16 ]));
      (w, Tensor.random ~seed:4 ~lo:(-0.4) ~hi:0.4 Dtype.F32 (sh [ 16; 24 ]));
    ]
  in
  let compiled, got, expect = run_both ~graph:g ~data () in
  check_close ~rtol:1e-3 ~atol:1e-4 "matmul+layernorm" got expect;
  (* at least one reduction fused into the tunable *)
  let fg = fused_graph compiled in
  let fused_reds =
    List.concat_map
      (fun (f : Fused_op.t) ->
        if f.tunable = None then []
        else
          List.concat_map
            (fun (gp : Fused_op.post_group) ->
              List.filter
                (fun (op : Op.t) ->
                  match op.kind with Op_kind.Reduce _ -> true | _ -> false)
                gp.g_ops)
            f.post_groups)
      fg.fused
  in
  (* fusion of the reductions depends on the heuristic choosing an
     NPN=1 grid; on shapes where it does, they must land in post groups *)
  let p =
    List.find_map (fun (f : Fused_op.t) -> f.params) fg.fused |> Option.get
  in
  if p.npn = 1 && p.kpn = 1 then
    Alcotest.(check bool) "mean/variance fused" true (List.length fused_reds >= 1)

let test_bert_encoder_layer () =
  (* everything at once: batched attention with fused softmax, layernorms,
     gelu FFN, residuals, prepacked weights *)
  let built =
    Gc_workloads.Mha.build_encoder_layer ~batch:2 ~seq:8 ~hidden:32 ~heads:2 ()
  in
  let _, got, expect = run_both ~graph:built.graph ~data:built.data () in
  check_close ~rtol:1e-3 ~atol:1e-3 "bert layer" got expect

let test_bf16_mlp () =
  (* bf16 end to end: storage is widened f32 with bf16 rounding on stores,
     accumulation in f32 - compare against the reference with bf16-scale
     tolerance *)
  let sh = Shape.of_list in
  let b = Builder.create () in
  let x = Builder.input b ~name:"x" Dtype.Bf16 (sh [ 16; 24 ]) in
  let w = Builder.input b ~name:"w" ~const:true Dtype.Bf16 (sh [ 24; 12 ]) in
  let y = Builder.relu b (Builder.matmul b x w) in
  let g = Builder.finalize b ~outputs:[ y ] in
  let xv = Tensor.random ~seed:1 Dtype.Bf16 (sh [ 16; 24 ]) in
  let wv = Tensor.random ~seed:2 ~lo:(-0.5) ~hi:0.5 Dtype.Bf16 (sh [ 24; 12 ]) in
  let compiled = compile ~config:(config ()) g in
  let got = execute compiled [ (x, xv); (w, wv) ] in
  let expect = reference g [ (x, xv); (w, wv) ] in
  check_close ~rtol:2e-2 ~atol:2e-2 "bf16 mlp" got expect

let test_interp_engine_differential () =
  (* the tree-walking interpreter and the closure-compiling engine must
     agree on a real compiled module (weights prepacked through globals) *)
  let built = Gc_workloads.Mlp.build_f32 ~batch:6 ~hidden:[ 9; 20; 11 ] () in
  let g, cmap = Graph.clone built.graph in
  let data =
    List.map
      (fun ((lt : Logical_tensor.t), v) -> (Hashtbl.find cmap lt.id, v))
      built.data
  in
  let fg = Pipeline.run (Pipeline.default ~machine:Machine.test_machine ()) g in
  let lowered = Gc_lowering.Lower_graph.lower fg in
  let m, _ = Tir_pipeline.run lowered.module_ in
  let engine = Gc_runtime.Engine.create ~pool m in
  let interp = Gc_runtime.Interp.create m in
  (* fill both backends' globals from the host-evaluated init *)
  let init_env =
    match fg.init with
    | Some init ->
        Reference.eval_tensors init
          (List.filter
             (fun ((lt : Logical_tensor.t), _) -> Logical_tensor.is_constant lt)
             data)
    | None -> []
  in
  List.iter
    (fun ((lt : Logical_tensor.t), gt) ->
      let v =
        match lt.property with
        | Compile_const v -> v
        | _ -> (
            match List.assoc_opt lt.id init_env with
            | Some v -> v
            | None -> List.assoc lt.id (List.map (fun ((l : Logical_tensor.t), v) -> (l.id, v)) data))
      in
      Gc_tensor.Buffer.blit ~src:(Tensor.buffer v)
        ~dst:(Gc_runtime.Engine.global_buffer engine gt);
      Gc_tensor.Buffer.blit ~src:(Tensor.buffer v)
        ~dst:(Gc_runtime.Interp.global_buffer interp gt))
    lowered.globals;
  let mk_bufs () =
    List.map
      (fun ((lt : Logical_tensor.t), _) ->
        match List.assoc_opt lt.id (List.map (fun ((l : Logical_tensor.t), v) -> (l.id, v)) data) with
        | Some v -> Tensor.buffer (Tensor.copy v)
        | None -> Tensor.buffer (Tensor.create ~layout:lt.layout lt.dtype lt.shape))
      lowered.entry_params
    |> Array.of_list
  in
  let b1 = mk_bufs () and b2 = mk_bufs () in
  Gc_runtime.Engine.run_entry engine b1;
  Gc_runtime.Interp.run_entry interp b2;
  Array.iteri
    (fun i be ->
      let bi = b2.(i) in
      for j = 0 to Gc_tensor.Buffer.length be - 1 do
        let x = Gc_tensor.Buffer.get be j and y = Gc_tensor.Buffer.get bi j in
        if Float.abs (x -. y) > 1e-5 *. (1. +. Float.abs y) then
          Alcotest.failf "engine/interp diverge at buf %d elem %d: %g vs %g" i j x y
      done)
    b1

(* random fused-chain fuzzer: a matmul followed by a random run of fusible
   ops, compiled with the full pipeline and compared to the reference *)
let random_chain_graph seed m n k ops_spec =
  let sh = Shape.of_list in
  let b = Builder.create () in
  let x = Builder.input b ~name:"x" Dtype.F32 (sh [ m; k ]) in
  let w = Builder.input b ~name:"w" ~const:true Dtype.F32 (sh [ k; n ]) in
  let cur = ref (Builder.matmul b x w) in
  List.iter
    (fun op ->
      cur :=
        match op with
        | 0 -> Builder.relu b !cur
        | 1 -> Builder.tanh b !cur
        | 2 -> Builder.neg b !cur
        | 3 -> Builder.abs b !cur
        | 4 -> Builder.clip b ~lo:(-2.) ~hi:2. !cur
        | 5 -> Builder.mul b !cur (Builder.scalar_const b 0.5)
        | 6 -> Builder.add b !cur (Builder.scalar_const b 1.25)
        | 7 ->
            let bias = Builder.const b (Tensor.random ~seed:(seed + 100) Dtype.F32 (sh [ n ])) in
            Builder.add b !cur bias
        | _ -> Builder.sigmoid b !cur)
    ops_spec;
  let g = Builder.finalize b ~outputs:[ !cur ] in
  let data =
    [
      (x, Tensor.random ~seed Dtype.F32 (sh [ m; k ]));
      (w, Tensor.random ~seed:(seed + 1) ~lo:(-0.4) ~hi:0.4 Dtype.F32 (sh [ k; n ]));
    ]
  in
  (g, data)

let prop_random_chains_match_reference =
  QCheck.Test.make ~name:"random fused chains match reference" ~count:25
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 20) (int_range 1 24) (int_range 1 24)
           (list_size (int_range 0 6) (int_range 0 8))))
    (fun (m, n, k, ops_spec) ->
      let g, data = random_chain_graph (m + n + k) m n k ops_spec in
      let compiled = compile ~config:(config ()) g in
      let got = execute compiled data in
      let expect = reference g data in
      List.for_all2 (Tensor.allclose ~rtol:1e-3 ~atol:1e-3) got expect)

let prop_random_mlps_match_reference =
  QCheck.Test.make ~name:"random MLPs match reference" ~count:10
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 1 24)
           (list_size (int_range 2 4) (int_range 1 48))
           bool))
    (fun (batch, hidden, int8) ->
      QCheck.assume (List.length hidden >= 2);
      let built =
        if int8 then Gc_workloads.Mlp.build_int8 ~batch ~hidden ()
        else Gc_workloads.Mlp.build_f32 ~batch ~hidden ()
      in
      let compiled = compile ~config:(config ()) built.graph in
      let got = execute compiled built.data in
      let expect = reference built.graph built.data in
      let rtol, atol = if int8 then (0.05, 0.25) else (2e-3, 2e-3) in
      List.for_all2 (fun g e -> Tensor.allclose ~rtol ~atol g e) got expect)

let () =
  Alcotest.run "integration"
    [
      ( "mlp",
        [
          Alcotest.test_case "f32 small" `Quick test_mlp_f32_small;
          Alcotest.test_case "f32 batches" `Quick test_mlp_f32_batches;
          Alcotest.test_case "int8" `Quick test_mlp_int8;
          Alcotest.test_case "int8 compensation in init" `Quick test_mlp_int8_compensation_in_init;
          Alcotest.test_case "table1 dims" `Quick test_mlp_table1_shapes;
          Alcotest.test_case "mlp_1 blocked vs primitives" `Quick test_mlp1_blocked_vs_primitives;
          Alcotest.test_case "mlp_1 poly buckets" `Quick test_mlp1_poly_buckets;
          Alcotest.test_case "mlp_1 int8 bit-exact" `Quick test_mlp1_int8_bit_exact;
        ] );
      ( "mha",
        [
          Alcotest.test_case "f32" `Quick test_mha_f32;
          Alcotest.test_case "coarse merge" `Quick test_mha_f32_coarse_merge;
          Alcotest.test_case "int8" `Quick test_mha_int8;
          Alcotest.test_case "mha_1 b1" `Slow test_mha_table1_shape_small_batch;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "mlp f32" `Quick test_ablations_mlp_f32;
          Alcotest.test_case "mlp int8" `Quick test_ablations_mlp_int8;
          Alcotest.test_case "mha f32" `Quick test_ablations_mha_f32;
        ] );
      ( "partition",
        [
          Alcotest.test_case "constant caching" `Quick test_constant_caching;
          Alcotest.test_case "missing input rejected" `Quick test_missing_input_rejected;
          Alcotest.test_case "wrong shape rejected" `Quick test_wrong_shape_rejected;
          Alcotest.test_case "buffer reuse stats" `Quick test_tir_stats_buffer_reuse;
          QCheck_alcotest.to_alcotest prop_random_mlps_match_reference;
          Alcotest.test_case "bf16 mlp" `Quick test_bf16_mlp;
          Alcotest.test_case "matmul+layernorm" `Quick test_matmul_layernorm_fusion;
          Alcotest.test_case "bert encoder layer" `Quick test_bert_encoder_layer;
          Alcotest.test_case "interp/engine differential" `Quick test_interp_engine_differential;
          QCheck_alcotest.to_alcotest prop_random_chains_match_reference;
        ] );
    ]
