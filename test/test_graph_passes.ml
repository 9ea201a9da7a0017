(* Unit tests for the Graph IR optimization passes. Each pass is tested
   both structurally (what it rewrites) and semantically (the rewritten
   graph computes the same function, checked with the reference
   evaluator). *)

open Gc_tensor
open Gc_graph_ir
open Gc_graph_passes
open Gc_lowering

let sh = Shape.of_list
let machine = Gc_microkernel.Machine.xeon_8358

let semantics_preserved ?(rtol = 1e-4) ?(atol = 1e-5) g g' bindings =
  let r = Reference.run g bindings and r' = Reference.run g' bindings in
  List.for_all2 (Tensor.allclose ~rtol ~atol) r r'

(* ------------------------------------------------------------------ *)
(* Decompose *)

let test_decompose_removes_complex () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 4; 6 ]) in
  let y = Builder.softmax b ~axis:1 (Builder.gelu b (Builder.sigmoid b x)) in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g' = Decompose.run g in
  Alcotest.(check bool) "no complex left" true
    (List.for_all (fun (op : Op.t) -> not (Op_kind.is_complex op.kind)) g'.ops);
  let xv = Tensor.random ~seed:1 Dtype.F32 (sh [ 4; 6 ]) in
  Alcotest.(check bool) "semantics" true (semantics_preserved g g' [ (x, xv) ])

let test_decompose_quantize_exact () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 16 ]) in
  let y = Builder.quantize b ~scale:0.1 ~zp:5 Dtype.U8 x in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g' = Decompose.run g in
  let xv = Tensor.random ~seed:2 ~lo:(-2.) ~hi:20. Dtype.F32 (sh [ 16 ]) in
  let r = Reference.run g [ (x, xv) ] and r' = Reference.run g' [ (x, xv) ] in
  Alcotest.(check bool) "bit exact" true (Tensor.equal (List.hd r) (List.hd r'))

let test_decompose_keep_softmax () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 4; 6 ]) in
  let y = Builder.softmax b ~axis:1 x in
  let g = Builder.finalize b ~outputs:[ y ] in
  let kept = Decompose.run ~keep_softmax:true g in
  Alcotest.(check int) "softmax kept whole" 1 (Graph.op_count kept);
  (* non-last-axis softmax is decomposed even when kept is requested *)
  let b2 = Builder.create () in
  let x2 = Builder.input b2 Dtype.F32 (sh [ 4; 6 ]) in
  let y2 = Builder.softmax b2 ~axis:0 x2 in
  let g2 = Builder.finalize b2 ~outputs:[ y2 ] in
  let kept2 = Decompose.run ~keep_softmax:true g2 in
  Alcotest.(check bool) "axis 0 decomposed" true (Graph.op_count kept2 > 1)

let test_decompose_batchnorm_semantics () =
  let b = Builder.create () in
  let c = 4 in
  let x = Builder.input b Dtype.F32 (sh [ 3; c ]) in
  let mk seed = Builder.const b (Tensor.random ~seed ~lo:0.5 ~hi:2. Dtype.F32 (sh [ c ])) in
  let y =
    Builder.batchnorm_inference b ~epsilon:1e-5 ~x ~gamma:(mk 1) ~beta:(mk 2)
      ~mean:(mk 3) ~variance:(mk 4)
  in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g' = Decompose.run g in
  let xv = Tensor.random ~seed:5 Dtype.F32 (sh [ 3; c ]) in
  Alcotest.(check bool) "semantics" true (semantics_preserved g g' [ (x, xv) ])

let test_decompose_layernorm_semantics () =
  let b = Builder.create () in
  let c = 6 in
  let x = Builder.input b Dtype.F32 (sh [ 4; c ]) in
  let gamma = Builder.const b (Tensor.random ~seed:1 ~lo:0.5 ~hi:1.5 Dtype.F32 (sh [ c ])) in
  let beta = Builder.const b (Tensor.random ~seed:2 Dtype.F32 (sh [ c ])) in
  let y = Builder.layernorm b ~epsilon:1e-5 ~x ~gamma ~beta in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g' = Decompose.run g in
  Alcotest.(check bool) "decomposed" true (Graph.op_count g' > 5);
  let xv = Tensor.random ~seed:3 ~lo:(-2.) ~hi:2. Dtype.F32 (sh [ 4; c ]) in
  Alcotest.(check bool) "semantics" true (semantics_preserved g g' [ (x, xv) ])

let test_fusion_reduction_escape_trimmed () =
  (* a reduction whose result is also consumed outside the chain must not
     be fused (the post#3 scheduler cannot export per-row accumulators) *)
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 4; 8 ]) in
  let w = Builder.input b ~const:true Dtype.F32 (sh [ 8; 8 ]) in
  let h = Builder.matmul b x w in
  let r = Builder.reduce b Max ~axis:1 ~keepdims:true h in
  let inside = Builder.sub b h r in
  (* r escapes: it is also a graph output *)
  let g = Builder.finalize b ~outputs:[ inside; r ] in
  let fg =
    Fusion.run ~machine ~params:(Hashtbl.create 4) (Const_prop.mark g) ~init:None
  in
  let tunable = List.find (fun (f : Gc_lowering.Fused_op.t) -> f.tunable <> None) fg.fused in
  let fused_reduce =
    List.exists
      (fun (gp : Gc_lowering.Fused_op.post_group) ->
        List.exists
          (fun (op : Op.t) -> match op.kind with Reduce _ -> true | _ -> false)
          gp.g_ops)
      tunable.post_groups
  in
  Alcotest.(check bool) "escaped reduction not fused" false fused_reduce;
  (* and the graph still computes correctly end to end *)
  let xv = Tensor.random ~seed:4 Dtype.F32 (sh [ 4; 8 ]) in
  let wv = Tensor.random ~seed:5 Dtype.F32 (sh [ 8; 8 ]) in
  let compiled = Core.compile g in
  let got = Core.execute compiled [ (x, xv); (w, wv) ] in
  let expect = Reference.run g [ (x, xv); (w, wv) ] in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "matches" true (Tensor.allclose ~rtol:1e-4 ~atol:1e-4 a b))
    got expect

(* ------------------------------------------------------------------ *)
(* Const fold / CSE / DCE *)

let test_const_fold () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 2 ]) in
  let c1 = Builder.scalar_const b 3. in
  let c2 = Builder.scalar_const b 4. in
  let s = Builder.add b c1 c2 in
  (* s is compile-time computable *)
  let y = Builder.mul b x s in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g' = Const_fold.run g in
  Alcotest.(check int) "one op left" 1 (Graph.op_count g');
  let xv = Tensor.of_float_list Dtype.F32 (sh [ 2 ]) [ 1.; 2. ] in
  match Reference.run g' [ (x, xv) ] with
  | [ out ] ->
      Alcotest.(check (list (float 0.))) "x*7" [ 7.; 14. ]
        (Array.to_list (Tensor.to_float_array out))
  | _ -> Alcotest.fail "one output"

let test_cse_merges_duplicates () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 4 ]) in
  let r1 = Builder.relu b x in
  let r2 = Builder.relu b x in
  let y = Builder.add b r1 r2 in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g' = Cse.run g in
  Alcotest.(check int) "relu deduped" 2 (Graph.op_count g');
  let xv = Tensor.random ~seed:6 Dtype.F32 (sh [ 4 ]) in
  Alcotest.(check bool) "semantics" true (semantics_preserved g g' [ (x, xv) ])

let test_cse_respects_attrs () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 4 ]) in
  let c1 = Builder.clip b ~lo:0. ~hi:1. x in
  let c2 = Builder.clip b ~lo:0. ~hi:2. x in
  let y = Builder.add b c1 c2 in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g' = Cse.run g in
  Alcotest.(check int) "different attrs kept" 3 (Graph.op_count g')

let test_dce_removes_dead () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 4 ]) in
  let y = Builder.relu b x in
  let _dead = Builder.exp b (Builder.tanh b x) in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g' = Dce.run g in
  Alcotest.(check int) "only live op" 1 (Graph.op_count g')

(* ------------------------------------------------------------------ *)
(* Low precision *)

let int8_island ?(zp = 7) () =
  let b = Builder.create () in
  let xq = Builder.input b Dtype.U8 (sh [ 4; 8 ]) in
  let wq = Builder.input b ~const:true Dtype.S8 (sh [ 8; 5 ]) in
  let xf = Builder.dequantize b ~scale:0.1 ~zp xq in
  let wf = Builder.dequantize b ~scale:0.05 ~zp:0 wq in
  let y = Builder.matmul b xf wf in
  let g = Builder.finalize b ~outputs:[ y ] in
  (g, xq, wq)

let test_low_precision_rewrites () =
  let g, xq, wq = int8_island () in
  let g' = Low_precision.run g in
  (* the fp32 matmul is gone; an int8 matmul exists *)
  let int8_mm =
    List.find_opt
      (fun (op : Op.t) ->
        op.kind = Op_kind.Matmul
        && Dtype.equal (List.hd op.inputs).Logical_tensor.dtype Dtype.U8)
      g'.ops
  in
  Alcotest.(check bool) "int8 matmul" true (int8_mm <> None);
  (* the compensation reduce over the weight exists (zp <> 0) *)
  Alcotest.(check bool) "compensation" true
    (List.exists
       (fun (op : Op.t) -> match op.kind with Reduce _ -> true | _ -> false)
       g'.ops);
  let xv = Tensor.random ~seed:7 ~lo:0. ~hi:60. Dtype.U8 (sh [ 4; 8 ]) in
  let wv = Tensor.random ~seed:8 ~lo:(-50.) ~hi:50. Dtype.S8 (sh [ 8; 5 ]) in
  Alcotest.(check bool) "semantics" true
    (semantics_preserved ~rtol:1e-4 ~atol:1e-4 g g' [ (xq, xv); (wq, wv) ])

let test_low_precision_symmetric_no_compensation () =
  let g, _, _ = int8_island ~zp:0 () in
  let g' = Low_precision.run g in
  Alcotest.(check bool) "no reduce needed" false
    (List.exists
       (fun (op : Op.t) -> match op.kind with Reduce _ -> true | _ -> false)
       g'.ops)

let test_low_precision_skips_nonzero_weight_zp () =
  let b = Builder.create () in
  let xq = Builder.input b Dtype.U8 (sh [ 2; 4 ]) in
  let wq = Builder.input b ~const:true Dtype.S8 (sh [ 4; 3 ]) in
  let xf = Builder.dequantize b ~scale:0.1 ~zp:3 xq in
  let wf = Builder.dequantize b ~scale:0.05 ~zp:2 wq in
  (* weight zp <> 0: not convertible *)
  let y = Builder.matmul b xf wf in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g' = Low_precision.run g in
  Alcotest.(check bool) "fp32 matmul kept" true
    (List.exists
       (fun (op : Op.t) ->
         op.kind = Op_kind.Matmul
         && Dtype.equal (List.hd op.inputs).Logical_tensor.dtype Dtype.F32)
       g'.ops)

(* ------------------------------------------------------------------ *)
(* Const prop / split *)

let test_const_prop_marks_and_splits () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 2; 3 ]) in
  let w = Builder.input b ~const:true Dtype.F32 (sh [ 3; 3 ]) in
  (* a constant chain: w2 = relu(w) is runtime-computable once *)
  let w2 = Builder.relu b w in
  let y = Builder.matmul b x w2 in
  let g = Builder.finalize b ~outputs:[ y ] in
  let split = Const_prop.split g in
  (match split.init with
  | Some init ->
      Alcotest.(check int) "relu in init" 1 (Graph.op_count init);
      Alcotest.(check int) "matmul in main" 1 (Graph.op_count split.main)
  | None -> Alcotest.fail "expected init graph");
  Alcotest.(check bool) "w2 marked const" true
    (Logical_tensor.is_constant w2)

let test_const_prop_no_consts_no_init () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 2 ]) in
  let y = Builder.relu b x in
  let g = Builder.finalize b ~outputs:[ y ] in
  let split = Const_prop.split g in
  Alcotest.(check bool) "no init" true (split.init = None)

(* ------------------------------------------------------------------ *)
(* Layout propagation *)

let two_layer_mlp ?(n2 = 16) () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 64; 32 ]) in
  let w1 = Builder.input b ~const:true Dtype.F32 (sh [ 32; 64 ]) in
  let w2 = Builder.input b ~const:true Dtype.F32 (sh [ 64; n2 ]) in
  let h = Builder.matmul b x w1 in
  let y = Builder.matmul b h w2 in
  (Builder.finalize b ~outputs:[ y ], x, w1, w2, h, y)

let test_layout_prop_prepacks_weights () =
  let g, _, _, _, _, _ = two_layer_mlp () in
  let g = Const_prop.mark g in
  let r = Layout_prop.run ~machine g in
  (* reorder ops were inserted for both weights *)
  let reorders =
    List.filter (fun (op : Op.t) -> op.kind = Op_kind.Reorder) r.graph.ops
  in
  Alcotest.(check int) "two prepacks" 2 (List.length reorders);
  List.iter
    (fun (op : Op.t) ->
      Alcotest.(check bool) "prepack is runtime const" true
        (Logical_tensor.is_constant (Op.output op)))
    reorders

(* 64x64x64: the second matmul's tiles aligned to the first's output
   blocking cost no more than its free choice, so it reads h blocked *)
let test_layout_prop_blocks_intermediate () =
  let g, _, _, _, h, y = two_layer_mlp ~n2:64 () in
  let g = Const_prop.mark g in
  let _ = Layout_prop.run ~machine g in
  Alcotest.(check bool) "intermediate blocked" true (Layout.is_blocked h.layout);
  Alcotest.(check bool) "graph output stays plain" true (Layout.is_plain y.layout)

(* 64x16x64: tiles aligned to h's 8-row blocks leave the second matmul a
   1x1 core grid at 1.75x its free choice's cost; the consumer owns the
   decision, so h goes back to plain *)
let test_layout_prop_consumer_reverts () =
  let g, _, _, _, h, _ = two_layer_mlp () in
  let g = Const_prop.mark g in
  let r = Layout_prop.run ~machine g in
  Alcotest.(check bool) "intermediate plain" true (Layout.is_plain h.layout);
  let second =
    List.find
      (fun (op : Op.t) -> op.kind = Op_kind.Matmul && Logical_tensor.equal (List.hd op.inputs) h)
      r.graph.ops
  in
  let p = Hashtbl.find r.params second.id in
  let best =
    Heuristic.choose ~machine ~dtype:Dtype.F32 ~m:p.m ~n:p.n ~k:p.k ()
  in
  Alcotest.(check string) "free choice kept" (Params.to_string best) (Params.to_string p)

(* The published chain follows relu and a bias add to the next matmul:
   every tensor on it carries the producer's output blocking. *)
let test_layout_prop_follows_post_ops () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 64; 32 ]) in
  let w1 = Builder.input b ~const:true Dtype.F32 (sh [ 32; 64 ]) in
  let bias = Builder.input b ~const:true Dtype.F32 (sh [ 64 ]) in
  let w2 = Builder.input b ~const:true Dtype.F32 (sh [ 64; 64 ]) in
  let h = Builder.matmul b x w1 in
  let hb = Builder.add b h bias in
  let a = Builder.relu b hb in
  let y = Builder.matmul b a w2 in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g = Const_prop.mark g in
  let r = Layout_prop.run ~machine g in
  let first =
    List.find (fun (op : Op.t) -> Logical_tensor.equal (Op.output op) h) r.graph.ops
  in
  let c_layout = Params.c_layout (Hashtbl.find r.params first.id) in
  List.iter
    (fun (t : Logical_tensor.t) ->
      Alcotest.(check string) (t.name ^ " blocked") (Layout.to_string c_layout)
        (Layout.to_string t.layout))
    [ h; hb; a ];
  Alcotest.(check bool) "bias stays plain" true (Layout.is_plain bias.layout)

let test_layout_prop_activations_off () =
  let g, _, _, _, h, _ = two_layer_mlp () in
  let g = Const_prop.mark g in
  let _ = Layout_prop.run ~propagate_activations:false ~machine g in
  Alcotest.(check bool) "intermediate stays plain" true (Layout.is_plain h.layout)

let test_layout_prop_records_params () =
  let g, _, _, _, _, _ = two_layer_mlp () in
  let r = Layout_prop.run ~machine g in
  Alcotest.(check int) "params for both matmuls" 2 (Hashtbl.length r.params)

(* ------------------------------------------------------------------ *)
(* Fusion *)

let fused_of g =
  let g = Const_prop.mark g in
  let params = Hashtbl.create 8 in
  Fusion.run ~machine ~params g ~init:None

let test_fusion_matmul_relu_chain () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 8; 8 ]) in
  let w = Builder.input b ~const:true Dtype.F32 (sh [ 8; 8 ]) in
  let y = Builder.relu b (Builder.matmul b x w) in
  let g = Builder.finalize b ~outputs:[ y ] in
  let fg = fused_of g in
  Alcotest.(check int) "one fused op" 1 (List.length fg.fused);
  let f = List.hd fg.fused in
  Alcotest.(check bool) "has tunable" true (f.tunable <> None);
  Alcotest.(check int) "one post group" 1 (List.length f.post_groups)

let test_fusion_stops_at_multiuse () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 8; 8 ]) in
  let w = Builder.input b ~const:true Dtype.F32 (sh [ 8; 8 ]) in
  let h = Builder.matmul b x w in
  (* h used twice: relu cannot be grown past it because h itself is
     multi-consumer *)
  let y1 = Builder.relu b h in
  let y2 = Builder.exp b h in
  let g = Builder.finalize b ~outputs:[ Builder.add b y1 y2 ] in
  let fg = fused_of g in
  let f = List.find (fun (f : Gc_lowering.Fused_op.t) -> f.tunable <> None) fg.fused in
  Alcotest.(check bool) "matmul fused alone or with closed region" true
    (List.length fg.fused >= 2);
  ignore f

let test_fusion_reduction_limits () =
  (* a graph with 3 reductions in a row exceeds max_reductions=2 *)
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 2; 4; 8 ]) in
  let w = Builder.input b Dtype.F32 (sh [ 2; 8; 8 ]) in
  let h = Builder.matmul b x w in
  let s = Builder.softmax b ~axis:2 h in
  let r3 = Builder.reduce b Max ~axis:2 ~keepdims:true s in
  let g = Builder.finalize b ~outputs:[ r3 ] in
  let g = Decompose.run g in
  let fg = fused_of g in
  let tunable = List.find (fun (f : Gc_lowering.Fused_op.t) -> f.tunable <> None) fg.fused in
  let n_red =
    List.length
      (List.filter
         (fun (op : Op.t) -> match op.kind with Reduce _ -> true | _ -> false)
         (List.concat_map (fun (gp : Gc_lowering.Fused_op.post_group) -> gp.g_ops) tunable.post_groups))
  in
  Alcotest.(check bool) "at most 2 reductions fused" true (n_red <= 2)

let test_fusion_fine_off_isolates_ops () =
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 8; 8 ]) in
  let w = Builder.input b ~const:true Dtype.F32 (sh [ 8; 8 ]) in
  let y = Builder.relu b (Builder.matmul b x w) in
  let g = Builder.finalize b ~outputs:[ y ] in
  let g = Const_prop.mark g in
  let fg = Fusion.run ~fine:false ~machine ~params:(Hashtbl.create 4) g ~init:None in
  Alcotest.(check int) "two fused ops" 2 (List.length fg.fused)

(* ------------------------------------------------------------------ *)
(* Golden fusion decisions: the fused-op structure fine-grain fusion
   produces for every workload family, f32 and int8, under the full
   pipeline and the primitives preset (coarse fusion off, so the
   partitions are exactly [Fusion.run]'s), with each tunable op's
   template parameters as the static heuristic chose them. Op and tensor ids are
   renumbered by rank, so the signature does not depend on how many ids
   the process handed out before. On a mismatch the actual signature is
   written next to the test binary as [fusion_golden.actual]; copy it
   over [test/fusion_golden.txt] only when a change to the fusion
   heuristic is intended. *)

let fusion_signature (fg : Gc_lowering.Fused_op.graph) =
  let rank ids =
    let sorted = List.sort_uniq compare ids in
    let tbl = Hashtbl.create (List.length sorted) in
    List.iteri (fun i id -> Hashtbl.replace tbl id i) sorted;
    Hashtbl.find tbl
  in
  let ops = List.concat_map Gc_lowering.Fused_op.ops fg.fused in
  let op_rank = rank (List.map (fun (op : Op.t) -> op.id) ops) in
  let lt_rank =
    rank
      (List.concat_map
         (fun (f : Gc_lowering.Fused_op.t) ->
           List.map (fun (lt : Logical_tensor.t) -> lt.id) (f.f_inputs @ f.f_outputs))
         fg.fused
      @ List.concat_map
          (fun (op : Op.t) ->
            List.map (fun (lt : Logical_tensor.t) -> lt.id) (op.inputs @ op.outputs))
          ops)
  in
  let op_s (op : Op.t) = Printf.sprintf "%s:%d" (Op_kind.to_string op.kind) (op_rank op.id) in
  let lts l =
    String.concat "," (List.map (fun (lt : Logical_tensor.t) -> string_of_int (lt_rank lt.id)) l)
  in
  let pre = function
    | None -> "-"
    | Some (op, a) -> op_s op ^ "@" ^ Gc_lowering.Anchor.pre_to_string a
  in
  Printf.sprintf "partitions %d" (List.length fg.fused)
  :: List.concat_map
       (fun (f : Gc_lowering.Fused_op.t) ->
         Printf.sprintf "  fused tunable=%s pre_a=%s pre_b=%s in=[%s] out=[%s]"
           (match f.tunable with Some op -> op_s op | None -> "-")
           (pre f.pre_a) (pre f.pre_b) (lts f.f_inputs) (lts f.f_outputs)
         :: (match f.params with
            | Some p -> [ "    params: " ^ Gc_lowering.Params.to_string p ]
            | None -> [])
         @ List.map
              (fun (gp : Gc_lowering.Fused_op.post_group) ->
                Printf.sprintf "    %s: %s"
                  (Gc_lowering.Anchor.post_to_string gp.g_anchor)
                  (String.concat " " (List.map op_s gp.g_ops)))
              f.post_groups)
       fg.fused

let golden_workloads =
  let open Gc_workloads in
  let mlp int8 =
    let build = if int8 then Mlp.build_int8 else Mlp.build_f32 in
    (build ~seed:1 ~batch:32 ~hidden:Table1.mlp_1.hidden ()).graph
  in
  let mha int8 =
    let build = if int8 then Mha.build_int8 else Mha.build_f32 in
    (build ~seed:1 ~batch:2 ~seq:64 ~hidden:256 ~heads:4 ()).graph
  in
  let bert layers int8 =
    let build = if int8 then Bert.build_int8 else Bert.build_f32 in
    (build ~seed:1 ~layers ~batch:1 ~seq:8 ~hidden:32 ~heads:2 ()).graph
  in
  let dlrm int8 =
    let build = if int8 then Dlrm.build_int8 else Dlrm.build_f32 in
    (build ~seed:1 ~batch:8 ~dense_dim:13 ~bottom:[ 32; 16 ] ~tables:2 ~vocab:40
       ~emb_dim:16 ~top:[ 32; 1 ] ())
      .graph
  in
  let conv int8 =
    let build = if int8 then Conv.build_int8 else Conv.build_f32 in
    (build ~seed:1 ~relu:true ~batch:2 ~height:8 ~width:8 ~channels:3 ~kh:3 ~kw:3
       ~out_channels:8 ~strides:(1, 1) ~pads:(1, 1, 1, 1) ~dilations:(1, 1) ())
      .graph
  in
  List.concat_map
    (fun (name, build) ->
      List.map
        (fun int8 -> (Printf.sprintf "%s_%s" name (if int8 then "int8" else "f32"), fun () -> build int8))
        [ false; true ])
    [
      ("mlp1", mlp); ("mha", mha); ("bert1", bert 1); ("bert2", bert 2);
      ("dlrm", dlrm); ("conv", conv);
    ]

let golden_signature () =
  List.concat_map
    (fun (name, build) ->
      let g = build () in
      List.concat_map
        (fun (preset, (cfg : Pipeline.config)) ->
          let clone, _ = Graph.clone g in
          Printf.sprintf "== %s %s" name preset
          :: fusion_signature (Pipeline.run { cfg with coarse_fusion = false } clone))
        [
          ("full", Pipeline.default ~machine ());
          ("primitives", Pipeline.onednn_primitives ~machine ());
        ])
    golden_workloads

let test_fusion_golden () =
  let actual = golden_signature () in
  let expected =
    In_channel.with_open_text "fusion_golden.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if actual <> expected then begin
    Out_channel.with_open_text "fusion_golden.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff i = function
      | a :: xs, b :: ys -> if a = b then first_diff (i + 1) (xs, ys) else (i, a, b)
      | a :: _, [] -> (i, a, "<end of golden>")
      | [], b :: _ -> (i, "<end of actual>", b)
      | [], [] -> (i, "", "")
    in
    let i, a, e = first_diff 1 (actual, expected) in
    Alcotest.failf "fusion decisions differ from the golden at line %d:\n  actual:   %s\n  expected: %s" i a e
  end

(* ------------------------------------------------------------------ *)
(* Coarse fusion *)

let test_coarse_tags_batched_pair () =
  let built = Gc_workloads.Mha.build_f32 ~batch:2 ~seq:8 ~hidden:32 ~heads:2 () in
  let fg = Pipeline.run (Pipeline.default ~machine ()) built.graph in
  let tagged = List.filter (fun (f : Gc_lowering.Fused_op.t) -> f.merge_tag <> None) fg.fused in
  Alcotest.(check bool) "two tagged" true (List.length tagged >= 2);
  match tagged with
  | a :: b :: _ -> Alcotest.(check bool) "same tag" true (a.merge_tag = b.merge_tag)
  | _ -> ()

let test_coarse_respects_ownership () =
  (* 2-D merge requires equal m; build two matmuls with different m via a
     transpose in between: no merge must happen *)
  let b = Builder.create () in
  let x = Builder.input b Dtype.F32 (sh [ 16; 8 ]) in
  let w1 = Builder.input b ~const:true Dtype.F32 (sh [ 8; 24 ]) in
  let w2 = Builder.input b ~const:true Dtype.F32 (sh [ 16; 8 ]) in
  let h = Builder.matmul b x w1 in
  let ht = Builder.transpose b ~perm:[ 1; 0 ] h in
  let y = Builder.matmul b ht w2 in
  let g = Builder.finalize b ~outputs:[ y ] in
  let fg = Pipeline.run (Pipeline.default ~machine ()) g in
  let tunables = List.filter (fun (f : Gc_lowering.Fused_op.t) -> f.tunable <> None) fg.fused in
  let tags = List.filter_map (fun (f : Gc_lowering.Fused_op.t) -> f.merge_tag) tunables in
  Alcotest.(check bool) "no shared tag across different m" true
    (match tags with a :: b :: _ -> a <> b | _ -> true)

(* ------------------------------------------------------------------ *)
(* Pipeline presets *)

let test_pipeline_presets_differ () =
  let built = Gc_workloads.Mha.build_f32 ~batch:2 ~seq:8 ~hidden:32 ~heads:2 () in
  let full = Pipeline.run (Pipeline.default ~machine ()) built.graph in
  let base = Pipeline.run (Pipeline.onednn_primitives ~machine ()) built.graph in
  (* the baseline cannot fuse softmax: its fused-op count is larger *)
  Alcotest.(check bool) "baseline has more partitions" true
    (List.length base.fused > List.length full.fused)

let () =
  Alcotest.run "gc_graph_passes"
    [
      ( "decompose",
        [
          Alcotest.test_case "removes complex" `Quick test_decompose_removes_complex;
          Alcotest.test_case "quantize exact" `Quick test_decompose_quantize_exact;
          Alcotest.test_case "keep softmax" `Quick test_decompose_keep_softmax;
          Alcotest.test_case "batchnorm" `Quick test_decompose_batchnorm_semantics;
          Alcotest.test_case "layernorm" `Quick test_decompose_layernorm_semantics;
        ] );
      ( "fold/cse/dce",
        [
          Alcotest.test_case "const fold" `Quick test_const_fold;
          Alcotest.test_case "cse merges" `Quick test_cse_merges_duplicates;
          Alcotest.test_case "cse respects attrs" `Quick test_cse_respects_attrs;
          Alcotest.test_case "dce" `Quick test_dce_removes_dead;
        ] );
      ( "low_precision",
        [
          Alcotest.test_case "rewrites" `Quick test_low_precision_rewrites;
          Alcotest.test_case "symmetric" `Quick test_low_precision_symmetric_no_compensation;
          Alcotest.test_case "weight zp guard" `Quick test_low_precision_skips_nonzero_weight_zp;
        ] );
      ( "const_prop",
        [
          Alcotest.test_case "marks and splits" `Quick test_const_prop_marks_and_splits;
          Alcotest.test_case "no consts no init" `Quick test_const_prop_no_consts_no_init;
        ] );
      ( "layout_prop",
        [
          Alcotest.test_case "prepacks weights" `Quick test_layout_prop_prepacks_weights;
          Alcotest.test_case "blocks intermediate" `Quick test_layout_prop_blocks_intermediate;
          Alcotest.test_case "consumer reverts" `Quick test_layout_prop_consumer_reverts;
          Alcotest.test_case "follows post-ops" `Quick test_layout_prop_follows_post_ops;
          Alcotest.test_case "activations off" `Quick test_layout_prop_activations_off;
          Alcotest.test_case "records params" `Quick test_layout_prop_records_params;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "matmul+relu chain" `Quick test_fusion_matmul_relu_chain;
          Alcotest.test_case "stops at multiuse" `Quick test_fusion_stops_at_multiuse;
          Alcotest.test_case "reduction limits" `Quick test_fusion_reduction_limits;
          Alcotest.test_case "fine off" `Quick test_fusion_fine_off_isolates_ops;
          Alcotest.test_case "reduction escape trimmed" `Quick test_fusion_reduction_escape_trimmed;
          Alcotest.test_case "golden decisions" `Quick test_fusion_golden;
        ] );
      ( "coarse_fusion",
        [
          Alcotest.test_case "tags batched pair" `Quick test_coarse_tags_batched_pair;
          Alcotest.test_case "respects ownership" `Quick test_coarse_respects_ownership;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "presets differ" `Quick test_pipeline_presets_differ ] );
    ]
