(* Tests for the lowering layer: heuristic, anchors, and end-to-end
   template correctness (lower a fused op, execute it on the engine, and
   compare against the reference evaluator). *)

open Gc_tensor
open Gc_microkernel
open Gc_graph_ir
open Gc_lowering
open Gc_runtime

let sh = Shape.of_list
let machine = Machine.xeon_8358
let pool = Parallel.create 2

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_derived () =
  let p =
    {
      Params.m = 128; n = 256; k = 512; batch = 1; dtype = Dtype.F32;
      mpn = 4; npn = 2; kpn = 1; mb = 16; nb = 32; kb = 64; bs = 2;
      loop_order = "msi,ksi,nsi"; read_plain = false;
    }
  in
  Alcotest.(check int) "mblocks" 8 (Params.mblocks p);
  Alcotest.(check int) "nblocks" 8 (Params.nblocks p);
  Alcotest.(check int) "kblocks" 8 (Params.kblocks p);
  Alcotest.(check int) "msn" 2 (Params.msn p);
  Alcotest.(check int) "nsn" 4 (Params.nsn p);
  Alcotest.(check int) "ksteps" 4 (Params.ksteps p);
  Alcotest.(check int) "m_pad" 128 (Params.m_pad p)

let test_params_padding () =
  let p =
    {
      Params.m = 13; n = 479; k = 100; batch = 1; dtype = Dtype.F32;
      mpn = 1; npn = 1; kpn = 1; mb = 16; nb = 64; kb = 64; bs = 1;
      loop_order = "msi,ksi,nsi"; read_plain = false;
    }
  in
  Alcotest.(check int) "m_pad" 16 (Params.m_pad p);
  Alcotest.(check int) "n_pad" (8 * 64) (Params.n_pad p);
  Alcotest.(check int) "k_pad" 128 (Params.k_pad p)

(* ------------------------------------------------------------------ *)
(* Heuristic *)

let test_heuristic_basic () =
  let p = Heuristic.choose ~machine ~dtype:Dtype.F32 ~m:512 ~n:512 ~k:512 () in
  Alcotest.(check bool) "grid uses cores" true (p.mpn * p.npn <= machine.cores);
  Alcotest.(check bool) "tile valid" true
    (Ukernel_cost.valid ~machine ~dtype:Dtype.F32 ~mb:p.mb ~nb:p.nb ~kb:p.kb ~bs:p.bs);
  Alcotest.(check string) "loop order reported" "msi,ksi,nsi" p.loop_order

let test_heuristic_batched () =
  let p = Heuristic.choose ~machine ~dtype:Dtype.F32 ~batch:256 ~m:128 ~n:128 ~k:64 () in
  Alcotest.(check int) "mpn=1" 1 p.mpn;
  Alcotest.(check int) "npn=1" 1 p.npn;
  Alcotest.(check int) "batch recorded" 256 p.batch

let test_heuristic_small_problem () =
  (* tiny problem must not blow up or choose absurd grids *)
  let p = Heuristic.choose ~machine ~dtype:Dtype.F32 ~m:4 ~n:8 ~k:4 () in
  Alcotest.(check bool) "sensible grid" true (p.mpn >= 1 && p.npn >= 1)

let test_heuristic_force () =
  let p =
    Heuristic.choose ~machine ~dtype:Dtype.F32 ~force_grid:(2, 2)
      ~force_tile:(8, 32, 32, 1) ~m:256 ~n:256 ~k:256 ()
  in
  Alcotest.(check int) "forced mpn" 2 p.mpn;
  Alcotest.(check int) "forced mb" 8 p.mb

let test_heuristic_cost_padding_penalty () =
  (* k=479 pays for padding: cost(479) should be close to cost(512), i.e.
     clearly more than 479/512 of it *)
  let c479 =
    Heuristic.cost ~machine
      (Heuristic.choose ~machine ~dtype:Dtype.S8 ~m:512 ~n:1024 ~k:479 ())
  in
  let c512 =
    Heuristic.cost ~machine
      (Heuristic.choose ~machine ~dtype:Dtype.S8 ~m:512 ~n:1024 ~k:512 ())
  in
  Alcotest.(check bool) "padding penalty" true (c479 > 0.9 *. c512 *. 479. /. 512.)

let test_heuristic_int8_cheaper () =
  let f32 = Heuristic.cost ~machine (Heuristic.choose ~machine ~dtype:Dtype.F32 ~m:512 ~n:512 ~k:512 ()) in
  let i8 = Heuristic.cost ~machine (Heuristic.choose ~machine ~dtype:Dtype.U8 ~m:512 ~n:512 ~k:512 ()) in
  Alcotest.(check bool) "int8 cheaper" true (i8 < f32)

(* The search prices each tile's microkernel once and tests [sensible]
   on ints, building a [Params.t] only for its pick. The search it
   replaced, kept here as the oracle, built a [Params.t] and re-priced the
   tile for every grid and k-slicing. Both must pick the same parameters
   (or both fail) over machines, dtypes, batched problems and the aligned
   queries layout propagation makes, and [cost] must price the pick to
   the bit. *)
module Oracle = struct
  let acc_elems_per_line machine (_ : Dtype.t) = machine.Machine.cache_line / 4

  let cost ~machine (p : Params.t) =
    let uk = Ukernel_cost.cost ~machine ~dtype:p.dtype ~mb:p.mb ~nb:p.nb ~kb:p.kb ~bs:p.bs in
    let msn = Params.msn p and nsn = Params.nsn p in
    let ksteps = Params.ksteps_per_slice p in
    let compute = float_of_int (msn * nsn * ksteps) *. uk.cycles in
    let line = float_of_int (acc_elems_per_line machine p.dtype) in
    let c_elems = float_of_int (msn * nsn * p.mb * p.nb) in
    let c_traffic = (c_elems *. 0.6) +. (3. *. c_elems /. line *. machine.Machine.l1_latency) in
    let esize = float_of_int (Dtype.size_bytes p.dtype) in
    let a_bytes = float_of_int (msn * p.mb * Params.k_pad p) *. esize in
    let b_bytes = float_of_int (nsn * p.nb * Params.k_pad p) *. esize in
    let panel_traffic =
      (a_bytes +. b_bytes) /. float_of_int machine.Machine.cache_line *. machine.Machine.l2_latency
    in
    let per_task = compute +. c_traffic +. panel_traffic in
    let tasks = if p.batch > 1 then p.batch else p.mpn * p.npn * p.kpn in
    let waves = Shape.ceil_div tasks machine.Machine.cores in
    let reduction_phase =
      if p.kpn <= 1 then 0.
      else begin
        let elems = float_of_int (Params.m_pad p * Params.n_pad p) in
        let cpart_bytes = int_of_float elems * p.kpn * 4 in
        let per_line =
          if cpart_bytes <= machine.Machine.l2_size then machine.Machine.l2_latency
          else machine.Machine.llc_latency
        in
        let per_elem = per_line /. float_of_int (acc_elems_per_line machine p.dtype) in
        (elems *. float_of_int (p.kpn + 1) *. per_elem /. float_of_int machine.Machine.cores)
        +. machine.Machine.barrier_cycles
      end
    in
    (float_of_int waves *. per_task) +. reduction_phase +. machine.Machine.barrier_cycles

  let grid_candidates ~cores =
    let divisor_splits c =
      List.filter_map (fun p -> if c mod p = 0 then Some (p, c / p) else None) (List.init c (fun i -> i + 1))
    in
    let half = if cores >= 2 then divisor_splits (cores / 2) else [] in
    List.sort_uniq compare (divisor_splits cores @ half @ [ (1, 1); (1, cores); (cores, 1) ])

  let tile_candidates ~machine ~dtype =
    let tm = Ukernel_cost.tile_m and tn = Ukernel_cost.tile_n in
    List.concat_map
      (fun mb ->
        List.concat_map
          (fun nb ->
            List.concat_map
              (fun kb ->
                List.filter_map
                  (fun bs ->
                    if Ukernel_cost.valid ~machine ~dtype ~mb ~nb ~kb ~bs then Some (mb, nb, kb, bs)
                    else None)
                  [ 1; 2; 4 ])
              [ 16; 32; 64 ])
          [ 4 * tn; 8 * tn; 12 * tn; 16 * tn ])
      [ 1; tm; 2 * tm; 3 * tm; 4 * tm; 6 * tm; 8 * tm; 16 * tm ]

  let choose ~machine ~dtype ~batch ?mb_fixed ?kb_fixed ~allow_kslice ~m ~n ~k () =
    let grids = if batch > 1 then [ (1, 1) ] else grid_candidates ~cores:machine.Machine.cores in
    let tiles =
      tile_candidates ~machine ~dtype
      |> List.filter (fun (mb, _, kb, _) ->
             (match mb_fixed with Some v -> mb = v | None -> true)
             && match kb_fixed with Some v -> kb = v | None -> true)
    in
    if tiles = [] then invalid_arg "no tiles";
    let mk ?(kpn = 1) (mpn, npn) (mb, nb, kb, bs) =
      { Params.m; n; k; batch; dtype; mpn; npn; kpn; mb; nb; kb; bs;
        loop_order = "msi,ksi,nsi"; read_plain = false }
    in
    let kpns = if batch > 1 || not allow_kslice then [ 1 ] else [ 1; 2; 4; 8 ] in
    let best = ref None in
    List.iter
      (fun grid ->
        List.iter
          (fun tile ->
            List.iter
              (fun kpn ->
                let p = mk ~kpn grid tile in
                let sensible =
                  (p.mpn <= Params.mblocks p || p.mpn = 1)
                  && (p.npn <= Params.nblocks p || p.npn = 1)
                  && (kpn = 1
                     || (Params.ksteps p >= 2 * kpn
                        && p.mpn * p.npn * kpn <= 2 * machine.Machine.cores
                        && p.mpn * p.npn < machine.Machine.cores))
                in
                if sensible then begin
                  let c = cost ~machine p in
                  match !best with
                  | Some (c0, _) when c0 <= c -> ()
                  | _ -> best := Some (c, p)
                end)
              kpns)
          tiles)
      grids;
    match !best with Some (_, p) -> p | None -> mk (List.hd grids) (List.hd tiles)
end

let prop_choose_matches_oracle =
  let machines =
    [ machine; Machine.test_machine ]
    @ List.map (fun cores -> { machine with Machine.cores }) [ 1; 2; 4; 8 ]
  in
  let gen =
    QCheck.Gen.(
      pair
        (quad (int_bound (List.length machines - 1)) (oneofl Dtype.[ F32; Bf16; U8; S8 ])
           (frequency [ (3, return 1); (1, int_range 2 16) ])
           (triple (int_range 1 600) (int_range 1 600) (int_range 1 600)))
        (triple (opt (oneofl [ 1; 2; 4; 6; 8; 12; 16; 32 ])) (opt (oneofl [ 16; 32; 64 ])) bool))
  in
  let print ((mi, dt, batch, (m, n, k)), (mbf, kbf, ks)) =
    let o = function Some v -> string_of_int v | None -> "-" in
    Printf.sprintf "machine %d %s batch %d %dx%dx%d mb_fixed %s kb_fixed %s kslice %b" mi
      (Dtype.to_string dt) batch m n k (o mbf) (o kbf) ks
  in
  QCheck.Test.make ~name:"choose picks what the per-candidate search picked" ~count:400
    (QCheck.make ~print gen)
    (fun ((mi, dtype, batch, (m, n, k)), (mb_fixed, kb_fixed, allow_kslice)) ->
      let machine = List.nth machines mi in
      let run f = match f () with p -> Ok p | exception Invalid_argument _ -> Error () in
      let got =
        run (fun () ->
            Heuristic.choose ~machine ~dtype ~batch ?mb_fixed ?kb_fixed ~allow_kslice ~m ~n ~k ())
      and want =
        run (fun () -> Oracle.choose ~machine ~dtype ~batch ?mb_fixed ?kb_fixed ~allow_kslice ~m ~n ~k ())
      in
      match (got, want) with
      | Ok p, Ok q ->
          p = q
          && Int64.equal
               (Int64.bits_of_float (Heuristic.cost ~machine p))
               (Int64.bits_of_float (Oracle.cost ~machine q))
      | Error (), Error () -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Anchors (Figure 3 formulas) *)

let fig3_params =
  {
    Params.m = 256; n = 512; k = 256; batch = 1; dtype = Dtype.F32;
    mpn = 4; npn = 4; kpn = 1; mb = 16; nb = 32; kb = 32; bs = 2;
    loop_order = "msi,ksi,nsi"; read_plain = false;
  }

let test_anchor_working_sets () =
  let p = fig3_params in
  let msn = Params.msn p and nsn = Params.nsn p and ksn = Params.kblocks p in
  (* pre#1 A: MSN*KSN*MB*KB *)
  Alcotest.(check int) "pre1 A" (msn * ksn * p.mb * p.kb)
    (Anchor.pre_working_set p A Pre1);
  (* pre#4 A: BS*MB*KB *)
  Alcotest.(check int) "pre4 A" (p.bs * p.mb * p.kb) (Anchor.pre_working_set p A Pre4);
  (* pre#5 B: BS*NB*KB (nsi fixes one n block) *)
  Alcotest.(check int) "pre5 B" (p.bs * p.nb * p.kb) (Anchor.pre_working_set p B Pre5);
  (* post#1: MB * NSBN *)
  Alcotest.(check int) "post1" (p.mb * (nsn * p.nb)) (Anchor.post_working_set p Post1);
  (* post#3: MSBN * N *)
  Alcotest.(check int) "post3" (msn * p.mb * Params.n_pad p) (Anchor.post_working_set p Post3)

let test_anchor_access_counts () =
  let p = fig3_params in
  let msn = Params.msn p and nsn = Params.nsn p in
  let ksteps = Params.ksteps p in
  Alcotest.(check int) "pre1 once" 1 (Anchor.pre_accesses p Pre1);
  Alcotest.(check int) "pre3 msn" msn (Anchor.pre_accesses p Pre3);
  Alcotest.(check int) "pre4" (msn * ksteps) (Anchor.pre_accesses p Pre4);
  Alcotest.(check int) "pre5" (msn * nsn * ksteps) (Anchor.pre_accesses p Pre5);
  Alcotest.(check int) "post1 msn" msn (Anchor.post_accesses p Post1);
  Alcotest.(check int) "post2 once" 1 (Anchor.post_accesses p Post2)

let test_anchor_a_total_4_vs_5 () =
  (* Figure 3: A's total accesses at anchor#5 are NSN x those at anchor#4 *)
  let p = fig3_params in
  Alcotest.(check int) "A total ratio"
    (Params.nsn p * Anchor.pre_total p A Pre4)
    (Anchor.pre_total p A Pre5)

let test_anchor_post1_cheapest_eltwise () =
  let a = Anchor.best_post ~machine fig3_params ~reduction:false in
  Alcotest.(check string) "post1 wins" "post#1" (Anchor.post_to_string a)

let test_anchor_reduction_forces_post3 () =
  let a = Anchor.best_post ~machine fig3_params ~reduction:true in
  Alcotest.(check string) "post3" "post#3" (Anchor.post_to_string a)

(* ------------------------------------------------------------------ *)
(* End-to-end template lowering *)

let run_fused_graph (fg : Fused_op.graph) bindings =
  let lowered = Lower_graph.lower fg in
  let engine = Engine.create ~pool lowered.module_ in
  (* fill globals from constant values *)
  List.iter
    (fun ((lt : Logical_tensor.t), (g : Gc_tensor_ir.Ir.tensor)) ->
      let value =
        match lt.property with
        | Compile_const v -> v
        | _ -> (
            match List.assoc_opt lt.id (List.map (fun ((l : Logical_tensor.t), v) -> (l.id, v)) bindings) with
            | Some v -> v
            | None -> Alcotest.failf "no value for global %s" lt.name)
      in
      Gc_tensor.Buffer.blit ~src:(Tensor.buffer value) ~dst:(Engine.global_buffer engine g))
    lowered.globals;
  (* entry buffers: inputs from bindings, outputs fresh *)
  let outs = ref [] in
  let bufs =
    List.map
      (fun ((lt : Logical_tensor.t), _) ->
        match List.assoc_opt lt.id (List.map (fun ((l : Logical_tensor.t), v) -> (l.id, v)) bindings) with
        | Some v -> Tensor.buffer v
        | None ->
            let t = Tensor.create ~layout:lt.layout lt.dtype lt.shape in
            outs := (lt.id, t) :: !outs;
            Tensor.buffer t)
      lowered.entry_params
  in
  Engine.run_entry engine (Array.of_list bufs);
  !outs

let mk_tunable_fused ?pre_a ?post_groups ~params tun ~inputs ~outputs =
  Fused_op.create ?pre_a ?post_groups ~tunable:tun ~params ~inputs ~outputs ()

let test_template_matmul_f32 () =
  (* odd sizes exercise padding and guards *)
  List.iter
    (fun (m, n, k) ->
      let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ m; k ]) in
      let b_lt = Logical_tensor.create ~name:"B" Dtype.F32 (sh [ k; n ]) in
      let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
          ~outputs:[ Logical_tensor.create ~name:"C" Dtype.F32 (sh [ m; n ]) ] in
      let c_lt = Op.output tun in
      let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~m ~n ~k () in
      let f = mk_tunable_fused ~params tun ~inputs:[ a_lt; b_lt ] ~outputs:[ c_lt ] in
      let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt ]; g_outputs = [ c_lt ]; init = None } in
      let a = Tensor.random ~seed:1 Dtype.F32 (sh [ m; k ]) in
      let b = Tensor.random ~seed:2 Dtype.F32 (sh [ k; n ]) in
      let outs = run_fused_graph fg [ (a_lt, a); (b_lt, b) ] in
      let got = List.assoc c_lt.id outs in
      let expect = Ref_ops.matmul a b in
      if not (Tensor.allclose ~rtol:1e-4 ~atol:1e-4 got expect) then
        Alcotest.failf "matmul %dx%dx%d mismatch: max diff %g" m n k
          (Tensor.max_abs_diff got expect))
    [ (4, 4, 4); (16, 16, 16); (13, 17, 29); (33, 65, 100); (64, 64, 64) ]

let test_template_matmul_int8 () =
  let m = 24 and n = 40 and k = 33 in
  let a_lt = Logical_tensor.create ~name:"A" Dtype.U8 (sh [ m; k ]) in
  let b_lt = Logical_tensor.create ~name:"B" Dtype.S8 (sh [ k; n ]) in
  let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
      ~outputs:[ Logical_tensor.create ~name:"C" Dtype.S32 (sh [ m; n ]) ] in
  let c_lt = Op.output tun in
  let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.U8 ~m ~n ~k () in
  let f = mk_tunable_fused ~params tun ~inputs:[ a_lt; b_lt ] ~outputs:[ c_lt ] in
  let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt ]; g_outputs = [ c_lt ]; init = None } in
  let a = Tensor.random ~seed:3 ~lo:0. ~hi:50. Dtype.U8 (sh [ m; k ]) in
  let b = Tensor.random ~seed:4 ~lo:(-50.) ~hi:50. Dtype.S8 (sh [ k; n ]) in
  let outs = run_fused_graph fg [ (a_lt, a); (b_lt, b) ] in
  let got = List.assoc c_lt.id outs in
  let expect = Ref_ops.matmul a b in
  Alcotest.(check bool) "exact int8" true (Tensor.equal got expect)

let test_template_matmul_relu_post_op () =
  let m = 20 and n = 30 and k = 15 in
  let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ m; k ]) in
  let b_lt = Logical_tensor.create ~name:"B" Dtype.F32 (sh [ k; n ]) in
  let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
      ~outputs:[ Logical_tensor.create ~name:"C0" Dtype.F32 (sh [ m; n ]) ] in
  let c0 = Op.output tun in
  let relu = Op.create Relu ~inputs:[ c0 ]
      ~outputs:[ Logical_tensor.create ~name:"C" Dtype.F32 (sh [ m; n ]) ] in
  let c = Op.output relu in
  let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~m ~n ~k () in
  let f =
    mk_tunable_fused ~params
      ~post_groups:[ { Fused_op.g_anchor = Post1; g_ops = [ relu ] } ]
      tun ~inputs:[ a_lt; b_lt ] ~outputs:[ c ]
  in
  let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt ]; g_outputs = [ c ]; init = None } in
  let a = Tensor.random ~seed:5 Dtype.F32 (sh [ m; k ]) in
  let b = Tensor.random ~seed:6 Dtype.F32 (sh [ k; n ]) in
  let outs = run_fused_graph fg [ (a_lt, a); (b_lt, b) ] in
  let got = List.assoc c.id outs in
  let expect = Ref_ops.relu (Ref_ops.matmul a b) in
  Alcotest.(check bool) "matmul+relu" true (Tensor.allclose ~rtol:1e-4 ~atol:1e-4 got expect)

let test_template_matmul_bias_post_op () =
  (* binary post-op with broadcast operand *)
  let m = 16 and n = 24 and k = 8 in
  let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ m; k ]) in
  let b_lt = Logical_tensor.create ~name:"B" Dtype.F32 (sh [ k; n ]) in
  let bias_lt = Logical_tensor.create ~name:"bias" Dtype.F32 (sh [ n ]) in
  let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
      ~outputs:[ Logical_tensor.create Dtype.F32 (sh [ m; n ]) ] in
  let c0 = Op.output tun in
  let addb = Op.create Add ~inputs:[ c0; bias_lt ]
      ~outputs:[ Logical_tensor.create ~name:"C" Dtype.F32 (sh [ m; n ]) ] in
  let c = Op.output addb in
  let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~m ~n ~k () in
  let f =
    mk_tunable_fused ~params
      ~post_groups:[ { Fused_op.g_anchor = Post1; g_ops = [ addb ] } ]
      tun ~inputs:[ a_lt; b_lt; bias_lt ] ~outputs:[ c ]
  in
  let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt; bias_lt ]; g_outputs = [ c ]; init = None } in
  let a = Tensor.random ~seed:7 Dtype.F32 (sh [ m; k ]) in
  let b = Tensor.random ~seed:8 Dtype.F32 (sh [ k; n ]) in
  let bias = Tensor.random ~seed:9 Dtype.F32 (sh [ n ]) in
  let outs = run_fused_graph fg [ (a_lt, a); (b_lt, b); (bias_lt, bias) ] in
  let got = List.assoc c.id outs in
  let expect = Ref_ops.add (Ref_ops.matmul a b) bias in
  Alcotest.(check bool) "matmul+bias" true (Tensor.allclose ~rtol:1e-4 ~atol:1e-4 got expect)

let test_template_blocked_weight_direct () =
  (* B prepacked in the template's blocked layout and marked runtime
     constant: the template reads it directly (no packing loops) *)
  let m = 32 and n = 32 and k = 32 in
  let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~m ~n ~k () in
  let b_layout = Params.b_layout params in
  let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ m; k ]) in
  let b_lt =
    Logical_tensor.create ~name:"B" ~layout:b_layout
      ~property:Logical_tensor.Runtime_const Dtype.F32 (sh [ k; n ])
  in
  let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
      ~outputs:[ Logical_tensor.create ~name:"C" Dtype.F32 (sh [ m; n ]) ] in
  let c_lt = Op.output tun in
  let f = mk_tunable_fused ~params tun ~inputs:[ a_lt; b_lt ] ~outputs:[ c_lt ] in
  let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt ]; g_outputs = [ c_lt ]; init = None } in
  let a = Tensor.random ~seed:10 Dtype.F32 (sh [ m; k ]) in
  let b_plain = Tensor.random ~seed:11 Dtype.F32 (sh [ k; n ]) in
  let b_packed = Reorder.to_layout b_plain b_layout in
  let outs = run_fused_graph fg [ (a_lt, a); (b_lt, b_packed) ] in
  let got = List.assoc c_lt.id outs in
  let expect = Ref_ops.matmul a b_plain in
  Alcotest.(check bool) "prepacked B" true (Tensor.allclose ~rtol:1e-4 ~atol:1e-4 got expect)

let test_template_batched_matmul () =
  let b = 3 and m = 8 and n = 12 and k = 10 in
  let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ b; m; k ]) in
  let b_lt = Logical_tensor.create ~name:"B" Dtype.F32 (sh [ b; k; n ]) in
  let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
      ~outputs:[ Logical_tensor.create ~name:"C" Dtype.F32 (sh [ b; m; n ]) ] in
  let c_lt = Op.output tun in
  let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~batch:b ~m ~n ~k () in
  let f = mk_tunable_fused ~params tun ~inputs:[ a_lt; b_lt ] ~outputs:[ c_lt ] in
  let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt ]; g_outputs = [ c_lt ]; init = None } in
  let a = Tensor.random ~seed:12 Dtype.F32 (sh [ b; m; k ]) in
  let bt = Tensor.random ~seed:13 Dtype.F32 (sh [ b; k; n ]) in
  let outs = run_fused_graph fg [ (a_lt, a); (b_lt, bt) ] in
  let got = List.assoc c_lt.id outs in
  let expect = Ref_ops.matmul a bt in
  Alcotest.(check bool) "batched" true (Tensor.allclose ~rtol:1e-4 ~atol:1e-4 got expect)

let test_template_batched_transpose_b () =
  (* the QK^T case: B is [batch, n, k] with transpose_b *)
  let b = 2 and m = 6 and n = 9 and k = 7 in
  let a_lt = Logical_tensor.create ~name:"Q" Dtype.F32 (sh [ b; m; k ]) in
  let b_lt = Logical_tensor.create ~name:"K" Dtype.F32 (sh [ b; n; k ]) in
  let attrs = Attrs.of_list [ ("transpose_b", Attrs.Bool true) ] in
  let tun = Op.create Matmul ~attrs ~inputs:[ a_lt; b_lt ]
      ~outputs:[ Logical_tensor.create ~name:"S" Dtype.F32 (sh [ b; m; n ]) ] in
  let c_lt = Op.output tun in
  let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~batch:b ~m ~n ~k () in
  let f = mk_tunable_fused ~params tun ~inputs:[ a_lt; b_lt ] ~outputs:[ c_lt ] in
  let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt ]; g_outputs = [ c_lt ]; init = None } in
  let q = Tensor.random ~seed:14 Dtype.F32 (sh [ b; m; k ]) in
  let kt = Tensor.random ~seed:15 Dtype.F32 (sh [ b; n; k ]) in
  let outs = run_fused_graph fg [ (a_lt, q); (b_lt, kt) ] in
  let got = List.assoc c_lt.id outs in
  let expect = Ref_ops.matmul q (Reorder.transpose kt [| 0; 2; 1 |]) in
  Alcotest.(check bool) "transpose_b" true (Tensor.allclose ~rtol:1e-4 ~atol:1e-4 got expect)

let test_template_batched_softmax_fusion () =
  (* the MHA headline: batch matmul with a decomposed softmax fused as
     post-op groups (reduce_max; sub; exp; reduce_sum; div) at post#3 *)
  let b = 2 and m = 6 and n = 8 and k = 5 in
  let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ b; m; k ]) in
  let b_lt = Logical_tensor.create ~name:"B" Dtype.F32 (sh [ b; k; n ]) in
  let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
      ~outputs:[ Logical_tensor.create ~name:"S" Dtype.F32 (sh [ b; m; n ]) ] in
  let s = Op.output tun in
  let rattrs = Attrs.of_list [ ("axis", Attrs.Int 2); ("keepdims", Attrs.Bool true) ] in
  let rmax = Op.create (Reduce Max) ~attrs:rattrs ~inputs:[ s ]
      ~outputs:[ Logical_tensor.create ~name:"rmax" Dtype.F32 (sh [ b; m; 1 ]) ] in
  let subd = Op.create Sub ~inputs:[ s; Op.output rmax ]
      ~outputs:[ Logical_tensor.create Dtype.F32 (sh [ b; m; n ]) ] in
  let expd = Op.create Exp ~inputs:[ Op.output subd ]
      ~outputs:[ Logical_tensor.create Dtype.F32 (sh [ b; m; n ]) ] in
  let rsum = Op.create (Reduce Sum) ~attrs:rattrs ~inputs:[ Op.output expd ]
      ~outputs:[ Logical_tensor.create ~name:"rsum" Dtype.F32 (sh [ b; m; 1 ]) ] in
  let divd = Op.create Div ~inputs:[ Op.output expd; Op.output rsum ]
      ~outputs:[ Logical_tensor.create ~name:"P" Dtype.F32 (sh [ b; m; n ]) ] in
  let p_out = Op.output divd in
  let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~batch:b ~m ~n ~k () in
  let f =
    mk_tunable_fused ~params
      ~post_groups:
        [ { Fused_op.g_anchor = Post3; g_ops = [ rmax; subd; expd; rsum; divd ] } ]
      tun ~inputs:[ a_lt; b_lt ] ~outputs:[ p_out ]
  in
  let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt ]; g_outputs = [ p_out ]; init = None } in
  let a = Tensor.random ~seed:16 Dtype.F32 (sh [ b; m; k ]) in
  let bt = Tensor.random ~seed:17 Dtype.F32 (sh [ b; k; n ]) in
  let outs = run_fused_graph fg [ (a_lt, a); (b_lt, bt) ] in
  let got = List.assoc p_out.id outs in
  let expect = Ref_ops.softmax ~axis:2 (Ref_ops.matmul a bt) in
  if not (Tensor.allclose ~rtol:1e-4 ~atol:1e-5 got expect) then
    Alcotest.failf "softmax fusion mismatch: max diff %g" (Tensor.max_abs_diff got expect)

(* Unop nodes of kind [op] anywhere in a module *)
let count_unop op (m : Gc_tensor_ir.Ir.module_) =
  List.fold_left
    (fun n (f : Gc_tensor_ir.Ir.func) ->
      Gc_tensor_ir.Visit.fold_stmts
        ~expr:(fun n e ->
          match e with Gc_tensor_ir.Ir.Unop (o, _) when o = op -> n + 1 | _ -> n)
        n f.body)
    0 m.funcs

let test_mha_softmax_one_exp_per_softmax () =
  (* anchor #3 persists each eltwise result once and the reduction reads
     the persisted value, so the optimized module computes every exp once:
     one Exp node per softmax of the graph *)
  let built = Gc_workloads.Mha.build_f32 ~batch:2 ~seq:16 ~hidden:64 ~heads:4 () in
  let softmaxes =
    List.length
      (List.filter (fun (op : Op.t) -> op.kind = Softmax) built.graph.ops)
  in
  Alcotest.(check bool) "graph has a softmax" true (softmaxes > 0);
  let c = Core.compile ~config:(Core.default_config ~machine ()) built.graph in
  Alcotest.(check int) "one exp per softmax" softmaxes
    (count_unop Gc_tensor_ir.Ir.Exp (Core.tir_module c))

let test_template_layernorm_post3_segments () =
  (* a decomposed layernorm at post#3 of a batched matmul: three anchor-3
     segments (mean | sub, square, mean | add eps, sqrt, rcp, scale,
     shift). The deviation feeds the square twice and the sqrt feeds the
     rest of the chain, yet each appears once in the lowered code. *)
  let b = 2 and m = 5 and n = 12 and k = 7 in
  let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ b; m; k ]) in
  let b_lt = Logical_tensor.create ~name:"B" Dtype.F32 (sh [ b; k; n ]) in
  let g_lt = Logical_tensor.create ~name:"gamma" Dtype.F32 (sh [ n ]) in
  let be_lt = Logical_tensor.create ~name:"beta" Dtype.F32 (sh [ n ]) in
  let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
      ~outputs:[ Logical_tensor.create ~name:"S" Dtype.F32 (sh [ b; m; n ]) ] in
  let ln =
    Op.create Layernorm
      ~attrs:(Attrs.of_list [ ("epsilon", Attrs.Float 1e-5) ])
      ~inputs:[ Op.output tun; g_lt; be_lt ]
      ~outputs:[ Logical_tensor.create ~name:"Y" Dtype.F32 (sh [ b; m; n ]) ]
  in
  let y = Op.output ln in
  let ops = Gc_graph_passes.Decompose.decompose_op ln in
  let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~batch:b ~m ~n ~k () in
  let f =
    mk_tunable_fused ~params
      ~post_groups:[ { Fused_op.g_anchor = Post3; g_ops = ops } ]
      tun ~inputs:[ a_lt; b_lt; g_lt; be_lt ] ~outputs:[ y ]
  in
  let fg =
    { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt; g_lt; be_lt ]; g_outputs = [ y ];
      init = None }
  in
  let lowered = Lower_graph.lower fg in
  Alcotest.(check int) "one sqrt" 1 (count_unop Gc_tensor_ir.Ir.Sqrt lowered.module_);
  Alcotest.(check int) "one rcp" 1 (count_unop Gc_tensor_ir.Ir.Rcp lowered.module_);
  let a = Tensor.random ~seed:21 Dtype.F32 (sh [ b; m; k ]) in
  let bt = Tensor.random ~seed:22 Dtype.F32 (sh [ b; k; n ]) in
  let g = Tensor.random ~seed:23 Dtype.F32 (sh [ n ]) in
  let be = Tensor.random ~seed:24 Dtype.F32 (sh [ n ]) in
  let outs = run_fused_graph fg [ (a_lt, a); (b_lt, bt); (g_lt, g); (be_lt, be) ] in
  let got = List.assoc y.id outs in
  let expect =
    List.hd (Reference.eval_op ln ~inputs:[ Ref_ops.matmul a bt; g; be ])
  in
  if not (Tensor.allclose ~rtol:1e-4 ~atol:1e-5 got expect) then
    Alcotest.failf "layernorm post#3 mismatch: max diff %g" (Tensor.max_abs_diff got expect)

let test_fusible_group_lowering () =
  (* a standalone eltwise chain with a reduction, no tunable op *)
  let x_lt = Logical_tensor.create ~name:"x" Dtype.F32 (sh [ 4; 6 ]) in
  let r = Op.create Relu ~inputs:[ x_lt ]
      ~outputs:[ Logical_tensor.create Dtype.F32 (sh [ 4; 6 ]) ] in
  let e = Op.create Exp ~inputs:[ Op.output r ]
      ~outputs:[ Logical_tensor.create Dtype.F32 (sh [ 4; 6 ]) ] in
  let red = Op.create (Reduce Sum)
      ~attrs:(Attrs.of_list [ ("axis", Attrs.Int 1); ("keepdims", Attrs.Bool false) ])
      ~inputs:[ Op.output e ]
      ~outputs:[ Logical_tensor.create ~name:"y" Dtype.F32 (sh [ 4 ]) ] in
  let y = Op.output red in
  let f =
    Fused_op.create
      ~post_groups:[ { Fused_op.g_anchor = Post3; g_ops = [ r; e; red ] } ]
      ~inputs:[ x_lt ] ~outputs:[ y ] ()
  in
  let fg = { Fused_op.fused = [ f ]; g_inputs = [ x_lt ]; g_outputs = [ y ]; init = None } in
  let x = Tensor.random ~seed:18 Dtype.F32 (sh [ 4; 6 ]) in
  let outs = run_fused_graph fg [ (x_lt, x) ] in
  let got = List.assoc y.id outs in
  let expect = Ref_ops.reduce Sum ~axis:1 ~keepdims:false (Ref_ops.exp (Ref_ops.relu x)) in
  Alcotest.(check bool) "fusible group" true (Tensor.allclose ~rtol:1e-5 ~atol:1e-6 got expect)

let test_two_fused_ops_pipeline () =
  (* entry function chains two fused matmuls through an intermediate *)
  let m = 16 and k1 = 12 and k2 = 20 and n = 8 in
  let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ m; k1 ]) in
  let w1_lt = Logical_tensor.create ~name:"W1" Dtype.F32 (sh [ k1; k2 ]) in
  let w2_lt = Logical_tensor.create ~name:"W2" Dtype.F32 (sh [ k2; n ]) in
  let mm1 = Op.create Matmul ~inputs:[ a_lt; w1_lt ]
      ~outputs:[ Logical_tensor.create ~name:"H" Dtype.F32 (sh [ m; k2 ]) ] in
  let h = Op.output mm1 in
  let mm2 = Op.create Matmul ~inputs:[ h; w2_lt ]
      ~outputs:[ Logical_tensor.create ~name:"C" Dtype.F32 (sh [ m; n ]) ] in
  let c = Op.output mm2 in
  let params1 = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~m ~n:k2 ~k:k1 () in
  let params2 = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~m ~n ~k:k2 () in
  let f1 = mk_tunable_fused ~params:params1 mm1 ~inputs:[ a_lt; w1_lt ] ~outputs:[ h ] in
  let f2 = mk_tunable_fused ~params:params2 mm2 ~inputs:[ h; w2_lt ] ~outputs:[ c ] in
  let fg = { Fused_op.fused = [ f1; f2 ]; g_inputs = [ a_lt; w1_lt; w2_lt ]; g_outputs = [ c ]; init = None } in
  let a = Tensor.random ~seed:19 Dtype.F32 (sh [ m; k1 ]) in
  let w1 = Tensor.random ~seed:20 Dtype.F32 (sh [ k1; k2 ]) in
  let w2 = Tensor.random ~seed:21 Dtype.F32 (sh [ k2; n ]) in
  let outs = run_fused_graph fg [ (a_lt, a); (w1_lt, w1); (w2_lt, w2) ] in
  let got = List.assoc c.id outs in
  let expect = Ref_ops.matmul (Ref_ops.matmul a w1) w2 in
  Alcotest.(check bool) "pipeline" true (Tensor.allclose ~rtol:1e-4 ~atol:1e-4 got expect)

let test_template_ksliced () =
  (* the k-slicing variant: skinny m x n with deep k; force kpn > 1 and
     compare against the reference, with and without a post-op chain *)
  List.iter
    (fun (m, n, k, relu) ->
      let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ m; k ]) in
      let b_lt = Logical_tensor.create ~name:"B" Dtype.F32 (sh [ k; n ]) in
      let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
          ~outputs:[ Logical_tensor.create Dtype.F32 (sh [ m; n ]) ] in
      let c0 = Op.output tun in
      let last, post_groups =
        if relu then begin
          let r = Op.create Relu ~inputs:[ c0 ]
              ~outputs:[ Logical_tensor.create ~name:"C" Dtype.F32 (sh [ m; n ]) ] in
          (Op.output r, [ { Fused_op.g_anchor = Post1; g_ops = [ r ] } ])
        end
        else (c0, [])
      in
      let base = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~m ~n ~k () in
      let params = { base with Params.kpn = 4; mpn = 1; npn = 1 } in
      let f = Fused_op.create ~tunable:tun ~post_groups ~params
          ~inputs:[ a_lt; b_lt ] ~outputs:[ last ] () in
      let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt ]; g_outputs = [ last ]; init = None } in
      let a = Tensor.random ~seed:41 Dtype.F32 (sh [ m; k ]) in
      let b = Tensor.random ~seed:42 Dtype.F32 (sh [ k; n ]) in
      let outs = run_fused_graph fg [ (a_lt, a); (b_lt, b) ] in
      let got = List.assoc last.id outs in
      let expect = Ref_ops.matmul a b in
      let expect = if relu then Ref_ops.relu expect else expect in
      if not (Tensor.allclose ~rtol:1e-4 ~atol:1e-4 got expect) then
        Alcotest.failf "ksliced %dx%dx%d relu=%b: max diff %g" m n k relu
          (Tensor.max_abs_diff got expect))
    [ (4, 8, 128, false); (4, 8, 128, true); (7, 5, 100, true); (16, 16, 64, false) ]

let test_heuristic_picks_kslicing_for_skinny () =
  (* one sample, deep reduction, 32 cores: the m/n grid cannot occupy the
     machine, so the heuristic should slice k *)
  let p = Heuristic.choose ~machine ~dtype:Dtype.F32 ~m:1 ~n:16 ~k:4096 () in
  Alcotest.(check bool) "kpn > 1" true (p.kpn > 1)

let prop_template_matches_reference =
  QCheck.Test.make ~name:"template matmul matches reference on random sizes"
    ~count:15
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 40) (int_range 1 40) (int_range 1 40)))
    (fun (m, n, k) ->
      let a_lt = Logical_tensor.create ~name:"A" Dtype.F32 (sh [ m; k ]) in
      let b_lt = Logical_tensor.create ~name:"B" Dtype.F32 (sh [ k; n ]) in
      let tun = Op.create Matmul ~inputs:[ a_lt; b_lt ]
          ~outputs:[ Logical_tensor.create ~name:"C" Dtype.F32 (sh [ m; n ]) ] in
      let c_lt = Op.output tun in
      let params = Heuristic.choose ~machine:Machine.test_machine ~dtype:Dtype.F32 ~m ~n ~k () in
      let f = mk_tunable_fused ~params tun ~inputs:[ a_lt; b_lt ] ~outputs:[ c_lt ] in
      let fg = { Fused_op.fused = [ f ]; g_inputs = [ a_lt; b_lt ]; g_outputs = [ c_lt ]; init = None } in
      let a = Tensor.random ~seed:(m + n) Dtype.F32 (sh [ m; k ]) in
      let b = Tensor.random ~seed:(n + k) Dtype.F32 (sh [ k; n ]) in
      let outs = run_fused_graph fg [ (a_lt, a); (b_lt, b) ] in
      let got = List.assoc c_lt.id outs in
      Tensor.allclose ~rtol:1e-4 ~atol:1e-4 got (Ref_ops.matmul a b))

let () =
  Alcotest.run "gc_lowering"
    [
      ( "params",
        [
          Alcotest.test_case "derived" `Quick test_params_derived;
          Alcotest.test_case "padding" `Quick test_params_padding;
        ] );
      ( "heuristic",
        [
          Alcotest.test_case "basic" `Quick test_heuristic_basic;
          Alcotest.test_case "batched" `Quick test_heuristic_batched;
          Alcotest.test_case "small problem" `Quick test_heuristic_small_problem;
          Alcotest.test_case "force" `Quick test_heuristic_force;
          Alcotest.test_case "padding penalty" `Quick test_heuristic_cost_padding_penalty;
          Alcotest.test_case "int8 cheaper" `Quick test_heuristic_int8_cheaper;
          QCheck_alcotest.to_alcotest prop_choose_matches_oracle;
        ] );
      ( "anchors",
        [
          Alcotest.test_case "working sets" `Quick test_anchor_working_sets;
          Alcotest.test_case "access counts" `Quick test_anchor_access_counts;
          Alcotest.test_case "A total #4 vs #5" `Quick test_anchor_a_total_4_vs_5;
          Alcotest.test_case "post1 cheapest" `Quick test_anchor_post1_cheapest_eltwise;
          Alcotest.test_case "reduction forces post3" `Quick test_anchor_reduction_forces_post3;
        ] );
      ( "template",
        [
          Alcotest.test_case "matmul f32 sizes" `Quick test_template_matmul_f32;
          Alcotest.test_case "matmul int8 exact" `Quick test_template_matmul_int8;
          Alcotest.test_case "matmul+relu" `Quick test_template_matmul_relu_post_op;
          Alcotest.test_case "matmul+bias" `Quick test_template_matmul_bias_post_op;
          Alcotest.test_case "prepacked B direct" `Quick test_template_blocked_weight_direct;
          Alcotest.test_case "batched" `Quick test_template_batched_matmul;
          Alcotest.test_case "transpose_b" `Quick test_template_batched_transpose_b;
          Alcotest.test_case "softmax post fusion" `Quick test_template_batched_softmax_fusion;
          Alcotest.test_case "one exp per softmax" `Quick test_mha_softmax_one_exp_per_softmax;
          Alcotest.test_case "layernorm post#3 segments" `Quick
            test_template_layernorm_post3_segments;
          Alcotest.test_case "fusible group" `Quick test_fusible_group_lowering;
          Alcotest.test_case "two fused ops" `Quick test_two_fused_ops_pipeline;
          Alcotest.test_case "k-sliced template" `Quick test_template_ksliced;
          Alcotest.test_case "heuristic k-slices skinny" `Quick test_heuristic_picks_kslicing_for_skinny;
          QCheck_alcotest.to_alcotest prop_template_matches_reference;
        ] );
    ]
