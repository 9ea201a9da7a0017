open Gc_tensor
open Gc_microkernel
open Gc_lowering

let config ?machine () =
  {
    Core.graph = Gc_graph_passes.Pipeline.onednn_primitives ?machine ();
    tir = Gc_tir_passes.Tir_pipeline.default;
    pool = None;
  }

(* library-call overhead of one primitive invocation beyond a direct call
   (argument validation, descriptor lookup, scratchpad management) *)
let primitive_dispatch_cycles = 2_000.
let tail_penalty = 1.03

let figure7_costs ~machine ~dtype ~m ~n ~k () =
  let variant = match (dtype : Dtype.t) with S8 | U8 -> `Int8 | _ -> `F32 in
  let built = Gc_workloads.Mlp.build_single_matmul ~dtype:variant ~m ~n ~k () in
  let compiled = Core.compile built.graph in
  let r =
    Gc_perfsim.Sim.cost_module ~machine ~api_per_call:false
      (Core.tir_module compiled)
  in
  (* the kernel proper, shared by both sides: compiler and primitive
     near-parity on the same expert substrate, as in the paper *)
  let kernel = r.Gc_perfsim.Sim.cycles -. r.Gc_perfsim.Sim.api_cycles in
  let p = Heuristic.choose ~machine ~dtype ~m ~n ~k () in
  let frac =
    float_of_int (m * n * k)
    /. float_of_int (Params.m_pad p * Params.n_pad p * Params.k_pad p)
  in
  let gc = kernel +. machine.Machine.api_call_cycles in
  let prim =
    (kernel *. frac *. tail_penalty)
    +. machine.Machine.api_call_cycles +. primitive_dispatch_cycles
  in
  (gc, prim)

let primitive_matmul_cost ~machine ~dtype ?(batch = 1) ~m ~n ~k () =
  let p = Heuristic.choose ~machine ~dtype ~batch ~m ~n ~k () in
  let padded = Heuristic.cost ~machine p in
  (* The expert-tuned kernel handles ragged tails with dedicated remainder
     code instead of padding: it does only the true work, at a small
     efficiency penalty on the tail iterations. *)
  let frac =
    float_of_int (m * n * k)
    /. float_of_int (Params.m_pad p * Params.n_pad p * Params.k_pad p)
  in
  let tail_penalty = if frac < 1. then 1.03 else 1. in
  (padded *. frac *. tail_penalty) +. machine.Machine.api_call_cycles

module Matmul_primitive = struct
  type post_op = Relu | Bias of Tensor.t | Binary_add of Tensor.t

  type t = {
    compiled : Core.t;
    x_lt : Core.Logical_tensor.t;
    w_lt : Core.Logical_tensor.t;
    extra : (Core.Logical_tensor.t * Tensor.t) list;
    mutable bound_weights : Tensor.t option;
  }

  let create ?machine ~dtype ~m ~n ~k ?(post_ops = []) () =
    let module B = Core.Builder in
    let sh = Shape.of_list in
    let b = B.create () in
    let int8 = match (dtype : Dtype.t) with S8 | U8 -> true | _ -> false in
    let x_lt = B.input b ~name:"src" dtype (sh [ m; k ]) in
    let w_dtype : Dtype.t = if int8 then S8 else dtype in
    let w_lt = B.input b ~name:"weights" ~const:true w_dtype (sh [ k; n ]) in
    let xf = if int8 then B.dequantize b ~scale:0.05 ~zp:0 x_lt else x_lt in
    let wf = if int8 then B.dequantize b ~scale:0.02 ~zp:0 w_lt else w_lt in
    let y = B.matmul b xf wf in
    let extra = ref [] in
    let y =
      List.fold_left
        (fun y post ->
          match post with
          | Relu -> B.relu b y
          | Bias bias ->
              let lt = B.input b ~name:"bias" (Tensor.dtype bias) (Tensor.shape bias) in
              extra := (lt, bias) :: !extra;
              B.add b y lt
          | Binary_add operand ->
              let lt =
                B.input b ~name:"operand" (Tensor.dtype operand) (Tensor.shape operand)
              in
              extra := (lt, operand) :: !extra;
              B.add b y lt)
        y post_ops
    in
    let g = B.finalize b ~outputs:[ y ] in
    let compiled = Core.compile ~config:(config ?machine ()) g in
    { compiled; x_lt; w_lt; extra = !extra; bound_weights = None }

  let execute t ~src ~weights =
    (match t.bound_weights with
    | Some w when w == weights -> ()
    | _ ->
        Core.invalidate_constants t.compiled;
        t.bound_weights <- Some weights);
    match
      Core.execute t.compiled
        ([ (t.x_lt, src); (t.w_lt, weights) ] @ t.extra)
    with
    | [ out ] -> out
    | _ -> assert false
end
