open Gc_tensor

type env = (int * Tensor.t) list

let reduce_kind_of (k : Op_kind.reduce_kind) : Ref_ops.reduce_kind =
  match k with Sum -> Sum | Max -> Max | Min -> Min | Mean -> Mean

let eval_op (op : Op.t) ~inputs =
  let out_lt = Op.output op in
  let attrs = op.attrs in
  let value =
    match (op.kind, inputs) with
    | Op_kind.Matmul, [ a; b ] ->
        let b =
          if Option.value (Attrs.get_bool attrs "transpose_b") ~default:false
          then
            let rank = Shape.rank (Tensor.shape b) in
            let perm = Array.init rank Fun.id in
            perm.(rank - 2) <- rank - 1;
            perm.(rank - 1) <- rank - 2;
            Reorder.transpose b perm
          else b
        in
        Ref_ops.matmul ~out_dtype:out_lt.Logical_tensor.dtype a b
    | Conv2d, [ x; w ] -> (
        match Infer.conv_attrs attrs with
        | Error e -> invalid_arg ("Reference.eval_op: " ^ e)
        | Ok (strides, pads, dilations) ->
            Ref_ops.conv2d ~out_dtype:out_lt.Logical_tensor.dtype ~strides
              ~pads ~dilations x w)
    | Reshape, [ a ] ->
        Reorder.reshape a (Shape.of_list (Attrs.ints_exn attrs "shape"))
    | Gather, [ data; indices ] ->
        let dshape = Tensor.shape data in
        let drank = Shape.rank dshape in
        let irank = Shape.rank (Tensor.shape indices) in
        let rows = Shape.dim dshape 0 in
        Tensor.init (Tensor.dtype data) out_lt.shape (fun idx ->
            let row = int_of_float (Tensor.get indices (Array.sub idx 0 irank)) in
            if row < 0 || row >= rows then
              invalid_arg
                (Printf.sprintf "Reference.eval_op: gather index %d out of [0,%d)"
                   row rows);
            let didx = Array.make drank 0 in
            didx.(0) <- row;
            Array.blit idx irank didx 1 (drank - 1);
            Tensor.get data didx)
    | Add, [ a; b ] -> Ref_ops.add a b
    | Sub, [ a; b ] -> Ref_ops.sub a b
    | Mul, [ a; b ] -> Ref_ops.mul a b
    | Div, [ a; b ] -> Ref_ops.div a b
    | Maximum, [ a; b ] -> Ref_ops.max a b
    | Minimum, [ a; b ] -> Ref_ops.min a b
    | Relu, [ a ] -> Ref_ops.relu a
    | Exp, [ a ] -> Ref_ops.exp a
    | Tanh, [ a ] -> Ref_ops.tanh a
    | Sqrt, [ a ] -> Ref_ops.sqrt a
    | Neg, [ a ] -> Ref_ops.neg a
    | Abs, [ a ] -> Ref_ops.abs a
    | Reciprocal, [ a ] -> Ref_ops.reciprocal a
    | Round, [ a ] -> Ref_ops.round a
    | Clip, [ a ] ->
        Ref_ops.clip ~lo:(Attrs.float_exn attrs "lo")
          ~hi:(Attrs.float_exn attrs "hi") a
    | Cast, [ a ] -> Reorder.cast ~name:out_lt.name a out_lt.dtype
    | Reorder, [ a ] -> Reorder.to_layout ~name:out_lt.name a out_lt.layout
    | Transpose, [ a ] ->
        Reorder.transpose a (Array.of_list (Attrs.ints_exn attrs "perm"))
    | Broadcast, [ a ] -> Reorder.broadcast a out_lt.shape
    | Reduce k, [ a ] ->
        Ref_ops.reduce (reduce_kind_of k)
          ~axis:(Attrs.int_exn attrs "axis")
          ~keepdims:(Option.value (Attrs.get_bool attrs "keepdims") ~default:false)
          a
    | Gelu, [ a ] ->
        if Option.value (Attrs.get_bool attrs "approximate") ~default:true then
          Ref_ops.gelu_tanh a
        else Ref_ops.gelu_erf a
    | Sigmoid, [ a ] -> Ref_ops.sigmoid a
    | Softmax, [ a ] -> Ref_ops.softmax ~axis:(Attrs.int_exn attrs "axis") a
    | Batchnorm_inference, [ x; gamma; beta; mean; variance ] ->
        let eps = Attrs.float_exn attrs "epsilon" in
        let invstd =
          Ref_ops.map (fun v -> 1. /. Stdlib.sqrt (v +. eps)) variance
        in
        Ref_ops.add (Ref_ops.mul (Ref_ops.sub x mean) (Ref_ops.mul invstd gamma)) beta
    | Layernorm, [ x; gamma; beta ] ->
        let eps = Attrs.float_exn attrs "epsilon" in
        let axis = Shape.rank (Tensor.shape x) - 1 in
        let mean = Ref_ops.reduce Mean ~axis ~keepdims:true x in
        let xc = Ref_ops.sub x mean in
        let var = Ref_ops.reduce Mean ~axis ~keepdims:true (Ref_ops.mul xc xc) in
        let rstd = Ref_ops.map (fun v -> 1. /. Stdlib.sqrt (v +. eps)) var in
        Ref_ops.add (Ref_ops.mul (Ref_ops.mul xc rstd) gamma) beta
    | Bias_add, [ x; bias ] -> Ref_ops.add x bias
    | Quantize, [ a ] ->
        Ref_ops.quantize
          ~scale:(Attrs.float_exn attrs "scale")
          ~zp:(Attrs.int_exn attrs "zp")
          out_lt.dtype a
    | Dequantize, [ a ] ->
        Ref_ops.dequantize
          ~scale:(Attrs.float_exn attrs "scale")
          ~zp:(Attrs.int_exn attrs "zp")
          a
    | k, inputs ->
        invalid_arg
          (Printf.sprintf "Reference.eval_op: %s with %d inputs"
             (Op_kind.to_string k) (List.length inputs))
  in
  (* coerce to the declared output dtype (e.g. matmul s32 accumulators) *)
  let value =
    if Dtype.equal (Tensor.dtype value) out_lt.dtype then value
    else Reorder.cast value out_lt.dtype
  in
  [ value ]

let eval_tensors (g : Graph.t) bindings =
  let env : (int, Tensor.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((lt : Logical_tensor.t), v) ->
      if not (Shape.equal lt.shape (Tensor.shape v)) then
        invalid_arg
          (Printf.sprintf "Reference.run: binding for %s has shape %s, want %s"
             lt.name
             (Shape.to_string (Tensor.shape v))
             (Shape.to_string lt.shape));
      if not (Dtype.equal lt.dtype (Tensor.dtype v)) then
        invalid_arg
          (Printf.sprintf "Reference.run: binding for %s has dtype %s, want %s"
             lt.name
             (Dtype.to_string (Tensor.dtype v))
             (Dtype.to_string lt.dtype));
      Hashtbl.replace env lt.id v)
    bindings;
  List.iter
    (fun (lt : Logical_tensor.t) ->
      match Logical_tensor.const_value lt with
      | Some v when not (Hashtbl.mem env lt.id) -> Hashtbl.replace env lt.id v
      | _ -> ())
    (Graph.all_tensors g);
  let sorted =
    match Graph.topo_sort g with
    | Ok g -> g.ops
    | Error e -> invalid_arg ("Reference.run: " ^ e)
  in
  List.iter
    (fun (op : Op.t) ->
      let inputs =
        List.map
          (fun (i : Logical_tensor.t) ->
            match Hashtbl.find_opt env i.id with
            | Some v -> v
            | None ->
                invalid_arg
                  (Printf.sprintf "Reference.run: missing input %s for op %s"
                     i.name op.name))
          op.inputs
      in
      let outputs = eval_op op ~inputs in
      List.iter2
        (fun (o : Logical_tensor.t) v -> Hashtbl.replace env o.id v)
        op.outputs outputs)
    sorted;
  Hashtbl.fold (fun id v acc -> (id, v) :: acc) env []

let run g bindings =
  let env = eval_tensors g bindings in
  List.map
    (fun (o : Logical_tensor.t) ->
      match List.assoc_opt o.id env with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Reference.run: output %s was not produced" o.name))
    g.Graph.outputs
