(* [f] of every element of [t] into a fresh plain [dtype] tensor. *)
let map_to dtype f t =
  let out = Tensor.create dtype (Tensor.shape t) in
  let src = Tensor.buffer t and dst = Tensor.buffer out in
  Walk.iter2 (Tensor.shape t) (Tensor.axis_offsets t) (Tensor.axis_offsets out)
    (fun i j -> Buffer.unsafe_set dst j (f (Buffer.unsafe_get src i)));
  out

let map f t = map_to (Tensor.dtype t) f t

let relu = map (fun x -> Float.max x 0.)
let exp = map Stdlib.exp
let tanh = map Stdlib.tanh
let sqrt = map Stdlib.sqrt
let neg = map (fun x -> -.x)
let abs = map Float.abs
let sigmoid = map (fun x -> 1. /. (1. +. Stdlib.exp (-.x)))

let gelu_erf_scalar x =
  (* erf via Abramowitz & Stegun 7.1.26, |eps| <= 1.5e-7 *)
  let erf z =
    let sign = if z < 0. then -1. else 1. in
    let z = Float.abs z in
    let t = 1. /. (1. +. (0.3275911 *. z)) in
    let a1 = 0.254829592
    and a2 = -0.284496736
    and a3 = 1.421413741
    and a4 = -1.453152027
    and a5 = 1.061405429 in
    let poly = ((((((((a5 *. t) +. a4) *. t) +. a3) *. t) +. a2) *. t) +. a1) *. t in
    sign *. (1. -. (poly *. Stdlib.exp (-.(z *. z))))
  in
  0.5 *. x *. (1. +. erf (x /. Stdlib.sqrt 2.))

let gelu_erf = map gelu_erf_scalar

let gelu_tanh_scalar x =
  let c = Stdlib.sqrt (2. /. Float.pi) in
  0.5 *. x *. (1. +. Stdlib.tanh (c *. (x +. (0.044715 *. x *. x *. x))))

let gelu_tanh = map gelu_tanh_scalar
let reciprocal = map (fun x -> 1. /. x)
let round = map Float.round
let clip ~lo ~hi = map (fun x -> Float.max lo (Float.min hi x))

let map2 f a b =
  match Shape.broadcast (Tensor.shape a) (Tensor.shape b) with
  | None ->
      invalid_arg
        (Printf.sprintf "Ref_ops.map2: shapes %s and %s do not broadcast"
           (Shape.to_string (Tensor.shape a))
           (Shape.to_string (Tensor.shape b)))
  | Some out_shape ->
      let dt =
        (* wider dtype wins; floats beat ints *)
        let da = Tensor.dtype a and db = Tensor.dtype b in
        if Dtype.equal da db then da
        else if Dtype.is_float da && not (Dtype.is_float db) then da
        else if Dtype.is_float db && not (Dtype.is_float da) then db
        else if Dtype.size_bytes da >= Dtype.size_bytes db then da
        else db
      in
      let out = Tensor.create dt out_shape in
      let ba = Tensor.buffer a and bb = Tensor.buffer b in
      let dst = Tensor.buffer out in
      Walk.iter3 out_shape
        (Walk.broadcast (Tensor.axis_offsets a) ~from:(Tensor.shape a) out_shape)
        (Walk.broadcast (Tensor.axis_offsets b) ~from:(Tensor.shape b) out_shape)
        (Tensor.axis_offsets out)
        (fun i j o ->
          Buffer.unsafe_set dst o
            (f (Buffer.unsafe_get ba i) (Buffer.unsafe_get bb j)));
      out

let add = map2 ( +. )
let sub = map2 ( -. )
let mul = map2 ( *. )
let div = map2 ( /. )
let max = map2 Float.max
let min = map2 Float.min

type reduce_kind = Sum | Max | Min | Mean

let reduce kind ~axis ~keepdims t =
  let shape = Tensor.shape t in
  let rank = Shape.rank shape in
  let axis = if axis < 0 then axis + rank else axis in
  if axis < 0 || axis >= rank then invalid_arg "Ref_ops.reduce: bad axis";
  let n = Shape.dim shape axis in
  let kept =
    Shape.of_list
      (List.mapi (fun i d -> if i = axis then 1 else d) (Shape.to_list shape))
  in
  let out_shape =
    if keepdims then kept
    else Shape.of_list (List.filteri (fun i _ -> i <> axis) (Shape.to_list shape))
  in
  let dt = Tensor.dtype t in
  let out_dt = if Dtype.is_float dt then dt else Dtype.S32 in
  let out = Tensor.create out_dt out_shape in
  (* Walk the input with the reduced axis pinned at 0; the output walks
     the same index space, with a zero table at the axis when it is
     dropped. The axis itself is the inner loop, seeded from element 0. *)
  let tin = Tensor.axis_offsets t and tout = Tensor.axis_offsets out in
  let taxis = tin.(axis) in
  let tin = Array.mapi (fun a x -> if a = axis then [| 0 |] else x) tin in
  let tout =
    if keepdims then tout
    else
      Array.init rank (fun a ->
          if a < axis then tout.(a) else if a = axis then [| 0 |] else tout.(a - 1))
  in
  let src = Tensor.buffer t and dst = Tensor.buffer out in
  Walk.iter2 kept tin tout (fun i o ->
      let acc = ref (if n = 0 then 0. else Buffer.unsafe_get src (i + taxis.(0))) in
      for k = 1 to n - 1 do
        let v = Buffer.unsafe_get src (i + taxis.(k)) in
        acc :=
          match kind with
          | Sum | Mean -> !acc +. v
          | Max -> Float.max !acc v
          | Min -> Float.min !acc v
      done;
      Buffer.unsafe_set dst o
        (match kind with Mean -> !acc /. float_of_int n | _ -> !acc));
  out

let is_int8 dt = match (dt : Dtype.t) with S8 | U8 -> true | _ -> false

let matmul ?out_dtype a b =
  let sa = Tensor.shape a and sb = Tensor.shape b in
  if Shape.rank sa < 2 || Shape.rank sb < 2 then
    invalid_arg "Ref_ops.matmul: rank must be >= 2";
  let ra = Shape.rank sa and rb = Shape.rank sb in
  let m = Shape.dim sa (ra - 2)
  and ka = Shape.dim sa (ra - 1)
  and kb = Shape.dim sb (rb - 2)
  and n = Shape.dim sb (rb - 1) in
  if ka <> kb then
    invalid_arg
      (Printf.sprintf "Ref_ops.matmul: inner dims mismatch %d vs %d" ka kb);
  let batch_a = Shape.sub sa 0 (ra - 2) and batch_b = Shape.sub sb 0 (rb - 2) in
  let batch =
    match Shape.broadcast batch_a batch_b with
    | Some s -> s
    | None -> invalid_arg "Ref_ops.matmul: batch dims do not broadcast"
  in
  let int_path = is_int8 (Tensor.dtype a) && is_int8 (Tensor.dtype b) in
  let out_dt =
    match out_dtype with
    | Some d -> d
    | None -> if int_path then Dtype.S32 else Dtype.F32
  in
  let out_shape = Shape.concat batch (Shape.of_list [ m; n ]) in
  let out = Tensor.create out_dt out_shape in
  (* Batch offsets come from a walk over the batch shape; rows, k and
     columns from the matrix axes' own tables. Per batch, A is read once
     into a float row block and each column of B once into a float column,
     so the K loop runs on unboxed floats while the extra memory stays one
     A slice. k runs 0..K-1 into one double accumulator; for int8
     operands every partial sum is an integer far below 2^53, so the
     double is the exact s32 accumulation. *)
  let ta = Tensor.axis_offsets a and tb = Tensor.axis_offsets b in
  let tout = Tensor.axis_offsets out in
  let rows = ta.(ra - 2) and ak = ta.(ra - 1) in
  let bk = tb.(rb - 2) and cols = tb.(rb - 1) in
  let ro = Shape.rank out_shape in
  let orows = tout.(ro - 2) and ocols = tout.(ro - 1) in
  let x = Tensor.buffer a and y = Tensor.buffer b and dst = Tensor.buffer out in
  let arows = Array.make (m * ka) 0. and col = Array.make ka 0. in
  Walk.iter3 batch
    (Walk.broadcast (Array.sub ta 0 (ra - 2)) ~from:batch_a batch)
    (Walk.broadcast (Array.sub tb 0 (rb - 2)) ~from:batch_b batch)
    (Array.sub tout 0 (ro - 2))
    (fun oa ob oo ->
      for i = 0 to m - 1 do
        for k = 0 to ka - 1 do
          arows.((i * ka) + k) <- Buffer.unsafe_get x (oa + rows.(i) + ak.(k))
        done
      done;
      for j = 0 to n - 1 do
        for k = 0 to ka - 1 do
          col.(k) <- Buffer.unsafe_get y (ob + bk.(k) + cols.(j))
        done;
        for i = 0 to m - 1 do
          let acc = ref 0. in
          for k = 0 to ka - 1 do
            acc := !acc +. (arows.((i * ka) + k) *. col.(k))
          done;
          Buffer.unsafe_set dst (oo + orows.(i) + ocols.(j)) !acc
        done
      done);
  out

let conv2d ?out_dtype ~strides:(sh, sw) ~pads:(pt, pl, _pb, _pr)
    ~dilations:(dh, dw) x w =
  let sx = Tensor.shape x and sw_ = Tensor.shape w in
  if Shape.rank sx <> 4 || Shape.rank sw_ <> 4 then
    invalid_arg "Ref_ops.conv2d: input must be NHWC, weights HWIO (rank 4)";
  let n = Shape.dim sx 0 and h = Shape.dim sx 1 and iw = Shape.dim sx 2
  and c = Shape.dim sx 3 in
  let kh = Shape.dim sw_ 0 and kw = Shape.dim sw_ 1 and wc = Shape.dim sw_ 2
  and oc = Shape.dim sw_ 3 in
  if c <> wc then invalid_arg "Ref_ops.conv2d: channel mismatch";
  let keff_h = ((kh - 1) * dh) + 1 and keff_w = ((kw - 1) * dw) + 1 in
  let oh = ((h + pt + _pb - keff_h) / sh) + 1
  and ow = ((iw + pl + _pr - keff_w) / sw) + 1 in
  if oh <= 0 || ow <= 0 then
    invalid_arg "Ref_ops.conv2d: kernel exceeds padded input";
  let int_path = is_int8 (Tensor.dtype x) && is_int8 (Tensor.dtype w) in
  let out_dt =
    match out_dtype with
    | Some d -> d
    | None -> if int_path then Dtype.S32 else Dtype.F32
  in
  let out = Tensor.create out_dt (Shape.of_list [ n; oh; ow; oc ]) in
  let xi = [| 0; 0; 0; 0 |] and wi = [| 0; 0; 0; 0 |] in
  let oi = [| 0; 0; 0; 0 |] in
  for b = 0 to n - 1 do
    for r = 0 to oh - 1 do
      for q = 0 to ow - 1 do
        for o = 0 to oc - 1 do
          let facc = ref 0. and iacc = ref 0 in
          for p = 0 to kh - 1 do
            let ih = (r * sh) - pt + (p * dh) in
            if ih >= 0 && ih < h then
              for s = 0 to kw - 1 do
                let iw' = (q * sw) - pl + (s * dw) in
                if iw' >= 0 && iw' < iw then
                  for ch = 0 to c - 1 do
                    xi.(0) <- b;
                    xi.(1) <- ih;
                    xi.(2) <- iw';
                    xi.(3) <- ch;
                    wi.(0) <- p;
                    wi.(1) <- s;
                    wi.(2) <- ch;
                    wi.(3) <- o;
                    if int_path then
                      iacc :=
                        !iacc
                        + (int_of_float (Tensor.get x xi)
                          * int_of_float (Tensor.get w wi))
                    else facc := !facc +. (Tensor.get x xi *. Tensor.get w wi)
                  done
              done
          done;
          oi.(0) <- b;
          oi.(1) <- r;
          oi.(2) <- q;
          oi.(3) <- o;
          Tensor.set out oi
            (if int_path then float_of_int !iacc else !facc)
        done
      done
    done
  done;
  out

let colsum t =
  let rank = Shape.rank (Tensor.shape t) in
  reduce Sum ~axis:(rank - 2) ~keepdims:false t

let softmax ~axis t =
  let mx = reduce Max ~axis ~keepdims:true t in
  let e = exp (sub t mx) in
  let s = reduce Sum ~axis ~keepdims:true e in
  div e s

let quantize ~scale ~zp dtype t =
  if not (is_int8 dtype) then invalid_arg "Ref_ops.quantize: dtype must be u8/s8";
  map_to dtype (fun x -> Float.round (x /. scale) +. float_of_int zp) t

let dequantize ~scale ~zp t =
  map_to Dtype.F32 (fun x -> (x -. float_of_int zp) *. scale) t
