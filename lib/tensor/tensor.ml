type t = {
  dtype : Dtype.t;
  shape : Shape.t;
  layout : Layout.t;
  buffer : Buffer.t;
}

let create ?name ?(layout = Layout.Plain) dtype shape =
  let n = Layout.physical_numel layout shape in
  { dtype; shape; layout; buffer = Buffer.create ?name dtype n }

let of_buffer ?(layout = Layout.Plain) shape buffer =
  let n = Layout.physical_numel layout shape in
  if Buffer.length buffer < n then
    invalid_arg "Tensor.of_buffer: buffer too small for layout";
  { dtype = Buffer.dtype buffer; shape; layout; buffer }

let dtype t = t.dtype
let shape t = t.shape
let layout t = t.layout
let buffer t = t.buffer
let numel t = Shape.numel t.shape
let axis_offsets t = Layout.axis_offsets t.layout t.shape
let get t idx = Buffer.get t.buffer (Layout.offset t.layout t.shape idx)
let set t idx v = Buffer.set t.buffer (Layout.offset t.layout t.shape idx) v

let item t =
  if numel t <> 1 then invalid_arg "Tensor.item: not a single-element tensor";
  if Shape.is_scalar t.shape then Buffer.get t.buffer 0
  else get t (Array.make (Shape.rank t.shape) 0)

let scalar dtype v =
  let t = create dtype Shape.scalar in
  Buffer.set t.buffer 0 v;
  t

let init ?layout dtype shape f =
  let t = create ?layout dtype shape in
  Shape.iter shape (fun idx -> set t idx (f idx));
  t

let of_float_list dtype shape vals =
  if List.length vals <> Shape.numel shape then
    invalid_arg "Tensor.of_float_list: wrong number of elements";
  let arr = Array.of_list vals in
  init dtype shape (fun idx -> arr.(Shape.offset shape idx))

(* splitmix64-style stateless PRNG: deterministic across platforms. *)
let splitmix seed i =
  let z = ref Int64.(add (of_int seed) (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L)) in
  z := Int64.(mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L);
  z := Int64.(mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL);
  z := Int64.(logxor !z (shift_right_logical !z 31));
  (* 53 random bits -> [0,1) *)
  Int64.to_float (Int64.shift_right_logical !z 11) /. 9007199254740992.

let random ?(seed = 42) ?(lo = -1.) ?(hi = 1.) dtype shape =
  let t = create dtype shape in
  let n = Shape.numel shape in
  if Dtype.is_float dtype then
    for i = 0 to n - 1 do
      Buffer.set t.buffer i (lo +. ((hi -. lo) *. splitmix seed i))
    done
  else
    for i = 0 to n - 1 do
      let u = splitmix seed i in
      let v = Float.of_int (int_of_float lo) +. Float.round (u *. (hi -. lo)) in
      Buffer.set t.buffer i v
    done;
  t

let fill t v = Buffer.fill t.buffer v

let copy t = { t with buffer = Buffer.copy t.buffer }

let to_float_array t =
  let out = Array.make (numel t) 0. in
  Walk.iter2 t.shape (axis_offsets t) (Layout.axis_offsets Plain t.shape)
    (fun i j -> out.(j) <- Buffer.unsafe_get t.buffer i);
  out

let iter t f =
  let dims = Shape.to_array t.shape in
  let idx = Array.make (Array.length dims) 0 in
  let rec bump a =
    if a >= 0 then begin
      idx.(a) <- idx.(a) + 1;
      if idx.(a) = dims.(a) then begin
        idx.(a) <- 0;
        bump (a - 1)
      end
    end
  in
  let tabs = axis_offsets t in
  Walk.iter2 t.shape tabs tabs (fun o _ ->
      f idx (Buffer.unsafe_get t.buffer o);
      bump (Array.length dims - 1))

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Tensor.map2: shape mismatch";
  let out = create a.dtype a.shape in
  Walk.iter3 a.shape (axis_offsets a) (axis_offsets b) (axis_offsets out)
    (fun i j o ->
      Buffer.set out.buffer o
        (f (Buffer.unsafe_get a.buffer i) (Buffer.unsafe_get b.buffer j)));
  out

let diff ?(rtol = 0.) ?(atol = 0.) a b =
  Walk.diff a.shape ~rtol ~atol a.buffer (axis_offsets a) b.buffer (axis_offsets b)

let equal a b = Shape.equal a.shape b.shape && (diff a b).unequal = 0

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Tensor.max_abs_diff: shape mismatch";
  (diff a b).max_abs

let allclose ?(rtol = 1e-5) ?(atol = 1e-6) a b =
  Shape.equal a.shape b.shape && (diff ~rtol ~atol a b).far = 0

(* {2 Batch-dim surgery} — pad/slice/concat/split for bucketed
   specialization and request coalescing. Plain layouts only: row-major
   order makes a leading-dim region contiguous, so shapes differing only
   in dim 0 move as one block; other cases walk the index space. *)

let require_plain fn t =
  if not (Layout.is_plain t.layout) then
    invalid_arg (fn ^ ": blocked layouts unsupported")

let same_suffix a b =
  Shape.rank a = Shape.rank b
  && Shape.rank a >= 1
  &&
  let ok = ref true in
  for i = 1 to Shape.rank a - 1 do
    if Shape.dim a i <> Shape.dim b i then ok := false
  done;
  !ok

(* Copy the origin-anchored [region] of [src] into [dst]. *)
let walk_region region src dst =
  Walk.copy region ~src:src.buffer (axis_offsets src) ~dst:dst.buffer
    (axis_offsets dst)

let pad_to t target =
  require_plain "Tensor.pad_to" t;
  if Shape.equal t.shape target then t
  else begin
    if Shape.rank target <> Shape.rank t.shape then
      invalid_arg "Tensor.pad_to: rank mismatch";
    for i = 0 to Shape.rank target - 1 do
      if Shape.dim target i < Shape.dim t.shape i then
        invalid_arg
          (Printf.sprintf "Tensor.pad_to: target %s smaller than %s on dim %d"
             (Shape.to_string target) (Shape.to_string t.shape) i)
    done;
    let out = create t.dtype target in
    if same_suffix t.shape target then
      Buffer.copy_range ~src:t.buffer ~soff:0 ~dst:out.buffer ~doff:0 (numel t)
    else walk_region t.shape t out;
    out
  end

let slice_to t target =
  require_plain "Tensor.slice_to" t;
  if Shape.equal t.shape target then t
  else begin
    if Shape.rank target <> Shape.rank t.shape then
      invalid_arg "Tensor.slice_to: rank mismatch";
    for i = 0 to Shape.rank target - 1 do
      if Shape.dim target i > Shape.dim t.shape i then
        invalid_arg
          (Printf.sprintf "Tensor.slice_to: target %s larger than %s on dim %d"
             (Shape.to_string target) (Shape.to_string t.shape) i)
    done;
    let out = create t.dtype target in
    if same_suffix t.shape target then
      Buffer.copy_range ~src:t.buffer ~soff:0 ~dst:out.buffer ~doff:0
        (Shape.numel target)
    else walk_region target t out;
    out
  end

let concat0 ts =
  match ts with
  | [] -> invalid_arg "Tensor.concat0: empty list"
  | t0 :: rest ->
      List.iter (require_plain "Tensor.concat0") ts;
      if Shape.rank t0.shape < 1 then
        invalid_arg "Tensor.concat0: rank must be >= 1";
      List.iter
        (fun t ->
          if not (Dtype.equal t.dtype t0.dtype) then
            invalid_arg "Tensor.concat0: dtype mismatch";
          if not (same_suffix t.shape t0.shape) then
            invalid_arg
              (Printf.sprintf "Tensor.concat0: %s and %s differ beyond dim 0"
                 (Shape.to_string t0.shape) (Shape.to_string t.shape)))
        rest;
      let total =
        List.fold_left (fun acc t -> acc + Shape.dim t.shape 0) 0 ts
      in
      let dims = Shape.to_array t0.shape in
      dims.(0) <- total;
      let out = create t0.dtype (Shape.of_array dims) in
      let off = ref 0 in
      List.iter
        (fun t ->
          let n = numel t in
          Buffer.copy_range ~src:t.buffer ~soff:0 ~dst:out.buffer ~doff:!off n;
          off := !off + n)
        ts;
      out

let split0 t sizes =
  require_plain "Tensor.split0" t;
  if Shape.rank t.shape < 1 then invalid_arg "Tensor.split0: rank must be >= 1";
  List.iter
    (fun s -> if s <= 0 then invalid_arg "Tensor.split0: sizes must be positive")
    sizes;
  let total = List.fold_left ( + ) 0 sizes in
  if total <> Shape.dim t.shape 0 then
    invalid_arg
      (Printf.sprintf "Tensor.split0: sizes sum to %d, dim 0 is %d" total
         (Shape.dim t.shape 0));
  let row = numel t / Shape.dim t.shape 0 in
  let off = ref 0 in
  List.map
    (fun s ->
      let dims = Shape.to_array t.shape in
      dims.(0) <- s;
      let out = create t.dtype (Shape.of_array dims) in
      Buffer.copy_range ~src:t.buffer ~soff:(!off * row) ~dst:out.buffer
        ~doff:0 (s * row);
      off := !off + s;
      out)
    sizes

let pp fmt t =
  let n = numel t in
  Format.fprintf fmt "tensor<%a,%a,%a>[" Dtype.pp t.dtype Shape.pp t.shape
    Layout.pp t.layout;
  let shown = min n 16 in
  let vals = to_float_array t in
  for i = 0 to shown - 1 do
    if i > 0 then Format.fprintf fmt ", ";
    Format.fprintf fmt "%g" vals.(i)
  done;
  if n > shown then Format.fprintf fmt ", ...";
  Format.fprintf fmt "]"
