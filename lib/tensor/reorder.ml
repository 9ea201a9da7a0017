(* Fresh tensor [out] holding [t]'s elements, [t]'s axis [a] read through
   [src_tabs.(a)]: every op below is one walk over [out]'s logical shape. *)
let fill_from ~src_tabs t out =
  Walk.copy (Tensor.shape out) ~src:(Tensor.buffer t) src_tabs
    ~dst:(Tensor.buffer out) (Tensor.axis_offsets out);
  out

let to_layout ?name t layout =
  fill_from ~src_tabs:(Tensor.axis_offsets t) t
    (Tensor.create ?name ~layout (Tensor.dtype t) (Tensor.shape t))

let cast ?name t dtype =
  fill_from ~src_tabs:(Tensor.axis_offsets t) t
    (Tensor.create ?name ~layout:(Tensor.layout t) dtype (Tensor.shape t))

let transpose t perm =
  let shape = Tensor.shape t in
  let rank = Shape.rank shape in
  if Array.length perm <> rank then invalid_arg "Reorder.transpose: bad perm";
  let seen = Array.make rank false in
  Array.iter
    (fun p ->
      if p < 0 || p >= rank || seen.(p) then
        invalid_arg "Reorder.transpose: invalid permutation";
      seen.(p) <- true)
    perm;
  let out_shape = Shape.of_array (Array.map (Shape.dim shape) perm) in
  let src = Tensor.axis_offsets t in
  fill_from ~src_tabs:(Array.map (fun p -> src.(p)) perm) t
    (Tensor.create (Tensor.dtype t) out_shape)

let broadcast t target =
  fill_from
    ~src_tabs:(Walk.broadcast (Tensor.axis_offsets t) ~from:(Tensor.shape t) target)
    t
    (Tensor.create (Tensor.dtype t) target)

let reshape t target =
  let shape = Tensor.shape t in
  if Shape.numel target <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Reorder.reshape: %s has %d elements, %s has %d"
         (Shape.to_string shape) (Shape.numel shape) (Shape.to_string target)
         (Shape.numel target));
  Tensor.of_buffer target (Tensor.buffer (to_layout t Layout.Plain))
