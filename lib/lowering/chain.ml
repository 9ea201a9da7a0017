open Gc_tensor
open Gc_graph_ir
open Gc_tensor_ir

type binding = Scalar of Ir.expr | Rowvar of Ir.var

type t = {
  tmap : Logical_tensor.t -> Ir.tensor;
  point : Ir.expr array;
  values : (int, binding) Hashtbl.t;
}

let create ~tmap ~point = { tmap; point; values = Hashtbl.create 16 }
let bind t (lt : Logical_tensor.t) e = Hashtbl.replace t.values lt.id (Scalar e)
let bind_var t (lt : Logical_tensor.t) v = Hashtbl.replace t.values lt.id (Rowvar v)

(* Broadcast-map the chain point into [lt]'s index space: keep the trailing
   rank(lt) coordinates, clamping broadcast (size-1) dimensions to 0. *)
let broadcast_point t (lt : Logical_tensor.t) =
  let rank = Shape.rank lt.shape in
  let pr = Array.length t.point in
  if rank > pr then
    invalid_arg
      (Printf.sprintf "Chain: operand %s has rank %d > point rank %d" lt.name
         rank pr);
  Array.init rank (fun i ->
      if Shape.dim lt.shape i = 1 then Ir.int 0 else t.point.(pr - rank + i))

let access t lt = Index_map.access t.tmap lt (broadcast_point t lt)

let value t (lt : Logical_tensor.t) =
  match Hashtbl.find_opt t.values lt.id with
  | Some (Scalar e) -> e
  | Some (Rowvar v) -> Ir.Var v
  | None -> (
      match Logical_tensor.const_value lt with
      | Some v when Tensor.numel v = 1 -> Ir.Float (Tensor.item v)
      | _ ->
          let tensor, idx = access t lt in
          Ir.Load (tensor, idx))

let eltwise_expr (kind : Op_kind.t) attrs (args : Ir.expr list) =
  let a () = List.nth args 0 in
  let b () = List.nth args 1 in
  match kind with
  | Add -> Ir.Binop (Add, a (), b ())
  | Sub -> Ir.Binop (Sub, a (), b ())
  | Mul -> Ir.Binop (Mul, a (), b ())
  | Div -> Ir.Binop (Div, a (), b ())
  | Maximum -> Ir.Binop (Max, a (), b ())
  | Minimum -> Ir.Binop (Min, a (), b ())
  | Relu -> Ir.Binop (Max, a (), Ir.Float 0.)
  | Exp -> Ir.Unop (Exp, a ())
  | Tanh -> Ir.Unop (Tanh, a ())
  | Sqrt -> Ir.Unop (Sqrt, a ())
  | Neg -> Ir.Unop (Neg, a ())
  | Abs -> Ir.Unop (Abs, a ())
  | Reciprocal -> Ir.Unop (Rcp, a ())
  | Round -> Ir.Unop (Round, a ())
  | Clip ->
      let lo = Attrs.float_exn attrs "lo" and hi = Attrs.float_exn attrs "hi" in
      Ir.Binop (Max, Ir.Float lo, Ir.Binop (Min, Ir.Float hi, a ()))
  | Bias_add -> Ir.Binop (Add, a (), b ())
  | k ->
      invalid_arg
        (Printf.sprintf "Chain.eltwise_expr: %s is not elementwise"
           (Op_kind.to_string k))

let apply t (op : Op.t) =
  let out = Op.output op in
  let e =
    match op.kind with
    | Add | Sub | Mul | Div | Maximum | Minimum | Relu | Exp | Tanh | Sqrt
    | Neg | Abs | Reciprocal | Round | Clip | Bias_add ->
        eltwise_expr op.kind op.attrs (List.map (value t) op.inputs)
    | Cast -> Ir.Cast (out.dtype, value t (List.hd op.inputs))
    | Reorder | Broadcast ->
        (* layout / shape changes are transparent at a point *)
        value t (List.hd op.inputs)
    | Quantize ->
        let scale = Attrs.float_exn op.attrs "scale" in
        let zp = Attrs.int_exn op.attrs "zp" in
        Ir.Cast
          ( out.dtype,
            Ir.Binop
              ( Add,
                Ir.Unop (Round, Ir.Binop (Div, value t (List.hd op.inputs), Ir.Float scale)),
                Ir.Float (float_of_int zp) ) )
    | Dequantize ->
        let scale = Attrs.float_exn op.attrs "scale" in
        let zp = Attrs.int_exn op.attrs "zp" in
        Ir.Binop
          ( Mul,
            Ir.Binop (Sub, value t (List.hd op.inputs), Ir.Float (float_of_int zp)),
            Ir.Float scale )
    | k ->
        invalid_arg
          (Printf.sprintf "Chain.apply: cannot inline %s (reductions are scheduled by the caller)"
             (Op_kind.to_string k))
  in
  bind t out e;
  e
