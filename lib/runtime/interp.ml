open Gc_tensor
open Gc_tensor_ir
open Ir

type value = I of int | F of float

type t = {
  module_ : Ir.module_;
  globals : (int, Buffer.t) Hashtbl.t;
}

type frame = {
  vars : (int, value) Hashtbl.t;
  bufs : (int, Buffer.t) Hashtbl.t;
}

let create (m : Ir.module_) =
  (match Check.check_module m with
  | Ok () -> ()
  | Error e -> invalid_arg ("Interp.create: ill-formed module: " ^ e));
  let globals = Hashtbl.create 8 in
  List.iter
    (fun (g : tensor) ->
      Hashtbl.replace globals g.tid
        (Buffer.create ~name:g.tname g.tdtype (tensor_numel g)))
    m.globals;
  { module_ = m; globals }

let as_int = function I i -> i | F f -> int_of_float f
let as_float = function F f -> f | I i -> float_of_int i

let strides_of dims =
  let n = Array.length dims in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * dims.(i + 1)
  done;
  s

let rec eval t frame (e : expr) : value =
  match e with
  | Int i -> I i
  | Float f -> F f
  | Var v -> (
      match Hashtbl.find_opt frame.vars v.vid with
      | Some value -> value
      | None -> invalid_arg (Printf.sprintf "Interp: unbound var %s" v.vname))
  | Load (tn, idx) ->
      let buf = buffer_of t frame tn in
      F (Buffer.get buf (offset t frame tn idx))
  | Addr (tn, idx) -> I (offset t frame tn idx)
  | Binop (op, a, b) -> eval_binop t frame op a b
  | Unop (op, a) -> eval_unop t frame op a
  | Cast (dt, a) -> F (Dtype.round_to dt (as_float (eval t frame a)))
  | Select (c, a, b) ->
      if as_int (eval t frame c) <> 0 then eval t frame a else eval t frame b

and offset t frame (tn : tensor) idx =
  let strides = strides_of tn.dims in
  let off = ref 0 in
  Array.iteri
    (fun i e ->
      let v = as_int (eval t frame e) in
      if v < 0 || v >= tn.dims.(i) then
        invalid_arg
          (Printf.sprintf "Interp: index %d out of bounds [0,%d) on %s dim %d"
             v tn.dims.(i) tn.tname i);
      off := !off + (v * strides.(i)))
    idx;
  !off

and buffer_of t frame (tn : tensor) =
  match Hashtbl.find_opt frame.bufs tn.tid with
  | Some b -> b
  | None -> (
      match Hashtbl.find_opt t.globals tn.tid with
      | Some b -> b
      | None -> invalid_arg (Printf.sprintf "Interp: unbound tensor %s" tn.tname))

and eval_binop t frame op a b =
  let va = eval t frame a and vb = eval t frame b in
  match (va, vb, op) with
  | I x, I y, Add -> I (x + y)
  | I x, I y, Sub -> I (x - y)
  | I x, I y, Mul -> I (x * y)
  | I x, I y, Div -> I (x / y)
  | I x, I y, Mod -> I (x mod y)
  | I x, I y, Min -> I (min x y)
  | I x, I y, Max -> I (max x y)
  | I x, I y, And -> I (if x <> 0 && y <> 0 then 1 else 0)
  | I x, I y, Or -> I (if x <> 0 || y <> 0 then 1 else 0)
  | I x, I y, Eq -> I (if x = y then 1 else 0)
  | I x, I y, Ne -> I (if x <> y then 1 else 0)
  | I x, I y, Lt -> I (if x < y then 1 else 0)
  | I x, I y, Le -> I (if x <= y then 1 else 0)
  | I x, I y, Gt -> I (if x > y then 1 else 0)
  | I x, I y, Ge -> I (if x >= y then 1 else 0)
  | _, _, op -> (
      let x = as_float va and y = as_float vb in
      match op with
      | Add -> F (x +. y)
      | Sub -> F (x -. y)
      | Mul -> F (x *. y)
      | Div -> F (x /. y)
      | Mod -> F (Float.rem x y)
      | Min -> F (Float.min x y)
      | Max -> F (Float.max x y)
      | And -> I (if x <> 0. && y <> 0. then 1 else 0)
      | Or -> I (if x <> 0. || y <> 0. then 1 else 0)
      | Eq -> I (if x = y then 1 else 0)
      | Ne -> I (if x <> y then 1 else 0)
      | Lt -> I (if x < y then 1 else 0)
      | Le -> I (if x <= y then 1 else 0)
      | Gt -> I (if x > y then 1 else 0)
      | Ge -> I (if x >= y then 1 else 0))

and eval_unop t frame op a =
  let v = eval t frame a in
  match (op, v) with
  | Neg, I x -> I (-x)
  | Neg, F x -> F (-.x)
  | Abs, I x -> I (abs x)
  | Abs, F x -> F (Float.abs x)
  | Not, v -> I (if as_int v = 0 then 1 else 0)
  | Exp, v -> F (Stdlib.exp (as_float v))
  | Tanh, v -> F (Stdlib.tanh (as_float v))
  | Sqrt, v -> F (Stdlib.sqrt (as_float v))
  | Round, F x -> F (Float.round x)
  | Round, I x -> I x
  | Rcp, v -> F (1. /. as_float v)

let rec exec t frame (s : stmt) : unit =
  match s with
  | Assign (v, e) -> Hashtbl.replace frame.vars v.vid (eval t frame e)
  | Store (tn, idx, e) ->
      let buf = buffer_of t frame tn in
      Buffer.set buf (offset t frame tn idx) (as_float (eval t frame e))
  | Alloc tn ->
      Hashtbl.replace frame.bufs tn.tid
        (Buffer.create ~name:tn.tname tn.tdtype (tensor_numel tn))
  | For l ->
      let lo = as_int (eval t frame l.lo)
      and hi = as_int (eval t frame l.hi)
      and step = as_int (eval t frame l.step) in
      let i = ref lo in
      while !i < hi do
        Hashtbl.replace frame.vars l.v.vid (I !i);
        List.iter (exec t frame) l.body;
        i := !i + step
      done
  | If (c, th, el) ->
      if as_int (eval t frame c) <> 0 then List.iter (exec t frame) th
      else List.iter (exec t frame) el
  | Barrier -> ()
  | Call (name, args) -> exec_call t frame name args

and exec_call t frame name args =
  let addr a =
    match a with
    | Addr (tn, idx) -> (buffer_of t frame tn, offset t frame tn idx)
    | _ -> invalid_arg "Interp: intrinsic operand must be an address"
  in
  match (name, args) with
  | "brgemm", _ ->
      let g =
        match Intrinsic.brgemm_args args with
        | Some g -> g
        | None -> invalid_arg "Interp: brgemm expects 9 to 13 args"
      in
      let int e = as_int (eval t frame e) in
      let batch = int g.batch and mb = int g.mb and nb = int g.nb and kb = int g.kb in
      let abuf, a0 = addr g.a and bbuf, b0 = addr g.b and cbuf, c0 = addr g.c in
      let sa = int g.a_stride and sb = int g.b_stride in
      let lda = int g.lda and ldb = int g.ldb and ldc = int g.ldc and klast = int g.klast in
      (* B element (n, k) of block [bi]: K×N rows, or N×K rows (the slab's
         pitch is kb) *)
      let bn, bk = if ldb > 0 then (1, ldb) else ((if ldb = 0 then kb else -ldb), 1) in
      let b_at bi n k = b0 + (bi * sb) + (n * bn) + (k * bk) in
      (* reference brgemm: element loops through generic accessors, one
         accumulator per output element running batch-outer/k-inner (the
         microkernel's order) *)
      for m = 0 to mb - 1 do
        for n = 0 to nb - 1 do
          let acc = ref 0. in
          for bi = 0 to batch - 1 do
            let ao = a0 + (bi * sa) + (m * lda) in
            for k = 0 to (if bi = batch - 1 then klast else kb) - 1 do
              acc := !acc +. (Buffer.get abuf (ao + k) *. Buffer.get bbuf (b_at bi n k))
            done
          done;
          let ci = c0 + (m * ldc) + n in
          Buffer.set cbuf ci (Buffer.get cbuf ci +. !acc)
        done
      done
  | "zero", [ a; count ] ->
      let buf, off = addr a in
      Buffer.fill_range buf off (as_int (eval t frame count)) 0.
  | "copy", [ d; s; count ] ->
      let dbuf, doff = addr d and sbuf, soff = addr s in
      Buffer.copy_range ~src:sbuf ~soff ~dst:dbuf ~doff
        (as_int (eval t frame count))
  | _, _ -> (
      match Ir.find_func t.module_ name with
      | Some f ->
          let bufs =
            List.filter_map
              (fun a ->
                match a with Addr (tn, _) -> Some (buffer_of t frame tn) | _ -> None)
              args
          in
          call t f (Array.of_list bufs)
      | None -> invalid_arg (Printf.sprintf "Interp: unknown call %S" name))

and call t (f : func) (params : Buffer.t array) =
  let frame = { vars = Hashtbl.create 32; bufs = Hashtbl.create 32 } in
  let tensor_params =
    List.filter_map (function Ptensor tn -> Some tn | Pvar _ -> None) f.params
  in
  if List.length tensor_params <> Array.length params then
    invalid_arg
      (Printf.sprintf "Interp.call %s: expected %d params, got %d" f.fname
         (List.length tensor_params) (Array.length params));
  List.iteri
    (fun i (tn : tensor) ->
      if Buffer.length params.(i) < tensor_numel tn then
        invalid_arg (Printf.sprintf "Interp.call %s: param %d too small" f.fname i);
      Hashtbl.replace frame.bufs tn.tid params.(i))
    tensor_params;
  List.iter (exec t frame) f.body

let run_func t name params =
  match Ir.find_func t.module_ name with
  | Some f -> call t f params
  | None -> invalid_arg (Printf.sprintf "Interp.run_func: unknown function %S" name)

let run_entry t params = run_func t t.module_.entry params

let run_init t params =
  match t.module_.init with Some i -> run_func t i params | None -> ()

let global_buffer t (g : tensor) =
  match Hashtbl.find_opt t.globals g.tid with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Interp.global_buffer: %s" g.tname)
