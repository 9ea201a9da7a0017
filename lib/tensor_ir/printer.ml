open Ir

let pp_ty fmt = function
  | Index -> Format.pp_print_string fmt "index"
  | Scalar dt -> Gc_tensor.Dtype.pp fmt dt
  | Boolean -> Format.pp_print_string fmt "bool"

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"
  | And -> "&&"
  | Or -> "||"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let unop_str = function
  | Neg -> "-"
  | Not -> "!"
  | Exp -> "exp"
  | Tanh -> "tanh"
  | Sqrt -> "sqrt"
  | Abs -> "abs"
  | Round -> "round"
  | Rcp -> "rcp"

(* The printers below take [name], how a variable prints. Outside a
   function it is the plain [vname]; [pp_func] passes its disambiguated
   form. *)
let plain_name (v : var) = v.vname

let rec pp_expr_n name fmt e =
  let pp_expr = pp_expr_n name and pp_indices = pp_indices_n name in
  match e with
  | Int i -> Format.fprintf fmt "%d" i
  | Float f -> Format.fprintf fmt "%g" f
  | Var v -> Format.pp_print_string fmt (name v)
  | Load (t, idx) -> Format.fprintf fmt "%s[%a]" t.tname pp_indices idx
  | Addr (t, idx) -> Format.fprintf fmt "&%s[%a]" t.tname pp_indices idx
  | Binop (((Min | Max) as op), a, b) ->
      Format.fprintf fmt "%s(%a, %a)" (binop_str op) pp_expr a pp_expr b
  | Binop (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Unop (((Exp | Tanh | Sqrt | Abs | Round | Rcp) as op), a) ->
      Format.fprintf fmt "%s(%a)" (unop_str op) pp_expr a
  | Unop (op, a) -> Format.fprintf fmt "%s%a" (unop_str op) pp_expr a
  | Cast (dt, a) -> Format.fprintf fmt "(%a)%a" Gc_tensor.Dtype.pp dt pp_expr a
  | Select (c, a, b) ->
      Format.fprintf fmt "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b

and pp_indices_n name fmt idx =
  Array.iteri
    (fun i e ->
      if i > 0 then Format.fprintf fmt ", ";
      pp_expr_n name fmt e)
    idx

let pp_expr = pp_expr_n plain_name

let pp_dims fmt dims =
  Array.iter (fun d -> Format.fprintf fmt "[%d]" d) dims

let rec pp_stmt_n name fmt s =
  let pp_expr = pp_expr_n name
  and pp_indices = pp_indices_n name
  and pp_body = pp_body_n name in
  match s with
  | Assign (v, e) -> Format.fprintf fmt "@[<h>%s = %a;@]" (name v) pp_expr e
  | Store (t, idx, e) ->
      Format.fprintf fmt "@[<h>%s[%a] = %a;@]" t.tname pp_indices idx pp_expr e
  | Alloc t ->
      Format.fprintf fmt "@[<h>%s %s%a;  // %d bytes@]"
        (Gc_tensor.Dtype.to_string t.tdtype)
        t.tname pp_dims t.dims (tensor_bytes t)
  | For l ->
      let kw = if l.parallel then "parallel_for" else "for" in
      let tag =
        match l.merge_tag with
        | Some tg -> Printf.sprintf "  // mergeable #%d" tg
        | None -> ""
      in
      let lv = name l.v in
      Format.fprintf fmt "@[<v 2>%s (%s = %a; %s < %a; %s += %a) {%s@,%a@]@,}" kw
        lv pp_expr l.lo lv pp_expr l.hi lv pp_expr l.step tag pp_body l.body
  | If (c, t, []) ->
      Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,}" pp_expr c pp_body t
  | If (c, t, e) ->
      Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,} else {@;<0 2>@[<v>%a@]@,}"
        pp_expr c pp_body t pp_body e
  | Call (name, args) ->
      (* an intrinsic's optional trailing operands print with their names *)
      let label i =
        match Intrinsic.lookup name with
        | Some intr when i >= intr.arity -> List.nth intr.trailing (i - intr.arity) ^ "="
        | _ -> ""
      in
      Format.fprintf fmt "@[<h>%s(%a);@]" name
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.fprintf f ", ")
           (fun f (i, a) -> Format.fprintf f "%s%a" (label i) pp_expr a))
        (List.mapi (fun i a -> (i, a)) args)
  | Barrier -> Format.pp_print_string fmt "barrier();"

and pp_body_n name fmt body =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_stmt_n name) fmt body

let pp_stmt = pp_stmt_n plain_name

let pp_param name fmt = function
  | Ptensor t ->
      Format.fprintf fmt "%s %s%a"
        (Gc_tensor.Dtype.to_string t.tdtype)
        t.tname pp_dims t.dims
  | Pvar v -> Format.fprintf fmt "%a %s" pp_ty v.vty (name v)

(* Distinct variables that share a name within [f] (the max and the sum
   accumulators of a fused softmax are both [racc]) print as
   [name_vid]; every other variable prints as its plain name. *)
let func_var_names f =
  let vids_of_name = Hashtbl.create 32 in
  let note (v : var) =
    let vids = Option.value (Hashtbl.find_opt vids_of_name v.vname) ~default:[] in
    if not (List.mem v.vid vids) then
      Hashtbl.replace vids_of_name v.vname (v.vid :: vids)
  in
  List.iter (function Pvar v -> note v | Ptensor _ -> ()) f.params;
  Visit.iter_stmts
    ~expr:(function Var v -> note v | _ -> ())
    ~stmt:(function Assign (v, _) -> note v | For l -> note l.v | _ -> ())
    f.body;
  fun (v : var) ->
    match Hashtbl.find_opt vids_of_name v.vname with
    | Some (_ :: _ :: _) -> Printf.sprintf "%s_%d" v.vname v.vid
    | _ -> v.vname

let pp_func fmt f =
  let name = func_var_names f in
  Format.fprintf fmt "@[<v 2>func %s(%a) {@,%a@]@,}" f.fname
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") (pp_param name))
    f.params (pp_body_n name) f.body

let pp_module fmt m =
  Format.fprintf fmt "@[<v>module {  // entry=%s%s@," m.entry
    (match m.init with Some i -> Printf.sprintf " init=%s" i | None -> "");
  List.iter
    (fun t ->
      Format.fprintf fmt "global %s %s%a;@,"
        (Gc_tensor.Dtype.to_string t.tdtype)
        t.tname pp_dims t.dims)
    m.globals;
  Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "@,@,") pp_func fmt
    m.funcs;
  Format.fprintf fmt "@]@,}"

let expr_to_string e = Format.asprintf "%a" pp_expr e
let func_to_string f = Format.asprintf "%a" pp_func f
let module_to_string m = Format.asprintf "%a" pp_module m
