open Gc_tensor_ir
open Ir

let rec expr (e : Ir.expr) =
  Visit.map_expr simplify_node e

and simplify_node (e : Ir.expr) =
  match e with
  | Binop (op, Int a, Int b) -> (
      match op with
      | Add -> Int (a + b)
      | Sub -> Int (a - b)
      | Mul -> Int (a * b)
      | Div -> if b <> 0 then Int (a / b) else e
      | Mod -> if b <> 0 then Int (a mod b) else e
      | Min -> Int (min a b)
      | Max -> Int (max a b)
      | And -> Int (if a <> 0 && b <> 0 then 1 else 0)
      | Or -> Int (if a <> 0 || b <> 0 then 1 else 0)
      | Eq -> Int (if a = b then 1 else 0)
      | Ne -> Int (if a <> b then 1 else 0)
      | Lt -> Int (if a < b then 1 else 0)
      | Le -> Int (if a <= b then 1 else 0)
      | Gt -> Int (if a > b then 1 else 0)
      | Ge -> Int (if a >= b then 1 else 0))
  | Binop (Add, x, Int 0) | Binop (Add, Int 0, x) -> x
  | Binop (Sub, x, Int 0) -> x
  | Binop (Mul, x, Int 1) | Binop (Mul, Int 1, x) -> x
  | Binop (Mul, _, Int 0) | Binop (Mul, Int 0, _) -> Int 0
  | Binop (Div, x, Int 1) -> x
  | Binop (Mod, _, Int 1) -> Int 0
  | Binop (And, x, Int 1) | Binop (And, Int 1, x) -> x
  | Binop (And, _, Int 0) | Binop (And, Int 0, _) -> Int 0
  | Binop (Or, _, Int 1) | Binop (Or, Int 1, _) -> Int 1
  | Binop (Or, x, Int 0) | Binop (Or, Int 0, x) -> x
  | Binop (Add, Float a, Float b) -> Float (a +. b)
  | Binop (Mul, Float a, Float b) -> Float (a *. b)
  | Select (Int c, a, b) -> if c <> 0 then a else b
  | Unop (Neg, Int a) -> Int (-a)
  | Cast (dt, Float f) -> Float (Gc_tensor.Dtype.round_to dt f)
  | e -> e

module Int_map = Map.Make (Int)

(* Value ranges of index expressions over one function body: a variable
   ranges over the join of all its definitions (a loop variable over
   [lo, hi - 1], an assigned one over each assigned expression); [None]
   when a definition is unbounded or the definitions are cyclic. *)
let ranges body =
  let defs = Hashtbl.create 64 in
  let def (v : var) d =
    Hashtbl.replace defs v.vid
      (d :: Option.value (Hashtbl.find_opt defs v.vid) ~default:[])
  in
  Visit.iter_stmts
    ~stmt:(fun s ->
      match s with
      | Assign (v, e) -> def v (`Assign e)
      | For l -> def l.v (`Loop l)
      | _ -> ())
    body;
  let memo = Hashtbl.create 64 in
  let ( let* ) = Option.bind in
  let rec range (e : expr) =
    match e with
    | Int a -> Some (a, a)
    | Var v -> var v.vid
    | Binop (op, x, y) -> (
        let* a, b = range x in
        let* c, d = range y in
        match op with
        | Add -> Some (a + c, b + d)
        | Sub -> Some (a - d, b - c)
        | Mul ->
            let ps = [ a * c; a * d; b * c; b * d ] in
            Some (List.fold_left min max_int ps, List.fold_left max min_int ps)
        | Div when c = d && c > 0 -> Some (a / c, b / c)
        | Mod when c = d && c > 0 && a >= 0 -> Some (0, min b (c - 1))
        | Min -> Some (min a c, min b d)
        | Max -> Some (max a c, max b d)
        | _ -> None)
    | _ -> None
  and var vid =
    match Hashtbl.find_opt memo vid with
    | Some r -> r
    | None ->
        (* a cycle reaches the [None] placed here: unbounded *)
        Hashtbl.replace memo vid None;
        let join acc def_ =
          let* a, b = acc in
          let* c, d =
            match def_ with
            | `Assign e -> range e
            | `Loop l -> (
                match l.step with
                | Int st when st > 0 ->
                    let* lo, _ = range l.lo in
                    let* _, hi = range l.hi in
                    Some (lo, hi - 1)
                | _ -> None)
          in
          Some (min a c, max b d)
        in
        let r =
          match Hashtbl.find_opt defs vid with
          | Some ds -> List.fold_left join (Some (max_int, min_int)) ds
          | None -> None
        in
        Hashtbl.replace memo vid r;
        r
  in
  range

(* Facts of one function: the value [range] of index expressions, and
   the variables some [Assign] writes ([assigned]), whose loop bounds
   therefore do not bound them. *)
type facts = {
  range : expr -> (int * int) option;
  assigned : (int, unit) Hashtbl.t;
}

let nonneg facts e =
  match facts.range e with Some (lo, _) -> lo >= 0 | None -> false

let facts_of body =
  let assigned = Hashtbl.create 64 in
  Visit.iter_stmts
    ~stmt:(function Assign (v, _) -> Hashtbl.replace assigned v.vid () | _ -> ())
    body;
  { range = ranges body; assigned }

(* [y] lies in [0, c) by the enclosing loops' bounds *)
let below bounds c = function
  | Int y -> 0 <= y && y < c
  | Var v -> (
      match Int_map.find_opt v.vid bounds with
      | Some (lo, hi) -> 0 <= lo && hi <= c
      | None -> false)
  | _ -> false

(* (x·c + y) / c → x and (x·c + y) % c → y when 0 ≤ y < c follows from
   the enclosing loops' bounds and x ≥ 0 — exact under truncating
   division. A blocked store t[(mpsi·MB + mbi) / MB, …, (mpsi·MB + mbi) %
   MB, …] then indexes its block directly. *)
let block_index facts bounds (e : expr) =
  match e with
  | Binop (((Div | Mod) as op), d, Int c) when c > 0 -> (
      let block x c' y = c' = c && below bounds c y && nonneg facts x in
      let split =
        match d with
        | Binop (Add, Binop (Mul, x, Int c'), y) when block x c' y -> Some (x, y)
        | Binop (Add, y, Binop (Mul, x, Int c')) when block x c' y -> Some (x, y)
        | y when below bounds c y -> Some (Int 0, y)
        | _ -> None
      in
      match split with Some (x, y) -> if op = Div then x else y | None -> e)
  | e -> e

(* substitute a variable with a constant expression *)
let subst_var v value body =
  Visit.map_stmts
    ~expr:(fun e -> match e with Var v' when var_equal v' v -> value | e -> e)
    body

let rec stmts facts bounds (body : stmt list) : stmt list =
  let expr = Visit.map_expr (fun e -> block_index facts bounds (simplify_node e)) in
  List.concat_map
    (fun s ->
      match s with
      | Assign (v, e) -> [ Assign (v, expr e) ]
      | Store (t, idx, e) -> [ Store (t, Array.map expr idx, expr e) ]
      | Alloc t -> [ Alloc t ]
      | Barrier -> [ Barrier ]
      | Call (n, args) -> [ Call (n, List.map expr args) ]
      | If (c, th, el) -> (
          match expr c with
          | Int 0 -> stmts facts bounds el
          | Int _ -> stmts facts bounds th
          | c -> [ If (c, stmts facts bounds th, stmts facts bounds el) ])
      | For l -> (
          let lo = expr l.lo and hi = expr l.hi and step = expr l.step in
          let inner =
            match (lo, hi, step) with
            | Int a, Int b, Int s when s > 0 && not (Hashtbl.mem facts.assigned l.v.vid) ->
                Int_map.add l.v.vid (a, b) bounds
            | _ -> bounds
          in
          let body = stmts facts inner l.body in
          match (lo, hi, step) with
          | Int a, Int b, _ when b <= a -> []
          | Int a, Int b, Int s when s > 0 && a + s >= b ->
              (* single iteration: inline with v = lo *)
              stmts facts bounds (subst_var l.v (Int a) body)
          | _ -> [ For { l with lo; hi; step; body } ]))
    body

let run_func (f : func) =
  { f with body = stmts (facts_of f.body) Int_map.empty f.body }

let run (m : module_) = { m with funcs = List.map run_func m.funcs }
