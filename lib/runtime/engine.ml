open Gc_tensor
open Gc_tensor_ir
open Ir

(* Runtime environment. Scalar variables live in slot arrays; tensors bind
   buffers into [bufs] by compile-time slot. Parallel regions run on their
   own envs, refreshed from the submitting env, so loop variables and
   thread-local Allocs don't race; buffer *contents* stay shared, which is
   exactly the shared-memory semantics of the template's parallel loops.

   An env also owns its per-call memory, so repeated executes allocate
   nothing once it is warm:
   - [arena]: one buffer per [Alloc] site of the function, sized from
     {!Gc_tir_passes.Buffer_schedule.alloc_plan} on first use ([dummy_buf]
     until then). An [Alloc] installs the env's arena buffer into its slot
     (zero-filled, preserving [Buffer.create] semantics).
   - [a_offs]/[b_offs]: brgemm batch offset arrays, grown on demand; a
     dispatch consumes them before it returns. *)
type env = {
  ints : int array;
  floats : float array;
  bufs : Buffer.t array;
  arena : Buffer.t array;
  mutable a_offs : int array;
  mutable b_offs : int array;
}

(* A length-0 placeholder for unfilled buffer slots. *)
let dummy_buf = Buffer.create Dtype.F32 0

let clone_env e =
  {
    ints = Array.copy e.ints;
    floats = Array.copy e.floats;
    bufs = Array.copy e.bufs;
    arena = Array.make (Array.length e.arena) dummy_buf;
    a_offs = [||];
    b_offs = [||];
  }

(* ------------------------------------------------------------------ *)
(* Env pools. Every compiled function and every parallel loop site owns a
   small lock-free pool of envs. A call (or a grain) takes an env, runs on
   it, drops the caller's buffers from it and gives it back. A slot holds
   either a free env or [no_env]; [take] wins an env only by the CAS that
   empties its slot, and [give] publishes one only by the CAS that fills an
   empty slot, so between take and give an env has exactly one holder and
   no two executes ever share an env or its arena. An empty pool means a
   new env (warm-up, or more concurrent holders than ever before). A pool
   starts with one slot per worker of the engine's domain pool plus one
   and doubles when a give finds every slot full, keeping the old slots,
   so it ends up holding one env per concurrent holder it has seen and
   never drops a returned env. The pools live in the compiled closures,
   so their memory goes with the artifact. An env whose call raised is
   dropped, not returned: a straggler grain of an abandoned parallel
   section may still be writing its locals. *)
let no_env =
  { ints = [||]; floats = [||]; bufs = [||]; arena = [||]; a_offs = [||]; b_offs = [||] }

type env_pool = env Atomic.t array Atomic.t

(* The pools of one engine and the number of envs they ever created, so
   callers can see that warm executes create none. *)
type pools = { mutable all : env_pool list; created : int Atomic.t }

let new_pool pools n : env_pool =
  let p = Atomic.make (Array.init n (fun _ -> Atomic.make no_env)) in
  pools.all <- p :: pools.all;
  p

(* [no_env] when every slot is empty *)
let rec take_from slots i =
  if i = Array.length slots then no_env
  else
    let slot = Array.unsafe_get slots i in
    let e = Atomic.get slot in
    if e != no_env && Atomic.compare_and_set slot e no_env then begin
      Gc_observe.Counters.(incr envs_reused);
      e
    end
    else take_from slots (i + 1)

let take (p : env_pool) = take_from (Atomic.get p) 0

let rec give_to slots e i =
  i < Array.length slots
  &&
  let slot = Array.unsafe_get slots i in
  (Atomic.get slot == no_env && Atomic.compare_and_set slot no_env e)
  || give_to slots e (i + 1)

let rec give (p : env_pool) e =
  let slots = Atomic.get p in
  if not (give_to slots e 0) then begin
    let n = Array.length slots in
    let grown =
      Array.init (2 * n) (fun i -> if i < n then slots.(i) else Atomic.make no_env)
    in
    ignore (Atomic.compare_and_set p slots grown);
    give p e
  end

let idle_envs (p : env_pool) =
  Array.fold_left
    (fun n slot -> if Atomic.get slot == no_env then n else n + 1)
    0 (Atomic.get p)

(* A parallel grain's env: a pooled one refreshed from the submitting env
   by blitting, or a clone of it. *)
let borrow_scratch pools p env =
  let s = take p in
  if s == no_env then begin
    Atomic.incr pools.created;
    clone_env env
  end
  else begin
    Array.blit env.ints 0 s.ints 0 (Array.length env.ints);
    Array.blit env.floats 0 s.floats 0 (Array.length env.floats);
    Array.blit env.bufs 0 s.bufs 0 (Array.length env.bufs);
    s
  end

let return_scratch p s =
  Array.fill s.bufs 0 (Array.length s.bufs) dummy_buf;
  give p s

(* The arena site of each Alloc'd tensor of one function. *)
type arena_site = { site : int; a_dtype : Dtype.t; a_numel : int; a_bytes : int }

(* Compile-time slot assignment for one function. *)
type ctx = {
  var_slots : (int, int) Hashtbl.t;  (* var id -> slot (ints or floats) *)
  tensor_slots : (int, int) Hashtbl.t;  (* tensor id -> bufs slot *)
  mutable n_ints : int;
  mutable n_floats : int;
  mutable n_bufs : int;
  mutable global_binds : (int * Ir.tensor) list;  (* slot, global tensor *)
}

let new_ctx () =
  {
    var_slots = Hashtbl.create 32;
    tensor_slots = Hashtbl.create 32;
    n_ints = 0;
    n_floats = 0;
    n_bufs = 0;
    global_binds = [];
  }

let is_int_ty = function Index | Boolean -> true | Scalar _ -> false

let var_slot ctx (v : var) =
  match Hashtbl.find_opt ctx.var_slots v.vid with
  | Some s -> s
  | None ->
      let s =
        if is_int_ty v.vty then begin
          let s = ctx.n_ints in
          ctx.n_ints <- s + 1;
          s
        end
        else begin
          let s = ctx.n_floats in
          ctx.n_floats <- s + 1;
          s
        end
      in
      Hashtbl.add ctx.var_slots v.vid s;
      s

let tensor_slot ctx (t : tensor) =
  match Hashtbl.find_opt ctx.tensor_slots t.tid with
  | Some s -> s
  | None ->
      let s = ctx.n_bufs in
      ctx.n_bufs <- s + 1;
      Hashtbl.add ctx.tensor_slots t.tid s;
      (match t.storage with
      | Global -> ctx.global_binds <- (s, t) :: ctx.global_binds
      | Param | Local -> ());
      s

(* Expression typing: int (index/bool) vs float (value). *)
let rec is_int_expr = function
  | Int _ -> true
  | Float _ -> false
  | Var v -> is_int_ty v.vty
  | Load _ -> false
  | Addr _ -> true (* addresses are offsets; only valid in intrinsic args *)
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> true
  | Binop ((Mod | Div | Add | Sub | Mul | Min | Max), a, b) ->
      is_int_expr a && is_int_expr b
  | Unop ((Exp | Tanh | Sqrt | Rcp), _) -> false
  | Unop ((Neg | Abs | Round), a) -> is_int_expr a
  | Unop (Not, _) -> true
  | Cast (_, _) -> false
  | Select (_, a, b) -> is_int_expr a && is_int_expr b

(* [Float.min]/[Float.max] with the stdlib's NaN / signed-zero semantics,
   expanded where they are used (even a same-module function call would box
   both float arguments and the result — ocamlopt's inliner does not pick
   these up — which showed up as 4 words per element in interpreted relu
   loops). [Float.sign_bit] is an unboxed noalloc external; NaN tests are
   written [x <> x] so no boxed stdlib call is involved. *)

(* A float expression temporary (lives in [env.floats] above the named
   variables). Allocated per expression node at compile time — bounded by
   program size — so the destination-passing evaluator below never
   allocates at run time. *)
let temp_slot ctx =
  let s = ctx.n_floats in
  ctx.n_floats <- s + 1;
  s

(* Row-major strides for a dims vector. *)
let strides_of dims =
  let n = Array.length dims in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * dims.(i + 1)
  done;
  s

(* [Dtype.saturate], inlined for the integer stores and casts, where a
   cross-module call would box its float argument and result per element.
   Bit-identical to it: round half away from zero, NaN to 0, then clamp;
   [x <= lo] also maps -0. to the u8 bound +0., as [Float.max 0. (-0.)]
   does. *)
let[@inline] saturate lo hi x =
  let x = Float.round x in
  if x <> x then 0. else if x >= hi then hi else if x <= lo then lo else x

let s32_lo = Dtype.min_value S32
let s32_hi = Dtype.max_value S32
let s8_lo = Dtype.min_value S8
let s8_hi = Dtype.max_value S8
let u8_lo = Dtype.min_value U8
let u8_hi = Dtype.max_value U8

let rec cint ctx (e : expr) : env -> int =
  match e with
  | Int i -> fun _ -> i
  | Float f ->
      let i = int_of_float f in
      fun _ -> i
  | Var v ->
      let s = var_slot ctx v in
      if is_int_ty v.vty then fun env -> Array.unsafe_get env.ints s
      else fun env -> int_of_float (Array.unsafe_get env.floats s)
  | Binop (op, a, b) -> (
      if not (is_int_expr e) then
        let dst = temp_slot ctx in
        let ce = cflt_into ctx e dst in
        fun env ->
          ce env;
          int_of_float (Array.unsafe_get env.floats dst)
      else
        let ca = cint ctx a and cb = cint ctx b in
        match op with
        | Add -> fun env -> ca env + cb env
        | Sub -> fun env -> ca env - cb env
        | Mul -> fun env -> ca env * cb env
        | Div -> fun env -> ca env / cb env
        | Mod -> fun env -> ca env mod cb env
        | Min -> fun env -> Stdlib.min (ca env) (cb env)
        | Max -> fun env -> Stdlib.max (ca env) (cb env)
        | And -> fun env -> if ca env <> 0 && cb env <> 0 then 1 else 0
        | Or -> fun env -> if ca env <> 0 || cb env <> 0 then 1 else 0
        | Eq | Ne | Lt | Le | Gt | Ge ->
            if is_int_expr a && is_int_expr b then
              let cmp : int -> int -> bool =
                match op with
                | Eq -> ( = )
                | Ne -> ( <> )
                | Lt -> ( < )
                | Le -> ( <= )
                | Gt -> ( > )
                | Ge -> ( >= )
                | _ -> assert false
              in
              fun env -> if cmp (ca env) (cb env) then 1 else 0
            else
              (* operands evaluate into float temps; comparing slot reads
                 keeps the floats unboxed (a [float -> float -> bool]
                 closure would box both arguments per element) *)
              let da = temp_slot ctx in
              let ea = cflt_into ctx a da in
              let db = temp_slot ctx in
              let eb = cflt_into ctx b db in
              match op with
              | Eq ->
                  fun env ->
                    ea env;
                    eb env;
                    if
                      Array.unsafe_get env.floats da
                      = Array.unsafe_get env.floats db
                    then 1
                    else 0
              | Ne ->
                  fun env ->
                    ea env;
                    eb env;
                    if
                      Array.unsafe_get env.floats da
                      <> Array.unsafe_get env.floats db
                    then 1
                    else 0
              | Lt ->
                  fun env ->
                    ea env;
                    eb env;
                    if
                      Array.unsafe_get env.floats da
                      < Array.unsafe_get env.floats db
                    then 1
                    else 0
              | Le ->
                  fun env ->
                    ea env;
                    eb env;
                    if
                      Array.unsafe_get env.floats da
                      <= Array.unsafe_get env.floats db
                    then 1
                    else 0
              | Gt ->
                  fun env ->
                    ea env;
                    eb env;
                    if
                      Array.unsafe_get env.floats da
                      > Array.unsafe_get env.floats db
                    then 1
                    else 0
              | Ge ->
                  fun env ->
                    ea env;
                    eb env;
                    if
                      Array.unsafe_get env.floats da
                      >= Array.unsafe_get env.floats db
                    then 1
                    else 0
              | _ -> assert false)
  | Unop (Neg, a) when is_int_expr a ->
      let ca = cint ctx a in
      fun env -> -ca env
  | Unop (Abs, a) when is_int_expr a ->
      let ca = cint ctx a in
      fun env -> Stdlib.abs (ca env)
  | Unop (Not, a) ->
      let ca = cint ctx a in
      fun env -> if ca env = 0 then 1 else 0
  | Select (c, a, b) when is_int_expr e ->
      let cc = cint ctx c and ca = cint ctx a and cb = cint ctx b in
      fun env -> if cc env <> 0 then ca env else cb env
  | Addr (t, idx) ->
      (* offset of the element within the tensor's buffer *)
      let _slot = tensor_slot ctx t in
      let off = coffset ctx t idx in
      off
  | e ->
      let dst = temp_slot ctx in
      let ce = cflt_into ctx e dst in
      fun env ->
        ce env;
        int_of_float (Array.unsafe_get env.floats dst)

and coffset ctx (t : tensor) idx : env -> int =
  if Array.length idx <> Array.length t.dims then
    Gc_errors.compile_error ~stage:"engine"
      ~ctx:
        [
          ("tensor", t.tname);
          ("rank", string_of_int (Array.length t.dims));
          ("indices", string_of_int (Array.length idx));
        ]
      (Printf.sprintf "Engine: tensor %s rank mismatch in access" t.tname);
  let strides = strides_of t.dims in
  (* Fold at closure-compile time: constant terms (the zeros a shrunk
     temporary keeps in its size-1 dims) add into one base offset,
     variable terms are read straight from their int slots inside one
     closure, and a unit stride (the innermost dim) skips its multiply.
     Only computed terms keep a closure each. *)
  let base = ref 0 and slots = ref [] and computed = ref [] in
  Array.iteri
    (fun i e ->
      let s = strides.(i) in
      match e with
      | Int c -> base := !base + (c * s)
      | Var v when is_int_ty v.vty -> slots := (var_slot ctx v, s) :: !slots
      | e ->
          let ci = cint ctx e in
          computed := (if s = 1 then ci else fun env -> ci env * s) :: !computed)
    idx;
  let b = !base and computed = List.rev !computed in
  (* the base plus the variable terms, as one closure *)
  let slot_sum =
    match List.rev !slots with
    | [] -> None
    | [ (k, 1) ] -> Some (fun env -> b + Array.unsafe_get env.ints k)
    | [ (k, s) ] -> Some (fun env -> b + (Array.unsafe_get env.ints k * s))
    | [ (k, s); (l, 1) ] ->
        Some
          (fun env ->
            let ints = env.ints in
            b + (Array.unsafe_get ints k * s) + Array.unsafe_get ints l)
    | [ (k, s); (l, t); (m, 1) ] ->
        Some
          (fun env ->
            let ints = env.ints in
            b
            + (Array.unsafe_get ints k * s)
            + (Array.unsafe_get ints l * t)
            + Array.unsafe_get ints m)
    | ts ->
        let ks = Array.of_list (List.map fst ts)
        and ss = Array.of_list (List.map snd ts) in
        Some
          (fun env ->
            let acc = ref b in
            for i = 0 to Array.length ks - 1 do
              acc :=
                !acc
                + (Array.unsafe_get env.ints (Array.unsafe_get ks i)
                  * Array.unsafe_get ss i)
            done;
            !acc)
  in
  let b, parts =
    match slot_sum with Some f -> (0, f :: computed) | None -> (b, computed)
  in
  match parts with
  | [] -> fun _ -> b
  | [ p ] when b = 0 -> p
  | [ p ] -> fun env -> b + p env
  | [ p; q ] -> fun env -> b + p env + q env
  | [ p; q; r ] -> fun env -> b + p env + q env + r env
  | [ p; q; r; s ] -> fun env -> b + p env + q env + r env + s env
  | ps -> fun env -> List.fold_left (fun acc p -> acc + p env) b ps

(* Destination-passing float evaluation: the compiled closure leaves the
   value in [env.floats.(dst)] and returns unit. An [env -> float] closure
   would box its result at every indirect call (no flambda), which made
   the interpreted glue loops allocate per element; writing into the
   preallocated slot array keeps every float unboxed end to end. *)
and cflt_into ctx (e : expr) (dst : int) : env -> unit =
  match e with
  | Float f -> fun env -> Array.unsafe_set env.floats dst f
  | Int i ->
      let f = float_of_int i in
      fun env -> Array.unsafe_set env.floats dst f
  | Var v ->
      let s = var_slot ctx v in
      if is_int_ty v.vty then
        fun env ->
          Array.unsafe_set env.floats dst
            (float_of_int (Array.unsafe_get env.ints s))
      else if s = dst then fun _ -> ()
      else
        fun env ->
          Array.unsafe_set env.floats dst (Array.unsafe_get env.floats s)
  | Load (t, idx) ->
      let slot = tensor_slot ctx t in
      let off = coffset ctx t idx in
      (* reads go through the Bigarray primitive directly, with the same
         widening as [Buffer.unsafe_get]: that is a cross-module call whose
         float result would be boxed per element *)
      fun env ->
        let x =
          match Array.unsafe_get env.bufs slot with
          | Buffer.F32 a | Buffer.Bf16 a ->
              Bigarray.Array1.unsafe_get a (off env)
          | Buffer.S32 a -> Int32.to_float (Bigarray.Array1.unsafe_get a (off env))
          | Buffer.S8 a -> float_of_int (Bigarray.Array1.unsafe_get a (off env))
          | Buffer.U8 a -> float_of_int (Bigarray.Array1.unsafe_get a (off env))
          | b -> Buffer.unsafe_get b (off env)
        in
        Array.unsafe_set env.floats dst x
  | Binop (op, a, b) -> (
      if is_int_expr e then
        let ci = cint ctx e in
        fun env -> Array.unsafe_set env.floats dst (float_of_int (ci env))
      else
        match op with
        | Eq | Ne | Lt | Le | Gt | Ge | And | Or ->
            let ci = cint ctx e in
            fun env -> Array.unsafe_set env.floats dst (float_of_int (ci env))
        | Add | Sub | Mul | Div | Mod | Min | Max -> (
            let da = temp_slot ctx in
            let ea = cflt_into ctx a da in
            let db = temp_slot ctx in
            let eb = cflt_into ctx b db in
            match op with
            | Add ->
                fun env ->
                  ea env;
                  eb env;
                  Array.unsafe_set env.floats dst
                    (Array.unsafe_get env.floats da
                    +. Array.unsafe_get env.floats db)
            | Sub ->
                fun env ->
                  ea env;
                  eb env;
                  Array.unsafe_set env.floats dst
                    (Array.unsafe_get env.floats da
                    -. Array.unsafe_get env.floats db)
            | Mul ->
                fun env ->
                  ea env;
                  eb env;
                  Array.unsafe_set env.floats dst
                    (Array.unsafe_get env.floats da
                    *. Array.unsafe_get env.floats db)
            | Div ->
                fun env ->
                  ea env;
                  eb env;
                  Array.unsafe_set env.floats dst
                    (Array.unsafe_get env.floats da
                    /. Array.unsafe_get env.floats db)
            | Mod ->
                fun env ->
                  ea env;
                  eb env;
                  Array.unsafe_set env.floats dst
                    (Float.rem
                       (Array.unsafe_get env.floats da)
                       (Array.unsafe_get env.floats db))
            | Min ->
                fun env ->
                  ea env;
                  eb env;
                  let x = Array.unsafe_get env.floats da in
                  let y = Array.unsafe_get env.floats db in
                  Array.unsafe_set env.floats dst
                    (if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x)
                     then if y <> y then y else x
                     else if x <> x then x else y)
            | Max ->
                fun env ->
                  ea env;
                  eb env;
                  let x = Array.unsafe_get env.floats da in
                  let y = Array.unsafe_get env.floats db in
                  Array.unsafe_set env.floats dst
                    (if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x)
                     then if x <> x then x else y
                     else if y <> y then y else x)
            | _ -> assert false))
  | Unop (op, a) -> (
      match op with
      | Neg when is_int_expr a ->
          let ci = cint ctx a in
          fun env -> Array.unsafe_set env.floats dst (float_of_int (-ci env))
      | Not ->
          let ci = cint ctx e in
          fun env -> Array.unsafe_set env.floats dst (float_of_int (ci env))
      | Neg | Exp | Tanh | Sqrt | Abs | Round | Rcp -> (
          (* evaluate the operand into [dst], transform in place *)
          let ea = cflt_into ctx a dst in
          match op with
          | Neg ->
              fun env ->
                ea env;
                Array.unsafe_set env.floats dst
                  (-.Array.unsafe_get env.floats dst)
          | Exp ->
              fun env ->
                ea env;
                Array.unsafe_set env.floats dst
                  (Stdlib.exp (Array.unsafe_get env.floats dst))
          | Tanh ->
              fun env ->
                ea env;
                Array.unsafe_set env.floats dst
                  (Stdlib.tanh (Array.unsafe_get env.floats dst))
          | Sqrt ->
              fun env ->
                ea env;
                Array.unsafe_set env.floats dst
                  (Stdlib.sqrt (Array.unsafe_get env.floats dst))
          | Abs ->
              fun env ->
                ea env;
                Array.unsafe_set env.floats dst
                  (Float.abs (Array.unsafe_get env.floats dst))
          | Round ->
              fun env ->
                ea env;
                Array.unsafe_set env.floats dst
                  (Float.round (Array.unsafe_get env.floats dst))
          | Rcp ->
              fun env ->
                ea env;
                Array.unsafe_set env.floats dst
                  (1. /. Array.unsafe_get env.floats dst)
          | _ -> assert false))
  | Cast (dt, a) -> (
      let ea = cflt_into ctx a dst in
      match dt with
      | Dtype.F32 -> ea
      | S32 | S8 | U8 ->
          let lo = Dtype.min_value dt and hi = Dtype.max_value dt in
          fun env ->
            ea env;
            Array.unsafe_set env.floats dst
              (saturate lo hi (Array.unsafe_get env.floats dst))
      | Bf16 | S64 ->
          fun env ->
            ea env;
            Array.unsafe_set env.floats dst
              (Dtype.round_to dt (Array.unsafe_get env.floats dst)))
  | Select (c, a, b) ->
      let cc = cint ctx c in
      let ea = cflt_into ctx a dst and eb = cflt_into ctx b dst in
      fun env -> if cc env <> 0 then ea env else eb env
  | Addr (t, _) ->
      Gc_errors.compile_error ~stage:"engine"
        ~ctx:[ ("tensor", t.tname) ]
        (Printf.sprintf "Engine: Addr of %s used as a value outside a call"
           t.tname)

(* Float-returning wrapper for the few cold call sites that want a value
   (sibling-call scalar arguments); hot per-element paths use [cflt_into]. *)
and cflt ctx (e : expr) : env -> float =
  match e with
  | Float f -> fun _ -> f
  | Var v when not (is_int_ty v.vty) ->
      let s = var_slot ctx v in
      fun env -> Array.unsafe_get env.floats s
  | e ->
      let dst = temp_slot ctx in
      let ce = cflt_into ctx e dst in
      fun env ->
        ce env;
        Array.unsafe_get env.floats dst

(* [cf_run bufs scalars] runs the function on positional arguments;
   [cf_call caller targs sargs] runs it as a sibling call, reading the
   tensor arguments from the caller's buffer slots [targs] and evaluating
   the scalar arguments [sargs] on the caller's env. *)
type compiled_func = {
  cf_run : Buffer.t array -> float array -> unit;
  cf_call : env -> int array -> (env -> float) array -> unit;
}

type t = {
  module_ : Ir.module_;
  pool : Parallel.t;
  funcs : (string, compiled_func) Hashtbl.t;
  globals : (int, Buffer.t) Hashtbl.t;  (* tensor id -> buffer *)
  pools : pools;
}

let addr_arg ctx (e : expr) =
  match e with
  | Addr (t, idx) -> (tensor_slot ctx t, coffset ctx t idx)
  | _ ->
      Gc_errors.compile_error ~stage:"engine"
        "Engine: intrinsic operand must be an address"

(* Compile a leaf statement (everything except For/If/function-calls,
   which [compile_func] handles so it can thread the pool and sibling
   lookup through). [sites] maps Alloc'd tensors to their arena sites. *)
let rec cstmt_leaf ctx sites (s : stmt) : env -> unit =
  match s with
  | Assign (v, e) ->
      let slot = var_slot ctx v in
      if is_int_ty v.vty then
        let ce = cint ctx e in
        fun env -> Array.unsafe_set env.ints slot (ce env)
      else
        (* the variable's slot is the expression's destination *)
        cflt_into ctx e slot
  | Store (t, idx, e) ->
      let slot = tensor_slot ctx t in
      let off = coffset ctx t idx in
      let dst = temp_slot ctx in
      let ce = cflt_into ctx e dst in
      fun env ->
        ce env;
        let v = Array.unsafe_get env.floats dst in
        (* stores through the Bigarray primitive, saturating like
           [Buffer.unsafe_set]: that is a cross-module call that would box
           the float argument *)
        (match Array.unsafe_get env.bufs slot with
        | Buffer.F32 a -> Bigarray.Array1.unsafe_set a (off env) v
        | Buffer.S32 a ->
            Bigarray.Array1.unsafe_set a (off env)
              (Int32.of_float (saturate s32_lo s32_hi v))
        | Buffer.S8 a ->
            Bigarray.Array1.unsafe_set a (off env)
              (int_of_float (saturate s8_lo s8_hi v))
        | Buffer.U8 a ->
            Bigarray.Array1.unsafe_set a (off env)
              (int_of_float (saturate u8_lo u8_hi v))
        | b -> Buffer.unsafe_set b (off env) v)
  | Alloc t ->
      let slot = tensor_slot ctx t in
      (* serve the local from the env's arena; zero-fill to keep exact
         [Buffer.create] semantics for reused buffers. The plan lists
         every Alloc of the function, so the site exists. *)
      let { site; a_dtype; a_numel; a_bytes } = Hashtbl.find sites t.tid in
      fun env ->
        let b = Array.unsafe_get env.arena site in
        let b =
          if b != dummy_buf then begin
            Gc_observe.Counters.(incr arena_hits);
            Gc_observe.Counters.(add arena_bytes_saved a_bytes);
            Buffer.fill_range b 0 a_numel 0.;
            b
          end
          else begin
            Gc_observe.Counters.(add bytes_allocated a_bytes);
            let b = Buffer.create ~name:t.tname a_dtype a_numel in
            env.arena.(site) <- b;
            b
          end
        in
        env.bufs.(slot) <- b
  | Barrier -> fun _ -> Gc_observe.Counters.(incr barriers)
  | Call (name, args) -> ccall ctx name args
  | For _ | If _ -> assert false

and ccall ctx name args : env -> unit =
  match name with
  | "brgemm" -> (
      match Intrinsic.brgemm_args args with
      | Some g ->
          let cbatch = cint ctx g.batch
          and cmb = cint ctx g.mb
          and cnb = cint ctx g.nb
          and ckb = cint ctx g.kb
          and aslot, aoff = addr_arg ctx g.a
          and castride = cint ctx g.a_stride
          and bslot, boff = addr_arg ctx g.b
          and cbstride = cint ctx g.b_stride
          and cslot, coff = addr_arg ctx g.c
          and clda = cint ctx g.lda
          and cldb = cint ctx g.ldb
          and cldc = cint ctx g.ldc
          and cklast = cint ctx g.klast in
          fun env ->
            Gc_observe.Counters.(incr kernel_invocations);
            Guard.check ();
            let batch = cbatch env in
            let a0 = aoff env and b0 = boff env in
            let sa = castride env and sb = cbstride env in
            if Array.length env.a_offs < batch then begin
              env.a_offs <- Array.make batch 0;
              env.b_offs <- Array.make batch 0
            end;
            let a_offs = env.a_offs and b_offs = env.b_offs in
            for i = 0 to batch - 1 do
              Array.unsafe_set a_offs i (a0 + (i * sa));
              Array.unsafe_set b_offs i (b0 + (i * sb))
            done;
            Gc_microkernel.Brgemm.dispatch_ld ~lda:(clda env) ~ldb:(cldb env)
              ~ldc:(cldc env) ~klast:(cklast env) ~batch ~mb:(cmb env) ~nb:(cnb env) ~kb:(ckb env)
              ~a:(Array.unsafe_get env.bufs aslot)
              ~a_offs
              ~b:(Array.unsafe_get env.bufs bslot)
              ~b_offs
              ~c:(Array.unsafe_get env.bufs cslot)
              ~c_off:(coff env)
      | None ->
          Gc_errors.compile_error ~stage:"engine" "Engine: brgemm expects 9 to 13 args")
  | "zero" -> (
      match args with
      | [ addr; count ] ->
          let slot, off = addr_arg ctx addr in
          let ccount = cint ctx count in
          fun env ->
            Gc_observe.Counters.(incr kernel_invocations);
            Guard.check ();
            Buffer.fill_range
              (Array.unsafe_get env.bufs slot)
              (off env) (ccount env) 0.
      | _ ->
          Gc_errors.compile_error ~stage:"engine" "Engine: zero expects 2 args")
  | "copy" -> (
      match args with
      | [ dst; src; count ] ->
          let dslot, doff = addr_arg ctx dst in
          let sslot, soff = addr_arg ctx src in
          let dname = match dst with Addr (t, _) -> t.tname | _ -> "" in
          let ccount = cint ctx count in
          fun env ->
            Gc_observe.Counters.(incr kernel_invocations);
            Guard.check ();
            Buffer.copy_range ~name:dname
              ~src:(Array.unsafe_get env.bufs sslot)
              ~soff:(soff env)
              ~dst:(Array.unsafe_get env.bufs dslot)
              ~doff:(doff env) (ccount env)
      | _ ->
          Gc_errors.compile_error ~stage:"engine"
            "Engine: copy expects 3 args")
  | _ ->
      Gc_errors.compile_error ~stage:"engine"
        ~ctx:[ ("call", name) ]
        (Printf.sprintf "Engine: unresolved call %S at compile" name)

(* Compile a function. Calls to sibling functions are resolved through
   [lookup] lazily (the entry function is compiled after the fused-op
   functions it calls, but order independence is safer). *)
let compile_func ~pools pool (lookup : string -> compiled_func)
    globals (f : func) : compiled_func =
  let ctx = new_ctx () in
  (* at most one holder per worker of [pool] runs a section's grains, plus
     one for a concurrent submitter that runs it inline *)
  let pool_slots = Parallel.size pool + 1 in
  (* the arena plan: one pre-sized slot per Alloc site *)
  let plan = Gc_tir_passes.Buffer_schedule.alloc_plan f in
  let sites = Hashtbl.create (Array.length plan) in
  Array.iteri
    (fun i (s : Gc_tir_passes.Buffer_schedule.alloc_slot) ->
      Hashtbl.replace sites s.slot_tensor.tid
        {
          site = i;
          a_dtype = s.slot_dtype;
          a_numel = s.slot_numel;
          a_bytes = s.slot_bytes;
        })
    plan;
  (* params get the first buffer slots, in order *)
  let tensor_params =
    List.filter_map (function Ptensor t -> Some t | Pvar _ -> None) f.params
  in
  let scalar_params =
    List.filter_map (function Pvar v -> Some v | Ptensor _ -> None) f.params
  in
  List.iter (fun t -> ignore (tensor_slot ctx t)) tensor_params;
  List.iter (fun v -> ignore (var_slot ctx v)) scalar_params;
  (* function calls need special compilation: gather tensor args *)
  let rec cstmt' (s : stmt) : env -> unit =
    match s with
    | Call (name, args) when Intrinsic.lookup name = None ->
        (* call to a sibling function: args are tensor addresses (offset 0)
           or scalars *)
        let targs =
          Array.of_list
            (List.filter_map
               (function Addr (t, _) -> Some (tensor_slot ctx t) | _ -> None)
               args)
        in
        let sargs =
          Array.of_list
            (List.filter_map
               (function Addr _ -> None | e -> Some (cflt ctx e))
               args)
        in
        let callee = ref None in
        fun env ->
          let cf =
            match !callee with
            | Some cf -> cf
            | None ->
                let cf = lookup name in
                callee := Some cf;
                cf
          in
          cf.cf_call env targs sargs
    | For l ->
        let vslot = var_slot ctx l.v in
        let clo = cint ctx l.lo and chi = cint ctx l.hi and cstep = cint ctx l.step in
        let body = cbody' l.body in
        if l.parallel then begin
          let scratch = new_pool pools pool_slots in
          fun env ->
            let lo = clo env and hi = chi env and step = cstep env in
            if step <> 1 then begin
              let i = ref lo in
              while !i < hi do
                env.ints.(vslot) <- !i;
                body env;
                i := !i + step
              done
            end
            else
              Parallel.parallel_for pool ~lo ~hi (fun c0 c1 ->
                  let local = borrow_scratch pools scratch env in
                  for i = c0 to c1 - 1 do
                    Array.unsafe_set local.ints vslot i;
                    body local
                  done;
                  return_scratch scratch local)
        end
        else
          fun env ->
            let hi = chi env and step = cstep env in
            let i = ref (clo env) in
            while !i < hi do
              Array.unsafe_set env.ints vslot !i;
              body env;
              i := !i + step
            done
    | If (c, th, el) ->
        let cc = cint ctx c in
        let cth = cbody' th and cel = cbody' el in
        fun env -> if cc env <> 0 then cth env else cel env
    | s -> cstmt_leaf ctx sites s
  and cbody' body : env -> unit =
    let cs = Array.of_list (List.map cstmt' body) in
    match Array.length cs with
    | 0 -> fun _ -> ()
    | 1 -> cs.(0)
    | _ ->
        fun env ->
          for i = 0 to Array.length cs - 1 do
            (Array.unsafe_get cs i) env
          done
  in
  let body = cbody' f.body in
  let n_params = List.length tensor_params in
  let n_scalars = List.length scalar_params in
  let param_sizes = Array.of_list (List.map tensor_numel tensor_params) in
  (* snapshot slot counts *after* compiling the body *)
  let n_ints = ctx.n_ints and n_floats = ctx.n_floats and n_bufs = ctx.n_bufs in
  (* globals are created in [create] before any function compiles, and
     their buffer identity is stable (constant refreshes blit in place), so
     resolve them once at compile time instead of on every call *)
  let global_bufs =
    List.map
      (fun (slot, (g : tensor)) ->
        match Hashtbl.find_opt globals g.tid with
        | Some b -> (slot, b)
        | None ->
            Gc_errors.compile_error ~stage:"engine"
              ~ctx:[ ("global", g.tname) ]
              (Printf.sprintf "Engine: unbound global %s" g.tname))
      ctx.global_binds
  in
  (* the buffer slots of an idle env: globals bound, everything else
     [dummy_buf]. Param slots are filled per call, local slots are
     re-installed by Alloc before any access (Check guarantees
     def-before-use). *)
  let idle_bufs = Array.make (max 1 n_bufs) dummy_buf in
  List.iter (fun (slot, b) -> idle_bufs.(slot) <- b) global_bufs;
  let fresh_env () =
    {
      ints = Array.make (max 1 n_ints) 0;
      floats = Array.make (max 1 n_floats) 0.;
      bufs = Array.copy idle_bufs;
      arena = Array.make (Array.length plan) dummy_buf;
      a_offs = [||];
      b_offs = [||];
    }
  in
  (* top-level envs come from the function's pool *)
  let envs = new_pool pools pool_slots in
  let acquire () =
    let env = take envs in
    if env == no_env then begin
      Atomic.incr pools.created;
      fresh_env ()
    end
    else env
  in
  let release env =
    Array.blit idle_bufs 0 env.bufs 0 (Array.length idle_bufs);
    give envs env
  in
  let bad_arity ~what ~expected ~got =
    Gc_errors.invalid_input
      ~ctx:
        [
          ("func", f.fname);
          ("expected", string_of_int expected);
          ("got", string_of_int got);
        ]
      (Printf.sprintf "Engine.run %s: expected %d %s params, got %d" f.fname
         expected what got)
  in
  let check_arity ~nt ~ns =
    if nt <> n_params then bad_arity ~what:"tensor" ~expected:n_params ~got:nt;
    if ns <> n_scalars then bad_arity ~what:"scalar" ~expected:n_scalars ~got:ns
  in
  (* the param buffers, already in the env's first slots *)
  let check_sizes env =
    for i = 0 to n_params - 1 do
      let b = Array.unsafe_get env.bufs i in
      if Buffer.length b < param_sizes.(i) then
        Gc_errors.invalid_input
          ~ctx:
            [
              ("func", f.fname);
              ("param", string_of_int i);
              ("actual", string_of_int (Buffer.length b));
              ("requested", string_of_int param_sizes.(i));
            ]
          (Printf.sprintf "Engine.run %s: param %d buffer too small (%d < %d)"
             f.fname i (Buffer.length b) param_sizes.(i))
    done
  in
  (* one call: [fill env x y z] binds the arguments into the env's param
     slots (passing them through, rather than closing over them, keeps
     calls allocation-free) *)
  let invoke ~nt ~ns fill x y z =
    check_arity ~nt ~ns;
    let env = acquire () in
    fill env x y z;
    check_sizes env;
    body env;
    release env
  in
  let fill_positional env bufs scalars () =
    Array.blit bufs 0 env.bufs 0 n_params;
    Array.blit scalars 0 env.floats 0 n_scalars
  in
  let fill_sibling env caller targs sargs =
    for i = 0 to n_params - 1 do
      Array.unsafe_set env.bufs i
        (Array.unsafe_get caller.bufs (Array.unsafe_get targs i))
    done;
    for i = 0 to n_scalars - 1 do
      Array.unsafe_set env.floats i ((Array.unsafe_get sargs i) caller)
    done
  in
  {
    cf_run =
      (fun bufs scalars ->
        invoke ~nt:(Array.length bufs) ~ns:(Array.length scalars)
          fill_positional bufs scalars ());
    cf_call =
      (fun caller targs sargs ->
        invoke ~nt:(Array.length targs) ~ns:(Array.length sargs) fill_sibling
          caller targs sargs);
  }

let create ?pool (m : Ir.module_) =
  (match Check.check_module m with
  | Ok () -> ()
  | Error e ->
      Gc_errors.compile_error ~stage:"engine"
        ("Engine.create: ill-formed module: " ^ e));
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  let globals = Hashtbl.create 8 in
  List.iter
    (fun (g : tensor) ->
      Hashtbl.replace globals g.tid
        (Buffer.create ~name:g.tname g.tdtype (tensor_numel g)))
    m.globals;
  let funcs = Hashtbl.create 16 in
  let pools = { all = []; created = Atomic.make 0 } in
  let rec lookup name =
    match Hashtbl.find_opt funcs name with
    | Some cf -> cf
    | None -> (
        match Ir.find_func m name with
        | Some f ->
            let cf = compile_func ~pools pool lookup globals f in
            Hashtbl.replace funcs name cf;
            cf
        | None ->
            Gc_errors.compile_error ~stage:"engine"
              ~ctx:[ ("func", name) ]
              (Printf.sprintf "Engine: unknown function %S" name))
  in
  List.iter (fun (f : func) -> ignore (lookup f.fname)) m.funcs;
  { module_ = m; pool; funcs; globals; pools }

let module_ t = t.module_
let pool t = t.pool
let envs_created t = Atomic.get t.pools.created
let pooled_envs t = List.fold_left (fun n p -> n + idle_envs p) 0 t.pools.all

let run_func t name params =
  match Hashtbl.find_opt t.funcs name with
  | Some cf -> cf.cf_run params [||]
  | None ->
      Gc_errors.invalid_input
        ~ctx:[ ("func", name) ]
        (Printf.sprintf "Engine.run_func: unknown function %S" name)

let run_entry t params = run_func t t.module_.entry params

let run_init t params =
  match t.module_.init with
  | Some i -> run_func t i params
  | None -> ()

let global_buffer t (g : tensor) =
  match Hashtbl.find_opt t.globals g.tid with
  | Some b -> b
  | None ->
      Gc_errors.invalid_input
        ~ctx:[ ("global", g.tname) ]
        (Printf.sprintf "Engine.global_buffer: unbound global %s" g.tname)
