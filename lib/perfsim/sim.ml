open Gc_tensor
open Gc_microkernel
open Gc_tensor_ir
open Ir

type report = {
  cycles : float;
  compute_cycles : float;
  memory_cycles : float;
  barrier_cycles : float;
  api_cycles : float;
  parallel_sections : int;
  time_ms : float;
}

let zero_report =
  {
    cycles = 0.;
    compute_cycles = 0.;
    memory_cycles = 0.;
    barrier_cycles = 0.;
    api_cycles = 0.;
    parallel_sections = 0;
    time_ms = 0.;
  }

let add a b =
  {
    cycles = a.cycles +. b.cycles;
    compute_cycles = a.compute_cycles +. b.compute_cycles;
    memory_cycles = a.memory_cycles +. b.memory_cycles;
    barrier_cycles = a.barrier_cycles +. b.barrier_cycles;
    api_cycles = a.api_cycles +. b.api_cycles;
    parallel_sections = a.parallel_sections + b.parallel_sections;
    time_ms = a.time_ms +. b.time_ms;
  }

(* wall-clock cost with its attribution; all fields scale together *)
type cost = { w : float; comp : float; mem : float; bar : float; sect : int }

let czero = { w = 0.; comp = 0.; mem = 0.; bar = 0.; sect = 0 }

let ( ++ ) a b =
  {
    w = a.w +. b.w;
    comp = a.comp +. b.comp;
    mem = a.mem +. b.mem;
    bar = a.bar +. b.bar;
    sect = a.sect + b.sect;
  }

let scale k a =
  { a with w = k *. a.w; comp = k *. a.comp; mem = k *. a.mem; bar = k *. a.bar }

let comp w = { czero with w; comp = w }
let mem w = { czero with w; mem = w }

type ctx = {
  machine : Machine.t;
  vars : (int, int) Hashtbl.t;  (** loop vars, bound at their lower bound *)
  module_ : Ir.module_;
}

(* best-effort integer evaluation of bound/argument expressions *)
let rec eval ctx (e : expr) : int =
  match e with
  | Int i -> i
  | Float f -> int_of_float f
  | Var v -> ( match Hashtbl.find_opt ctx.vars v.vid with Some i -> i | None -> 0)
  | Binop (op, a, b) -> (
      let a = eval ctx a and b = eval ctx b in
      match op with
      | Add -> a + b
      | Sub -> a - b
      | Mul -> a * b
      | Div -> if b <> 0 then a / b else 0
      | Mod -> if b <> 0 then a mod b else 0
      | Min -> min a b
      | Max -> max a b
      | And -> if a <> 0 && b <> 0 then 1 else 0
      | Or -> if a <> 0 || b <> 0 then 1 else 0
      | Eq -> if a = b then 1 else 0
      | Ne -> if a <> b then 1 else 0
      | Lt -> if a < b then 1 else 0
      | Le -> if a <= b then 1 else 0
      | Gt -> if a > b then 1 else 0
      | Ge -> if a >= b then 1 else 0)
  | Unop (Neg, a) -> -eval ctx a
  | Unop (Not, a) -> if eval ctx a = 0 then 1 else 0
  | Unop (_, a) -> eval ctx a
  | Cast (_, a) -> eval ctx a
  | Select (c, a, b) -> if eval ctx c <> 0 then eval ctx a else eval ctx b
  | Load _ | Addr _ -> 0

(* per-element access cost for a tensor: latency of the cache level its
   whole footprint fits in, divided over the elements of one line *)
let element_cost ctx (t : tensor) =
  let m = ctx.machine in
  let bytes = tensor_bytes t in
  let per_line =
    if bytes <= m.Machine.l1_size then m.Machine.l1_latency
    else if bytes <= m.Machine.l2_size then m.Machine.l2_latency
    else if bytes <= m.Machine.llc_size / m.Machine.cores then m.Machine.llc_latency
    else m.Machine.dram_latency
  in
  let elems_per_line = max 1 (m.Machine.cache_line / Dtype.size_bytes t.tdtype) in
  per_line /. float_of_int elems_per_line

let alu_cost = 0.33 (* amortized scalar ops per cycle on a superscalar core *)

let rec expr_cost ctx (e : expr) : cost =
  match e with
  | Int _ | Float _ | Var _ -> czero
  | Load (t, idx) ->
      Array.fold_left
        (fun c i -> c ++ expr_cost ctx i)
        (mem (element_cost ctx t) ++ comp alu_cost)
        idx
  | Addr (_, idx) ->
      Array.fold_left (fun c i -> c ++ expr_cost ctx i) (comp alu_cost) idx
  | Binop (_, a, b) -> comp alu_cost ++ expr_cost ctx a ++ expr_cost ctx b
  | Unop ((Exp | Tanh | Sqrt), a) -> comp 20. ++ expr_cost ctx a
  | Unop (_, a) -> comp alu_cost ++ expr_cost ctx a
  | Cast (_, a) -> comp alu_cost ++ expr_cost ctx a
  | Select (c, a, b) ->
      comp alu_cost ++ expr_cost ctx c ++ expr_cost ctx a ++ expr_cost ctx b

let tensor_of_addr (e : expr) = match e with Addr (t, _) -> Some t | _ -> None

(* A loop body is vectorizable when it is straight-line element work: no
   nested loops, no intrinsic/function calls. *)
let simd_discount = 8.

let rec is_vectorizable (body : stmt list) =
  List.for_all
    (fun s ->
      match s with
      | Assign _ | Store _ | Alloc _ | Barrier -> true
      | If (_, th, el) -> is_vectorizable th && is_vectorizable el
      | For _ | Call _ -> false)
    body

(* cost of one execution of a statement list with [cores] available *)
let rec stmts_cost ctx ~cores (body : stmt list) : cost =
  List.fold_left (fun c s -> c ++ stmt_cost ctx ~cores s) czero body

and stmt_cost ctx ~cores (s : stmt) : cost =
  let m = ctx.machine in
  match s with
  | Assign (_, e) -> comp alu_cost ++ expr_cost ctx e
  | Store (t, idx, e) ->
      Array.fold_left
        (fun c i -> c ++ expr_cost ctx i)
        (mem (element_cost ctx t) ++ expr_cost ctx e)
        idx
  | Alloc _ | Barrier -> czero
  | If (c, th, el) ->
      let branch = if eval ctx c <> 0 then th else el in
      expr_cost ctx c ++ stmts_cost ctx ~cores branch
  | For l ->
      let lo = eval ctx l.lo and hi = eval ctx l.hi and step = max 1 (eval ctx l.step) in
      let trip = max 0 ((hi - lo + step - 1) / step) in
      if trip = 0 then czero
      else begin
        Hashtbl.replace ctx.vars l.v.vid lo;
        let body = stmts_cost ctx ~cores:(if l.parallel then 1 else cores) l.body in
        (* innermost loops of scalar element work (post-op chains, packing,
           reductions) are vectorized by the code generator: discount their
           ALU work by the SIMD width (memory cost is unchanged) *)
        let body =
          if (not l.parallel) && is_vectorizable l.body then
            let comp' = body.comp /. simd_discount in
            { body with w = body.mem +. comp' +. body.bar; comp = comp' }
          else body
        in
        Hashtbl.remove ctx.vars l.v.vid;
        if l.parallel && cores > 1 then begin
          let lanes = min cores trip in
          let per_lane = float_of_int ((trip + lanes - 1) / lanes) in
          scale per_lane body
          ++ { czero with w = m.Machine.barrier_cycles; bar = m.Machine.barrier_cycles; sect = 1 }
        end
        else scale (float_of_int trip) body
      end
  | Call ("brgemm", args) -> (
      match Intrinsic.brgemm_args args with
      (* every form: the modelled kernel reads pitched A, slab, N×K and
         K×N B (and writes a C tile at any ldc) at the same rate. It is
         priced as one block over the call's whole k extent, which is
         the same price as [bs] blocks of [kb] and lets the last block
         stop at [klast]. *)
      | Some g ->
          let dtype =
            match tensor_of_addr g.a with Some t -> t.tdtype | None -> Dtype.F32
          in
          let bs = max 1 (eval ctx g.batch) in
          let k_ext = ((bs - 1) * eval ctx g.kb) + eval ctx g.klast in
          let cost =
            Ukernel_cost.cost ~machine:m ~dtype ~mb:(max 1 (eval ctx g.mb))
              ~nb:(max 1 (eval ctx g.nb))
              ~kb:(max 1 k_ext) ~bs:1
          in
          comp cost.cycles
      | None -> czero)
  | Call ("zero", args) -> (
      match args with
      | [ addr; count ] ->
          let n = float_of_int (max 0 (eval ctx count)) in
          let per =
            match tensor_of_addr addr with Some t -> element_cost ctx t | None -> 0.1
          in
          mem (n *. per)
      | _ -> czero)
  | Call ("copy", args) -> (
      match args with
      | [ dst; src; count ] ->
          let n = float_of_int (max 0 (eval ctx count)) in
          let per t =
            match tensor_of_addr t with Some x -> element_cost ctx x | None -> 0.1
          in
          mem (n *. (per dst +. per src))
      | _ -> czero)
  | Call (fname, _) -> (
      match Ir.find_func ctx.module_ fname with
      | Some f -> stmts_cost ctx ~cores:ctx.machine.Machine.cores f.body
      | None -> czero)

let mk_report machine (c : cost) api =
  {
    cycles = c.w +. api;
    compute_cycles = c.comp;
    memory_cycles = c.mem;
    barrier_cycles = c.bar;
    api_cycles = api;
    parallel_sections = c.sect;
    time_ms = (c.w +. api) /. (machine.Machine.freq_ghz *. 1e6);
  }

let new_ctx machine m = { machine; vars = Hashtbl.create 16; module_ = m }

let cost_func ~machine (m : Ir.module_) (f : Ir.func) =
  let ctx = new_ctx machine m in
  mk_report machine (stmts_cost ctx ~cores:machine.Machine.cores f.body) 0.

let cost_module ~machine ~api_per_call (m : Ir.module_) =
  let entry = Ir.func_exn m m.entry in
  let ctx = new_ctx machine m in
  let total = stmts_cost ctx ~cores:machine.Machine.cores entry.body in
  let calls =
    List.length
      (List.filter
         (fun s -> match s with Call (n, _) -> Intrinsic.lookup n = None | _ -> false)
         entry.body)
  in
  let api =
    machine.Machine.api_call_cycles
    *. float_of_int (if api_per_call then max 1 calls else 1)
  in
  mk_report machine total api

let json_of_report r =
  Gc_observe.Json.Obj
    [
      ("cycles", Gc_observe.Json.Float r.cycles);
      ("compute_cycles", Gc_observe.Json.Float r.compute_cycles);
      ("memory_cycles", Gc_observe.Json.Float r.memory_cycles);
      ("barrier_cycles", Gc_observe.Json.Float r.barrier_cycles);
      ("api_cycles", Gc_observe.Json.Float r.api_cycles);
      ("parallel_sections", Gc_observe.Json.Int r.parallel_sections);
      ("time_ms", Gc_observe.Json.Float r.time_ms);
    ]

let pp_report fmt r =
  Format.fprintf fmt
    "cycles=%.3e (compute %.2e, memory %.2e, barriers %.2e, api %.2e) sections=%d time=%.3fms"
    r.cycles r.compute_cycles r.memory_cycles r.barrier_cycles r.api_cycles
    r.parallel_sections r.time_ms
