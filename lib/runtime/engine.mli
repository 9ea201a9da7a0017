open Gc_tensor
open Gc_tensor_ir

(** The execution engine: compiles Tensor IR functions into nested OCaml
    closures (threaded code — no AST dispatch inside hot loops) and runs
    them over flat buffers, with parallel loops executed on a domain pool
    and [brgemm]/[zero]/[copy] intrinsics dispatched to the expert-tuned
    microkernels.

    This is the repository's substitution for the paper's LLVM JIT backend
    (see DESIGN.md): the loop structure, fusion anchors, merged parallel
    sections and buffer reuse produced by the compiler all execute exactly
    as emitted. *)

type t

(** Compile every function of the module. Raises [Invalid_argument] when
    {!Check.check_module} rejects the module. [pool] defaults to
    {!Parallel.default}.

    Every function and every parallel loop keeps a small lock-free pool
    of execution environments, sized from [pool] and grown when more
    holders than slots hand environments back. Each environment owns an
    arena pre-sized from {!Gc_tir_passes.Buffer_schedule.alloc_plan}, so
    [Alloc] statements install cache-resident arena buffers (zero-filled,
    preserving allocation semantics) instead of allocating, and its own
    brgemm offset arrays. A call or a parallel grain takes an environment,
    and gives it back without the caller's buffers when it returns;
    between take and give it has exactly one holder, so concurrent
    executes never share this state. The pools belong to [t]: dropping the
    engine frees them. *)
val create : ?pool:Parallel.t -> Ir.module_ -> t

val module_ : t -> Ir.module_
val pool : t -> Parallel.t

(** Execution environments the engine's pools have created so far. Warm
    executes create none. *)
val envs_created : t -> int

(** Execution environments resting in the engine's pools. Between calls
    it equals {!envs_created} unless a call raised (its environment is
    dropped). *)
val pooled_envs : t -> int

(** [run_func t name params] executes one function. [params] are positional
    buffers for the function's tensor parameters (lengths are checked
    against each tensor's physical size). *)
val run_func : t -> string -> Buffer.t array -> unit

(** Execute the module entry function. *)
val run_entry : t -> Buffer.t array -> unit

(** Execute the init (runtime-constant preprocessing) function, if the
    module has one. Populates the module's global tensors. *)
val run_init : t -> Buffer.t array -> unit

(** Buffer backing a module-global tensor. *)
val global_buffer : t -> Ir.tensor -> Buffer.t
