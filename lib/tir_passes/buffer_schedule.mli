open Gc_tensor_ir

(** Memory buffer optimization (paper §Tensor IR optimization): flattens
    the function-top local temporaries to one-dimensional memory buffers
    and reuses them across disjoint live ranges.

    Liveness is computed over the top-level statement order (def-use
    chains at the granularity of the fused-op calls in the entry function);
    at each allocation point the planner prefers reusing the
    most-recently-freed compatible buffer — "it chooses the one that was
    used most recently, so likely the data is still in the cache system" —
    and otherwise opens a new arena. Arenas are sized to the largest
    member. *)

type stats = {
  naive_bytes : int;  (** sum of all local temporaries *)
  planned_bytes : int;  (** sum of arena sizes after reuse *)
  buffers_before : int;
  buffers_after : int;
}

val empty_stats : stats

(** {2 Per-function allocation plan}

    The compile-time contract between the buffer planner and the execution
    engine's arenas: every [Alloc] site of a function, described as a slot
    of known dtype and maximal size. {!Gc_runtime.Engine} pre-sizes one
    arena buffer per slot in each execution environment so the
    steady-state run performs no buffer allocation at all — [Alloc]
    compiles to an install of the arena slot. *)

type alloc_slot = {
  slot_tensor : Ir.tensor;  (** the local being allocated (slots key on its id) *)
  slot_dtype : Gc_tensor.Dtype.t;
  slot_numel : int;  (** element count — static in Tensor IR *)
  slot_bytes : int;
}

type alloc_plan = alloc_slot array

(** All [Alloc] sites of the function (top-level and loop-sunk),
    first-appearance order, deduplicated by tensor id. *)
val alloc_plan : Ir.func -> alloc_plan

(** Total bytes one arena instance of this plan occupies. *)
val plan_bytes : alloc_plan -> int

val run_func : Ir.func -> Ir.func * stats
val run : Ir.module_ -> Ir.module_ * stats
