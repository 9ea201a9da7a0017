open Gc_microkernel
open Gc_tensor_ir

(** The performance simulator: a deterministic analytical machine model
    that costs a compiled Tensor IR module on a modelled CPU (default: the
    paper's 32-core Xeon 8358). It substitutes for the paper's hardware
    testbed (see DESIGN.md): absolute cycle counts are estimates, but the
    quantities the compiler's optimizations change — microkernel work,
    cache-level-dependent memory traffic, barriers per parallel section,
    per-primitive API-call overhead — are modelled from first principles,
    so relative comparisons (compiled graph vs primitives, fusion on vs
    off) reproduce the paper's shapes machine-independently.

    Cost rules:
    - [brgemm] intrinsics are costed by {!Ukernel_cost}, in either operand
      form (slab or K×N B, any [ldc]: oneDNN's kernel takes leading
      dimensions natively);
    - loads/stores cost latency-per-element of the cache level the
      accessed tensor's working set fits in (int8 moves 4× more elements
      per line than f32);
    - a parallel loop divides its body over the remaining cores and adds
      one barrier; nested parallel loops run sequentially on their core,
      exactly like the execution engine;
    - guards take their then-branch; loop variables evaluate at their
      lower bound when a bound or argument is not constant. *)

type report = {
  cycles : float;  (** total modelled cycles *)
  compute_cycles : float;  (** microkernel + scalar ALU work *)
  memory_cycles : float;  (** loads/stores through the cache model *)
  barrier_cycles : float;
  api_cycles : float;
  parallel_sections : int;
  time_ms : float;  (** cycles / frequency *)
}

val zero_report : report
val add : report -> report -> report

(** [cost_module ~machine ~api_per_call m] costs one execution of the
    module's entry function. [api_per_call] charges one framework API call
    per entry-level function call (the primitives baseline); otherwise one
    call total (a compiled partition is invoked once). *)
val cost_module : machine:Machine.t -> api_per_call:bool -> Ir.module_ -> report

(** Cost of a single function (all cores available at entry). *)
val cost_func : machine:Machine.t -> Ir.module_ -> Ir.func -> report

val pp_report : Format.formatter -> report -> unit

(** JSON form of a report, for the observability trace exporter (paired
    with wallclock and runtime-counter data in the trace's "perfsim"
    section). *)
val json_of_report : report -> Gc_observe.Json.t
