open Gc_microkernel
open Gc_graph_ir
open Gc_lowering

(** Layout propagation (paper §Graph IR Optimization): chooses template
    parameters for every matmul (recording them for the fusion pass and
    the lowering), and propagates blocked layouts through chains of
    Tunable OPs:

    - a 2-D matmul publishes its output in the blocked layout its
      template produces when the output reaches only 2-D matmuls' A
      operands, directly or through single-consumer, same-shape
      elementwise ops (bias, relu, casts, requantization) — every tensor
      on that chain takes the blocked layout, so the next layer's BRGEMM
      reads its A in place with no packing;
    - when an input arrives already blocked, the heuristic is re-run
      constrained to matching tiles and the aligned choice is kept when
      its modelled cost is within [align_tolerance] of the optimum;
      otherwise the consumer sends the chain that published it back to
      plain, and reads it plain;
    - a matmul that reads a plain A keeps the free tiling and, with
      [propagate_activations], sets [Params.read_plain]: the lowering
      then reads plain operands in place at any shape, tails included —
      A and a transposed B through their row pitch, an untransposed f32 B
      as the kernel's K×N rows;
    - constant weights that want a different layout get an explicit
      [Reorder] op, which is a runtime constant and is folded into the
      init function by constant-weight preprocessing;
    - graph inputs and outputs keep their plain layout (reorders at the
      boundary are fused into the templates as packing pre-ops / store
      post-ops). *)

type result = {
  graph : Graph.t;
  params : (int, Params.t) Hashtbl.t;  (** matmul op id → chosen parameters *)
}

(** [propagate_activations:false] keeps every activation plain — only the
    constant-weight prepacking is performed. This is what a primitives
    library can do (each primitive sees one op), and is the baseline's
    setting. *)
val run :
  ?align_tolerance:float ->
  ?propagate_activations:bool ->
  machine:Machine.t ->
  Graph.t ->
  result

(** [activation_chain g c]: the tensors layout propagation publishes
    blocked from a 2-D matmul's output [c] — [c] and the outputs of the
    single-consumer, same-shape elementwise ops after it, last first —
    when the walk ends at a tensor that only 2-D matmuls read as their A
    operand (before a fan-out or a graph output); [None] otherwise. *)
val activation_chain :
  Graph.t -> Logical_tensor.t -> Logical_tensor.t list option

(** Parameter choice for one matmul op (shared with the fusion pass when
    layout propagation is disabled). *)
val choose_params : machine:Machine.t -> Op.t -> Params.t
