open Gc_graph_ir
open Gc_tensor_ir

(** Microkernel-based template lowering of a Tunable fused op (Figure 2/4):
    instantiates the matmul template with the heuristic's parameters,
    inserts the fused pre-ops (packing) and post-op groups at their
    anchors, and emits one Tensor IR function.

    Two template variants are generated from the same skeleton:
    - the 2-D template: parallel mpi × npi core grid over the M/N plane;
    - the batched template (selected when the output has batch dimensions):
      one parallel loop over the flattened batch, each task computing a
      whole single-core matmul — the MHA case, where n-axis reductions
      (softmax) can commit at a post anchor because each task owns full
      rows.

    [tmap] resolves the fused op's external logical tensors to module-level
    Tensor IR tensors ([Some] for function parameters and globals, [None]
    for internal tensors, which get function-local temporaries). *)
val lower :
  tmap:(Logical_tensor.t -> Ir.tensor option) -> Fused_op.t -> Ir.func
