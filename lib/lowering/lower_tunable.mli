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

(** [reads_plain_in_place p ~k_inner ~rows ~block]: whether the template
    under [p] reads a plain operand in place instead of packing it. It
    must be allowed to ([p.read_plain]), and neither the operand's [rows]
    (M for A, N for B) nor K may leave a tail: [rows] must be a multiple of
    [block] (MB or NB) and K of KB. When K is the operand's innermost axis
    ([k_inner]: always for A, for B under [transpose_b]) the kernel reads
    its rows K apart ([lda], or N×K B's [-ldb]); otherwise B is
    N-innermost and is read as the f32 kernel's K×N rows. {!lower} decides
    with it, and layout propagation asks it before it sets [read_plain]. *)
val reads_plain_in_place : Params.t -> k_inner:bool -> rows:int -> block:int -> bool
