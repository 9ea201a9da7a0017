open Gc_tensor_ir

(** Tensor size optimization (paper §Tensor IR optimization): reduces the
    footprint of the temporary tensors fusion introduced.

    Two transformations:
    - {b Alloc sinking}: each local tensor's allocation moves to the
      deepest scope containing all its accesses — temporaries used only
      inside a parallel task become task-local;
    - {b invariant-dimension shrinking}: after sinking, any dimension
      whose index expression is the same at every access site and is fixed
      for the tensor's whole lifetime (it only reads loop variables of
      enclosing loops) shrinks to extent 1 — e.g. the full-batch staging
      tensor A'[B, M, N] inside the batch loop becomes A'[1, M, N], the
      paper's "A'[MSN, BS, MB, KB] could be reduced to A'[BS, NB, KB]".
      An address passed to an intrinsic is one more index site, and the
      intrinsic's reach from it (brgemm's A slabs, its B slabs or K×N rows
      [ldb] apart, its C tile of rows [ldc] apart, the count of
      zero/copy) must stay inside the trailing dims, bounded by the
      ranges of the enclosing loops and assignments; an address passed to
      a sibling function pins its tensor. *)

val run_func : Ir.func -> Ir.func
val run : Ir.module_ -> Ir.module_

(** Bytes of local temporaries before/after, for reporting. *)
val local_bytes : Ir.func -> int
