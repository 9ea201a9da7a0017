(** The intrinsic functions Tensor IR can call — each "is carefully
    hand-tuned and fulfills a subtask of a DNN OP with data in the fastest
    cache on a single CPU core".

    Signatures (all operands are expressions; addresses are [Ir.Addr]):
    - [brgemm(batch, mb, nb, kb, &A, a_stride, &B, b_stride, &C, ldb, ldc,
      lda, klast)]: C[mb,nb] += Σ_{i<batch} A_i[mb,kb] · B_i[nb,kb]ᵀ where A_i
      starts [i·a_stride] elements after [&A] and B_i [i·b_stride] after
      [&B] (the template's A_addr/B_addr[0..BS-1] pointer arrays have
      constant stride in every instantiation). [mb] and [nb] are the
      tile's valid extents. The four trailing operands may be left out
      from the end, each taking its slab default:
      - [lda] (default [kb]): A_i's rows are [lda] elements apart, so a
        plain K-innermost tensor is read in place;
      - [ldb] (default 0): [0] keeps B_i an [nb, kb] slab; [ldb < 0] reads
        B_i as nb row-major N×K rows [-ldb] elements apart (a plain
        K-innermost tensor in place); [ldb > 0] reads B_i as kb row-major
        K×N rows [ldb] elements apart (element (k, n) at [&B + i·b_stride +
        k·ldb + n]: a plain N-innermost tensor in place);
      - [ldc] (default [nb]): C's rows are [ldc] elements apart, so the
        kernel can accumulate into a tile of a wider row-major output;
        only the mb×nb tile is written;
      - [klast] (default [kb]): the last block A_{batch-1}/B_{batch-1}
        spans only [klast ≤ kb] of K, so an operand with a K tail is read
        in place up to K (the pitches of slabs stay [kb]);
    - [zero(&T, count)]: zero-fill [count] elements;
    - [copy(&Dst, &Src, count)]: contiguous element copy (with dtype
      conversion when buffers differ). *)

(** [arity] operands, plus any prefix of the optional [trailing] ones
    (named as the printer labels them). *)
type t = { name : string; arity : int; trailing : string list }

val brgemm : t
val zero : t
val copy : t
val all : t list
val lookup : string -> t option

(** [accepts t n]: a call with [n] operands is well-formed. *)
val accepts : t -> int -> bool

(** A brgemm call's operands, the left-out leading dimensions filled with
    their defaults. Every layer that reads a brgemm call decodes it here. *)
type brgemm_args = {
  batch : Ir.expr; mb : Ir.expr; nb : Ir.expr; kb : Ir.expr;
  a : Ir.expr; a_stride : Ir.expr; b : Ir.expr; b_stride : Ir.expr; c : Ir.expr;
  lda : Ir.expr; ldb : Ir.expr; ldc : Ir.expr; klast : Ir.expr;
}

(** [None] when the operand count is not one {!brgemm} accepts. *)
val brgemm_args : Ir.expr list -> brgemm_args option

(** [ragged_extent ~block ~total start] is a tile's valid extent
    [min(block, total - start)] along an axis of [total] elements: the
    [mb], [nb] or [klast] operand of a brgemm that reads an operand with
    a tail where it lies. *)
val ragged_extent : block:int -> total:int -> Ir.expr -> Ir.expr

(** [Some (block, total, start)] when the expression is a
    {!ragged_extent}. *)
val as_ragged_extent : Ir.expr -> (int * int * Ir.expr) option
