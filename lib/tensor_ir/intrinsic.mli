(** The intrinsic functions Tensor IR can call — each "is carefully
    hand-tuned and fulfills a subtask of a DNN OP with data in the fastest
    cache on a single CPU core".

    Signatures (all operands are expressions; addresses are [Ir.Addr]):
    - [brgemm(batch, mb, nb, kb, &A, a_stride, &B, b_stride, &C)]:
      C[mb,nb] += Σ_{i<batch} A_i[mb,kb] · B_i[nb,kb]ᵀ where A_i starts
      [i·a_stride] elements after [&A] and B_i [i·b_stride] after [&B]
      (the template's A_addr/B_addr[0..BS-1] pointer arrays have constant
      stride in every instantiation); A_i and B_i are row-major slabs and
      C is a row-major [mb, nb] slab;
    - [brgemm(batch, mb, nb, kb, &A, a_stride, &B, b_stride, &C, ldb,
      ldc)]: the same sum with leading dimensions. [ldb = 0] keeps B_i an
      [nb, kb] slab; [ldb > 0] reads B_i as kb row-major K×N rows [ldb]
      elements apart (element (k, n) at [&B + i·b_stride + k·ldb + n]),
      so a plain N-innermost tensor is read in place. C's rows are [ldc]
      elements apart, so the kernel can accumulate into a tile of a wider
      row-major output; only the mb×nb tile is written;
    - [zero(&T, count)]: zero-fill [count] elements;
    - [copy(&Dst, &Src, count)]: contiguous element copy (with dtype
      conversion when buffers differ). *)

(** [arity] operands, or [arity + trailing] when the call appends its
    optional trailing operands (brgemm's [ldb, ldc]). *)
type t = { name : string; arity : int; trailing : int }

val brgemm : t
val zero : t
val copy : t
val all : t list
val lookup : string -> t option

(** [accepts t n]: a call with [n] operands is well-formed. *)
val accepts : t -> int -> bool
