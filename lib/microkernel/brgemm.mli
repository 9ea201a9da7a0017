open Gc_tensor

(** Batch-reduce GEMM microkernel (the paper's [8][24]): given a batch of
    A and B sub-matrix blocks, compute C += Σ_b A_b · B_bᵀ-block.

    Operand forms. The [MB, KB] and [NB, KB] slabs match the blocked
    layouts the lowering chooses (Figure 2/6); the pitched forms let a
    template point the kernel at tensors in place, as oneDNN's BRGEMM does
    with its [lda]/[ldb]/[ldc]:
    - an A block is MB row-major rows of KB elements, [lda] apart: the
      [MB, KB] slab is [lda = kb]; [lda > kb] is a K-run of a plain
      K-innermost tensor read where it lies;
    - a B block is NB rows of KB elements or KB rows of NB elements:
      - [ldb = 0]: a row-major [NB, KB] slab, the paper's B[K/KB, N/NB, NB,
        KB] layout, where each output column's K-run is contiguous;
      - [ldb < 0]: NB row-major N×K rows [-ldb] elements apart, element
        (n, k) at [b_offs.(b) + n·(-ldb) + k] (a plain K-innermost tensor,
        such as a transposed B, read in place; the slab is [-ldb = kb]);
      - [ldb > 0]: KB row-major K×N rows [ldb] elements apart, element
        (k, n) at [b_offs.(b) + k·ldb + n] (a plain N-innermost tensor read
        in place; f32 only);
    - the C block is MB row-major rows of NB elements, [ldc] apart
      ([ldc = nb]: an [MB, NB] slab; [ldc > nb]: a tile of a wider
      row-major output), accumulated in place;
    - every batch block spans KB k steps except the last, which spans
      [klast ≤ kb] ([klast = kb]: no tail). A template reads an operand
      whose K is not a multiple of KB in place this way: the last block
      stops at K, where a zero-padded copy would have run on through
      zero products. MB and NB are likewise a tile's valid extents, not
      the padded ones, so a ragged tile reads and writes no padding.
      The pitches stay the padded ones: a tail K block of a [NB, KB]
      slab is still read [kb] apart.

    Blocks are addressed by element offsets into flat buffers ([a_offs] /
    [b_offs] play the role of the template's A_addr/B_addr pointer
    arrays). The caller zero-fills C before the first reduction step,
    exactly as the template does ([C' = 0]). Elements of the C buffer
    outside the MB×NB tile are never touched.

    This is the expert-tuned leaf: monomorphic Bigarray loops with no
    bounds checks, standing in for the paper's JIT-generated AVX-512/AMX
    kernel (see DESIGN.md substitutions). The output block is computed in
    register tiles (independent accumulator chains held in registers, A/B
    row bases hoisted, C written after the whole batch reduction) with
    ragged-edge strips and corners, so any (mb, nb) is accepted at full
    rate for the tile-aligned interior. A call allocates nothing.

    - f32: [tile_m × tile_n] = 2×4 tiles, 1×4 strips for an odd last row,
      1×1 corners. Every output element is reduced by a single
      accumulator running batch-outer/k-inner and written back once, so
      the kernel is bit-identical to a naive single-accumulator reference
      GEMM for any shape, in every operand form. One driver serves them
      all: A rows are [lda] apart, and B is addressed by an (n, k) stride
      pair, (pitch, 1) for N×K rows and (1, ldb) for K×N rows. A tile
      loads all six operands of a k step before its eight multiply-adds.
    - int8 (SWAR, "SIMD within a register"): 2×8 tiles. One 63-bit OCaml
      int carries two 32-bit lanes: a tile packs A rows m and m+1 of one
      k step as [a0 + a1·2³²] (added, not or-ed, so a negative s8 [a0]
      borrows correctly), and one integer multiply by an s8 B element then
      does both rows' multiply-adds. Each of the 8 packed accumulators
      covers one column. An odd last row runs 1×8 strips that pack two B
      columns instead ([b_j + b_j+1·2³²] times the A element); columns
      past the last multiple of 8 run 1×1 scalar corners. A lane is
      decoded by sign-extending the low 32 bits (low lane) and shifting
      the remainder down (high lane), which is exact while |Σ| < 2³⁰ per
      lane. A product is at most 255·128 = 32 640 in magnitude, so a
      tile decodes its lanes into C and restarts every 32 768 k steps
      (32 640·32 768 < 2³⁰). Integer sums are exact and C's s32 addition
      wraps, so the flushes leave C bit-identical to the naive integer
      reference. u8 and s8 A have separate monomorphic loops; no
      per-element closure is called. *)

(** The f32 register tile (2×4). {!Ukernel_cost} mirrors these constants
    to model the kernel it ranks; a unit test asserts they cannot drift
    apart. *)
val tile_m : int

val tile_n : int

(** f32 (also used for bf16, whose storage is widened f32):
    C[MB,NB] += Σ_b A_b[MB,KB] · B_b[NB,KB]ᵀ, on slabs. *)
val f32 :
  batch:int ->
  mb:int ->
  nb:int ->
  kb:int ->
  a:Buffer.f32_arr ->
  a_offs:int array ->
  b:Buffer.f32_arr ->
  b_offs:int array ->
  c:Buffer.f32_arr ->
  c_off:int ->
  unit

(** int8 with VNNI semantics: A is u8, B is s8, C accumulates exactly in
    s32 (wrapping). *)
val u8s8s32 :
  batch:int ->
  mb:int ->
  nb:int ->
  kb:int ->
  a:Buffer.u8_arr ->
  a_offs:int array ->
  b:Buffer.s8_arr ->
  b_offs:int array ->
  c:Buffer.s32_arr ->
  c_off:int ->
  unit

(** s8×s8 variant (both operands signed). *)
val s8s8s32 :
  batch:int ->
  mb:int ->
  nb:int ->
  kb:int ->
  a:Buffer.s8_arr ->
  a_offs:int array ->
  b:Buffer.s8_arr ->
  b_offs:int array ->
  c:Buffer.s32_arr ->
  c_off:int ->
  unit

(** Dynamic dispatch over generic buffers in the leading-dimension forms,
    used by the Tensor IR engine's intrinsic call. The dtype combination
    is derived from the buffers. The int8 kernels take any [lda], [ldc]
    and [klast] and N×K B ([ldb <= 0]), not K×N rows; other combinations
    raise a compile error. *)
val dispatch_ld :
  lda:int ->
  ldb:int ->
  ldc:int ->
  klast:int ->
  batch:int ->
  mb:int ->
  nb:int ->
  kb:int ->
  a:Buffer.t ->
  a_offs:int array ->
  b:Buffer.t ->
  b_offs:int array ->
  c:Buffer.t ->
  c_off:int ->
  unit

(** {!dispatch_ld} on slabs ([~lda:kb ~ldb:0 ~ldc:nb ~klast:kb]). *)
val dispatch :
  batch:int ->
  mb:int ->
  nb:int ->
  kb:int ->
  a:Buffer.t ->
  a_offs:int array ->
  b:Buffer.t ->
  b_offs:int array ->
  c:Buffer.t ->
  c_off:int ->
  unit
