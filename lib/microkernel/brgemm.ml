open Gc_tensor
open Bigarray

(* The inner loops are written as expert-tuned OCaml: monomorphic Bigarray
   accesses, unsafe indexing, k-runs contiguous for A and for slab B
   (K×N B steps one row per k), and a register-tiled accumulator block.
   This module is the repo's stand-in for LIBXSMM-style JIT kernels.

   Tiling scheme: the output block is walked in register tiles (2×4 for
   f32, 2×8 for int8). A tile's accumulators are independent chains that
   hide the multiply-add latency, the A/B row bases are hoisted out of the
   k loop, every A element is reused across the tile's columns and every
   B element across its rows, and C is touched once per output element
   after the whole batch reduction (int8: once per flush, see below).

   Steady-state serving demands the kernels be allocation-free. Without
   flambda that takes three rules:
   - accumulators are local [ref]s that never escape (no closure captures
     them, none is passed on), which ocamlopt turns into mutable
     variables: float ones live unboxed in xmm registers, int ones in
     general registers, so [acc := !acc +. x] allocates nothing;
   - the ragged-edge helpers are top-level functions (fully applied ⇒
     direct calls), not per-invocation closures;
   - the operand types are annotated monomorphic: without the annotations
     the bodies would infer a polymorphic Bigarray kind and every
     [Array1.unsafe_get] would compile to a generic (boxing) call instead
     of an unboxed intrinsic. That is also why u8 and s8 A have their own
     copies of the int8 loops: one shared body would need a per-element
     load closure.

   f32 numerics: every output element, full-tile or edge, is reduced by a
   single accumulator running batch-outer/k-inner and written back once,
   which makes the kernel bit-identical to a naive single-accumulator
   reference GEMM for every tile decomposition, including the ragged
   edges.

   int8 arithmetic is SWAR: two 32-bit lanes per 63-bit int, packed with
   [+] (brgemm.mli has the lane layout and the flush bound). The lanes are
   exact integers and C's s32 add wraps, so any flush schedule leaves C
   bit-identical to one write-back of the full sum, i.e. to the naive
   integer reference. *)

let tile_m = 2
let tile_n = 4

(* ------------------------------------------------------------------ *)
(* f32: 2×4 tiles, 1×4 strips for a ragged last row, 1×1 corners.

   A's rows are [lda] apart. B is addressed by two strides: element (n, k)
   of batch block [bi] is at [b_offs.(bi) + n·bn + k·bk], so N×K rows with
   pitch p (the [NB, KB] slab is p = kb) are (bn, bk) = (p, 1) and K×N rows
   with pitch [ldb] are (1, ldb). The k loops walk B by a running offset
   [o] that steps by [bk]. C's rows are [ldc] apart. Every batch block
   spans [kb] k steps except the last, which spans [klast] (a K tail read
   in place).

   A full tile or strip loads all its operands of a k step before the first
   multiply-add: interleaving the B loads with the multiply-adds lets
   ocamlopt route them through one register, and since [cvtss2sd] merges
   into its destination the loads then serialise. *)

let edge_f32 (a : Buffer.f32_arr) a_offs lda (b : Buffer.f32_arr) b_offs bn bk
    (c : Buffer.f32_arr) c_off ldc batch kb klast m n =
  let acc = ref 0. in
  for bi = 0 to batch - 1 do
    let kb = if bi = batch - 1 then klast else kb in
    let arow = Array.unsafe_get a_offs bi + (m * lda) in
    let brow = Array.unsafe_get b_offs bi + (n * bn) in
    let o = ref brow in
    for k = 0 to kb - 1 do
      acc := !acc +. (Array1.unsafe_get a (arow + k) *. Array1.unsafe_get b !o);
      o := !o + bk
    done
  done;
  let ci = c_off + (m * ldc) + n in
  Array1.unsafe_set c ci (Array1.unsafe_get c ci +. !acc)

let strip1xn_f32 (a : Buffer.f32_arr) a_offs lda (b : Buffer.f32_arr) b_offs bn bk
    (c : Buffer.f32_arr) c_off ldc batch kb klast m n0 =
  let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
  for bi = 0 to batch - 1 do
    let kb = if bi = batch - 1 then klast else kb in
    let arow = Array.unsafe_get a_offs bi + (m * lda) in
    let br0 = Array.unsafe_get b_offs bi + (n0 * bn) in
    let br1 = br0 + bn in
    let br2 = br1 + bn in
    let br3 = br2 + bn in
    let o = ref 0 in
    for k = 0 to kb - 1 do
      let ok = !o in
      let a0 = Array1.unsafe_get a (arow + k) in
      let b0 = Array1.unsafe_get b (br0 + ok) in
      let b1 = Array1.unsafe_get b (br1 + ok) in
      let b2 = Array1.unsafe_get b (br2 + ok) in
      let b3 = Array1.unsafe_get b (br3 + ok) in
      s0 := !s0 +. (a0 *. b0);
      s1 := !s1 +. (a0 *. b1);
      s2 := !s2 +. (a0 *. b2);
      s3 := !s3 +. (a0 *. b3);
      o := ok + bk
    done
  done;
  let ci = c_off + (m * ldc) + n0 in
  Array1.unsafe_set c ci (Array1.unsafe_get c ci +. !s0);
  Array1.unsafe_set c (ci + 1) (Array1.unsafe_get c (ci + 1) +. !s1);
  Array1.unsafe_set c (ci + 2) (Array1.unsafe_get c (ci + 2) +. !s2);
  Array1.unsafe_set c (ci + 3) (Array1.unsafe_get c (ci + 3) +. !s3)

let tile_f32 (a : Buffer.f32_arr) a_offs lda (b : Buffer.f32_arr) b_offs bn bk
    (c : Buffer.f32_arr) c_off ldc batch kb klast m0 n0 =
  (* row 0 in s0..s3, row 1 in t0..t3 *)
  let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
  let t0 = ref 0. and t1 = ref 0. and t2 = ref 0. and t3 = ref 0. in
  for bi = 0 to batch - 1 do
    let kb = if bi = batch - 1 then klast else kb in
    let ar0 = Array.unsafe_get a_offs bi + (m0 * lda) in
    let ar1 = ar0 + lda in
    let br0 = Array.unsafe_get b_offs bi + (n0 * bn) in
    let br1 = br0 + bn in
    let br2 = br1 + bn in
    let br3 = br2 + bn in
    let o = ref 0 in
    for k = 0 to kb - 1 do
      let ok = !o in
      let a0 = Array1.unsafe_get a (ar0 + k) in
      let a1 = Array1.unsafe_get a (ar1 + k) in
      let b0 = Array1.unsafe_get b (br0 + ok) in
      let b1 = Array1.unsafe_get b (br1 + ok) in
      let b2 = Array1.unsafe_get b (br2 + ok) in
      let b3 = Array1.unsafe_get b (br3 + ok) in
      s0 := !s0 +. (a0 *. b0);
      t0 := !t0 +. (a1 *. b0);
      s1 := !s1 +. (a0 *. b1);
      t1 := !t1 +. (a1 *. b1);
      s2 := !s2 +. (a0 *. b2);
      t2 := !t2 +. (a1 *. b2);
      s3 := !s3 +. (a0 *. b3);
      t3 := !t3 +. (a1 *. b3);
      o := ok + bk
    done
  done;
  let c0 = c_off + (m0 * ldc) + n0 in
  let c1 = c0 + ldc in
  Array1.unsafe_set c c0 (Array1.unsafe_get c c0 +. !s0);
  Array1.unsafe_set c (c0 + 1) (Array1.unsafe_get c (c0 + 1) +. !s1);
  Array1.unsafe_set c (c0 + 2) (Array1.unsafe_get c (c0 + 2) +. !s2);
  Array1.unsafe_set c (c0 + 3) (Array1.unsafe_get c (c0 + 3) +. !s3);
  Array1.unsafe_set c c1 (Array1.unsafe_get c c1 +. !t0);
  Array1.unsafe_set c (c1 + 1) (Array1.unsafe_get c (c1 + 1) +. !t1);
  Array1.unsafe_set c (c1 + 2) (Array1.unsafe_get c (c1 + 2) +. !t2);
  Array1.unsafe_set c (c1 + 3) (Array1.unsafe_get c (c1 + 3) +. !t3)

(* the row pitch of N×K B: [ldb = 0] is the [NB, KB] slab, [ldb < 0] rows
   [-ldb] apart *)
let nxk_pitch ~ldb ~kb = if ldb = 0 then kb else -ldb

let f32_ld ~lda ~ldb ~ldc ~klast ~batch ~mb ~nb ~kb ~(a : Buffer.f32_arr) ~a_offs
    ~(b : Buffer.f32_arr) ~b_offs ~(c : Buffer.f32_arr) ~c_off =
  let bn, bk = if ldb > 0 then (1, ldb) else (nxk_pitch ~ldb ~kb, 1) in
  let mfull = mb - (mb mod tile_m) in
  let nfull = nb - (nb mod tile_n) in
  let m = ref 0 in
  while !m < mfull do
    let m0 = !m in
    let n = ref 0 in
    while !n < nfull do
      tile_f32 a a_offs lda b b_offs bn bk c c_off ldc batch kb klast m0 !n;
      n := !n + tile_n
    done;
    for n1 = nfull to nb - 1 do
      edge_f32 a a_offs lda b b_offs bn bk c c_off ldc batch kb klast m0 n1;
      edge_f32 a a_offs lda b b_offs bn bk c c_off ldc batch kb klast (m0 + 1) n1
    done;
    m := m0 + tile_m
  done;
  for m1 = mfull to mb - 1 do
    let n = ref 0 in
    while !n < nfull do
      strip1xn_f32 a a_offs lda b b_offs bn bk c c_off ldc batch kb klast m1 !n;
      n := !n + tile_n
    done;
    for n1 = nfull to nb - 1 do
      edge_f32 a a_offs lda b b_offs bn bk c c_off ldc batch kb klast m1 n1
    done
  done

let f32 ~batch ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c ~c_off =
  f32_ld ~lda:kb ~ldb:0 ~ldc:nb ~klast:kb ~batch ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c ~c_off

(* ------------------------------------------------------------------ *)
(* int8: SWAR 2×8 tiles, column-packed 1×8 strips, scalar corners *)

(* k steps between lane flushes: |Σ| ≤ 32 640 · 32 768 < 2³⁰ per lane *)
let flush_every = 32768

(* the end of the k-run chunk starting at [k0] after [run] k steps since
   the last flush *)
let chunk_end k0 run kb =
  let e = k0 + flush_every - run in
  if e < kb then e else kb

(* add a decoded lane pair to C: the low lane at [ci], the high one at
   [ci + stride] *)
let wb_lanes (c : Buffer.s32_arr) ci stride s =
  let lo = (s lsl 31) asr 31 in
  Array1.unsafe_set c ci (Int32.add (Array1.unsafe_get c ci) (Int32.of_int lo));
  let cj = ci + stride in
  Array1.unsafe_set c cj
    (Int32.add (Array1.unsafe_get c cj) (Int32.of_int ((s - lo) asr 32)))

(* a 2×8 tile's accumulators: column j, rows packed (row 1 at [ci + ldc]) *)
let flush_2x8 c ci ldc s0 s1 s2 s3 s4 s5 s6 s7 =
  wb_lanes c ci ldc s0;
  wb_lanes c (ci + 1) ldc s1;
  wb_lanes c (ci + 2) ldc s2;
  wb_lanes c (ci + 3) ldc s3;
  wb_lanes c (ci + 4) ldc s4;
  wb_lanes c (ci + 5) ldc s5;
  wb_lanes c (ci + 6) ldc s6;
  wb_lanes c (ci + 7) ldc s7

(* a 1×8 strip's accumulators: columns 2j and 2j+1 packed *)
let flush_1x8 c ci s0 s1 s2 s3 =
  wb_lanes c ci 1 s0;
  wb_lanes c (ci + 2) 1 s1;
  wb_lanes c (ci + 4) 1 s2;
  wb_lanes c (ci + 6) 1 s3

(* The three loops below come twice, for u8 and for s8 A; the copies
   differ only in the annotated type of [a]. *)

let tile_u8 (a : Buffer.u8_arr) a_offs lda (b : Buffer.s8_arr) b_offs
    bn (c : Buffer.s32_arr) c_off batch kb klast ldc m0 n0 =
  let ci = c_off + (m0 * ldc) + n0 in
  let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
  let s4 = ref 0 and s5 = ref 0 and s6 = ref 0 and s7 = ref 0 in
  let run = ref 0 in
  for bi = 0 to batch - 1 do
    let kb = if bi = batch - 1 then klast else kb in
    let ar0 = Array.unsafe_get a_offs bi + (m0 * lda) in
    let ar1 = ar0 + lda in
    let br0 = Array.unsafe_get b_offs bi + (n0 * bn) in
    let br1 = br0 + bn in
    let br2 = br1 + bn in
    let br3 = br2 + bn in
    let br4 = br3 + bn in
    let br5 = br4 + bn in
    let br6 = br5 + bn in
    let br7 = br6 + bn in
    let k0 = ref 0 in
    while !k0 < kb do
      if !run = flush_every then begin
        flush_2x8 c ci ldc !s0 !s1 !s2 !s3 !s4 !s5 !s6 !s7;
        s0 := 0; s1 := 0; s2 := 0; s3 := 0;
        s4 := 0; s5 := 0; s6 := 0; s7 := 0;
        run := 0
      end;
      let k1 = chunk_end !k0 !run kb in
      for k = !k0 to k1 - 1 do
        let p =
          Array1.unsafe_get a (ar0 + k) + (Array1.unsafe_get a (ar1 + k) lsl 32)
        in
        s0 := !s0 + (p * Array1.unsafe_get b (br0 + k));
        s1 := !s1 + (p * Array1.unsafe_get b (br1 + k));
        s2 := !s2 + (p * Array1.unsafe_get b (br2 + k));
        s3 := !s3 + (p * Array1.unsafe_get b (br3 + k));
        s4 := !s4 + (p * Array1.unsafe_get b (br4 + k));
        s5 := !s5 + (p * Array1.unsafe_get b (br5 + k));
        s6 := !s6 + (p * Array1.unsafe_get b (br6 + k));
        s7 := !s7 + (p * Array1.unsafe_get b (br7 + k))
      done;
      run := !run + (k1 - !k0);
      k0 := k1
    done
  done;
  flush_2x8 c ci ldc !s0 !s1 !s2 !s3 !s4 !s5 !s6 !s7

let strip_u8 (a : Buffer.u8_arr) a_offs lda (b : Buffer.s8_arr) b_offs
    bn (c : Buffer.s32_arr) c_off batch kb klast ldc m n0 =
  let ci = c_off + (m * ldc) + n0 in
  let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
  let run = ref 0 in
  for bi = 0 to batch - 1 do
    let kb = if bi = batch - 1 then klast else kb in
    let ar = Array.unsafe_get a_offs bi + (m * lda) in
    let br0 = Array.unsafe_get b_offs bi + (n0 * bn) in
    let br1 = br0 + bn in
    let br2 = br1 + bn in
    let br3 = br2 + bn in
    let br4 = br3 + bn in
    let br5 = br4 + bn in
    let br6 = br5 + bn in
    let br7 = br6 + bn in
    let k0 = ref 0 in
    while !k0 < kb do
      if !run = flush_every then begin
        flush_1x8 c ci !s0 !s1 !s2 !s3;
        s0 := 0; s1 := 0; s2 := 0; s3 := 0;
        run := 0
      end;
      let k1 = chunk_end !k0 !run kb in
      for k = !k0 to k1 - 1 do
        let x = Array1.unsafe_get a (ar + k) in
        let p0 = Array1.unsafe_get b (br0 + k) + (Array1.unsafe_get b (br1 + k) lsl 32) in
        s0 := !s0 + (x * p0);
        let p1 = Array1.unsafe_get b (br2 + k) + (Array1.unsafe_get b (br3 + k) lsl 32) in
        s1 := !s1 + (x * p1);
        let p2 = Array1.unsafe_get b (br4 + k) + (Array1.unsafe_get b (br5 + k) lsl 32) in
        s2 := !s2 + (x * p2);
        let p3 = Array1.unsafe_get b (br6 + k) + (Array1.unsafe_get b (br7 + k) lsl 32) in
        s3 := !s3 + (x * p3)
      done;
      run := !run + (k1 - !k0);
      k0 := k1
    done
  done;
  flush_1x8 c ci !s0 !s1 !s2 !s3

(* scalar corner: one plain int accumulator cannot overflow 63 bits *)
let edge_u8 (a : Buffer.u8_arr) a_offs lda (b : Buffer.s8_arr) b_offs
    bn (c : Buffer.s32_arr) c_off batch kb klast ldc m n =
  let acc = ref 0 in
  for bi = 0 to batch - 1 do
    let kb = if bi = batch - 1 then klast else kb in
    let arow = Array.unsafe_get a_offs bi + (m * lda) in
    let brow = Array.unsafe_get b_offs bi + (n * bn) in
    for k = 0 to kb - 1 do
      acc := !acc + (Array1.unsafe_get a (arow + k) * Array1.unsafe_get b (brow + k))
    done
  done;
  let ci = c_off + (m * ldc) + n in
  Array1.unsafe_set c ci (Int32.add (Array1.unsafe_get c ci) (Int32.of_int !acc))

let tile_s8 (a : Buffer.s8_arr) a_offs lda (b : Buffer.s8_arr) b_offs
    bn (c : Buffer.s32_arr) c_off batch kb klast ldc m0 n0 =
  let ci = c_off + (m0 * ldc) + n0 in
  let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
  let s4 = ref 0 and s5 = ref 0 and s6 = ref 0 and s7 = ref 0 in
  let run = ref 0 in
  for bi = 0 to batch - 1 do
    let kb = if bi = batch - 1 then klast else kb in
    let ar0 = Array.unsafe_get a_offs bi + (m0 * lda) in
    let ar1 = ar0 + lda in
    let br0 = Array.unsafe_get b_offs bi + (n0 * bn) in
    let br1 = br0 + bn in
    let br2 = br1 + bn in
    let br3 = br2 + bn in
    let br4 = br3 + bn in
    let br5 = br4 + bn in
    let br6 = br5 + bn in
    let br7 = br6 + bn in
    let k0 = ref 0 in
    while !k0 < kb do
      if !run = flush_every then begin
        flush_2x8 c ci ldc !s0 !s1 !s2 !s3 !s4 !s5 !s6 !s7;
        s0 := 0; s1 := 0; s2 := 0; s3 := 0;
        s4 := 0; s5 := 0; s6 := 0; s7 := 0;
        run := 0
      end;
      let k1 = chunk_end !k0 !run kb in
      for k = !k0 to k1 - 1 do
        let p =
          Array1.unsafe_get a (ar0 + k) + (Array1.unsafe_get a (ar1 + k) lsl 32)
        in
        s0 := !s0 + (p * Array1.unsafe_get b (br0 + k));
        s1 := !s1 + (p * Array1.unsafe_get b (br1 + k));
        s2 := !s2 + (p * Array1.unsafe_get b (br2 + k));
        s3 := !s3 + (p * Array1.unsafe_get b (br3 + k));
        s4 := !s4 + (p * Array1.unsafe_get b (br4 + k));
        s5 := !s5 + (p * Array1.unsafe_get b (br5 + k));
        s6 := !s6 + (p * Array1.unsafe_get b (br6 + k));
        s7 := !s7 + (p * Array1.unsafe_get b (br7 + k))
      done;
      run := !run + (k1 - !k0);
      k0 := k1
    done
  done;
  flush_2x8 c ci ldc !s0 !s1 !s2 !s3 !s4 !s5 !s6 !s7

let strip_s8 (a : Buffer.s8_arr) a_offs lda (b : Buffer.s8_arr) b_offs
    bn (c : Buffer.s32_arr) c_off batch kb klast ldc m n0 =
  let ci = c_off + (m * ldc) + n0 in
  let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
  let run = ref 0 in
  for bi = 0 to batch - 1 do
    let kb = if bi = batch - 1 then klast else kb in
    let ar = Array.unsafe_get a_offs bi + (m * lda) in
    let br0 = Array.unsafe_get b_offs bi + (n0 * bn) in
    let br1 = br0 + bn in
    let br2 = br1 + bn in
    let br3 = br2 + bn in
    let br4 = br3 + bn in
    let br5 = br4 + bn in
    let br6 = br5 + bn in
    let br7 = br6 + bn in
    let k0 = ref 0 in
    while !k0 < kb do
      if !run = flush_every then begin
        flush_1x8 c ci !s0 !s1 !s2 !s3;
        s0 := 0; s1 := 0; s2 := 0; s3 := 0;
        run := 0
      end;
      let k1 = chunk_end !k0 !run kb in
      for k = !k0 to k1 - 1 do
        let x = Array1.unsafe_get a (ar + k) in
        let p0 = Array1.unsafe_get b (br0 + k) + (Array1.unsafe_get b (br1 + k) lsl 32) in
        s0 := !s0 + (x * p0);
        let p1 = Array1.unsafe_get b (br2 + k) + (Array1.unsafe_get b (br3 + k) lsl 32) in
        s1 := !s1 + (x * p1);
        let p2 = Array1.unsafe_get b (br4 + k) + (Array1.unsafe_get b (br5 + k) lsl 32) in
        s2 := !s2 + (x * p2);
        let p3 = Array1.unsafe_get b (br6 + k) + (Array1.unsafe_get b (br7 + k) lsl 32) in
        s3 := !s3 + (x * p3)
      done;
      run := !run + (k1 - !k0);
      k0 := k1
    done
  done;
  flush_1x8 c ci !s0 !s1 !s2 !s3

let edge_s8 (a : Buffer.s8_arr) a_offs lda (b : Buffer.s8_arr) b_offs
    bn (c : Buffer.s32_arr) c_off batch kb klast ldc m n =
  let acc = ref 0 in
  for bi = 0 to batch - 1 do
    let kb = if bi = batch - 1 then klast else kb in
    let arow = Array.unsafe_get a_offs bi + (m * lda) in
    let brow = Array.unsafe_get b_offs bi + (n * bn) in
    for k = 0 to kb - 1 do
      acc := !acc + (Array1.unsafe_get a (arow + k) * Array1.unsafe_get b (brow + k))
    done
  done;
  let ci = c_off + (m * ldc) + n in
  Array1.unsafe_set c ci (Int32.add (Array1.unsafe_get c ci) (Int32.of_int !acc))

(* The driver is shared: it calls the dtype's loops once per tile, strip
   or corner, never per element. A's rows are [lda] apart, B's N×K rows
   [bn] apart; the last batch block spans [klast] k steps. *)
let int8_core tile strip edge batch mb nb kb klast a a_offs lda b b_offs bn c c_off ldc =
  let nfull = nb - (nb mod 8) in
  let m0 = ref 0 in
  while !m0 + 1 < mb do
    let n0 = ref 0 in
    while !n0 < nfull do
      tile a a_offs lda b b_offs bn c c_off batch kb klast ldc !m0 !n0;
      n0 := !n0 + 8
    done;
    for n = nfull to nb - 1 do
      edge a a_offs lda b b_offs bn c c_off batch kb klast ldc !m0 n;
      edge a a_offs lda b b_offs bn c c_off batch kb klast ldc (!m0 + 1) n
    done;
    m0 := !m0 + 2
  done;
  if mb land 1 = 1 then begin
    let m = mb - 1 in
    let n0 = ref 0 in
    while !n0 < nfull do
      strip a a_offs lda b b_offs bn c c_off batch kb klast ldc m !n0;
      n0 := !n0 + 8
    done;
    for n = nfull to nb - 1 do
      edge a a_offs lda b b_offs bn c c_off batch kb klast ldc m n
    done
  end

let u8s8s32 ~batch ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c ~c_off =
  int8_core tile_u8 strip_u8 edge_u8 batch mb nb kb kb a a_offs kb b b_offs kb c c_off nb

let s8s8s32 ~batch ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c ~c_off =
  int8_core tile_s8 strip_s8 edge_s8 batch mb nb kb kb a a_offs kb b b_offs kb c c_off nb

let dispatch_ld ~lda ~ldb ~ldc ~klast ~batch ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c ~c_off =
  (match ((a : Buffer.t), (b : Buffer.t), (c : Buffer.t)) with
  | (F32 a | Bf16 a), (F32 b | Bf16 b), (F32 c | Bf16 c) ->
      f32_ld ~lda ~ldb ~ldc ~klast ~batch ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c ~c_off
  | U8 a, S8 b, S32 c when ldb <= 0 ->
      int8_core tile_u8 strip_u8 edge_u8 batch mb nb kb klast a a_offs lda b b_offs
        (nxk_pitch ~ldb ~kb) c c_off ldc
  | S8 a, S8 b, S32 c when ldb <= 0 ->
      int8_core tile_s8 strip_s8 edge_s8 batch mb nb kb klast a a_offs lda b b_offs
        (nxk_pitch ~ldb ~kb) c c_off ldc
  | _ ->
      Gc_errors.compile_error ~stage:"microkernel"
        ~ctx:
          [
            ("a", Dtype.to_string (Buffer.dtype a));
            ("b", Dtype.to_string (Buffer.dtype b));
            ("c", Dtype.to_string (Buffer.dtype c));
            ("ldb", string_of_int ldb);
          ]
        "Brgemm.dispatch: unsupported dtype combination or operand form");
  (* chaos hook: a fired "kernel_nan" fault poisons one output element
     after the (correct) computation — the cheapest faithful model of a
     miscompiled kernel, which produces wrong numbers rather than raising.
     Inert (one atomic load) unless GC_FAULTS arms the site. *)
  if Gc_faultinject.nan_check () then
    match (c : Buffer.t) with
    | F32 arr | Bf16 arr ->
        Bigarray.Array1.set arr c_off Float.nan
    | _ ->
        (* integer accumulators cannot hold NaN; poison with a saturated
           sentinel instead *)
        Buffer.set_int c c_off max_int

let dispatch ~batch ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c ~c_off =
  dispatch_ld ~lda:kb ~ldb:0 ~ldc:nb ~klast:kb ~batch ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c ~c_off
