(* Tests for the machine model, brgemm microkernels and the microkernel
   cost model. *)

open Gc_tensor
open Gc_microkernel

let sh = Shape.of_list

(* Reference: C[mb,nb] += sum_b A_b[mb,kb] . B_b[nb,kb]^T, all plain arrays. *)
let brgemm_ref ~batch ~mb ~nb ~kb a b c =
  for bi = 0 to batch - 1 do
    for m = 0 to mb - 1 do
      for n = 0 to nb - 1 do
        let acc = ref 0. in
        for k = 0 to kb - 1 do
          acc := !acc +. (a.((bi * mb * kb) + (m * kb) + k) *. b.((bi * nb * kb) + (n * kb) + k))
        done;
        c.((m * nb) + n) <- c.((m * nb) + n) +. !acc
      done
    done
  done

let test_brgemm_f32_matches_ref () =
  List.iter
    (fun (batch, mb, nb, kb) ->
      let na = batch * mb * kb and nbuf = batch * nb * kb in
      let a = Buffer.create Dtype.F32 na in
      let b = Buffer.create Dtype.F32 nbuf in
      let c = Buffer.create Dtype.F32 (mb * nb) in
      let aref = Array.init na (fun i -> sin (float_of_int i)) in
      let bref = Array.init nbuf (fun i -> cos (float_of_int (2 * i))) in
      let cref = Array.make (mb * nb) 0.5 in
      Array.iteri (fun i v -> Buffer.set a i v) aref;
      Array.iteri (fun i v -> Buffer.set b i v) bref;
      Array.iteri (fun i v -> Buffer.set c i v) cref;
      (* snap reference inputs to f32 precision to compare exactly *)
      let aref = Array.init na (fun i -> Buffer.get a i) in
      let bref = Array.init nbuf (fun i -> Buffer.get b i) in
      let cref = Array.init (mb * nb) (fun i -> Buffer.get c i) in
      let a_offs = Array.init batch (fun i -> i * mb * kb) in
      let b_offs = Array.init batch (fun i -> i * nb * kb) in
      Brgemm.f32 ~batch ~mb ~nb ~kb ~a:(Buffer.as_f32 a) ~a_offs
        ~b:(Buffer.as_f32 b) ~b_offs ~c:(Buffer.as_f32 c) ~c_off:0;
      brgemm_ref ~batch ~mb ~nb ~kb aref bref cref;
      for i = 0 to (mb * nb) - 1 do
        let got = Buffer.get c i in
        if Float.abs (got -. cref.(i)) > 1e-3 *. (1. +. Float.abs cref.(i)) then
          Alcotest.failf "brgemm(%d,%d,%d,%d) c[%d]: %f vs %f" batch mb nb kb i
            got cref.(i)
      done)
    [ (1, 1, 1, 1); (1, 4, 4, 4); (2, 3, 5, 7); (4, 8, 16, 13); (3, 6, 6, 1) ]

let test_brgemm_int8_exact () =
  let batch = 2 and mb = 4 and nb = 5 and kb = 9 in
  let a = Buffer.create Dtype.U8 (batch * mb * kb) in
  let b = Buffer.create Dtype.S8 (batch * nb * kb) in
  let c = Buffer.create Dtype.S32 (mb * nb) in
  for i = 0 to Buffer.length a - 1 do
    Buffer.set_int a i ((i * 37) mod 256)
  done;
  for i = 0 to Buffer.length b - 1 do
    Buffer.set_int b i (((i * 23) mod 255) - 128)
  done;
  let a_offs = Array.init batch (fun i -> i * mb * kb) in
  let b_offs = Array.init batch (fun i -> i * nb * kb) in
  Brgemm.u8s8s32 ~batch ~mb ~nb ~kb ~a:(Buffer.as_u8 a) ~a_offs
    ~b:(Buffer.as_s8 b) ~b_offs ~c:(Buffer.as_s32 c) ~c_off:0;
  (* exact integer reference *)
  for m = 0 to mb - 1 do
    for n = 0 to nb - 1 do
      let acc = ref 0 in
      for bi = 0 to batch - 1 do
        for k = 0 to kb - 1 do
          acc :=
            !acc
            + (Buffer.get_int a (a_offs.(bi) + (m * kb) + k)
              * Buffer.get_int b (b_offs.(bi) + (n * kb) + k))
        done
      done;
      Alcotest.(check int)
        (Printf.sprintf "c[%d,%d]" m n)
        !acc
        (Buffer.get_int c ((m * nb) + n))
    done
  done

let test_brgemm_accumulates () =
  (* calling twice doubles the result *)
  let mb = 3 and nb = 3 and kb = 4 in
  let a = Buffer.create Dtype.F32 (mb * kb) in
  let b = Buffer.create Dtype.F32 (nb * kb) in
  let c = Buffer.create Dtype.F32 (mb * nb) in
  for i = 0 to Buffer.length a - 1 do Buffer.set a i 1. done;
  for i = 0 to Buffer.length b - 1 do Buffer.set b i 2. done;
  let run () =
    Brgemm.f32 ~batch:1 ~mb ~nb ~kb ~a:(Buffer.as_f32 a) ~a_offs:[| 0 |]
      ~b:(Buffer.as_f32 b) ~b_offs:[| 0 |] ~c:(Buffer.as_f32 c) ~c_off:0
  in
  run ();
  Alcotest.(check (float 0.)) "once" 8. (Buffer.get c 0);
  run ();
  Alcotest.(check (float 0.)) "twice" 16. (Buffer.get c 0)

let test_brgemm_c_offset () =
  let mb = 2 and nb = 2 and kb = 2 in
  let a = Buffer.create Dtype.F32 (mb * kb) in
  let b = Buffer.create Dtype.F32 (nb * kb) in
  let c = Buffer.create Dtype.F32 (16 + (mb * nb)) in
  Buffer.fill a 1.;
  Buffer.fill b 1.;
  Brgemm.f32 ~batch:1 ~mb ~nb ~kb ~a:(Buffer.as_f32 a) ~a_offs:[| 0 |]
    ~b:(Buffer.as_f32 b) ~b_offs:[| 0 |] ~c:(Buffer.as_f32 c) ~c_off:16;
  Alcotest.(check (float 0.)) "before untouched" 0. (Buffer.get c 15);
  Alcotest.(check (float 0.)) "written" 2. (Buffer.get c 16)

let test_brgemm_dispatch_rejects () =
  let a = Buffer.create Dtype.S32 4 in
  let b = Buffer.create Dtype.S32 4 in
  let c = Buffer.create Dtype.S32 4 in
  Alcotest.(check bool) "raises" true
    (try
       Brgemm.dispatch ~batch:1 ~mb:2 ~nb:2 ~kb:2 ~a ~a_offs:[| 0 |] ~b
         ~b_offs:[| 0 |] ~c ~c_off:0;
       false
     with
     | Gc_errors.Error (Gc_errors.Compile_error { stage = "microkernel"; ctx; _ })
       ->
         List.assoc_opt "a" ctx = Some "s32")

let test_brgemm_matches_ref_matmul () =
  (* one batch-reduce over blocked slices equals a plain matmul *)
  let m = 8 and n = 8 and k = 16 in
  let bs = 4 in
  let kb = k / bs in
  let at = Tensor.random ~seed:31 Dtype.F32 (sh [ m; k ]) in
  let bt = Tensor.random ~seed:32 Dtype.F32 (sh [ k; n ]) in
  (* lay out A as [bs][m][kb] slabs, B as [bs][n][kb] slabs *)
  let a = Buffer.create Dtype.F32 (bs * m * kb) in
  let b = Buffer.create Dtype.F32 (bs * n * kb) in
  for bi = 0 to bs - 1 do
    for i = 0 to m - 1 do
      for kk = 0 to kb - 1 do
        Buffer.set a ((bi * m * kb) + (i * kb) + kk) (Tensor.get at [| i; (bi * kb) + kk |])
      done
    done;
    for j = 0 to n - 1 do
      for kk = 0 to kb - 1 do
        Buffer.set b ((bi * n * kb) + (j * kb) + kk) (Tensor.get bt [| (bi * kb) + kk; j |])
      done
    done
  done;
  let c = Buffer.create Dtype.F32 (m * n) in
  Brgemm.f32 ~batch:bs ~mb:m ~nb:n ~kb ~a:(Buffer.as_f32 a)
    ~a_offs:(Array.init bs (fun i -> i * m * kb))
    ~b:(Buffer.as_f32 b)
    ~b_offs:(Array.init bs (fun i -> i * n * kb))
    ~c:(Buffer.as_f32 c) ~c_off:0;
  let expect = Ref_ops.matmul at bt in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let e = Tensor.get expect [| i; j |] and g = Buffer.get c ((i * n) + j) in
      if Float.abs (e -. g) > 1e-4 then Alcotest.failf "c[%d,%d] %f vs %f" i j g e
    done
  done

(* ------------------------------------------------------------------ *)
(* Bit-exactness of the register-tiled kernels: for any shape — including
   remainder rows/columns that take the scalar edge paths — every output
   element must be BIT-IDENTICAL to a naive single-accumulator
   batch-outer/k-inner reference. The tiled kernel keeps exactly one
   accumulator per output element and performs one write-back, so the
   floating-point reduction order is the same as the reference's; any
   future tiling change that splits an accumulator will fail this. *)

let shape_gen =
  QCheck.Gen.(
    quad (int_range 1 4) (int_range 1 17) (int_range 1 19) (int_range 1 33))

let prop_tiled_f32_bit_exact =
  QCheck.Test.make ~name:"tiled f32 bit-matches naive reference" ~count:100
    (QCheck.make ~print:QCheck.Print.(quad int int int int) shape_gen)
    (fun (batch, mb, nb, kb) ->
      let na = batch * mb * kb and nbuf = batch * nb * kb in
      let a = Buffer.create Dtype.F32 na in
      let b = Buffer.create Dtype.F32 nbuf in
      let c = Buffer.create Dtype.F32 (mb * nb) in
      for i = 0 to na - 1 do Buffer.set a i (sin (float_of_int (i + (7 * mb)))) done;
      for i = 0 to nbuf - 1 do Buffer.set b i (cos (float_of_int ((3 * i) + kb))) done;
      for i = 0 to (mb * nb) - 1 do Buffer.set c i 0.25 done;
      (* reference inputs read back through the buffer → f32-rounded *)
      let aref = Array.init na (Buffer.get a) in
      let bref = Array.init nbuf (Buffer.get b) in
      let cref = Array.init (mb * nb) (Buffer.get c) in
      let a_offs = Array.init batch (fun i -> i * mb * kb) in
      let b_offs = Array.init batch (fun i -> i * nb * kb) in
      Brgemm.f32 ~batch ~mb ~nb ~kb ~a:(Buffer.as_f32 a) ~a_offs
        ~b:(Buffer.as_f32 b) ~b_offs ~c:(Buffer.as_f32 c) ~c_off:0;
      brgemm_ref ~batch ~mb ~nb ~kb aref bref cref;
      (* the reference accumulates in double and rounds once on store; mimic
         the f32 store by pushing through a one-element f32 buffer *)
      let tmp = Buffer.create Dtype.F32 1 in
      try
        for i = 0 to (mb * nb) - 1 do
          Buffer.set tmp 0 cref.(i);
          if not (Int32.equal
                    (Int32.bits_of_float (Buffer.get c i))
                    (Int32.bits_of_float (Buffer.get tmp 0)))
          then raise Exit
        done;
        true
      with Exit -> false)

(* The leading-dimension forms against the slab path: B given as K×N
   rows [ldb > nb] apart (or as [NB][KB] slabs, [ldb = 0]) at irregular
   batch offsets, C a tile at [ldc > nb] inside a wider buffer. Packing B
   into [NB][KB] and running {!Brgemm.f32} on an [MB][NB] slab must give
   bit-identical tile elements, and every element outside the tile must
   keep its bits. *)
let ld_gen =
  QCheck.Gen.(
    pair shape_gen
      (quad bool (int_range 1 5) (int_range 1 5) (pair (int_range 0 3) (int_range 0 4))))

let print_ld =
  QCheck.Print.(
    pair (quad int int int int) (quad bool int int (pair int int)))

let prop_ld_forms_bit_exact =
  QCheck.Test.make ~name:"f32 K×N B and strided C bit-match the slab path" ~count:150
    (QCheck.make ~print:print_ld ld_gen)
    (fun ((batch, mb, nb, kb), (kxn, extra_b, extra_c, (gap, col0))) ->
      let ldb = if kxn then nb + extra_b else 0 in
      let block = if kxn then kb * ldb else nb * kb in
      (* batch blocks [block + gap] apart, after a [gap]-element prefix *)
      let b_offs = Array.init batch (fun i -> gap + (i * (block + gap))) in
      let nbuf = gap + (batch * (block + gap)) in
      let b = Buffer.create Dtype.F32 nbuf in
      for i = 0 to nbuf - 1 do Buffer.set b i (cos (float_of_int ((3 * i) + kb))) done;
      let b_at bi n k = b_offs.(bi) + if kxn then (k * ldb) + n else (n * kb) + k in
      let na = batch * mb * kb in
      let a = Buffer.create Dtype.F32 na in
      for i = 0 to na - 1 do Buffer.set a i (sin (float_of_int (i + (7 * mb)))) done;
      let a_offs = Array.init batch (fun i -> i * mb * kb) in
      (* the slab path: pack B, accumulate into an [MB][NB] slab *)
      let packed = Buffer.create Dtype.F32 (batch * nb * kb) in
      for bi = 0 to batch - 1 do
        for n = 0 to nb - 1 do
          for k = 0 to kb - 1 do
            Buffer.set packed ((((bi * nb) + n) * kb) + k) (Buffer.get b (b_at bi n k))
          done
        done
      done;
      let init i = 0.25 +. (0.125 *. float_of_int (i mod 5)) in
      let slab = Buffer.create Dtype.F32 (mb * nb) in
      for i = 0 to (mb * nb) - 1 do Buffer.set slab i (init i) done;
      Brgemm.f32 ~batch ~mb ~nb ~kb ~a:(Buffer.as_f32 a) ~a_offs ~b:(Buffer.as_f32 packed)
        ~b_offs:(Array.init batch (fun i -> i * nb * kb))
        ~c:(Buffer.as_f32 slab) ~c_off:0;
      (* the tile path: rows [ldc] apart, starting at row 1, column [col0] *)
      let ldc = nb + extra_c in
      let col0 = min col0 extra_c in
      let c_off = ldc + col0 in
      let wide = Buffer.create Dtype.F32 ((mb + 2) * ldc) in
      let wide_init i = -1.5 -. float_of_int i in
      for i = 0 to Buffer.length wide - 1 do Buffer.set wide i (wide_init i) done;
      for m = 0 to mb - 1 do
        for n = 0 to nb - 1 do
          Buffer.set wide (c_off + (m * ldc) + n) (init ((m * nb) + n))
        done
      done;
      Brgemm.dispatch_ld ~lda:kb ~ldb ~ldc ~klast:kb ~batch ~mb ~nb ~kb ~a:(F32 (Buffer.as_f32 a)) ~a_offs ~b
        ~b_offs ~c:wide ~c_off;
      let bits buf i = Int32.bits_of_float (Buffer.get buf i) in
      let tmp = Buffer.create Dtype.F32 1 in
      let ok = ref true in
      for i = 0 to Buffer.length wide - 1 do
        let r = (i - c_off) / ldc and col = (i - c_off) mod ldc in
        let expect =
          if i >= c_off && r < mb && col < nb then bits slab ((r * nb) + col)
          else begin
            Buffer.set tmp 0 (wide_init i);
            bits tmp 0
          end
        in
        if not (Int32.equal (bits wide i) expect) then ok := false
      done;
      !ok)

(* The pitched forms against the packed-slab path, for f32, u8·s8 and
   s8·s8: A's rows [lda > kb] apart, as the lowering reads a plain [M][K]
   (batch block [bi] at column [bi·kb]); B as N×K rows [-ldb] apart (a
   transposed plain B) or, f32 only, as K×N rows [ldb] apart; C a tile at
   [ldc] inside a wider buffer. Packing A and B into slabs and running
   {!Brgemm.dispatch} on an [MB][NB] slab must give bit-identical tile
   elements, and every C element outside the tile keeps its bits. *)
let pitch_gen =
  QCheck.Gen.(
    pair shape_gen
      (quad (oneofl [ `F32; `U8; `S8 ]) bool (int_range 1 5) (pair (int_range 1 4) (int_range 0 3))))

let print_pitch =
  QCheck.Print.(
    pair (quad int int int int)
      (quad
         (function `F32 -> "f32" | `U8 -> "u8" | `S8 -> "s8")
         bool int (pair int int)))

let prop_pitched_forms_bit_exact =
  QCheck.Test.make ~name:"pitched A and N×K/K×N B bit-match the packed slabs" ~count:200
    (QCheck.make ~print:print_pitch pitch_gen)
    (fun ((batch, mb, nb, kb), (dt, kxn, extra_a, (extra_b, extra_c))) ->
      let kxn = kxn && dt = `F32 in
      let adt, bdt, cdt =
        match dt with
        | `F32 -> (Dtype.F32, Dtype.F32, Dtype.F32)
        | `U8 -> (Dtype.U8, Dtype.S8, Dtype.S32)
        | `S8 -> (Dtype.S8, Dtype.S8, Dtype.S32)
      in
      let set buf i v =
        if Dtype.is_float (Buffer.dtype buf) then Buffer.set buf i v
        else Buffer.set_int buf i (int_of_float v)
      in
      let fill buf f = for i = 0 to Buffer.length buf - 1 do set buf i (f i) done in
      let int_fill signed i =
        if signed then float_of_int (((i * 41) mod 255) - 128) else float_of_int ((i * 37) mod 256)
      in
      (* A: a plain [mb][lda] panel, block bi at column bi·kb *)
      let lda = (batch * kb) + extra_a in
      let a = Buffer.create adt (mb * lda) in
      fill a (match dt with `F32 -> (fun i -> sin (float_of_int i)) | `U8 -> int_fill false | `S8 -> int_fill true);
      let a_offs = Array.init batch (fun bi -> bi * kb) in
      (* B: N×K rows [pitch] apart (block bi at column bi·kb), or K×N rows
         [ldb] apart (block bi at row bi·kb) *)
      let pitch = (batch * kb) + extra_b and ldbkn = nb + extra_b in
      let b = Buffer.create bdt (if kxn then batch * kb * ldbkn else nb * pitch) in
      fill b (if dt = `F32 then (fun i -> cos (float_of_int ((3 * i) + kb))) else int_fill true);
      let b_offs = Array.init batch (fun bi -> if kxn then bi * kb * ldbkn else bi * kb) in
      let ldb = if kxn then ldbkn else -pitch in
      let b_at bi n k = b_offs.(bi) + if kxn then (k * ldbkn) + n else (n * pitch) + k in
      (* the slab path *)
      let ap = Buffer.create adt (batch * mb * kb) and bp = Buffer.create bdt (batch * nb * kb) in
      for bi = 0 to batch - 1 do
        for m = 0 to mb - 1 do
          Buffer.copy_range ~src:a ~soff:(a_offs.(bi) + (m * lda)) ~dst:ap
            ~doff:(((bi * mb) + m) * kb) kb
        done;
        for n = 0 to nb - 1 do
          for k = 0 to kb - 1 do
            Buffer.copy_range ~src:b ~soff:(b_at bi n k) ~dst:bp ~doff:((((bi * nb) + n) * kb) + k) 1
          done
        done
      done;
      let init i = float_of_int (i mod 5) +. if cdt = Dtype.F32 then 0.25 else 0. in
      let slab = Buffer.create cdt (mb * nb) in
      fill slab init;
      Brgemm.dispatch ~batch ~mb ~nb ~kb ~a:ap ~a_offs:(Array.init batch (fun i -> i * mb * kb))
        ~b:bp ~b_offs:(Array.init batch (fun i -> i * nb * kb)) ~c:slab ~c_off:0;
      (* the pitched path: C rows [ldc] apart from row 1, guard cells around *)
      let ldc = nb + extra_c in
      let c_off = ldc + extra_c in
      let wide = Buffer.create cdt ((mb + 2) * ldc) in
      let guard i = -7. -. float_of_int i in
      fill wide guard;
      for m = 0 to mb - 1 do
        for n = 0 to nb - 1 do
          set wide (c_off + (m * ldc) + n) (init ((m * nb) + n))
        done
      done;
      Brgemm.dispatch_ld ~lda ~ldb ~ldc ~klast:kb ~batch ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c:wide ~c_off;
      let bits buf i =
        if cdt = Dtype.F32 then Int32.to_int (Int32.bits_of_float (Buffer.get buf i))
        else Buffer.get_int buf i
      in
      let guards = Buffer.create cdt (Buffer.length wide) in
      fill guards guard;
      let ok = ref true in
      for i = 0 to Buffer.length wide - 1 do
        let r = (i - c_off) / ldc and col = (i - c_off) mod ldc in
        let expect =
          if i >= c_off && r < mb && col < nb then bits slab ((r * nb) + col) else bits guards i
        in
        if bits wide i <> expect then ok := false
      done;
      !ok)

(* Ragged extents against the zero-padded slab path, for f32, u8·s8 and
   s8·s8, as the lowering calls the kernel on a tail tile read in place:
   the tile's valid [vm ≤ mb] rows and [vn ≤ nb] columns, and a last
   batch block [klast ≤ kb] deep, so K = (batch - 1)·kb + klast. A is a
   plain [vm][K] panel with guard cells after each row's K elements; B
   is an [NB][KB] slab with guards in its padding, N×K rows with guards
   after K, or (f32) K×N rows with guards after vn; C is a tile of a
   wider buffer with guards around it. Zero-padding A and B to full
   blocks and running {!Brgemm.dispatch} on the whole [MB][NB] tile must
   give the same bits in the valid region (the skipped terms are the
   padding's exact +0 products), and no guard may be read or written:
   an f32 guard is NaN, an int8 one the dtype's extreme. *)
let ragged_gen =
  QCheck.Gen.(
    shape_gen >>= fun (batch, mb, nb, kb) ->
    map
      (fun (vm, vn, klast, (dt, form)) -> ((batch, mb, nb, kb), (vm, vn, klast), (dt, form)))
      (quad (int_range 1 mb) (int_range 1 nb) (int_range 1 kb)
         (pair (oneofl [ `F32; `U8; `S8 ]) (oneofl [ `Slab; `Nxk; `Kxn ]))))

let print_ragged =
  QCheck.Print.(
    triple (quad int int int int) (triple int int int)
      (pair
         (function `F32 -> "f32" | `U8 -> "u8" | `S8 -> "s8")
         (function `Slab -> "slab" | `Nxk -> "N×K" | `Kxn -> "K×N")))

let prop_ragged_extents_bit_exact =
  QCheck.Test.make ~name:"ragged M/N extents and last K block bit-match the padded slabs"
    ~count:300
    (QCheck.make ~print:print_ragged ragged_gen)
    (fun ((batch, mb, nb, kb), (vm, vn, klast), (dt, form)) ->
      let form = if dt <> `F32 && form = `Kxn then `Nxk else form in
      let adt, bdt, cdt =
        match dt with
        | `F32 -> (Dtype.F32, Dtype.F32, Dtype.F32)
        | `U8 -> (Dtype.U8, Dtype.S8, Dtype.S32)
        | `S8 -> (Dtype.S8, Dtype.S8, Dtype.S32)
      in
      let set buf i v =
        if Dtype.is_float (Buffer.dtype buf) then Buffer.set buf i v
        else Buffer.set_int buf i (int_of_float v)
      in
      let k_total = ((batch - 1) * kb) + klast in
      let a_val m k =
        match dt with
        | `F32 -> sin (float_of_int ((m * 131) + k))
        | `U8 -> float_of_int (((m * 131) + k) * 37 mod 256)
        | `S8 -> float_of_int ((((m * 131) + k) * 41 mod 255) - 128)
      in
      let b_val n k =
        if dt = `F32 then cos (float_of_int ((n * 97) + (3 * k)))
        else float_of_int ((((n * 97) + k) * 41 mod 255) - 128)
      in
      let a_guard = match dt with `F32 -> Float.nan | `U8 -> 255. | `S8 -> -128. in
      let b_guard = if dt = `F32 then Float.nan else 127. in
      (* A: [vm] rows [lda > K] apart, block bi at column bi·kb *)
      let lda = k_total + 2 in
      let a = Buffer.create adt ((vm * lda) + 3) in
      for i = 0 to Buffer.length a - 1 do
        let m = i / lda and k = i mod lda in
        set a i (if m < vm && k < k_total then a_val m k else a_guard)
      done;
      let a_offs = Array.init batch (fun bi -> bi * kb) in
      (* B and where its element (n, k) of block bi lies *)
      let b_size, b_offs, ldb, b_at =
        match form with
        | `Slab ->
            ( batch * nb * kb,
              Array.init batch (fun bi -> bi * nb * kb),
              0,
              fun bi n k -> (((bi * nb) + n) * kb) + k )
        | `Nxk ->
            let pitch = k_total + 3 in
            ((vn * pitch) + 2, Array.init batch (fun bi -> bi * kb), -pitch, fun bi n k -> (n * pitch) + (bi * kb) + k)
        | `Kxn ->
            let ldb = vn + 2 in
            ( (k_total * ldb) + 2,
              Array.init batch (fun bi -> bi * kb * ldb),
              ldb,
              fun bi n k -> (((bi * kb) + k) * ldb) + n )
      in
      let b = Buffer.create bdt b_size in
      for i = 0 to b_size - 1 do set b i b_guard done;
      for bi = 0 to batch - 1 do
        for n = 0 to vn - 1 do
          for k = 0 to (if bi = batch - 1 then klast else kb) - 1 do
            set b (b_at bi n k) (b_val n ((bi * kb) + k))
          done
        done
      done;
      (* the zero-padded slab path over the whole tile *)
      let ap = Buffer.create adt (batch * mb * kb) and bp = Buffer.create bdt (batch * nb * kb) in
      for bi = 0 to batch - 1 do
        for k = 0 to kb - 1 do
          let kk = (bi * kb) + k in
          if kk < k_total then begin
            for m = 0 to vm - 1 do set ap (((bi * mb) + m) * kb + k) (a_val m kk) done;
            for n = 0 to vn - 1 do set bp (((bi * nb) + n) * kb + k) (b_val n kk) done
          end
        done
      done;
      let init i = float_of_int (i mod 5) +. if cdt = Dtype.F32 then 0.25 else 0. in
      let slab = Buffer.create cdt (mb * nb) in
      for i = 0 to (mb * nb) - 1 do set slab i (init i) done;
      Brgemm.dispatch ~batch ~mb ~nb ~kb ~a:ap ~a_offs:(Array.init batch (fun i -> i * mb * kb))
        ~b:bp ~b_offs:(Array.init batch (fun i -> i * nb * kb)) ~c:slab ~c_off:0;
      (* the ragged call: C rows [ldc = nb + 1] apart from row 1 *)
      let ldc = nb + 1 in
      let c_off = ldc + 1 in
      let wide = Buffer.create cdt ((mb + 2) * ldc) in
      let guard i = -7. -. float_of_int i in
      for i = 0 to Buffer.length wide - 1 do set wide i (guard i) done;
      for m = 0 to vm - 1 do
        for n = 0 to vn - 1 do set wide (c_off + (m * ldc) + n) (init ((m * nb) + n)) done
      done;
      Brgemm.dispatch_ld ~lda ~ldb ~ldc ~klast ~batch ~mb:vm ~nb:vn ~kb ~a ~a_offs ~b ~b_offs
        ~c:wide ~c_off;
      let bits buf i =
        if cdt = Dtype.F32 then Int32.to_int (Int32.bits_of_float (Buffer.get buf i))
        else Buffer.get_int buf i
      in
      let guards = Buffer.create cdt (Buffer.length wide) in
      for i = 0 to Buffer.length guards - 1 do set guards i (guard i) done;
      let ok = ref true in
      for i = 0 to Buffer.length wide - 1 do
        let r = (i - c_off) / ldc and col = (i - c_off) mod ldc in
        let expect =
          if i >= c_off && r < vm && col < vn then bits slab ((r * nb) + col) else bits guards i
        in
        if bits wide i <> expect then ok := false
      done;
      !ok)

(* The leading-dimension path allocates nothing per call, like the slab
   path the engine used before. *)
let test_ld_forms_allocate_nothing () =
  let mb = 2 and nb = 64 and kb = 64 in
  let a = Buffer.create Dtype.F32 (mb * kb) and b = Buffer.create Dtype.F32 (kb * nb) in
  let c = Buffer.create Dtype.F32 (mb * nb) in
  let a_offs = [| 0 |] and b_offs = [| 0 |] in
  let call ldb =
    Brgemm.dispatch_ld ~lda:kb ~ldb ~ldc:nb ~klast:kb ~batch:1 ~mb ~nb ~kb ~a ~a_offs ~b ~b_offs ~c ~c_off:0
  in
  call 0;
  call nb;
  let calls = 200 in
  let m0 = Gc.minor_words () in
  for i = 1 to calls do
    call (if i land 1 = 0 then nb else 0)
  done;
  let words = Gc.minor_words () -. m0 in
  if words > 16. then Alcotest.failf "%d brgemm calls allocated %.0f minor words" calls words

let int8_ref ~batch ~mb ~nb ~kb a b =
  (* naive integer reference over raw buffer reads (get_int is sign-aware) *)
  Array.init (mb * nb) (fun idx ->
      let m = idx / nb and n = idx mod nb in
      let acc = ref 0 in
      for bi = 0 to batch - 1 do
        for k = 0 to kb - 1 do
          let av = Buffer.get_int a ((bi * mb * kb) + (m * kb) + k) in
          let bv = Buffer.get_int b ((bi * nb * kb) + (n * kb) + k) in
          acc := !acc + (av * bv)
        done
      done;
      !acc)

let prop_tiled_int8_exact ~signed =
  let name =
    if signed then "tiled s8s8s32 matches integer reference"
    else "tiled u8s8s32 matches integer reference"
  in
  QCheck.Test.make ~name ~count:100
    (QCheck.make ~print:QCheck.Print.(quad int int int int) shape_gen)
    (fun (batch, mb, nb, kb) ->
      let adt = if signed then Dtype.S8 else Dtype.U8 in
      let a = Buffer.create adt (batch * mb * kb) in
      let b = Buffer.create Dtype.S8 (batch * nb * kb) in
      let c = Buffer.create Dtype.S32 (mb * nb) in
      for i = 0 to Buffer.length a - 1 do
        Buffer.set_int a i (if signed then ((i * 41) mod 255) - 128 else (i * 37) mod 256)
      done;
      for i = 0 to Buffer.length b - 1 do
        Buffer.set_int b i (((i * 23) mod 255) - 128)
      done;
      for i = 0 to (mb * nb) - 1 do Buffer.set_int c i (i mod 5) done;
      let init = Array.init (mb * nb) (Buffer.get_int c) in
      let a_offs = Array.init batch (fun i -> i * mb * kb) in
      let b_offs = Array.init batch (fun i -> i * nb * kb) in
      (if signed then
         Brgemm.s8s8s32 ~batch ~mb ~nb ~kb ~a:(Buffer.as_s8 a) ~a_offs
           ~b:(Buffer.as_s8 b) ~b_offs ~c:(Buffer.as_s32 c) ~c_off:0
       else
         Brgemm.u8s8s32 ~batch ~mb ~nb ~kb ~a:(Buffer.as_u8 a) ~a_offs
           ~b:(Buffer.as_s8 b) ~b_offs ~c:(Buffer.as_s32 c) ~c_off:0);
      let expect = int8_ref ~batch ~mb ~nb ~kb a b in
      Array.for_all
        (fun i -> Buffer.get_int c i = init.(i) + expect.(i))
        (Array.init (mb * nb) (fun i -> i)))

(* Extreme operands for the SWAR int8 core. Each case runs every pairing
   of a saturated A (u8 all 255, s8 all -128) or a patterned A with a B of
   all -128, all +127 or a pattern, so the largest products of both signs
   reach every lane. [mb] is 1 or 3 (the column-packed 1-row strip, alone
   and after a row-packed pair) and [nb] is never a multiple of 8 (tiles,
   then scalar corners). The long-k cases run batch·kb past one or two
   32 768-step lane flushes; there the exact sum leaves the s32 range, so
   C is compared modulo 2^32, which is what its s32 accumulation does. *)
let extreme_case ~signed (batch, mb, nb, kb) =
  let adt = if signed then Dtype.S8 else Dtype.U8 in
  let a_fills =
    [ (fun _ -> if signed then -128 else 255);
      (fun i -> if signed then ((i * 41) mod 255) - 128 else (i * 37) mod 256) ]
  in
  let b_fills = [ (fun _ -> -128); (fun _ -> 127); (fun i -> ((i * 23) mod 255) - 128) ] in
  let a = Buffer.create adt (batch * mb * kb) in
  let b = Buffer.create Dtype.S8 (batch * nb * kb) in
  let c = Buffer.create Dtype.S32 (mb * nb) in
  let a_offs = Array.init batch (fun i -> i * mb * kb) in
  let b_offs = Array.init batch (fun i -> i * nb * kb) in
  List.for_all
    (fun fa ->
      List.for_all
        (fun fb ->
          for i = 0 to Buffer.length a - 1 do Buffer.set_int a i (fa i) done;
          for i = 0 to Buffer.length b - 1 do Buffer.set_int b i (fb i) done;
          for i = 0 to (mb * nb) - 1 do Buffer.set_int c i (7 * i) done;
          (if signed then
             Brgemm.s8s8s32 ~batch ~mb ~nb ~kb ~a:(Buffer.as_s8 a) ~a_offs
               ~b:(Buffer.as_s8 b) ~b_offs ~c:(Buffer.as_s32 c) ~c_off:0
           else
             Brgemm.u8s8s32 ~batch ~mb ~nb ~kb ~a:(Buffer.as_u8 a) ~a_offs
               ~b:(Buffer.as_s8 b) ~b_offs ~c:(Buffer.as_s32 c) ~c_off:0);
          let expect = int8_ref ~batch ~mb ~nb ~kb a b in
          let cs = Buffer.as_s32 c in
          Array.for_all Fun.id
            (Array.init (mb * nb) (fun i ->
                 Int32.equal (Bigarray.Array1.get cs i)
                   (Int32.of_int ((7 * i) + expect.(i))))))
        b_fills)
    a_fills

(* nb = 8q + r with r in 1..7 *)
let ragged_nb_gen = QCheck.Gen.(map2 (fun q r -> (8 * q) + r) (int_range 0 2) (int_range 1 7))

let prop_int8_extreme_short ~signed =
  let name =
    Printf.sprintf "%s extreme operands, mb 1|3, ragged nb"
      (if signed then "s8s8s32" else "u8s8s32")
  in
  QCheck.Test.make ~name ~count:60
    (QCheck.make ~print:QCheck.Print.(quad int int int int)
       QCheck.Gen.(quad (int_range 1 4) (oneofl [ 1; 3 ]) ragged_nb_gen (int_range 1 40)))
    (extreme_case ~signed)

let prop_int8_extreme_flush ~signed =
  let name =
    Printf.sprintf "%s extreme operands across the lane flush"
      (if signed then "s8s8s32" else "u8s8s32")
  in
  (* batch·kb in (32 768, 70 000]: one or two flushes, landing inside a
     k-run or on a batch boundary *)
  let gen =
    QCheck.Gen.(
      map3
        (fun batch (mb, nb) total -> (batch, mb, nb, (total + batch - 1) / batch))
        (int_range 1 4)
        (pair (oneofl [ 1; 3 ]) (oneofl [ 3; 9; 11 ]))
        (int_range 32_769 70_000))
  in
  QCheck.Test.make ~name ~count:8
    (QCheck.make ~print:QCheck.Print.(quad int int int int) gen)
    (extreme_case ~signed)

(* ------------------------------------------------------------------ *)
(* Machine model *)

let test_machine_rates () =
  let m = Machine.xeon_8358 in
  Alcotest.(check int) "f32 lanes" 16 (Machine.lanes m Dtype.F32);
  Alcotest.(check int) "s8 lanes" 64 (Machine.lanes m Dtype.S8);
  Alcotest.(check (float 0.)) "f32 macs" 32. (Machine.macs_per_cycle m Dtype.F32);
  Alcotest.(check (float 0.)) "int8 is 4x" (4. *. 32.) (Machine.macs_per_cycle m Dtype.S8)

(* ------------------------------------------------------------------ *)
(* Cost model *)

let test_cost_valid_register_file () =
  let machine = Machine.xeon_8358 in
  (* 32x64 f32 accumulator = 32*4 = 128 tiles: too many registers *)
  Alcotest.(check bool) "too big" false
    (Ukernel_cost.valid ~machine ~dtype:Dtype.F32 ~mb:32 ~nb:64 ~kb:16 ~bs:1);
  Alcotest.(check bool) "classic 6x64" true
    (Ukernel_cost.valid ~machine ~dtype:Dtype.F32 ~mb:6 ~nb:64 ~kb:16 ~bs:1)

let test_cost_l1_constraint () =
  let machine = Machine.xeon_8358 in
  (* huge kb*bs spills L1 *)
  Alcotest.(check bool) "l1 spill invalid" false
    (Ukernel_cost.valid ~machine ~dtype:Dtype.F32 ~mb:6 ~nb:64 ~kb:512 ~bs:8)

let test_cost_monotone_in_k () =
  let machine = Machine.xeon_8358 in
  (* longer k extent amortizes overhead: efficiency goes up *)
  let e1 = (Ukernel_cost.cost ~machine ~dtype:Dtype.F32 ~mb:6 ~nb:64 ~kb:4 ~bs:1).efficiency in
  let e2 = (Ukernel_cost.cost ~machine ~dtype:Dtype.F32 ~mb:6 ~nb:64 ~kb:64 ~bs:1).efficiency in
  Alcotest.(check bool) "k amortization" true (e2 > e1)

let test_cost_lane_utilization () =
  let machine = Machine.xeon_8358 in
  (* nb=17 wastes most of the second vector *)
  let full = (Ukernel_cost.cost ~machine ~dtype:Dtype.F32 ~mb:6 ~nb:16 ~kb:32 ~bs:1).efficiency in
  let ragged = (Ukernel_cost.cost ~machine ~dtype:Dtype.F32 ~mb:6 ~nb:17 ~kb:32 ~bs:1).efficiency in
  Alcotest.(check bool) "ragged worse" true (ragged < full)

let test_cost_int8_faster () =
  let machine = Machine.xeon_8358 in
  let f = (Ukernel_cost.cost ~machine ~dtype:Dtype.F32 ~mb:6 ~nb:64 ~kb:32 ~bs:1).cycles in
  let i = (Ukernel_cost.cost ~machine ~dtype:Dtype.S8 ~mb:6 ~nb:64 ~kb:32 ~bs:1).cycles in
  Alcotest.(check bool) "int8 fewer cycles" true (i < f)

(* The cost model restates the kernel's register-tile shape as independent
   constants (so the model stays a pure function of the machine). This
   guard fails if either side changes without the other — the cost model
   silently mis-ranking tile candidates is exactly the drift we cannot
   afford. *)
let test_cost_tile_matches_kernel () =
  Alcotest.(check int) "tile_m" Brgemm.tile_m Ukernel_cost.tile_m;
  Alcotest.(check int) "tile_n" Brgemm.tile_n Ukernel_cost.tile_n

let test_cost_u_tile () =
  (* full tiles → no penalty; all-edge 1x1 → the edge rate *)
  Alcotest.(check (float 1e-9)) "full" 1.
    (Ukernel_cost.u_tile ~mb:(2 * Ukernel_cost.tile_m) ~nb:(4 * Ukernel_cost.tile_n));
  Alcotest.(check bool) "ragged penalized" true
    (Ukernel_cost.u_tile ~mb:((2 * Ukernel_cost.tile_m) + 1) ~nb:(4 * Ukernel_cost.tile_n)
    < 1.);
  Alcotest.(check bool) "edge rate bounded" true (Ukernel_cost.u_tile ~mb:1 ~nb:1 >= 0.5)

let prop_cost_positive =
  QCheck.Test.make ~name:"cost is positive and efficiency in (0,1]" ~count:200
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 64) (int_range 1 128) (int_range 1 64) (int_range 1 8)))
    (fun (mb, nb, kb, bs) ->
      let machine = Machine.xeon_8358 in
      let c = Ukernel_cost.cost ~machine ~dtype:Dtype.F32 ~mb ~nb ~kb ~bs in
      c.cycles > 0. && c.efficiency > 0. && c.efficiency <= 1.)

let () =
  Alcotest.run "gc_microkernel"
    [
      ( "brgemm",
        [
          Alcotest.test_case "f32 matches ref" `Quick test_brgemm_f32_matches_ref;
          Alcotest.test_case "int8 exact" `Quick test_brgemm_int8_exact;
          Alcotest.test_case "accumulates" `Quick test_brgemm_accumulates;
          Alcotest.test_case "c offset" `Quick test_brgemm_c_offset;
          Alcotest.test_case "dispatch rejects" `Quick test_brgemm_dispatch_rejects;
          Alcotest.test_case "blocked equals matmul" `Quick test_brgemm_matches_ref_matmul;
          QCheck_alcotest.to_alcotest prop_tiled_f32_bit_exact;
          QCheck_alcotest.to_alcotest prop_ld_forms_bit_exact;
          QCheck_alcotest.to_alcotest prop_pitched_forms_bit_exact;
          QCheck_alcotest.to_alcotest prop_ragged_extents_bit_exact;
          Alcotest.test_case "ld forms allocate nothing" `Quick test_ld_forms_allocate_nothing;
          QCheck_alcotest.to_alcotest (prop_tiled_int8_exact ~signed:false);
          QCheck_alcotest.to_alcotest (prop_tiled_int8_exact ~signed:true);
          QCheck_alcotest.to_alcotest (prop_int8_extreme_short ~signed:false);
          QCheck_alcotest.to_alcotest (prop_int8_extreme_short ~signed:true);
          QCheck_alcotest.to_alcotest (prop_int8_extreme_flush ~signed:false);
          QCheck_alcotest.to_alcotest (prop_int8_extreme_flush ~signed:true);
        ] );
      ( "machine",
        [ Alcotest.test_case "rates" `Quick test_machine_rates ] );
      ( "ukernel_cost",
        [
          Alcotest.test_case "register file" `Quick test_cost_valid_register_file;
          Alcotest.test_case "l1 constraint" `Quick test_cost_l1_constraint;
          Alcotest.test_case "k amortization" `Quick test_cost_monotone_in_k;
          Alcotest.test_case "lane utilization" `Quick test_cost_lane_utilization;
          Alcotest.test_case "int8 faster" `Quick test_cost_int8_faster;
          Alcotest.test_case "tile constants match kernel" `Quick
            test_cost_tile_matches_kernel;
          Alcotest.test_case "u_tile shape" `Quick test_cost_u_tile;
          QCheck_alcotest.to_alcotest prop_cost_positive;
        ] );
    ]
