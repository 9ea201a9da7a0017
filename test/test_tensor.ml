(* Unit and property tests for the tensor substrate: dtypes, shapes,
   layouts, buffers, tensors, reorders and reference ops. *)

open Gc_tensor

let sh = Shape.of_list

(* ------------------------------------------------------------------ *)
(* Dtype *)

let test_dtype_sizes () =
  Alcotest.(check int) "f32" 4 (Dtype.size_bytes F32);
  Alcotest.(check int) "bf16" 2 (Dtype.size_bytes Bf16);
  Alcotest.(check int) "s32" 4 (Dtype.size_bytes S32);
  Alcotest.(check int) "s8" 1 (Dtype.size_bytes S8);
  Alcotest.(check int) "u8" 1 (Dtype.size_bytes U8);
  Alcotest.(check int) "s64" 8 (Dtype.size_bytes S64)

let test_dtype_roundtrip_string () =
  List.iter
    (fun dt ->
      Alcotest.(check bool)
        (Dtype.to_string dt) true
        (match Dtype.of_string (Dtype.to_string dt) with
        | Some dt' -> Dtype.equal dt dt'
        | None -> false))
    Dtype.all

let test_dtype_saturation () =
  Alcotest.(check (float 0.)) "s8 high" 127. (Dtype.round_to S8 300.);
  Alcotest.(check (float 0.)) "s8 low" (-128.) (Dtype.round_to S8 (-300.));
  Alcotest.(check (float 0.)) "u8 high" 255. (Dtype.round_to U8 300.);
  Alcotest.(check (float 0.)) "u8 low" 0. (Dtype.round_to U8 (-5.));
  Alcotest.(check (float 0.)) "s8 round" 3. (Dtype.round_to S8 2.6);
  Alcotest.(check (float 0.)) "f32 identity" 2.6 (Dtype.round_to F32 2.6)

let test_bf16_rounding () =
  (* bf16 keeps ~8 mantissa bits: 1.0 + 2^-9 rounds to 1.0 *)
  let x = 1. +. (1. /. 512.) in
  let r = Dtype.round_to Bf16 x in
  Alcotest.(check bool) "coarse" true (Float.abs (r -. 1.) < 1e-2);
  (* representable values survive *)
  Alcotest.(check (float 0.)) "exact" 1.5 (Dtype.round_to Bf16 1.5);
  Alcotest.(check (float 0.)) "neg" (-2.) (Dtype.round_to Bf16 (-2.))

(* ------------------------------------------------------------------ *)
(* Shape *)

let test_shape_basic () =
  let s = sh [ 2; 3; 4 ] in
  Alcotest.(check int) "rank" 3 (Shape.rank s);
  Alcotest.(check int) "numel" 24 (Shape.numel s);
  Alcotest.(check int) "dim" 3 (Shape.dim s 1);
  Alcotest.(check bool) "scalar" true (Shape.is_scalar Shape.scalar);
  Alcotest.(check int) "scalar numel" 1 (Shape.numel Shape.scalar)

let test_shape_offset_roundtrip () =
  let s = sh [ 3; 4; 5 ] in
  Shape.iter s (fun idx ->
      let off = Shape.offset s idx in
      Alcotest.(check (array int)) "unoffset" idx (Shape.unoffset s off))

let test_shape_offset_rejects () =
  let s = sh [ 2; 2 ] in
  Alcotest.check_raises "oob" (Invalid_argument "Shape.offset: index 2 out of range [0,2) at dim 0")
    (fun () -> ignore (Shape.offset s [| 2; 0 |]))

let test_shape_broadcast () =
  let check name a b expect =
    match (Shape.broadcast (sh a) (sh b), expect) with
    | Some s, Some e -> Alcotest.(check bool) name true (Shape.equal s (sh e))
    | None, None -> ()
    | Some s, None -> Alcotest.failf "%s: expected no broadcast, got %s" name (Shape.to_string s)
    | None, Some _ -> Alcotest.failf "%s: expected broadcast" name
  in
  check "same" [ 2; 3 ] [ 2; 3 ] (Some [ 2; 3 ]);
  check "scalar" [ 2; 3 ] [] (Some [ 2; 3 ]);
  check "ones" [ 2; 1 ] [ 1; 3 ] (Some [ 2; 3 ]);
  check "rank" [ 4; 2; 3 ] [ 2; 3 ] (Some [ 4; 2; 3 ]);
  check "trailing one" [ 2; 3 ] [ 3 ] (Some [ 2; 3 ]);
  check "fail" [ 2; 3 ] [ 2; 4 ] None

let test_shape_iter_order () =
  let s = sh [ 2; 2 ] in
  let acc = ref [] in
  Shape.iter s (fun idx -> acc := Array.to_list idx :: !acc);
  Alcotest.(check (list (list int)))
    "row major"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (List.rev !acc)

let test_shape_zero_dim () =
  let s = sh [ 2; 0; 3 ] in
  Alcotest.(check int) "numel 0" 0 (Shape.numel s);
  let count = ref 0 in
  Shape.iter s (fun _ -> incr count);
  Alcotest.(check int) "iter none" 0 !count

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_physical_dims () =
  (* A[M,K] blocked [M/MB, K/KB, MB, KB] *)
  let l = Layout.blocked_2d ~outer_block:32 ~inner_block:16 in
  let pd = Layout.physical_dims l (sh [ 64; 48 ]) in
  Alcotest.(check bool) "A blocked" true (Shape.equal pd (sh [ 2; 3; 32; 16 ]));
  (* B[K,N] swapped-inner: [K/KB, N/NB, NB, KB] *)
  let lb = Layout.blocked_2d_swapped ~outer_block:16 ~inner_block:32 in
  let pd = Layout.physical_dims lb (sh [ 48; 64 ]) in
  Alcotest.(check bool) "B blocked" true (Shape.equal pd (sh [ 3; 2; 32; 16 ]))

let test_layout_padding () =
  (* non-multiple dims are padded up *)
  let l = Layout.blocked_2d ~outer_block:32 ~inner_block:16 in
  let pd = Layout.physical_dims l (sh [ 33; 17 ]) in
  Alcotest.(check bool) "padded" true (Shape.equal pd (sh [ 2; 2; 32; 16 ]));
  Alcotest.(check int) "physical numel" (2 * 2 * 32 * 16)
    (Layout.physical_numel l (sh [ 33; 17 ]))

let test_layout_vnni () =
  let l = Layout.vnni ~kb:16 ~nb:32 in
  let pd = Layout.physical_dims l (sh [ 64; 64 ]) in
  Alcotest.(check bool) "vnni dims" true (Shape.equal pd (sh [ 4; 2; 4; 32; 4 ]))

let test_layout_offset_bijective () =
  (* every logical index maps to a distinct physical offset *)
  let ls =
    [
      Layout.Plain;
      Layout.blocked_2d ~outer_block:4 ~inner_block:4;
      Layout.blocked_2d_swapped ~outer_block:4 ~inner_block:4;
      Layout.vnni ~kb:4 ~nb:4;
      Layout.Blocked [ (0, 3) ];
    ]
  in
  List.iter
    (fun l ->
      let shape = sh [ 9; 8 ] in
      let seen = Hashtbl.create 64 in
      Shape.iter shape (fun idx ->
          let off = Layout.offset l shape idx in
          Alcotest.(check bool)
            (Printf.sprintf "%s in range" (Layout.to_string l))
            true
            (off >= 0 && off < Layout.physical_numel l shape);
          Alcotest.(check bool)
            (Printf.sprintf "%s distinct" (Layout.to_string l))
            false (Hashtbl.mem seen off);
          Hashtbl.add seen off ()))
    ls

let test_layout_batched () =
  let l = Layout.batched ~rank:4 (Layout.blocked_2d ~outer_block:8 ~inner_block:8) in
  let pd = Layout.physical_dims l (sh [ 2; 3; 16; 16 ]) in
  Alcotest.(check bool) "batched" true (Shape.equal pd (sh [ 2; 3; 2; 2; 8; 8 ]))

(* ------------------------------------------------------------------ *)
(* Buffer *)

let test_buffer_create_zeroed () =
  List.iter
    (fun dt ->
      let b = Buffer.create dt 7 in
      Alcotest.(check int) "len" 7 (Buffer.length b);
      for i = 0 to 6 do
        Alcotest.(check (float 0.)) "zero" 0. (Buffer.get b i)
      done)
    Dtype.all

let test_buffer_saturating_set () =
  let b = Buffer.create Dtype.S8 2 in
  Buffer.set b 0 999.;
  Buffer.set b 1 (-999.);
  Alcotest.(check (float 0.)) "high" 127. (Buffer.get b 0);
  Alcotest.(check (float 0.)) "low" (-128.) (Buffer.get b 1)

let test_buffer_fill_range () =
  let b = Buffer.create Dtype.F32 10 in
  Buffer.fill_range b 2 5 3.5;
  Alcotest.(check (float 0.)) "before" 0. (Buffer.get b 1);
  Alcotest.(check (float 0.)) "inside" 3.5 (Buffer.get b 6);
  Alcotest.(check (float 0.)) "after" 0. (Buffer.get b 7)

let test_buffer_copy_range_convert () =
  let src = Buffer.create Dtype.F32 4 in
  List.iteri (fun i v -> Buffer.set src i v) [ 1.2; -3.7; 200.; -200. ];
  let dst = Buffer.create Dtype.S8 4 in
  Buffer.copy_range ~src ~soff:0 ~dst ~doff:0 4;
  Alcotest.(check (float 0.)) "round" 1. (Buffer.get dst 0);
  Alcotest.(check (float 0.)) "round neg" (-4.) (Buffer.get dst 1);
  Alcotest.(check (float 0.)) "sat" 127. (Buffer.get dst 2);
  Alcotest.(check (float 0.)) "sat neg" (-128.) (Buffer.get dst 3)

let test_buffer_blit_dtype_mismatch () =
  let a = Buffer.create Dtype.F32 4 and b = Buffer.create Dtype.S32 4 in
  (* typed taxonomy: dtype mismatch is an [Invalid_input] carrying both
     dtypes in its structured context *)
  Alcotest.(check bool) "mismatch classified" true
    (try
       Buffer.blit ~src:a ~dst:b;
       false
     with Gc_errors.Error (Gc_errors.Invalid_input { what; ctx }) ->
       what = "Buffer.blit: dtype mismatch"
       && List.assoc_opt "src_dtype" ctx = Some "f32"
       && List.assoc_opt "dst_dtype" ctx = Some "s32");
  (* named variant carries the buffer identity *)
  Alcotest.(check bool) "named" true
    (try
       Buffer.blit_named ~name:"w0" ~src:a ~dst:b;
       false
     with Gc_errors.Error (Gc_errors.Invalid_input { ctx; _ }) ->
       List.assoc_opt "buffer" ctx = Some "w0")

(* ------------------------------------------------------------------ *)
(* Tensor *)

let test_tensor_get_set_plain () =
  let t = Tensor.create Dtype.F32 (sh [ 2; 3 ]) in
  Tensor.set t [| 1; 2 |] 42.;
  Alcotest.(check (float 0.)) "get" 42. (Tensor.get t [| 1; 2 |]);
  Alcotest.(check (float 0.)) "other" 0. (Tensor.get t [| 0; 0 |])

let test_tensor_layout_transparent () =
  (* same logical contents regardless of layout *)
  let shape = sh [ 8; 8 ] in
  let mk layout =
    Tensor.init ~layout Dtype.F32 shape (fun idx ->
        float_of_int ((10 * idx.(0)) + idx.(1)))
  in
  let plain = mk Layout.Plain in
  let blocked = mk (Layout.blocked_2d ~outer_block:4 ~inner_block:2) in
  Alcotest.(check bool) "equal" true (Tensor.equal plain blocked)

let test_tensor_random_deterministic () =
  let a = Tensor.random ~seed:7 Dtype.F32 (sh [ 32 ]) in
  let b = Tensor.random ~seed:7 Dtype.F32 (sh [ 32 ]) in
  let c = Tensor.random ~seed:8 Dtype.F32 (sh [ 32 ]) in
  Alcotest.(check bool) "same seed" true (Tensor.equal a b);
  Alcotest.(check bool) "diff seed" false (Tensor.equal a c)

let test_tensor_random_int_range () =
  let t = Tensor.random ~seed:3 ~lo:(-10.) ~hi:10. Dtype.S8 (sh [ 256 ]) in
  Tensor.iter t (fun _ v ->
      Alcotest.(check bool) "in range" true (v >= -10. && v <= 10.);
      Alcotest.(check (float 0.)) "integral" (Float.round v) v)

let test_tensor_item_scalar () =
  let t = Tensor.scalar Dtype.F32 3.25 in
  Alcotest.(check (float 0.)) "item" 3.25 (Tensor.item t)

let test_tensor_allclose () =
  let a = Tensor.of_float_list Dtype.F32 (sh [ 2 ]) [ 1.; 2. ] in
  let b = Tensor.of_float_list Dtype.F32 (sh [ 2 ]) [ 1.000001; 2. ] in
  Alcotest.(check bool) "close" true (Tensor.allclose a b);
  let c = Tensor.of_float_list Dtype.F32 (sh [ 2 ]) [ 1.1; 2. ] in
  Alcotest.(check bool) "far" false (Tensor.allclose a c)

(* ------------------------------------------------------------------ *)
(* Reorder *)

let test_reorder_roundtrip () =
  let t = Tensor.random ~seed:1 Dtype.F32 (sh [ 12; 20 ]) in
  let blocked = Reorder.to_layout t (Layout.blocked_2d ~outer_block:4 ~inner_block:5) in
  let back = Reorder.to_layout blocked Layout.Plain in
  Alcotest.(check bool) "roundtrip" true (Tensor.equal t back)

let test_reorder_cast () =
  let t = Tensor.of_float_list Dtype.F32 (sh [ 3 ]) [ 1.4; 2.6; -300. ] in
  let c = Reorder.cast t Dtype.S8 in
  Alcotest.(check (float 0.)) "a" 1. (Tensor.get c [| 0 |]);
  Alcotest.(check (float 0.)) "b" 3. (Tensor.get c [| 1 |]);
  Alcotest.(check (float 0.)) "c" (-128.) (Tensor.get c [| 2 |])

let test_reorder_transpose () =
  let t = Tensor.init Dtype.F32 (sh [ 2; 3 ]) (fun i -> float_of_int ((i.(0) * 3) + i.(1))) in
  let tr = Reorder.transpose t [| 1; 0 |] in
  Alcotest.(check bool) "shape" true (Shape.equal (Tensor.shape tr) (sh [ 3; 2 ]));
  Alcotest.(check (float 0.)) "val" (Tensor.get t [| 1; 2 |]) (Tensor.get tr [| 2; 1 |])

let test_reorder_pad_unpad () =
  let t = Tensor.random ~seed:2 Dtype.F32 (sh [ 3; 5 ]) in
  let p = Tensor.pad_to t (sh [ 4; 8 ]) in
  Alcotest.(check (float 0.)) "pad zero" 0. (Tensor.get p [| 3; 7 |]);
  Alcotest.(check (float 0.)) "pad keep" (Tensor.get t [| 2; 4 |]) (Tensor.get p [| 2; 4 |]);
  let u = Tensor.slice_to p (sh [ 3; 5 ]) in
  Alcotest.(check bool) "unpad" true (Tensor.equal t u)

(* ------------------------------------------------------------------ *)
(* Ref ops *)

let feq = Alcotest.(check (float 1e-5))

let test_ref_eltwise () =
  let t = Tensor.of_float_list Dtype.F32 (sh [ 4 ]) [ -1.; 0.; 0.5; 2. ] in
  let r = Ref_ops.relu t in
  Alcotest.(check (list (float 0.))) "relu" [ 0.; 0.; 0.5; 2. ]
    (Array.to_list (Tensor.to_float_array r));
  let s = Ref_ops.sigmoid t in
  feq "sigmoid(0)" 0.5 (Tensor.get s [| 1 |]);
  let e = Ref_ops.exp t in
  feq "exp(2)" (Stdlib.exp 2.) (Tensor.get e [| 3 |])

let test_ref_gelu_forms_agree () =
  let t = Tensor.random ~seed:5 ~lo:(-3.) ~hi:3. Dtype.F32 (sh [ 64 ]) in
  let a = Ref_ops.gelu_erf t and b = Ref_ops.gelu_tanh t in
  Alcotest.(check bool) "close" true (Tensor.allclose ~rtol:1e-2 ~atol:5e-3 a b)

let test_ref_binary_broadcast () =
  let a = Tensor.of_float_list Dtype.F32 (sh [ 2; 2 ]) [ 1.; 2.; 3.; 4. ] in
  let b = Tensor.of_float_list Dtype.F32 (sh [ 2 ]) [ 10.; 20. ] in
  let c = Ref_ops.add a b in
  Alcotest.(check (list (float 0.))) "bcast add" [ 11.; 22.; 13.; 24. ]
    (Array.to_list (Tensor.to_float_array c))

let test_ref_reduce () =
  let a = Tensor.of_float_list Dtype.F32 (sh [ 2; 3 ]) [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let s = Ref_ops.reduce Sum ~axis:1 ~keepdims:false a in
  Alcotest.(check (list (float 0.))) "sum ax1" [ 6.; 15. ]
    (Array.to_list (Tensor.to_float_array s));
  let m = Ref_ops.reduce Max ~axis:0 ~keepdims:true a in
  Alcotest.(check bool) "keepdims shape" true (Shape.equal (Tensor.shape m) (sh [ 1; 3 ]));
  Alcotest.(check (list (float 0.))) "max ax0" [ 4.; 5.; 6. ]
    (Array.to_list (Tensor.to_float_array m));
  let mean = Ref_ops.reduce Mean ~axis:1 ~keepdims:false a in
  Alcotest.(check (list (float 0.))) "mean" [ 2.; 5. ]
    (Array.to_list (Tensor.to_float_array mean));
  (* negative axis *)
  let s2 = Ref_ops.reduce Sum ~axis:(-1) ~keepdims:false a in
  Alcotest.(check bool) "neg axis" true (Tensor.equal s s2)

let test_ref_matmul_small () =
  let a = Tensor.of_float_list Dtype.F32 (sh [ 2; 3 ]) [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let b = Tensor.of_float_list Dtype.F32 (sh [ 3; 2 ]) [ 7.; 8.; 9.; 10.; 11.; 12. ] in
  let c = Ref_ops.matmul a b in
  Alcotest.(check (list (float 0.))) "2x3 @ 3x2" [ 58.; 64.; 139.; 154. ]
    (Array.to_list (Tensor.to_float_array c))

let test_ref_matmul_batched_broadcast () =
  let a = Tensor.random ~seed:11 Dtype.F32 (sh [ 2; 3; 4 ]) in
  let b = Tensor.random ~seed:12 Dtype.F32 (sh [ 4; 5 ]) in
  let c = Ref_ops.matmul a b in
  Alcotest.(check bool) "shape" true (Shape.equal (Tensor.shape c) (sh [ 2; 3; 5 ]));
  (* batch 1 equals the unbatched product of that slice *)
  let a1 = Tensor.init Dtype.F32 (sh [ 3; 4 ]) (fun i -> Tensor.get a [| 1; i.(0); i.(1) |]) in
  let c1 = Ref_ops.matmul a1 b in
  Shape.iter (sh [ 3; 5 ]) (fun i ->
      feq "batch slice" (Tensor.get c1 i) (Tensor.get c [| 1; i.(0); i.(1) |]))

let test_ref_matmul_int8_exact () =
  let a = Tensor.random ~seed:20 ~lo:0. ~hi:255. Dtype.U8 (sh [ 4; 8 ]) in
  let b = Tensor.random ~seed:21 ~lo:(-128.) ~hi:127. Dtype.S8 (sh [ 8; 3 ]) in
  let c = Ref_ops.matmul a b in
  Alcotest.(check bool) "s32 out" true (Dtype.equal (Tensor.dtype c) Dtype.S32);
  (* recompute one element manually *)
  let acc = ref 0 in
  for k = 0 to 7 do
    acc := !acc + (int_of_float (Tensor.get a [| 2; k |]) * int_of_float (Tensor.get b [| k; 1 |]))
  done;
  Alcotest.(check (float 0.)) "exact" (float_of_int !acc) (Tensor.get c [| 2; 1 |])

let test_ref_softmax () =
  let t = Tensor.of_float_list Dtype.F32 (sh [ 2; 3 ]) [ 1.; 2.; 3.; 1.; 1.; 1. ] in
  let s = Ref_ops.softmax ~axis:1 t in
  (* rows sum to one *)
  let sums = Ref_ops.reduce Sum ~axis:1 ~keepdims:false s in
  Tensor.iter sums (fun _ v -> feq "sum=1" 1. v);
  feq "uniform" (1. /. 3.) (Tensor.get s [| 1; 0 |]);
  (* shift invariance *)
  let t2 = Ref_ops.add t (Tensor.scalar Dtype.F32 100.) in
  let s2 = Ref_ops.softmax ~axis:1 t2 in
  Alcotest.(check bool) "shift invariant" true (Tensor.allclose s s2)

let test_ref_quantize_roundtrip () =
  let t = Tensor.random ~seed:9 ~lo:(-4.) ~hi:4. Dtype.F32 (sh [ 32 ]) in
  let q = Ref_ops.quantize ~scale:0.05 ~zp:10 Dtype.U8 t in
  let d = Ref_ops.dequantize ~scale:0.05 ~zp:10 q in
  (* u8 with zp=10 and scale 0.05 represents [-0.5, 12.25]; inside that
     range the roundtrip error is bounded by scale/2 *)
  Tensor.iter t (fun idx v ->
      if v > -0.45 && v < 3.9 then
        Alcotest.(check bool) "within scale" true
          (Float.abs (Tensor.get d idx -. v) <= 0.026));
  (* below the representable range the value saturates to -0.5 *)
  Tensor.iter t (fun idx v ->
      if v < -0.6 then
        Alcotest.(check (float 1e-6)) "saturates" (-0.5) (Tensor.get d idx))

let test_ref_colsum () =
  let b = Tensor.of_float_list Dtype.F32 (sh [ 2; 3 ]) [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let cs = Ref_ops.colsum b in
  Alcotest.(check (list (float 0.))) "colsum" [ 5.; 7.; 9. ]
    (Array.to_list (Tensor.to_float_array cs))

(* ------------------------------------------------------------------ *)
(* Property tests *)

let small_shape =
  QCheck.Gen.(
    list_size (int_range 1 3) (int_range 1 6) >|= fun dims -> Shape.of_list dims)

let arb_shape = QCheck.make ~print:Shape.to_string small_shape

let prop_offset_bijective =
  QCheck.Test.make ~name:"shape offset is bijective" ~count:100 arb_shape
    (fun s ->
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      Shape.iter s (fun idx ->
          let off = Shape.offset s idx in
          if Hashtbl.mem seen off then ok := false;
          Hashtbl.add seen off ());
      !ok && Hashtbl.length seen = Shape.numel s)

let prop_broadcast_commutative =
  QCheck.Test.make ~name:"broadcast is commutative" ~count:200
    (QCheck.pair arb_shape arb_shape) (fun (a, b) ->
      match (Shape.broadcast a b, Shape.broadcast b a) with
      | Some x, Some y -> Shape.equal x y
      | None, None -> true
      | _ -> false)

let prop_blocked_layout_roundtrip =
  QCheck.Test.make ~name:"reorder to blocked and back is identity" ~count:50
    (QCheck.pair (QCheck.make QCheck.Gen.(pair (int_range 1 12) (int_range 1 12)))
       (QCheck.make QCheck.Gen.(pair (int_range 1 5) (int_range 1 5))))
    (fun ((m, n), (bm, bn)) ->
      let t =
        Tensor.random ~seed:(m + (13 * n)) Dtype.F32 (sh [ m; n ])
      in
      let blocked =
        Reorder.to_layout t (Layout.blocked_2d ~outer_block:bm ~inner_block:bn)
      in
      Tensor.equal t (Reorder.to_layout blocked Layout.Plain))

let prop_softmax_rows_sum_to_one =
  QCheck.Test.make ~name:"softmax rows sum to 1" ~count:50
    (QCheck.make QCheck.Gen.(pair (int_range 1 8) (int_range 1 8)))
    (fun (m, n) ->
      let t = Tensor.random ~seed:(m * n) ~lo:(-5.) ~hi:5. Dtype.F32 (sh [ m; n ]) in
      let s = Ref_ops.softmax ~axis:1 t in
      let sums = Ref_ops.reduce Sum ~axis:1 ~keepdims:false s in
      let ok = ref true in
      Tensor.iter sums (fun _ v -> if Float.abs (v -. 1.) > 1e-5 then ok := false);
      !ok)

let prop_matmul_distributes_over_add =
  QCheck.Test.make ~name:"A(B+C) = AB + AC" ~count:30
    (QCheck.make QCheck.Gen.(triple (int_range 1 6) (int_range 1 6) (int_range 1 6)))
    (fun (m, k, n) ->
      let a = Tensor.random ~seed:1 Dtype.F32 (sh [ m; k ]) in
      let b = Tensor.random ~seed:2 Dtype.F32 (sh [ k; n ]) in
      let c = Tensor.random ~seed:3 Dtype.F32 (sh [ k; n ]) in
      let lhs = Ref_ops.matmul a (Ref_ops.add b c) in
      let rhs = Ref_ops.add (Ref_ops.matmul a b) (Ref_ops.matmul a c) in
      Tensor.allclose ~rtol:1e-4 ~atol:1e-5 lhs rhs)

(* ------------------------------------------------------------------ *)
(* Walker oracle: the per-element data movement the reference evaluator
   ran before its ops moved onto [Walk] — one [Layout.offset] per access
   over [Shape.iter]. The walked ops must match it bit for bit, block
   padding included, since the reference is every other test's oracle. *)

module Oracle = struct
  let fill t out =
    Shape.iter (Tensor.shape t) (fun idx -> Tensor.set out idx (Tensor.get t idx));
    out

  let to_layout t layout =
    fill t (Tensor.create ~layout (Tensor.dtype t) (Tensor.shape t))

  let cast t dtype =
    fill t (Tensor.create ~layout:(Tensor.layout t) dtype (Tensor.shape t))

  let transpose t perm =
    let shape = Tensor.shape t in
    let out_shape = Shape.of_array (Array.map (Shape.dim shape) perm) in
    let out = Tensor.create (Tensor.dtype t) out_shape in
    Shape.iter out_shape (fun oidx ->
        let iidx = Array.make (Array.length perm) 0 in
        Array.iteri (fun i p -> iidx.(p) <- oidx.(i)) perm;
        Tensor.set out oidx (Tensor.get t iidx));
    out

  let broadcast_index ~from idx =
    let from = Shape.to_array from in
    let rf = Array.length from and ri = Array.length idx in
    Array.init rf (fun i ->
        let j = i + (ri - rf) in
        if j < 0 then 0 else if from.(i) = 1 then 0 else idx.(j))

  let broadcast t target =
    Tensor.init (Tensor.dtype t) target (fun idx ->
        Tensor.get t (broadcast_index ~from:(Tensor.shape t) idx))

  let reshape t target =
    Tensor.init (Tensor.dtype t) target (fun idx ->
        Tensor.get t (Shape.unoffset (Tensor.shape t) (Shape.offset target idx)))

  let map2 dt f a b out_shape =
    Tensor.init dt out_shape (fun idx ->
        f
          (Tensor.get a (broadcast_index ~from:(Tensor.shape a) idx))
          (Tensor.get b (broadcast_index ~from:(Tensor.shape b) idx)))

  let reduce (kind : Ref_ops.reduce_kind) ~axis ~keepdims t =
    let shape = Tensor.shape t in
    let rank = Shape.rank shape in
    let n = Shape.dim shape axis in
    let out_shape =
      if keepdims then
        Shape.of_list (List.mapi (fun i d -> if i = axis then 1 else d) (Shape.to_list shape))
      else Shape.of_list (List.filteri (fun i _ -> i <> axis) (Shape.to_list shape))
    in
    let dt = Tensor.dtype t in
    let out_dt = if Dtype.is_float dt then dt else Dtype.S32 in
    Tensor.init out_dt out_shape (fun oidx ->
        let iidx =
          if keepdims then Array.copy oidx
          else begin
            let a = Array.make rank 0 and j = ref 0 in
            for i = 0 to rank - 1 do
              if i <> axis then begin
                a.(i) <- oidx.(!j);
                incr j
              end
            done;
            a
          end
        in
        let acc = ref None in
        for k = 0 to n - 1 do
          iidx.(axis) <- k;
          let v = Tensor.get t iidx in
          acc :=
            Some
              (match (!acc, kind) with
              | None, _ -> v
              | Some a, (Sum | Mean) -> a +. v
              | Some a, Max -> Float.max a v
              | Some a, Min -> Float.min a v)
        done;
        let v = Option.value !acc ~default:0. in
        match kind with Mean -> v /. float_of_int n | _ -> v)

  (* the comparisons and traversals [Tensor] ran before they walked *)
  let equal a b =
    Shape.equal (Tensor.shape a) (Tensor.shape b)
    &&
    let ok = ref true in
    Shape.iter (Tensor.shape a) (fun idx ->
        if Tensor.get a idx <> Tensor.get b idx then ok := false);
    !ok

  let max_abs_diff a b =
    let m = ref 0. in
    Shape.iter (Tensor.shape a) (fun idx ->
        m := Float.max !m (Float.abs (Tensor.get a idx -. Tensor.get b idx)));
    !m

  let allclose ~rtol ~atol a b =
    Shape.equal (Tensor.shape a) (Tensor.shape b)
    &&
    let ok = ref true in
    Shape.iter (Tensor.shape a) (fun idx ->
        let x = Tensor.get a idx and y = Tensor.get b idx in
        if Float.abs (x -. y) > atol +. (rtol *. Float.abs y) then ok := false);
    !ok

  let iter t f = Shape.iter (Tensor.shape t) (fun idx -> f idx (Tensor.get t idx))

  let map2_same f a b =
    Tensor.init (Tensor.dtype a) (Tensor.shape a) (fun idx ->
        f (Tensor.get a idx) (Tensor.get b idx))

  let matmul ~int_path out_dt a b =
    let sa = Tensor.shape a and sb = Tensor.shape b in
    let ra = Shape.rank sa and rb = Shape.rank sb in
    let m = Shape.dim sa (ra - 2) and ka = Shape.dim sa (ra - 1) in
    let n = Shape.dim sb (rb - 1) in
    let batch_a = Shape.sub sa 0 (ra - 2) and batch_b = Shape.sub sb 0 (rb - 2) in
    let batch = Option.get (Shape.broadcast batch_a batch_b) in
    let out = Tensor.create out_dt (Shape.concat batch (sh [ m; n ])) in
    Shape.iter batch (fun bidx ->
        let aidx = Array.append (broadcast_index ~from:batch_a bidx) [| 0; 0 |] in
        let bidx' = Array.append (broadcast_index ~from:batch_b bidx) [| 0; 0 |] in
        let oidx = Array.append bidx [| 0; 0 |] in
        let ro = Array.length oidx in
        for i = 0 to m - 1 do
          for j = 0 to n - 1 do
            aidx.(ra - 2) <- i;
            bidx'.(rb - 1) <- j;
            oidx.(ro - 2) <- i;
            oidx.(ro - 1) <- j;
            let iacc = ref 0 and facc = ref 0. in
            for k = 0 to ka - 1 do
              aidx.(ra - 1) <- k;
              bidx'.(rb - 2) <- k;
              let x = Tensor.get a aidx and y = Tensor.get b bidx' in
              if int_path then iacc := !iacc + (int_of_float x * int_of_float y)
              else facc := !facc +. (x *. y)
            done;
            Tensor.set out oidx (if int_path then float_of_int !iacc else !facc)
          done
        done);
    out
end

(* Same dtype, shape, layout and stored bits in every physical slot. *)
let same_bits a b =
  let x = Tensor.buffer a and y = Tensor.buffer b in
  Dtype.equal (Tensor.dtype a) (Tensor.dtype b)
  && Shape.equal (Tensor.shape a) (Tensor.shape b)
  && Layout.equal (Tensor.layout a) (Tensor.layout b)
  && Buffer.length x = Buffer.length y
  &&
  let ok = ref true in
  for i = 0 to Buffer.length x - 1 do
    if Int64.bits_of_float (Buffer.get x i) <> Int64.bits_of_float (Buffer.get y i)
    then ok := false
  done;
  !ok

(* Shapes of rank 1-4 whose dims rarely divide the blocks below. *)
let gen_shape st =
  Array.init (1 + Random.State.int st 4) (fun _ -> 1 + Random.State.int st 7)

(* Plain, one or two random blocks on random axes (an axis may repeat),
   or the matmul template layouts (swapped inner blocks, VNNI) on the last
   two axes. *)
let gen_layout st dims =
  let rank = Array.length dims in
  let block () = (Random.State.int st rank, 1 + Random.State.int st 5) in
  match Random.State.int st 5 with
  | 0 -> Layout.Plain
  | 1 -> Layout.Blocked [ block () ]
  | 2 -> Layout.Blocked [ block (); block (); block () ]
  | 3 when rank >= 2 ->
      Layout.batched ~rank
        (Layout.blocked_2d_swapped ~outer_block:(1 + Random.State.int st 4)
           ~inner_block:(1 + Random.State.int st 4))
  | _ when rank >= 2 ->
      Layout.batched ~rank
        (Layout.vnni ~kb:(4 * (1 + Random.State.int st 2)) ~nb:(1 + Random.State.int st 4))
  | _ -> Layout.Blocked [ block (); block () ]

(* Magnitudes beyond int8 (saturation), half of them eighths (rounding
   ties) and half full-mantissa floats, whose sums round differently in
   another order; integer dtypes round and saturate them on store. *)
let gen_tensor st dtype dims =
  let layout = gen_layout st dims in
  Tensor.init ~layout dtype (Shape.of_array dims) (fun _ ->
      if Random.State.bool st then float_of_int (Random.State.int st 2400 - 1200) /. 8.
      else Random.State.float st 300. -. 150.)

let gen_dtype st = List.nth Dtype.all (Random.State.int st (List.length Dtype.all))

let prop_axis_offsets_sum =
  QCheck.Test.make ~name:"axis_offsets sum to Layout.offset" ~count:300
    QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed |] in
      let dims = gen_shape st in
      let shape = Shape.of_array dims and l = gen_layout st dims in
      let tabs = Layout.axis_offsets l shape in
      let ok = ref true in
      Shape.iter shape (fun idx ->
          let s = ref 0 in
          Array.iteri (fun a i -> s := !s + tabs.(a).(i)) idx;
          if !s <> Layout.offset l shape idx then ok := false);
      !ok)

let prop_moves_match_oracle =
  QCheck.Test.make ~name:"to_layout/cast/transpose/broadcast/reshape = oracle"
    ~count:300 QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed |] in
      let dims = gen_shape st in
      let t = gen_tensor st (gen_dtype st) dims in
      let target = gen_layout st dims in
      let dt = gen_dtype st in
      let perm = Array.init (Array.length dims) Fun.id in
      for i = Array.length perm - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- x
      done;
      let wide = Shape.of_array (Array.append [| 2 |] dims) in
      let flat = sh [ Array.fold_left ( * ) 1 dims ] in
      same_bits (Reorder.to_layout t target) (Oracle.to_layout t target)
      && same_bits (Reorder.cast t dt) (Oracle.cast t dt)
      && same_bits (Reorder.transpose t perm) (Oracle.transpose t perm)
      && same_bits (Reorder.broadcast t wide) (Oracle.broadcast t wide)
      && same_bits (Reorder.reshape t flat) (Oracle.reshape t flat))

let prop_ref_ops_match_oracle =
  QCheck.Test.make ~name:"map2/reduce/matmul = oracle" ~count:200
    QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed |] in
      let dims = gen_shape st in
      let rank = Array.length dims in
      let a = gen_tensor st (gen_dtype st) dims in
      (* b broadcasts into a: a suffix of a's dims, some forced to 1 *)
      let drop = Random.State.int st rank in
      let bdims =
        Array.map
          (fun d -> if Random.State.bool st then 1 else d)
          (Array.sub dims drop (rank - drop))
      in
      let b = gen_tensor st (gen_dtype st) bdims in
      let a, b = if Random.State.bool st then (a, b) else (b, a) in
      let out_shape = Option.get (Shape.broadcast (Tensor.shape a) (Tensor.shape b)) in
      let sum = Ref_ops.add a b in
      let map2_ok =
        same_bits sum (Oracle.map2 (Tensor.dtype sum) ( +. ) a b out_shape)
      in
      let reduce_ok =
        List.for_all
          (fun kind ->
            List.for_all
              (fun keepdims ->
                let axis = Random.State.int st (Shape.rank (Tensor.shape a)) in
                same_bits
                  (Ref_ops.reduce kind ~axis ~keepdims a)
                  (Oracle.reduce kind ~axis ~keepdims a))
              [ true; false ])
          [ Ref_ops.Sum; Max; Min; Mean ]
      in
      (* [batch?; m; k] x [k; n] (or batched both sides) *)
      let m = 1 + Random.State.int st 6 and k = 1 + Random.State.int st 9 in
      let n = 1 + Random.State.int st 6 in
      let bt = if Random.State.bool st then [| 1 + Random.State.int st 3 |] else [||] in
      let xdims = Array.append bt [| m; k |] in
      let ydims = Array.append (if Random.State.bool st then bt else [||]) [| k; n |] in
      let matmul_ok (dx, dy, out_dt, int_path) =
        let x = gen_tensor st dx xdims and y = gen_tensor st dy ydims in
        same_bits
          (Ref_ops.matmul ~out_dtype:out_dt x y)
          (Oracle.matmul ~int_path out_dt x y)
      in
      map2_ok && reduce_ok
      && List.for_all matmul_ok
           [
             (Dtype.U8, Dtype.S8, Dtype.S32, true);
             (Dtype.S8, Dtype.S8, Dtype.S32, true);
             (Dtype.F32, Dtype.F32, Dtype.F32, false);
             (Dtype.F32, Dtype.F32, Dtype.Bf16, false);
           ])

(* Tensor's comparisons and traversals against their per-element
   originals: two same-shape tensors in independent random layouts
   (blocked with padding, swapped, VNNI) and dtypes; [b] is [a] re-laid
   out, nudged, scaled or unrelated, so equal and allclose go both ways,
   and an f32 NaN now and then checks that max_abs_diff keeps it. *)
let prop_compare_match_oracle =
  QCheck.Test.make ~name:"equal/allclose/max_abs_diff/iter/map2 = oracle"
    ~count:300 QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed |] in
      let dims = gen_shape st in
      let a = gen_tensor st (gen_dtype st) dims in
      let b =
        match Random.State.int st 4 with
        | 0 -> Reorder.to_layout a (gen_layout st dims)
        | 1 ->
            let b = Reorder.to_layout a (gen_layout st dims) in
            let idx = Array.map (fun d -> Random.State.int st d) dims in
            Tensor.set b idx (Tensor.get b idx +. Random.State.float st 1e-3);
            b
        | 2 -> Tensor.map2 (fun x _ -> 1.75 *. x) a a
        | _ -> gen_tensor st (gen_dtype st) dims
      in
      if Tensor.dtype a = Dtype.F32 && Random.State.int st 8 = 0 then
        Tensor.set a (Array.map (fun d -> Random.State.int st d) dims) Float.nan;
      (* a relative tolerance near 1 puts the scaled copy's pairs on either
         side of the bound, which is relative to [b]'s value *)
      let rtol = Random.State.float st (if Random.State.bool st then 1e-3 else 1.) in
      let atol = Random.State.float st 1e-3 in
      let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      let visits t iter =
        let acc = ref [] in
        iter t (fun idx v -> acc := (Array.copy idx, v) :: !acc);
        List.rev !acc
      in
      Tensor.equal a b = Oracle.equal a b
      && Tensor.allclose ~rtol ~atol a b = Oracle.allclose ~rtol ~atol a b
      && same_float (Tensor.max_abs_diff a b) (Oracle.max_abs_diff a b)
      && List.equal
           (fun (i, x) (j, y) -> i = j && same_float x y)
           (visits a Tensor.iter) (visits a Oracle.iter)
      && same_bits (Tensor.map2 ( -. ) a b) (Oracle.map2_same ( -. ) a b))

(* Allocation pins, in minor-heap words per element: deterministic where
   a timing pin is not. The walk allocates its tables (sum of the dims)
   and nothing per element; per-element [Layout.offset] cost ~91. *)
let words_per_elem n f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. before) /. float_of_int n

let test_walk_allocation () =
  let shape = sh [ 512; 256 ] in
  let n = Shape.numel shape in
  let w = Tensor.random ~seed:3 Dtype.F32 shape in
  let blocked = Layout.Blocked [ (1, 16); (0, 64) ] in
  let per = words_per_elem n (fun () -> Reorder.to_layout w blocked) in
  if per >= 0.05 then Alcotest.failf "to_layout: %.3f words/element" per;
  let q = Tensor.random ~seed:4 ~lo:(-128.) ~hi:127. Dtype.S8 shape in
  let per = words_per_elem n (fun () -> Reorder.cast q Dtype.F32) in
  if per > 3. then Alcotest.failf "cast s8->f32: %.3f words/element" per;
  let per = words_per_elem n (fun () -> Ref_ops.reduce Sum ~axis:0 ~keepdims:false q) in
  if per > 3. then Alcotest.failf "reduce sum: %.3f words/element" per

(* equal/allclose/max_abs_diff walk both tensors with one unboxed
   comparison per element and allocate only their tables (a per-element
   [Tensor.get] cost ~12 words); iter boxes only the value it hands its
   callback *)
let test_compare_allocation () =
  let shape = sh [ 256; 256 ] in
  let n = Shape.numel shape in
  let a = Tensor.random ~seed:5 Dtype.F32 shape in
  let b = Reorder.to_layout a (Layout.blocked_2d ~outer_block:8 ~inner_block:16) in
  let pin name limit f =
    let per = words_per_elem n f in
    if per > limit then Alcotest.failf "%s: %.3f words/element" name per
  in
  pin "equal" 0.05 (fun () -> Tensor.equal a b);
  pin "allclose" 0.05 (fun () -> Tensor.allclose a b);
  pin "max_abs_diff" 0.05 (fun () -> Tensor.max_abs_diff a b);
  let sum = [| 0. |] in
  pin "iter" 3. (fun () -> Tensor.iter b (fun _ v -> sum.(0) <- sum.(0) +. v))

let () =
  Alcotest.run "gc_tensor"
    [
      ( "dtype",
        [
          Alcotest.test_case "sizes" `Quick test_dtype_sizes;
          Alcotest.test_case "string roundtrip" `Quick test_dtype_roundtrip_string;
          Alcotest.test_case "saturation" `Quick test_dtype_saturation;
          Alcotest.test_case "bf16 rounding" `Quick test_bf16_rounding;
        ] );
      ( "shape",
        [
          Alcotest.test_case "basic" `Quick test_shape_basic;
          Alcotest.test_case "offset roundtrip" `Quick test_shape_offset_roundtrip;
          Alcotest.test_case "offset rejects" `Quick test_shape_offset_rejects;
          Alcotest.test_case "broadcast" `Quick test_shape_broadcast;
          Alcotest.test_case "iter order" `Quick test_shape_iter_order;
          Alcotest.test_case "zero dim" `Quick test_shape_zero_dim;
        ] );
      ( "layout",
        [
          Alcotest.test_case "physical dims" `Quick test_layout_physical_dims;
          Alcotest.test_case "padding" `Quick test_layout_padding;
          Alcotest.test_case "vnni" `Quick test_layout_vnni;
          Alcotest.test_case "offset bijective" `Quick test_layout_offset_bijective;
          Alcotest.test_case "batched" `Quick test_layout_batched;
        ] );
      ( "buffer",
        [
          Alcotest.test_case "create zeroed" `Quick test_buffer_create_zeroed;
          Alcotest.test_case "saturating set" `Quick test_buffer_saturating_set;
          Alcotest.test_case "fill range" `Quick test_buffer_fill_range;
          Alcotest.test_case "copy range convert" `Quick test_buffer_copy_range_convert;
          Alcotest.test_case "blit mismatch" `Quick test_buffer_blit_dtype_mismatch;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "get/set" `Quick test_tensor_get_set_plain;
          Alcotest.test_case "layout transparent" `Quick test_tensor_layout_transparent;
          Alcotest.test_case "random deterministic" `Quick test_tensor_random_deterministic;
          Alcotest.test_case "random int range" `Quick test_tensor_random_int_range;
          Alcotest.test_case "item" `Quick test_tensor_item_scalar;
          Alcotest.test_case "allclose" `Quick test_tensor_allclose;
        ] );
      ( "reorder",
        [
          Alcotest.test_case "roundtrip" `Quick test_reorder_roundtrip;
          Alcotest.test_case "cast" `Quick test_reorder_cast;
          Alcotest.test_case "transpose" `Quick test_reorder_transpose;
          Alcotest.test_case "pad/unpad" `Quick test_reorder_pad_unpad;
          Alcotest.test_case "walk allocation" `Quick test_walk_allocation;
          Alcotest.test_case "compare allocation" `Quick test_compare_allocation;
        ] );
      ( "ref_ops",
        [
          Alcotest.test_case "eltwise" `Quick test_ref_eltwise;
          Alcotest.test_case "gelu forms agree" `Quick test_ref_gelu_forms_agree;
          Alcotest.test_case "binary broadcast" `Quick test_ref_binary_broadcast;
          Alcotest.test_case "reduce" `Quick test_ref_reduce;
          Alcotest.test_case "matmul small" `Quick test_ref_matmul_small;
          Alcotest.test_case "matmul batched" `Quick test_ref_matmul_batched_broadcast;
          Alcotest.test_case "matmul int8 exact" `Quick test_ref_matmul_int8_exact;
          Alcotest.test_case "softmax" `Quick test_ref_softmax;
          Alcotest.test_case "quantize roundtrip" `Quick test_ref_quantize_roundtrip;
          Alcotest.test_case "colsum" `Quick test_ref_colsum;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_offset_bijective;
            prop_broadcast_commutative;
            prop_blocked_layout_roundtrip;
            prop_softmax_rows_sum_to_one;
            prop_matmul_distributes_over_add;
            prop_axis_offsets_sum;
            prop_moves_match_oracle;
            prop_ref_ops_match_oracle;
            prop_compare_match_oracle;
          ] );
    ]
