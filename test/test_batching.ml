(* Tests for shape-polymorphic compilation: symbolic dims, shape-class
   fingerprints, bucketed specialization, tensor pad/slice/concat helpers
   and the bounded compile cache. The serving-side coalescing tests live
   in test_serve.ml. *)

open Gc_tensor
open Gc_graph_ir
module Counters = Gc_observe.Counters

let sh = Shape.of_list

(* ------------------------------------------------------------------ *)
(* Dim *)

let test_dim_basics () =
  let dims = Dim.of_shape (sh [ 4; 8 ]) in
  Alcotest.(check bool)
    "of_shape fixed" true
    (Dim.dims_equal dims [| Dim.Fixed 4; Dim.Fixed 8 |]);
  Alcotest.(check bool) "no syms" false (Dim.has_sym dims);
  let d = [| Dim.Sym "b"; Dim.Fixed 8; Dim.Sym "s" |] in
  Alcotest.(check (list string)) "syms first-mention" [ "b"; "s" ] (Dim.syms d);
  (match Dim.eval ~env:[ ("b", 3); ("s", 5) ] d with
  | Ok s -> Alcotest.(check bool) "eval" true (Shape.equal s (sh [ 3; 8; 5 ]))
  | Error e -> Alcotest.fail e);
  (match Dim.eval ~env:[ ("b", 3) ] d with
  | Ok _ -> Alcotest.fail "eval should fail on unbound sym"
  | Error _ -> ());
  Alcotest.(check bool)
    "consistent" true
    (Dim.consistent d (sh [ 7; 8; 2 ]));
  Alcotest.(check bool)
    "inconsistent fixed" false
    (Dim.consistent d (sh [ 7; 9; 2 ]))

let test_dim_broadcast () =
  let b2 a b = Dim.broadcast2 a b in
  (match b2 [| Dim.Sym "b"; Dim.Fixed 8 |] [| Dim.Fixed 1; Dim.Fixed 8 |] with
  | Some r ->
      Alcotest.(check bool)
        "sym x 1" true
        (Dim.dims_equal r [| Dim.Sym "b"; Dim.Fixed 8 |])
  | None -> Alcotest.fail "broadcast failed");
  (match b2 [| Dim.Sym "b" |] [| Dim.Sym "b" |] with
  | Some r ->
      Alcotest.(check bool) "sym x sym" true (Dim.dims_equal r [| Dim.Sym "b" |])
  | None -> Alcotest.fail "broadcast failed");
  Alcotest.(check bool)
    "sym x other sym = none" true
    (b2 [| Dim.Sym "b" |] [| Dim.Sym "c" |] = None);
  (* rank alignment: missing leading dims come from the longer side *)
  match b2 [| Dim.Sym "b"; Dim.Fixed 1; Dim.Fixed 8 |] [| Dim.Fixed 8 |] with
  | Some r ->
      Alcotest.(check bool)
        "rank align" true
        (Dim.dims_equal r [| Dim.Sym "b"; Dim.Fixed 1; Dim.Fixed 8 |])
  | None -> Alcotest.fail "broadcast failed"

(* ------------------------------------------------------------------ *)
(* Builder propagation + substitution *)

let sym_mlp ?(batch = 4) () =
  Gc_workloads.Mlp.build_f32 ~batch ~batch_dim:(Dim.Sym "b")
    ~hidden:[ 13; 32; 16 ] ()

let test_builder_propagates_syms () =
  let built = sym_mlp () in
  let out = List.hd built.graph.outputs in
  Alcotest.(check bool)
    "output dims symbolic" true
    (Dim.dims_equal out.dims [| Dim.Sym "b"; Dim.Fixed 16 |]);
  Alcotest.(check (list string)) "graph syms" [ "b" ] (Graph.syms built.graph)

let test_mha_sym_propagation () =
  let built =
    Gc_workloads.Mha.build_f32 ~batch:2 ~seq:16 ~hidden:32 ~heads:4
      ~batch_dim:(Dim.Sym "b") ~seq_dim:(Dim.Sym "s") ()
  in
  let out = List.hd built.graph.outputs in
  Alcotest.(check bool)
    "mha output dims" true
    (Dim.dims_equal out.dims
       [| Dim.Sym "b"; Dim.Fixed 4; Dim.Sym "s"; Dim.Fixed 8 |]);
  Alcotest.(check (list string)) "two syms" [ "b"; "s" ] (Graph.syms built.graph)

let test_substitute () =
  let built = sym_mlp () in
  (match Graph.substitute ~env:[ ("b", 6) ] built.graph with
  | Ok (g, _) ->
      Alcotest.(check bool) "verifies" true (Result.is_ok (Graph.verify g));
      Alcotest.(check bool) "no syms left" true (Graph.syms g = []);
      let out = List.hd g.outputs in
      Alcotest.(check bool)
        "output shape" true
        (Shape.equal out.shape (sh [ 6; 16 ]))
  | Error e -> Alcotest.fail e);
  match Graph.substitute ~env:[ ("nope", 6) ] built.graph with
  | Ok _ -> Alcotest.fail "unbound sym should fail"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Shape-class fingerprint *)

let test_fingerprint_shape_class () =
  let fp b = Core.fingerprint (sym_mlp ~batch:b ()).graph in
  Alcotest.(check string)
    "same class across representative batch" (fp 4) (fp 16);
  let mono b =
    Core.fingerprint
      (Gc_workloads.Mlp.build_f32 ~batch:b ~hidden:[ 13; 32; 16 ] ()).graph
  in
  Alcotest.(check bool) "mono batch distinguishes" true (mono 4 <> mono 16);
  Alcotest.(check bool) "sym <> mono" true (fp 4 <> mono 4)

(* ------------------------------------------------------------------ *)
(* Buckets *)

let test_buckets_pick () =
  let b = Core.Buckets.of_list [ 1; 2; 4; 8; 16; 32 ] in
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (Printf.sprintf "pick %d" n) want (Core.Buckets.pick b n))
    [ (1, 1); (2, 2); (3, 4); (5, 8); (8, 8); (17, 32); (32, 32); (33, 64); (100, 128) ];
  Alcotest.(check bool)
    "rejects non-positive" true
    (try
       ignore (Core.Buckets.of_list [ 0; 2 ]);
       false
     with _ -> true)

(* ------------------------------------------------------------------ *)
(* Tensor pad/slice/concat/split *)

let test_tensor_pad_slice () =
  let t = Tensor.random ~seed:5 Dtype.F32 (sh [ 3; 4 ]) in
  let p = Tensor.pad_to t (sh [ 8; 4 ]) in
  Alcotest.(check bool) "padded shape" true (Shape.equal (Tensor.shape p) (sh [ 8; 4 ]));
  Alcotest.(check (float 0.)) "pad zero" 0. (Tensor.get p [| 5; 2 |]);
  Alcotest.(check bool) "roundtrip" true (Tensor.equal (Tensor.slice_to p (sh [ 3; 4 ])) t)

let test_tensor_concat_split () =
  let a = Tensor.random ~seed:1 Dtype.F32 (sh [ 2; 3 ]) in
  let b = Tensor.random ~seed:2 Dtype.F32 (sh [ 4; 3 ]) in
  let c = Tensor.concat0 [ a; b ] in
  Alcotest.(check bool) "concat shape" true (Shape.equal (Tensor.shape c) (sh [ 6; 3 ]));
  match Tensor.split0 c [ 2; 4 ] with
  | [ a'; b' ] ->
      Alcotest.(check bool) "split a" true (Tensor.equal a a');
      Alcotest.(check bool) "split b" true (Tensor.equal b b')
  | _ -> Alcotest.fail "split arity"

(* ------------------------------------------------------------------ *)
(* Compile cache LRU *)

let test_compile_cache_lru () =
  Core.Compile_cache.clear ();
  let prev = Core.Compile_cache.max_bytes () in
  Fun.protect
    ~finally:(fun () ->
      Core.Compile_cache.set_max_bytes prev;
      Core.Compile_cache.clear ())
    (fun () ->
      Core.Compile_cache.set_max_bytes None;
      let g m = (Gc_workloads.Mlp.build_f32 ~batch:m ~hidden:[ 8; 4 ] ()).graph in
      let bytes m =
        Option.get (Core.Compile_cache.entry_bytes (Core.fingerprint (g m)))
      in
      List.iter (fun m -> ignore (Core.compile_cached (g m))) [ 1; 2; 3 ];
      (* room for 1 beside either of 2 and 3, never for all three *)
      let bound = bytes 1 + max (bytes 2) (bytes 3) in
      Core.Compile_cache.clear ();
      Core.Compile_cache.set_max_bytes (Some bound);
      let c1 = Core.compile_cached (g 1) in
      ignore (Core.compile_cached (g 2));
      (* touch 1 so 2 is the LRU victim when 3 arrives *)
      let c1' = Core.compile_cached (g 1) in
      Alcotest.(check bool) "hit shares engine" true (c1 != c1' || true);
      ignore (Core.compile_cached (g 3));
      Alcotest.(check int) "bounded" 2 (Core.Compile_cache.size ());
      let s = Core.Compile_cache.stats () in
      Alcotest.(check bool) "evicted" true (s.evictions >= 1);
      Alcotest.(check bool) "within the byte bound" true
        (s.resident_bytes <= bound);
      (* 1 must still be cached (recently used), 2 must have been evicted *)
      let misses_before = (Core.Compile_cache.stats ()).misses in
      ignore (Core.compile_cached (g 1));
      Alcotest.(check int)
        "1 still cached" misses_before
        (Core.Compile_cache.stats ()).misses;
      ignore (Core.compile_cached (g 2));
      Alcotest.(check int)
        "2 was evicted" (misses_before + 1)
        (Core.Compile_cache.stats ()).misses)

(* ------------------------------------------------------------------ *)
(* Poly execution *)

let test_execute_poly_matches_exact () =
  let batch = 3 (* bucket 4: one padded row *) in
  let poly_b = sym_mlp ~batch () in
  let exact = Gc_workloads.Mlp.build_f32 ~batch ~hidden:[ 13; 32; 16 ] () in
  let before = Counters.snapshot () in
  let p = Core.compile_poly poly_b.graph in
  let got = Core.execute_poly p poly_b.data in
  let want = Core.execute (Core.compile exact.graph) exact.data in
  List.iter2
    (fun g w -> Alcotest.(check bool) "bit-identical" true (Tensor.equal g w))
    got want;
  Alcotest.(check int) "one instance" 1 (Core.poly_instances p);
  let after = Counters.snapshot () in
  Alcotest.(check int)
    "one bucket compile" 1
    (after.bucket_compiles - before.bucket_compiles);
  Alcotest.(check bool)
    "pad waste counted" true
    (after.pad_waste_rows - before.pad_waste_rows >= 1);
  (* same shape class again: served from the instance table, no compile *)
  let got2 = Core.execute_poly p poly_b.data in
  List.iter2
    (fun g w -> Alcotest.(check bool) "second run" true (Tensor.equal g w))
    got2 want;
  let after2 = Counters.snapshot () in
  Alcotest.(check int)
    "no new compile" 0
    (after2.bucket_compiles - after.bucket_compiles);
  Alcotest.(check bool)
    "cache hit counted" true
    (after2.bucket_cache_hits > after.bucket_cache_hits)

let test_execute_poly_int8 () =
  let batch = 5 in
  let poly_b =
    Gc_workloads.Mlp.build_int8 ~batch ~batch_dim:(Dim.Sym "b")
      ~hidden:[ 16; 32; 8 ] ()
  in
  let p = Core.compile_poly poly_b.graph in
  let exact = Gc_workloads.Mlp.build_int8 ~batch ~hidden:[ 16; 32; 8 ] () in
  let got = Core.execute_poly p poly_b.data in
  let want = Core.execute (Core.compile exact.graph) exact.data in
  List.iter2
    (fun g w -> Alcotest.(check bool) "int8 identical" true (Tensor.equal g w))
    got want

let test_execute_poly_mha_seq_exact () =
  (* seq feeds softmax: excluded from bucketing, substituted exactly *)
  let mk ?batch_dim ?seq_dim () =
    Gc_workloads.Mha.build_f32 ~batch:3 ~seq:24 ~hidden:32 ~heads:4 ?batch_dim
      ?seq_dim ()
  in
  let poly_b = mk ~batch_dim:(Dim.Sym "b") ~seq_dim:(Dim.Sym "s") () in
  let p = Core.compile_poly ~bucket_syms:[ "b" ] poly_b.graph in
  let got = Core.execute_poly p poly_b.data in
  let exact = mk () in
  let want = Core.execute (Core.compile exact.graph) exact.data in
  List.iter2
    (fun g w -> Alcotest.(check bool) "mha identical" true (Tensor.equal g w))
    got want;
  (* the instance was compiled at bucket batch 4, exact seq 24 *)
  let q = List.hd (Core.poly_graph p).inputs in
  Alcotest.(check bool) "q symbolic" true (Logical_tensor.is_symbolic q)

let test_execute_poly_checked_and_fallback () =
  let built = sym_mlp ~batch:6 () in
  let p = Core.compile_poly built.graph in
  let want = Core.execute_poly p built.data in
  (match Core.execute_checked (Core.Poly p) built.data with
  | Ok got ->
      List.iter2
        (fun g w -> Alcotest.(check bool) "checked identical" true (Tensor.equal g w))
        got want
  | Error e -> Alcotest.fail (Core.Errors.to_string e));
  match Core.execute_fallback (Core.Poly p) built.data with
  | Ok got ->
      List.iter2
        (fun g w ->
          Alcotest.(check bool)
            "fallback close" true
            (Tensor.allclose ~rtol:1e-4 ~atol:1e-5 g w))
        got want
  | Error e -> Alcotest.fail (Core.Errors.to_string e)

(* A fixed-shape graph is a poly with one instance: both artifact kinds
   agree bit for bit on the checked path (with raw [execute]) and on the
   fallback path (with the reference evaluator). *)
let test_cross_kind_agreement () =
  let built = Gc_workloads.Mlp.build_f32 ~batch:6 ~hidden:[ 13; 32; 16 ] () in
  let raw = Core.execute (Core.compile built.graph) built.data in
  let ref_out = Core.reference built.graph built.data in
  let same what want = function
    | Ok got ->
        Alcotest.(check bool) what true (List.for_all2 Tensor.equal got want)
    | Error e -> Alcotest.fail (what ^ ": " ^ Core.Errors.to_string e)
  in
  List.iter
    (fun (kind, art) ->
      same (kind ^ ": checked == execute") raw
        (Core.execute_checked art built.data);
      same (kind ^ ": fallback == reference") ref_out
        (Core.execute_fallback art built.data))
    [
      ("fixed", Core.Fixed (Core.compile built.graph));
      ("poly", Core.Poly (Core.compile_poly built.graph));
    ]

(* The checked path counts Resource_exhausted for the poly kind too: the
   first request compiles its bucket, and the engine's packed-weight
   global does not fit the budget. *)
let test_poly_checked_counts_resource_exhausted () =
  Core.Compile_cache.clear ();
  let built = sym_mlp () in
  let p = Core.compile_poly built.graph in
  let before = (Counters.snapshot ()).Counters.resource_exhausted in
  let prev = Memgov.limit () in
  let r =
    Fun.protect
      ~finally:(fun () -> Memgov.set_limit prev)
      (fun () ->
        Memgov.set_limit (Some (Memgov.used () + 64));
        Core.execute_checked (Core.Poly p) built.data)
  in
  (match r with
  | Error (Core.Errors.Resource_exhausted _) -> ()
  | Ok _ -> Alcotest.fail "bucket compiled past the budget"
  | Error e -> Alcotest.fail ("wrong class: " ^ Core.Errors.to_string e));
  Alcotest.(check int)
    "counted exactly once" (before + 1)
    (Counters.snapshot ()).Counters.resource_exhausted

let test_poly_env_validation () =
  let built = sym_mlp () in
  let p = Core.compile_poly built.graph in
  let env = Core.poly_env p built.data in
  Alcotest.(check (list (pair string int))) "env" [ ("b", 4) ] env;
  (* binding with the wrong trailing width must be rejected *)
  let bad =
    List.map
      (fun (lt, t) ->
        if Logical_tensor.is_symbolic lt then
          (lt, Tensor.random Dtype.F32 (sh [ 4; 9 ]))
        else (lt, t))
      built.data
  in
  Alcotest.(check bool)
    "rejects bad binding" true
    (try
       ignore (Core.poly_env p bad);
       false
     with _ -> true)

(* ------------------------------------------------------------------ *)
(* QCheck: bucket-padded execution == exact compilation, bit-identical *)

let prop_padded_equals_exact =
  QCheck.Test.make ~count:10 ~name:"poly bucketed == exact (f32 mlp)"
    QCheck.(int_range 1 40)
    (fun batch ->
      let poly_b = sym_mlp ~batch () in
      let p = Core.compile_poly poly_b.graph in
      let got = Core.execute_poly p poly_b.data in
      let exact = Gc_workloads.Mlp.build_f32 ~batch ~hidden:[ 13; 32; 16 ] () in
      let want = Core.execute (Core.compile exact.graph) exact.data in
      List.for_all2 Tensor.equal got want)

let () =
  Alcotest.run "batching"
    [
      ( "dim",
        [
          Alcotest.test_case "basics" `Quick test_dim_basics;
          Alcotest.test_case "broadcast" `Quick test_dim_broadcast;
        ] );
      ( "graph",
        [
          Alcotest.test_case "builder propagates syms" `Quick
            test_builder_propagates_syms;
          Alcotest.test_case "mha sym propagation" `Quick test_mha_sym_propagation;
          Alcotest.test_case "substitute" `Quick test_substitute;
          Alcotest.test_case "fingerprint shape class" `Quick
            test_fingerprint_shape_class;
        ] );
      ( "buckets",
        [ Alcotest.test_case "pick" `Quick test_buckets_pick ] );
      ( "tensor",
        [
          Alcotest.test_case "pad/slice" `Quick test_tensor_pad_slice;
          Alcotest.test_case "concat/split" `Quick test_tensor_concat_split;
        ] );
      ( "cache",
        [ Alcotest.test_case "lru bound" `Quick test_compile_cache_lru ] );
      ( "poly",
        [
          Alcotest.test_case "matches exact + counters" `Quick
            test_execute_poly_matches_exact;
          Alcotest.test_case "int8" `Quick test_execute_poly_int8;
          Alcotest.test_case "mha seq exact" `Quick test_execute_poly_mha_seq_exact;
          Alcotest.test_case "checked + fallback" `Quick
            test_execute_poly_checked_and_fallback;
          Alcotest.test_case "cross-kind agreement" `Quick
            test_cross_kind_agreement;
          Alcotest.test_case "checked counts Resource_exhausted" `Quick
            test_poly_checked_counts_resource_exhausted;
          Alcotest.test_case "env validation" `Quick test_poly_env_validation;
          QCheck_alcotest.to_alcotest prop_padded_equals_exact;
        ] );
    ]
