(* Tests for the steady-state serving fast path: precompiled binding
   plans, pooled outputs, idempotent/mutex-guarded constant init,
   per-domain engine arenas (allocation regression) and the keyed
   compilation cache. *)

open Gc_workloads

let seq_pool = Gc_runtime.Parallel.create 1

let serving_config () =
  { (Core.default_config ()) with Core.pool = Some seq_pool }

let compile g = Core.compile ~config:(serving_config ()) g

let check_matches_reference ~what ~graph ~data outputs =
  let expect = Core.reference graph data in
  Alcotest.(check int) (what ^ ": output count") (List.length expect)
    (List.length outputs);
  List.iteri
    (fun i (got, e) ->
      if not (Core.Tensor.allclose ~rtol:2e-3 ~atol:2e-3 got e) then
        Alcotest.failf "%s: output %d diverges (max abs diff %g)" what i
          (Core.Tensor.max_abs_diff got e))
    (List.combine outputs expect)

(* ------------------------------------------------------------------ *)
(* Binding plan + output pooling *)

let test_execute_matches_reference_both_paths () =
  let b = Mlp.build_f32 ~seed:11 ~batch:5 ~hidden:[ 7; 9; 4 ] () in
  List.iter
    (fun reuse_outputs ->
      let t = compile b.Mlp.graph in
      (* twice: the second run exercises arena/env reuse *)
      ignore (Core.execute ~reuse_outputs t b.Mlp.data);
      check_matches_reference
        ~what:(Printf.sprintf "mlp reuse_outputs:%b" reuse_outputs)
        ~graph:b.Mlp.graph ~data:b.Mlp.data
        (Core.execute ~reuse_outputs t b.Mlp.data))
    [ false; true ]

let test_reuse_outputs_pools_tensors () =
  let b = Mlp.build_f32 ~seed:3 ~batch:3 ~hidden:[ 5; 6 ] () in
  let t = compile b.Mlp.graph in
  let r1 = Core.execute ~reuse_outputs:true t b.Mlp.data in
  let r2 = Core.execute ~reuse_outputs:true t b.Mlp.data in
  Alcotest.(check bool) "same pooled tensors" true (List.for_all2 ( == ) r1 r2);
  check_matches_reference ~what:"pooled outputs" ~graph:b.Mlp.graph
    ~data:b.Mlp.data r2;
  (* default path returns fresh tensors *)
  let r3 = Core.execute t b.Mlp.data in
  Alcotest.(check bool) "fresh without opt-in" false
    (List.exists2 ( == ) r2 r3);
  check_matches_reference ~what:"fresh outputs" ~graph:b.Mlp.graph
    ~data:b.Mlp.data r3

let test_invalidate_discards_output_pool () =
  let b = Mlp.build_f32 ~seed:5 ~batch:2 ~hidden:[ 4; 3 ] () in
  let t = compile b.Mlp.graph in
  let r1 = Core.execute ~reuse_outputs:true t b.Mlp.data in
  Core.invalidate_constants t;
  let r2 = Core.execute ~reuse_outputs:true t b.Mlp.data in
  Alcotest.(check bool) "pool discarded" false (List.exists2 ( == ) r1 r2);
  check_matches_reference ~what:"after invalidate" ~graph:b.Mlp.graph
    ~data:b.Mlp.data r2

(* ------------------------------------------------------------------ *)
(* Weights swap: invalidate_constants must reset engine-side constant
   state (repopulated globals), not just the flag *)

let perturb data =
  List.map
    (fun (lt, t) ->
      let t' = Core.Tensor.copy t in
      Core.Tensor.iter t (fun idx v ->
          Core.Tensor.set t' idx ((v *. 1.25) +. 0.125));
      (lt, t'))
    data

let test_weights_swap_regression () =
  let b = Mlp.build_f32 ~seed:7 ~batch:4 ~hidden:[ 6; 8; 5 ] () in
  let t = compile b.Mlp.graph in
  check_matches_reference ~what:"weights v1" ~graph:b.Mlp.graph ~data:b.Mlp.data
    (Core.execute t b.Mlp.data);
  let data2 = perturb b.Mlp.data in
  Core.invalidate_constants t;
  check_matches_reference ~what:"weights v2 after invalidate"
    ~graph:b.Mlp.graph ~data:data2
    (Core.execute t data2)

(* ------------------------------------------------------------------ *)
(* Concurrent executes: N domains hammering one compiled partition.
   The very first executes race on the constant init (satellite: the
   init_done check-then-set), so no warmup run here on purpose. *)

let test_concurrent_execute_stress () =
  let b = Mha.build_f32 ~seed:2 ~batch:1 ~seq:6 ~hidden:16 ~heads:2 () in
  let t = compile b.Mha.graph in
  let expect = Core.reference b.Mha.graph b.Mha.data in
  let client () =
    let worst = ref 0. in
    for _ = 1 to 20 do
      let outs = Core.execute ~reuse_outputs:true t b.Mha.data in
      List.iter2
        (fun got e -> worst := Float.max !worst (Core.Tensor.max_abs_diff got e))
        outs expect
    done;
    !worst
  in
  let domains = List.init 4 (fun _ -> Domain.spawn client) in
  let diffs = List.map Domain.join domains in
  List.iteri
    (fun i d ->
      if d > 5e-4 then
        Alcotest.failf "client %d diverged under concurrency (max diff %g)" i d)
    diffs

(* ------------------------------------------------------------------ *)
(* Allocation regression: steady-state execute must allocate (near-)
   nothing on the minor heap after warmup. The slow path allocates
   thousands of words per call on this workload; the bound leaves only
   headroom for counters/bookkeeping noise. *)

let test_allocation_regression () =
  let b = Mlp.build_f32 ~seed:13 ~batch:8 ~hidden:[ 13; 32; 16 ] () in
  let t = compile b.Mlp.graph in
  for _ = 1 to 10 do
    ignore (Core.execute ~reuse_outputs:true t b.Mlp.data)
  done;
  let iters = 100 in
  let m0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Core.execute ~reuse_outputs:true t b.Mlp.data)
  done;
  let per_iter = (Gc.minor_words () -. m0) /. float_of_int iters in
  if per_iter > 500. then
    Alcotest.failf "steady-state execute allocates %.0f minor words/iter" per_iter

(* The same bound on the paired perfbench workloads, through plain
   [Core.execute] (fresh outputs each call): MLP_1 int8 at batch 32 under
   the full pipeline and under the primitives configuration (int8 loads,
   stores, casts and requant chains), and the f32 MHA under both (softmax,
   mask and batch-matmul loops; brgemm in its leading-dimension form,
   reading V as K×N rows and writing the output tile in place). Each warm
   execute may allocate at most 1 k minor
   words: a boxed value per loaded, stored or cast element would cost
   hundreds of thousands. *)
let minor_words_per_execute t data =
  for _ = 1 to 3 do
    ignore (Core.execute t data)
  done;
  let iters = 5 in
  let m0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Core.execute t data)
  done;
  (Gc.minor_words () -. m0) /. float_of_int iters

let test_workload_allocation () =
  let mlp = Mlp.build_int8 ~seed:3 ~batch:32 ~hidden:Table1.mlp_1.hidden () in
  let mha = Mha.build_f32 ~seed:3 ~batch:2 ~seq:64 ~hidden:256 ~heads:4 () in
  let primitives =
    { (Gc_baseline.Baseline.config ()) with Core.pool = Some seq_pool }
  in
  List.iter
    (fun (what, t, data) ->
      let words = minor_words_per_execute t data in
      if words > 1000. then
        Alcotest.failf "%s: a warm execute allocates %.0f minor words" what words)
    [
      ("mlp1 int8 full", compile mlp.Mlp.graph, mlp.Mlp.data);
      ("mlp1 int8 primitives", Core.compile ~config:primitives mlp.Mlp.graph, mlp.Mlp.data);
      ("mha f32 full", compile mha.Mha.graph, mha.Mha.data);
      ("mha f32 primitives", Core.compile ~config:primitives mha.Mha.graph, mha.Mha.data);
    ]

let test_arena_counters_fire () =
  let b = Mlp.build_f32 ~seed:17 ~batch:4 ~hidden:[ 5; 7 ] () in
  let t = compile b.Mlp.graph in
  ignore (Core.execute t b.Mlp.data);
  let (), s =
    Core.Observe.Counters.with_counters (fun () ->
        ignore (Core.execute t b.Mlp.data))
  in
  Alcotest.(check bool) "arena hits" true
    (s.Core.Observe.Counters.arena_hits > 0);
  Alcotest.(check bool) "arena bytes saved" true (s.arena_bytes_saved > 0);
  Alcotest.(check int) "no buffer allocation" 0 s.bytes_allocated

(* A wide domain pool: each parallel loop site's env pool starts with a
   slot per worker plus one and grows past that, so once every env it
   needs is pooled an execute allocates no buffer. A run that still had
   to create an env (its grains first reached a new level of concurrency)
   does not count as warm. *)
let test_wide_pool_warm_execute () =
  let pool = Gc_runtime.Parallel.create 12 in
  Fun.protect
    ~finally:(fun () -> Gc_runtime.Parallel.shutdown pool)
    (fun () ->
      let b = Mlp.build_f32 ~seed:29 ~batch:16 ~hidden:[ 13; 32; 16 ] () in
      let t =
        Core.compile
          ~config:{ (Core.default_config ()) with Core.pool = Some pool }
          b.Mlp.graph
      in
      for _ = 1 to 10 do
        ignore (Core.execute ~reuse_outputs:true t b.Mlp.data)
      done;
      let rec warm k =
        let (), s =
          Core.Observe.Counters.with_counters (fun () ->
              ignore (Core.execute ~reuse_outputs:true t b.Mlp.data))
        in
        if s.Core.Observe.Counters.bytes_allocated = 0 then ()
        else if k = 0 then
          Alcotest.failf "every warm execute allocated (last: %d bytes)"
            s.bytes_allocated
        else warm (k - 1)
      in
      warm 50;
      check_matches_reference ~what:"12-worker pool" ~graph:b.Mlp.graph
        ~data:b.Mlp.data
        (Core.execute ~reuse_outputs:true t b.Mlp.data))

(* Output pools live in per-artifact cells probed from [domain id mod 16].
   A second domain whose id collides with the main domain's must take
   another cell, not evict the main domain's pool. *)
let test_colliding_domains_keep_output_pools () =
  let b = Mlp.build_f32 ~seed:31 ~batch:3 ~hidden:[ 5; 6 ] () in
  let t = compile b.Mlp.graph in
  let main = (Domain.self () :> int) in
  let r1 = Core.execute ~reuse_outputs:true t b.Mlp.data in
  let rec colliding tries =
    if tries = 0 then Alcotest.fail "no domain id collided mod 16"
    else
      let d =
        Domain.spawn (fun () ->
            if ((Domain.self () :> int) - main) mod 16 <> 0 then None
            else
              let d1 = Core.execute ~reuse_outputs:true t b.Mlp.data in
              let d2 = Core.execute ~reuse_outputs:true t b.Mlp.data in
              Some (List.for_all2 ( == ) d1 d2))
      in
      match Domain.join d with
      | Some reused -> reused
      | None -> colliding (tries - 1)
  in
  Alcotest.(check bool) "colliding domain reuses its outputs" true (colliding 64);
  let r2 = Core.execute ~reuse_outputs:true t b.Mlp.data in
  Alcotest.(check bool) "main domain keeps its outputs" true (List.for_all2 ( == ) r1 r2);
  check_matches_reference ~what:"after collision" ~graph:b.Mlp.graph
    ~data:b.Mlp.data r2

(* ------------------------------------------------------------------ *)
(* Lifetime: engine state (arenas, envs, offset arrays) and pooled
   outputs belong to the artifact, so dropping an artifact frees them,
   and a pooled env keeps none of a call's buffers once it is handed
   back. *)

module Memgov = Gc_tensor.Memgov

let test_dropped_artifacts_release_memory () =
  let b = Mlp.build_f32 ~seed:19 ~batch:32 ~hidden:Table1.mlp_1.hidden () in
  Gc.full_major ();
  (* baseline-relative: under GC_MEM_BUDGET_BYTES the ledger already holds
     live charges of earlier tests *)
  let used0 = Memgov.used () in
  let prev = Memgov.limit () in
  Fun.protect
    ~finally:(fun () -> Memgov.set_limit prev)
    (fun () ->
      Memgov.set_limit (Some (used0 + (256 * 1024 * 1024)));
      for _ = 1 to 8 do
        let t = compile b.Mlp.graph in
        for _ = 1 to 3 do
          ignore (Core.execute ~reuse_outputs:true t b.Mlp.data)
        done;
        Alcotest.(check bool) "artifact charged" true (Memgov.used () > used0)
      done;
      let rec settle n =
        Gc.full_major ();
        if Memgov.used () > used0 && n > 0 then settle (n - 1)
      in
      settle 10;
      if Memgov.used () > used0 then
        Alcotest.failf "%d bytes still charged after dropping 8 artifacts"
          (Memgov.used () - used0))

let test_pooled_env_drops_caller_buffers () =
  let b = Mlp.build_f32 ~seed:23 ~batch:4 ~hidden:[ 6; 8; 5 ] () in
  let t = compile b.Mlp.graph in
  let seen = Weak.create 2 in
  let call () =
    (* fresh activations and fresh outputs, so the only references to
       them are this call's *)
    let data =
      List.map
        (fun ((lt : Core.Logical_tensor.t), v) ->
          (lt, if Core.Logical_tensor.is_constant lt then v else Core.Tensor.copy v))
        b.Mlp.data
    in
    let input = List.assq (List.hd b.Mlp.graph.inputs) data in
    let out = List.hd (Core.execute t data) in
    check_matches_reference ~what:"pooled env call" ~graph:b.Mlp.graph
      ~data:b.Mlp.data [ out ];
    Weak.set seen 0 (Some (Core.Tensor.buffer input));
    Weak.set seen 1 (Some (Core.Tensor.buffer out))
  in
  call ();
  call ();
  Gc.full_major ();
  Alcotest.(check bool) "input buffer collected" false (Weak.check seen 0);
  Alcotest.(check bool) "output buffer collected" false (Weak.check seen 1);
  (* the artifact (and its pooled envs) stayed alive throughout *)
  ignore (Core.execute t b.Mlp.data)

(* ------------------------------------------------------------------ *)
(* Compilation cache *)

let test_fingerprint_structural () =
  let g1 = (Mlp.build_f32 ~seed:1 ~batch:4 ~hidden:[ 6; 8 ] ()).Mlp.graph in
  let g2 = (Mlp.build_f32 ~seed:1 ~batch:4 ~hidden:[ 6; 8 ] ()).Mlp.graph in
  Alcotest.(check string) "independently built graphs fingerprint equal"
    (Core.fingerprint g1) (Core.fingerprint g2);
  let g3 = (Mlp.build_f32 ~seed:1 ~batch:4 ~hidden:[ 6; 9 ] ()).Mlp.graph in
  Alcotest.(check bool) "shape change fingerprints differ" false
    (Core.fingerprint g1 = Core.fingerprint g3);
  let g4 = (Mlp.build_f32 ~seed:1 ~batch:8 ~hidden:[ 6; 8 ] ()).Mlp.graph in
  Alcotest.(check bool) "batch change fingerprints differ" false
    (Core.fingerprint g1 = Core.fingerprint g4);
  Alcotest.(check bool) "config change fingerprints differ" false
    (Core.fingerprint ~config:(serving_config ()) g1
    = Core.fingerprint
        ~config:
          { (serving_config ()) with graph = Core.Pipeline.onednn_primitives () }
        g1)

let test_compile_cache_hit () =
  Core.Compile_cache.clear ();
  let b1 = Mlp.build_f32 ~seed:21 ~batch:3 ~hidden:[ 5; 9; 4 ] () in
  let b2 = Mlp.build_f32 ~seed:21 ~batch:3 ~hidden:[ 5; 9; 4 ] () in
  let config = serving_config () in
  let t1 = Core.compile_cached ~config b1.Mlp.graph in
  let t2 = Core.compile_cached ~config b2.Mlp.graph in
  let s = Core.Compile_cache.stats () in
  Alcotest.(check int) "misses" 1 s.Core.Compile_cache.misses;
  Alcotest.(check int) "hits" 1 s.hits;
  Alcotest.(check int) "entries" 1 s.entries;
  Alcotest.(check bool) "shared compiled module" true
    (Core.tir_module t1 == Core.tir_module t2);
  (* the hit is re-keyed to b2's logical tensors: executing with b2's
     bindings must work and be correct *)
  check_matches_reference ~what:"cache hit rekeyed" ~graph:b2.Mlp.graph
    ~data:b2.Mlp.data
    (Core.execute t2 b2.Mlp.data);
  (* different shape misses *)
  let b3 = Mlp.build_f32 ~seed:21 ~batch:3 ~hidden:[ 5; 9; 6 ] () in
  let t3 = Core.compile_cached ~config b3.Mlp.graph in
  Alcotest.(check bool) "different shape compiles fresh" false
    (Core.tir_module t1 == Core.tir_module t3);
  Alcotest.(check int) "second miss" 2 (Core.Compile_cache.stats ()).misses;
  Core.Compile_cache.clear ();
  Alcotest.(check int) "cleared" 0 (Core.Compile_cache.stats ()).entries

let test_compile_cache_concurrent () =
  Core.Compile_cache.clear ();
  let config = serving_config () in
  let compile_one () =
    let b = Mlp.build_f32 ~seed:33 ~batch:2 ~hidden:[ 4; 6 ] () in
    let t = Core.compile_cached ~config b.Mlp.graph in
    let outs = Core.execute t b.Mlp.data in
    let expect = Core.reference b.Mlp.graph b.Mlp.data in
    let ok =
      List.for_all2 (Core.Tensor.allclose ~rtol:2e-3 ~atol:2e-3) outs expect
    in
    (Core.tir_module t, ok)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn compile_one) in
  let results = List.map Domain.join domains in
  let m0 = fst (List.hd results) in
  List.iteri
    (fun i (m, ok) ->
      Alcotest.(check bool) (Printf.sprintf "client %d correct" i) true ok;
      Alcotest.(check bool)
        (Printf.sprintf "client %d shares the winner" i)
        true (m == m0))
    results;
  Alcotest.(check int) "single entry" 1 (Core.Compile_cache.stats ()).entries

let () =
  Alcotest.run "serving"
    [
      ( "binding-plan",
        [
          Alcotest.test_case "matches reference (both paths)" `Quick
            test_execute_matches_reference_both_paths;
          Alcotest.test_case "reuse_outputs pools tensors" `Quick
            test_reuse_outputs_pools_tensors;
          Alcotest.test_case "invalidate discards pool" `Quick
            test_invalidate_discards_output_pool;
          Alcotest.test_case "weights swap regression" `Quick
            test_weights_swap_regression;
        ] );
      ( "steady-state",
        [
          Alcotest.test_case "concurrent execute stress" `Quick
            test_concurrent_execute_stress;
          Alcotest.test_case "allocation regression" `Quick
            test_allocation_regression;
          Alcotest.test_case "workload allocation" `Quick test_workload_allocation;
          Alcotest.test_case "arena counters" `Quick test_arena_counters_fire;
          Alcotest.test_case "wide pool warm execute" `Quick
            test_wide_pool_warm_execute;
          Alcotest.test_case "colliding domains keep output pools" `Quick
            test_colliding_domains_keep_output_pools;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "dropped artifacts release memory" `Quick
            test_dropped_artifacts_release_memory;
          Alcotest.test_case "pooled env drops caller buffers" `Quick
            test_pooled_env_drops_caller_buffers;
        ] );
      ( "compile-cache",
        [
          Alcotest.test_case "structural fingerprint" `Quick
            test_fingerprint_structural;
          Alcotest.test_case "hit shares + rekeys" `Quick test_compile_cache_hit;
          Alcotest.test_case "concurrent compile_cached" `Quick
            test_compile_cache_concurrent;
        ] );
    ]
