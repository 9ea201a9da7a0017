(* Tests for the performance simulator: the cost model must be
   deterministic and must rank alternatives the way the underlying
   mechanisms dictate (more cores → faster; int8 → faster; fused → less
   memory traffic; baseline → more API overhead). *)

open Core
open Gc_perfsim

let machine = Machine.xeon_8358

let compile_setting graph_cfg ~api graph =
  let cfg = { (default_config ~machine ()) with graph = graph_cfg } in
  let compiled = compile ~config:cfg graph in
  Sim.cost_module ~machine ~api_per_call:api (tir_module compiled)

let full g = compile_setting (Pipeline.default ~machine ()) ~api:false g
let baseline g = compile_setting (Pipeline.onednn_primitives ~machine ()) ~api:true g

let mlp b = (Gc_workloads.Mlp.build_f32 ~batch:b ~hidden:[ 13; 64; 32 ] ()).graph

let test_deterministic () =
  let g = mlp 32 in
  let r1 = full g and r2 = full g in
  Alcotest.(check (float 0.)) "same cycles" r1.cycles r2.cycles

let test_breakdown_sums () =
  let r = full (mlp 32) in
  Alcotest.(check bool) "components positive" true
    (r.compute_cycles > 0. && r.barrier_cycles >= 0. && r.api_cycles > 0.);
  Alcotest.(check bool) "cycles >= compute" true (r.cycles >= r.compute_cycles)

let test_more_work_costs_more () =
  let small = full (mlp 16) and big = full (mlp 256) in
  Alcotest.(check bool) "monotone in batch" true (big.cycles > small.cycles)

let test_int8_cheaper_than_f32 () =
  let f = full (Gc_workloads.Mlp.build_f32 ~batch:128 ~hidden:[ 64; 256; 128 ] ()).graph in
  let i = full (Gc_workloads.Mlp.build_int8 ~batch:128 ~hidden:[ 64; 256; 128 ] ()).graph in
  Alcotest.(check bool) "int8 cheaper" true (i.cycles < f.cycles)

let test_fewer_cores_slower () =
  let g = mlp 256 in
  let small_machine = { machine with Machine.cores = 4 } in
  let cfg cores_machine =
    { (default_config ~machine:cores_machine ()) with
      graph = Pipeline.default ~machine:cores_machine () }
  in
  let r32 =
    Sim.cost_module ~machine ~api_per_call:false
      (tir_module (compile ~config:(cfg machine) g))
  in
  let r4 =
    Sim.cost_module ~machine:small_machine ~api_per_call:false
      (tir_module (compile ~config:(cfg small_machine) g))
  in
  Alcotest.(check bool) "4 cores slower" true (r4.cycles > r32.cycles)

let test_api_overhead_baseline_only () =
  let g = (Gc_workloads.Mlp.build_f32 ~batch:32 ~hidden:[ 13; 32; 16; 8 ] ()).graph in
  let b = baseline g and f = full g in
  (* baseline: one API call per primitive (3 matmuls); compiled: one *)
  Alcotest.(check bool) "baseline pays more api" true (b.api_cycles > f.api_cycles);
  Alcotest.(check (float 1.)) "compiled pays exactly one call"
    machine.api_call_cycles f.api_cycles

let test_baseline_more_sections () =
  let g = (Gc_workloads.Mha.build_f32 ~batch:2 ~seq:16 ~hidden:64 ~heads:4 ()).graph in
  let b = baseline g and f = full g in
  Alcotest.(check bool) "baseline more parallel sections" true
    (b.parallel_sections > f.parallel_sections)

let test_fusion_reduces_memory () =
  let g = (Gc_workloads.Mha.build_f32 ~batch:4 ~seq:32 ~hidden:128 ~heads:4 ()).graph in
  let b = baseline g and f = full g in
  Alcotest.(check bool) "fused graph moves less memory" true
    (f.memory_cycles < b.memory_cycles)

let test_report_add () =
  let r = full (mlp 16) in
  let s = Sim.add r r in
  Alcotest.(check (float 1e-6)) "add doubles" (2. *. r.cycles) s.cycles;
  Alcotest.(check int) "sections add" (2 * r.parallel_sections) s.parallel_sections

let test_time_consistent_with_frequency () =
  let r = full (mlp 16) in
  Alcotest.(check bool) "time = cycles/freq" true
    (Float.abs ((r.cycles /. (machine.freq_ghz *. 1e6)) -. r.time_ms) < 1e-9)

(* golden regression: pinned cycle counts for two fixed workloads under
   the full and baseline settings. The simulator is deterministic, so any
   drift here means a pass, heuristic, or cost-model change altered the
   generated code — if the change is intentional, regenerate the numbers
   and update the table (the failure message prints the observed value). *)

let golden =
  [
    ("mlp-full", `Full, `Mlp, 6958.18, 1);
    ("mlp-baseline", `Baseline, `Mlp, 13516.90, 2);
    ("mha-full", `Full, `Mha, 7974.48, 1);
    ("mha-baseline", `Baseline, `Mha, 23501.44, 3);
  ]

let test_golden_cycles () =
  (* fixed shapes: MLP batch 32, hidden 13-64-32; MHA batch 2, seq 16,
     hidden 64, heads 4 *)
  let mlp_g = mlp 32 in
  let mha_g =
    (Gc_workloads.Mha.build_f32 ~batch:2 ~seq:16 ~hidden:64 ~heads:4 ()).graph
  in
  List.iter
    (fun (name, setting, wl, cycles, sections) ->
      let g = match wl with `Mlp -> mlp_g | `Mha -> mha_g in
      let r = match setting with `Full -> full g | `Baseline -> baseline g in
      if Float.abs (r.cycles -. cycles) > 0.5 then
        Alcotest.failf "%s: pinned %.2f cycles, simulator now reports %.2f"
          name cycles r.cycles;
      if r.parallel_sections <> sections then
        Alcotest.failf "%s: pinned %d parallel sections, got %d" name sections
          r.parallel_sections)
    golden

(* primitive cost model *)

let test_primitive_cost_tail_handling () =
  (* at an aligned shape the primitive pays dispatch over the same kernel;
     at n=1 the compiler pads 16x while the primitive does true work *)
  let aligned =
    Gc_baseline.Baseline.primitive_matmul_cost ~machine ~dtype:Dtype.F32 ~m:128
      ~n:512 ~k:512 ()
  in
  Alcotest.(check bool) "positive" true (aligned > 0.);
  let p = Heuristic.choose ~machine ~dtype:Dtype.F32 ~m:128 ~n:1 ~k:256 () in
  let padded_work = Heuristic.cost ~machine p in
  let prim =
    Gc_baseline.Baseline.primitive_matmul_cost ~machine ~dtype:Dtype.F32 ~m:128
      ~n:1 ~k:256 ()
  in
  Alcotest.(check bool) "tail handling beats padding at n=1" true
    (prim < padded_work +. machine.api_call_cycles)

let () =
  Alcotest.run "gc_perfsim"
    [
      ( "sim",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "breakdown" `Quick test_breakdown_sums;
          Alcotest.test_case "monotone in work" `Quick test_more_work_costs_more;
          Alcotest.test_case "int8 cheaper" `Quick test_int8_cheaper_than_f32;
          Alcotest.test_case "fewer cores slower" `Quick test_fewer_cores_slower;
          Alcotest.test_case "api overhead" `Quick test_api_overhead_baseline_only;
          Alcotest.test_case "baseline sections" `Quick test_baseline_more_sections;
          Alcotest.test_case "fusion reduces memory" `Quick test_fusion_reduces_memory;
          Alcotest.test_case "report add" `Quick test_report_add;
          Alcotest.test_case "time consistent" `Quick test_time_consistent_with_frequency;
        ] );
      ( "golden",
        [ Alcotest.test_case "pinned cycle counts" `Quick test_golden_cycles ] );
      ( "primitive cost",
        [ Alcotest.test_case "tail handling" `Quick test_primitive_cost_tail_handling ] );
    ]
