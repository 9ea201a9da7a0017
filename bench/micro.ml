(* Microbenchmark harness for the execution hot path, emitting
   BENCH_micro.json so successive PRs accumulate a measured perf
   trajectory (the wallclock analogue of the paper's Figure 7/8
   methodology — single-kernel rates first, then the runtime overheads
   that sit between kernels, then one fused workload end to end):

     dune exec bench/micro.exe                        # full run
     dune exec bench/micro.exe -- --tiny              # CI smoke (seconds)
     dune exec bench/micro.exe -- --out FILE          # choose output path
     dune exec bench/micro.exe -- --validate FILE     # parse + schema-check

   Sections:
   - brgemm: single-thread GFLOP/s of the register-tiled BRGEMM kernel
     over paper-relevant tile shapes, plus the tile/grid parameters the
     heuristic picks for each shape's GEMM view; and on a 2×64×64 tile
     the f32 rate with B read as K×N rows, and with A read in place with
     rows 256 apart, each beside the rate on slabs, timed in alternating
     bursts.
   - pool: fork-join overhead of one parallel section and the number of
     grains the self-scheduler migrated off the submitting domain.
   - mlp: wallclock of one fused-MLP execution through the full compiler,
     with the env-reuse and steal counters of a counted run, plus what
     constant init (the first execute's weight prepack) costs on top of
     it in time and minor-heap words per weight element. *)

open Gc_tensor

(* ------------------------------------------------------------------ *)
(* Measurement: quota-bounded repetition, best of 3 (robust against other
   tenants of the machine). [rate_of ~work f] returns work-units/second. *)

let quota = ref 0.4

let rate_of ~work f =
  f ();
  let best = ref 0. in
  for _rep = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    let elapsed = ref 0. in
    while !elapsed < !quota do
      f ();
      incr iters;
      elapsed := Unix.gettimeofday () -. t0
    done;
    let r = work *. float_of_int !iters /. !elapsed in
    if r > !best then best := r
  done;
  !best

let seconds_per_call f = 1. /. rate_of ~work:1. f

(* ------------------------------------------------------------------ *)
(* BRGEMM section *)

type shape = { sname : string; sdtype : string; batch : int; mb : int; nb : int; kb : int }

let full_shapes =
  [
    (* headline: the acceptance shape, batch-reduce over 4 slabs *)
    { sname = "f32_64x64x64_bs4"; sdtype = "f32"; batch = 4; mb = 64; nb = 64; kb = 64 };
    { sname = "f32_64x64x64_bs1"; sdtype = "f32"; batch = 1; mb = 64; nb = 64; kb = 64 };
    { sname = "f32_32x64x32_bs4"; sdtype = "f32"; batch = 4; mb = 32; nb = 64; kb = 32 };
    { sname = "f32_6x64x64_bs4"; sdtype = "f32"; batch = 4; mb = 6; nb = 64; kb = 64 };
    { sname = "f32_31x61x33_bs3"; sdtype = "f32"; batch = 3; mb = 31; nb = 61; kb = 33 };
    { sname = "u8s8s32_64x64x64_bs4"; sdtype = "u8s8s32"; batch = 4; mb = 64; nb = 64; kb = 64 };
  ]

let tiny_shapes =
  [
    { sname = "f32_16x16x16_bs2"; sdtype = "f32"; batch = 2; mb = 16; nb = 16; kb = 16 };
    { sname = "f32_7x9x5_bs2"; sdtype = "f32"; batch = 2; mb = 7; nb = 9; kb = 5 };
    { sname = "u8s8s32_16x16x16_bs2"; sdtype = "u8s8s32"; batch = 2; mb = 16; nb = 16; kb = 16 };
  ]

let headline_name = function
  | `Full -> "f32_64x64x64_bs4"
  | `Tiny -> "f32_16x16x16_bs2"

(* the int8 kernel on the full headline's shape *)
let int8_headline_name = "u8s8s32_64x64x64_bs4"

let bench_shape s =
  let { batch; mb; nb; kb; _ } = s in
  let flops = 2. *. float_of_int (batch * mb * nb * kb) in
  let a_offs = Array.init batch (fun i -> i * mb * kb) in
  let b_offs = Array.init batch (fun i -> i * nb * kb) in
  let gflops rate = rate /. 1e9 in
  match s.sdtype with
  | "f32" ->
      let a = Buffer.create Dtype.F32 (batch * mb * kb) in
      let b = Buffer.create Dtype.F32 (batch * nb * kb) in
      let c = Buffer.create Dtype.F32 (mb * nb) in
      for i = 0 to Buffer.length a - 1 do Buffer.set a i (sin (float_of_int i)) done;
      for i = 0 to Buffer.length b - 1 do Buffer.set b i (cos (float_of_int i)) done;
      let af = Buffer.as_f32 a and bf = Buffer.as_f32 b and cf = Buffer.as_f32 c in
      gflops
        (rate_of ~work:flops (fun () ->
             Gc_microkernel.Brgemm.f32 ~batch ~mb ~nb ~kb ~a:af ~a_offs ~b:bf
               ~b_offs ~c:cf ~c_off:0))
  | "u8s8s32" ->
      let a = Buffer.create Dtype.U8 (batch * mb * kb) in
      let b = Buffer.create Dtype.S8 (batch * nb * kb) in
      let c = Buffer.create Dtype.S32 (mb * nb) in
      for i = 0 to Buffer.length a - 1 do Buffer.set_int a i ((i * 37) mod 256) done;
      for i = 0 to Buffer.length b - 1 do Buffer.set_int b i (((i * 23) mod 255) - 128) done;
      let au = Buffer.as_u8 a and bs = Buffer.as_s8 b and cs = Buffer.as_s32 c in
      gflops
        (rate_of ~work:flops (fun () ->
             Gc_microkernel.Brgemm.u8s8s32 ~batch ~mb ~nb ~kb ~a:au ~a_offs
               ~b:bs ~b_offs ~c:cs ~c_off:0))
  | other -> invalid_arg ("micro: unknown dtype " ^ other)

(* The schedule the static heuristic picks for each shape's GEMM view
   (the batch-reduce seen as one long-k matmul), recorded per shape. *)
let chosen_params s =
  let dtype =
    match s.sdtype with "u8s8s32" -> Dtype.U8 | _ -> Dtype.F32
  in
  Gc_lowering.Heuristic.choose ~machine:Bench_util.machine ~dtype ~m:s.mb
    ~n:s.nb ~k:(s.batch * s.kb) ()

let params_fields p =
  let open Core.Observe.Json in
  let open Gc_lowering.Params in
  [
    ("tile_m", Int p.mb);
    ("tile_n", Int p.nb);
    ("tile_k", Int p.kb);
    ("tile_bs", Int p.bs);
    ("grid", String (Printf.sprintf "%dx%dx%d" p.mpn p.npn p.kpn));
  ]

let brgemm_section shapes =
  List.map
    (fun s ->
      let tiled = bench_shape s in
      let p = chosen_params s in
      let open Core.Observe.Json in
      Printf.printf "  %-24s %8.3f GFLOP/s   tile %dx%dx%d grid %dx%dx%d\n%!"
        s.sname tiled p.Gc_lowering.Params.mb p.Gc_lowering.Params.nb
        p.Gc_lowering.Params.kb p.Gc_lowering.Params.mpn
        p.Gc_lowering.Params.npn p.Gc_lowering.Params.kpn;
      ( s.sname,
        Obj
          ([
             ("dtype", String s.sdtype);
             ("batch", Int s.batch);
             ("mb", Int s.mb);
             ("nb", Int s.nb);
             ("kb", Int s.kb);
             ("tiled_gflops", Float tiled);
           ]
          @ params_fields p) ))
    shapes

(* Two operand forms of the f32 kernel on one 2×64×64 tile (the fused
   MHA's and the served MLP's MB = 2): bursts alternate between the forms
   so both see the same machine state, and each keeps its best burst.
   Returns the GFLOP/s of [form] and of [slab]. *)
let paired_rates ~mb ~nb ~kb form slab =
  let flops = 2. *. float_of_int (mb * nb * kb) in
  let burst f =
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 and elapsed = ref 0. in
    while !elapsed < !quota /. 4. do
      f ();
      incr iters;
      elapsed := Unix.gettimeofday () -. t0
    done;
    flops *. float_of_int !iters /. !elapsed /. 1e9
  in
  let r_form = ref 0. and r_slab = ref 0. in
  slab ();
  form ();
  for _ = 1 to 6 do
    r_slab := Float.max !r_slab (burst slab);
    r_form := Float.max !r_form (burst form)
  done;
  (!r_form, !r_slab)

let f32_buffers ~na ~nb ~nc =
  let a = Buffer.create Dtype.F32 na and b = Buffer.create Dtype.F32 nb in
  for i = 0 to na - 1 do Buffer.set a i (sin (float_of_int i)) done;
  for i = 0 to nb - 1 do Buffer.set b i (cos (float_of_int i)) done;
  (a, b, Buffer.create Dtype.F32 nc)

let tile_fields ~mb ~nb ~kb rate =
  let open Core.Observe.Json in
  [
    ("dtype", String "f32");
    ("batch", Int 1);
    ("mb", Int mb);
    ("nb", Int nb);
    ("kb", Int kb);
    ("tiled_gflops", Float rate);
  ]

(* B read as K×N rows at the MHA P·V tile (V's rows [ldb = 64] apart)
   against an [NB][KB] slab. *)
let kxn_name = "f32_2x64x64_kxn"

let kxn_entry () =
  let mb = 2 and nb = 64 and kb = 64 in
  let a, b, c = f32_buffers ~na:(mb * kb) ~nb:(kb * nb) ~nc:(mb * nb) in
  let call ldb () =
    Gc_microkernel.Brgemm.dispatch_ld ~lda:kb ~ldb ~ldc:nb ~klast:kb ~batch:1 ~mb ~nb ~kb ~a ~a_offs:[| 0 |] ~b
      ~b_offs:[| 0 |] ~c ~c_off:0
  in
  let kxn, nxk = paired_rates ~mb ~nb ~kb (call nb) (call 0) in
  let ratio = kxn /. nxk in
  Printf.printf "  %-24s %8.3f GFLOP/s   N×K slab %.3f GFLOP/s   K×N/N×K %.3f\n%!" kxn_name
    kxn nxk ratio;
  let open Core.Observe.Json in
  ( kxn_name,
    Obj
      (tile_fields ~mb ~nb ~kb kxn @ [ ("nxk_gflops", Float nxk); ("kxn_over_nxk", Float ratio) ]) )

(* A read in place, its rows [lda = 256] apart as in a plain [M][256]
   activation (the served MLP_1's third layer), against an [MB][KB] slab. *)
let lda_name = "f32_2x64x64_lda"

let lda_entry () =
  let mb = 2 and nb = 64 and kb = 64 and lda = 256 in
  let a, b, c = f32_buffers ~na:(mb * lda) ~nb:(nb * kb) ~nc:(mb * nb) in
  let call lda () =
    Gc_microkernel.Brgemm.dispatch_ld ~lda ~ldb:0 ~ldc:nb ~klast:kb ~batch:1 ~mb ~nb ~kb ~a ~a_offs:[| 0 |] ~b
      ~b_offs:[| 0 |] ~c ~c_off:0
  in
  let pitched, slab = paired_rates ~mb ~nb ~kb (call lda) (call kb) in
  let ratio = pitched /. slab in
  Printf.printf "  %-24s %8.3f GFLOP/s   A slab %.3f GFLOP/s   lda/slab %.3f\n%!" lda_name
    pitched slab ratio;
  let open Core.Observe.Json in
  ( lda_name,
    Obj
      (tile_fields ~mb ~nb ~kb pitched
      @ [ ("lda", Int lda); ("slab_gflops", Float slab); ("lda_over_slab", Float ratio) ]) )

(* A K tail read in place: MLP_1's first layer, an 8×16 tile of a plain
   [8][13] input (lda = 13) whose one 16-deep K block stops at klast = 13,
   against the same tile on a zero-padded [8][16] A slab running all 16
   k steps. Both rates count the 8·16·13 useful multiply-adds. *)
let ktail_name = "f32_8x16x13_ktail"

let ktail_entry () =
  let mb = 8 and nb = 16 and kb = 16 and k = 13 in
  let a, b, c = f32_buffers ~na:(mb * kb) ~nb:(nb * kb) ~nc:(mb * nb) in
  (* the slab's padding columns and B's padding rows are zero *)
  for i = 0 to (mb * kb) - 1 do if i mod kb >= k then Buffer.set a i 0. done;
  for i = 0 to (nb * kb) - 1 do if i mod kb >= k then Buffer.set b i 0. done;
  let call ~lda ~klast () =
    Gc_microkernel.Brgemm.dispatch_ld ~lda ~ldb:0 ~ldc:nb ~klast ~batch:1 ~mb ~nb ~kb ~a
      ~a_offs:[| 0 |] ~b ~b_offs:[| 0 |] ~c ~c_off:0
  in
  let in_place, slab = paired_rates ~mb ~nb ~kb:k (call ~lda:k ~klast:k) (call ~lda:kb ~klast:kb) in
  let ratio = in_place /. slab in
  Printf.printf "  %-24s %8.3f GFLOP/s   A slab %.3f GFLOP/s   ktail/slab %.3f\n%!" ktail_name
    in_place slab ratio;
  let open Core.Observe.Json in
  ( ktail_name,
    Obj
      (tile_fields ~mb ~nb ~kb in_place
      @ [ ("k", Int k); ("slab_gflops", Float slab); ("ktail_over_slab", Float ratio) ]) )

(* ------------------------------------------------------------------ *)
(* Pool section: fork-join overhead and grain migration *)

let pool_section () =
  let pool = Gc_runtime.Parallel.default () in
  let n = Gc_runtime.Parallel.size pool in
  (* one full parallel section over an empty body: dispatch + barrier *)
  let fork_join_ns =
    seconds_per_call (fun () ->
        Gc_runtime.Parallel.parallel_for pool ~lo:0 ~hi:(n * 4) (fun _ _ -> ()))
    *. 1e9
  in
  (* deliberately uneven grains at grain=1: count how many the
     self-scheduler migrated off the submitting domain *)
  let (), snap =
    Core.Observe.Counters.with_counters (fun () ->
        Gc_runtime.Parallel.parallel_for ~grain:1 pool ~lo:0 ~hi:64
          (fun lo _ ->
            let spin = (lo mod 7) * 500 in
            let s = ref 0 in
            for i = 1 to spin do s := !s + i done;
            ignore (Sys.opaque_identity !s)))
  in
  Printf.printf
    "  workers %d   fork-join %.1f ns/section   stolen %d/64 grains\n%!" n
    fork_join_ns snap.Core.Observe.Counters.tasks_stolen;
  let open Core.Observe.Json in
  Obj
    [
      ("workers", Int n);
      ("fork_join_ns", Float fork_join_ns);
      ("uneven_grains", Int 64);
      ("tasks_stolen", Int snap.Core.Observe.Counters.tasks_stolen);
    ]

(* ------------------------------------------------------------------ *)
(* Fused-MLP wallclock through the full compiler *)

let mlp_section mode =
  let batch, hidden =
    match mode with
    | `Full -> (32, [ 13; 512; 256; 128 ])
    | `Tiny -> (4, [ 13; 32; 16 ])
  in
  let built = Gc_workloads.Mlp.build_f32 ~batch ~hidden () in
  let host_cores = Gc_runtime.Parallel.size (Gc_runtime.Parallel.default ()) in
  let host_machine =
    { Bench_util.machine with Core.Machine.cores = host_cores }
  in
  let config =
    {
      (Core.default_config ~machine:host_machine ()) with
      Core.graph = Core.Pipeline.default ~machine:host_machine ();
      pool = Some (Gc_runtime.Parallel.default ());
    }
  in
  let compiled = Core.compile ~config built.Gc_workloads.Mlp.graph in
  ignore (Core.execute compiled built.Gc_workloads.Mlp.data) (* warm: prepack *);
  let ms =
    seconds_per_call (fun () ->
        ignore (Core.execute compiled built.Gc_workloads.Mlp.data))
    *. 1e3
  in
  let (), snap =
    Core.Observe.Counters.with_counters (fun () ->
        ignore (Core.execute compiled built.Gc_workloads.Mlp.data))
  in
  (* Constant init: an execute that re-runs the init function (weight
     prepack through the reference evaluator) less a steady execute, in
     time and in minor-heap words per constant element. *)
  let steady () = ignore (Core.execute compiled built.Gc_workloads.Mlp.data) in
  let first () =
    Core.invalidate_constants compiled;
    steady ()
  in
  let init_ms = (seconds_per_call first *. 1e3) -. ms in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let weights =
    List.fold_left
      (fun acc ((lt : Core.Logical_tensor.t), v) ->
        if Core.Logical_tensor.is_constant lt then acc + Core.Tensor.numel v
        else acc)
      0 built.Gc_workloads.Mlp.data
  in
  let init_words_per_weight =
    (words first -. words steady) /. float_of_int weights
  in
  Printf.printf "  MLP batch=%d hidden=%s: %.3f ms/run   envs reused %d/%d sections stolen %d\n%!"
    batch
    (String.concat "-" (List.map string_of_int hidden))
    ms snap.Core.Observe.Counters.envs_reused
    snap.Core.Observe.Counters.parallel_sections
    snap.Core.Observe.Counters.tasks_stolen;
  Printf.printf "  constant init: %.3f ms, %.3f minor words per weight element (%d)\n%!"
    init_ms init_words_per_weight weights;
  let open Core.Observe.Json in
  Obj
    [
      ("batch", Int batch);
      ("hidden", List (List.map (fun h -> Int h) hidden));
      ("wallclock_ms", Float ms);
      ("init_ms", Float init_ms);
      ("init_words_per_weight", Float init_words_per_weight);
      ("envs_reused", Int snap.Core.Observe.Counters.envs_reused);
      ("tasks_stolen", Int snap.Core.Observe.Counters.tasks_stolen);
      ("parallel_sections", Int snap.Core.Observe.Counters.parallel_sections);
      ("kernel_invocations", Int snap.Core.Observe.Counters.kernel_invocations);
    ]

(* ------------------------------------------------------------------ *)
(* Schema validation (used by CI to keep the harness from rotting) *)

let validate file =
  let ic = open_in file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Core.Observe.Json.of_string s with
  | Error e ->
      Printf.eprintf "%s: JSON parse error: %s\n" file e;
      exit 1
  | Ok j -> (
      let open Core.Observe.Json in
      let fail msg =
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
      in
      (match member "schema" j with
      | Some (String "gc-bench-micro/1") -> ()
      | _ -> fail "missing or wrong \"schema\" (want gc-bench-micro/1)");
      (match member "brgemm" j with
      | Some (Obj (_ :: _)) -> ()
      | _ -> fail "missing or empty \"brgemm\" section");
      (match Option.bind (member "headline" j) (member "tiled_gflops") with
      | Some (Float g) when g > 0. -> ()
      | _ -> fail "missing headline.tiled_gflops");
      (match Option.bind (member "headline" j) (member "grid") with
      | Some (String _) -> ()
      | _ -> fail "missing headline.grid (chosen tile params)");
      (* the int8 pin, a ratio within one full run (tiny shapes are too
         small to rank the kernels): on the headline shape the SWAR
         u8s8s32 core, two MACs per integer multiply, is at least as fast
         as the f32 one; the one-MAC-per-multiply core it replaced ran at
         ~0.8 of it *)
      (if member "mode" j = Some (String "full") then
         let rate name =
           let shape = Option.bind (member "brgemm" j) (member name) in
           match Option.bind shape (member "tiled_gflops") with
           | Some (Float g) -> g
           | _ -> fail (Printf.sprintf "missing brgemm.%s.tiled_gflops" name)
         in
         let i8 = rate int8_headline_name and f = rate (headline_name `Full) in
         if i8 < f then
           fail
             (Printf.sprintf "brgemm %s %.3f GFLOP/s is below %s %.3f GFLOP/s"
                int8_headline_name i8 (headline_name `Full) f));
      (* the leading-dimension pin: reading B as K×N rows costs the f32
         kernel one strided row per k step, and must keep at least 0.8 of
         the slab rate at the MHA tile (the fused P·V reads V this way
         instead of packing it) *)
      let min_ratio (name, field) =
        match Option.bind (Option.bind (member "brgemm" j) (member name)) (member field) with
        | Some (Float r) when r >= 0.8 -> ()
        | Some (Float r) -> fail (Printf.sprintf "brgemm %s %s %.3f is below 0.8" name field r)
        | _ -> fail (Printf.sprintf "missing brgemm.%s.%s" name field)
      in
      min_ratio (kxn_name, "kxn_over_nxk");
      (* the same pin for A read in place, rows [lda] apart (a compiled
         matmul reads a plain activation this way instead of packing it) *)
      min_ratio (lda_name, "lda_over_slab");
      (* and for a K tail read in place, its last block [klast] deep,
         against the zero-padded slab (MLP_1's 13-wide input) *)
      min_ratio (ktail_name, "ktail_over_slab");
      (match Option.bind (member "pool" j) (member "fork_join_ns") with
      | Some (Float _) -> ()
      | _ -> fail "missing pool.fork_join_ns");
      (match Option.bind (member "mlp" j) (member "wallclock_ms") with
      | Some (Float _) -> ()
      | _ -> fail "missing mlp.wallclock_ms");
      (match Option.bind (member "mlp" j) (member "init_ms") with
      | Some (Float _) -> ()
      | _ -> fail "missing mlp.init_ms");
      (* the constant-init pin: weight prepack walks per-axis offset
         tables and allocates (almost) nothing per weight element; the
         per-element [Layout.offset] loop it replaced cost ~91 words *)
      (match Option.bind (member "mlp" j) (member "init_words_per_weight") with
      | Some (Float w) when w < 4. -> ()
      | Some (Float w) ->
          fail
            (Printf.sprintf
               "mlp.init_words_per_weight %.2f breaches the < 4 words pin" w)
      | _ -> fail "missing mlp.init_words_per_weight");
      Printf.printf "%s: valid gc-bench-micro/1 document\n" file)

(* ------------------------------------------------------------------ *)

let () =
  let mode = ref `Full in
  let out = ref "BENCH_micro.json" in
  let rec parse = function
    | [] -> ()
    | "--tiny" :: rest ->
        mode := `Tiny;
        parse rest
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | "--validate" :: file :: _ ->
        validate file;
        exit 0
    | arg :: _ ->
        Printf.eprintf "usage: micro.exe [--tiny] [--out FILE] [--validate FILE] (got %s)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !mode with `Tiny -> quota := 0.05 | `Full -> ());
  let shapes = match !mode with `Full -> full_shapes | `Tiny -> tiny_shapes in
  Bench_util.header "BRGEMM microkernel (single thread)";
  let brgemm = brgemm_section shapes in
  let brgemm = brgemm @ [ kxn_entry (); lda_entry (); ktail_entry () ] in
  let headline =
    let open Core.Observe.Json in
    match List.assoc_opt (headline_name !mode) brgemm with
    | Some (Obj fields) ->
        Obj (("shape", String (headline_name !mode)) :: fields)
    | _ -> Null
  in
  Bench_util.header "Parallel pool";
  let pool = pool_section () in
  Bench_util.header "Fused MLP wallclock (full compiler)";
  let mlp = mlp_section !mode in
  let open Core.Observe.Json in
  let doc =
    Obj
      [
        ("schema", String "gc-bench-micro/1");
        ("mode", String (match !mode with `Full -> "full" | `Tiny -> "tiny"));
        ("brgemm", Obj brgemm);
        ("headline", headline);
        ("pool", pool);
        ("mlp", mlp);
      ]
  in
  let oc = open_out !out in
  output_string oc (to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" !out
