(* Chaos suite: every injected fault class must be contained, classified
   into the typed taxonomy, counted, and leave the process serviceable —
   a subsequent clean execute must still produce reference-identical
   results. Fault injection is deterministic in (seed, site, probe), so
   the same seed reproduces the same fault schedule. *)

open Core
module Buffer = Gc_tensor.Buffer
module Parallel = Gc_runtime.Parallel
module Fault = Gc_faultinject

let sh = Shape.of_list

(* Each test arms its own fault spec; always disarm afterwards so a
   failing assertion cannot leak faults into the next test. *)
let with_faults ?seed ?slow_ms spec f =
  Fault.configure ?seed ?slow_ms spec;
  Fun.protect ~finally:Fault.clear f

let nan_aware_equal a b =
  let fa = Tensor.to_float_array a and fb = Tensor.to_float_array b in
  Array.length fa = Array.length fb
  && Array.for_all2
       (fun x y -> (Float.is_nan x && Float.is_nan y) || x = y)
       fa fb

let check_serviceable ?(msg = "clean execute matches reference") compiled
    (built : Gc_workloads.Mlp.built) =
  let out = execute compiled built.data in
  let ref_out = reference built.graph built.data in
  Alcotest.(check bool) msg true
    (List.for_all2 Tensor.equal out ref_out)

(* Serve one request through a one-worker server: the serve tier's retry
   ladder (one retry, then the interpreter) with the output sanitizer on. *)
let serve_sanitized compiled data =
  let config =
    {
      (Gc_serve.default_config ()) with
      Gc_serve.workers = 1;
      max_retries = 1;
      default_deadline_ms = None;
      sanitize_outputs = true;
    }
  in
  let server = Gc_serve.create ~config () in
  Fun.protect
    ~finally:(fun () -> Gc_serve.shutdown ~drain_deadline_ms:2000 server)
    (fun () ->
      Gc_serve.call server (Gc_serve.register server (Fixed compiled)) data)

(* One chaos request as the serve tier ends it once its retries are spent:
   a guarded compiled attempt with the sanitizer on, then the reference
   interpreter on a typed Runtime_fault. *)
let checked_or_fallback ~deadline_ms art data =
  match execute_checked ~deadline_ms ~sanitize:true art data with
  | Error (Errors.Runtime_fault _) -> execute_fallback ~deadline_ms art data
  | r -> r

(* ------------------------------------------------------------------ *)
(* Deterministic fault schedule *)

let test_fault_schedule_deterministic () =
  let pattern () =
    Fault.configure ~seed:42 "worker:5";
    List.init 20 (fun _ -> Fault.should_fire Fault.site_worker)
  in
  let p1 = pattern () and p2 = pattern () in
  Fault.clear ();
  Alcotest.(check (list bool)) "same seed, same schedule" p1 p2;
  Alcotest.(check int) "fires once per period" 4
    (List.length (List.filter Fun.id p1))

let test_inert_when_unarmed () =
  Fault.clear ();
  Alcotest.(check bool) "disarmed" false (Fault.enabled ());
  Alcotest.(check bool) "never fires" false
    (List.exists Fun.id
       (List.init 100 (fun _ -> Fault.should_fire Fault.site_worker)))

(* ------------------------------------------------------------------ *)
(* Validation rejects (before any engine state is touched) *)

let test_validation_rejected_and_counted () =
  Observe.Counters.reset ();
  let built = Gc_workloads.Mlp.build_f32 ~batch:4 ~hidden:[ 8; 8 ] () in
  let compiled = compile built.graph in
  let x_lt, _ = List.hd built.data in
  let bad = Tensor.random Dtype.F32 (sh [ 3; 8 ]) in
  (match
     execute_checked (Fixed compiled) ((x_lt, bad) :: List.tl built.data)
   with
  | Error (Errors.Invalid_input { ctx; _ }) ->
      Alcotest.(check (option string))
        "shape in context" (Some "[3x8]")
        (List.assoc_opt "shape" ctx)
  | Ok _ -> Alcotest.fail "bad shape accepted"
  | Error e -> Alcotest.fail ("wrong class: " ^ Errors.to_string e));
  (match execute_checked (Fixed compiled) [ List.hd built.data ] with
  | Error (Errors.Invalid_input _) -> ()
  | _ -> Alcotest.fail "missing binding not rejected as Invalid_input");
  let snap = Observe.Counters.snapshot () in
  Alcotest.(check bool) "rejects counted" true (snap.validation_rejects >= 2);
  check_serviceable compiled built

(* ------------------------------------------------------------------ *)
(* Injected allocation failure -> Resource_exhausted *)

let test_alloc_fault_contained () =
  Observe.Counters.reset ();
  let built = Gc_workloads.Mlp.build_f32 ~batch:4 ~hidden:[ 8; 8 ] () in
  let compiled = compile built.graph in
  check_serviceable ~msg:"warm-up execute" compiled built;
  with_faults "alloc:1" (fun () ->
      (match Buffer.create Dtype.F32 64 with
      | _ -> Alcotest.fail "injected alloc did not fire"
      | exception
          Errors.Error (Errors.Resource_exhausted { resource; ctx; _ }) ->
          Alcotest.(check string) "resource" "buffer" resource;
          Alcotest.(check (option string))
            "marked injected" (Some "true")
            (List.assoc_opt "injected" ctx));
      match execute_checked (Fixed compiled) built.data with
      | Error (Errors.Resource_exhausted _) -> ()
      | Ok _ -> Alcotest.fail "execute succeeded under alloc:1"
      | Error e -> Alcotest.fail ("wrong class: " ^ Errors.to_string e));
  let snap = Observe.Counters.snapshot () in
  Alcotest.(check bool) "counted" true (snap.resource_exhausted >= 1);
  check_serviceable compiled built

(* ------------------------------------------------------------------ *)
(* Injected worker exception -> contained, wrapped, pool survives *)

let test_worker_fault_contained () =
  Observe.Counters.reset ();
  let pool = Parallel.create 4 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      with_faults "worker:1" (fun () ->
          match
            Parallel.run pool (Array.init 16 (fun _ () -> ()))
          with
          | () -> Alcotest.fail "injected worker fault did not fire"
          | exception
              Errors.Error
                (Errors.Runtime_fault { site; task; backtrace; _ }) ->
              Alcotest.(check string) "site" "parallel" site;
              Alcotest.(check bool) "task index" true (task <> None);
              Alcotest.(check bool) "backtrace" true (backtrace <> None));
      Alcotest.(check bool) "fault recorded" true
        (Parallel.faults_survived pool >= 1);
      (* pool survives: a clean run still covers every task *)
      let hits = Array.init 16 (fun _ -> Atomic.make 0) in
      Parallel.run pool
        (Array.init 16 (fun i () -> Atomic.incr hits.(i)));
      Alcotest.(check bool) "pool usable" true
        (Array.for_all (fun a -> Atomic.get a = 1) hits));
  let snap = Observe.Counters.snapshot () in
  Alcotest.(check bool) "worker fault counted" true (snap.worker_faults >= 1);
  Alcotest.(check bool) "wrapped fault counted" true
    (snap.runtime_faults >= 1)

(* Core makes one guarded attempt: a Runtime_fault comes straight back,
   with no retry and no interpreter fallback (the serve tier owns both) *)
let test_one_guarded_attempt () =
  let pool = Parallel.create 4 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let config = { (default_config ()) with pool = Some pool } in
      let built = Gc_workloads.Mlp.build_f32 ~batch:16 ~hidden:[ 16; 16 ] () in
      let compiled = compile ~config built.graph in
      check_serviceable ~msg:"warm-up execute" compiled built;
      let c0 = Observe.Counters.snapshot () in
      let f0 = Parallel.faults_survived pool in
      with_faults "worker:1" (fun () ->
          match execute_checked (Fixed compiled) built.data with
          | Error (Errors.Runtime_fault _) -> ()
          | Ok _ -> Alcotest.fail "faulted execute returned Ok"
          | Error e -> Alcotest.fail ("wrong class: " ^ Errors.to_string e));
      let c1 = Observe.Counters.snapshot () in
      Alcotest.(check int) "one attempt" 1 (Parallel.faults_survived pool - f0);
      Alcotest.(check int) "no retry" c0.exec_retries c1.exec_retries;
      Alcotest.(check int) "no fallback" c0.fallback_interp c1.fallback_interp;
      check_serviceable compiled built)

(* Through the full stack: engine fault -> serve retry -> reference
   fallback *)
let test_worker_fault_falls_back_to_interp () =
  Observe.Counters.reset ();
  let pool = Parallel.create 4 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let config = { (default_config ()) with pool = Some pool } in
      let built = Gc_workloads.Mlp.build_f32 ~batch:16 ~hidden:[ 16; 16 ] () in
      let compiled = compile ~config built.graph in
      check_serviceable ~msg:"warm-up execute" compiled built;
      let ref_out = reference built.graph built.data in
      with_faults "worker:1" (fun () ->
          match serve_sanitized compiled built.data with
          | Ok out ->
              Alcotest.(check bool) "fallback output matches reference" true
                (List.for_all2 Tensor.equal out ref_out)
          | Error e ->
              Alcotest.fail ("expected fallback, got " ^ Errors.to_string e));
      let snap = Observe.Counters.snapshot () in
      Alcotest.(check bool) "retried" true (snap.exec_retries >= 1);
      Alcotest.(check bool) "fell back" true (snap.fallback_interp >= 1);
      check_serviceable compiled built)

(* ------------------------------------------------------------------ *)
(* Kernel NaN poisoning: silent without the sanitizer, detected and
   recovered with it *)

let test_kernel_nan_sanitized_and_recovered () =
  Observe.Counters.reset ();
  let built =
    Gc_workloads.Mlp.build_single_matmul ~dtype:`F32 ~m:8 ~n:8 ~k:8 ()
  in
  let compiled = compile built.graph in
  check_serviceable ~msg:"warm-up execute" compiled built;
  let ref_out = reference built.graph built.data in
  with_faults "kernel_nan:1" (fun () ->
      (* without the sanitizer the poisoned output is silent *)
      (match execute_checked (Fixed compiled) built.data with
      | Ok [ out ] ->
          Alcotest.(check bool) "NaN present, undetected" true
            (Array.exists Float.is_nan (Tensor.to_float_array out))
      | Ok _ -> Alcotest.fail "expected one output"
      | Error e -> Alcotest.fail ("unexpected " ^ Errors.to_string e));
      (* a sanitizing server: detect, retry, degrade to the interpreter *)
      match serve_sanitized compiled built.data with
      | Ok out ->
          Alcotest.(check bool) "recovered output matches reference" true
            (List.for_all2 Tensor.equal out ref_out)
      | Error e -> Alcotest.fail ("expected recovery, got " ^ Errors.to_string e));
  let snap = Observe.Counters.snapshot () in
  Alcotest.(check bool) "sanitizer hits" true (snap.sanitizer_hits >= 1);
  Alcotest.(check bool) "fell back" true (snap.fallback_interp >= 1);
  check_serviceable compiled built

(* ------------------------------------------------------------------ *)
(* Watchdog: injected slow task -> Timeout, never a hang; pool recovers *)

let test_timeout_pool_recovers () =
  Observe.Counters.reset ();
  let pool = Parallel.create 4 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      with_faults ~slow_ms:250 "slow:1" (fun () ->
          match
            Guard.with_deadline ~timeout_ms:50 ~site:"test" (fun () ->
                Parallel.run pool (Array.init 8 (fun _ () -> ())))
          with
          | () -> Alcotest.fail "deadline did not trip"
          | exception Errors.Error (Errors.Timeout { timeout_ms; _ }) ->
              Alcotest.(check int) "deadline" 50 timeout_ms);
      Alcotest.(check bool) "raised promptly, no hang" true
        (Unix.gettimeofday () -. t0 < 5.0);
      (* serviceable immediately (inline while poisoned), recovered soon *)
      let cell = ref false in
      Parallel.run pool [| (fun () -> cell := true) |];
      Alcotest.(check bool) "serviceable" true !cell;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Parallel.is_poisoned pool && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Alcotest.(check bool) "recovered" false (Parallel.is_poisoned pool));
  let snap = Observe.Counters.snapshot () in
  Alcotest.(check bool) "timeout counted" true (snap.timeouts >= 1)

let test_timeout_through_execute_checked () =
  let pool = Parallel.create 4 in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let config = { (default_config ()) with pool = Some pool } in
      let built = Gc_workloads.Mlp.build_f32 ~batch:64 ~hidden:[ 32; 32 ] () in
      let compiled = compile ~config built.graph in
      check_serviceable ~msg:"warm-up execute" compiled built;
      with_faults ~slow_ms:200 "slow:1" (fun () ->
          match execute_checked ~deadline_ms:40 (Fixed compiled) built.data with
          | Error (Errors.Timeout _) -> ()
          | Ok _ -> Alcotest.fail "expected Timeout"
          | Error e -> Alcotest.fail ("wrong class: " ^ Errors.to_string e));
      (* drain, then prove clean steady state *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Parallel.is_poisoned pool && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      check_serviceable compiled built)

(* ------------------------------------------------------------------ *)
(* invalidate_constants racing concurrent executes (regression) *)

let test_invalidate_race_with_concurrent_execute () =
  let built = Gc_workloads.Mlp.build_f32 ~batch:8 ~hidden:[ 16; 16 ] () in
  let compiled = compile built.graph in
  ignore (execute compiled built.data);
  let stop = Atomic.make false in
  let churners =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              ignore (execute compiled built.data)
            done))
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join churners)
    (fun () ->
      let _w_lt, w =
        List.find
          (fun ((lt : Logical_tensor.t), _) ->
            match lt.property with Variable -> false | _ -> true)
          built.data
      in
      let wb = Tensor.buffer w in
      for iter = 1 to 25 do
        (* swap the weights in place, invalidate, and require the very
           next execute to see them — under concurrent executes, the old
           boolean init flag could republish stale constants here *)
        Buffer.fill_range wb 0 (Buffer.length wb)
          (0.01 *. float_of_int iter);
        invalidate_constants compiled;
        let out = execute compiled built.data in
        let ref_out = reference built.graph built.data in
        if not (List.for_all2 Tensor.equal out ref_out) then
          Alcotest.fail
            (Printf.sprintf "stale constants after invalidate (iter %d)" iter)
      done)

(* ------------------------------------------------------------------ *)
(* NaN/Inf propagation: engine and interpreter agree (f32 and int8) *)

let prop_nan_inf_engine_matches_reference =
  QCheck.Test.make ~count:20
    ~name:"NaN/Inf propagate identically (engine vs reference)"
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 5) (int_range 1 5) (int_range 1 5)
           (pair (list_size (int_range 1 4) (int_range 0 1000)) bool)))
    (fun (m, n, k, (positions, use_inf)) ->
      let built =
        Gc_workloads.Mlp.build_single_matmul ~relu:true ~dtype:`F32 ~m ~n ~k
          ()
      in
      let x =
        snd
          (List.find
             (fun ((lt : Logical_tensor.t), _) ->
               match lt.property with Variable -> true | _ -> false)
             built.data)
      in
      let xb = Tensor.buffer x in
      let poison = if use_inf then Float.infinity else Float.nan in
      List.iter
        (fun p -> Buffer.set xb (p mod Buffer.length xb) poison)
        positions;
      let compiled = compile_cached built.graph in
      let out = execute compiled built.data in
      let ref_out = reference built.graph built.data in
      List.for_all2 nan_aware_equal out ref_out)

let prop_int8_extremes_engine_matches_reference =
  QCheck.Test.make ~count:15
    ~name:"s8/u8 saturation identical (engine vs reference)"
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 1 6) (int_range 0 1000)) bool))
    (fun (positions, high) ->
      let built = Gc_workloads.Mlp.build_int8 ~batch:4 ~hidden:[ 8; 8 ] () in
      let x =
        snd
          (List.find
             (fun ((lt : Logical_tensor.t), _) ->
               match lt.property with Variable -> true | _ -> false)
             built.data)
      in
      let xb = Tensor.buffer x in
      let extreme = if high then 255 else 0 in
      List.iter
        (fun p -> Buffer.set_int xb (p mod Buffer.length xb) extreme)
        positions;
      let compiled = compile_cached built.graph in
      let out = execute compiled built.data in
      let ref_out = reference built.graph built.data in
      (* the hybrid scheme is integer-exact through the s8/u8 stages; the
         final dequantize multiplies in different orders, so the f32
         output agrees to rounding (same tolerance as the integration
         suite) — and the finiteness classification must agree exactly *)
      List.for_all2
        (fun o r ->
          Tensor.allclose ~rtol:1e-4 ~atol:1e-3 o r
          && Array.for_all2
               (fun a b -> Float.is_finite a = Float.is_finite b)
               (Tensor.to_float_array o) (Tensor.to_float_array r))
        out ref_out)

(* ------------------------------------------------------------------ *)
(* Chaos soak: under a mixed fault schedule (the environment's GC_FAULTS
   when the CI chaos job sets it, a default mix otherwise), every execute
   either succeeds or fails with exactly one typed error — and once the
   faults clear, the partition still matches the reference. *)

let test_chaos_soak () =
  let built = Gc_workloads.Mlp.build_f32 ~batch:8 ~hidden:[ 16; 16 ] () in
  let compiled = compile built.graph in
  check_serviceable ~msg:"pre-chaos execute" compiled built;
  if not (Fault.enabled ()) then
    Fault.configure "worker:3,kernel_nan:5,alloc:7";
  Fun.protect ~finally:Fault.clear (fun () ->
      for _ = 1 to 30 do
        match
          checked_or_fallback ~deadline_ms:2000 (Fixed compiled) built.data
        with
        | Ok _ -> ()
        | Error
            ( Errors.Invalid_input _ | Errors.Compile_error _
            | Errors.Runtime_fault _ | Errors.Resource_exhausted _
            | Errors.Timeout _ | Errors.Overloaded _ ) ->
            ()
      done);
  check_serviceable ~msg:"post-chaos execute" compiled built

(* Whole-model chaos: the Conv2d, BERT and DLRM graphs under an armed
   fault schedule (the environment's GC_FAULTS when the CI chaos job sets
   it, the default mix otherwise). Every execute either succeeds with
   finite, reference-close outputs — including when it was served by the
   interpreter fallback — or fails with exactly one typed error. *)
let model_chaos ~what ~rtol ~atol (graph : Gc_graph_ir.Graph.t) data =
  Observe.Counters.reset ();
  let compiled = compile graph in
  let ref_out = reference graph data in
  let close out =
    List.for_all2
      (fun o r ->
        Tensor.allclose ~rtol ~atol o r
        && Array.for_all Float.is_finite (Tensor.to_float_array o))
      out ref_out
  in
  Alcotest.(check bool) (what ^ ": pre-chaos execute") true
    (close (execute compiled data));
  if not (Fault.enabled ()) then
    Fault.configure "worker:3,kernel_nan:5,alloc:7";
  Fun.protect ~finally:Fault.clear (fun () ->
      for _ = 1 to 10 do
        match checked_or_fallback ~deadline_ms:5000 (Fixed compiled) data with
        | Ok out ->
            Alcotest.(check bool)
              (what ^ ": chaos output finite and reference-close")
              true (close out)
        | Error
            ( Errors.Invalid_input _ | Errors.Compile_error _
            | Errors.Runtime_fault _ | Errors.Resource_exhausted _
            | Errors.Timeout _ | Errors.Overloaded _ ) ->
            ()
      done);
  Alcotest.(check bool) (what ^ ": post-chaos execute") true
    (close (execute compiled data))

let test_chaos_conv () =
  let built =
    Gc_workloads.Conv.build_f32 ~batch:1 ~height:6 ~width:6 ~channels:4 ~kh:3
      ~kw:3 ~out_channels:6 ~strides:(1, 1) ~pads:(1, 1, 1, 1)
      ~dilations:(1, 1) ()
  in
  model_chaos ~what:"conv" ~rtol:1e-5 ~atol:1e-5 built.graph built.data

let test_chaos_bert () =
  let built =
    Gc_workloads.Bert.build_f32 ~layers:1 ~batch:1 ~seq:8 ~hidden:16 ~heads:2
      ()
  in
  model_chaos ~what:"bert" ~rtol:1e-4 ~atol:1e-4 built.graph built.data

let test_chaos_dlrm () =
  let built =
    Gc_workloads.Dlrm.build_f32 ~batch:4 ~dense_dim:4 ~bottom:[ 8; 8 ]
      ~tables:2 ~vocab:20 ~emb_dim:8 ~top:[ 8; 1 ] ()
  in
  model_chaos ~what:"dlrm" ~rtol:1e-4 ~atol:1e-4 built.graph built.data

(* The same soak over a shape-polymorphic artifact: a symbolic-batch MLP
   through [execute_checked (Poly p)] at three batch sizes, each in its own
   bucket, so faults also land in bucket compiles, padding and slicing.
   Request [n] rebinds the exact batch-[n] build's tensors positionally
   onto the symbolic graph; that build's reference is the oracle. *)
let test_chaos_poly () =
  Observe.Counters.reset ();
  let hidden = [ 13; 32; 16 ] in
  let sym =
    Gc_workloads.Mlp.build_f32 ~batch:4
      ~batch_dim:(Gc_graph_ir.Dim.Sym "b") ~hidden ()
  in
  let p = compile_poly sym.graph in
  let requests =
    List.map
      (fun n ->
        let exact = Gc_workloads.Mlp.build_f32 ~batch:n ~hidden () in
        ( n,
          List.map2 (fun (lt, _) (_, v) -> (lt, v)) sym.data exact.data,
          reference exact.graph exact.data ))
      [ 3; 5; 12 ]
  in
  let close out ref_out =
    List.for_all2
      (fun o r ->
        Tensor.allclose ~rtol:1e-4 ~atol:1e-4 o r
        && Array.for_all Float.is_finite (Tensor.to_float_array o))
      out ref_out
  in
  if not (Fault.enabled ()) then
    Fault.configure "worker:3,kernel_nan:5,alloc:7";
  Fun.protect ~finally:Fault.clear (fun () ->
      for _ = 1 to 10 do
        List.iter
          (fun (n, data, ref_out) ->
            match checked_or_fallback ~deadline_ms:5000 (Poly p) data with
            | Ok out ->
                Alcotest.(check bool)
                  (Printf.sprintf
                     "poly batch %d: chaos output finite and reference-close" n)
                  true (close out ref_out)
            | Error
                ( Errors.Invalid_input _ | Errors.Compile_error _
                | Errors.Runtime_fault _ | Errors.Resource_exhausted _
                | Errors.Timeout _ | Errors.Overloaded _ ) ->
                ())
          requests
      done);
  List.iter
    (fun (n, data, ref_out) ->
      Alcotest.(check bool)
        (Printf.sprintf "poly batch %d: post-chaos execute" n)
        true
        (close (execute_poly p data) ref_out))
    requests

let test_seed_honored () =
  (match Sys.getenv_opt "GC_FAULT_SEED" with
  | Some s ->
      Fault.configure "worker:13";
      Alcotest.(check int) "seed from environment"
        (int_of_string (String.trim s))
        (Fault.seed ());
      Fault.clear ()
  | None -> ());
  Alcotest.(check pass) "ok" () ()

let () =
  Alcotest.run "resilience"
    [
      ( "faultinject",
        [
          Alcotest.test_case "deterministic schedule" `Quick
            test_fault_schedule_deterministic;
          Alcotest.test_case "inert when unarmed" `Quick
            test_inert_when_unarmed;
          Alcotest.test_case "seed honored" `Quick test_seed_honored;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "validation rejected and counted" `Quick
            test_validation_rejected_and_counted;
          Alcotest.test_case "alloc fault contained" `Quick
            test_alloc_fault_contained;
        ] );
      ( "containment",
        [
          Alcotest.test_case "worker fault contained" `Quick
            test_worker_fault_contained;
          Alcotest.test_case "one guarded attempt" `Quick
            test_one_guarded_attempt;
          Alcotest.test_case "fallback to interpreter" `Quick
            test_worker_fault_falls_back_to_interp;
          Alcotest.test_case "kernel NaN sanitized" `Quick
            test_kernel_nan_sanitized_and_recovered;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "pool timeout and recovery" `Quick
            test_timeout_pool_recovers;
          Alcotest.test_case "execute_checked timeout" `Quick
            test_timeout_through_execute_checked;
        ] );
      ( "races",
        [
          Alcotest.test_case "invalidate vs concurrent execute" `Quick
            test_invalidate_race_with_concurrent_execute;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_nan_inf_engine_matches_reference;
          QCheck_alcotest.to_alcotest
            prop_int8_extremes_engine_matches_reference;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "soak" `Quick test_chaos_soak;
          Alcotest.test_case "conv model" `Quick test_chaos_conv;
          Alcotest.test_case "bert model" `Quick test_chaos_bert;
          Alcotest.test_case "dlrm model" `Quick test_chaos_dlrm;
          Alcotest.test_case "poly mlp" `Quick test_chaos_poly;
        ] );
    ]
