(* Serving-layer suite: admission control and typed shedding under
   overload, per-request deadlines, memory-budget governor accounting,
   circuit-breaker state machine, graceful drain, and the inter-pass IR
   verifier. The overload soak is the acceptance test: more clients than
   queue slots, mixed deadlines, armed faults — every request must end in
   exactly one typed outcome and the server must stay serviceable. *)

open Gc_workloads
module Serve = Gc_serve
module Memgov = Gc_tensor.Memgov
module Fault = Gc_faultinject
module Verify = Gc_graph_passes.Verify
module Counters = Gc_observe.Counters
module Parallel = Gc_runtime.Parallel

let seq_pool = Parallel.create 1

let compile_config () =
  { (Core.default_config ()) with Core.pool = Some seq_pool }

let with_faults ?seed ?slow_ms spec f =
  Fault.configure ?seed ?slow_ms spec;
  Fun.protect ~finally:Fault.clear f

let serve_config ?(queue_depth = 8) ?(workers = 2) ?(max_retries = 0)
    ?(breaker_threshold = 5) ?(breaker_cooldown_ms = 50.) ?default_deadline_ms
    () =
  {
    (Serve.default_config ()) with
    Serve.queue_depth;
    workers;
    max_retries;
    breaker_threshold;
    breaker_cooldown_ms;
    default_deadline_ms;
    supervision =
      {
        (Gc_supervise.default_policy ()) with
        Gc_supervise.backoff_base_ms = 0.5;
        backoff_cap_ms = 2.;
      };
  }

let mlp ?(seed = 7) ?(batch = 4) ?(hidden = [ 6; 5 ]) () =
  Mlp.build_f32 ~seed ~batch ~hidden ()

let register_graph ?(config = compile_config ()) server graph =
  Serve.register server (Core.Fixed (Core.compile ~config graph))

let register server (b : Mlp.built) = register_graph server b.Mlp.graph

let with_server ?config f =
  let server = Serve.create ?config () in
  Fun.protect ~finally:(fun () -> Serve.shutdown ~drain_deadline_ms:2000 server)
    (fun () -> f server)

let err_class = function
  | Ok _ -> "ok"
  | Error e -> Core.Errors.class_name e

(* ------------------------------------------------------------------ *)
(* Basic serving *)

let test_call_matches_reference () =
  let b = mlp () in
  with_server ~config:(serve_config ()) (fun server ->
      let h = register server b in
      match Serve.call server h b.Mlp.data with
      | Error e -> Alcotest.failf "call failed: %s" (Core.Errors.to_string e)
      | Ok outs ->
          let expect = Core.reference b.Mlp.graph b.Mlp.data in
          List.iter2
            (fun got e ->
              Alcotest.(check bool) "output matches reference" true
                (Core.Tensor.allclose ~rtol:2e-3 ~atol:2e-3 got e))
            outs expect;
          let s = Serve.stats server in
          Alcotest.(check int) "submitted" 1 s.Serve.submitted;
          Alcotest.(check int) "ok" 1 s.Serve.ok)

let test_queue_full_sheds_typed () =
  let b = mlp ~batch:16 ~hidden:[ 32; 32; 32 ] () in
  with_server ~config:(serve_config ~queue_depth:1 ~workers:1 ())
    (fun server ->
      let h = register server b in
      (* every pool task of an execute sleeps 20 ms, so the one worker is
         still busy with the first request when the later submits arrive
         and the depth-1 queue must shed; without the gate a fast execute
         can drain the queue between two submits *)
      let outcomes =
        with_faults ~slow_ms:20 "slow:1" (fun () ->
            let tickets =
              List.init 8 (fun _ -> Serve.submit server h b.Mlp.data)
            in
            List.map Serve.await tickets)
      in
      let ok = List.length (List.filter Result.is_ok outcomes) in
      let overloaded =
        List.length
          (List.filter
             (function
               | Error (Core.Errors.Overloaded _) -> true | _ -> false)
             outcomes)
      in
      Alcotest.(check bool) "some requests served" true (ok >= 1);
      Alcotest.(check bool) "some requests shed" true (overloaded >= 1);
      Alcotest.(check int) "every outcome typed" 8 (ok + overloaded);
      let s = Serve.stats server in
      Alcotest.(check int) "submitted" 8 s.Serve.submitted;
      Alcotest.(check int) "accounted"
        s.Serve.submitted
        (s.Serve.ok + s.Serve.overloaded + s.Serve.timeouts + s.Serve.faults
       + s.Serve.budget_rejects))

let test_draining_rejects () =
  let b = mlp () in
  with_server ~config:(serve_config ()) (fun server ->
      let h = register server b in
      Serve.drain server;
      (match Serve.call server h b.Mlp.data with
      | Error (Core.Errors.Overloaded { what; _ }) ->
          Alcotest.(check string) "drain reason" "server is draining" what
      | o -> Alcotest.failf "expected Overloaded, got %s" (err_class o));
      Alcotest.(check bool) "stats report draining" true
        (Serve.stats server).Serve.draining)

(* ------------------------------------------------------------------ *)
(* Overload soak (acceptance): 32 clients, queue depth 4, mixed
   deadlines, faults armed. Every request ends in exactly one typed
   outcome; afterwards the server still serves cleanly. *)

let test_overload_soak () =
  let b = mlp ~batch:8 ~hidden:[ 16; 16 ] () in
  let clients = 32 and iters = 3 in
  let deadlines = [| Some 1; Some 30; Some 400; None |] in
  with_server
    ~config:(serve_config ~queue_depth:4 ~workers:2 ~max_retries:1 ())
    (fun server ->
      let h = register server b in
      (* warm once so arenas/init are settled before the burst *)
      (match Serve.call server h b.Mlp.data with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warmup failed: %s" (Core.Errors.to_string e));
      let outcomes = Array.make (clients * iters) None in
      with_faults ~seed:42 "worker:11,kernel_nan:13" (fun () ->
          let client c =
            for i = 0 to iters - 1 do
              let deadline_ms = deadlines.((c + i) mod Array.length deadlines) in
              let o = Serve.call ?deadline_ms server h b.Mlp.data in
              outcomes.((c * iters) + i) <- Some o
            done
          in
          let threads = List.init clients (fun c -> Thread.create client c) in
          List.iter Thread.join threads);
      (* every request resolved, and resolved typed *)
      let tally = Hashtbl.create 8 in
      Array.iteri
        (fun i o ->
          match o with
          | None -> Alcotest.failf "request %d never resolved (hang)" i
          | Some o ->
              let c = err_class o in
              Hashtbl.replace tally c (1 + Option.value ~default:0 (Hashtbl.find_opt tally c)))
        outcomes;
      Hashtbl.iter
        (fun c _ ->
          if
            not
              (List.mem c
                 [
                   "ok";
                   "overloaded";
                   "timeout";
                   "runtime_fault";
                   "resource_exhausted";
                 ])
          then Alcotest.failf "untyped outcome class %s" c)
        tally;
      let s = Serve.stats server in
      Alcotest.(check int) "all submissions seen" (clients * iters + 1)
        s.Serve.submitted;
      Alcotest.(check int) "conservation of outcomes"
        s.Serve.submitted
        (s.Serve.ok + s.Serve.overloaded + s.Serve.timeouts + s.Serve.faults
       + s.Serve.budget_rejects);
      (* serviceable after the storm *)
      match Serve.call server h b.Mlp.data with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "not serviceable after soak: %s"
            (Core.Errors.to_string e))

(* ------------------------------------------------------------------ *)
(* Per-call deadline on Core.execute_checked (satellite) *)

let test_execute_deadline_param () =
  let b = mlp ~batch:64 ~hidden:[ 32; 32 ] () in
  let pool = Parallel.create 4 in
  let config = { (Core.default_config ()) with Core.pool = Some pool } in
  let compiled = Core.compile ~config b.Mlp.graph in
  ignore (Core.execute compiled b.Mlp.data);
  (* a 30 ms per-call deadline trips on a 300 ms task *)
  with_faults ~slow_ms:300 "slow:1" (fun () ->
      match
        Core.execute_checked ~deadline_ms:30 (Core.Fixed compiled) b.Mlp.data
      with
      | Error (Core.Errors.Timeout _) -> ()
      | o -> Alcotest.failf "expected Timeout, got %s" (err_class o));
  (* a generous per-call deadline overrides any GC_EXEC_TIMEOUT_MS *)
  (match
     Core.execute_checked ~deadline_ms:10_000 (Core.Fixed compiled) b.Mlp.data
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean run failed: %s" (Core.Errors.to_string e));
  Parallel.shutdown pool

(* ------------------------------------------------------------------ *)
(* Memory budget governor *)

(* Collect until the ledger stops falling. Dead buffers of earlier tests
   release their charges from finalisers, so a baseline read before they
   ran would drop under any later collection. *)
let rec settle_ledger n =
  let before = Memgov.used () in
  Gc.full_major ();
  if Memgov.used () < before && n > 0 then settle_ledger (n - 1)

let test_budget_rejects_and_recovers () =
  let b = mlp ~batch:8 ~hidden:[ 32; 32 ] () in
  (* baseline-relative: under GC_MEM_BUDGET_BYTES (the CI chaos job) the
     ledger already holds live charges — earlier tests' buffers. Settle
     before any worker domain of this test exists: a finaliser orphaned
     by an earlier test's exited domain may otherwise be adopted by this
     test's idle worker and run only when a request wakes it. Without the
     env budget the baseline is 0 and this proves the absolute
     drain-to-zero property. *)
  settle_ledger 10;
  let used0 = Memgov.used () in
  (* compile unarmed so compile-time constants are not charged *)
  let server = Serve.create ~config:(serve_config ~workers:1 ()) () in
  let h = register server b in
  Fun.protect
    ~finally:(fun () ->
      Memgov.set_limit None;
      Serve.shutdown server)
    (fun () ->
      Memgov.set_limit (Some 512);
      (* first execute must allocate arenas/globals well past 512 bytes.
         With a pristine ledger the allocation site rejects with a typed
         Resource_exhausted naming the buffer and the budget. When the
         whole suite runs under GC_MEM_BUDGET_BYTES (CI chaos job) the
         ledger is already past 512, so the fill fraction is >= 1 and
         admission backpressure sheds the request first — equally typed,
         equally correct. *)
      let prefilled =
        Sys.getenv_opt "GC_MEM_BUDGET_BYTES" <> None && used0 > 0
      in
      (match Serve.call server h b.Mlp.data with
      | Error (Core.Errors.Resource_exhausted { resource; ctx; _ }) ->
          Alcotest.(check string) "names the budget" "memory_budget" resource;
          Alcotest.(check bool) "ctx names the buffer" true
            (List.mem_assoc "buffer" ctx);
          Alcotest.(check bool) "ctx names the budget size" true
            (List.assoc_opt "budget" ctx = Some "512")
      | Error (Core.Errors.Overloaded { ctx; _ }) when prefilled ->
          Alcotest.(check bool) "shed cites the budget fill" true
            (List.mem_assoc "budget_fill" ctx)
      | o -> Alcotest.failf "expected Resource_exhausted, got %s" (err_class o));
      let s = Serve.stats server in
      Alcotest.(check bool) "budget reject counted" true
        (if prefilled then s.Serve.overloaded >= 1
         else s.Serve.budget_rejects >= 1);
      (* raising the budget restores service: the process survived *)
      Memgov.set_limit (Some (64 * 1024 * 1024));
      (match Serve.call server h b.Mlp.data with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "not serviceable after budget raise: %s"
            (Core.Errors.to_string e));
      Alcotest.(check bool) "ledger sees live bytes" true
        (Memgov.used () > used0));
  (* after shutdown the worker domains (and their arenas) are gone;
     collection must drain the ledger back to the pre-test baseline *)
  let rec settle n =
    Gc.full_major ();
    if Memgov.used () > used0 && n > 0 then settle (n - 1)
  in
  settle 10;
  (* <= not =: the settle GCs may also collect buffers charged by earlier
     tests (part of the baseline), dropping the ledger below [used0] *)
  Alcotest.(check bool) "accounting drains to baseline" true
    (Memgov.used () <= used0)

let test_backpressure_shrinks_queue () =
  let cfg = serve_config ~queue_depth:8 ~workers:1 () in
  with_server ~config:cfg (fun server ->
      Fun.protect ~finally:(fun () -> Memgov.set_limit None) (fun () ->
          (* an almost-full budget must shrink the effective depth; the
             limit is baseline-relative so pre-existing live charges
             (present when GC_MEM_BUDGET_BYTES is armed suite-wide) do
             not push the fill to 1.0 *)
          Memgov.set_limit (Some (Memgov.used () + 1_000_000));
          let held = Gc_tensor.Buffer.create Gc_tensor.Dtype.F32 200_000 in
          (* fill >= 0.8 -> effective depth <= 8 * 2 * 0.2 = 3 *)
          let s = Serve.stats server in
          Alcotest.(check bool) "depth shrunk" true
            (s.Serve.effective_depth < cfg.Serve.queue_depth
            && s.Serve.effective_depth >= 1);
          ignore (Sys.opaque_identity held)))

let test_budget_drains_to_zero_qcheck =
  QCheck.Test.make ~count:50 ~name:"charge/release returns to baseline"
    QCheck.(list (int_range 1 8192))
    (fun sizes ->
      Memgov.set_limit (Some 100_000);
      Fun.protect ~finally:(fun () -> Memgov.set_limit None) (fun () ->
          let base = Memgov.used () in
          let charged =
            List.filter
              (fun b ->
                match Memgov.charge ~name:"qcheck" b with
                | ok -> ok
                | exception Core.Errors.Error (Core.Errors.Resource_exhausted _)
                  ->
                    false)
              sizes
          in
          List.iter Memgov.release charged;
          Memgov.used () = base))

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

let test_breaker_opens_and_recovers () =
  (* the worker fault site fires inside parallel-pool tasks, so this test
     needs a real multi-worker pool and a workload big enough to spawn
     tasks (the shared sequential pool would never probe the site) *)
  let b = mlp ~batch:64 ~hidden:[ 32; 32 ] () in
  let pool = Parallel.create 4 in
  let compile_config = { (Core.default_config ()) with Core.pool = Some pool } in
  let threshold = 5 in
  with_server
    ~config:
      (serve_config ~workers:1 ~breaker_threshold:threshold
         ~breaker_cooldown_ms:50. ())
    (fun server ->
      let h = register_graph ~config:compile_config server b.Mlp.graph in
      (match Serve.call server h b.Mlp.data with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warmup failed: %s" (Core.Errors.to_string e));
      let snap0 = Counters.snapshot () in
      with_faults "worker:1" (fun () ->
          (* every compiled execute faults; each request degrades to the
             interpreter; the breaker must open within [threshold] *)
          for i = 1 to threshold do
            match Serve.call server h b.Mlp.data with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "fallback %d failed: %s" i
                  (Core.Errors.to_string e)
          done;
          Alcotest.(check bool) "breaker open after N fallbacks" true
            (Serve.breaker_state h = Serve.Open);
          (* open: requests short-circuit to the interpreter, counted *)
          (match Serve.call server h b.Mlp.data with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "short-circuit failed: %s"
                (Core.Errors.to_string e)));
      let snap1 = Counters.snapshot () in
      Alcotest.(check bool) "breaker_opens counted" true
        (snap1.Counters.breaker_opens > snap0.Counters.breaker_opens);
      Alcotest.(check bool) "short-circuits counted" true
        (snap1.Counters.breaker_shortcircuits
        > snap0.Counters.breaker_shortcircuits);
      (* faults disarmed: after the cooldown a half-open probe must close
         the breaker again *)
      Unix.sleepf 0.06;
      (match Serve.call server h b.Mlp.data with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "probe failed: %s" (Core.Errors.to_string e));
      Alcotest.(check bool) "breaker closed after probe" true
        (Serve.breaker_state h = Serve.Closed);
      let snap2 = Counters.snapshot () in
      Alcotest.(check bool) "probe counted" true
        (snap2.Counters.breaker_probes > snap0.Counters.breaker_probes);
      Alcotest.(check bool) "close counted" true
        (snap2.Counters.breaker_closes > snap0.Counters.breaker_closes));
  Parallel.shutdown pool

(* A half-open probe that times out judges nothing: it must hand the
   probe back (Open, cooldown served) instead of leaving the handle
   Half_open, where every later request would short-circuit forever *)
let test_unjudged_probe_handed_back () =
  let b = mlp ~batch:64 ~hidden:[ 32; 32 ] () in
  let pool = Parallel.create 4 in
  let compile_config = { (Core.default_config ()) with Core.pool = Some pool } in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  with_server
    ~config:
      (serve_config ~workers:1 ~breaker_threshold:2 ~breaker_cooldown_ms:50. ())
    (fun server ->
      let h = register_graph ~config:compile_config server b.Mlp.graph in
      ignore (Serve.call server h b.Mlp.data);
      with_faults "worker:1" (fun () ->
          for _ = 1 to 2 do
            ignore (Serve.call server h b.Mlp.data)
          done);
      Alcotest.(check bool) "breaker open" true
        (Serve.breaker_state h = Serve.Open);
      Unix.sleepf 0.06;
      (* the probe's compiled execute outlives its deadline *)
      with_faults ~slow_ms:300 "slow:1" (fun () ->
          match Serve.call ~deadline_ms:40 server h b.Mlp.data with
          | Error (Core.Errors.Timeout _) -> ()
          | Ok _ -> Alcotest.fail "probe should have timed out"
          | Error e ->
              Alcotest.failf "probe: unexpected %s" (Core.Errors.to_string e));
      Alcotest.(check bool) "probe handed back" true
        (Serve.breaker_state h = Serve.Open);
      (* the next request probes at once and closes the breaker *)
      (match Serve.call server h b.Mlp.data with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "second probe: %s" (Core.Errors.to_string e));
      Alcotest.(check bool) "closed by the next probe" true
        (Serve.breaker_state h = Serve.Closed))

(* The serve tier runs the one retry ladder: under a persistent fault a
   request makes [max_retries + 1] compiled attempts, counts
   [max_retries] retries, then falls back to the interpreter once. *)
let test_retries_then_one_fallback () =
  let b = mlp ~batch:64 ~hidden:[ 32; 32 ] () in
  let pool = Parallel.create 4 in
  let compile_config =
    { (Core.default_config ()) with Core.pool = Some pool }
  in
  let max_retries = 3 in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  with_server ~config:(serve_config ~workers:1 ~max_retries ()) (fun server ->
      let h = register_graph ~config:compile_config server b.Mlp.graph in
      ignore (Serve.call server h b.Mlp.data);
      let ref_out = Core.reference b.Mlp.graph b.Mlp.data in
      let c0 = Counters.snapshot () and f0 = Parallel.faults_survived pool in
      with_faults "worker:1" (fun () ->
          match Serve.call server h b.Mlp.data with
          | Ok out ->
              Alcotest.(check bool) "fallback output matches reference" true
                (List.for_all2 Core.Tensor.equal out ref_out)
          | Error e ->
              Alcotest.failf "expected fallback, got %s"
                (Core.Errors.to_string e));
      let c1 = Counters.snapshot () in
      Alcotest.(check int) "exec_retries moved by max_retries" max_retries
        (c1.Counters.exec_retries - c0.Counters.exec_retries);
      Alcotest.(check int) "fallback_interp moved by one" 1
        (c1.Counters.fallback_interp - c0.Counters.fallback_interp);
      Alcotest.(check int) "compiled attempts" (max_retries + 1)
        (Parallel.faults_survived pool - f0))

(* ------------------------------------------------------------------ *)
(* Whole-model serving: BERT and DLRM, f32 and int8, through the same
   admission-controlled path as the unit workloads *)

let bert_built ~quantized =
  let build = if quantized then Bert.build_int8 else Bert.build_f32 in
  build ~layers:1 ~batch:1 ~seq:8 ~hidden:16 ~heads:2 ()

let dlrm_built ~quantized =
  let build = if quantized then Dlrm.build_int8 else Dlrm.build_f32 in
  build ~batch:4 ~dense_dim:4 ~bottom:[ 8; 8 ] ~tables:2 ~vocab:20 ~emb_dim:8
    ~top:[ 8; 1 ] ()

let test_models_served_match_reference () =
  let bert_case what ~quantized rtol atol =
    let b = bert_built ~quantized in
    (what, b.Bert.graph, b.Bert.data, rtol, atol)
  in
  let dlrm_case what ~quantized rtol atol =
    let d = dlrm_built ~quantized in
    (what, d.Dlrm.graph, d.Dlrm.data, rtol, atol)
  in
  let cases =
    [
      bert_case "bert f32" ~quantized:false 2e-3 2e-3;
      bert_case "bert int8" ~quantized:true 1e-2 1e-2;
      dlrm_case "dlrm f32" ~quantized:false 2e-3 2e-3;
      dlrm_case "dlrm int8" ~quantized:true 1e-2 2e-2;
    ]
  in
  with_server ~config:(serve_config ()) (fun server ->
      List.iter
        (fun (what, graph, data, rtol, atol) ->
          let h = register_graph server graph in
          match Serve.call server h data with
          | Error e ->
              Alcotest.failf "%s call failed: %s" what
                (Core.Errors.to_string e)
          | Ok outs ->
              let expect = Core.reference graph data in
              List.iter2
                (fun got e ->
                  Alcotest.(check bool) (what ^ " matches reference") true
                    (Core.Tensor.allclose ~rtol ~atol got e))
                outs expect)
        cases;
      let s = Serve.stats server in
      Alcotest.(check int) "all served ok" (List.length cases) s.Serve.ok)

(* More clients than queue slots, mixed deadlines, armed faults, both
   models in flight: every request ends in exactly one typed outcome and
   the server stays serviceable afterwards. *)
let test_models_chaos_overload () =
  let bert = bert_built ~quantized:false in
  let dlrm = dlrm_built ~quantized:false in
  with_server ~config:(serve_config ~queue_depth:2 ~workers:1 ())
    (fun server ->
      let hb = register_graph server bert.Bert.graph in
      let hd = register_graph server dlrm.Dlrm.graph in
      let expect_b = Core.reference bert.Bert.graph bert.Bert.data in
      let expect_d = Core.reference dlrm.Dlrm.graph dlrm.Dlrm.data in
      with_faults "worker:4,kernel_nan:6" (fun () ->
          let client c =
            for i = 1 to 4 do
              let deadline_ms = if (c + i) mod 3 = 0 then Some 50 else None in
              let h, data, expect =
                if (c + i) mod 2 = 0 then (hb, bert.Bert.data, expect_b)
                else (hd, dlrm.Dlrm.data, expect_d)
              in
              match Serve.call ?deadline_ms server h data with
              | Ok outs ->
                  List.iter2
                    (fun got e ->
                      Alcotest.(check bool)
                        "chaos serve output reference-close" true
                        (Core.Tensor.allclose ~rtol:2e-3 ~atol:2e-3 got e))
                    outs expect
              | Error
                  ( Core.Errors.Invalid_input _ | Core.Errors.Compile_error _
                  | Core.Errors.Runtime_fault _
                  | Core.Errors.Resource_exhausted _ | Core.Errors.Timeout _
                  | Core.Errors.Overloaded _ ) ->
                  ()
            done
          in
          let threads = List.init 6 (fun c -> Thread.create client c) in
          List.iter Thread.join threads);
      let s = Serve.stats server in
      Alcotest.(check int) "every request accounted" s.Serve.submitted
        (s.Serve.ok + s.Serve.overloaded + s.Serve.timeouts + s.Serve.faults
       + s.Serve.budget_rejects);
      match Serve.call server hb bert.Bert.data with
      | Ok outs ->
          List.iter2
            (fun got e ->
              Alcotest.(check bool) "post-chaos serve matches reference" true
                (Core.Tensor.allclose ~rtol:2e-3 ~atol:2e-3 got e))
            outs expect_b
      | Error e ->
          Alcotest.failf "post-chaos call failed: %s" (Core.Errors.to_string e))

(* ------------------------------------------------------------------ *)
(* IR verifier pass *)

let test_verifier_catches_corrupt_graph () =
  let module G = Core.Graph in
  let module Lt = Core.Logical_tensor in
  let sh = Core.Shape.of_list in
  let a = Lt.create ~name:"a" Core.Dtype.F32 (sh [ 2; 2 ]) in
  let ghost = Lt.create ~name:"ghost" Core.Dtype.F32 (sh [ 2; 2 ]) in
  (* output never produced, not an input: def-before-use violation *)
  let bad = G.create ~inputs:[ a ] ~outputs:[ ghost ] [] in
  Fun.protect ~finally:(fun () -> Verify.set_enabled None) (fun () ->
      Verify.set_enabled (Some false);
      Alcotest.(check bool) "disabled: run is identity" true
        (Verify.run ~pass:"t" bad == bad);
      Verify.set_enabled (Some true);
      match Verify.run ~pass:"cse" bad with
      | _ -> Alcotest.fail "verifier accepted a corrupt graph"
      | exception Core.Errors.Error (Core.Errors.Compile_error { stage; ctx; _ })
        ->
          Alcotest.(check string) "stage" "verify" stage;
          Alcotest.(check (option string)) "names the pass" (Some "cse")
            (List.assoc_opt "pass" ctx))

let test_verifier_passes_pipeline () =
  let b = mlp ~batch:3 ~hidden:[ 5; 4 ] () in
  Fun.protect ~finally:(fun () -> Verify.set_enabled None) (fun () ->
      Verify.set_enabled (Some true);
      match Core.compile ~config:(compile_config ()) b.Mlp.graph with
      | compiled -> (
          match Core.execute_checked (Core.Fixed compiled) b.Mlp.data with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "execute under verifier failed: %s"
                (Core.Errors.to_string e))
      | exception Core.Errors.Error e ->
          Alcotest.failf "compile under verifier failed: %s"
            (Core.Errors.to_string e))

(* ------------------------------------------------------------------ *)
(* Shape-polymorphic handles and request coalescing *)

module Dim = Gc_graph_ir.Dim

let poly_mlp ?(hidden = [ 6; 5 ]) () =
  Mlp.build_f32 ~seed:7 ~batch:4 ~batch_dim:(Dim.Sym "b") ~hidden ()

(* Bindings for an actual batch of [n]: fresh activations, the built
   graph's own (physically shared) weights. *)
let poly_bindings (b : Mlp.built) n =
  List.map
    (fun ((lt : Core.Logical_tensor.t), v) ->
      if Dim.has_sym lt.dims then
        ( lt,
          Core.Tensor.random ~seed:(500 + n) Core.Dtype.F32
            (Core.Shape.of_list [ n; Core.Shape.dim lt.shape 1 ]) )
      else (lt, v))
    b.Mlp.data

let coalesce_config ?(window_ms = 25.) ?(workers = 1) ?default_deadline_ms () =
  {
    (serve_config ~workers ~queue_depth:16 ?default_deadline_ms ()) with
    Serve.coalesce_window_ms = window_ms;
    max_coalesce = 8;
  }

let check_ok_equal ~msg want = function
  | Ok outs ->
      List.iter2
        (fun got w ->
          Alcotest.(check bool) msg true (Core.Tensor.equal got w))
        outs want
  | Error e -> Alcotest.failf "%s failed: %s" msg (Core.Errors.to_string e)

let test_poly_handle_serves () =
  let b = poly_mlp () in
  let p = Core.compile_poly ~config:(compile_config ()) b.Mlp.graph in
  with_server ~config:(serve_config ()) (fun server ->
      let h = Serve.register_poly server p in
      List.iter
        (fun n ->
          let bs = poly_bindings b n in
          let want = Core.execute_poly p bs in
          check_ok_equal ~msg:(Printf.sprintf "batch %d" n) want
            (Serve.call server h bs))
        [ 1; 3; 4; 8; 9 ];
      (* 5 requests, 3 buckets (1, 4, 8, 16): instances shared per bucket *)
      Alcotest.(check bool) "buckets reused" true (Core.poly_instances p <= 4))

let test_coalesced_matches_solo () =
  let b = poly_mlp ~hidden:[ 16; 8 ] () in
  let p = Core.compile_poly ~config:(compile_config ()) b.Mlp.graph in
  let before_c = Counters.snapshot () in
  with_server ~config:(coalesce_config ()) (fun server ->
      let h = Serve.register_poly server p in
      (* warm one request through (also settles the latency EWMA) *)
      (match Serve.call server h (poly_bindings b 2) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warmup: %s" (Core.Errors.to_string e));
      let batches = [ 1; 2; 3; 5; 4; 1 ] in
      let reqs = List.map (poly_bindings b) batches in
      let wants = List.map (Core.execute_poly p) reqs in
      let tickets = List.map (Serve.submit server h) reqs in
      List.iter2
        (fun want tk ->
          check_ok_equal ~msg:"coalesced == solo" want (Serve.await tk))
        wants tickets;
      let s = Serve.stats server in
      Alcotest.(check bool) "some batch coalesced" true (s.Serve.coalesced_batches >= 1);
      Alcotest.(check bool) "tickets packed" true (s.Serve.coalesced_tickets >= 2));
  let after_c = Counters.snapshot () in
  Alcotest.(check bool) "global counter moved" true
    (after_c.coalesced_batches > before_c.coalesced_batches);
  Alcotest.(check int) "no window deadline violations"
    before_c.window_deadline_violations after_c.window_deadline_violations

let test_tight_deadline_not_coalesced () =
  let b = poly_mlp () in
  let p = Core.compile_poly ~config:(compile_config ()) b.Mlp.graph in
  with_server ~config:(coalesce_config ~window_ms:200. ()) (fun server ->
      let h = Serve.register_poly server p in
      (* cold EWMA: a deadline-bearing request is never held *)
      (match Serve.call ~deadline_ms:500 server h (poly_bindings b 2) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warmup: %s" (Core.Errors.to_string e));
      let before = Serve.stats server in
      let t0 = Unix.gettimeofday () in
      let o = Serve.call ~deadline_ms:50 server h (poly_bindings b 3) in
      let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      (match o with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "tight call: %s" (Core.Errors.to_string e));
      Alcotest.(check bool)
        (Printf.sprintf "dispatched before window (%.1f ms)" elapsed_ms)
        true (elapsed_ms < 100.);
      let s = Serve.stats server in
      Alcotest.(check int) "not coalesced" before.Serve.coalesced_batches
        s.Serve.coalesced_batches);
  Alcotest.(check int) "no violations" 0
    (Counters.snapshot ()).window_deadline_violations
  [@@warning "-27"]

let test_chaos_during_coalesce () =
  let b = poly_mlp ~hidden:[ 16; 8 ] () in
  let p = Core.compile_poly ~config:(compile_config ()) b.Mlp.graph in
  with_server ~config:(coalesce_config ()) (fun server ->
      let h = Serve.register_poly server p in
      (match Serve.call server h (poly_bindings b 2) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warmup: %s" (Core.Errors.to_string e));
      with_faults ~seed:5 "worker:2,kernel_nan:3" (fun () ->
          let reqs = List.map (poly_bindings b) [ 1; 2; 3; 4; 2; 1 ] in
          let tickets = List.map (Serve.submit server h) reqs in
          let outcomes = List.map Serve.await tickets in
          (* every ticket resolves exactly once, with a typed outcome *)
          Alcotest.(check int) "all resolved" 6 (List.length outcomes);
          List.iter
            (fun o -> Alcotest.(check bool) "typed" true (err_class o <> ""))
            outcomes);
      (* faults cleared: the server is still serviceable *)
      match Serve.call server h (poly_bindings b 3) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "post-chaos: %s" (Core.Errors.to_string e))

(* Acceptance invariant: gathering never causes a deadline miss — the
   window-violation counter stays at zero across a mixed-deadline soak
   with coalescing armed. *)
let test_zero_window_violations_soak () =
  let b = poly_mlp ~hidden:[ 16; 8 ] () in
  let p = Core.compile_poly ~config:(compile_config ()) b.Mlp.graph in
  let before = (Counters.snapshot ()).window_deadline_violations in
  with_server ~config:(coalesce_config ~window_ms:2. ~workers:2 ())
    (fun server ->
      let h = Serve.register_poly server p in
      (match Serve.call server h (poly_bindings b 2) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "warmup: %s" (Core.Errors.to_string e));
      let deadlines = [| Some 50; Some 200; None |] in
      let clients = 3 and iters = 4 in
      let threads =
        List.init clients (fun c ->
            Thread.create
              (fun () ->
                for i = 0 to iters - 1 do
                  let deadline_ms =
                    deadlines.((c + i) mod Array.length deadlines)
                  in
                  ignore (Serve.call ?deadline_ms server h (poly_bindings b (1 + ((c + i) mod 5))))
                done)
              ())
      in
      List.iter Thread.join threads);
  Alcotest.(check int) "zero gather-window deadline violations" before
    (Counters.snapshot ()).window_deadline_violations

(* ------------------------------------------------------------------ *)

(* A coalesced batch runs on pooled engine envs on the worker domain.
   Handing an env back must drop the batch's padded input and its output:
   once the server is shut down and the caller has let go of its results,
   the ledger returns to where it stood before serving. Every bucket is
   warmed on the calling domain before the budget is armed, with a
   sequential pool, so serving creates no new envs or arenas and every
   byte it charges belongs to the requests. *)
let test_served_batch_leaves_no_buffers () =
  let b = poly_mlp ~hidden:[ 16; 8 ] () in
  let p = Core.compile_poly ~config:(compile_config ()) b.Mlp.graph in
  let room () = Some (Memgov.used () + (256 * 1024 * 1024)) in
  let prev = Memgov.limit () in
  Fun.protect
    ~finally:(fun () -> Memgov.set_limit prev)
    (fun () ->
      (* under GC_MEM_BUDGET_BYTES the warm-up must not be refused *)
      if prev <> None then Memgov.set_limit (room ());
      List.iter
        (fun n -> ignore (Core.execute_poly p (poly_bindings b n)))
        [ 1; 2; 3; 4; 5; 6 ];
      Gc.full_major ();
      let ledger = Memgov.used () in
      Memgov.set_limit (room ());
      with_server ~config:(coalesce_config ()) (fun server ->
          let h = Serve.register_poly server p in
          let tickets =
            List.map (fun n -> Serve.submit server h (poly_bindings b n)) [ 1; 2; 3 ]
          in
          List.iter
            (fun tk ->
              match Serve.await tk with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "served: %s" (Core.Errors.to_string e))
            tickets);
      let rec settle n =
        Gc.full_major ();
        if Memgov.used () > ledger && n > 0 then settle (n - 1)
      in
      settle 10;
      if Memgov.used () > ledger then
        Alcotest.failf "ledger holds %d bytes after shutdown"
          (Memgov.used () - ledger))

(* ------------------------------------------------------------------ *)
(* Accounting oracle: one server, two handles, every kind of serve event.
   The outcomes the clients observe are the oracle; the server stats,
   the per-handle tallies, the per-model [Labels] family and the global
   [Counters] must all agree with them and with each other. *)

let wait_until what cond =
  let give_up = Unix.gettimeofday () +. 10. in
  while not (cond ()) do
    if Unix.gettimeofday () > give_up then
      Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.001
  done

let test_accounting_oracle () =
  let b = poly_mlp () in
  let p = Core.compile_poly ~config:(compile_config ()) b.Mlp.graph in
  let config =
    {
      (serve_config ~queue_depth:3 ~workers:1 ()) with
      Serve.coalesce_window_ms = 30.;
      max_coalesce = 8;
      quota_borrow = 0.5;
      (* a spinning worker must stay the one worker: no supersession *)
      supervision =
        { (Gc_supervise.default_policy ()) with Gc_supervise.sup_enabled = false };
    }
  in
  (* admission depth must not shrink under an ambient memory budget *)
  let prev_limit = Memgov.limit () in
  Memgov.set_limit None;
  Fun.protect ~finally:(fun () -> Memgov.set_limit prev_limit) @@ fun () ->
  let c0 = Counters.snapshot () in
  let server = Serve.create ~config () in
  let a = Serve.register_poly ~name:"acct-a" server p in
  let bh = Serve.register ~name:"acct-b" server (Core.Poly p) in
  let tickets = ref [] in
  let submit ?deadline_ms h n =
    tickets := Serve.submit ?deadline_ms server h (poly_bindings b n) :: !tickets
  in
  (* Park the one worker in a 200 ms spin on a request of handle B. *)
  let stall_worker () =
    Fault.configure ~slow_ms:200 "stuck_worker:1@acct-b";
    submit bh 2;
    wait_until "the worker to stall" (fun () ->
        Fault.fire_count Fault.site_stuck_worker >= 1);
    Fault.clear ()
  in
  Fun.protect ~finally:Fault.clear (fun () ->
      stall_worker ();
      (* depth 3, two weight-1 models: each model's share is one slot,
         borrowing stops once the queue holds 1.5 requests *)
      submit a 1;
      submit a 2;
      (* A queues two (the second borrowed) and the queue is past the
         borrow line: over quota *)
      submit a 3;
      (* B is under its share: admitted, and expires while queued *)
      submit ~deadline_ms:1 bh 1;
      (* the queue is full *)
      submit bh 1;
      (* the worker resumes: B's request, then A's two coalesced, then
         B's expired one *)
      wait_until "the queue to empty" (fun () ->
          let s = Serve.stats server in
          s.Serve.queue_len = 0 && s.Serve.in_flight = 0);
      stall_worker ();
      submit a 4;
      (* A's request is still queued at the drain deadline *)
      Serve.drain ~deadline_ms:20 server;
      submit a 1);
  Serve.shutdown server;
  let outcomes = List.rev_map Serve.await !tickets in
  let s = Serve.stats server in
  let ha = Serve.handle_stats server a and hb = Serve.handle_stats server bh in
  let c1 = Counters.snapshot () in
  let count f = List.length (List.filter f outcomes) in
  let shed_at ?what site = function
    | Error (Core.Errors.Overloaded o) ->
        o.site = site && (match what with Some w -> o.what = w | None -> true)
    | _ -> false
  in
  let check = Alcotest.(check int) in
  (* every kind of event happened *)
  check "queue-full sheds" 1 (count (shed_at ~what:"queue full" "serve.admission"));
  check "over-quota sheds" 1 s.Serve.quota_shed;
  check "draining refusals" 1
    (count (shed_at ~what:"server is draining" "serve.admission"));
  check "queue expiries" 1 s.Serve.shed_expired;
  check "drain-deadline sheds" 1
    (count (shed_at ~what:"shed at drain deadline" "serve"));
  check "coalesced batches" 1 s.Serve.coalesced_batches;
  check "coalesced tickets" 2 s.Serve.coalesced_tickets;
  (* the clients' outcomes are the oracle for the server's stats *)
  check "submitted" (List.length outcomes) s.Serve.submitted;
  check "ok" (count Result.is_ok) s.Serve.ok;
  check "overloaded"
    (count (function Error (Core.Errors.Overloaded _) -> true | _ -> false))
    s.Serve.overloaded;
  check "submitted = admitted + admission sheds" s.Serve.submitted
    (s.Serve.admitted + count (shed_at "serve.admission"));
  check "admitted = completed after shutdown" s.Serve.admitted s.Serve.completed;
  (* the handles' tallies and label families sum to the server's *)
  let both f = f ha + f hb in
  let label h k = Gc_observe.Labels.get ~label:(Serve.handle_name h) k in
  let labels k = label a k + label bh k in
  List.iter
    (fun (k, total, per_handle) ->
      check ("handles: " ^ k) total (both per_handle);
      check ("labels: " ^ k) total (labels k))
    [
      ("submitted", s.Serve.submitted, fun h -> h.Serve.hs_submitted);
      ("admitted", s.Serve.admitted, fun h -> h.Serve.hs_admitted);
      ("ok", s.Serve.ok, fun h -> h.Serve.hs_ok);
      ("shed", s.Serve.overloaded, fun h -> h.Serve.hs_shed);
      ("quota_shed", s.Serve.quota_shed, fun h -> h.Serve.hs_quota_shed);
    ];
  (* the global counters moved exactly as far as this server's stats *)
  let delta f = f c1 - f c0 in
  check "serve_admitted" s.Serve.admitted (delta (fun c -> c.Counters.serve_admitted));
  check "serve_overloaded" s.Serve.overloaded
    (delta (fun c -> c.Counters.serve_overloaded));
  check "serve_shed_expired" s.Serve.shed_expired
    (delta (fun c -> c.Counters.serve_shed_expired));
  check "quota_sheds" s.Serve.quota_shed (delta (fun c -> c.Counters.quota_sheds));
  check "coalesced_batches" s.Serve.coalesced_batches
    (delta (fun c -> c.Counters.coalesced_batches));
  check "coalesced_tickets" s.Serve.coalesced_tickets
    (delta (fun c -> c.Counters.coalesced_tickets))

let () =
  Alcotest.run "serve"
    [
      ( "serving",
        [
          Alcotest.test_case "call matches reference" `Quick
            test_call_matches_reference;
          Alcotest.test_case "queue full sheds typed" `Quick
            test_queue_full_sheds_typed;
          Alcotest.test_case "draining rejects" `Quick test_draining_rejects;
          Alcotest.test_case "accounting oracle" `Quick test_accounting_oracle;
        ] );
      ( "overload",
        [ Alcotest.test_case "soak" `Slow test_overload_soak ] );
      ( "deadlines",
        [
          Alcotest.test_case "execute_checked deadline param" `Quick
            test_execute_deadline_param;
        ] );
      ( "budget",
        [
          Alcotest.test_case "rejects and recovers" `Quick
            test_budget_rejects_and_recovers;
          Alcotest.test_case "backpressure shrinks queue" `Quick
            test_backpressure_shrinks_queue;
          QCheck_alcotest.to_alcotest test_budget_drains_to_zero_qcheck;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens and recovers" `Quick
            test_breaker_opens_and_recovers;
          Alcotest.test_case "unjudged probe handed back" `Quick
            test_unjudged_probe_handed_back;
          Alcotest.test_case "retries then one fallback" `Quick
            test_retries_then_one_fallback;
        ] );
      ( "models",
        [
          Alcotest.test_case "served outputs match reference" `Quick
            test_models_served_match_reference;
          Alcotest.test_case "chaos overload" `Slow test_models_chaos_overload;
        ] );
      ( "verify",
        [
          Alcotest.test_case "catches corrupt graph" `Quick
            test_verifier_catches_corrupt_graph;
          Alcotest.test_case "pipeline clean under verifier" `Quick
            test_verifier_passes_pipeline;
        ] );
      ( "coalesce",
        [
          Alcotest.test_case "poly handle serves" `Quick test_poly_handle_serves;
          Alcotest.test_case "coalesced matches solo" `Quick
            test_coalesced_matches_solo;
          Alcotest.test_case "tight deadline not coalesced" `Quick
            test_tight_deadline_not_coalesced;
          Alcotest.test_case "served batch leaves no buffers" `Quick
            test_served_batch_leaves_no_buffers;
          Alcotest.test_case "chaos during coalesce" `Slow
            test_chaos_during_coalesce;
          Alcotest.test_case "zero window violations soak" `Slow
            test_zero_window_violations_soak;
        ] );
    ]
