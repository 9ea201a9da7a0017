(* Registry suite: model lifecycle (load / hot-swap / retire), the two
   hot-swap paths (weights-swap on identical fingerprint vs structural
   compile-then-rebind), budget-aware residency (pinned entries survive
   cache pressure; parking + lazy reload round-trips), per-model quota
   shedding, and the churn acceptance test: one tenant served
   continuously while another is loaded / swapped / retired under armed
   model-scoped faults — zero lost tickets, zero double-resolves, and no
   fault class leaking into the undisturbed tenant's outcomes. *)

open Gc_workloads
module Registry = Gc_registry
module Serve = Gc_serve
module Cache = Core.Compile_cache
module Memgov = Gc_tensor.Memgov
module Fault = Gc_faultinject
module Counters = Gc_observe.Counters
module Parallel = Gc_runtime.Parallel

let seq_pool = Parallel.create 1

let compile_config () =
  { (Core.default_config ()) with Core.pool = Some seq_pool }

let serve_config ?(queue_depth = 8) ?(workers = 2) ?(max_retries = 1) () =
  {
    (Serve.default_config ()) with
    Serve.queue_depth;
    workers;
    max_retries;
    default_deadline_ms = None;
    supervision =
      {
        (Gc_supervise.default_policy ()) with
        Gc_supervise.backoff_base_ms = 0.5;
        backoff_cap_ms = 2.;
      };
  }

let mlp ?(seed = 7) ?(batch = 4) ?(hidden = [ 6; 5 ]) () =
  Mlp.build_f32 ~seed ~batch ~hidden ()

let with_registry ?config f =
  (* each test starts from an empty cache so pin/byte assertions are
     about this test's models only *)
  Cache.clear ();
  let reg = Registry.create ?config () in
  Fun.protect
    ~finally:(fun () ->
      Registry.shutdown ~drain_deadline_ms:2000 reg;
      Cache.set_max_bytes None;
      Memgov.set_limit None;
      Cache.clear ())
    (fun () -> f reg)

let load_ok reg ~name (b : Mlp.built) =
  match Registry.load ~config:(compile_config ()) reg ~name b.Mlp.graph with
  | Ok () -> ()
  | Error e -> Alcotest.failf "load %s: %s" name (Core.Errors.to_string e)

let call_ok reg name (b : Mlp.built) =
  match Registry.call reg name b.Mlp.data with
  | Ok outs -> outs
  | Error e -> Alcotest.failf "call %s: %s" name (Core.Errors.to_string e)

let info reg name =
  match Registry.model_info reg name with
  | Some i -> i
  | None -> Alcotest.failf "no model_info for %s" name

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let test_load_call_retire () =
  let b = mlp () in
  with_registry ~config:(serve_config ()) (fun reg ->
      load_ok reg ~name:"m" b;
      Alcotest.(check (option int)) "version" (Some 1) (Registry.version reg "m");
      let outs = call_ok reg "m" b in
      let expect = Core.reference b.Mlp.graph b.Mlp.data in
      List.iter2
        (fun got e ->
          Alcotest.(check bool) "matches reference" true
            (Core.Tensor.allclose ~rtol:2e-3 ~atol:2e-3 got e))
        outs expect;
      (* duplicate live name refused without touching the live model *)
      (match Registry.load ~config:(compile_config ()) reg ~name:"m" b.Mlp.graph
       with
      | Error (Core.Errors.Invalid_input _) -> ()
      | Ok () -> Alcotest.fail "duplicate load accepted"
      | Error e ->
          Alcotest.failf "expected Invalid_input, got %s"
            (Core.Errors.to_string e));
      Alcotest.(check bool) "retire" true (Registry.retire reg "m");
      Alcotest.(check bool) "retire idempotent" false (Registry.retire reg "m");
      (match Registry.call reg "m" b.Mlp.data with
      | Error (Core.Errors.Invalid_input _) -> ()
      | _ -> Alcotest.fail "retired model still callable");
      (* a retired name can be loaded anew *)
      load_ok reg ~name:"m" b;
      ignore (call_ok reg "m" b))

let test_hot_swap_weights_and_structural () =
  let b1 = mlp ~seed:1 () in
  let b2 = mlp ~seed:2 () in
  (* same dims, different weights: identical fingerprint *)
  let b3 = mlp ~seed:3 ~hidden:[ 9; 5 ] () in
  (* structural change *)
  with_registry ~config:(serve_config ()) (fun reg ->
      load_ok reg ~name:"m" b1;
      let key1 = (info reg "m").Registry.mi_cache_key in
      let sw0 = (Counters.snapshot ()).Counters.hot_swaps in
      (match Registry.hot_swap reg ~name:"m" b2.Mlp.graph with
      | Ok () -> ()
      | Error e -> Alcotest.failf "weights swap: %s" (Core.Errors.to_string e));
      Alcotest.(check (option int)) "version bumped" (Some 2)
        (Registry.version reg "m");
      Alcotest.(check string) "weights swap keeps cache key" key1
        (info reg "m").Registry.mi_cache_key;
      let outs = call_ok reg "m" b2 in
      let expect = Core.reference b2.Mlp.graph b2.Mlp.data in
      List.iter2
        (fun got e ->
          Alcotest.(check bool) "new weights visible after swap" true
            (Core.Tensor.allclose ~rtol:2e-3 ~atol:2e-3 got e))
        outs expect;
      (match Registry.hot_swap reg ~name:"m" b3.Mlp.graph with
      | Ok () -> ()
      | Error e -> Alcotest.failf "structural swap: %s" (Core.Errors.to_string e));
      let i = info reg "m" in
      Alcotest.(check (option int)) "version bumped again" (Some 3)
        (Registry.version reg "m");
      Alcotest.(check bool) "structural swap changes cache key" true
        (i.Registry.mi_cache_key <> key1);
      Alcotest.(check bool) "old entry evicted" false (Cache.mem key1);
      ignore (call_ok reg "m" b3);
      Alcotest.(check int) "two hot swaps counted" (sw0 + 2)
        (Counters.snapshot ()).Counters.hot_swaps)

(* ------------------------------------------------------------------ *)
(* Pinned residency (regression: pinned entries are never evicted) *)

let test_pinned_survives_cache_pressure () =
  let b = mlp ~hidden:[ 12; 8 ] () in
  with_registry ~config:(serve_config ()) (fun reg ->
      load_ok reg ~name:"m" b;
      let key = (info reg "m").Registry.mi_cache_key in
      Alcotest.(check bool) "entry pinned" true (Cache.pins key >= 1);
      let st = Cache.stats () in
      Alcotest.(check bool) "resident bytes accounted" true
        (st.Cache.resident_bytes > 0);
      Alcotest.(check bool) "pinned counted in stats" true (st.Cache.pinned >= 1);
      (* a byte bound far below the entry's size must not evict it *)
      Cache.set_max_bytes (Some 1);
      Alcotest.(check bool) "pinned entry survives byte bound" true
        (Cache.mem key);
      Alcotest.(check bool) "evict_key refuses pinned" false
        (Cache.evict_key key);
      (* still serving *)
      ignore (call_ok reg "m" b);
      Cache.set_max_bytes None;
      (* retire releases the pin; now the entry is evictable *)
      Alcotest.(check bool) "retire" true (Registry.retire reg "m");
      Alcotest.(check int) "pin released" 0 (Cache.pins key);
      if Cache.mem key then
        Alcotest.(check bool) "unpinned entry evictable" true
          (Cache.evict_key key))

(* ------------------------------------------------------------------ *)
(* Budget pressure: park + lazy reload round-trip *)

let test_eviction_and_lazy_reload () =
  let models =
    [
      ("a", mlp ~seed:1 ~hidden:[ 16; 8 ] ());
      ("b", mlp ~seed:2 ~hidden:[ 17; 8 ] ());
      ("c", mlp ~seed:3 ~hidden:[ 18; 8 ] ());
    ]
  in
  with_registry ~config:(serve_config ~workers:1 ()) (fun reg ->
      (* size the cache bound for roughly two of the three artifacts *)
      let est (_, (b : Mlp.built)) =
        Core.estimated_bytes (Core.compile ~config:(compile_config ()) b.Mlp.graph)
      in
      let sizes = List.map est models in
      let cap =
        match List.sort (fun x y -> compare y x) sizes with
        | a :: b :: _ -> a + b
        | _ -> assert false
      in
      Cache.set_max_bytes (Some cap);
      let c0 = Counters.snapshot () in
      List.iter (fun (name, b) -> load_ok reg ~name b) models;
      (* three loads under a two-model bound: someone must be parked *)
      let parked, resident =
        List.partition
          (fun (name, _) -> Registry.status_of reg name = Some Registry.Parked)
          models
      in
      Alcotest.(check bool) "at least one model parked" true
        (List.length parked >= 1);
      Alcotest.(check bool) "at least one model resident" true
        (List.length resident >= 1);
      (* every model still serves: parked ones lazily recompile + rebind *)
      for _ = 1 to 3 do
        List.iter (fun (name, b) -> ignore (call_ok reg name b)) models
      done;
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool)
            (name ^ " live after round-robin")
            true
            (match Registry.status_of reg name with
            | Some Registry.Resident | Some Registry.Parked -> true
            | _ -> false))
        models;
      let c1 = Counters.snapshot () in
      Alcotest.(check bool) "parks counted" true
        (c1.Counters.models_parked > c0.Counters.models_parked);
      Alcotest.(check bool) "lazy reloads counted" true
        (c1.Counters.models_reloaded > c0.Counters.models_reloaded);
      Alcotest.(check bool) "evicted bytes counted" true
        (c1.Counters.cache_bytes_evicted > c0.Counters.cache_bytes_evicted))

(* ------------------------------------------------------------------ *)
(* Weighted-fair quota: a flooding tenant is shed over its share while a
   trickling tenant is not starved *)

let test_quota_shedding () =
  let hot = mlp ~seed:1 ~hidden:[ 24; 16 ] () in
  let cold = mlp ~seed:2 ~hidden:[ 7; 5 ] () in
  with_registry ~config:(serve_config ~workers:1 ~queue_depth:4 ~max_retries:0 ())
    (fun reg ->
      load_ok reg ~name:"hot" hot;
      load_ok reg ~name:"cold" cold;
      ignore (call_ok reg "hot" hot);
      ignore (call_ok reg "cold" cold);
      let stop = Atomic.make false in
      let flood =
        Thread.create
          (fun () ->
            let tickets = Queue.create () in
            while not (Atomic.get stop) do
              (match Registry.submit reg "hot" hot.Mlp.data with
              | Ok t -> Queue.push t tickets
              | Error e ->
                  Alcotest.failf "hot submit: %s" (Core.Errors.to_string e));
              Thread.yield ()
            done;
            Queue.iter (fun t -> ignore (Serve.await t)) tickets)
          ()
      in
      let cold_ok = ref 0 in
      for _ = 1 to 10 do
        (match Registry.call reg "cold" cold.Mlp.data with
        | Ok _ -> incr cold_ok
        | Error _ -> ());
        Thread.delay 0.002
      done;
      Atomic.set stop true;
      Thread.join flood;
      let h = (info reg "hot").Registry.mi_serve in
      let c = (info reg "cold").Registry.mi_serve in
      Alcotest.(check bool) "hot flooded" true (h.Serve.hs_submitted > 20);
      Alcotest.(check bool) "hot shed over quota" true (h.Serve.hs_quota_shed > 0);
      Alcotest.(check bool) "cold not starved" true (!cold_ok >= 5);
      let rate (s : Serve.handle_stats) =
        if s.Serve.hs_submitted = 0 then 0.
        else float_of_int s.Serve.hs_shed /. float_of_int s.Serve.hs_submitted
      in
      Alcotest.(check bool) "cold shed rate below hot's" true
        (rate c < rate h))

(* ------------------------------------------------------------------ *)
(* Churn acceptance: serve one tenant continuously while another is
   loaded / hot-swapped / retired under faults armed at the churning
   model. Zero lost tickets, zero double-resolves, and the steady
   tenant never sees a fault-class outcome. *)

let test_concurrent_churn_isolation () =
  let steady = mlp ~seed:10 ~hidden:[ 10; 6 ] () in
  let churn_a = mlp ~seed:11 ~hidden:[ 8; 6 ] () in
  let churn_b = mlp ~seed:12 ~hidden:[ 9; 6 ] () in
  with_registry
    ~config:(serve_config ~workers:2 ~queue_depth:8 ~max_retries:1 ())
    (fun reg ->
      load_ok reg ~name:"steady" steady;
      ignore (call_ok reg "steady" steady);
      let dr0 = Serve.double_resolve_count () in
      Fault.configure ~seed:5 ~slow_ms:2 "worker_death:6@churn,stuck_worker:9@churn";
      Fun.protect ~finally:Fault.clear (fun () ->
          let rounds = 12 in
          let steady_submitted = Atomic.make 0
          and steady_resolved = Atomic.make 0
          and leaks = Atomic.make 0 in
          let stop = Atomic.make false in
          let steady_client =
            Thread.create
              (fun () ->
                while not (Atomic.get stop) do
                  Atomic.incr steady_submitted;
                  (match Registry.call reg "steady" steady.Mlp.data with
                  | Ok _ | Error (Core.Errors.Overloaded _)
                  | Error (Core.Errors.Timeout _) ->
                      Atomic.incr steady_resolved
                  | Error (Core.Errors.Runtime_fault _) ->
                      (* the faults are scoped to "churn" — a fault class
                         here is cross-model leakage *)
                      Atomic.incr steady_resolved;
                      Atomic.incr leaks
                  | Error _ -> Atomic.incr steady_resolved);
                  Thread.yield ()
                done)
              ()
          in
          for i = 1 to rounds do
            let b = if i mod 2 = 0 then churn_a else churn_b in
            (match Registry.load ~config:(compile_config ()) reg ~name:"churn"
                     b.Mlp.graph
             with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "churn load %d: %s" i (Core.Errors.to_string e));
            (* drive traffic into the faulted model; typed outcomes only *)
            for _ = 1 to 4 do
              match Registry.call reg "churn" b.Mlp.data with
              | Ok _ | Error _ -> ()
            done;
            let b' = if i mod 2 = 0 then churn_b else churn_a in
            (match Registry.hot_swap reg ~name:"churn" b'.Mlp.graph with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "churn swap %d: %s" i (Core.Errors.to_string e));
            (match Registry.call reg "churn" b'.Mlp.data with
            | Ok _ | Error _ -> ());
            Alcotest.(check bool) "churn retire" true (Registry.retire reg "churn")
          done;
          Atomic.set stop true;
          Thread.join steady_client;
          Alcotest.(check int) "steady tenant: no lost tickets"
            (Atomic.get steady_submitted)
            (Atomic.get steady_resolved);
          Alcotest.(check bool) "steady tenant made progress" true
            (Atomic.get steady_submitted > 10);
          Alcotest.(check int) "no cross-model fault leakage" 0
            (Atomic.get leaks);
          Alcotest.(check int) "no double resolves" 0
            (Serve.double_resolve_count () - dr0);
          (* the registry is still coherent: steady model serves, churn
             name is retired and reloadable *)
          ignore (call_ok reg "steady" steady);
          Alcotest.(check bool) "churn retired" true
            (Registry.status_of reg "churn" = Some Registry.Retired)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "registry"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "load/call/retire" `Quick test_load_call_retire;
          Alcotest.test_case "hot swap paths" `Quick
            test_hot_swap_weights_and_structural;
        ] );
      ( "residency",
        [
          Alcotest.test_case "pinned survives pressure" `Quick
            test_pinned_survives_cache_pressure;
          Alcotest.test_case "eviction + lazy reload" `Quick
            test_eviction_and_lazy_reload;
        ] );
      ( "quota",
        [ Alcotest.test_case "weighted-fair shedding" `Quick test_quota_shedding ] );
      ( "churn",
        [
          Alcotest.test_case "concurrent churn isolation" `Quick
            test_concurrent_churn_isolation;
        ] );
    ]
