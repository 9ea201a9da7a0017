(* Tests for the execution substrate: the domain pool, the closure-compiling
   engine, and engine/interpreter differential equivalence. *)

open Gc_tensor
open Gc_tensor_ir
open Gc_runtime

(* ------------------------------------------------------------------ *)
(* Parallel pool *)

let test_pool_runs_all_tasks () =
  let pool = Parallel.create 4 in
  let hits = Array.make 100 0 in
  Parallel.run pool (Array.init 100 (fun i () -> hits.(i) <- hits.(i) + 1));
  Alcotest.(check bool) "all ran once" true (Array.for_all (( = ) 1) hits);
  Parallel.shutdown pool

let test_pool_parallel_for_covers_range () =
  let pool = Parallel.create 3 in
  let seen = Array.make 57 false in
  Parallel.parallel_for pool ~lo:0 ~hi:57 (fun lo hi ->
      for i = lo to hi - 1 do
        seen.(i) <- true
      done);
  Alcotest.(check bool) "covered" true (Array.for_all Fun.id seen);
  Parallel.shutdown pool

let test_pool_sequential () =
  let pool = Parallel.create 1 in
  let sum = ref 0 in
  Parallel.parallel_for pool ~lo:0 ~hi:10 (fun lo hi ->
      for i = lo to hi - 1 do
        sum := !sum + i
      done);
  Alcotest.(check int) "sum" 45 !sum;
  Parallel.shutdown pool

let test_pool_exception_propagates () =
  let pool = Parallel.create 2 in
  Alcotest.(check bool) "raised" true
    (try
       Parallel.run pool [| (fun () -> failwith "boom"); (fun () -> ()) |];
       false
     with
     | Gc_errors.Error (Gc_errors.Runtime_fault { site; what; task; backtrace; _ })
       ->
         site = "parallel" && task = Some 0 && backtrace <> None
         && what = {|Failure("boom")|});
  (* pool still usable after an exception *)
  let ok = ref false in
  Parallel.run pool [| (fun () -> ok := true) |];
  Alcotest.(check bool) "usable" true !ok;
  Parallel.shutdown pool

let test_pool_empty_range () =
  let pool = Parallel.create 2 in
  Parallel.parallel_for pool ~lo:5 ~hi:5 (fun _ _ -> Alcotest.fail "should not run");
  Parallel.shutdown pool

(* ------------------------------------------------------------------ *)
(* Parallel pool properties: randomized pool sizes (1..16 domains) against
   uneven task counts, exception propagation from arbitrary task indices,
   and the re-entrancy guard (nested run must execute inline, not
   deadlock). *)

let with_pool domains f =
  let pool = Parallel.create domains in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let prop_pool_all_tasks_run_once =
  QCheck.Test.make ~name:"every task runs exactly once (1..16 domains)"
    ~count:20
    (QCheck.make QCheck.Gen.(pair (int_range 1 16) (int_range 0 100)))
    (fun (domains, ntasks) ->
      with_pool domains (fun pool ->
          let hits = Array.init ntasks (fun _ -> Atomic.make 0) in
          Parallel.run pool
            (Array.init ntasks (fun i () -> Atomic.incr hits.(i)));
          Array.for_all (fun a -> Atomic.get a = 1) hits))

let prop_pool_exception_propagates =
  QCheck.Test.make ~name:"a failing task propagates and the pool survives"
    ~count:15
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 1 8) (int_range 1 60) (int_range 0 1000000)))
    (fun (domains, ntasks, salt) ->
      let k = salt mod ntasks in
      with_pool domains (fun pool ->
          let raised =
            try
              Parallel.run pool
                (Array.init ntasks (fun i () ->
                     if i = k then failwith "prop-boom"));
              false
            with
            | Gc_errors.Error (Gc_errors.Runtime_fault { task = Some t; _ }) ->
                t = k
          in
          let ran = Atomic.make 0 in
          Parallel.run pool (Array.init ntasks (fun _ () -> Atomic.incr ran));
          raised && Atomic.get ran = ntasks))

let prop_pool_nested_run_inline =
  QCheck.Test.make ~name:"nested run executes inline without deadlock"
    ~count:10
    (QCheck.make
       QCheck.Gen.(triple (int_range 2 8) (int_range 1 12) (int_range 1 12)))
    (fun (domains, outer, inner) ->
      with_pool domains (fun pool ->
          let total = Atomic.make 0 in
          Parallel.run pool
            (Array.init outer (fun _ () ->
                 Parallel.run pool
                   (Array.init inner (fun _ () -> Atomic.incr total))));
          Atomic.get total = outer * inner))

let prop_parallel_for_covers_range =
  QCheck.Test.make ~name:"parallel_for covers [lo,hi) exactly once" ~count:20
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 1 16) (int_range (-50) 50) (int_range 0 120)))
    (fun (domains, lo, len) ->
      let hi = lo + len in
      with_pool domains (fun pool ->
          let hits = Array.init len (fun _ -> Atomic.make 0) in
          Parallel.parallel_for pool ~lo ~hi (fun clo chi ->
              for i = clo to chi - 1 do
                Atomic.incr hits.(i - lo)
              done);
          Array.for_all (fun a -> Atomic.get a = 1) hits))

let prop_parallel_for_grain_covers_range =
  QCheck.Test.make
    ~name:"parallel_for with explicit grain covers [lo,hi) exactly once"
    ~count:30
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 1 8) (int_range (-50) 50) (int_range 0 120)
           (int_range 1 25)))
    (fun (domains, lo, len, grain) ->
      let hi = lo + len in
      with_pool domains (fun pool ->
          let hits = Array.init len (fun _ -> Atomic.make 0) in
          Parallel.parallel_for ~grain pool ~lo ~hi (fun clo chi ->
              for i = clo to chi - 1 do
                Atomic.incr hits.(i - lo)
              done);
          Array.for_all (fun a -> Atomic.get a = 1) hits))

let test_parallel_for_rejects_bad_grain () =
  with_pool 2 (fun pool ->
      Alcotest.(check bool) "grain 0 rejected" true
        (try
           Parallel.parallel_for ~grain:0 pool ~lo:0 ~hi:10 (fun _ _ -> ());
           false
         with Gc_errors.Error (Gc_errors.Invalid_input _) -> true))

(* Fast-fail: once a task has failed, grains not yet claimed are skipped
   rather than executed. The exact number of survivors depends on domain
   scheduling (a grain already in flight still completes), so the run is
   retried a few times and must demonstrate skipping at least once —
   without fast-fail all 63 surviving tasks would run on every attempt. *)
let test_fast_fail_skips_unclaimed () =
  with_pool 2 (fun pool ->
      let skipped_somewhere = ref false in
      for _attempt = 1 to 5 do
        if not !skipped_somewhere then begin
          let ran = Atomic.make 0 in
          let raised =
            try
              Parallel.run pool
                (Array.init 64 (fun i () ->
                     if i = 0 then failwith "ff-boom" else Atomic.incr ran));
              false
            with Gc_errors.Error (Gc_errors.Runtime_fault { task = Some 0; _ })
            -> true
          in
          Alcotest.(check bool) "exception re-raised after barrier" true raised;
          if Atomic.get ran < 63 then skipped_somewhere := true
        end
      done;
      Alcotest.(check bool) "some unclaimed grains were skipped" true
        !skipped_somewhere)

(* ------------------------------------------------------------------ *)
(* GC_NUM_THREADS parsing *)

let test_threads_of_env () =
  let check name exp s =
    Alcotest.(check (option int)) name exp (Parallel.threads_of_env s)
  in
  check "plain" (Some 8) "8";
  check "whitespace" (Some 4) " 4 \n";
  check "clamp low (0)" (Some 1) "0";
  check "clamp low (negative)" (Some 1) "-3";
  check "clamp high" (Some 128) "100000";
  check "garbage" None "lots";
  check "empty" None "";
  check "float" None "2.5"

(* ------------------------------------------------------------------ *)
(* Engine basics *)

let seq_pool = Parallel.create 1

(* out[i] = 2*i for i < n *)
let double_func n =
  let t = Ir.fresh_tensor ~name:"out" ~storage:Param Dtype.F32 [| n |] in
  let i = Ir.fresh_var ~name:"i" Index in
  let body =
    [
      Ir.For
        {
          v = i;
          lo = Ir.int 0;
          hi = Ir.int n;
          step = Ir.int 1;
          body = [ Ir.Store (t, [| Ir.v i |], Ir.(Binop (Mul, Int 2, v i))) ];
          parallel = false;
          merge_tag = None;
        };
    ]
  in
  ({ Ir.fname = "double"; params = [ Ptensor t ]; body }, t)

let test_engine_simple_loop () =
  let f, _ = double_func 10 in
  let m = { Ir.funcs = [ f ]; entry = "double"; init = None; globals = [] } in
  let engine = Engine.create ~pool:seq_pool m in
  let buf = Buffer.create Dtype.F32 10 in
  Engine.run_entry engine [| buf |];
  for i = 0 to 9 do
    Alcotest.(check (float 0.)) (Printf.sprintf "out[%d]" i) (float_of_int (2 * i)) (Buffer.get buf i)
  done

let test_engine_parallel_loop () =
  let n = 1000 in
  let t = Ir.fresh_tensor ~name:"out" ~storage:Param Dtype.F32 [| n |] in
  let i = Ir.fresh_var ~name:"i" Index in
  let f =
    {
      Ir.fname = "par";
      params = [ Ir.Ptensor t ];
      body =
        [
          Ir.For
            {
              v = i;
              lo = Ir.int 0;
              hi = Ir.int n;
              step = Ir.int 1;
              body = [ Ir.Store (t, [| Ir.v i |], Ir.(Binop (Add, v i, Int 1))) ];
              parallel = true;
              merge_tag = None;
            };
        ];
    }
  in
  let m = { Ir.funcs = [ f ]; entry = "par"; init = None; globals = [] } in
  let pool = Parallel.create 4 in
  let engine = Engine.create ~pool m in
  let buf = Buffer.create Dtype.F32 n in
  Engine.run_entry engine [| buf |];
  let ok = ref true in
  for i = 0 to n - 1 do
    if Buffer.get buf i <> float_of_int (i + 1) then ok := false
  done;
  Alcotest.(check bool) "parallel loop result" true !ok;
  Parallel.shutdown pool

let test_engine_nested_loops_and_vars () =
  (* out[i*m + j] = i*10 + j via an Assign'd scalar *)
  let n = 4 and m = 5 in
  let t = Ir.fresh_tensor ~name:"out" ~storage:Param Dtype.F32 [| n; m |] in
  let i = Ir.fresh_var ~name:"i" Index in
  let j = Ir.fresh_var ~name:"j" Index in
  let s = Ir.fresh_var ~name:"s" (Scalar Dtype.F32) in
  let body =
    [
      Ir.For
        {
          v = i;
          lo = Ir.int 0;
          hi = Ir.int n;
          step = Ir.int 1;
          parallel = false;
          merge_tag = None;
          body =
            [
              Ir.For
                {
                  v = j;
                  lo = Ir.int 0;
                  hi = Ir.int m;
                  step = Ir.int 1;
                  parallel = false;
                  merge_tag = None;
                  body =
                    [
                      Ir.Assign (s, Ir.(Binop (Add, Binop (Mul, v i, Int 10), v j)));
                      Ir.Store (t, [| Ir.v i; Ir.v j |], Ir.v s);
                    ];
                };
            ];
        };
    ]
  in
  let f = { Ir.fname = "nest"; params = [ Ir.Ptensor t ]; body } in
  let m_ = { Ir.funcs = [ f ]; entry = "nest"; init = None; globals = [] } in
  let engine = Engine.create ~pool:seq_pool m_ in
  let buf = Buffer.create Dtype.F32 (n * m) in
  Engine.run_entry engine [| buf |];
  Alcotest.(check (float 0.)) "corner" 34. (Buffer.get buf ((3 * m) + 4))

let test_engine_if_select_cast () =
  (* out[i] = i < 3 ? round_s8(i * 100) : -1 *)
  let t = Ir.fresh_tensor ~name:"out" ~storage:Param Dtype.F32 [| 6 |] in
  let i = Ir.fresh_var ~name:"i" Index in
  let body =
    [
      Ir.For
        {
          v = i;
          lo = Ir.int 0;
          hi = Ir.int 6;
          step = Ir.int 1;
          parallel = false;
          merge_tag = None;
          body =
            [
              Ir.If
                ( Ir.(Binop (Lt, v i, Int 3)),
                  [
                    Ir.Store
                      ( t,
                        [| Ir.v i |],
                        Ir.Cast (Dtype.S8, Ir.(Binop (Mul, v i, Int 100))) );
                  ],
                  [ Ir.Store (t, [| Ir.v i |], Ir.flt (-1.)) ] );
            ];
        };
    ]
  in
  let f = { Ir.fname = "isc"; params = [ Ir.Ptensor t ]; body } in
  let m = { Ir.funcs = [ f ]; entry = "isc"; init = None; globals = [] } in
  let engine = Engine.create ~pool:seq_pool m in
  let buf = Buffer.create Dtype.F32 6 in
  Engine.run_entry engine [| buf |];
  Alcotest.(check (float 0.)) "0" 0. (Buffer.get buf 0);
  Alcotest.(check (float 0.)) "100" 100. (Buffer.get buf 1);
  Alcotest.(check (float 0.)) "saturated" 127. (Buffer.get buf 2);
  Alcotest.(check (float 0.)) "else" (-1.) (Buffer.get buf 3)

let test_engine_alloc_and_intrinsics () =
  (* tmp = alloc; zero tmp; tmp[0..n) = src; copy to out via intrinsic *)
  let n = 8 in
  let src = Ir.fresh_tensor ~name:"src" ~storage:Param Dtype.F32 [| n |] in
  let out = Ir.fresh_tensor ~name:"out" ~storage:Param Dtype.F32 [| n |] in
  let tmp = Ir.fresh_tensor ~name:"tmp" ~storage:Local Dtype.F32 [| n |] in
  let zero = Array.make 1 (Ir.int 0) in
  let body =
    [
      Ir.Alloc tmp;
      Ir.Call ("zero", [ Ir.Addr (tmp, zero); Ir.int n ]);
      Ir.Call ("copy", [ Ir.Addr (tmp, zero); Ir.Addr (src, zero); Ir.int n ]);
      Ir.Call ("copy", [ Ir.Addr (out, zero); Ir.Addr (tmp, zero); Ir.int n ]);
    ]
  in
  let f = { Ir.fname = "cp"; params = [ Ir.Ptensor src; Ir.Ptensor out ]; body } in
  let m = { Ir.funcs = [ f ]; entry = "cp"; init = None; globals = [] } in
  let engine = Engine.create ~pool:seq_pool m in
  let sbuf = Buffer.create Dtype.F32 n and obuf = Buffer.create Dtype.F32 n in
  for i = 0 to n - 1 do Buffer.set sbuf i (float_of_int i +. 0.5) done;
  Engine.run_entry engine [| sbuf; obuf |];
  for i = 0 to n - 1 do
    Alcotest.(check (float 0.)) "copied" (float_of_int i +. 0.5) (Buffer.get obuf i)
  done

let test_engine_arena_serves_allocs () =
  (* the second run of an Alloc-ing function is served from the env's
     arena: hits counted, zero bytes allocated, and the zero-fill
     preserves Buffer.create semantics *)
  let n = 8 in
  let src = Ir.fresh_tensor ~name:"src" ~storage:Param Dtype.F32 [| n |] in
  let out = Ir.fresh_tensor ~name:"out" ~storage:Param Dtype.F32 [| n |] in
  let tmp = Ir.fresh_tensor ~name:"tmp" ~storage:Local Dtype.F32 [| n |] in
  let zero = Array.make 1 (Ir.int 0) in
  let body =
    [
      Ir.Alloc tmp;
      (* only half of tmp is written: the rest must read back as 0 even
         when the buffer is an arena reuse of a previous (dirty) run *)
      Ir.Call ("copy", [ Ir.Addr (tmp, zero); Ir.Addr (src, zero); Ir.int (n / 2) ]);
      Ir.Call ("copy", [ Ir.Addr (out, zero); Ir.Addr (tmp, zero); Ir.int n ]);
    ]
  in
  let f = { Ir.fname = "ar"; params = [ Ir.Ptensor src; Ir.Ptensor out ]; body } in
  let m = { Ir.funcs = [ f ]; entry = "ar"; init = None; globals = [] } in
  let engine = Engine.create ~pool:seq_pool m in
  let sbuf = Buffer.create Dtype.F32 n and obuf = Buffer.create Dtype.F32 n in
  for i = 0 to n - 1 do Buffer.set sbuf i 9. done;
  Engine.run_entry engine [| sbuf; obuf |];
  let (), s =
    Gc_observe.Counters.with_counters (fun () ->
        Engine.run_entry engine [| sbuf; obuf |])
  in
  Alcotest.(check bool) "arena hit" true (s.Gc_observe.Counters.arena_hits > 0);
  Alcotest.(check int) "no allocation" 0 s.bytes_allocated;
  Alcotest.(check (float 0.)) "written half" 9. (Buffer.get obuf 0);
  Alcotest.(check (float 0.)) "zeroed half" 0. (Buffer.get obuf (n - 1));
  (* the reference interpreter computes the same thing *)
  let obuf2 = Buffer.create Dtype.F32 n in
  Interp.run_entry (Interp.create m) [| sbuf; obuf2 |];
  for i = 0 to n - 1 do
    Alcotest.(check (float 0.)) "equivalent" (Buffer.get obuf i) (Buffer.get obuf2 i)
  done

let test_engine_pools_keep_envs () =
  (* every parallel grain and every call holds a pooled env; a pool grows
     past its initial size (workers + 1) when more holders hand envs back,
     so no env is ever dropped and warm runs create none. On the 1-worker
     pool, four domains calling in at once exceed the entry function's
     two initial slots; on the 12-worker pool, grains fill the loop's. *)
  let n = 20_000 in
  let out = Ir.fresh_tensor ~name:"out" ~storage:Param Dtype.F32 [| n |] in
  let tmp = Ir.fresh_tensor ~name:"tmp" ~storage:Local Dtype.F32 [| 4 |] in
  let i = Ir.fresh_var ~name:"i" Index in
  let body =
    [
      Ir.For
        {
          v = i;
          lo = Ir.int 0;
          hi = Ir.int n;
          step = Ir.int 1;
          body =
            [
              Ir.Alloc tmp;
              Ir.Store (tmp, [| Ir.int 0 |], Ir.(Binop (Add, v i, Int 1)));
              Ir.Call
                ( "copy",
                  [ Ir.Addr (out, [| Ir.v i |]); Ir.Addr (tmp, [| Ir.int 0 |]); Ir.int 1 ] );
            ];
          parallel = true;
          merge_tag = None;
        };
    ]
  in
  let f = { Ir.fname = "grains"; params = [ Ir.Ptensor out ]; body } in
  let m = { Ir.funcs = [ f ]; entry = "grains"; init = None; globals = [] } in
  let run_on workers =
    let pool = Parallel.create workers in
    Fun.protect
      ~finally:(fun () -> Parallel.shutdown pool)
      (fun () ->
        let engine = Engine.create ~pool m in
        let check buf =
          for k = 0 to n - 1 do
            if Buffer.get buf k <> float_of_int (k + 1) then
              Alcotest.failf "out[%d] = %g" k (Buffer.get buf k)
          done
        in
        let ready = Atomic.make 0 in
        let client () =
          let buf = Buffer.create Dtype.F32 n in
          Atomic.incr ready;
          while Atomic.get ready < 4 do Domain.cpu_relax () done;
          for _ = 1 to 10 do
            Engine.run_entry engine [| buf |]
          done;
          buf
        in
        List.init 4 (fun _ -> Domain.spawn client)
        |> List.map Domain.join |> List.iter check;
        Alcotest.(check int) "every env back in a pool" (Engine.envs_created engine)
          (Engine.pooled_envs engine);
        (* a warm run (one that found every env it needed pooled) allocates
           nothing: each pooled env kept its arena *)
        let buf = Buffer.create Dtype.F32 n in
        let rec warm k =
          let before = Engine.envs_created engine in
          let (), s =
            Gc_observe.Counters.with_counters (fun () ->
              Engine.run_entry engine [| buf |])
          in
          if Engine.envs_created engine = before then
            Alcotest.(check int) "warm run allocates nothing" 0 s.bytes_allocated
          else if k = 0 then Alcotest.fail "every run created envs"
          else warm (k - 1)
        in
        warm 50;
        check buf;
        Alcotest.(check int) "still every env pooled" (Engine.envs_created engine)
          (Engine.pooled_envs engine))
  in
  List.iter run_on [ 1; 12 ]

let test_engine_brgemm_intrinsic () =
  (* single brgemm call: C[2,2] += A[2,3] . B[2,3]^T *)
  let a = Ir.fresh_tensor ~name:"A" ~storage:Param Dtype.F32 [| 2; 3 |] in
  let b = Ir.fresh_tensor ~name:"B" ~storage:Param Dtype.F32 [| 2; 3 |] in
  let c = Ir.fresh_tensor ~name:"C" ~storage:Param Dtype.F32 [| 2; 2 |] in
  let z2 = [| Ir.int 0; Ir.int 0 |] in
  let body =
    [
      Ir.Call
        ( "brgemm",
          [
            Ir.int 1; Ir.int 2; Ir.int 2; Ir.int 3;
            Ir.Addr (a, z2); Ir.int 0;
            Ir.Addr (b, z2); Ir.int 0;
            Ir.Addr (c, z2);
          ] );
    ]
  in
  let f = { Ir.fname = "mm"; params = [ Ir.Ptensor a; Ir.Ptensor b; Ir.Ptensor c ]; body } in
  let m = { Ir.funcs = [ f ]; entry = "mm"; init = None; globals = [] } in
  let engine = Engine.create ~pool:seq_pool m in
  let ab = Buffer.create Dtype.F32 6 and bb = Buffer.create Dtype.F32 6 in
  let cb = Buffer.create Dtype.F32 4 in
  List.iteri (fun i v -> Buffer.set ab i v) [ 1.; 2.; 3.; 4.; 5.; 6. ];
  List.iteri (fun i v -> Buffer.set bb i v) [ 1.; 0.; 1.; 0.; 1.; 0. ];
  Engine.run_entry engine [| ab; bb; cb |];
  (* row0 . brow0 = 1+3 = 4; row0 . brow1 = 2 *)
  Alcotest.(check (float 0.)) "c00" 4. (Buffer.get cb 0);
  Alcotest.(check (float 0.)) "c01" 2. (Buffer.get cb 1);
  Alcotest.(check (float 0.)) "c10" 10. (Buffer.get cb 2);
  Alcotest.(check (float 0.)) "c11" 5. (Buffer.get cb 3)

let test_engine_function_call_and_globals () =
  (* init writes global; entry calls helper which adds global to input *)
  let n = 4 in
  let g = Ir.fresh_tensor ~name:"gconst" ~storage:Global Dtype.F32 [| n |] in
  let x = Ir.fresh_tensor ~name:"x" ~storage:Param Dtype.F32 [| n |] in
  let y = Ir.fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| n |] in
  let i = Ir.fresh_var ~name:"i" Index in
  let init_f =
    {
      Ir.fname = "init";
      params = [];
      body =
        [
          Ir.For
            {
              v = i; lo = Ir.int 0; hi = Ir.int n; step = Ir.int 1;
              parallel = false; merge_tag = None;
              body = [ Ir.Store (g, [| Ir.v i |], Ir.(Binop (Mul, v i, Int 10))) ];
            };
        ];
    }
  in
  let xh = Ir.fresh_tensor ~name:"xh" ~storage:Param Dtype.F32 [| n |] in
  let yh = Ir.fresh_tensor ~name:"yh" ~storage:Param Dtype.F32 [| n |] in
  let j = Ir.fresh_var ~name:"j" Index in
  let helper =
    {
      Ir.fname = "helper";
      params = [ Ir.Ptensor xh; Ir.Ptensor yh ];
      body =
        [
          Ir.For
            {
              v = j; lo = Ir.int 0; hi = Ir.int n; step = Ir.int 1;
              parallel = false; merge_tag = None;
              body =
                [
                  Ir.Store
                    ( yh,
                      [| Ir.v j |],
                      Ir.(Binop (Add, Load (xh, [| v j |]), Load (g, [| v j |]))) );
                ];
            };
        ];
    }
  in
  let z1 = [| Ir.int 0 |] in
  let entry =
    {
      Ir.fname = "entry";
      params = [ Ir.Ptensor x; Ir.Ptensor y ];
      body = [ Ir.Call ("helper", [ Ir.Addr (x, z1); Ir.Addr (y, z1) ]) ];
    }
  in
  let m =
    { Ir.funcs = [ init_f; helper; entry ]; entry = "entry"; init = Some "init"; globals = [ g ] }
  in
  let engine = Engine.create ~pool:seq_pool m in
  Engine.run_init engine [||];
  let xb = Buffer.create Dtype.F32 n and yb = Buffer.create Dtype.F32 n in
  for k = 0 to n - 1 do Buffer.set xb k 1. done;
  Engine.run_entry engine [| xb; yb |];
  for k = 0 to n - 1 do
    Alcotest.(check (float 0.)) "y" (1. +. float_of_int (10 * k)) (Buffer.get yb k)
  done

let test_engine_rejects_malformed () =
  (* use of an unbound variable is rejected at compile *)
  let t = Ir.fresh_tensor ~name:"t" ~storage:Param Dtype.F32 [| 2 |] in
  let bogus = Ir.fresh_var ~name:"ghost" Index in
  let f =
    { Ir.fname = "bad"; params = [ Ir.Ptensor t ];
      body = [ Ir.Store (t, [| Ir.v bogus |], Ir.flt 0.) ] }
  in
  let m = { Ir.funcs = [ f ]; entry = "bad"; init = None; globals = [] } in
  Alcotest.(check bool) "rejected" true
    (try ignore (Engine.create ~pool:seq_pool m); false
     with Gc_errors.Error (Gc_errors.Compile_error { stage = "engine"; _ }) ->
       true)

let test_engine_param_size_checked () =
  let f, _ = double_func 10 in
  let m = { Ir.funcs = [ f ]; entry = "double"; init = None; globals = [] } in
  let engine = Engine.create ~pool:seq_pool m in
  let small = Buffer.create Dtype.F32 3 in
  Alcotest.(check bool) "too small" true
    (try Engine.run_entry engine [| small |]; false
     with
     | Gc_errors.Error (Gc_errors.Invalid_input { ctx; _ }) ->
         List.assoc_opt "actual" ctx = Some "3"
         && List.assoc_opt "requested" ctx = Some "10")

(* ------------------------------------------------------------------ *)
(* Engine vs interpreter differential test *)

let random_eltwise_module n =
  (* out[i] = tanh(x[i]) * 2 + exp(min(x[i], 1)) computed with a mix of
     constructs exercising most expr nodes *)
  let x = Ir.fresh_tensor ~name:"x" ~storage:Param Dtype.F32 [| n |] in
  let out = Ir.fresh_tensor ~name:"out" ~storage:Param Dtype.F32 [| n |] in
  let i = Ir.fresh_var ~name:"i" Index in
  let s = Ir.fresh_var ~name:"s" (Scalar Dtype.F32) in
  let body =
    [
      Ir.For
        {
          v = i; lo = Ir.int 0; hi = Ir.int n; step = Ir.int 1;
          parallel = false; merge_tag = None;
          body =
            [
              Ir.Assign (s, Ir.Unop (Tanh, Ir.Load (x, [| Ir.v i |])));
              Ir.Store
                ( out,
                  [| Ir.v i |],
                  Ir.(
                    Binop
                      ( Add,
                        Binop (Mul, v s, Float 2.),
                        Unop (Exp, Binop (Min, Load (x, [| v i |]), Float 1.)) )) );
            ];
        };
    ]
  in
  let f = { Ir.fname = "mix"; params = [ Ir.Ptensor x; Ir.Ptensor out ]; body } in
  { Ir.funcs = [ f ]; entry = "mix"; init = None; globals = [] }

let test_engine_matches_interp () =
  let n = 64 in
  let m = random_eltwise_module n in
  let engine = Engine.create ~pool:seq_pool m in
  let interp = Interp.create m in
  let x = Buffer.create Dtype.F32 n in
  for i = 0 to n - 1 do
    Buffer.set x i (sin (float_of_int i))
  done;
  let o1 = Buffer.create Dtype.F32 n and o2 = Buffer.create Dtype.F32 n in
  Engine.run_entry engine [| x; o1 |];
  Interp.run_entry interp [| x; o2 |];
  for i = 0 to n - 1 do
    Alcotest.(check (float 1e-6)) "same" (Buffer.get o2 i) (Buffer.get o1 i)
  done

let () =
  Alcotest.run "gc_runtime"
    [
      ( "parallel",
        [
          Alcotest.test_case "runs all tasks" `Quick test_pool_runs_all_tasks;
          Alcotest.test_case "for covers range" `Quick test_pool_parallel_for_covers_range;
          Alcotest.test_case "sequential pool" `Quick test_pool_sequential;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "empty range" `Quick test_pool_empty_range;
          QCheck_alcotest.to_alcotest prop_pool_all_tasks_run_once;
          QCheck_alcotest.to_alcotest prop_pool_exception_propagates;
          QCheck_alcotest.to_alcotest prop_pool_nested_run_inline;
          QCheck_alcotest.to_alcotest prop_parallel_for_covers_range;
          QCheck_alcotest.to_alcotest prop_parallel_for_grain_covers_range;
          Alcotest.test_case "rejects grain < 1" `Quick
            test_parallel_for_rejects_bad_grain;
          Alcotest.test_case "fast-fail skips unclaimed grains" `Quick
            test_fast_fail_skips_unclaimed;
          Alcotest.test_case "GC_NUM_THREADS parsing" `Quick test_threads_of_env;
        ] );
      ( "engine",
        [
          Alcotest.test_case "simple loop" `Quick test_engine_simple_loop;
          Alcotest.test_case "parallel loop" `Quick test_engine_parallel_loop;
          Alcotest.test_case "nested loops/vars" `Quick test_engine_nested_loops_and_vars;
          Alcotest.test_case "if/select/cast" `Quick test_engine_if_select_cast;
          Alcotest.test_case "alloc+intrinsics" `Quick test_engine_alloc_and_intrinsics;
          Alcotest.test_case "arena serves allocs" `Quick test_engine_arena_serves_allocs;
          Alcotest.test_case "pools keep every env" `Quick test_engine_pools_keep_envs;
          Alcotest.test_case "brgemm intrinsic" `Quick test_engine_brgemm_intrinsic;
          Alcotest.test_case "function call + globals" `Quick test_engine_function_call_and_globals;
          Alcotest.test_case "rejects malformed" `Quick test_engine_rejects_malformed;
          Alcotest.test_case "param size checked" `Quick test_engine_param_size_checked;
          Alcotest.test_case "matches interpreter" `Quick test_engine_matches_interp;
        ] );
    ]
