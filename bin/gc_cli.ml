(* gc_cli: command-line driver for the oneDNN Graph Compiler reproduction.

     gc_cli run  mha1 --batch 4 --dtype f32        compile + execute + verify
     gc_cli run  mlp1 --trace out.json             ... emitting a JSON profile
     gc_cli dump mlp1 --stage fused                print an IR stage
     gc_cli sim  mlp1 --batch 128 --dtype int8     simulate the three settings
     gc_cli matmul -m 512 -n 1024 -k 479           single-op compiler vs primitive
     gc_cli validate-trace out.json                parse + summarize a trace *)

open Cmdliner
open Core

let machine = Machine.xeon_8358

(* ------------------------------------------------------------------ *)
(* shared arguments *)

type workload = Mlp1 | Mlp2 | Mha1 | Mha2 | Mha3 | Mha4

let workload_conv =
  let parse = function
    | "mlp1" -> Ok Mlp1
    | "mlp2" -> Ok Mlp2
    | "mha1" -> Ok Mha1
    | "mha2" -> Ok Mha2
    | "mha3" -> Ok Mha3
    | "mha4" -> Ok Mha4
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S (mlp1|mlp2|mha1..mha4)" s))
  in
  let print fmt w =
    Format.pp_print_string fmt
      (match w with
      | Mlp1 -> "mlp1" | Mlp2 -> "mlp2" | Mha1 -> "mha1"
      | Mha2 -> "mha2" | Mha3 -> "mha3" | Mha4 -> "mha4")
  in
  Arg.conv (parse, print)

let workload_arg =
  Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")

let batch_arg =
  Arg.(value & opt int 32 & info [ "b"; "batch" ] ~docv:"N" ~doc:"Batch size.")

let dtype_arg =
  let dc = Arg.enum [ ("f32", `F32); ("int8", `Int8) ] in
  Arg.(value & opt dc `F32 & info [ "dtype" ] ~doc:"Data type (f32 or int8).")

let setting_arg =
  let sc =
    Arg.enum
      [ ("full", `Full); ("no-coarse", `No_coarse); ("baseline", `Baseline) ]
  in
  Arg.(value & opt sc `Full & info [ "setting" ]
         ~doc:"Optimization setting: full, no-coarse, or baseline (oneDNN primitives).")

let build workload batch dtype =
  let mlp (spec : Gc_workloads.Table1.mlp_spec) =
    match dtype with
    | `F32 -> Gc_workloads.Mlp.build_f32 ~batch ~hidden:spec.hidden ()
    | `Int8 -> Gc_workloads.Mlp.build_int8 ~batch ~hidden:spec.hidden ()
  in
  let mha (spec : Gc_workloads.Table1.mha_spec) =
    let f =
      match dtype with
      | `F32 -> Gc_workloads.Mha.build_f32
      | `Int8 -> Gc_workloads.Mha.build_int8
    in
    let b =
      f ~batch ~seq:spec.seq_len ~hidden:spec.hidden_size ~heads:spec.heads ()
    in
    { Gc_workloads.Mlp.graph = b.Gc_workloads.Mha.graph; data = b.data }
  in
  match workload with
  | Mlp1 -> mlp Gc_workloads.Table1.mlp_1
  | Mlp2 -> mlp Gc_workloads.Table1.mlp_2
  | Mha1 -> mha Gc_workloads.Table1.mha_1
  | Mha2 -> mha Gc_workloads.Table1.mha_2
  | Mha3 -> mha Gc_workloads.Table1.mha_3
  | Mha4 -> mha Gc_workloads.Table1.mha_4

let graph_config setting =
  match setting with
  | `Full -> Pipeline.default ~machine ()
  | `No_coarse -> { (Pipeline.default ~machine ()) with coarse_fusion = false }
  | `Baseline -> Pipeline.onednn_primitives ~machine ()

let config setting = { (default_config ~machine ()) with graph = graph_config setting }

(* ------------------------------------------------------------------ *)
(* tracing *)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a JSON profile (per-pass timings, IR statistics, \
                 runtime counters, perfsim estimates) to $(docv).")

let workload_name = function
  | Mlp1 -> "mlp1" | Mlp2 -> "mlp2" | Mha1 -> "mha1"
  | Mha2 -> "mha2" | Mha3 -> "mha3" | Mha4 -> "mha4"

let setting_name = function
  | `Full -> "full" | `No_coarse -> "no-coarse" | `Baseline -> "baseline"

let new_trace workload batch dtype =
  let t = Observe.Trace.create () in
  Observe.Trace.set_meta t "workload" (Observe.Json.String (workload_name workload));
  Observe.Trace.set_meta t "batch" (Observe.Json.Int batch);
  Observe.Trace.set_meta t "dtype"
    (Observe.Json.String (match dtype with `F32 -> "f32" | `Int8 -> "int8"));
  Observe.Trace.set_meta t "machine" (Observe.Json.String machine.Machine.name);
  t

let finish_trace trace file =
  Format.printf "@.%a" Observe.Trace.pp_report trace;
  match Observe.Trace.write_file trace file with
  | () -> Format.printf "trace written to %s@." file
  | exception Sys_error msg ->
      Format.eprintf "error: cannot write trace: %s@." msg;
      exit 1

(* ------------------------------------------------------------------ *)
(* run *)

let cmd_run =
  let run workload batch dtype setting trace_file =
    let built = build workload batch dtype in
    let trace =
      Option.map
        (fun _ ->
          let t = new_trace workload batch dtype in
          Observe.Trace.set_meta t "setting"
            (Observe.Json.String (setting_name setting));
          t)
        trace_file
    in
    Format.printf "compiling (%d ops)...@." (Graph.op_count built.graph);
    let compiled = compile ~config:(config setting) ?trace built.graph in
    Format.printf "executing...@.";
    if trace <> None then begin
      Observe.Counters.reset ();
      Observe.Counters.enable ()
    end;
    let w0 = Unix.gettimeofday () in
    let t0 = Sys.time () in
    let out = execute compiled built.data in
    let t1 = Sys.time () in
    let w1 = Unix.gettimeofday () in
    (match trace with
    | None -> ()
    | Some tr ->
        Observe.Counters.disable ();
        Observe.Trace.add_section tr "counters"
          (Observe.Counters.snapshot_to_json (Observe.Counters.snapshot ()));
        (* a second, warm execution (init/prepack cached) for wallclock *)
        let s0 = Unix.gettimeofday () in
        ignore (execute compiled built.data);
        let s1 = Unix.gettimeofday () in
        Observe.Trace.add_section tr "wallclock"
          (Observe.Json.Obj
             [
               ("first_run_ms", Observe.Json.Float ((w1 -. w0) *. 1000.));
               ("steady_run_ms", Observe.Json.Float ((s1 -. s0) *. 1000.));
             ]);
        Observe.Trace.add_section tr "perfsim"
          (Gc_perfsim.Sim.json_of_report
             (Gc_perfsim.Sim.cost_module ~machine
                ~api_per_call:(setting = `Baseline)
                (tir_module compiled))));
    Format.printf "verifying against the reference evaluator...@.";
    let expect = reference built.graph built.data in
    let diff = Tensor.max_abs_diff (List.hd out) (List.hd expect) in
    Format.printf "output %a in %.1f ms (cpu), max |diff| vs reference = %g@."
      Shape.pp (Tensor.shape (List.hd out))
      ((t1 -. t0) *. 1000.) diff;
    (match (trace, trace_file) with
    | Some tr, Some file -> finish_trace tr file
    | _ -> ());
    if diff > 1. then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile, execute and verify a Table 1 workload.")
    Term.(const run $ workload_arg $ batch_arg $ dtype_arg $ setting_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* dump *)

let cmd_dump =
  let stage_arg =
    let sc =
      Arg.enum
        [ ("graph", `G); ("fused", `F); ("tir", `T); ("init", `I); ("dot", `D) ]
    in
    Arg.(value & opt sc `F & info [ "stage" ]
           ~doc:"IR stage to print: graph, fused, tir, init, or dot (graphviz).")
  in
  let run workload batch dtype setting stage =
    let built = build workload batch dtype in
    match stage with
    | `G -> Format.printf "%s@." (Graph.to_string built.graph)
    | `D -> print_string (Graph.to_dot built.graph)
    | `F ->
        let compiled = compile ~config:(config setting) built.graph in
        Format.printf "%a@." Fused_op.pp_graph (fused_graph compiled)
    | `T ->
        let compiled = compile ~config:(config setting) built.graph in
        Format.printf "%s@." (Printer.module_to_string (tir_module compiled))
    | `I -> (
        let compiled = compile ~config:(config setting) built.graph in
        match (fused_graph compiled).init with
        | Some init -> Format.printf "%s@." (Graph.to_string init)
        | None -> Format.printf "(no init graph)@.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print an IR stage of a compiled workload.")
    Term.(const run $ workload_arg $ batch_arg $ dtype_arg $ setting_arg $ stage_arg)

(* ------------------------------------------------------------------ *)
(* sim *)

let cmd_sim =
  let run workload batch dtype trace_file =
    let built = build workload batch dtype in
    let trace = Option.map (fun _ -> new_trace workload batch dtype) trace_file in
    Format.printf "%-12s %12s %s@." "setting" "cycles" "breakdown";
    let results =
      List.map
        (fun (name, setting, api) ->
          (* trace the pass pipeline of the "full" setting only: one set of
             pass events per trace keeps the schema flat *)
          let trace = if setting = `Full then trace else None in
          let compiled = compile ~config:(config setting) ?trace built.graph in
          let r =
            Gc_perfsim.Sim.cost_module ~machine ~api_per_call:api
              (tir_module compiled)
          in
          Format.printf "%-12s %12.3e %a@." name r.cycles Gc_perfsim.Sim.pp_report r;
          (name, r))
        [ ("baseline", `Baseline, true); ("no-coarse", `No_coarse, false);
          ("full", `Full, false) ]
    in
    let get k = (List.assoc k results).Gc_perfsim.Sim.cycles in
    Format.printf "@.speedup over primitives: full %.2fx, without coarse-grain %.2fx@."
      (get "baseline" /. get "full")
      (get "baseline" /. get "no-coarse");
    match (trace, trace_file) with
    | Some tr, Some file ->
        Observe.Trace.add_section tr "perfsim"
          (Observe.Json.Obj
             (List.map
                (fun (name, r) -> (name, Gc_perfsim.Sim.json_of_report r))
                results));
        finish_trace tr file
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Simulate the three evaluation settings on the modelled Xeon 8358.")
    Term.(const run $ workload_arg $ batch_arg $ dtype_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* matmul *)

let cmd_matmul =
  let int_arg name doc = Arg.(required & opt (some int) None & info [ name ] ~doc) in
  let run m n k dtype =
    let dt = match dtype with `F32 -> `F32 | `Int8 -> `Int8 in
    let built = Gc_workloads.Mlp.build_single_matmul ~dtype:dt ~m ~n ~k () in
    let compiled = compile ~config:(config `Full) built.graph in
    let dtm : Dtype.t = match dtype with `F32 -> F32 | `Int8 -> U8 in
    let gc, prim = Gc_baseline.Baseline.figure7_costs ~machine ~dtype:dtm ~m ~n ~k () in
    let p = Heuristic.choose ~machine ~dtype:dtm ~m ~n ~k () in
    Format.printf "heuristic: %s@." (Params.to_string p);
    Format.printf "compiler (simulated): %.3e cycles@." gc;
    Format.printf "primitive (simulated): %.3e cycles (ratio %.2fx)@." prim (prim /. gc);
    (* verify numerics too; int8 outputs may flip by one quantization step *)
    let out = execute compiled built.data in
    let expect = reference built.graph built.data in
    Format.printf "max |diff| vs reference: %g%s@."
      (Tensor.max_abs_diff (List.hd out) (List.hd expect))
      (match dtype with `Int8 -> " (quantization steps)" | `F32 -> "")
  in
  Cmd.v
    (Cmd.info "matmul" ~doc:"Individual matmul: compiler vs primitive (Figure 7 probe).")
    Term.(const run $ int_arg "m" "Rows." $ int_arg "n" "Columns." $ int_arg "k" "Reduction." $ dtype_arg)

(* ------------------------------------------------------------------ *)
(* health *)

let cmd_health =
  let demo_arg =
    Arg.(value & flag
         & info [ "demo" ]
             ~doc:"Exercise a tiny two-model registry (load, serve, hot-swap, \
                   park) before snapshotting, so every section is populated.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON to $(docv) instead of stdout.")
  in
  let health_json ~models () =
    let c = Compile_cache.stats () in
    let open Observe.Json in
    Obj
      [
        ("schema", String "gc-health/1");
        ("health", Gc_supervise.health_to_json (Gc_supervise.health ()));
        ( "counters",
          Observe.Counters.snapshot_to_json (Observe.Counters.snapshot ()) );
        ("labels", Observe.Labels.to_json ());
        ( "cache",
          Obj
            [
              ("hits", Int c.hits);
              ("misses", Int c.misses);
              ("entries", Int c.entries);
              ("evictions", Int c.evictions);
              ("resident_bytes", Int c.resident_bytes);
              ("pinned", Int c.pinned);
              ( "max_bytes",
                match Compile_cache.max_bytes () with
                | Some b -> Int b
                | None -> Null );
            ] );
        ( "memgov",
          Obj
            [
              ( "budget_bytes",
                match Gc_tensor.Memgov.limit () with
                | Some b -> Int b
                | None -> Null );
              ("used_bytes", Int (Gc_tensor.Memgov.used ()));
              ("peak_bytes", Int (Gc_tensor.Memgov.peak ()));
              ("rejections", Int (Gc_tensor.Memgov.rejections ()));
              ("fill_fraction", Float (Gc_tensor.Memgov.fill_fraction ()));
            ] );
        ( "events",
          Obj
            [
              ("recorded", Int (Observe.Events.recorded ()));
              ( "dump_path",
                match Observe.Events.dump_path () with
                | Some p -> String p
                | None -> Null );
            ] );
        ("models", models);
      ]
  in
  let run demo out =
    let models =
      if not demo then Observe.Json.Null
      else begin
        (* a small two-tenant registry: load, serve, weights-swap, park —
           enough traffic that every counter family is non-zero *)
        let reg = Gc_registry.create () in
        let a = Gc_workloads.Mlp.build_f32 ~batch:4 ~hidden:[ 16; 8 ] () in
        let b =
          Gc_workloads.Mlp.build_f32 ~seed:7 ~batch:4 ~hidden:[ 8; 4 ] ()
        in
        let ok_or_die name = function
          | Ok () -> ()
          | Error e ->
              Format.eprintf "demo: %s: %s@." name (Errors.to_string e);
              exit 1
        in
        ok_or_die "load alpha" (Gc_registry.load reg ~name:"alpha" a.graph);
        ok_or_die "load beta"
          (Gc_registry.load ~weight:2. reg ~name:"beta" b.graph);
        for _ = 1 to 3 do
          ignore (Gc_registry.call reg "alpha" a.data);
          ignore (Gc_registry.call reg "beta" b.data)
        done;
        ok_or_die "hot_swap alpha"
          (Gc_registry.hot_swap reg ~name:"alpha" a.graph);
        ignore (Gc_registry.park reg "beta");
        let j = Gc_registry.to_json reg in
        Gc_registry.shutdown reg;
        j
      end
    in
    let s = Observe.Json.to_string (health_json ~models ()) in
    match out with
    | None -> print_endline s
    | Some file ->
        let oc = open_out file in
        output_string oc s;
        output_char oc '\n';
        close_out oc;
        Format.printf "health written to %s@." file
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Print the process health snapshot as gc-health/1 JSON: \
             supervision components, observability counters, per-model \
             label families, compile-cache residency, memory-budget \
             ledger and the event-ring cursor.")
    Term.(const run $ demo_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* validate-trace *)

let cmd_validate_trace =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let fail msg =
    Format.eprintf "invalid trace: %s@." msg;
    exit 1
  in
  let check_counters j =
    match Observe.Counters.check_document j with
    | Ok () -> ()
    | Error e -> fail e
  in
  let run file =
    let ic = open_in file in
    (* read to EOF rather than by length, so a pipe works:
       [gc_cli health --demo | gc_cli validate-trace /dev/stdin] *)
    let s = In_channel.input_all ic in
    close_in ic;
    match Observe.Json.of_string s with
    | Error e -> fail e
    | Ok j when Observe.Json.member "schema" j
                = Some (Observe.Json.String "gc-health/1") ->
        (* the health snapshot schema (gc_cli health) *)
        let obj k =
          match Observe.Json.member k j with
          | Some (Observe.Json.Obj _) -> ()
          | _ -> fail (Printf.sprintf "health without object %S" k)
        in
        List.iter obj [ "health"; "counters"; "labels"; "cache"; "memgov"; "events" ];
        check_counters j;
        let level =
          match Observe.Json.member "health" j with
          | Some h -> (
              match Observe.Json.member "level" h with
              | Some (Observe.Json.String s) -> s
              | _ -> fail "health.level missing")
          | None -> assert false
        in
        let models =
          match Observe.Json.member "models" j with
          | Some (Observe.Json.Obj kvs) -> List.length kvs
          | _ -> 0
        in
        Format.printf "valid gc-health/1: level %s, %d model(s)@." level models
    | Ok j -> (
        (match Observe.Json.member "schema" j with
        | Some (Observe.Json.String "gc-trace/1") -> ()
        | _ ->
            fail
              "missing or unknown \"schema\" (want \"gc-trace/1\" or \
               \"gc-health/1\")");
        check_counters j;
        let bench_sections =
          match j with
          | Observe.Json.Obj kvs ->
              List.length
                (List.filter
                   (fun (k, _) -> String.length k > 6 && String.sub k 0 6 = "bench:")
                   kvs)
          | _ -> 0
        in
        match Observe.Json.member "passes" j with
        | Some (Observe.Json.List passes) ->
            if passes = [] && bench_sections = 0 then
              fail "empty \"passes\" array and no bench sections";
            let total = ref 0. in
            List.iter
              (fun p ->
                let str k =
                  match Observe.Json.member k p with
                  | Some (Observe.Json.String s) -> s
                  | _ -> fail (Printf.sprintf "pass without string %S" k)
                in
                let num k =
                  match Observe.Json.member k p with
                  | Some (Observe.Json.Float f) -> f
                  | Some (Observe.Json.Int i) -> float_of_int i
                  | _ -> fail (Printf.sprintf "pass without number %S" k)
                in
                let obj k =
                  match Observe.Json.member k p with
                  | Some (Observe.Json.Obj _) -> ()
                  | _ -> fail (Printf.sprintf "pass without object %S" k)
                in
                ignore (str "stage");
                ignore (str "name");
                total := !total +. num "elapsed_ms";
                obj "before";
                obj "after")
              passes;
            Format.printf "valid gc-trace/1: %d passes, %.3f ms total%s%s%s@."
              (List.length passes) !total
              (match Observe.Json.member "counters" j with
              | Some _ -> ", counters present"
              | None -> "")
              (match Observe.Json.member "perfsim" j with
              | Some _ -> ", perfsim present"
              | None -> "")
              (if bench_sections > 0 then
                 Printf.sprintf ", %d bench sections" bench_sections
               else "")
        | _ -> fail "missing \"passes\" array")
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:"Parse a trace JSON emitted by --trace and check its schema.")
    Term.(const run $ file_arg)

let () =
  let doc = "oneDNN Graph Compiler reproduction driver" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "gc_cli" ~doc)
          [ cmd_run; cmd_dump; cmd_sim; cmd_matmul; cmd_health;
            cmd_validate_trace ]))
