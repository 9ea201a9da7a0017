(* The benchmark program:

     gcbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S measured seconds on inputs generated from the
   seed, checks every output against the reference interpreter, prints a
   human-readable summary and, as its last line, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   A traced run also writes its spans as Chrome trace-event JSON. Exits 1
   when any op failed. *)

module M = Measure
module W = Workloads

let usage = "gcbench --workload NAME --seed N --seconds S --trace 0|1"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("gcbench: " ^ s); exit 2) fmt

(* Every GC_* variable changes the measured program (fault injection,
   tuning, pool size, serve knobs, ...). *)
let check_environment () =
  match
    List.filter
      (fun kv -> String.length kv > 3 && String.sub kv 0 3 = "GC_")
      (Array.to_list (Unix.environment ()))
  with
  | [] -> ()
  | set -> die "refusing to measure with %s set" (String.concat ", " set)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit_) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
           unit_)
       ms)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst W.all));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> die "unexpected argument %s" a)
    usage;
  let run =
    match List.assoc_opt !workload W.all with
    | Some f -> f
    | None -> die "unknown workload %S\n%s" !workload usage
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then die "%s" usage;
  check_environment ();
  let nproc = Domain.recommended_domain_count () in
  (* one pool domain (the caller itself); serve_mlp adds one worker *)
  let pool = Gc_runtime.Parallel.create 1 in
  let ctx =
    { W.seed = !seed; seconds = !seconds; traced = !trace = 1; pool; tr = M.tracer () }
  in
  let spin0 = M.spin_ms () in
  let r = run ctx in
  let spin1 = M.spin_ms () in
  let meta =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("nproc", string_of_int nproc);
      ("pool", string_of_int (Gc_runtime.Parallel.size pool));
      ("ocaml", Sys.ocaml_version);
      ("host.spin_ms", Printf.sprintf "%.2f at start, %.2f at end" spin0 spin1);
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) meta;
  List.iter (fun n -> Printf.printf "# %s\n" n) r.notes;
  List.iter (fun (k, v, u) -> Printf.printf "# %-40s %14.4f %s\n" k v u) r.e2e;
  let metrics =
    if ctx.traced then begin
      let file = Printf.sprintf ".bench_build/traces/%s-seed%d.json" !workload !seed in
      M.write_chrome_trace ctx.tr file
        ~meta:(List.map (fun (k, v) -> (k, Core.Observe.Json.String v)) meta);
      Printf.printf "# trace: %s (%d spans)\n" file (List.length ctx.tr.spans);
      let layers = r.layers @ [ ("host.spin_ms", (spin0 +. spin1) /. 2., "ms") ] in
      List.iter (fun (k, v, u) -> Printf.printf "# %-40s %14.4f %s\n" k v u) layers;
      layers
    end
    else r.e2e
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed (json_metrics metrics);
  exit (if r.failed = 0 then 0 else 1)
