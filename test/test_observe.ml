(* Tests for the observability layer: the JSON encoder/parser (round-trip
   property), the global runtime counters, IR statistics, and trace
   collection / export. *)

open Gc_observe

(* ------------------------------------------------------------------ *)
(* JSON *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> x = y
  | Json.String x, Json.String y -> String.equal x y
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
           xs ys
  | _ -> false

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
        map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 4)
                   (pair key (self (depth - 1)))) );
          ])
    3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"to_string |> of_string round-trips" ~count:200
    (QCheck.make json_gen) (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> json_equal j j'
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let prop_json_roundtrip_indented =
  QCheck.Test.make ~name:"indented output round-trips too" ~count:100
    (QCheck.make json_gen) (fun j ->
      match Json.of_string (Json.to_string ~indent:2 j) with
      | Ok j' -> json_equal j j'
      | Error _ -> false)

let test_json_escapes () =
  let j = Json.String "a\"b\\c\nd\te\r\x01" in
  match Json.of_string (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "escaped string survives" true (json_equal j j')
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_nonfinite () =
  (* non-finite floats are not representable in JSON; they serialize null *)
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "inf" "null" (Json.to_string (Json.Float infinity))

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_member () =
  let j = Json.Obj [ ("a", Json.Int 1); ("b", Json.String "x") ] in
  (match Json.member "a" j with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "member a");
  Alcotest.(check bool) "missing member" true (Json.member "z" j = None)

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counters_disabled_are_noops () =
  Counters.disable ();
  Counters.reset ();
  Counters.(incr kernel_invocations);
  Counters.(incr parallel_sections);
  Counters.(incr barriers);
  Counters.(add task_launches 7);
  Counters.(add bytes_allocated 1024);
  let s = Counters.snapshot () in
  Alcotest.(check int) "kernels" 0 s.Counters.kernel_invocations;
  Alcotest.(check int) "sections" 0 s.Counters.parallel_sections;
  Alcotest.(check int) "bytes" 0 s.Counters.bytes_allocated

let test_counters_enabled_count () =
  let (), s =
    Counters.with_counters (fun () ->
        Counters.(incr kernel_invocations);
        Counters.(incr kernel_invocations);
        Counters.(incr parallel_sections);
        Counters.(incr barriers);
        Counters.(add task_launches 5);
        Counters.(add bytes_allocated 100);
        Counters.(add bytes_allocated 28))
  in
  Alcotest.(check int) "kernels" 2 s.Counters.kernel_invocations;
  Alcotest.(check int) "sections" 1 s.Counters.parallel_sections;
  Alcotest.(check int) "barriers" 1 s.Counters.barriers;
  Alcotest.(check int) "tasks" 5 s.Counters.task_launches;
  Alcotest.(check int) "bytes" 128 s.Counters.bytes_allocated

let test_with_counters_restores_enablement () =
  Counters.disable ();
  let (), _ = Counters.with_counters (fun () -> ()) in
  Alcotest.(check bool) "disabled again" false (Counters.enabled ());
  (* exception-safe: enablement restored when the thunk raises *)
  (try
     ignore (Counters.with_counters (fun () -> failwith "boom"));
     Alcotest.fail "expected exception"
   with Failure _ -> ());
  Alcotest.(check bool) "disabled after raise" false (Counters.enabled ())

let test_counters_count_real_execution () =
  (* the engine's runtime hooks fire: an MLP has brgemm kernel dispatches,
     parallel sections, and temporary allocations *)
  let built =
    Gc_workloads.Mlp.build_f32 ~batch:4 ~hidden:[ 5; 8; 3 ] ()
  in
  let compiled = Core.compile built.Gc_workloads.Mlp.graph in
  ignore (Core.execute compiled built.Gc_workloads.Mlp.data);
  let (), s =
    Counters.with_counters (fun () ->
        ignore (Core.execute compiled built.Gc_workloads.Mlp.data))
  in
  Alcotest.(check bool) "kernels fired" true (s.Counters.kernel_invocations > 0);
  Alcotest.(check bool) "snapshot serializes" true
    (match Counters.snapshot_to_json s with Json.Obj _ -> true | _ -> false)

(* The counter table oracle: bump every declared counter by a distinct
   amount (its index + 1). The JSON snapshot must then carry exactly the
   declared names, in declaration order, each with its own amount — a
   snapshot field wired to the wrong counter shows up as a swapped
   amount. *)
let test_counter_table_oracle () =
  let was = Counters.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Counters.reset ();
      if was then Counters.enable () else Counters.disable ())
    (fun () ->
      Counters.enable ();
      Counters.reset ();
      List.iteri (fun i c -> Counters.add c (i + 1)) Counters.all;
      let want = List.mapi (fun i c -> (Counters.name c, i + 1)) Counters.all in
      let got =
        match Counters.snapshot_to_json (Counters.snapshot ()) with
        | Json.Obj kvs ->
            List.map
              (function
                | k, Json.Int v -> (k, v)
                | k, _ -> Alcotest.failf "counter %s is not an Int" k)
              kvs
        | _ -> Alcotest.fail "snapshot JSON is not an object"
      in
      Alcotest.(check int) "declared counters" 45 (List.length Counters.all);
      Alcotest.(check int) "distinct names" 45
        (List.length (List.sort_uniq compare (List.map fst want)));
      Alcotest.(check (list (pair string int))) "names, order, amounts" want got;
      (* a high-water mark only ever rises *)
      Counters.record_max Counters.coalesced_max_tickets 1000;
      Counters.record_max Counters.coalesced_max_tickets 3;
      Alcotest.(check int) "record_max" 1000
        (Counters.get Counters.coalesced_max_tickets);
      Counters.reset ();
      List.iter
        (fun c -> Alcotest.(check int) (Counters.name c ^ " reset") 0 (Counters.get c))
        Counters.all;
      (* disabled: the gated counters hold still, the others count *)
      Counters.disable ();
      List.iter Counters.incr Counters.all;
      List.iter
        (fun c ->
          Alcotest.(check int) (Counters.name c ^ " while disabled")
            (if Counters.gated c then 0 else 1)
            (Counters.get c))
        Counters.all;
      Alcotest.(check (list string)) "the gated counters"
        [
          "kernel_invocations"; "parallel_sections"; "barriers"; "task_launches";
          "bytes_allocated"; "tasks_stolen"; "envs_reused"; "arena_hits";
          "arena_bytes_saved";
        ]
        (List.map Counters.name (List.filter Counters.gated Counters.all)))

(* The schema check covers the top-level "counters" object and the one in
   every "bench:*" section, as [bench/main.exe --trace] nests them. *)
let test_check_document_nested_counters () =
  let counters = Counters.snapshot_to_json (Counters.snapshot ()) in
  let kvs = match counters with Json.Obj kvs -> kvs | _ -> assert false in
  let doc nested =
    Json.Obj
      [
        ("schema", Json.String "gc-trace/1");
        ("counters", counters);
        ("bench:harness", Json.Obj [ ("threads", Json.Int 1) ]);
        ("bench:MLP", Json.Obj [ ("counters", nested) ]);
      ]
  in
  let accepted what d =
    match Counters.check_document d with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s rejected: %s" what e
  in
  let rejected what d =
    match Counters.check_document d with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error e ->
        Alcotest.(check bool) (what ^ " names the section") true
          (String.starts_with ~prefix:"bench:MLP" e)
  in
  accepted "conforming document" (doc counters);
  rejected "dropped counter" (doc (Json.Obj (List.tl kvs)));
  let swapped = match kvs with a :: b :: rest -> b :: a :: rest | l -> l in
  rejected "reordered counters" (doc (Json.Obj swapped));
  let as_float (k, v) = if k = "barriers" then (k, Json.Float 1.) else (k, v) in
  rejected "non-integer counter" (doc (Json.Obj (List.map as_float kvs)));
  (* the top-level object is still checked *)
  match
    Counters.check_document
      (Json.Obj [ ("counters", Json.Obj (List.tl kvs)) ])
  with
  | Ok () -> Alcotest.fail "top-level dropped counter accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_of_module () =
  let open Gc_tensor_ir.Ir in
  let x = fresh_tensor ~name:"x" ~storage:Param Gc_tensor.Dtype.F32 [| 8 |] in
  let i = fresh_var ~name:"i" Index in
  let j = fresh_var ~name:"j" Index in
  let body =
    [
      For
        {
          v = i; lo = Int 0; hi = Int 8; step = Int 1;
          body =
            [
              For
                {
                  v = j; lo = Int 0; hi = Int 1; step = Int 1;
                  body = [ Store (x, [| Var i |], Float 0.0) ];
                  parallel = false; merge_tag = None;
                };
            ];
          parallel = true; merge_tag = None;
        };
    ]
  in
  let m =
    { funcs = [ { fname = "main"; params = [ Ptensor x ]; body } ];
      entry = "main"; init = None; globals = [] }
  in
  let s = Stats.of_module m in
  Alcotest.(check int) "loops" 2 s.Stats.loops;
  Alcotest.(check int) "parallel loops" 1 s.Stats.parallel_loops;
  Alcotest.(check int) "depth" 2 s.Stats.max_loop_depth;
  Alcotest.(check int) "funcs" 1 s.Stats.funcs;
  Alcotest.(check int) "bytes" 32 s.Stats.est_bytes

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records_passes () =
  let t = Trace.create () in
  let r = Trace.time (Some t) ~stage:"graph" ~name:"p1" ~stats:(fun _ -> Stats.zero) (fun x -> x + 1) 41 in
  Alcotest.(check int) "pass ran" 42 r;
  let r2 =
    Trace.time_into (Some t) ~stage:"tir" ~name:"p2" ~before:Stats.zero
      ~after:(fun _ -> Stats.zero)
      (fun x -> string_of_int x)
      7
  in
  Alcotest.(check string) "type-changing pass ran" "7" r2;
  (match Trace.passes t with
  | [ e1; e2 ] ->
      Alcotest.(check string) "stage 1" "graph" e1.Trace.stage;
      Alcotest.(check string) "name 1" "p1" e1.Trace.pass_name;
      Alcotest.(check string) "stage 2" "tir" e2.Trace.stage;
      Alcotest.(check bool) "elapsed non-negative" true (e1.Trace.elapsed_ms >= 0.0)
  | l -> Alcotest.failf "expected 2 pass events, got %d" (List.length l));
  (* None = no recording, function still runs *)
  let r3 = Trace.time None ~stage:"graph" ~name:"p3" ~stats:(fun _ -> Stats.zero) (fun x -> x * 2) 21 in
  Alcotest.(check int) "None still runs" 42 r3;
  Alcotest.(check int) "None records nothing" 2 (List.length (Trace.passes t))

let test_trace_json_schema () =
  let t = Trace.create () in
  Trace.set_meta t "workload" (Json.String "unit-test");
  ignore (Trace.time (Some t) ~stage:"graph" ~name:"p" ~stats:(fun _ -> Stats.zero) Fun.id ());
  Trace.add_section t "counters" (Counters.snapshot_to_json (Counters.snapshot ()));
  let j = Trace.to_json t in
  (match Json.member "schema" j with
  | Some (Json.String "gc-trace/1") -> ()
  | _ -> Alcotest.fail "schema tag");
  (match Json.member "passes" j with
  | Some (Json.List [ p ]) ->
      Alcotest.(check bool) "pass has stage" true (Json.member "stage" p <> None);
      Alcotest.(check bool) "pass has before stats" true
        (Json.member "before" p <> None)
  | _ -> Alcotest.fail "passes array");
  (match Json.member "meta" j with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "meta object");
  Alcotest.(check bool) "counters section present" true
    (Json.member "counters" j <> None);
  (* the whole document round-trips through the parser *)
  match Json.of_string (Json.to_string ~indent:2 j) with
  | Ok j' -> Alcotest.(check bool) "round-trip" true (json_equal j j')
  | Error e -> Alcotest.failf "trace does not re-parse: %s" e

let test_trace_write_file () =
  let t = Trace.create () in
  ignore (Trace.time (Some t) ~stage:"graph" ~name:"p" ~stats:(fun _ -> Stats.zero) Fun.id ());
  let file = Filename.temp_file "gc_trace_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.write_file t file;
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.of_string s with
      | Ok j ->
          Alcotest.(check bool) "file has schema" true
            (Json.member "schema" j = Some (Json.String "gc-trace/1"))
      | Error e -> Alcotest.failf "written file does not parse: %s" e)

let test_compile_with_trace () =
  (* end-to-end: compiling a real workload with a trace records the graph,
     lowering, tir and runtime stages *)
  let built = Gc_workloads.Mlp.build_f32 ~batch:2 ~hidden:[ 3; 4 ] () in
  let t = Trace.create () in
  ignore (Core.compile ~trace:t built.Gc_workloads.Mlp.graph);
  let stages =
    List.sort_uniq compare
      (List.map (fun e -> e.Trace.stage) (Trace.passes t))
  in
  List.iter
    (fun s ->
      if not (List.mem s stages) then Alcotest.failf "stage %s missing" s)
    [ "graph"; "lowering"; "tir"; "runtime" ];
  Alcotest.(check bool) "several passes recorded" true
    (List.length (Trace.passes t) >= 10)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "observe"
    [
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_roundtrip_indented;
          Alcotest.test_case "string escapes" `Quick test_json_escapes;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "counters",
        [
          Alcotest.test_case "disabled hooks are no-ops" `Quick
            test_counters_disabled_are_noops;
          Alcotest.test_case "enabled hooks count" `Quick
            test_counters_enabled_count;
          Alcotest.test_case "with_counters restores enablement" `Quick
            test_with_counters_restores_enablement;
          Alcotest.test_case "real execution fires hooks" `Quick
            test_counters_count_real_execution;
          Alcotest.test_case "counter table oracle" `Quick
            test_counter_table_oracle;
          Alcotest.test_case "schema check covers bench sections" `Quick
            test_check_document_nested_counters;
        ] );
      ( "stats",
        [ Alcotest.test_case "of_module" `Quick test_stats_of_module ] );
      ( "trace",
        [
          Alcotest.test_case "records passes" `Quick test_trace_records_passes;
          Alcotest.test_case "json schema" `Quick test_trace_json_schema;
          Alcotest.test_case "write_file" `Quick test_trace_write_file;
          Alcotest.test_case "compile with trace" `Quick test_compile_with_trace;
        ] );
    ]
