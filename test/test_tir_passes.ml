(* Unit tests for the Tensor IR optimization passes: loop merging,
   simplification, store-to-load forwarding, tensor shrinking, dead store
   elimination and the memory buffer planner. Structural checks are paired
   with execution checks (the optimized module computes the same thing on
   the engine). *)

open Gc_tensor
open Gc_tensor_ir
open Gc_tir_passes
open Gc_runtime
open Ir

let pool = Parallel.create 1

let loop ?(parallel = false) ?tag v lo hi body =
  For { v; lo = Int lo; hi = Int hi; step = Int 1; body; parallel; merge_tag = tag }

let run_module m bufs =
  let engine = Engine.create ~pool m in
  Engine.run_entry engine bufs

(* ------------------------------------------------------------------ *)
(* Loop merge *)

let test_loop_merge_merges_tagged () =
  let t = fresh_tensor ~name:"t" ~storage:Param Dtype.F32 [| 8 |] in
  let u = fresh_tensor ~name:"u" ~storage:Param Dtype.F32 [| 8 |] in
  let i = fresh_var ~name:"i" Index and j = fresh_var ~name:"j" Index in
  let f =
    {
      fname = "f";
      params = [ Ptensor t; Ptensor u ];
      body =
        [
          loop ~parallel:true ~tag:1 i 0 8 [ Store (t, [| Ir.v i |], Ir.v i) ];
          loop ~parallel:true ~tag:1 j 0 8
            [ Store (u, [| Ir.v j |], Binop (Mul, Load (t, [| Ir.v j |]), Int 2)) ];
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let m', merged = Loop_merge.run m in
  Alcotest.(check int) "one merge" 1 merged;
  (* one top-level loop left *)
  let f' = List.hd m'.funcs in
  Alcotest.(check int) "single loop" 1 (List.length f'.body);
  (* and it still computes the right thing *)
  let tb = Buffer.create Dtype.F32 8 and ub = Buffer.create Dtype.F32 8 in
  run_module m' [| tb; ub |];
  Alcotest.(check (float 0.)) "u[3]=6" 6. (Buffer.get ub 3)

let test_loop_merge_skips_different_tags () =
  let t = fresh_tensor ~name:"t" ~storage:Param Dtype.F32 [| 4 |] in
  let i = fresh_var Index and j = fresh_var Index in
  let f =
    {
      fname = "f";
      params = [ Ptensor t ];
      body =
        [
          loop ~parallel:true ~tag:1 i 0 4 [ Store (t, [| Ir.v i |], Int 1) ];
          loop ~parallel:true ~tag:2 j 0 4 [ Store (t, [| Ir.v j |], Int 2) ];
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  Alcotest.(check int) "no merge" 0 (snd (Loop_merge.run m))

let test_loop_merge_skips_different_bounds () =
  let t = fresh_tensor ~name:"t" ~storage:Param Dtype.F32 [| 8 |] in
  let i = fresh_var Index and j = fresh_var Index in
  let f =
    {
      fname = "f";
      params = [ Ptensor t ];
      body =
        [
          loop ~parallel:true ~tag:1 i 0 8 [ Store (t, [| Ir.v i |], Int 1) ];
          loop ~parallel:true ~tag:1 j 0 4 [ Store (t, [| Ir.v j |], Int 2) ];
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  Alcotest.(check int) "no merge" 0 (snd (Loop_merge.run m))

let test_loop_merge_hoists_allocs_and_const_assigns () =
  let t = fresh_tensor ~name:"t" ~storage:Param Dtype.F32 [| 4 |] in
  let tmp = fresh_tensor ~name:"tmp" ~storage:Local Dtype.F32 [| 4 |] in
  let i = fresh_var Index and j = fresh_var Index in
  let zero_var = fresh_var ~name:"z" Index in
  let f =
    {
      fname = "f";
      params = [ Ptensor t ];
      body =
        [
          loop ~parallel:true ~tag:3 i 0 4 [ Store (t, [| Ir.v i |], Int 1) ];
          Alloc tmp;
          Assign (zero_var, Int 0);
          loop ~parallel:true ~tag:3 j 0 4
            [ Store (tmp, [| Ir.v j |], Load (t, [| Ir.v zero_var |])) ];
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let m', merged = Loop_merge.run m in
  Alcotest.(check int) "merged across alloc+assign" 1 merged;
  Alcotest.(check bool) "module still checks" true
    (Result.is_ok (Check.check_module m'))

(* ------------------------------------------------------------------ *)
(* Simplify *)

let test_simplify_constants () =
  let e = Simplify.expr (Binop (Add, Binop (Mul, Int 4, Int 8), Int 0)) in
  Alcotest.(check bool) "folded" true (e = Int 32);
  let e = Simplify.expr (Binop (Mul, Var (fresh_var Index), Int 0)) in
  Alcotest.(check bool) "x*0" true (e = Int 0);
  let v = fresh_var Index in
  let e = Simplify.expr (Binop (Div, Var v, Int 1)) in
  Alcotest.(check bool) "x/1" true (e = Var v);
  let e = Simplify.expr (Binop (Mod, Var v, Int 1)) in
  Alcotest.(check bool) "x%1" true (e = Int 0)

let test_simplify_trip1_loop () =
  let t = fresh_tensor ~name:"t" ~storage:Param Dtype.F32 [| 4 |] in
  let i = fresh_var ~name:"i" Index in
  let f =
    {
      fname = "f";
      params = [ Ptensor t ];
      body = [ loop i 2 3 [ Store (t, [| Ir.v i |], Int 9) ] ];
    }
  in
  let f' = Simplify.run_func f in
  (match f'.body with
  | [ Store (_, [| Int 2 |], Int 9) ] -> ()
  | _ -> Alcotest.fail "trip-1 loop not inlined");
  let m = { funcs = [ f' ]; entry = "f"; init = None; globals = [] } in
  let tb = Buffer.create Dtype.F32 4 in
  run_module m [| tb |];
  Alcotest.(check (float 0.)) "t[2]" 9. (Buffer.get tb 2)

let test_simplify_empty_loop_removed () =
  let t = fresh_tensor ~storage:Param Dtype.F32 [| 4 |] in
  let i = fresh_var Index in
  let f =
    { fname = "f"; params = [ Ptensor t ];
      body = [ loop i 3 3 [ Store (t, [| Ir.v i |], Int 1) ] ] }
  in
  let f' = Simplify.run_func f in
  Alcotest.(check int) "removed" 0 (List.length f'.body)

let test_simplify_decidable_if () =
  let t = fresh_tensor ~storage:Param Dtype.F32 [| 2 |] in
  let f =
    {
      fname = "f";
      params = [ Ptensor t ];
      body =
        [
          If (Binop (Lt, Int 1, Int 2), [ Store (t, [| Int 0 |], Int 1) ],
              [ Store (t, [| Int 0 |], Int 2) ]);
          If (Int 0, [ Store (t, [| Int 1 |], Int 3) ], []);
        ];
    }
  in
  let f' = Simplify.run_func f in
  match f'.body with
  | [ Store (_, [| Int 0 |], Int 1) ] -> ()
  | _ -> Alcotest.fail "branches not decided"

(* (x·c + y) / c and % c split when the loop bounds put y in [0, c) and
   x is a non-negative index; otherwise the division stays *)
let test_simplify_block_index () =
  let t = fresh_tensor ~name:"t" ~storage:Param Dtype.F32 [| 4; 8 |] in
  let i = fresh_var ~name:"i" Index and j = fresh_var ~name:"j" Index in
  let x = fresh_var ~name:"x" Index in
  let program ~jhi ~xdef =
    let flat = Binop (Add, Binop (Mul, Var x, Int 8), Var j) in
    {
      fname = "f";
      params = [ Ptensor t ];
      body =
        [
          loop i 0 4
            [
              Assign (x, xdef (Var i));
              loop j 0 jhi
                [
                  Store
                    ( t,
                      [| Binop (Div, flat, Int 8); Binop (Mod, flat, Int 8) |],
                      Binop (Add, Var x, Float 0.5) );
                ];
            ];
        ];
    }
  in
  let store_index (f : func) =
    Visit.fold_stmts
      ~stmt:(fun acc s -> match s with Store (_, idx, _) -> Some idx | _ -> acc)
      None f.body
  in
  (match store_index (Simplify.run_func (program ~jhi:8 ~xdef:Fun.id)) with
  | Some [| Var a; Var b |] when var_equal a x && var_equal b j -> ()
  | _ -> Alcotest.fail "t[(x*8+j)/8, (x*8+j)%8] not split to t[x, j]");
  let kept what f =
    match store_index (Simplify.run_func f) with
    | Some [| Binop (Div, _, Int 8); Binop (Mod, _, Int 8) |] -> ()
    | _ -> Alcotest.failf "%s: division rewritten" what
  in
  kept "j reaches 8" (program ~jhi:9 ~xdef:Fun.id);
  kept "x may be negative" (program ~jhi:8 ~xdef:(fun e -> Binop (Sub, e, Int 1)));
  (* the split program stores what the original stores *)
  let f = program ~jhi:8 ~xdef:Fun.id in
  let run f =
    let b = Buffer.create Dtype.F32 32 in
    run_module { funcs = [ f ]; entry = "f"; init = None; globals = [] } [| b |];
    Array.init 32 (Buffer.get b)
  in
  Alcotest.(check (array (float 0.))) "same stores" (run f) (run (Simplify.run_func f))

(* ------------------------------------------------------------------ *)
(* Forward store / scalarization *)

let test_forward_store_collapses_chain () =
  (* x -> t1 -> t2 -> y within one loop body; t1/t2 become dead after
     forwarding + DSE *)
  let x = fresh_tensor ~name:"x" ~storage:Param Dtype.F32 [| 8 |] in
  let y = fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| 8 |] in
  let t1 = fresh_tensor ~name:"t1" ~storage:Local Dtype.F32 [| 8 |] in
  let t2 = fresh_tensor ~name:"t2" ~storage:Local Dtype.F32 [| 8 |] in
  let i = fresh_var ~name:"i" Index in
  let f =
    {
      fname = "f";
      params = [ Ptensor x; Ptensor y ];
      body =
        [
          Alloc t1;
          Alloc t2;
          loop i 0 8
            [
              Store (t1, [| Ir.v i |], Binop (Mul, Load (x, [| Ir.v i |]), Int 2));
              Store (t2, [| Ir.v i |], Binop (Add, Load (t1, [| Ir.v i |]), Int 1));
              Store (y, [| Ir.v i |], Load (t2, [| Ir.v i |]));
            ];
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let m' = Dse.run (Forward_store.run m) in
  let f' = List.hd m'.funcs in
  (* no loads of t1/t2 remain *)
  let loads = ref 0 in
  Visit.iter_stmts
    ~expr:(fun e ->
      match e with
      | Load (t, _) when tensor_equal t t1 || tensor_equal t t2 -> incr loads
      | _ -> ())
    f'.body;
  Alcotest.(check int) "temp loads gone" 0 !loads;
  (* execution equivalence *)
  let xb = Buffer.create Dtype.F32 8 and yb = Buffer.create Dtype.F32 8 in
  for k = 0 to 7 do Buffer.set xb k (float_of_int k) done;
  run_module m' [| xb; yb |];
  Alcotest.(check (float 0.)) "y[3] = 3*2+1" 7. (Buffer.get yb 3)

let test_forward_store_respects_aliasing () =
  (* store t[i], then store t[j] (different index), then load t[i]: the
     second store must invalidate the binding *)
  let t = fresh_tensor ~name:"t" ~storage:Local Dtype.F32 [| 8 |] in
  let y = fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| 1 |] in
  let f =
    {
      fname = "f";
      params = [ Ptensor y ];
      body =
        [
          Alloc t;
          Store (t, [| Int 0 |], Float 5.);
          Store (t, [| Int 0 |], Float 9.);
          Store (y, [| Int 0 |], Load (t, [| Int 0 |]));
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let m' = Dse.run (Forward_store.run m) in
  let yb = Buffer.create Dtype.F32 1 in
  run_module m' [| yb |];
  Alcotest.(check (float 0.)) "latest value wins" 9. (Buffer.get yb 0)

let test_forward_store_keeps_direct_store () =
  (* t[i] is stored and never reloaded in the body: no scalar is
     introduced, the store stays T[i] = e *)
  let x = fresh_tensor ~name:"x" ~storage:Param Dtype.F32 [| 8 |] in
  let y = fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| 8 |] in
  let t = fresh_tensor ~name:"t" ~storage:Local Dtype.F32 [| 8 |] in
  let i = fresh_var ~name:"i" Index in
  let value = Binop (Mul, Load (x, [| Ir.v i |]), Float 2.) in
  let f =
    {
      fname = "f";
      params = [ Ptensor x; Ptensor y ];
      body =
        [
          Alloc t;
          loop i 0 8
            [
              Store (t, [| Ir.v i |], value);
              Store (y, [| Ir.v i |], Load (x, [| Ir.v i |]));
            ];
          loop i 0 8 [ Store (y, [| Ir.v i |], Load (t, [| Ir.v i |])) ];
        ];
    }
  in
  let f' = Forward_store.run_func f in
  let assigns = ref 0 and direct = ref false in
  Visit.iter_stmts
    ~stmt:(fun s ->
      match s with
      | Assign _ -> incr assigns
      | Store (t', _, e) when tensor_equal t' t -> direct := e = value
      | _ -> ())
    f'.body;
  Alcotest.(check int) "no scalar introduced" 0 !assigns;
  Alcotest.(check bool) "direct store kept" true !direct

(* Every Assign of [f] whose variable nothing reads *)
let unread_assigns (f : func) =
  let read = Hashtbl.create 64 in
  Visit.iter_stmts
    ~expr:(fun e -> match e with Var v -> Hashtbl.replace read v.vid () | _ -> ())
    f.body;
  Visit.fold_stmts
    ~stmt:(fun acc s ->
      match s with
      | Assign (v, _) when not (Hashtbl.mem read v.vid) -> v.vname :: acc
      | _ -> acc)
    [] f.body

(* Full-pipeline Tensor IR modules of the MLP f32/int8, MHA and 1-layer
   BERT workloads. *)
let pipeline_modules () =
  List.map
    (fun (name, g) -> (name, Core.tir_module (Core.compile g)))
    [
      ("mlp f32", (Gc_workloads.Mlp.build_f32 ~batch:8 ~hidden:[ 13; 64; 32 ] ()).graph);
      ("mlp int8", (Gc_workloads.Mlp.build_int8 ~batch:8 ~hidden:[ 13; 64; 32 ] ()).graph);
      ("mha f32", (Gc_workloads.Mha.build_f32 ~batch:2 ~seq:16 ~hidden:64 ~heads:4 ()).graph);
      ( "bert f32",
        (Gc_workloads.Bert.build_f32 ~layers:1 ~batch:1 ~seq:8 ~hidden:32 ~heads:2 ()).graph );
    ]

let test_pipelines_leave_no_unread_assign () =
  List.iter
    (fun (name, m) ->
      List.iter
        (fun (f : func) ->
          match unread_assigns f with
          | [] -> ()
          | vs ->
              Alcotest.failf "%s: %s assigns unread %s" name f.fname
                (String.concat ", " vs))
        m.funcs)
    (pipeline_modules ())

(* Layout propagation follows MLP_1's post-op chains: in the full
   pipeline's Tensor IR a matmul whose A arrives blocked runs BRGEMM on it
   in place (no Apack staging), and every blocked epilogue store indexes
   its block directly. The primitives keep activations plain and pack A
   in every layer. At batch 8 the third layer's tiles aligned to 8-row
   blocks cost more than its free choice, so its A stays plain and is read
   in place through [lda] in f32; in int8 the coarse-grain retune aligns
   that layer's KB to its producer's NB after all and re-publishes the
   chain blocked. The first layer reads its 13-wide input in place up to
   K, so no brgemm of the full pipeline reads a packed A. *)
let test_mlp1_reads_blocked_a () =
  let machine = Gc_microkernel.Machine.xeon_8358 in
  let hidden = Gc_workloads.Table1.mlp_1.hidden in
  let modules config =
    List.map
      (fun (name, (built : Gc_workloads.Mlp.built), full_packs) ->
        (name, Core.tir_module (Core.compile ~config built.graph), full_packs))
      [
        ("f32 b8", Gc_workloads.Mlp.build_f32 ~batch:8 ~hidden (), 0);
        ("f32 b64", Gc_workloads.Mlp.build_f32 ~batch:64 ~hidden (), 0);
        ("int8 b32", Gc_workloads.Mlp.build_int8 ~batch:32 ~hidden (), 0);
        ("int8 b8", Gc_workloads.Mlp.build_int8 ~batch:8 ~hidden (), 0);
      ]
  in
  let packed_brgemms (m : module_) =
    List.fold_left
      (fun acc (f : func) ->
        Visit.fold_stmts
          ~stmt:(fun acc s ->
            match s with
            | Call ("brgemm", args) -> (
                match List.nth args 4 with
                | Addr (t, _) when String.starts_with ~prefix:"Apack" t.tname -> acc + 1
                | _ -> acc)
            | _ -> acc)
          acc f.body)
      0 m.funcs
  in
  let div_mod_stores (m : module_) =
    let has_div_mod =
      Visit.fold_expr
        (fun acc e -> acc || match e with Binop ((Div | Mod), _, _) -> true | _ -> false)
        false
    in
    List.concat_map
      (fun (f : func) ->
        Visit.fold_stmts
          ~stmt:(fun acc s ->
            match s with
            | Store (t, idx, _) when Array.exists has_div_mod idx ->
                (f.fname ^ ":" ^ t.tname) :: acc
            | _ -> acc)
          [] f.body)
      m.funcs
  in
  List.iter
    (fun (name, m, full_packs) ->
      Alcotest.(check int) (name ^ ": brgemms on packed A") full_packs (packed_brgemms m);
      Alcotest.(check (list string)) (name ^ ": div/mod store indices") [] (div_mod_stores m))
    (modules (Core.default_config ~machine ()));
  List.iter
    (fun (name, m, _) ->
      Alcotest.(check int) (name ^ " primitives: brgemms on packed A") 3 (packed_brgemms m))
    (modules (Gc_baseline.Baseline.config ~machine ()))

(* Guards test only the axes with a tail. MLP_1 int8 at 32 rows has no M
   or N tail (32 rows, N = 512/256/128), only the first layer's K = 13:
   the full pipeline reads that input in place and has no element guard
   at all, and the primitives keep one, the [j < 13] K test of their A
   pack. Tile-index guards ([mpsi < MBLOCKS], [npsi < NBLOCKS]) are not
   element guards. At 3 rows the M tail adds row tests: every element
   guard still tests only M or K against their extents. *)
let test_guards_only_tail_axes () =
  let machine = Gc_microkernel.Machine.xeon_8358 in
  let hidden = Gc_workloads.Table1.mlp_1.hidden in
  (* the conditions of every If that is not a tile-index guard *)
  let element_guards config batch =
    let g = (Gc_workloads.Mlp.build_int8 ~batch ~hidden ()).graph in
    let m = Core.tir_module (Core.compile ~config g) in
    let tile_guard = function
      | Binop (Lt, Var v, Int _) ->
          String.starts_with ~prefix:"mpsi" v.vname || String.starts_with ~prefix:"npsi" v.vname
      | _ -> false
    in
    List.concat_map
      (fun (fn : func) ->
        Visit.fold_stmts
          ~stmt:(fun acc s ->
            match s with If (c, _, _) when not (tile_guard c) -> c :: acc | _ -> acc)
          [] fn.body)
      m.funcs
  in
  (* the constant each [_ < c] of a guard compares against *)
  let rec bounds = function
    | Binop (And, a, b) -> bounds a @ bounds b
    | Binop (Lt, _, Int c) -> [ c ]
    | e -> Alcotest.failf "unexpected guard %s" (Printer.expr_to_string e)
  in
  let full = Core.default_config ~machine () and prims = Gc_baseline.Baseline.config ~machine () in
  Alcotest.(check (list (list int))) "full b32: element guards" []
    (List.map bounds (element_guards full 32));
  Alcotest.(check (list (list int))) "primitives b32: element guards" [ [ 13 ] ]
    (List.map bounds (element_guards prims 32));
  List.iter
    (fun (what, config) ->
      List.iter
        (fun c ->
          List.iter
            (fun b ->
              Alcotest.(check bool) (what ^ " b3: guard tests M = 3 or K = 13") true
                (b = 3 || b = 13))
            (bounds c))
        (element_guards config 3))
    [ ("full", full); ("primitives", prims) ]

(* Plain A read in place: the full pipeline's BRGEMM reads every plain,
   K-innermost A where it lies, its rows [lda = K] apart, tails included:
   a ragged tile passes its valid rows and the last K block its extent,
   so no [Apack] is left at any shape. The oracle is the fused graph's
   own parameters, which do leave tails (M % MB or K % KB nonzero) on the
   listed A operands. Checked on MLP_1 f32 at batches 1 to 8 (the 13-wide
   input has a K tail, batches 1, 3, 5 and 7 an M tail too), MLP_1 int8 at
   batch 3, Table 1's MHA_2 (the module [gc_cli dump mha2] prints, at
   batch 2) and MHA at seq 33, whose M, N and K all have tails: neither an
   [Apack] nor a [Bpack] is filled, so K (N×K rows) and V (K×N rows) are
   read in place too. The primitives still pack every A. *)
let test_plain_a_read_in_place () =
  let machine = Gc_microkernel.Machine.xeon_8358 in
  let hidden = Gc_workloads.Table1.mlp_1.hidden in
  let mha2 = Gc_workloads.Table1.mha_2 in
  let mha ~seq ~hidden ~heads = (Gc_workloads.Mha.build_f32 ~batch:2 ~seq ~hidden ~heads ()).graph in
  (* each graph with the plain A operands its parameters leave a tail on
     (a graph input by name, an intermediate as [#i], the output of fused
     op i) and how many of the primitives' A packs are planned into an
     arena (a single-task kernel's, at batch 1) *)
  let graphs =
    List.map
      (fun (batch, tails, arenas) ->
        ( Printf.sprintf "mlp_1 f32 b%d" batch,
          (Gc_workloads.Mlp.build_f32 ~batch ~hidden ()).graph,
          tails,
          arenas ))
      [
        (1, [ "x" ], 1);
        (2, [ "x" ], 0);
        (3, [ "#1"; "x" ], 0);
        (4, [ "x" ], 0);
        (5, [ "#1"; "x" ], 0);
        (6, [ "#1"; "x" ], 0);
        (7, [ "#1"; "x" ], 0);
        (8, [ "x" ], 0);
      ]
    @ [
        ("mlp_1 int8 b3", (Gc_workloads.Mlp.build_int8 ~batch:3 ~hidden ()).graph, [ "xq" ], 0);
        ("mha_2 f32", mha ~seq:mha2.seq_len ~hidden:mha2.hidden_size ~heads:mha2.heads, [], 0);
        ("mha seq 33 f32", mha ~seq:33 ~hidden:128 ~heads:4, [ "#0"; "Q" ], 0);
      ]
  in
  let fold (m : module_) f =
    List.concat_map (fun (fn : func) -> Visit.fold_stmts ~stmt:f [] fn.body) m.funcs
  in
  (* the tensors a pack buffer named [pre]... is filled from *)
  let pack_sources pre m =
    fold m (fun acc s ->
        match s with
        | Store (t, _, v) when String.starts_with ~prefix:pre t.tname ->
            Visit.fold_expr
              (fun acc e -> match e with Load (src, _) -> src.tname :: acc | _ -> acc)
              acc v
        | _ -> acc)
    |> List.sort_uniq compare
  in
  (* the A operand of each matmul with its parameters *)
  let matmul_a c =
    List.filter_map
      (fun (f : Gc_lowering.Fused_op.t) ->
        match (f.params, f.tunable) with
        | Some p, Some tun when tun.kind = Gc_graph_ir.Op_kind.Matmul ->
            let a =
              match f.pre_a with Some (op, _) -> List.hd op.inputs | None -> List.hd tun.inputs
            in
            Some (a, p)
        | _ -> None)
      (Core.fused_graph c).fused
  in
  (* a tensor's label: its name if a graph input, else [#i] for the output
     of fused op i (generated names depend on what was built before) *)
  let label c (t : Gc_graph_ir.Logical_tensor.t) =
    let fg = Core.fused_graph c in
    if List.exists (fun (i : Gc_graph_ir.Logical_tensor.t) -> i.name = t.name) fg.g_inputs then t.name
    else
      let rec find i = function
        | [] -> t.name
        | (f : Gc_lowering.Fused_op.t) :: rest ->
            if List.exists (fun (o : Gc_graph_ir.Logical_tensor.t) -> o.name = t.name) f.f_outputs then
              Printf.sprintf "#%d" i
            else find (i + 1) rest
      in
      find 0 fg.fused
  in
  (* the plain A operands the fused graph's parameters leave a tail on *)
  let a_with_tail c =
    List.filter_map
      (fun ((a : Gc_graph_ir.Logical_tensor.t), (p : Gc_lowering.Params.t)) ->
        if Layout.is_plain a.layout && (p.m mod p.mb <> 0 || p.k mod p.kb <> 0) then
          Some (label c a)
        else None)
      (matmul_a c)
    |> List.sort_uniq compare
  in
  (* a buffer is a pack of A when every store into it is a zero or a plain
     load of some matmul's A operand *)
  let is_a_pack c m buf =
    let sources = List.map (fun ((a : Gc_graph_ir.Logical_tensor.t), _) -> a.name) (matmul_a c) in
    let stores =
      fold m (fun acc s -> match s with Store (t, _, v) when t.tname = buf -> v :: acc | _ -> acc)
    in
    stores <> []
    && List.for_all
         (function
           | Int 0 | Float 0.0 -> true
           | Load (src, _) -> List.mem src.tname sources
           | _ -> false)
         stores
  in
  let a_operands m =
    fold m (fun acc s ->
        match s with
        | Call ("brgemm", args) -> (
            match Intrinsic.brgemm_args args with
            | Some { a = Addr (t, _); _ } -> t.tname :: acc
            | _ -> acc)
        | _ -> acc)
  in
  List.iter
    (fun (name, g, tails, arenas) ->
      let c = Core.compile ~config:(Core.default_config ~machine ()) g in
      Alcotest.(check (list string)) (name ^ ": A with a tail") tails (a_with_tail c);
      let m = Core.tir_module c in
      Alcotest.(check (list string)) (name ^ ": Apack sources") [] (pack_sources "Apack" m);
      Alcotest.(check (list string)) (name ^ ": Bpack sources") [] (pack_sources "Bpack" m);
      (* nor one planned into an arena *)
      Alcotest.(check (list string)) (name ^ ": brgemms on a pack of A") []
        (List.filter (is_a_pack c m) (a_operands m));
      let pc = Core.compile ~config:(Gc_baseline.Baseline.config ~machine ()) g in
      let prims = Core.tir_module pc in
      let a_ops = List.sort_uniq compare (a_operands prims) in
      let in_arena = List.filter (String.starts_with ~prefix:"arena") a_ops in
      Alcotest.(check int) (name ^ " primitives: A packs in an arena") arenas (List.length in_arena);
      List.iter
        (fun a ->
          Alcotest.(check bool) (name ^ " primitives: A packed") true
            (String.starts_with ~prefix:"Apack" a || (List.mem a in_arena && is_a_pack pc prims a)))
        a_ops)
    graphs

(* Operand reads in place: in the full pipeline's Tensor IR of perfbench's
   MHA (head dim and seq 64) BRGEMM reads Q, K (transposed, as N×K rows),
   the softmax output and V (as K×N rows) where they lie, so nothing is
   packed, and the softmax temporary shrinks to one head's [64][64]. The
   primitives pack all four operands, also at head dim 16. *)
let test_mha_reads_whole_k_in_place () =
  let machine = Gc_microkernel.Machine.xeon_8358 in
  let mha hidden = (Gc_workloads.Mha.build_f32 ~batch:2 ~seq:64 ~hidden ~heads:4 ()).graph in
  let tir ?(g = mha 256) config = Core.tir_module (Core.compile ~config g) in
  let is_pack (t : tensor) =
    String.starts_with ~prefix:"Apack" t.tname || String.starts_with ~prefix:"Bpack" t.tname
  in
  let fold_funcs (m : module_) f =
    List.concat_map (fun (fn : func) -> Visit.fold_stmts ~stmt:f [] fn.body) m.funcs
  in
  (* the tensors the pack buffers are filled from *)
  let pack_sources m =
    fold_funcs m (fun acc s ->
        match s with
        | Store (t, _, v) when is_pack t ->
            Visit.fold_expr
              (fun acc e -> match e with Load (src, _) -> src.tname :: acc | _ -> acc)
              acc v
        | _ -> acc)
    |> List.sort_uniq compare
  in
  (* (A, B) operand tensors of every brgemm *)
  let operands m =
    fold_funcs m (fun acc s ->
        match s with
        | Call ("brgemm", args) -> (
            match (List.nth args 4, List.nth args 6) with
            | Addr (a, _), Addr (b, _) -> (a, b) :: acc
            | _ -> acc)
        | _ -> acc)
  in
  let full = tir (Core.default_config ~machine ()) in
  Alcotest.(check (list string)) "full: packed from" [] (pack_sources full);
  let in_place =
    List.filter_map
      (fun ((a : tensor), _) -> if a.storage = Local then Some (Array.to_list a.dims) else None)
      (operands full)
  in
  Alcotest.(check (list (list int))) "full: softmax output read in place, one head"
    [ [ 1; 1; 64; 64 ] ] in_place;
  List.iter
    (fun hidden ->
      let prims = operands (tir ~g:(mha hidden) (Gc_baseline.Baseline.config ~machine ())) in
      let what = Printf.sprintf "primitives, hidden %d" hidden in
      Alcotest.(check int) (what ^ ": brgemms") 2 (List.length prims);
      List.iter
        (fun (a, b) ->
          Alcotest.(check bool) (what ^ ": A and B packed") true (is_pack a && is_pack b))
        prims)
    [ 256; 64 ]

(* Pack-free P·V: in perfbench's MHA the fused kernel's second BRGEMM
   reads V as K×N rows (ldb = 64) and accumulates straight into the
   output t9 (ldc = 64), so neither a [Bpack] nor a [Cacc] write-back copy
   is left; the one [Cacc] is Q·Kᵀ's, read by its scale-and-mask
   post-ops, whose B is K read in place as N×K rows (ldb = -64). The
   primitives keep packing K and V and lose only P·V's write-back (it has
   no post-ops). Int8 B is never read as K×N rows: the primitives keep
   the slab form, and the full pipeline reads Kq as N×K rows and packs
   V. *)
let test_mha_pv_in_place () =
  let machine = Gc_microkernel.Machine.xeon_8358 in
  let tir config g = Core.tir_module (Core.compile ~config g) in
  let f32 = (Gc_workloads.Mha.build_f32 ~batch:2 ~seq:64 ~hidden:256 ~heads:4 ()).graph in
  let fold (m : module_) f =
    List.concat_map (fun (fn : func) -> Visit.fold_stmts ~stmt:f [] fn.body) m.funcs
  in
  let prefixed pre (t : tensor) = String.starts_with ~prefix:pre t.tname in
  let allocs pre m =
    fold m (fun acc s -> match s with Alloc t when prefixed pre t -> t.tname :: acc | _ -> acc)
  in
  (* stores that only copy an accumulator element out *)
  let write_backs m =
    fold m (fun acc s ->
        match s with
        | Store (t, _, Load (src, _)) when prefixed "Cacc" src -> t.tname :: acc
        | _ -> acc)
  in
  (* (B tensor, ldb, C tensor, ldc) of every brgemm, a C parameter named
     "out"; ldc = -1 marks the slab form *)
  let brgemms m =
    fold m (fun acc s ->
        match s with
        | Call ("brgemm", args) -> (
            match Intrinsic.brgemm_args args with
            | Some { b = Addr (b, _); c = Addr (c, _); ldb = Int ldb; ldc = Int ldc; _ } ->
                let c = if c.storage = Param then "out" else c.tname in
                let ldc = if List.length args = Intrinsic.brgemm.arity then -1 else ldc in
                (b.tname, ldb, c, ldc) :: acc
            | _ -> Alcotest.fail "brgemm with non-address or non-literal operands")
        | _ -> acc)
    |> List.sort compare
  in
  let brgemm = Alcotest.(list (pair (pair string int) (pair string int))) in
  let pairs = List.map (fun (b, ldb, c, ldc) -> ((b, ldb), (c, ldc))) in
  let full = tir (Core.default_config ~machine ()) f32 in
  Alcotest.(check (list string)) "full: Bpack allocations" [] (allocs "Bpack" full);
  Alcotest.(check (list string)) "full: one Cacc" [ "Cacc" ] (allocs "Cacc" full);
  Alcotest.(check (list string)) "full: write-back copies" [] (write_backs full);
  Alcotest.check brgemm "full: brgemm operand forms"
    [ (("K", -64), ("Cacc", 64)); (("V", 64), ("out", 64)) ]
    (pairs (brgemms full));
  let prims = tir (Gc_baseline.Baseline.config ~machine ()) f32 in
  Alcotest.(check int) "primitives: Bpack allocations" 2 (List.length (allocs "Bpack" prims));
  Alcotest.(check (list string)) "primitives: write-back copies" [] (write_backs prims);
  Alcotest.check brgemm "primitives: brgemm operand forms"
    [ (("Bpack", 0), ("Cacc", -1)); (("Bpack", 0), ("out", 64)) ]
    (pairs (brgemms prims));
  let int8 = (Gc_workloads.Mha.build_int8 ~batch:2 ~seq:64 ~hidden:256 ~heads:4 ()).graph in
  List.iter
    (fun (what, config, expect) ->
      Alcotest.(check (list (pair string int)))
        (what ^ ": int8 B tensors and ldb")
        expect
        (List.map (fun (b, ldb, _, _) -> (b, ldb)) (brgemms (tir config int8))))
    [
      ("full", Core.default_config ~machine (), [ ("Bpack", 0); ("Kq", -64) ]);
      ("primitives", Gc_baseline.Baseline.config ~machine (), [ ("Bpack", 0); ("Bpack", 0) ]);
    ]

(* [read_plain], which layout propagation once set only with a whole-K
   tiling, marks exactly the matmuls whose brgemms read in place, tails
   included. On MHA at seq 33 and head dim 32 (M, N and P·V's K all have
   tails) the full pipeline sets it on both matmuls and no brgemm reads a
   pack buffer; the primitives set it on neither and pack all four
   operands. *)
let test_mha_whole_k_only_in_place () =
  let machine = Gc_microkernel.Machine.xeon_8358 in
  let g = (Gc_workloads.Mha.build_f32 ~batch:2 ~seq:33 ~hidden:128 ~heads:4 ()).graph in
  List.iter
    (fun (what, config, read_plain, packed) ->
      let c = Core.compile ~config g in
      Alcotest.(check int) (what ^ ": fused ops with read_plain") read_plain
        (List.length
           (List.filter
              (fun (f : Gc_lowering.Fused_op.t) ->
                match f.params with Some p -> p.Gc_lowering.Params.read_plain | None -> false)
              (Core.fused_graph c).fused));
      let operands =
        List.concat_map
          (fun (fn : func) ->
            Visit.fold_stmts
              ~stmt:(fun acc s ->
                match s with
                | Call ("brgemm", args) -> (
                    match Intrinsic.brgemm_args args with
                    | Some { a = Addr (a, _); b = Addr (b, _); _ } -> a.tname :: b.tname :: acc
                    | _ -> Alcotest.fail "brgemm with non-address operands")
                | _ -> acc)
              [] fn.body)
          (Core.tir_module c).funcs
      in
      Alcotest.(check int) (what ^ ": brgemm operands") 4 (List.length operands);
      List.iter
        (fun name ->
          Alcotest.(check bool) (what ^ ": " ^ name ^ " is a pack buffer") packed
            (String.starts_with ~prefix:"Apack" name || String.starts_with ~prefix:"Bpack" name))
        operands)
    [
      ("full", Core.default_config ~machine (), 2, false);
      ("primitives", Gc_baseline.Baseline.config ~machine (), 0, true);
    ]

(* Tails read in place: at seq 33 and head dim 32 the free tilings leave
   a tail on M = 33 and N = 33, and P·V's K = 33 one on the softmax
   output and V. Every brgemm reads its operands where they lie: Q and
   the softmax output as A rows [lda] apart, K as N×K rows, V as K×N rows,
   each call passing its tile's valid rows and the last K block's
   extent. The ragged tiles stay inside one head of the softmax output,
   so it still shrinks to one head's [33][33]. *)
let test_mha_tails_in_place () =
  let g = (Gc_workloads.Mha.build_f32 ~batch:2 ~seq:33 ~hidden:128 ~heads:4 ()).graph in
  let c = Core.compile ~config:(Core.default_config ~machine:Gc_microkernel.Machine.xeon_8358 ()) g in
  (* (A, B, ldb) of every brgemm, a function-local A named by its dims, and
     which of its M, N and K extents are the ragged ones (not the tile's
     constant) *)
  let brgemms =
    List.concat_map
      (fun (fn : func) ->
        Visit.fold_stmts
          ~stmt:(fun acc s ->
            match s with
            | Call ("brgemm", args) -> (
                match Intrinsic.brgemm_args args with
                | Some { a = Addr (a, _); b = Addr (b, _); ldb = Int ldb; mb; nb; kb; klast; _ } ->
                    let ragged e = match e with Int _ -> false | _ -> true in
                    let a =
                      if a.storage = Local then
                        "local" ^ String.concat "" (List.map (Printf.sprintf "[%d]") (Array.to_list a.dims))
                      else a.tname
                    in
                    ((a, b.tname, ldb), (ragged mb, ragged nb, klast <> kb)) :: acc
                | _ -> Alcotest.fail "brgemm with non-address or non-literal ldb")
            | _ -> acc)
          [] fn.body)
      (Core.tir_module c).funcs
    |> List.sort compare
  in
  Alcotest.(check (list (pair (triple string string int) (triple bool bool bool))))
    "brgemm operands and ragged extents"
    [ (("Q", "K", -32), (true, true, false)); (("local[1][1][33][33]", "V", 32), (true, false, true)) ]
    brgemms

(* ------------------------------------------------------------------ *)
(* Tensor shrink *)

let test_shrink_privatizes_into_parallel_loop () =
  (* a staging tensor indexed only by the parallel loop var in dim 0
     shrinks to extent 1 *)
  let y = fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| 4; 8 |] in
  let stage = fresh_tensor ~name:"stage" ~storage:Local Dtype.F32 [| 4; 8 |] in
  let b = fresh_var ~name:"b" Index and c = fresh_var ~name:"c" Index in
  let f =
    {
      fname = "f";
      params = [ Ptensor y ];
      body =
        [
          Alloc stage;
          loop ~parallel:true b 0 4
            [
              loop c 0 8
                [ Store (stage, [| Ir.v b; Ir.v c |], Binop (Mul, Ir.v b, Ir.v c)) ];
              loop c 0 8
                [ Store (y, [| Ir.v b; Ir.v c |], Load (stage, [| Ir.v b; Ir.v c |])) ];
            ];
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let m' = Tensor_shrink.run m in
  let f' = List.hd m'.funcs in
  (* find the shrunk tensor *)
  let shrunk =
    List.find_opt
      (fun (t : tensor) -> t.tname = "stage")
      (Visit.tensors_used f'.body)
  in
  (match shrunk with
  | Some t -> Alcotest.(check int) "dim0 shrunk" 1 t.dims.(0)
  | None -> Alcotest.fail "stage tensor missing");
  (* and it still runs correctly (sequential pool: privatization safe) *)
  let yb = Buffer.create Dtype.F32 32 in
  run_module m' [| yb |];
  Alcotest.(check (float 0.)) "y[3,5]" 15. (Buffer.get yb ((3 * 8) + 5))

let test_shrink_leaves_address_taken () =
  let t = fresh_tensor ~name:"t" ~storage:Local Dtype.F32 [| 4 |] in
  let y = fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| 4 |] in
  let f =
    {
      fname = "f";
      params = [ Ptensor y ];
      body =
        [
          Alloc t;
          Call ("zero", [ Addr (t, [| Int 0 |]); Int 4 ]);
          Call ("copy", [ Addr (y, [| Int 0 |]); Addr (t, [| Int 0 |]); Int 4 ]);
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let m' = Tensor_shrink.run m in
  let t' =
    List.find (fun (x : tensor) -> x.tname = "t")
      (Visit.tensors_used (List.hd m'.funcs).body)
  in
  Alcotest.(check int) "dims kept" 4 t'.dims.(0)

(* A local filled by [copy] and read by brgemm as one [2 × 8] A slab per
   parallel task [b], at [at b]; [y.(b)] gets the slab's two row sums. *)
let brgemm_slab_module ~dims ~at =
  let t = fresh_tensor ~name:"t" ~storage:Local Dtype.F32 dims in
  let src = fresh_tensor ~name:"src" ~storage:Param Dtype.F32 [| 64 |] in
  let ones = fresh_tensor ~name:"ones" ~storage:Param Dtype.F32 [| 8 |] in
  let y = fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| 4; 2 |] in
  let b = fresh_var ~name:"b" Index in
  let slab = Addr (t, at (Ir.v b)) in
  let body =
    [
      Alloc t;
      loop ~parallel:true b 0 4
        [
          Call ("copy", [ slab; Addr (src, [| Binop (Mul, Ir.v b, Int 16) |]); Int 16 ]);
          Call ("zero", [ Addr (y, [| Ir.v b; Int 0 |]); Int 2 ]);
          Call
            ( "brgemm",
              [
                Int 1; Int 2; Int 1; Int 8;
                slab; Int 16;
                Addr (ones, [| Int 0 |]); Int 8;
                Addr (y, [| Ir.v b; Int 0 |]);
              ] );
        ];
    ]
  in
  let f = { fname = "f"; params = [ Ptensor src; Ptensor ones; Ptensor y ]; body } in
  { funcs = [ f ]; entry = "f"; init = None; globals = [] }

(* shrink, check [t]'s dims, and run: row r of [y] sums src[8r .. 8r+7] *)
let check_slab_shrink ~what m expect_dims =
  let m' = Tensor_shrink.run m in
  let t' =
    List.find (fun (x : tensor) -> x.tname = "t")
      (Visit.tensors_used (List.hd m'.funcs).body)
  in
  Alcotest.(check (list int)) what expect_dims (Array.to_list t'.dims);
  let src = Buffer.create Dtype.F32 64 and ones = Buffer.create Dtype.F32 8 in
  for i = 0 to 63 do Buffer.set src i (float_of_int i) done;
  for i = 0 to 7 do Buffer.set ones i 1. done;
  let y = Buffer.create Dtype.F32 8 in
  run_module m' [| src; ones; y |];
  for r = 0 to 7 do
    Alcotest.(check (float 0.)) (Printf.sprintf "y row %d" r)
      (float_of_int ((64 * r) + 28)) (Buffer.get y r)
  done

let test_shrink_addr_slab_inside () =
  (* every Addr indexes dim 0 with the task variable, and the 16-element
     slab stays inside the trailing [2][8]: dim 0 shrinks *)
  check_slab_shrink ~what:"dim 0 shrunk"
    (brgemm_slab_module ~dims:[| 4; 2; 8 |] ~at:(fun b -> [| b; Int 0; Int 0 |]))
    [ 1; 2; 8 ]

(* A local [t : [4][2][8]] filled by task [b] with src[16b ..] and read
   by brgemm as B in K×N form: two rows of eight columns, [ldb] apart, from
   &t[b, 0, 0], against a ones A ([1 × 2]). At [ldb = 8] the rows are
   t[b]'s own and dim 0 shrinks; at [ldb = 16] the second row is t[b + 1]'s
   first (zero in the task's own sunk copy), so the reach
   [(kb - 1)·ldb + nb = 24] crosses the trailing [2][8] and dim 0 stays. *)
let check_kxn_shrink ~ldb expect_dims =
  let t = fresh_tensor ~name:"t" ~storage:Local Dtype.F32 [| 4; 2; 8 |] in
  let src = fresh_tensor ~name:"src" ~storage:Param Dtype.F32 [| 64 |] in
  let ones = fresh_tensor ~name:"ones" ~storage:Param Dtype.F32 [| 2 |] in
  let y = fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| 3; 8 |] in
  let b = fresh_var ~name:"b" Index in
  let at = Addr (t, [| Ir.v b; Int 0; Int 0 |]) in
  let body =
    [
      Alloc t;
      loop ~parallel:true b 0 3
        [
          Call ("copy", [ at; Addr (src, [| Binop (Mul, Ir.v b, Int 16) |]); Int 16 ]);
          Call ("zero", [ Addr (y, [| Ir.v b; Int 0 |]); Int 8 ]);
          Call
            ( "brgemm",
              [
                Int 1; Int 1; Int 8; Int 2;
                Addr (ones, [| Int 0 |]); Int 2;
                at; Int 16;
                Addr (y, [| Ir.v b; Int 0 |]); Int ldb; Int 8;
              ] );
        ];
    ]
  in
  let f = { fname = "f"; params = [ Ptensor src; Ptensor ones; Ptensor y ]; body } in
  let m' = Tensor_shrink.run { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let t' =
    List.find (fun (x : tensor) -> x.tname = "t") (Visit.tensors_used (List.hd m'.funcs).body)
  in
  Alcotest.(check (list int)) "t dims" expect_dims (Array.to_list t'.dims);
  let srcb = Buffer.create Dtype.F32 64 and onesb = Buffer.create Dtype.F32 2 in
  for i = 0 to 63 do Buffer.set srcb i (float_of_int i) done;
  for i = 0 to 1 do Buffer.set onesb i 1. done;
  let yb = Buffer.create Dtype.F32 24 in
  run_module m' [| srcb; onesb; yb |];
  for r = 0 to 2 do
    for n = 0 to 7 do
      let expect = (16 * r) + n + if ldb = 8 then (16 * r) + 8 + n else 0 in
      Alcotest.(check (float 0.)) (Printf.sprintf "y[%d, %d]" r n) (float_of_int expect)
        (Buffer.get yb ((8 * r) + n))
    done
  done

(* The C side: task [b] accumulates a [2 × 4] tile (each row src[0..3],
   from a ones A) into a local [c : [4][2][8]] at &c[b, 0, 0] with rows
   [ldc] apart, then copies c[b] out. At [ldc = 8] the tile's reach
   [(mb - 1)·ldc + nb = 12] stays in the trailing [2][8] and dim 0
   shrinks; at [ldc = 16] it is 20, so dim 0 stays (row 1 lands in
   c[b + 1] and y's second row reads zeros). *)
let check_ldc_shrink ~ldc expect_dims =
  let c = fresh_tensor ~name:"c" ~storage:Local Dtype.F32 [| 4; 2; 8 |] in
  let src = fresh_tensor ~name:"src" ~storage:Param Dtype.F32 [| 4 |] in
  let ones = fresh_tensor ~name:"ones" ~storage:Param Dtype.F32 [| 2 |] in
  let y = fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| 3; 16 |] in
  let b = fresh_var ~name:"b" Index in
  let at = Addr (c, [| Ir.v b; Int 0; Int 0 |]) in
  let body =
    [
      Alloc c;
      loop ~parallel:true b 0 3
        [
          Call
            ( "brgemm",
              [
                Int 1; Int 2; Int 4; Int 1;
                Addr (ones, [| Int 0 |]); Int 2;
                Addr (src, [| Int 0 |]); Int 4;
                at; Int 0; Int ldc;
              ] );
          Call ("copy", [ Addr (y, [| Ir.v b; Int 0 |]); at; Int 16 ]);
        ];
    ]
  in
  let f = { fname = "f"; params = [ Ptensor src; Ptensor ones; Ptensor y ]; body } in
  let m' = Tensor_shrink.run { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let c' =
    List.find (fun (x : tensor) -> x.tname = "c") (Visit.tensors_used (List.hd m'.funcs).body)
  in
  Alcotest.(check (list int)) "c dims" expect_dims (Array.to_list c'.dims);
  let srcb = Buffer.create Dtype.F32 4 and onesb = Buffer.create Dtype.F32 2 in
  for i = 0 to 3 do Buffer.set srcb i (float_of_int (i + 1)) done;
  for i = 0 to 1 do Buffer.set onesb i 1. done;
  let yb = Buffer.create Dtype.F32 48 in
  run_module m' [| srcb; onesb; yb |];
  for r = 0 to 2 do
    for i = 0 to 15 do
      let col = i mod 8 in
      let expect = if col < 4 && (i < 8 || ldc = 8) then col + 1 else 0 in
      Alcotest.(check (float 0.)) (Printf.sprintf "y[%d, %d]" r i) (float_of_int expect)
        (Buffer.get yb ((16 * r) + i))
    done
  done

let test_shrink_kxn_rows () =
  check_kxn_shrink ~ldb:8 [ 1; 2; 8 ];
  check_kxn_shrink ~ldb:16 [ 4; 2; 8 ];
  check_ldc_shrink ~ldc:8 [ 1; 2; 8 ];
  check_ldc_shrink ~ldc:16 [ 4; 2; 8 ]

let test_shrink_addr_slab_crossing () =
  (* task b owns rows 2b and 2b + 1 of [8][8]: every site indexes dim 0
     with the same task-invariant 2b, but the slab runs on into row
     2b + 1, so dim 0 must not shrink *)
  check_slab_shrink ~what:"dim 0 kept"
    (brgemm_slab_module ~dims:[| 8; 8 |] ~at:(fun b -> [| Binop (Mul, b, Int 2); Int 0 |]))
    [ 8; 8 ]

(* ------------------------------------------------------------------ *)
(* DSE *)

let test_dse_removes_unread_local () =
  let dead = fresh_tensor ~name:"dead" ~storage:Local Dtype.F32 [| 8 |] in
  let y = fresh_tensor ~name:"y" ~storage:Param Dtype.F32 [| 8 |] in
  let i = fresh_var Index in
  let f =
    {
      fname = "f";
      params = [ Ptensor y ];
      body =
        [
          Alloc dead;
          loop i 0 8
            [
              Store (dead, [| Ir.v i |], Int 1);
              Store (y, [| Ir.v i |], Int 2);
            ];
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let m' = Dse.run m in
  let f' = List.hd m'.funcs in
  Alcotest.(check bool) "dead store gone" false
    (List.exists (fun (t : tensor) -> tensor_equal t dead) (Visit.tensors_used f'.body))

let test_dse_keeps_param_stores () =
  let y = fresh_tensor ~storage:Param Dtype.F32 [| 2 |] in
  let f =
    { fname = "f"; params = [ Ptensor y ]; body = [ Store (y, [| Int 0 |], Int 1) ] }
  in
  let m = { funcs = [ f ]; entry = "f"; init = None; globals = [] } in
  let m' = Dse.run m in
  Alcotest.(check int) "kept" 1 (List.length (List.hd m'.funcs).body)

(* ------------------------------------------------------------------ *)
(* Buffer planner *)

let entry_with_intermediates n_bufs =
  (* chain of copy calls through n intermediates with disjoint lifetimes *)
  let src = fresh_tensor ~name:"src" ~storage:Param Dtype.F32 [| 16 |] in
  let dst = fresh_tensor ~name:"dst" ~storage:Param Dtype.F32 [| 16 |] in
  let temps =
    List.init n_bufs (fun i ->
        fresh_tensor ~name:(Printf.sprintf "tmp%d" i) ~storage:Local Dtype.F32 [| 16 |])
  in
  let z = [| Int 0 |] in
  let rec chain prev = function
    | [] -> [ Call ("copy", [ Addr (dst, z); Addr (prev, z); Int 16 ]) ]
    | t :: rest ->
        Call ("copy", [ Addr (t, z); Addr (prev, z); Int 16 ]) :: chain t rest
  in
  let body = List.map (fun t -> Alloc t) temps @ chain src temps in
  let f = { fname = "entry"; params = [ Ptensor src; Ptensor dst ]; body } in
  { funcs = [ f ]; entry = "entry"; init = None; globals = [] }

let test_planner_reuses_disjoint_lifetimes () =
  let m = entry_with_intermediates 4 in
  let m', stats = Buffer_schedule.run m in
  Alcotest.(check int) "4 before" 4 stats.buffers_before;
  (* t0 dies when t1 is filled; t2 can reuse t0's arena, etc *)
  Alcotest.(check bool) "fewer arenas" true (stats.buffers_after <= 2);
  Alcotest.(check bool) "bytes reduced" true (stats.planned_bytes < stats.naive_bytes);
  (* correctness through the arena rewrite *)
  let src = Buffer.create Dtype.F32 16 and dst = Buffer.create Dtype.F32 16 in
  for i = 0 to 15 do Buffer.set src i (float_of_int (i * i)) done;
  run_module m' [| src; dst |];
  Alcotest.(check (float 0.)) "copied through" 49. (Buffer.get dst 7)

let test_planner_no_reuse_when_overlapping () =
  (* two temps both read at the end: lifetimes overlap, no reuse *)
  let src = fresh_tensor ~name:"src" ~storage:Param Dtype.F32 [| 8 |] in
  let dst = fresh_tensor ~name:"dst" ~storage:Param Dtype.F32 [| 8 |] in
  let a = fresh_tensor ~name:"a" ~storage:Local Dtype.F32 [| 8 |] in
  let b = fresh_tensor ~name:"b" ~storage:Local Dtype.F32 [| 8 |] in
  let z = [| Int 0 |] in
  let f =
    {
      fname = "entry";
      params = [ Ptensor src; Ptensor dst ];
      body =
        [
          Alloc a; Alloc b;
          Call ("copy", [ Addr (a, z); Addr (src, z); Int 8 ]);
          Call ("copy", [ Addr (b, z); Addr (src, z); Int 8 ]);
          Call ("copy", [ Addr (dst, z); Addr (a, z); Int 8 ]);
          Call ("copy", [ Addr (dst, z); Addr (b, z); Int 8 ]);
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "entry"; init = None; globals = [] } in
  let _, stats = Buffer_schedule.run m in
  Alcotest.(check int) "two arenas" 2 stats.buffers_after

let test_planner_dtype_separation () =
  let dst = fresh_tensor ~name:"dst" ~storage:Param Dtype.F32 [| 8 |] in
  let a = fresh_tensor ~name:"a" ~storage:Local Dtype.F32 [| 8 |] in
  let b = fresh_tensor ~name:"b" ~storage:Local Dtype.S32 [| 8 |] in
  let z = [| Int 0 |] in
  let f =
    {
      fname = "entry";
      params = [ Ptensor dst ];
      body =
        [
          Alloc a; Alloc b;
          Call ("zero", [ Addr (a, z); Int 8 ]);
          Call ("copy", [ Addr (dst, z); Addr (a, z); Int 8 ]);
          Call ("zero", [ Addr (b, z); Int 8 ]);
          Call ("copy", [ Addr (dst, z); Addr (b, z); Int 8 ]);
        ];
    }
  in
  let m = { funcs = [ f ]; entry = "entry"; init = None; globals = [] } in
  let _, stats = Buffer_schedule.run m in
  (* b could reuse a's slot lifetimes-wise, but dtypes differ *)
  Alcotest.(check int) "dtype-separated arenas" 2 stats.buffers_after

let test_alloc_plan_exports_sites () =
  (* top-level f32 local + loop-sunk s32 local: the plan lists both, in
     first-appearance order, deduplicated across loop iterations *)
  let dst = fresh_tensor ~name:"dst" ~storage:Param Dtype.F32 [| 8 |] in
  let a = fresh_tensor ~name:"a" ~storage:Local Dtype.F32 [| 8 |] in
  let b = fresh_tensor ~name:"b" ~storage:Local Dtype.S32 [| 4 |] in
  let i = fresh_var ~name:"i" Index in
  let z = [| Int 0 |] in
  let f =
    {
      fname = "entry";
      params = [ Ptensor dst ];
      body =
        [
          Alloc a;
          Call ("zero", [ Addr (a, z); Int 8 ]);
          loop i 0 3
            [ Alloc b; Call ("zero", [ Addr (b, z); Int 4 ]) ];
          Call ("copy", [ Addr (dst, z); Addr (a, z); Int 8 ]);
        ];
    }
  in
  let plan = Buffer_schedule.alloc_plan f in
  Alcotest.(check int) "two sites" 2 (Array.length plan);
  Alcotest.(check bool) "first-appearance order" true
    (plan.(0).Buffer_schedule.slot_tensor.tid = a.tid
    && plan.(1).Buffer_schedule.slot_tensor.tid = b.tid);
  Alcotest.(check int) "f32 numel" 8 plan.(0).Buffer_schedule.slot_numel;
  Alcotest.(check int) "f32 bytes" 32 plan.(0).Buffer_schedule.slot_bytes;
  Alcotest.(check int) "s32 bytes" 16 plan.(1).Buffer_schedule.slot_bytes;
  Alcotest.(check int) "plan bytes" 48 (Buffer_schedule.plan_bytes plan)

(* The planner linearizes arena accesses after [Simplify] has run, so it
   must fold that arithmetic itself: every arena index the full pipeline
   emits is already a fixed point of [Simplify.expr]. *)
let test_arena_indices_simplified () =
  let accesses = ref 0 in
  let check name (f : func) (t : tensor) idx =
    if String.starts_with ~prefix:"arena" t.tname then
      Array.iter
        (fun e ->
          incr accesses;
          if Simplify.expr e <> e then
            Alcotest.failf "%s: %s indexes %s with unsimplified %s" name
              f.fname t.tname (Printer.expr_to_string e))
        idx
  in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun (f : func) ->
          Visit.iter_stmts
            ~expr:(function
              | Load (t, idx) | Addr (t, idx) -> check name f t idx
              | _ -> ())
            ~stmt:(function Store (t, idx, _) -> check name f t idx | _ -> ())
            f.body)
        m.funcs)
    (pipeline_modules ());
  Alcotest.(check bool) "modules access arenas" true (!accesses > 0)

(* ------------------------------------------------------------------ *)
(* optimizer fuzzer: random loop programs must compute the same thing
   before and after the whole Tensor IR pipeline *)

let gen_program =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* depth = int_range 1 2 in
    let* ops = list_size (int_range 1 6) (int_range 0 5) in
    let* tag_pair = bool in
    return (n, depth, ops, tag_pair))

let build_program (n, depth, ops, tag_pair) =
  let src = fresh_tensor ~name:"src" ~storage:Param Dtype.F32 [| n |] in
  let dst = fresh_tensor ~name:"dst" ~storage:Param Dtype.F32 [| n |] in
  let tmp = fresh_tensor ~name:"tmp" ~storage:Local Dtype.F32 [| n |] in
  let i = fresh_var ~name:"i" Index in
  let stmt_of op target idx : stmt =
    let load t = Load (t, [| idx |]) in
    match op with
    | 0 -> Store (target, [| idx |], Binop (Add, load src, Float 1.))
    | 1 -> Store (target, [| idx |], Binop (Mul, load tmp, Float 2.))
    | 2 -> Store (target, [| idx |], Unop (Tanh, load src))
    | 3 -> Store (target, [| idx |], Binop (Max, load src, load tmp))
    | 4 -> Store (target, [| idx |], Select (Binop (Lt, idx, Int (n / 2)), load src, Float 0.5))
    | _ -> Store (target, [| idx |], Binop (Sub, load tmp, load src))
  in
  let body_of idx =
    List.mapi
      (fun j op -> stmt_of op (if j mod 2 = 0 then tmp else dst) idx)
      ops
  in
  let inner =
    if depth = 1 then
      [ For { v = i; lo = Int 0; hi = Int n; step = Int 1;
              body = body_of (Ir.v i); parallel = false;
              merge_tag = (if tag_pair then Some 99 else None) } ]
    else begin
      let j = fresh_var ~name:"j" Index in
      [ For { v = i; lo = Int 0; hi = Int (max 1 (n / 2)); step = Int 1;
              parallel = false; merge_tag = None;
              body =
                [ For { v = j; lo = Int 0; hi = Int 2; step = Int 1;
                        parallel = false; merge_tag = None;
                        body = body_of (Binop (Add, Binop (Mul, Ir.v i, Int 2), Ir.v j)) } ] } ]
    end
  in
  (* optionally a second same-tag loop to exercise merging *)
  let second =
    if tag_pair && depth = 1 then
      let k = fresh_var ~name:"k" Index in
      [ For { v = k; lo = Int 0; hi = Int n; step = Int 1;
              parallel = false; merge_tag = Some 99;
              body = [ Store (dst, [| Ir.v k |],
                              Binop (Add, Load (dst, [| Ir.v k |]), Load (tmp, [| Ir.v k |]))) ] } ]
    else []
  in
  let f =
    { fname = "entry"; params = [ Ptensor src; Ptensor dst ];
      body = (Alloc tmp :: inner) @ second }
  in
  { funcs = [ f ]; entry = "entry"; init = None; globals = [] }

let run_program m n =
  let src = Buffer.create Dtype.F32 n and dst = Buffer.create Dtype.F32 n in
  for idx = 0 to n - 1 do
    Buffer.set src idx (sin (float_of_int (idx + 1)))
  done;
  let engine = Engine.create ~pool m in
  Engine.run_entry engine [| src; dst |];
  Array.init n (fun idx -> Buffer.get dst idx)

let prop_pipeline_preserves_semantics =
  QCheck.Test.make ~name:"TIR pipeline preserves program semantics" ~count:60
    (QCheck.make gen_program)
    (fun spec ->
      let (n, _, _, _) = spec in
      let m = build_program spec in
      QCheck.assume (Result.is_ok (Check.check_module m));
      let before = run_program m n in
      let m', _ = Tir_pipeline.run m in
      (match Check.check_module m' with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "optimized module ill-formed: %s" e);
      let after = run_program m' n in
      Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-6) before after)

let () =
  Alcotest.run "gc_tir_passes"
    [
      ( "loop_merge",
        [
          Alcotest.test_case "merges tagged" `Quick test_loop_merge_merges_tagged;
          Alcotest.test_case "different tags" `Quick test_loop_merge_skips_different_tags;
          Alcotest.test_case "different bounds" `Quick test_loop_merge_skips_different_bounds;
          Alcotest.test_case "hoists allocs" `Quick test_loop_merge_hoists_allocs_and_const_assigns;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "constants" `Quick test_simplify_constants;
          Alcotest.test_case "trip-1 loop" `Quick test_simplify_trip1_loop;
          Alcotest.test_case "empty loop" `Quick test_simplify_empty_loop_removed;
          Alcotest.test_case "decidable if" `Quick test_simplify_decidable_if;
          Alcotest.test_case "block index" `Quick test_simplify_block_index;
        ] );
      ( "forward_store",
        [
          Alcotest.test_case "collapses chain" `Quick test_forward_store_collapses_chain;
          Alcotest.test_case "aliasing" `Quick test_forward_store_respects_aliasing;
          Alcotest.test_case "direct store when unread" `Quick
            test_forward_store_keeps_direct_store;
          Alcotest.test_case "pipelines leave no unread assign" `Quick
            test_pipelines_leave_no_unread_assign;
          Alcotest.test_case "mlp_1 reads blocked A in place" `Quick
            test_mlp1_reads_blocked_a;
          Alcotest.test_case "plain A read in place" `Quick test_plain_a_read_in_place;
          Alcotest.test_case "guards test only tail axes" `Quick test_guards_only_tail_axes;
          Alcotest.test_case "mha reads whole-K operands in place" `Quick
            test_mha_reads_whole_k_in_place;
          Alcotest.test_case "mha whole-K only when read in place" `Quick
            test_mha_whole_k_only_in_place;
          Alcotest.test_case "mha seq 33 reads tails in place" `Quick
            test_mha_tails_in_place;
          Alcotest.test_case "mha P·V reads V and writes C in place" `Quick
            test_mha_pv_in_place;
        ] );
      ( "tensor_shrink",
        [
          Alcotest.test_case "privatizes" `Quick test_shrink_privatizes_into_parallel_loop;
          Alcotest.test_case "address taken kept" `Quick test_shrink_leaves_address_taken;
          Alcotest.test_case "brgemm slab inside shrinks" `Quick test_shrink_addr_slab_inside;
          Alcotest.test_case "brgemm K×N rows and C tile reach" `Quick test_shrink_kxn_rows;
          Alcotest.test_case "slab crossing a dim kept" `Quick test_shrink_addr_slab_crossing;
        ] );
      ( "dse",
        [
          Alcotest.test_case "removes unread" `Quick test_dse_removes_unread_local;
          Alcotest.test_case "keeps params" `Quick test_dse_keeps_param_stores;
        ] );
      ( "buffer_schedule",
        [
          Alcotest.test_case "reuses disjoint" `Quick test_planner_reuses_disjoint_lifetimes;
          Alcotest.test_case "no overlap reuse" `Quick test_planner_no_reuse_when_overlapping;
          Alcotest.test_case "dtype separation" `Quick test_planner_dtype_separation;
          Alcotest.test_case "alloc plan exports sites" `Quick
            test_alloc_plan_exports_sites;
          Alcotest.test_case "arena indices simplified" `Quick
            test_arena_indices_simplified;
        ] );
      ( "fuzzer",
        [ QCheck_alcotest.to_alcotest prop_pipeline_preserves_semantics ] );
    ]
