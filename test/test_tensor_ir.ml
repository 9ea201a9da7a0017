(* Tests for the Tensor IR layer: IR construction helpers, the C-like
   printer, the well-formedness checker, visitors, and intrinsics. *)

open Gc_tensor
open Gc_tensor_ir
open Ir

let simple_loop n body_of =
  let i = fresh_var ~name:"i" Index in
  For
    {
      v = i; lo = Int 0; hi = Int n; step = Int 1;
      body = body_of i; parallel = false; merge_tag = None;
    }

(* ------------------------------------------------------------------ *)
(* IR basics *)

let test_tensor_numel_bytes () =
  let t = fresh_tensor Dtype.F32 [| 2; 3; 4 |] in
  Alcotest.(check int) "numel" 24 (tensor_numel t);
  Alcotest.(check int) "bytes" 96 (tensor_bytes t);
  let t8 = fresh_tensor Dtype.S8 [| 10 |] in
  Alcotest.(check int) "s8 bytes" 10 (tensor_bytes t8)

let test_fresh_tensor_rejects_bad_dims () =
  Alcotest.(check bool) "zero dim" true
    (try ignore (fresh_tensor Dtype.F32 [| 2; 0 |]); false
     with Invalid_argument _ -> true)

let test_linear_index () =
  let e = linear_index [| 3; 4; 5 |] [| Int 2; Int 1; Int 3 |] in
  (* evaluate by structural fold *)
  let rec eval = function
    | Int i -> i
    | Binop (Add, a, b) -> eval a + eval b
    | Binop (Mul, a, b) -> eval a * eval b
    | _ -> failwith "unexpected"
  in
  Alcotest.(check int) "linear" ((2 * 20) + (1 * 5) + 3) (eval e)

let test_infix_builders () =
  let open Ir.Infix in
  match Ir.int 1 + Ir.int 2 with
  | Binop (Add, Int 1, Int 2) -> ()
  | _ -> Alcotest.fail "infix add"

(* ------------------------------------------------------------------ *)
(* Printer *)

let test_printer_c_like () =
  let t = fresh_tensor ~name:"A" ~storage:Param Dtype.F32 [| 4; 4 |] in
  let f =
    {
      fname = "f";
      params = [ Ptensor t ];
      body =
        [
          simple_loop 4 (fun i ->
              [ Store (t, [| Ir.v i; Int 0 |], Binop (Mul, Ir.v i, Int 2)) ]);
        ];
    }
  in
  let s = Printer.func_to_string f in
  List.iter
    (fun frag ->
      if not (String.length s >= String.length frag) then Alcotest.fail "short";
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ frag) true (contains s frag))
    [ "func f"; "for (i"; "A["; "* 2" ]

let test_printer_parallel_and_tags () =
  let i = fresh_var ~name:"p" Index in
  let s =
    Format.asprintf "%a" Printer.pp_stmt
      (For
         {
           v = i; lo = Int 0; hi = Int 8; step = Int 1; body = [ Barrier ];
           parallel = true; merge_tag = Some 7;
         })
  in
  Alcotest.(check bool) "parallel_for" true
    (String.length s > 0 && String.sub s 0 12 = "parallel_for");
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "tag shown" true (contains s "mergeable #7")

let test_printer_disambiguates_shared_names () =
  (* a fused softmax's max and sum accumulators are both "racc": each
     prints with its vid; a name used by one variable prints plain *)
  let t = fresh_tensor ~name:"T" ~storage:Param Dtype.F32 [| 4 |] in
  let mx = fresh_var ~name:"racc" (Scalar Dtype.F32) in
  let sum = fresh_var ~name:"racc" (Scalar Dtype.F32) in
  let i = fresh_var ~name:"i" Index in
  let loop body = For { v = i; lo = Int 0; hi = Int 4; step = Int 1; body;
                        parallel = false; merge_tag = None } in
  let f =
    {
      fname = "f";
      params = [ Ptensor t ];
      body =
        [
          Assign (mx, Float neg_infinity);
          loop [ Assign (mx, Binop (Max, Var mx, Load (t, [| Var i |]))) ];
          Assign (sum, Float 0.);
          loop [ Assign (sum, Binop (Add, Var sum, Binop (Sub, Load (t, [| Var i |]), Var mx))) ];
        ];
    }
  in
  let name v = Printf.sprintf "racc_%d" v.vid in
  Alcotest.(check string) "suffixed"
    (String.concat "\n"
       [
         "func f(f32 T[4]) {";
         Printf.sprintf "  %s = -inf;" (name mx);
         "  for (i = 0; i < 4; i += 1) {";
         Printf.sprintf "    %s = max(%s, T[i]);" (name mx) (name mx);
         "  }";
         Printf.sprintf "  %s = 0;" (name sum);
         "  for (i = 0; i < 4; i += 1) {";
         Printf.sprintf "    %s = (%s + (T[i] - %s));" (name sum) (name sum) (name mx);
         "  }";
         "}";
       ])
    (Printer.func_to_string f);
  (* without a collision the function prints exactly as before *)
  let g = { f with body = [ Assign (mx, Float 1.); Store (t, [| Int 0 |], Var mx) ] } in
  Alcotest.(check string) "plain" "func f(f32 T[4]) {\n  racc = 1;\n  T[0] = racc;\n}"
    (Printer.func_to_string g)

(* ------------------------------------------------------------------ *)
(* Checker *)

let test_check_accepts_valid () =
  let t = fresh_tensor ~name:"T" ~storage:Param Dtype.F32 [| 8 |] in
  let f =
    {
      fname = "ok";
      params = [ Ptensor t ];
      body = [ simple_loop 8 (fun i -> [ Store (t, [| Ir.v i |], Float 1.) ]) ];
    }
  in
  Alcotest.(check bool) "ok" true (Result.is_ok (Check.check_func ~known_funcs:[] f))

let test_check_unbound_var () =
  let t = fresh_tensor ~storage:Param Dtype.F32 [| 8 |] in
  let ghost = fresh_var Index in
  let f =
    { fname = "bad"; params = [ Ptensor t ];
      body = [ Store (t, [| Ir.v ghost |], Float 0.) ] }
  in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Check.check_func ~known_funcs:[] f))

let test_check_rank_mismatch () =
  let t = fresh_tensor ~storage:Param Dtype.F32 [| 2; 2 |] in
  let f =
    { fname = "bad"; params = [ Ptensor t ]; body = [ Store (t, [| Int 0 |], Float 0.) ] }
  in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Check.check_func ~known_funcs:[] f))

let test_check_local_needs_alloc () =
  let t = fresh_tensor ~storage:Local Dtype.F32 [| 2 |] in
  let f =
    { fname = "bad"; params = []; body = [ Store (t, [| Int 0 |], Float 0.) ] }
  in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Check.check_func ~known_funcs:[] f));
  let ok = { f with body = Alloc t :: f.body } in
  Alcotest.(check bool) "alloc fixes" true
    (Result.is_ok (Check.check_func ~known_funcs:[] ok))

let test_check_intrinsic_arity () =
  let t = fresh_tensor ~storage:Param Dtype.F32 [| 4 |] in
  let bad =
    { fname = "bad"; params = [ Ptensor t ];
      body = [ Call ("zero", [ Addr (t, [| Int 0 |]) ]) ] }
  in
  Alcotest.(check bool) "bad arity" true
    (Result.is_error (Check.check_func ~known_funcs:[] bad));
  let ok =
    { bad with body = [ Call ("zero", [ Addr (t, [| Int 0 |]); Int 4 ]) ] }
  in
  Alcotest.(check bool) "ok arity" true (Result.is_ok (Check.check_func ~known_funcs:[] ok))

let test_check_unknown_call () =
  let f = { fname = "bad"; params = []; body = [ Call ("mystery", []) ] } in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Check.check_func ~known_funcs:[] f));
  Alcotest.(check bool) "known sibling ok" true
    (Result.is_ok (Check.check_func ~known_funcs:[ ("mystery", 0) ] f))

let test_check_module_entry () =
  let m = { funcs = []; entry = "nope"; init = None; globals = [] } in
  Alcotest.(check bool) "missing entry" true (Result.is_error (Check.check_module m))

(* ------------------------------------------------------------------ *)
(* Visitors *)

let test_visit_map_expr () =
  let e = Binop (Add, Int 1, Binop (Mul, Int 2, Int 3)) in
  (* replace every Int with Int 0 *)
  let e' = Visit.map_expr (fun e -> match e with Int _ -> Int 0 | e -> e) e in
  match e' with
  | Binop (Add, Int 0, Binop (Mul, Int 0, Int 0)) -> ()
  | _ -> Alcotest.fail "rewrite failed"

let test_visit_tensors_used_and_written () =
  let a = fresh_tensor ~name:"a" ~storage:Param Dtype.F32 [| 4 |] in
  let b = fresh_tensor ~name:"b" ~storage:Param Dtype.F32 [| 4 |] in
  let c = fresh_tensor ~name:"c" ~storage:Local Dtype.F32 [| 4 |] in
  let body =
    [
      Alloc c;
      simple_loop 4 (fun i ->
          [ Store (c, [| Ir.v i |], Load (a, [| Ir.v i |])) ]);
      Call ("copy", [ Addr (b, [| Int 0 |]); Addr (c, [| Int 0 |]); Int 4 ]);
    ]
  in
  let used = Visit.tensors_used body in
  Alcotest.(check int) "three used" 3 (List.length used);
  let written = Visit.tensors_written body in
  (* c stored; b and c address-taken in the call *)
  Alcotest.(check bool) "c written" true (List.exists (tensor_equal c) written);
  Alcotest.(check bool) "b written (addr)" true (List.exists (tensor_equal b) written);
  Alcotest.(check bool) "a not written" false
    (List.exists (tensor_equal a) (Visit.tensors_written [ List.nth body 1 ]))

let test_visit_subst_tensor () =
  let a = fresh_tensor ~name:"a" ~storage:Local Dtype.F32 [| 4 |] in
  let b = fresh_tensor ~name:"b" ~storage:Local Dtype.F32 [| 2; 2 |] in
  let body =
    [ Alloc a; simple_loop 4 (fun i -> [ Store (a, [| Ir.v i |], Float 0.) ]) ]
  in
  let body' =
    Visit.subst_tensor a ~by:b
      ~index:(fun idx -> [| Binop (Div, idx.(0), Int 2); Binop (Mod, idx.(0), Int 2) |])
      body
  in
  let used = Visit.tensors_used body' in
  Alcotest.(check bool) "a gone" false (List.exists (tensor_equal a) used);
  Alcotest.(check bool) "b present" true (List.exists (tensor_equal b) used)

let test_intrinsics_registry () =
  Alcotest.(check int) "brgemm arity" 9 Intrinsic.brgemm.arity;
  Alcotest.(check bool) "lookup" true (Intrinsic.lookup "copy" <> None);
  Alcotest.(check bool) "unknown" true (Intrinsic.lookup "nope" = None)

let () =
  Alcotest.run "gc_tensor_ir"
    [
      ( "ir",
        [
          Alcotest.test_case "numel/bytes" `Quick test_tensor_numel_bytes;
          Alcotest.test_case "bad dims" `Quick test_fresh_tensor_rejects_bad_dims;
          Alcotest.test_case "linear index" `Quick test_linear_index;
          Alcotest.test_case "infix" `Quick test_infix_builders;
        ] );
      ( "printer",
        [
          Alcotest.test_case "c-like" `Quick test_printer_c_like;
          Alcotest.test_case "parallel + tags" `Quick test_printer_parallel_and_tags;
          Alcotest.test_case "shared names" `Quick test_printer_disambiguates_shared_names;
        ] );
      ( "check",
        [
          Alcotest.test_case "accepts valid" `Quick test_check_accepts_valid;
          Alcotest.test_case "unbound var" `Quick test_check_unbound_var;
          Alcotest.test_case "rank mismatch" `Quick test_check_rank_mismatch;
          Alcotest.test_case "local needs alloc" `Quick test_check_local_needs_alloc;
          Alcotest.test_case "intrinsic arity" `Quick test_check_intrinsic_arity;
          Alcotest.test_case "unknown call" `Quick test_check_unknown_call;
          Alcotest.test_case "module entry" `Quick test_check_module_entry;
        ] );
      ( "visit",
        [
          Alcotest.test_case "map_expr" `Quick test_visit_map_expr;
          Alcotest.test_case "tensors used/written" `Quick test_visit_tensors_used_and_written;
          Alcotest.test_case "subst tensor" `Quick test_visit_subst_tensor;
          Alcotest.test_case "intrinsics" `Quick test_intrinsics_registry;
        ] );
    ]
