open Gc_tensor_ir
open Ir

(* structural key for (tensor, index expressions) *)
let key (t : tensor) idx = (t.tid, idx)

(* [scalars] maps the id of every scalar this pass introduces to whether
   some load was forwarded to it *)
let rec rewrite_expr scalars bindings (e : expr) =
  Visit.map_expr
    (fun e ->
      match e with
      | Load (t, idx) -> (
          match Hashtbl.find_opt bindings (key t idx) with
          | Some v ->
              Hashtbl.replace scalars v.vid true;
              Var v
          | None -> e)
      | e -> e)
    e

and forward_list scalars (stmts : stmt list) : stmt list =
  let rewrite_expr = rewrite_expr scalars in
  let bindings : (int * expr array, var) Hashtbl.t = Hashtbl.create 16 in
  let invalidate_tensor (t : tensor) =
    Hashtbl.iter
      (fun ((tid, _) as k) _ -> if tid = t.tid then Hashtbl.remove bindings k)
      (Hashtbl.copy bindings)
  in
  List.map
    (fun s ->
      match s with
      | Store (t, idx, e) ->
          let e = rewrite_expr bindings e in
          let idx = Array.map (rewrite_expr bindings) idx in
          if t.storage = Local then begin
            let v = Ir.fresh_var ~name:(t.tname ^ "_s") (Scalar t.tdtype) in
            Hashtbl.replace scalars v.vid false;
            (* a store at a different index may alias an earlier binding of
               the same tensor: drop them *)
            invalidate_tensor t;
            Hashtbl.replace bindings (key t idx) v;
            (* bundle the scalar definition with the store *)
            If (Int 1, [ Assign (v, e); Store (t, idx, Var v) ], [])
          end
          else Store (t, idx, e)
      | Assign (v, e) -> Assign (v, rewrite_expr bindings e)
      | Call (n, args) ->
          (* intrinsics may write through Addr operands *)
          List.iter
            (fun a -> match a with Addr (t, _) -> invalidate_tensor t | _ -> ())
            args;
          Call (n, List.map (rewrite_expr bindings) args)
      | If (c, th, el) ->
          let c = rewrite_expr bindings c in
          let th' = forward_list scalars th and el' = forward_list scalars el in
          List.iter invalidate_tensor (Visit.tensors_written th);
          List.iter invalidate_tensor (Visit.tensors_written el);
          If (c, th', el')
      | For l ->
          let body' = forward_list scalars l.body in
          List.iter invalidate_tensor (Visit.tensors_written l.body);
          For
            {
              l with
              lo = rewrite_expr bindings l.lo;
              hi = rewrite_expr bindings l.hi;
              step = rewrite_expr bindings l.step;
              body = body';
            }
      | Alloc t ->
          invalidate_tensor t;
          s
      | Barrier -> s)
    stmts

(* flatten the If(1, ...) bundles introduced above; a bundle whose scalar
   no load was forwarded to goes back to the direct store *)
let flatten scalars body =
  Visit.map_stmts
    ~stmt:(fun s ->
      match s with
      | If (Int 1, [ Assign (v, e); Store (t, idx, Var _) ], [])
        when Hashtbl.find_opt scalars v.vid = Some false ->
          [ Store (t, idx, e) ]
      | If (Int 1, th, _) -> th
      | s -> [ s ])
    body

let run_func (f : func) =
  let scalars = Hashtbl.create 16 in
  let body = forward_list scalars f.body in
  { f with body = flatten scalars body }

let run (m : module_) = { m with funcs = List.map run_func m.funcs }
