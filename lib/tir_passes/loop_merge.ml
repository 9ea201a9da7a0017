open Gc_tensor_ir
open Ir

let rename_var ~from ~into body =
  Visit.map_stmts
    ~expr:(fun e ->
      match e with Var v when var_equal v from -> Var into | e -> e)
    ~stmt:(fun s ->
      match s with
      | Assign (v, e) when var_equal v from -> [ Assign (into, e) ]
      | For l when var_equal l.v from -> [ For { l with v = into } ]
      | s -> [ s ])
    body

let same_bounds (a : loop) (b : loop) =
  a.lo = b.lo && a.hi = b.hi && a.step = b.step && a.parallel = b.parallel

(* Merge adjacent same-tag loops in one statement list, counting each
   merged pair in [merges]; Allocs between two mergeable loops are hoisted
   before the merged loop. *)
let rec merge_list merges (stmts : stmt list) =
  match stmts with
  | [] -> []
  | For l1 :: rest when l1.merge_tag <> None -> (
      (* collect hoistable statements (allocations and constant scalar
         initializations) followed by a same-tag loop *)
      let rec peel acc = function
        | Alloc t :: tl -> peel (Alloc t :: acc) tl
        | Assign (v, (Int _ as e)) :: tl -> peel (Assign (v, e) :: acc) tl
        | For l2 :: tl
          when l2.merge_tag = l1.merge_tag && same_bounds l1 l2 ->
            Some (List.rev acc, l2, tl)
        | _ -> None
      in
      match peel [] rest with
      | Some (hoisted, l2, tl) ->
          incr merges;
          let body2 = rename_var ~from:l2.v ~into:l1.v l2.body in
          let merged = For { l1 with body = merge_list merges (l1.body @ body2) } in
          merge_list merges (hoisted @ (merged :: tl))
      | None -> For { l1 with body = merge_list merges l1.body } :: merge_list merges rest)
  | For l :: rest -> For { l with body = merge_list merges l.body } :: merge_list merges rest
  | If (c, t, e) :: rest -> If (c, merge_list merges t, merge_list merges e) :: merge_list merges rest
  | s :: rest -> s :: merge_list merges rest

let run (m : module_) =
  let merges = ref 0 in
  let funcs = List.map (fun (f : func) -> { f with body = merge_list merges f.body }) m.funcs in
  ({ m with funcs }, !merges)
