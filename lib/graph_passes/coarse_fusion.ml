open Gc_microkernel
open Gc_graph_ir
open Gc_lowering

(* f2 consumes one of f1's outputs? *)
let consumes (f1 : Fused_op.t) (f2 : Fused_op.t) =
  List.exists
    (fun (o : Logical_tensor.t) ->
      List.exists (Logical_tensor.equal o) f2.f_inputs)
    f1.f_outputs

let mergeable_batched (p1 : Params.t) (p2 : Params.t) =
  p1.batch > 1 && p1.batch = p2.batch

(* a re-tuned member keeps layout propagation's permission to read plain
   operands in place *)
let attempt ?kb_fixed ~machine ~mpn (p : Params.t) mb =
  try
    let p' =
      Heuristic.choose ~machine ~dtype:p.dtype ~batch:p.batch ~force_grid:(mpn, 1)
        ~mb_fixed:mb ?kb_fixed ~m:p.m ~n:p.n ~k:p.k ()
    in
    Some { p' with read_plain = p.read_plain }
  with Invalid_argument _ -> None

(* Joint re-tuning of a chain of 2-D fused matmuls that feed one another:
   find the common row blocking (MB) and core grid (MPN, 1) minimizing the
   chain's total modelled cost — "when the heuristic chooses the
   parameters for each Tunable op, it tries to choose the outermost loop
   blocking factor best aligned with core numbers". The merge is accepted
   when the total cost grows by at most [tolerance] plus the barriers the
   merge eliminates; each task then owns the same output rows in every
   member, which makes the mechanical loop merge sound. *)
let joint_retune ~machine ~tolerance (ps : Params.t list) =
  let cores = machine.Machine.cores in
  let m = (List.hd ps).Params.m in
  let candidates =
    List.filter_map
      (fun mb ->
        let mpn = max 1 (min cores (Gc_tensor.Shape.ceil_div m mb)) in
        (* tune the chain front to back, aligning each member's KB to its
           producer's NB so the merged chain reads blocked activations
           directly, with a free-KB fallback *)
        let rec tune prev acc = function
          | [] -> Some (List.rev acc)
          | p :: rest -> (
              let aligned =
                match prev with
                | Some (prev_p : Params.t) ->
                    attempt ~machine ~mpn ~kb_fixed:prev_p.Params.nb p mb
                | None -> None
              in
              let choice =
                match aligned with Some _ -> aligned | None -> attempt ~machine ~mpn p mb
              in
              match choice with
              | Some p' -> tune (Some p') (p' :: acc) rest
              | None -> None)
        in
        match tune None [] ps with
        | Some tuned ->
            let total =
              List.fold_left (fun acc p -> acc +. Heuristic.cost ~machine p) 0. tuned
            in
            Some (total, tuned)
        | None -> None)
      [ 1; 2; 4; 6; 8; 12; 16; 32 ]
  in
  match candidates with
  | [] -> None
  | _ ->
      let total_after, tuned =
        List.fold_left
          (fun (bt, bp) (t, p) -> if t < bt then (t, p) else (bt, bp))
          (List.hd candidates) (List.tl candidates)
      in
      let total_before =
        List.fold_left (fun acc p -> acc +. Heuristic.cost ~machine p) 0. ps
      in
      let saved_barriers =
        float_of_int (List.length ps - 1) *. machine.Machine.barrier_cycles
      in
      if total_after <= (tolerance *. total_before) +. saved_barriers then
        Some tuned
      else None

(* Maximal runs of consecutive fused ops where each consumes its
   predecessor, all are tunable, and their templates are compatible
   (either all batched with equal batch, or all 2-D with equal m). *)
let chains (fused : Fused_op.t list) =
  let compatible (f1 : Fused_op.t) (f2 : Fused_op.t) =
    match (f1.params, f2.params, f1.tunable, f2.tunable) with
    | Some p1, Some p2, Some _, Some _ when consumes f1 f2 ->
        if mergeable_batched p1 p2 then true
        else p1.batch = 1 && p2.batch = 1 && p1.m = p2.m
    | _ -> false
  in
  let rec go = function
    | [] -> []
    | f :: rest ->
        let rec take prev acc = function
          | g :: tl when compatible prev g -> take g (g :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        let run, rest' = take f [ f ] rest in
        run :: go rest'
  in
  go fused

(* After a retune, a member whose KB matches its producer's NB (at the
   same MB) reads the producer's activation chain in place: re-publish the
   chain blocked, also when layout propagation had sent it back to plain
   because its own aligned tiles cost too much. *)
let rec republish_aligned graph = function
  | (f1 : Fused_op.t) :: ((f2 : Fused_op.t) :: _ as rest) ->
      (match (f1.params, f1.tunable, f2.params, f2.tunable) with
      | Some p1, Some t1, Some p2, Some t2 when p2.kb = p1.nb && p2.mb = p1.mb -> (
          match Layout_prop.activation_chain graph (Op.output t1) with
          | Some (a :: _ as ts) when Logical_tensor.equal a (List.hd t2.inputs) ->
              List.iter (fun (t : Logical_tensor.t) -> t.layout <- Params.c_layout p1) ts
          | _ -> ())
      | _ -> ());
      republish_aligned graph rest
  | _ -> ()

let run ?(retune_tolerance = 1.2) ~machine (g : Fused_op.graph) =
  let graph =
    lazy
      (Graph.create ~inputs:g.g_inputs ~outputs:g.g_outputs
         (List.concat_map Fused_op.ops g.fused))
  in
  let fused =
    List.concat_map
      (fun chain ->
        match chain with
        | [] | [ _ ] -> chain
        | (first : Fused_op.t) :: _ -> (
            let ps = List.filter_map (fun (f : Fused_op.t) -> f.params) chain in
            let batched =
              match first.params with Some p -> p.batch > 1 | None -> false
            in
            if batched then begin
              (* per-batch task ownership is already complete: tag as is *)
              let tag = Lower_fusible.fresh_tag () in
              List.map (fun f -> { f with Fused_op.merge_tag = Some tag }) chain
            end
            else
              (* already aligned? *)
              let aligned =
                List.for_all
                  (fun (p : Params.t) ->
                    p.npn = 1
                    && p.mpn = (List.hd ps).mpn
                    && p.mb = (List.hd ps).mb)
                  ps
              in
              if aligned then begin
                let tag = Lower_fusible.fresh_tag () in
                List.map (fun f -> { f with Fused_op.merge_tag = Some tag }) chain
              end
              else
                match joint_retune ~machine ~tolerance:retune_tolerance ps with
                | Some tuned ->
                    let tag = Lower_fusible.fresh_tag () in
                    let chain' =
                      List.map2
                        (fun f p ->
                          { f with Fused_op.merge_tag = Some tag; params = Some p })
                        chain tuned
                    in
                    (* re-publish the prepacked constant weights and the
                       activation chains in the re-tuned blocked layouts
                       (the init-graph reorders follow the logical
                       tensors' layouts); every blocked tensor a member
                       produces — its matmul output and post-op outputs —
                       is on a chain layout propagation published *)
                    List.iter
                      (fun (f : Fused_op.t) ->
                        match (f.params, f.tunable) with
                        | Some p, Some tun ->
                            (match tun.inputs with
                            | [ _; b ]
                              when Logical_tensor.is_constant b
                                   && Gc_tensor.Layout.is_blocked b.layout ->
                                b.layout <- Params.b_layout p
                            | _ -> ());
                            List.iter
                              (fun (op : Op.t) ->
                                let o = Op.output op in
                                if Gc_tensor.Layout.is_blocked o.layout then
                                  o.layout <- Params.c_layout p)
                              (tun
                              :: List.concat_map
                                   (fun (g : Fused_op.post_group) -> g.g_ops)
                                   f.post_groups)
                        | _ -> ())
                      chain';
                    republish_aligned (Lazy.force graph) chain';
                    chain'
                | None -> chain))
      (chains g.fused)
  in
  { g with fused }
