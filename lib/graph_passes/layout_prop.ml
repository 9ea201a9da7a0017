open Gc_tensor
open Gc_graph_ir
open Gc_lowering

type result = { graph : Graph.t; params : (int, Params.t) Hashtbl.t }

let problem_of (mm : Op.t) =
  let a = List.hd mm.inputs in
  let c = Op.output mm in
  let cr = Shape.rank c.shape in
  let m = Shape.dim c.shape (cr - 2) and n = Shape.dim c.shape (cr - 1) in
  let k = Shape.dim a.shape (Shape.rank a.shape - 1) in
  let batch = Shape.numel (Shape.sub c.shape 0 (cr - 2)) in
  (m, n, k, batch)

let dtype_of (mm : Op.t) = (List.hd mm.inputs).Logical_tensor.dtype

let conv_problem_of (cv : Op.t) =
  let w = List.nth cv.inputs 1 in
  let c = Op.output cv in
  let batch = Shape.dim c.shape 0
  and oh = Shape.dim c.shape 1
  and ow = Shape.dim c.shape 2
  and oc = Shape.dim c.shape 3 in
  let kh = Shape.dim w.shape 0
  and kw = Shape.dim w.shape 1
  and ic = Shape.dim w.shape 2 in
  (batch, oh, ow, oc, kh, kw, ic)

let choose_params ~machine (mm : Op.t) =
  match mm.kind with
  | Op_kind.Conv2d ->
      let batch, oh, ow, oc, kh, kw, c = conv_problem_of mm in
      Heuristic.choose_conv ~machine ~dtype:(dtype_of mm) ~batch ~oh ~ow ~oc
        ~kh ~kw ~c ()
  | _ ->
      let m, n, k, batch = problem_of mm in
      Heuristic.choose ~machine ~dtype:(dtype_of mm) ~batch ~m ~n ~k ()

(* The activation chain published from a 2-D matmul's output [c]: walk
   single-consumer, same-shape elementwise ops (eltwise unary/binary,
   casts — the dequant→relu→requant post-ops) up to a fan-out or a graph
   output. [Some chain] when the walk ends at a tensor that only 2-D
   matmuls read as their A operand; a matmul reading [c] directly is the
   zero-length walk. *)
let activation_chain g (c : Logical_tensor.t) =
  let elementwise (op : Op.t) =
    match Op_kind.category op.kind with
    | Fusible (Eltwise_unary | Eltwise_binary) ->
        Shape.equal (Op.output op).shape c.shape
    | _ -> false
  in
  let reads_as_a t (op : Op.t) =
    op.kind = Op_kind.Matmul
    && Shape.rank (Op.output op).shape = 2
    && Logical_tensor.equal (List.hd op.inputs) t
  in
  let rec walk chain (t : Logical_tensor.t) =
    if Graph.is_output g t then None
    else
      match Graph.consumers g t with
      | [ op ] when elementwise op -> walk (t :: chain) (Op.output op)
      | [] -> None
      | ops -> if List.for_all (reads_as_a t) ops then Some (t :: chain) else None
  in
  walk [] c

let run ?(align_tolerance = 1.15) ?(propagate_activations = true) ~machine
    (g : Graph.t) =
  let params : (int, Params.t) Hashtbl.t = Hashtbl.create 16 in
  (* published chains by the id of the tensor the next matmuls read *)
  let chains : (int, Logical_tensor.t list) Hashtbl.t = Hashtbl.create 8 in
  let g = match Graph.topo_sort g with Ok g -> g | Error e -> invalid_arg e in
  let current = ref g in
  List.iter
    (fun (mm : Op.t) ->
      (* Conv2d: record tile parameters for its im2col GEMM view. The
         operands stay in plain NHWC/HWIO — the packing anchors perform the
         gather at run time, so there is no prepacked layout to publish. *)
      if mm.kind = Op_kind.Conv2d then
        Hashtbl.replace params mm.id (choose_params ~machine mm);
      if mm.kind = Op_kind.Matmul then begin
        let g = !current in
        let a, b = match mm.inputs with [ a; b ] -> (a, b) | _ -> assert false in
        let c = Op.output mm in
        let m, n, k, batch = problem_of mm in
        let dtype = dtype_of mm in
        let transpose_b =
          Option.value (Attrs.get_bool mm.attrs "transpose_b") ~default:false
        in
        let best = Heuristic.choose ~machine ~dtype ~batch ~m ~n ~k () in
        (* the consumer owns the decision: a tiling aligned to how its
           producer left A is kept when it costs at most [align_tolerance]
           times the free choice *)
        let aligned ~mb_fixed ~kb_fixed =
          match Heuristic.choose ~machine ~dtype ~batch ~mb_fixed ~kb_fixed ~m ~n ~k () with
          | p
            when Heuristic.cost ~machine p
                 <= align_tolerance *. Heuristic.cost ~machine best ->
              Some p
          | _ -> None
          | exception Invalid_argument _ -> None
        in
        (* a plain A (and a plain B) is read in place under any tiling,
           tails included *)
        let read_plain (p : Params.t) =
          if propagate_activations then { p with Params.read_plain = true } else p
        in
        let p =
          match a.layout with
          | Layout.Blocked [ (0, mba); (1, kba) ] when batch = 1 -> (
              (* align with an already-blocked A; when that costs too much,
                 the chain that published A goes back to plain and this
                 matmul reads it plain *)
              let p = if transpose_b then None else aligned ~mb_fixed:mba ~kb_fixed:kba in
              match p with
              | Some p -> p
              | None ->
                  Option.iter
                    (List.iter (fun (t : Logical_tensor.t) -> t.layout <- Layout.Plain))
                    (Hashtbl.find_opt chains a.id);
                  read_plain best)
          | Layout.Plain -> read_plain best
          | _ -> best
        in
        Hashtbl.replace params mm.id p;
        (* prepack constant weights into the template's layout *)
        if
          batch = 1 && (not transpose_b)
          && Logical_tensor.is_constant b
          && not (Layout.equal b.layout (Params.b_layout p))
        then begin
          let bp =
            Logical_tensor.create ~name:(b.name ^ "_packed")
              ~layout:(Params.b_layout p) ~property:Logical_tensor.Runtime_const
              b.dtype b.shape
          in
          let reorder = Op.create Reorder ~inputs:[ b ] ~outputs:[ bp ] in
          let mm' = Op.with_ mm ~inputs:[ a; bp ] in
          current := Graph.replace_ops g ~remove:[ mm ] ~add:[ reorder; mm' ]
        end;
        (* publish the output chain in the blocked layout the template
           produces, so the next matmuls read it with no packing *)
        if propagate_activations && batch = 1 then
          match activation_chain !current c with
          | Some chain ->
              List.iter
                (fun (t : Logical_tensor.t) -> t.layout <- Params.c_layout p)
                chain;
              Hashtbl.replace chains (List.hd chain).id chain
          | None -> ()
      end)
    g.ops;
  { graph = !current; params }
