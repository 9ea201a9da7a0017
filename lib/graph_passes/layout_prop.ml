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

let run ?(align_tolerance = 1.15) ?(propagate_activations = true) ~machine
    (g : Graph.t) =
  let params : (int, Params.t) Hashtbl.t = Hashtbl.create 16 in
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
        (* try to align with an already-blocked A input *)
        let p =
          match a.layout with
          | Layout.Blocked [ (0, mba); (1, kba) ] when batch = 1 && not transpose_b
            -> (
              match
                Heuristic.choose ~machine ~dtype ~batch ~mb_fixed:mba
                  ~kb_fixed:kba ~m ~n ~k ()
              with
              | aligned
                when Heuristic.cost ~machine aligned
                     <= align_tolerance *. Heuristic.cost ~machine best ->
                  aligned
              | _ -> best
              | exception Invalid_argument _ -> best)
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
        (* publish a blocked output when every consumer is a 2-D matmul
           reading it as the A operand *)
        let g = !current in
        let consumers = Graph.consumers g c in
        let all_matmul_a =
          consumers <> []
          && (not (Graph.is_output g c))
          && List.for_all
               (fun (op : Op.t) ->
                 op.kind = Op_kind.Matmul
                 && Shape.rank (Op.output op).shape = 2
                 && Logical_tensor.equal (List.hd op.inputs) c)
               consumers
        in
        if propagate_activations && batch = 1 && all_matmul_a then
          c.layout <- Params.c_layout p
      end)
    g.ops;
  { graph = !current; params }
