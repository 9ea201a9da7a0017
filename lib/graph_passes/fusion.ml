open Gc_tensor
open Gc_graph_ir
open Gc_lowering

type limits = {
  max_post_ops : int;
  max_reorders : int;
  max_reductions : int;
  max_extra_bytes : int;
}

let default_limits =
  {
    max_post_ops = 16;
    max_reorders = 1;
    max_reductions = 2;
    max_extra_bytes = 8 * 1024 * 1024;
  }

(* Producer/consumer index over one graph, built once per [run]: every
   lookup the heuristic makes is a hash probe, not a scan of [g.ops]. *)
type index = {
  pos : (int, int) Hashtbl.t;  (* op id -> position in topological order *)
  producer : (int, Op.t) Hashtbl.t;  (* tensor id -> producing op *)
  consumers : (int, Op.t list) Hashtbl.t;  (* tensor id -> consumers, op order *)
  outputs : (int, unit) Hashtbl.t;  (* graph outputs *)
}

let index (g : Graph.t) =
  let n = List.length g.ops in
  let ix =
    {
      pos = Hashtbl.create n;
      producer = Hashtbl.create n;
      consumers = Hashtbl.create n;
      outputs = Hashtbl.create 8;
    }
  in
  List.iteri (fun i (op : Op.t) -> Hashtbl.replace ix.pos op.id i) g.ops;
  (* walk backwards so each consumer list comes out in op order; an op
     reading a tensor twice is listed once, as in [Graph.consumers] *)
  List.iter
    (fun (op : Op.t) ->
      List.iter (fun (o : Logical_tensor.t) -> Hashtbl.replace ix.producer o.id op) op.outputs;
      List.iter
        (fun (i : Logical_tensor.t) ->
          match Hashtbl.find_opt ix.consumers i.id with
          | Some (c :: _) when c == op -> ()
          | cur -> Hashtbl.replace ix.consumers i.id (op :: Option.value ~default:[] cur))
        op.inputs)
    (List.rev g.ops);
  List.iter (fun (o : Logical_tensor.t) -> Hashtbl.replace ix.outputs o.id ()) g.outputs;
  ix

let consumers ix (lt : Logical_tensor.t) =
  Option.value ~default:[] (Hashtbl.find_opt ix.consumers lt.id)

let is_output ix (lt : Logical_tensor.t) = Hashtbl.mem ix.outputs lt.id

(* [descends ix ~start] tests whether a tensor is computed from [start]
   (the tunable's output), [start] included. Every op of a region has an
   input the region produced, so every region tensor descends from
   [start], and a tensor depends on some region output exactly when it
   descends from [start]; fusing an op whose external operand does would
   close a cycle through the region. A descendant other than [start] is
   produced after [start]'s producer in topological order, so the backward
   walk stops at earlier producers, and the memo visits each tensor once
   per chain: the work is bounded by the ops between the tunable and the
   chain's frontier, not by the graph. *)
let descends ix ~(start : Logical_tensor.t) =
  let p0 =
    match Hashtbl.find_opt ix.producer start.id with
    | Some p -> Hashtbl.find ix.pos p.id
    | None -> -1
  in
  let memo : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let rec go (lt : Logical_tensor.t) =
    lt.id = start.id
    ||
    match Hashtbl.find_opt memo lt.id with
    | Some r -> r
    | None ->
        let r =
          match Hashtbl.find_opt ix.producer lt.id with
          | Some p when Hashtbl.find ix.pos p.id > p0 -> List.exists go p.inputs
          | _ -> false
        in
        Hashtbl.replace memo lt.id r;
        r
  in
  go

(* Grow the fusible region behind [start] (the tunable's output). The
   region is a DAG, not just a linear chain: a reduction's result feeds a
   later binary op (softmax's sub and div). Before the first reduction the
   main value must stay single-consumer (the post#1 group is compiled as
   one scalar chain); from the first reduction on, every op output is
   materialized by the post#3 scheduler, so diamonds are allowed. *)
let grow_chain ~limits ~(params : Params.t) ?(allow_reductions = true)
    ?(allow_reorders = true) ix (start : Logical_tensor.t) =
  let region : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let produced : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  (* ops outside the region that read a region tensor: the only ops that
     can pass [candidate_ok] *)
  let frontier : (int, Op.t) Hashtbl.t = Hashtbl.create 8 in
  let produce (lt : Logical_tensor.t) =
    Hashtbl.replace produced lt.id ();
    List.iter
      (fun (c : Op.t) ->
        if not (Hashtbl.mem region c.id) then Hashtbl.replace frontier c.id c)
      (consumers ix lt)
  in
  produce start;
  let descends = descends ix ~start in
  let chain = ref [] in
  let c_shape = start.shape in
  let n_reduce = ref 0 and n_reorder = ref 0 and extra = ref 0 in
  let head = ref start in
  let stop = ref false in
  let candidate_ok (op : Op.t) =
    (not (Hashtbl.mem region op.id))
    && List.exists (fun (i : Logical_tensor.t) -> Hashtbl.mem produced i.id) op.inputs
    && (* external operands must not depend on region outputs (acyclicity) *)
    List.for_all
      (fun (i : Logical_tensor.t) ->
        Hashtbl.mem produced i.id || not (descends i))
      op.inputs
    &&
    match Op_kind.category op.kind with
    | Tunable | Complex -> false
    | Fusible Reduction ->
        allow_reductions
        &&
        let rank = Shape.rank (List.hd op.inputs).shape in
        let axis =
          let a = Attrs.int_exn op.attrs "axis" in
          if a < 0 then a + rank else a
        in
        let rows_owned = params.batch > 1 || (params.npn = 1 && params.kpn = 1) in
        axis = rank - 1 && rows_owned && !n_reduce < limits.max_reductions
        (* the reduced value must be row-shaped like C *)
        && Shape.equal (List.hd op.inputs).shape c_shape
    | Fusible Movement -> (
        match op.kind with
        | Reorder ->
            allow_reorders
            && !n_reorder < limits.max_reorders
            && !n_reduce = 0 (* post#3 stores need a plain final target *)
            && Logical_tensor.equal (List.hd op.inputs) !head
            && List.length (consumers ix !head) = 1
        | _ -> false)
    | Fusible Eltwise_unary ->
        Shape.equal (Op.output op).shape c_shape
        && (!n_reduce > 0
           || (Logical_tensor.equal (List.hd op.inputs) !head
              && List.length (consumers ix !head) = 1))
    | Fusible Eltwise_binary ->
        let extra_bytes =
          List.fold_left
            (fun acc (i : Logical_tensor.t) ->
              if Hashtbl.mem produced i.id then acc
              else acc + (Shape.numel i.shape * Dtype.size_bytes i.dtype))
            0 op.inputs
        in
        Shape.equal (Op.output op).shape c_shape
        && !extra + extra_bytes <= limits.max_extra_bytes
        && (!n_reduce > 0
           || (List.exists (Logical_tensor.equal !head) op.inputs
              && List.length (consumers ix !head) = 1))
  in
  let by_pos (a : Op.t) (b : Op.t) =
    compare (Hashtbl.find ix.pos a.id) (Hashtbl.find ix.pos b.id)
  in
  while (not !stop) && List.length !chain < limits.max_post_ops do
    (* the first acceptable op in topological order *)
    let frontier_ops = Hashtbl.fold (fun _ op acc -> op :: acc) frontier [] in
    match List.find_opt candidate_ok (List.sort by_pos frontier_ops) with
    | None -> stop := true
    | Some op ->
        Hashtbl.replace region op.id ();
        Hashtbl.remove frontier op.id;
        List.iter produce op.outputs;
        chain := op :: !chain;
        (match op.kind with
        | Reduce _ -> incr n_reduce
        | Reorder -> incr n_reorder
        | Add | Sub | Mul | Div | Maximum | Minimum ->
            extra :=
              !extra
              + List.fold_left
                  (fun acc (i : Logical_tensor.t) ->
                    if Hashtbl.mem produced i.id then acc
                    else acc + (Shape.numel i.shape * Dtype.size_bytes i.dtype))
                  0 op.inputs
        | _ -> ());
        (match op.kind with
        | Reduce _ -> ()
        | _ -> if Shape.equal (Op.output op).shape c_shape then head := Op.output op);
        if is_output ix (Op.output op) then stop := true
  done;
  List.rev !chain

let split_post_groups ~machine ~params ops =
  match
    List.find_index (fun (op : Op.t) -> match op.kind with Reduce _ -> true | _ -> false) ops
  with
  | None ->
      if ops = [] then []
      else
        [ { Fused_op.g_anchor = Anchor.best_post ~machine params ~reduction:false; g_ops = ops } ]
  | Some i ->
      let g1 = List.filteri (fun j _ -> j < i) ops in
      let g2 = List.filteri (fun j _ -> j >= i) ops in
      (if g1 = [] then []
       else
         [ { Fused_op.g_anchor = Anchor.best_post ~machine params ~reduction:false; g_ops = g1 } ])
      @ [ { Fused_op.g_anchor = Anchor.best_post ~machine params ~reduction:true; g_ops = g2 } ]

(* External inputs of a set of ops: inputs not produced inside the set. *)
let externals (ops : Op.t list) =
  let produced : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (op : Op.t) ->
      List.iter (fun (o : Logical_tensor.t) -> Hashtbl.replace produced o.id ()) op.outputs)
    ops;
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun (op : Op.t) ->
      List.filter
        (fun (i : Logical_tensor.t) ->
          if Hashtbl.mem produced i.id || Hashtbl.mem seen i.id || Logical_tensor.is_compile_const i
          then false
          else begin
            Hashtbl.add seen i.id ();
            true
          end)
        op.inputs)
    ops

(* Outputs of the set consumed outside it (or graph outputs). *)
let set_outputs ix (ops : Op.t list) =
  let ids : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (op : Op.t) -> Hashtbl.replace ids op.id ()) ops;
  List.concat_map
    (fun (op : Op.t) ->
      List.filter
        (fun (o : Logical_tensor.t) ->
          is_output ix o
          || List.exists (fun (c : Op.t) -> not (Hashtbl.mem ids c.id)) (consumers ix o))
        op.outputs)
    ops

(* Topologically order fused ops by their tensor dependencies. *)
let topo_fused (fused : Fused_op.t list) =
  let producer_of : (int, Fused_op.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (f : Fused_op.t) ->
      List.iter
        (fun (o : Logical_tensor.t) -> Hashtbl.replace producer_of o.id f)
        f.f_outputs)
    fused;
  let visited : (int, bool) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let rec visit (f : Fused_op.t) =
    match Hashtbl.find_opt visited f.fid with
    | Some true -> ()
    | Some false -> invalid_arg "Fusion: cyclic fused graph"
    | None ->
        Hashtbl.replace visited f.fid false;
        List.iter
          (fun (i : Logical_tensor.t) ->
            match Hashtbl.find_opt producer_of i.id with
            | Some p when p.fid <> f.fid -> visit p
            | _ -> ())
          f.f_inputs;
        Hashtbl.replace visited f.fid true;
        order := f :: !order
  in
  List.iter visit fused;
  List.rev !order

let run ?(fine = true) ?(limits = default_limits) ~machine ~params
    (g : Graph.t) ~init =
  let g = match Graph.topo_sort g with Ok g -> g | Error e -> invalid_arg e in
  let ix = index g in
  let assigned : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let fused = ref [] in
  let get_params (mm : Op.t) =
    match Hashtbl.find_opt params mm.id with
    | Some p -> p
    | None ->
        let p = Layout_prop.choose_params ~machine mm in
        Hashtbl.replace params mm.id p;
        p
  in
  (* pass 1: tunable ops and their chains *)
  List.iter
    (fun (op : Op.t) ->
      if Op_kind.is_tunable op.kind && not (Hashtbl.mem assigned op.id) then begin
        let p = get_params op in
        (* conv chains: anchor #3 schedules 2-D points and the pre anchors
           are claimed by the im2col gather, so reductions, reorders and
           pre-op fusion stay out of conv regions *)
        let is_conv = op.kind = Op_kind.Conv2d in
        let chain =
          if fine then
            grow_chain ~limits ~params:p ~allow_reductions:(not is_conv)
              ~allow_reorders:(not is_conv) ix (Op.output op)
          else []
        in
        (* soundness trim: the post#3 scheduler materializes eltwise
           results but keeps reduction results in per-row scalars, so a
           reduction whose output escapes the region would never reach
           memory - cut the chain just before any such reduction *)
        let chain =
          (* to fixpoint: cutting the chain can strand an earlier
             reduction whose consumer was behind the cut *)
          let pass chain =
            let ids = Hashtbl.create 8 in
            List.iter (fun (o : Op.t) -> Hashtbl.replace ids o.id ()) chain;
            let escaped (c : Op.t) =
              is_output ix (Op.output c)
              || not
                   (List.for_all
                      (fun (u : Op.t) -> Hashtbl.mem ids u.id)
                      (consumers ix (Op.output c)))
            in
            let rec trim kept = function
              | [] -> List.rev kept
              | (c : Op.t) :: rest -> (
                  match c.kind with
                  | Reduce _ when escaped c -> List.rev kept
                  | _ -> trim (c :: kept) rest)
            in
            trim [] chain
          in
          let rec fix c =
            let c' = pass c in
            if List.length c' = List.length c then c' else fix c'
          in
          fix chain
        in
        let post_groups = split_post_groups ~machine ~params:p chain in
        (* pre-op fusion: non-constant single-use reorder producers *)
        let pre_of (input : Logical_tensor.t) operand =
          if not fine then None
          else
            match Hashtbl.find_opt ix.producer input.id with
            | Some ({ kind = Reorder; _ } as r)
              when (not (Hashtbl.mem assigned r.id))
                   && (not (Logical_tensor.is_constant (Op.output r)))
                   && (not (is_output ix input))
                   && List.length (consumers ix input) = 1 ->
                Some (r, Anchor.best_pre ~machine p operand)
            | _ -> None
        in
        let a_in, b_in =
          match op.inputs with [ a; b ] -> (a, b) | _ -> assert false
        in
        let pre_a = if is_conv then None else pre_of a_in Anchor.A in
        let pre_b = if is_conv then None else pre_of b_in Anchor.B in
        let all_ops =
          (match pre_a with Some (r, _) -> [ r ] | None -> [])
          @ (match pre_b with Some (r, _) -> [ r ] | None -> [])
          @ [ op ] @ chain
        in
        List.iter (fun (o : Op.t) -> Hashtbl.replace assigned o.id ()) all_ops;
        let f =
          Fused_op.create ~tunable:op ?pre_a ?pre_b ~post_groups ~params:p
            ~inputs:(externals all_ops) ~outputs:(set_outputs ix all_ops) ()
        in
        fused := f :: !fused
      end)
    g.ops;
  (* pass 2: leftover fusible runs *)
  List.iter
    (fun (op : Op.t) ->
      if not (Hashtbl.mem assigned op.id) then begin
        let run_ops = ref [ op ] in
        Hashtbl.replace assigned op.id ();
        let rec extend (cur : Op.t) =
          match cur.outputs with
          | [ out ] -> (
              match consumers ix out with
              | [ c ]
                when fine
                     && (not (Hashtbl.mem assigned c.id))
                     && (not (is_output ix out))
                     && Op_kind.is_fusible c.kind
                     && (match c.kind with
                        | Reduce _ -> (
                            (* only last-axis reductions are schedulable *)
                            let rank = Shape.rank (List.hd c.inputs).shape in
                            let a = Attrs.int_exn c.attrs "axis" in
                            (if a < 0 then a + rank else a) = rank - 1)
                        | _ -> true) ->
                  Hashtbl.replace assigned c.id ();
                  run_ops := c :: !run_ops;
                  extend c
              | _ -> ())
          | _ -> ()
        in
        extend op;
        let ops = List.rev !run_ops in
        let f =
          Fused_op.create
            ~post_groups:[ { Fused_op.g_anchor = Post3; g_ops = ops } ]
            ~inputs:(externals ops) ~outputs:(set_outputs ix ops) ()
        in
        fused := f :: !fused
      end)
    g.ops;
  {
    Fused_op.fused = topo_fused (List.rev !fused);
    g_inputs = g.inputs;
    g_outputs = g.outputs;
    init;
  }
