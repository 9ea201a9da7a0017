open Gc_microkernel
open Gc_graph_ir

type config = {
  machine : Machine.t;
  low_precision : bool;
  const_fold : bool;
  cse : bool;
  dce : bool;
  const_weights : bool;
  layout_propagation : bool;
  propagate_activations : bool;
  fine_fusion : bool;
  fusion_limits : Fusion.limits;
  coarse_fusion : bool;
  primitive_softmax : bool;
}

let default ?(machine = Machine.xeon_8358) () =
  {
    machine;
    low_precision = true;
    const_fold = true;
    cse = true;
    dce = true;
    const_weights = true;
    layout_propagation = true;
    propagate_activations = true;
    fine_fusion = true;
    fusion_limits = Fusion.default_limits;
    coarse_fusion = true;
    primitive_softmax = false;
  }

let no_opt ?(machine = Machine.xeon_8358) () =
  {
    (default ~machine ()) with
    low_precision = false;
    const_fold = false;
    cse = false;
    dce = false;
    const_weights = false;
    layout_propagation = false;
    propagate_activations = false;
    fine_fusion = false;
    coarse_fusion = false;
  }

(* The oneDNN-primitives baseline: the same microkernel substrate, but
   primitive-scope optimization only — weights are prepacked and cached
   and eltwise/binary chains fuse as post-ops (oneDNN post-op attrs), but
   reductions (softmax) cannot fuse, activations stay plain between
   primitives, and each primitive is its own parallel section. *)
let onednn_primitives ?(machine = Machine.xeon_8358) () =
  {
    (default ~machine ()) with
    propagate_activations = false;
    coarse_fusion = false;
    fusion_limits = { Fusion.default_limits with max_reductions = 0 };
    primitive_softmax = true;
  }

let when_ flag f g = if flag then f g else g

let run ?trace cfg (g : Graph.t) =
  (match Graph.verify g with
  | Ok () -> ()
  | Error e -> invalid_arg ("Pipeline.run: invalid input graph: " ^ e));
  (* instrumented pass application: times the pass and records op/tensor
     counts before and after (Observe.Trace); [trace = None] is free *)
  let timed name f g =
    let g =
      Gc_observe.Trace.time trace ~stage:"graph" ~name
        ~stats:Gc_observe.Stats.of_graph f g
    in
    (* inter-pass IR verification (GC_VERIFY_IR / Verify.set_enabled):
       a pass that corrupted the graph fails here, named *)
    Verify.run ~pass:name g
  in
  let when_t flag name f g = if flag then timed name f g else g in
  let g = when_t cfg.low_precision "low_precision" Low_precision.run g in
  let g =
    timed "decompose" (Decompose.run ~keep_softmax:cfg.primitive_softmax) g
  in
  let g = when_t cfg.const_fold "const_fold" Const_fold.run g in
  let g = when_t cfg.cse "cse" Cse.run g in
  let g = when_t cfg.dce "dce" Dce.run g in
  let g = timed "const_prop_mark" Const_prop.mark g in
  (* Without constant-weight preprocessing, nothing may be cached: demote
     every runtime constant to a plain tensor, so weights flow in as entry
     parameters and prepack reorders execute on every run. *)
  let demote (g : Graph.t) =
    List.iter
      (fun (lt : Logical_tensor.t) ->
        match lt.property with
        | Runtime_const -> lt.property <- Variable
        | _ -> ())
      (Graph.all_tensors g);
    g
  in
  let lp =
    if cfg.layout_propagation then
      Gc_observe.Trace.time_into trace ~stage:"graph" ~name:"layout_prop"
        ~before:(Gc_observe.Stats.of_graph g)
        ~after:(fun (lp : Layout_prop.result) ->
          Gc_observe.Stats.of_graph lp.graph)
        (Layout_prop.run ~propagate_activations:cfg.propagate_activations
           ~machine:cfg.machine)
        g
    else { Layout_prop.graph = g; params = Hashtbl.create 16 }
  in
  ignore (Verify.run ~pass:"layout_prop" lp.Layout_prop.graph);
  let split =
    let before = Gc_observe.Stats.of_graph lp.graph in
    let after (s : Const_prop.split) = Gc_observe.Stats.of_graph s.main in
    if cfg.const_weights then
      Gc_observe.Trace.time_into trace ~stage:"graph" ~name:"const_split"
        ~before ~after Const_prop.split lp.graph
    else
      Gc_observe.Trace.time_into trace ~stage:"graph" ~name:"const_demote"
        ~before ~after
        (fun g -> { Const_prop.main = demote g; init = None })
        lp.graph
  in
  ignore (Verify.run ~pass:"const_split" split.Const_prop.main);
  Option.iter
    (fun init -> ignore (Verify.run ~pass:"const_split.init" init))
    split.Const_prop.init;
  let fg =
    Gc_observe.Trace.time_into trace ~stage:"graph" ~name:"fine_fusion"
      ~before:(Gc_observe.Stats.of_graph split.main)
      ~after:Gc_observe.Stats.of_fused
      (fun main ->
        Fusion.run ~fine:cfg.fine_fusion ~limits:cfg.fusion_limits
          ~machine:cfg.machine ~params:lp.params main ~init:split.init)
      split.main
  in
  when_ cfg.coarse_fusion
    (Gc_observe.Trace.time trace ~stage:"graph" ~name:"coarse_fusion"
       ~stats:Gc_observe.Stats.of_fused
       (Coarse_fusion.run ~machine:cfg.machine))
    fg
