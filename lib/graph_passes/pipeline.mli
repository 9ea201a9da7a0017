open Gc_microkernel
open Gc_graph_ir
open Gc_lowering

(** The Graph IR optimization module (paper Figure 1/5): runs the pass
    sequence

    low-precision conversion → complex-op decomposition → constant folding
    → CSE → DCE → runtime-constant marking → layout propagation →
    constant-weight split (init extraction) → fine-grain fusion →
    coarse-grain fusion

    and produces the graph of Fused OPs the lowering consumes. Every pass
    can be disabled individually for the paper's ablations (Figure 8's
    middle bars disable coarse-grain fusion). *)

type config = {
  machine : Machine.t;
  low_precision : bool;
  const_fold : bool;
  cse : bool;
  dce : bool;
  const_weights : bool;  (** runtime-constant preprocessing / init split *)
  layout_propagation : bool;
  propagate_activations : bool;
      (** blocked layouts flow between Tunable OPs (graph-scope only) *)
  fine_fusion : bool;
  fusion_limits : Fusion.limits;
  coarse_fusion : bool;
  primitive_softmax : bool;
      (** keep last-axis softmax whole, lowered as one tuned kernel (the
          primitives baseline) instead of decomposed fusible ops *)
}

val default : ?machine:Machine.t -> unit -> config

(** Everything off except decomposition — the op-by-op setting. *)
val no_opt : ?machine:Machine.t -> unit -> config

(** The oneDNN-primitives baseline the paper compares against: weight
    prepacking + caching, eltwise/binary post-op fusion, int8 — but no
    softmax fusion, no cross-primitive layouts, no coarse-grain fusion,
    and one parallel section (and one API call) per primitive. *)
val onednn_primitives : ?machine:Machine.t -> unit -> config

(** [run ?trace cfg g]: when [trace] is given, every pass is timed and its
    before/after IR statistics recorded ({!Gc_observe.Trace}); [None] adds
    no work. *)
val run :
  ?trace:Gc_observe.Trace.t ->
  config ->
  Graph.t ->
  Fused_op.graph
