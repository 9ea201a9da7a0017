open Gc_tensor
open Gc_microkernel

(** The expert-tuned parameter heuristic (paper §"Microkernel-Based
    Template"): for a given matmul problem it

    + proposes single-core-kernel decompositions — a set of [MPN, NPN]
      core grids with good load balance;
    + proposes microkernel tiles — a set of [MB, NB, KB, BS] that are
      multiples of the vector width, fit L1 and keep the register file
      busy ({!Ukernel_cost.valid});
    + searches the cross product with a cost model combining multi-core
      load balance and single-core kernel efficiency, and reports the
      loop ordering it assumed.

    The cost model is also exported so the performance simulator and the
    ablation benches can re-cost a forced parameter choice. *)

(** Estimated cycles for executing the whole Tunable OP with [params] on
    [machine]: per-core microkernel work (padded block arithmetic — ragged
    dimensions pay for their padding), C-accumulator traffic, load
    imbalance across the core grid, and one barrier. *)
val cost : machine:Machine.t -> Params.t -> float

(** [choose ~machine ~dtype ~m ~n ~k ()] returns the best parameters.
    [batch] > 1 selects the batched-matmul template: the core grid
    parallelizes over batch instead of the m/n plane (mpn = npn = 1) and
    the per-task problem is the single [m × n × k] matmul.
    [force_grid]/[force_tile] pin dimensions for ablation studies;
    [mb_fixed]/[kb_fixed] constrain the search to aligned tiles (used by
    layout propagation and coarse-grain fusion to match a neighbour's
    blocking). [allow_kslice:false] excludes the k-sliced template variant
    (kpn is pinned to 1) for lowerings that do not support its partial-C
    reduction phase. Raises [Invalid_argument] if the constraints leave no
    valid tile. *)
val choose :
  machine:Machine.t ->
  dtype:Dtype.t ->
  ?batch:int ->
  ?force_grid:int * int ->
  ?force_tile:int * int * int * int ->
  ?mb_fixed:int ->
  ?kb_fixed:int ->
  ?allow_kslice:bool ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  Params.t

(** Tile selection for a Conv2d lowered through im2col: the GEMM problem is
    [m = batch·OH·OW, n = OC, k = KH·KW·C]. K-slicing is excluded — the
    conv A-packing gather only exists in the plain template. *)
val choose_conv :
  machine:Machine.t ->
  dtype:Dtype.t ->
  batch:int ->
  oh:int ->
  ow:int ->
  oc:int ->
  kh:int ->
  kw:int ->
  c:int ->
  unit ->
  Params.t
