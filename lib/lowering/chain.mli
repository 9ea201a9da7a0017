open Gc_graph_ir
open Gc_tensor_ir

(** Scalar-chain compilation of fusible op sequences: turns a topological
    run of element-wise ops into one expression per element, the way the
    paper's Figure 6 merges the fused ReLU and reorder into a single loop
    body. Used by post-op anchor lowering and by standalone fusible-group
    lowering. *)

type t

(** [create ~tmap ~point] starts a chain evaluated at the element whose
    logical index in the fused op's output space is [point]. External
    operands are loaded through [tmap] with broadcast index mapping. *)
val create :
  tmap:(Logical_tensor.t -> Ir.tensor) -> point:Ir.expr array -> t

(** Bind a logical tensor to a scalar expression (e.g. the accumulator
    value loaded from C'). *)
val bind : t -> Logical_tensor.t -> Ir.expr -> unit

(** Bind a reduction result to a scalar variable (per-row accumulator). *)
val bind_var : t -> Logical_tensor.t -> Ir.var -> unit

(** [access t lt] is the tensor and physical index of [lt]'s element at
    the chain's point, broadcast into [lt]'s shape (size-1 dimensions read
    index 0). *)
val access : t -> Logical_tensor.t -> Ir.tensor * Ir.expr array

(** The current scalar value of a logical tensor at the chain's point:
    a bound value, an inlined compile-time scalar constant, or a broadcast
    load from the external tensor. *)
val value : t -> Logical_tensor.t -> Ir.expr

(** [apply t op] computes [op]'s output expression from its input values
    and binds it. Supports every Fusible elementwise/movement kind
    (reorders and broadcasts are value-transparent at a point). Raises
    [Invalid_argument] on reductions — the caller schedules those. *)
val apply : t -> Op.t -> Ir.expr

(** [eltwise_expr kind attrs args] is the raw expression for an eltwise op
    applied to argument expressions. *)
val eltwise_expr : Op_kind.t -> Attrs.t -> Ir.expr list -> Ir.expr
