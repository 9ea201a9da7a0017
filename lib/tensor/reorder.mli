(** Layout conversion, dtype casts, transposes, broadcasts and reshapes —
    the data-movement operations the compiler inserts at graph boundaries
    and between Tunable OPs with mismatched blocked layouts. Each is one
    {!Walk} over the logical shape. *)

(** [to_layout t layout] copies [t] into a fresh tensor with the same
    logical contents under [layout]. Block padding is zero-filled. [name]
    flows into the destination buffer's error diagnostics. *)
val to_layout : ?name:string -> Tensor.t -> Layout.t -> Tensor.t

(** [cast t dtype] converts elementwise (saturating / rounding per dtype). *)
val cast : ?name:string -> Tensor.t -> Dtype.t -> Tensor.t

(** [transpose t perm] permutes logical dimensions; result is plain. *)
val transpose : Tensor.t -> int array -> Tensor.t

(** [broadcast t target] expands [t] to the NumPy-broadcast shape
    [target]; result is plain. *)
val broadcast : Tensor.t -> Shape.t -> Tensor.t

(** [reshape t target] reads [t] in row-major logical order into a plain
    tensor of shape [target]. Raises [Invalid_argument] when the element
    counts differ. *)
val reshape : Tensor.t -> Shape.t -> Tensor.t
