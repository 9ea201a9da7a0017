(** Dense tensors: a dtype, a logical shape, a memory layout and a flat
    buffer. Logical indexing is layout-transparent — [get]/[set] map through
    the layout — so reference computations and tests never need to know how
    a tensor is blocked. Kernels access {!buffer} directly. *)

type t

(** [create ?name ?layout dtype shape] allocates a zero tensor. The buffer
    length is the layout's physical element count (including block
    padding). [name] flows into the buffer's error diagnostics (memory
    budget rejections, bounds violations). *)
val create : ?name:string -> ?layout:Layout.t -> Dtype.t -> Shape.t -> t

(** Wrap an existing buffer. Raises [Invalid_argument] if the buffer is
    smaller than the layout's physical size or dtypes mismatch. *)
val of_buffer : ?layout:Layout.t -> Shape.t -> Buffer.t -> t

val dtype : t -> Dtype.t
val shape : t -> Shape.t
val layout : t -> Layout.t
val buffer : t -> Buffer.t
val numel : t -> int

(** Per-axis offset tables of [t]'s storage,
    [Layout.axis_offsets (layout t) (shape t)], for {!Walk}. *)
val axis_offsets : t -> int array array

(** [get t idx] / [set t idx v]: logical multi-index access through the
    layout. *)
val get : t -> int array -> float

val set : t -> int array -> float -> unit

(** Scalar (rank-0 or single-element) convenience. *)
val item : t -> float

val scalar : Dtype.t -> float -> t

(** [init dtype shape f] builds a plain tensor with [f idx] per element. *)
val init : ?layout:Layout.t -> Dtype.t -> Shape.t -> (int array -> float) -> t

(** [of_float_list dtype shape vals] (row-major). *)
val of_float_list : Dtype.t -> Shape.t -> float list -> t

(** Deterministic pseudo-random tensor (splitmix-style PRNG on [seed]).
    Floats are uniform in [lo, hi); integer dtypes are uniform integers in
    [lo, hi]. *)
val random : ?seed:int -> ?lo:float -> ?hi:float -> Dtype.t -> Shape.t -> t

val fill : t -> float -> unit
val copy : t -> t

(** Row-major logical contents as a float array (layout-independent). *)
val to_float_array : t -> float array

(** [iter t f] calls [f idx value] for every logical element in row-major
    order. [idx] is one array updated in place between calls: copy it to
    keep it. *)
val iter : t -> (int array -> float -> unit) -> unit

(** [map2 f a b] elementwise on same-shape tensors, result dtype of [a]. *)
val map2 : (float -> float -> float) -> t -> t -> t

(** Exact logical equality (same shape, same values; layouts may differ). *)
val equal : t -> t -> bool

(** [allclose ?rtol ?atol a b]: true when shapes match and every pair of
    elements satisfies |x-y| <= atol + rtol*|y|. *)
val allclose : ?rtol:float -> ?atol:float -> t -> t -> bool

(** Largest absolute difference between corresponding elements. *)
val max_abs_diff : t -> t -> float

(** {2 Batch-dim surgery} — building blocks for bucketed specialization
    (pad a request up to its bucket, slice the result back) and request
    coalescing (concat member inputs along dim 0, split outputs per
    ticket). Plain layouts only; shapes differing only in the leading dim
    move as a single contiguous block. All return fresh tensors except
    when the target shape already matches, where the input is returned
    as-is (treat results as read-only). *)

(** [pad_to t target] embeds [t] at the origin of a zero tensor of shape
    [target] (every target dim >= the source dim). *)
val pad_to : t -> Shape.t -> t

(** [slice_to t target] copies the origin-anchored [target] region out of
    [t] (every target dim <= the source dim). *)
val slice_to : t -> Shape.t -> t

(** [concat0 ts] stacks tensors along dim 0; all must share dtype and
    trailing dims. *)
val concat0 : t list -> t

(** [split0 t sizes] cuts [t] along dim 0 into pieces of the given sizes
    (positive, summing to dim 0). *)
val split0 : t -> int list -> t list

(** Pretty-print (truncated for large tensors). *)
val pp : Format.formatter -> t -> unit
