(** Strided walks over a logical index space: the one data-movement loop
    under the reference evaluator.

    A walk visits every multi-index of a logical shape in row-major order
    and hands its callback the physical offset of that index in each of two
    or three tensors. Offsets come from per-axis tables
    ({!Layout.axis_offsets}, or {!broadcast} of them): each step adds one
    table entry per tensor, so a walk allocates nothing per element. The
    callbacks receive plain integers; an element read or store on them
    costs what the buffer access costs and nothing else. *)

(** One offset table per logical axis, as {!Layout.axis_offsets} returns. *)
type tables = int array array

(** [broadcast tabs ~from onto] re-indexes the tables of a tensor of shape
    [from] over the broadcast shape [onto] (NumPy rules, see
    {!Shape.broadcast}): missing leading axes and axes of size 1 get a zero
    table, so every index of [onto] reads the element it broadcasts
    from. *)
val broadcast : tables -> from:Shape.t -> Shape.t -> tables

(** [iter2 shape ta tb f] calls [f oa ob] for every index of [shape] in
    row-major order, where [oa]/[ob] sum [ta]/[tb] over the index's axes.
    Each table must have at least [dim shape a] entries on axis [a]. A
    rank-0 shape is one element at offset 0. *)
val iter2 : Shape.t -> tables -> tables -> (int -> int -> unit) -> unit

(** Three-tensor {!iter2}. *)
val iter3 :
  Shape.t -> tables -> tables -> tables -> (int -> int -> int -> unit) -> unit

(** [copy shape ~src ts ~dst td] stores every element of [src] at its
    offset in [td]. When the buffers share a dtype other than bf16 the
    pair is matched once and each element moves through typed Bigarray
    access (no float is boxed, s64 values move exactly); an f32
    destination reads any source unboxed; every other pair reads a float
    and stores it with {!Buffer.set}'s rounding and saturation (bf16
    re-rounds, as a store always has). *)
val copy :
  Shape.t -> src:Buffer.t -> tables -> dst:Buffer.t -> tables -> unit

(** One pass comparing two tensors of [shape] element by element. *)
type diff = {
  max_abs : float;  (** the largest |x − y|; NaN once any difference is NaN *)
  unequal : int;  (** pairs with x ≠ y *)
  far : int;  (** pairs with |x − y| > atol + rtol·|y| *)
}

(** [diff shape ~rtol ~atol a ta b tb] compares every element of [a] (at
    its offset in [ta]) with the same index of [b]; it allocates nothing
    per element. *)
val diff :
  Shape.t -> rtol:float -> atol:float -> Buffer.t -> tables -> Buffer.t -> tables -> diff
