(** Tensor shapes: immutable integer dimension vectors with the broadcast
    and indexing arithmetic used throughout the compiler. *)

type t

(** [of_list dims] builds a shape. Raises [Invalid_argument] on a negative
    dimension. Scalars are rank-0 shapes ([of_list []]). *)
val of_list : int list -> t

val of_array : int array -> t
val to_list : t -> int list
val to_array : t -> int array

val rank : t -> int

(** [dim t i] is the size of dimension [i]. Raises [Invalid_argument] when
    [i] is out of bounds. *)
val dim : t -> int -> int

(** Total number of elements (product of dimensions; 1 for scalars). *)
val numel : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val scalar : t
val is_scalar : t -> bool

(** Row-major strides in elements. *)
val row_major_strides : t -> int array

(** [offset t idx] is the row-major linear offset of multi-index [idx].
    Raises [Invalid_argument] on rank mismatch or out-of-range index. *)
val offset : t -> int array -> int

(** [unoffset t linear] inverts {!offset}. *)
val unoffset : t -> int -> int array

(** NumPy-style broadcast of two shapes; [None] when incompatible. Missing
    leading dimensions are treated as 1. *)
val broadcast : t -> t -> t option

(** [iter t f] calls [f] on every multi-index of [t] in row-major order. *)
val iter : t -> (int array -> unit) -> unit

(** [concat a b] appends dimensions. *)
val concat : t -> t -> t

(** [sub t lo hi] is the shape of dimensions [lo..hi-1]. *)
val sub : t -> int -> int -> t

(** [ceil_div a b] = ⌈a/b⌉, used pervasively by blocking arithmetic. *)
val ceil_div : int -> int -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
