(** Memory layouts: plain row-major and the blocked layouts the paper's
    templates rely on (e.g. A[M/MB, K/KB, MB, KB]).

    A blocked layout is described by an ordered list of [(axis, block)]
    pairs. The physical dimension vector is: for each logical axis in
    original order, ⌈dim / (product of its blocks)⌉; then, appended in list
    order, one physical dimension per [(axis, block)] entry. Repeating an
    axis blocks it at two levels (used for VNNI-style B[K/KB, N/NB, KB/4,
    NB, 4] layouts). Logical dimensions that are not multiples of their
    block product are zero-padded in physical memory, exactly like the
    padding the paper fuses into Tunable OP entry/exit. *)

type t =
  | Plain
  | Blocked of (int * int) list  (** [(axis, block size)] in inner order *)

val equal : t -> t -> bool
val compare : t -> t -> int

val is_plain : t -> bool
val is_blocked : t -> bool

(** Blocks applied to [axis], in list order (outermost block first). *)
val blocks_of_axis : t -> int -> int list

(** Physical dimension vector for a logical shape under this layout.
    Raises [Invalid_argument] if a blocked axis is out of range or a block
    size is not positive. *)
val physical_dims : t -> Shape.t -> Shape.t

(** Number of physical elements, including block padding. *)
val physical_numel : t -> Shape.t -> int

(** [offset t shape idx] maps a logical multi-index to the physical linear
    offset. For [Plain] this is the row-major offset. *)
val offset : t -> Shape.t -> int array -> int

(** [axis_offsets t shape] splits {!offset} into one table per logical
    axis: [offset t shape idx] is the sum over axes [a] of
    [tab.(a).(idx.(a))], and [tab.(a)] has [dim shape a] entries, the
    first of them 0. Blocked layouts are affine per axis — block
    digits of one axis never mix with another's — so a whole tensor's
    offsets come from [sum (dims)] precomputed integers. *)
val axis_offsets : t -> Shape.t -> int array array

(** Standard layouts used by the matmul template (Figure 2/6):
    - [blocked_2d ~outer_block ~inner_block] blocks axis 0 by [outer_block]
      and axis 1 by [inner_block]: X[d0/b0, d1/b1, b0, b1].
    - [blocked_2d_swapped] gives the B-matrix layout X[d0/b0, d1/b1, b1, b0]
      where the inner block dims are swapped (paper's B[K/KB, N/NB, NB, KB]).
    - [vnni ~kb ~nb] gives B[K/KB, N/NB, KB/4, NB, 4] used for int8. *)
val blocked_2d : outer_block:int -> inner_block:int -> t

val blocked_2d_swapped : outer_block:int -> inner_block:int -> t
val vnni : kb:int -> nb:int -> t

(** Apply the same blocking to the last two axes of a higher-rank tensor
    (batch dimensions stay outermost and unblocked): shifts every axis in
    [t]'s block list by [rank - 2]. *)
val batched : rank:int -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
