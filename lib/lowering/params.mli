open Gc_tensor

(** Template instantiation parameters for a Tunable OP — the values the
    expert-tuned heuristic decides (Figure 2's table): the core grid
    [MPN × NPN], the microkernel tile [MB, NB, KB], the reduction batch
    [BS], and the loop order the heuristic assumed. Everything else (MSN,
    NSN, KSN, ...) is derived. *)

type t = {
  m : int;  (** output rows of one matmul task *)
  n : int;
  k : int;
  batch : int;  (** number of independent (batched) matmul tasks; 1 for 2-D *)
  dtype : Dtype.t;  (** operand dtype (f32 / bf16 / u8 / s8) *)
  mpn : int;  (** core-grid rows (parallel tasks along m), 1 for batched *)
  npn : int;  (** core-grid cols *)
  kpn : int;
      (** k-slices (the paper's "k-slicing" template variant): when > 1,
          the reduction axis is split over [kpn] additional parallel
          tasks, each producing a partial C, summed in a second parallel
          phase — extra parallelism for small-m×n problems *)
  mb : int;
  nb : int;
  kb : int;
  bs : int;
  loop_order : string;  (** inner loop order the heuristic assumed, e.g. "msi,ksi,nsi" *)
  read_plain : bool;
      (** a plain operand is read in place through its row pitch instead
          of packed, tails included; set by layout propagation on every
          matmul whose A is plain *)
}

(** Derived quantities (Figure 2's table). Block counts use padded
    (ceiling) arithmetic: dimensions that are not multiples of the tile pad
    up, exactly as the template pads at graph entry/exit. *)

val mblocks : t -> int  (** ⌈m / mb⌉ *)

val nblocks : t -> int
val kblocks : t -> int  (** KSN = ⌈k / kb⌉ *)

val msn : t -> int  (** microkernel rows per single-core kernel: ⌈mblocks / mpn⌉ *)

val nsn : t -> int
val ksteps : t -> int  (** reduction steps per kernel: ⌈KSN / bs⌉ *)

val ksteps_per_slice : t -> int  (** ⌈ksteps / kpn⌉ *)

(** Padded problem sizes. *)
val m_pad : t -> int

val n_pad : t -> int
val k_pad : t -> int

(** Desired blocked layouts for the operands under these parameters. *)
val a_layout : t -> Layout.t  (** A[M/MB, K/KB, MB, KB] *)

val b_layout : t -> Layout.t  (** B[K/KB, N/NB, NB, KB] *)

val c_layout : t -> Layout.t  (** C[M/MB, N/NB, MB, NB] *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
