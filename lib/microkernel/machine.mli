(** Machine model: the hardware parameters the expert-tuned heuristic and
    the performance simulator consume.

    The default instance models the paper's testbed, an Intel Xeon Platinum
    8358 (Ice Lake SP, 32 cores, AVX-512 + VNNI). All sizes are bytes, all
    rates are per core per cycle unless stated otherwise. *)

open Gc_tensor

type t = {
  name : string;
  cores : int;
  vector_bytes : int;  (** SIMD register width (64 for AVX-512) *)
  fma_ports : int;  (** parallel FMA pipes per core *)
  l1_size : int;
  l2_size : int;
  llc_size : int;  (** shared last-level cache, total *)
  l1_latency : float;  (** cycles per cache line *)
  l2_latency : float;
  llc_latency : float;
  dram_latency : float;
  cache_line : int;
  dram_bw_per_core : float;  (** bytes per cycle per core, saturated *)
  barrier_cycles : float;  (** full-synchronization cost of one parallel section *)
  api_call_cycles : float;  (** framework-to-primitive call overhead (paper: ~10% of short MLP_1 runs) *)
  freq_ghz : float;
}

(** Peak multiply-accumulate operations per cycle per core for a dtype: one
    MAC counts as one op. AVX-512 f32: 2 pipes × 16 lanes = 32 MAC/cycle;
    VNNI int8: 4× the f32 rate; bf16 (AMX-less Ice Lake emulation): same as
    f32. *)
val macs_per_cycle : t -> Dtype.t -> float

(** SIMD lanes for a dtype ([vector_bytes / size_bytes]). *)
val lanes : t -> Dtype.t -> int

(** The paper's evaluation machine. *)
val xeon_8358 : t

(** A small generic machine for tests (4 cores, tiny caches) so cache
    effects are exercised at test-sized problems. *)
val test_machine : t

val pp : Format.formatter -> t -> unit
