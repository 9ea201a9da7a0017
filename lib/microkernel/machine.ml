open Gc_tensor

type t = {
  name : string;
  cores : int;
  vector_bytes : int;
  fma_ports : int;
  l1_size : int;
  l2_size : int;
  llc_size : int;
  l1_latency : float;
  l2_latency : float;
  llc_latency : float;
  dram_latency : float;
  cache_line : int;
  dram_bw_per_core : float;
  barrier_cycles : float;
  api_call_cycles : float;
  freq_ghz : float;
}

let lanes t dt = t.vector_bytes / Dtype.size_bytes dt

let macs_per_cycle t (dt : Dtype.t) =
  let f32_rate = float_of_int (t.fma_ports * lanes t Dtype.F32) in
  match dt with
  | F32 -> f32_rate
  | Bf16 -> f32_rate
  | S8 | U8 -> 4. *. f32_rate (* VNNI: 4 int8 MACs per 32-bit lane *)
  | S32 | S64 -> f32_rate /. 2.

let xeon_8358 =
  {
    name = "Intel Xeon Platinum 8358 (Ice Lake SP)";
    cores = 32;
    vector_bytes = 64;
    fma_ports = 2;
    l1_size = 48 * 1024;
    l2_size = 1280 * 1024;
    llc_size = 48 * 1024 * 1024;
    l1_latency = 0.25;   (* amortized cycles per line with 2 load ports *)
    l2_latency = 2.0;
    llc_latency = 14.0;
    dram_latency = 40.0;
    cache_line = 64;
    dram_bw_per_core = 3.0;
    barrier_cycles = 4_000.0;
    api_call_cycles = 2_500.0;
    freq_ghz = 2.6;
  }

let test_machine =
  {
    name = "test-machine (4 cores)";
    cores = 4;
    vector_bytes = 64;
    fma_ports = 2;
    l1_size = 8 * 1024;
    l2_size = 64 * 1024;
    llc_size = 1024 * 1024;
    l1_latency = 0.25;
    l2_latency = 2.0;
    llc_latency = 14.0;
    dram_latency = 40.0;
    cache_line = 64;
    dram_bw_per_core = 3.0;
    barrier_cycles = 2_000.0;
    api_call_cycles = 10_000.0;
    freq_ghz = 2.0;
  }

let pp fmt t =
  Format.fprintf fmt "%s: %d cores, L1 %dKB, L2 %dKB, LLC %dMB" t.name t.cores
    (t.l1_size / 1024) (t.l2_size / 1024)
    (t.llc_size / (1024 * 1024))
