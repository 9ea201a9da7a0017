open Gc_tensor

type t = {
  m : int;
  n : int;
  k : int;
  batch : int;
  dtype : Dtype.t;
  mpn : int;
  npn : int;
  kpn : int;
  mb : int;
  nb : int;
  kb : int;
  bs : int;
  loop_order : string;
  read_plain : bool;
}

let mblocks t = Shape.ceil_div t.m t.mb
let nblocks t = Shape.ceil_div t.n t.nb
let kblocks t = Shape.ceil_div t.k t.kb
let msn t = Shape.ceil_div (mblocks t) t.mpn
let nsn t = Shape.ceil_div (nblocks t) t.npn
let ksteps t = Shape.ceil_div (kblocks t) t.bs
let ksteps_per_slice t = Shape.ceil_div (ksteps t) t.kpn
let m_pad t = mblocks t * t.mb
let n_pad t = nblocks t * t.nb
let k_pad t = kblocks t * t.kb
let a_layout t = Layout.blocked_2d ~outer_block:t.mb ~inner_block:t.kb
let b_layout t = Layout.blocked_2d_swapped ~outer_block:t.kb ~inner_block:t.nb
let c_layout t = Layout.blocked_2d ~outer_block:t.mb ~inner_block:t.nb

let pp fmt t =
  Format.fprintf fmt
    "params{%dx%dx%d%s %s grid=%dx%d%s tile=[%d,%d,%d] bs=%d order=%s}" t.m
    t.n t.k
    (if t.batch > 1 then Printf.sprintf " batch=%d" t.batch else "")
    (Dtype.to_string t.dtype) t.mpn t.npn
    (if t.kpn > 1 then Printf.sprintf " kslices=%d" t.kpn else "")
    t.mb t.nb t.kb t.bs t.loop_order

let to_string t = Format.asprintf "%a" pp t
