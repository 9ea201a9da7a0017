open Gc_tensor
open Gc_microkernel

let acc_elems_per_line machine (dtype : Dtype.t) =
  let acc_size = match dtype with S8 | U8 -> 4 | _ -> 4 in
  machine.Machine.cache_line / acc_size

(* The modelled cycles of one configuration, on ints, given [uk], the
   microkernel's cycles for the tile: the search prices a tile's kernel
   once and reuses it across every grid and k-slicing, and {!cost} goes
   through the same formula, so both agree to the bit. *)
let cost_of ~machine ~uk ~dtype ~batch ~m ~n ~k ~mpn ~npn ~kpn ~mb ~nb ~kb ~bs =
  let mblocks = Shape.ceil_div m mb
  and nblocks = Shape.ceil_div n nb
  and kblocks = Shape.ceil_div k kb in
  let msn = Shape.ceil_div mblocks mpn and nsn = Shape.ceil_div nblocks npn in
  let ksteps = Shape.ceil_div (Shape.ceil_div kblocks bs) kpn in
  (* single-core kernel: microkernel invocations over padded blocks (one
     k-slice's worth when k-slicing is on) *)
  let compute = float_of_int (msn * nsn * ksteps) *. uk in
  (* C' zero + accumulate + the post-anchor writeback chain: the vectorized
     per-element cost of guards, index arithmetic and the eltwise chain
     (calibrated against the Tensor IR cost model) plus the L1 traffic *)
  let line = float_of_int (acc_elems_per_line machine dtype) in
  let c_elems = float_of_int (msn * nsn * mb * nb) in
  let c_traffic =
    (c_elems *. 0.6) +. (3. *. c_elems /. line *. machine.Machine.l1_latency)
  in
  (* one pass of the A and B panels from L2 per core *)
  let esize = float_of_int (Dtype.size_bytes dtype) in
  let k_pad = kblocks * kb in
  let a_bytes = float_of_int (msn * mb * k_pad) *. esize in
  let b_bytes = float_of_int (nsn * nb * k_pad) *. esize in
  let panel_traffic =
    (a_bytes +. b_bytes)
    /. float_of_int machine.Machine.cache_line
    *. machine.Machine.l2_latency
  in
  let per_task = compute +. c_traffic +. panel_traffic in
  (* waves: tasks may exceed cores *)
  let tasks = if batch > 1 then batch else mpn * npn * kpn in
  let waves = Shape.ceil_div tasks machine.Machine.cores in
  (* k-slicing pays a second parallel phase summing the partial Cs *)
  let reduction_phase =
    if kpn <= 1 then 0.
    else begin
      let elems = float_of_int (mblocks * mb * (nblocks * nb)) in
      let cpart_bytes = int_of_float elems * kpn * 4 in
      let per_line =
        if cpart_bytes <= machine.Machine.l2_size then machine.Machine.l2_latency
        else machine.Machine.llc_latency
      in
      let per_elem = per_line /. float_of_int (acc_elems_per_line machine dtype) in
      (elems *. float_of_int (kpn + 1) *. per_elem
      /. float_of_int machine.Machine.cores)
      +. machine.Machine.barrier_cycles
    end
  in
  (float_of_int waves *. per_task) +. reduction_phase
  +. machine.Machine.barrier_cycles

let kernel_cycles ~machine ~dtype ~mb ~nb ~kb ~bs =
  (Ukernel_cost.cost ~machine ~dtype ~mb ~nb ~kb ~bs).cycles

let cost ~machine (p : Params.t) =
  cost_of ~machine
    ~uk:(kernel_cycles ~machine ~dtype:p.dtype ~mb:p.mb ~nb:p.nb ~kb:p.kb ~bs:p.bs)
    ~dtype:p.dtype ~batch:p.batch ~m:p.m ~n:p.n ~k:p.k ~mpn:p.mpn ~npn:p.npn ~kpn:p.kpn
    ~mb:p.mb ~nb:p.nb ~kb:p.kb ~bs:p.bs

let grid_candidates ~cores =
  let divisor_splits c =
    List.filter_map
      (fun p -> if c mod p = 0 then Some (p, c / p) else None)
      (List.init c (fun i -> i + 1))
  in
  let base = divisor_splits cores in
  let half = if cores >= 2 then divisor_splits (cores / 2) else [] in
  let extra = [ (1, 1); (1, cores); (cores, 1) ] in
  List.sort_uniq compare (base @ half @ extra)

let tile_candidates ~machine ~dtype =
  (* Candidates are expressed in units of the kernel's register tile so the
     search space stays aligned with what Brgemm executes at full rate
     (Ukernel_cost.u_tile penalizes ragged blocks); mb = 1 is kept for
     skinny problems that cannot fill even one tile row. *)
  let tm = Ukernel_cost.tile_m and tn = Ukernel_cost.tile_n in
  let mbs = [ 1; tm; 2 * tm; 3 * tm; 4 * tm; 6 * tm; 8 * tm; 16 * tm ] in
  let nbs = [ 4 * tn; 8 * tn; 12 * tn; 16 * tn ] in
  let kbs = [ 16; 32; 64 ] in
  let bss = [ 1; 2; 4 ] in
  List.concat_map
    (fun mb ->
      List.concat_map
        (fun nb ->
          List.concat_map
            (fun kb ->
              List.filter_map
                (fun bs ->
                  if Ukernel_cost.valid ~machine ~dtype ~mb ~nb ~kb ~bs then
                    Some (mb, nb, kb, bs)
                  else None)
                bss)
            kbs)
        nbs)
    mbs

let choose ~machine ~dtype ?(batch = 1) ?force_grid ?force_tile ?mb_fixed
    ?kb_fixed ?(allow_kslice = true) ~m ~n ~k () =
  if m <= 0 || n <= 0 || k <= 0 then invalid_arg "Heuristic.choose: bad problem size";
  let grids =
    match force_grid with
    | Some g -> [ g ]
    | None ->
        if batch > 1 then [ (1, 1) ]
        else grid_candidates ~cores:machine.Machine.cores
  in
  let tiles =
    match force_tile with
    | Some t -> [ t ]
    | None ->
        tile_candidates ~machine ~dtype
        |> List.filter (fun (mb, _, kb, _) ->
               (match mb_fixed with Some v -> mb = v | None -> true)
               && match kb_fixed with Some v -> kb = v | None -> true)
  in
  if tiles = [] then invalid_arg "Heuristic.choose: no valid microkernel tiles";
  let mk ?(kpn = 1) (mpn, npn) (mb, nb, kb, bs) =
    {
      Params.m;
      n;
      k;
      batch;
      dtype;
      mpn;
      npn;
      kpn;
      mb;
      nb;
      kb;
      bs;
      loop_order = "msi,ksi,nsi";
      read_plain = false;
    }
  in
  (* the k-slicing template variant: extra reduction-axis parallelism for
     problems whose m/n grid cannot occupy the cores *)
  let kpns =
    if batch > 1 || force_grid <> None || not allow_kslice then [ 1 ]
    else [ 1; 2; 4; 8 ]
  in
  let cores = machine.Machine.cores in
  (* each tile's kernel is priced, and its block counts taken, once for
     every grid and k-slicing *)
  let priced =
    List.map
      (fun ((mb, nb, kb, bs) as tile) ->
        ( tile,
          kernel_cycles ~machine ~dtype ~mb ~nb ~kb ~bs,
          Shape.ceil_div m mb,
          Shape.ceil_div n nb,
          Shape.ceil_div (Shape.ceil_div k kb) bs ))
      tiles
  in
  let best = ref None in
  List.iter
    (fun ((mpn, npn) as grid) ->
      List.iter
        (fun (((mb, nb, kb, bs) as tile), uk, mblocks, nblocks, ksteps) ->
          (* skip grids with entirely idle rows/columns of cores, and
             k-slicings with nothing to slice or oversubscription *)
          if (mpn <= mblocks || mpn = 1) && (npn <= nblocks || npn = 1) then
            List.iter
              (fun kpn ->
                if
                  kpn = 1
                  || (ksteps >= 2 * kpn
                     && mpn * npn * kpn <= 2 * cores
                     && mpn * npn < cores)
                then begin
                  let c =
                    cost_of ~machine ~uk ~dtype ~batch ~m ~n ~k ~mpn ~npn ~kpn ~mb ~nb ~kb ~bs
                  in
                  match !best with
                  | Some (c0, _, _, _) when c0 <= c -> ()
                  | _ -> best := Some (c, grid, tile, kpn)
                end)
              kpns)
        priced)
    grids;
  match !best with
  | Some (_, grid, tile, kpn) -> mk ~kpn grid tile
  | None -> mk (List.hd grids) (List.hd tiles)

let choose_conv ~machine ~dtype ~batch ~oh ~ow ~oc ~kh ~kw ~c () =
  (* im2col GEMM view of the convolution: every output pixel is a GEMM row,
     every output channel a column, the receptive field the k axis. The
     k-sliced template variant is excluded — its partial-C reduction phase
     assumes the plain 2-D packing path, not the conv gather. *)
  if batch <= 0 || oh <= 0 || ow <= 0 || oc <= 0 || kh <= 0 || kw <= 0 || c <= 0
  then invalid_arg "Heuristic.choose_conv: bad conv geometry";
  choose ~machine ~dtype ~allow_kslice:false ~m:(batch * oh * ow)
    ~n:oc ~k:(kh * kw * c) ()
