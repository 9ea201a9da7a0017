open Gc_tensor
open Gc_graph_ir
open Gc_tensor_ir

let iv name = Ir.fresh_var ~name Ir.Index

let for_ ?(parallel = false) ?tag v lo hi body =
  Ir.For { v; lo; hi; step = Ir.Int 1; body; parallel; merge_tag = tag }

let acc_dtype (dt : Dtype.t) : Dtype.t =
  match dt with S8 | U8 -> S32 | Bf16 -> F32 | d -> d

let ( +: ) a b = Ir.Binop (Ir.Add, a, b)
let ( -: ) a b = Ir.Binop (Ir.Sub, a, b)
let ( *: ) a b = Ir.Binop (Ir.Mul, a, b)
let ( <: ) a b = Ir.Binop (Ir.Lt, a, b)
let ( >=: ) a b = Ir.Binop (Ir.Ge, a, b)
let ( &&: ) a b = Ir.Binop (Ir.And, a, b)

(* A [ri < rows] × [ci < cols] loop nest running [store] where both
   indices are in range and [pad] elsewhere. Only an axis with a tail has
   a range test ([Some]); the row axis is tested once per row. *)
let guarded_nest (ri, rows, row_ok) (ci, cols, col_ok) ~store ~pad =
  let guard ok body pad = match ok with None -> body | Some c -> [ Ir.If (c, body, pad) ] in
  let pad_row = if pad = [] then [] else [ for_ ci (Ir.Int 0) (Ir.Int cols) pad ] in
  for_ ri (Ir.Int 0) (Ir.Int rows)
    (guard row_ok [ for_ ci (Ir.Int 0) (Ir.Int cols) (guard col_ok store pad) ] pad_row)

(* Peel the coordinates of a flat row-major index off [expr] by div/mod
   against [dims] (innermost dimension varies fastest). *)
let decompose_flat expr dims =
  let r = Array.length dims in
  let exprs = Array.make r (Ir.Int 0) in
  let rem = ref expr in
  for i = r - 1 downto 0 do
    if i = 0 then exprs.(0) <- !rem
    else begin
      exprs.(i) <- Ir.Binop (Ir.Mod, !rem, Ir.Int dims.(i));
      rem := Ir.Binop (Ir.Div, !rem, Ir.Int dims.(i))
    end
  done;
  exprs

(* A total tensor map: externals resolve through [tmap]; internal logical
   tensors get function-local plain tensors, created on demand (the
   "temporary tensors introduced by fusion" the paper's Tensor IR
   optimizations then shrink). *)
type tensors = {
  tmap : Logical_tensor.t -> Ir.tensor option;
  locals : (int, Ir.tensor) Hashtbl.t;
}

let resolve ts (lt : Logical_tensor.t) =
  match ts.tmap lt with
  | Some t -> t
  | None -> (
      match Hashtbl.find_opt ts.locals lt.id with
      | Some t -> t
      | None ->
          let t =
            Index_map.tir_tensor ~name:(lt.name ^ "_tmp") ~storage:Ir.Local lt
          in
          Hashtbl.add ts.locals lt.id t;
          t)

(* Split a post-op list into reduction segments: ([eltwise...], Some reduce)
   pairs plus a trailing ([eltwise...], None). *)
let split_segments ops =
  let rec go acc cur = function
    | [] -> List.rev ((List.rev cur, None) :: acc)
    | (op : Op.t) :: rest -> (
        match op.kind with
        | Reduce _ -> go ((List.rev cur, Some op) :: acc) [] rest
        | _ -> go acc (op :: cur) rest)
  in
  go [] [] ops

let reduce_init (k : Op_kind.reduce_kind) =
  match k with
  | Sum | Mean -> Ir.Float 0.
  | Max -> Ir.Float neg_infinity
  | Min -> Ir.Float infinity

let reduce_combine (k : Op_kind.reduce_kind) acc v =
  match k with
  | Sum | Mean -> Ir.Binop (Ir.Add, acc, v)
  | Max -> Ir.Binop (Ir.Max, acc, v)
  | Min -> Ir.Binop (Ir.Min, acc, v)

let lower ~tmap (f : Fused_op.t) =

  let p =
    match f.params with
    | Some p -> p
    | None -> invalid_arg "Lower_tunable: fused op has no template parameters"
  in
  let tun =
    match f.tunable with
    | Some t -> t
    | None -> invalid_arg "Lower_tunable: fused op has no tunable op"
  in
  let a_in, b_in =
    match tun.inputs with [ a; b ] -> (a, b) | _ -> assert false
  in
  let c_lt = Op.output tun in
  let transpose_b =
    Option.value (Attrs.get_bool tun.attrs "transpose_b") ~default:false
  in
  let a_src = match f.pre_a with Some (op, _) -> List.hd op.inputs | None -> a_in in
  let b_src = match f.pre_b with Some (op, _) -> List.hd op.inputs | None -> b_in in
  (* Conv2d rides the same template through its im2col GEMM view: the
     packing anchors perform the gather, everything downstream (microkernel,
     writeback anchors) sees a plain [m=N·OH·OW, n=OC, k=KH·KW·C] matmul. *)
  let conv =
    match tun.kind with
    | Op_kind.Conv2d -> (
        match Infer.conv_attrs tun.attrs with
        | Ok v -> Some v
        | Error e -> invalid_arg ("Lower_tunable: " ^ e))
    | _ -> None
  in
  let c_rank = Shape.rank c_lt.shape in
  let batched = c_rank > 2 && conv = None in
  let batch_dims =
    if batched then Shape.sub c_lt.shape 0 (c_rank - 2) else Shape.scalar
  in
  (match conv with
  | None -> ()
  | Some _ ->
      let cs = Shape.to_array c_lt.shape and ws = Shape.to_array b_src.shape in
      if
        p.m <> cs.(0) * cs.(1) * cs.(2)
        || p.n <> cs.(3)
        || p.k <> ws.(0) * ws.(1) * ws.(2)
      then
        invalid_arg
          "Lower_tunable: template parameters disagree with the conv's im2col \
           GEMM view");
  let m = p.m and n = p.n and k = p.k in
  let mblocks = Params.mblocks p
  and nblocks = Params.nblocks p
  and kblocks = Params.kblocks p in
  let msn = Params.msn p and nsn = Params.nsn p and ksteps = Params.ksteps p in
  let mb = p.mb and nb = p.nb and kb = p.kb and bs = p.bs in
  (* the axes the tiles do not divide: only they are ever tested *)
  let m_tail = m mod mb <> 0 and n_tail = n mod nb <> 0 and k_tail = k mod kb <> 0 in
  let when_ tail c = if tail then Some c else None in
  let ts = { tmap; locals = Hashtbl.create 16 } in

  (* An operand is read in place when the kernel can address its bytes
     where they lie: it carries the template's blocked layout (layout
     propagation arranged it), or — when layout propagation allowed it
     ([read_plain]) — it is plain. A plain K-innermost operand is MB (or
     NB) rows of a K-run, [lda] (or [-ldb]) = K apart: A, and B under
     [transpose_b]. A plain N-innermost B is KB of the kernel's K×N rows,
     [ldb = N] apart (f32 only). Tails are read in place too: the call
     passes a ragged tile's valid rows and the last K block's extent, so
     the kernel stops where the tensor does. *)
  let direct (src : Logical_tensor.t) ~slab ~k_inner =
    conv = None
    &&
    if Layout.is_plain src.layout then
      p.read_plain && (k_inner || Dtype.is_float p.dtype)
    else (not batched) && (not transpose_b) && Layout.equal src.layout slab
  in
  let a_direct = direct a_src ~slab:(Params.a_layout p) ~k_inner:true in
  let b_direct = direct b_src ~slab:(Params.b_layout p) ~k_inner:transpose_b in
  let a_plain = a_direct && Layout.is_plain a_src.layout in
  let b_plain = b_direct && Layout.is_plain b_src.layout in
  (* C is accumulated straight into a plain output tile when nothing runs
     between the kernel and the store: no post-op groups, no dtype change,
     no k-slice partials, and no padded rows or columns to drop. *)
  let acc_dt = acc_dtype a_src.dtype in
  let c_direct =
    conv = None && f.post_groups = [] && p.kpn = 1 && Dtype.equal acc_dt c_lt.dtype
    && Layout.is_plain c_lt.layout && (not m_tail) && not n_tail
  in

  (* Loop variables *)
  let mpi = iv "mpi" and npi = iv "npi" and bi = iv "bi" in
  let msi = iv "msi" and nsi = iv "nsi" and ks = iv "ksi" in
  let mpsi = iv "mpsi" and npsi = iv "npsi" in
  let mbi = iv "mbi" and nbi = iv "nbi" in
  (* [body] once per in-range M (N) tile of the task, with [mpsi] ([npsi])
     bound to the tile's index *)
  let over_m_tiles body =
    for_ msi (Ir.Int 0) (Ir.Int msn)
      [
        Ir.Assign (mpsi, (Ir.v mpi *: Ir.Int msn) +: Ir.v msi);
        Ir.If (Ir.v mpsi <: Ir.Int mblocks, body, []);
      ]
  in
  let over_n_tiles body =
    for_ nsi (Ir.Int 0) (Ir.Int nsn)
      [
        Ir.Assign (npsi, (Ir.v npi *: Ir.Int nsn) +: Ir.v nsi);
        Ir.If (Ir.v npsi <: Ir.Int nblocks, body, []);
      ]
  in

  (* Batch index expressions of the output space, decomposed from the flat
     batch loop variable. *)
  let out_batch =
    if batched then decompose_flat (Ir.v bi) (Shape.to_array batch_dims) else [||]
  in
  (* Map the output batch point into an operand's (possibly broadcast)
     batch dims, then append the two inner coordinates. *)
  let operand_index (lt : Logical_tensor.t) i1 i2 =
    let r = Shape.rank lt.shape in
    let nbdims = r - 2 in
    let ob = Array.length out_batch in
    Array.init r (fun i ->
        if i < nbdims then
          if Shape.dim lt.shape i = 1 then Ir.Int 0
          else out_batch.(ob - nbdims + i)
        else if i = nbdims then i1
        else i2)
  in

  (* Local buffers of the single-core kernel *)
  let cacc = Ir.fresh_tensor ~name:"Cacc" ~storage:Ir.Local acc_dt [| nsn; mb; nb |] in
  let apack =
    if a_direct then None
    else Some (Ir.fresh_tensor ~name:"Apack" ~storage:Ir.Local a_src.dtype [| bs; mb; kb |])
  in
  let bpack =
    if b_direct then None
    else
      Some
        (Ir.fresh_tensor ~name:"Bpack" ~storage:Ir.Local b_src.dtype
           [| kblocks; nblocks; nb; kb |])
  in

  (* ---- pre-op packing loops (the pre anchors) ---- *)
  (* Pack one [bs_eff, MB, KB] slab of A at pre anchor #4. *)
  let bs_eff =
    Ir.Binop
      (Ir.Min, Ir.Int bs, Ir.Binop (Ir.Sub, Ir.Int kblocks, Ir.v ks *: Ir.Int bs))
  in
  let pack_a =
    match (apack, conv) with
    | None, _ -> []
    | Some ap, Some ((sh, sw), (pt, pl, _, _), (dh, dw)) ->
        (* im2col gather (pre anchor #4): decompose the GEMM row into the
           output pixel (n, oh, ow) and the GEMM column into the receptive
           field tap (kh, kw, c), then load x[n, oh·sh−pt+kh·dh,
           ow·sw−pl+kw·dw, c]. Always guarded: conv padding makes taps fall
           outside the input even when the GEMM itself is unpadded. *)
        let xs = Shape.to_array a_src.shape in
        let ws = Shape.to_array b_src.shape in
        let cs = Shape.to_array c_lt.shape in
        let bb = iv "bb" and i = iv "i" and j = iv "j" in
        let arv = iv "arow" and acv = iv "acol" in
        let arow = (Ir.v mpsi *: Ir.Int mb) +: Ir.v i in
        let acol = ((Ir.v ks *: Ir.Int bs) +: Ir.v bb) *: Ir.Int kb +: Ir.v j in
        let opix = decompose_flat (Ir.v arv) [| cs.(0); cs.(1); cs.(2) |] in
        let tap = decompose_flat (Ir.v acv) [| ws.(0); ws.(1); ws.(2) |] in
        let ihv = iv "ih" and iwv = iv "iw" in
        let dst = [| Ir.v bb; Ir.v i; Ir.v j |] in
        let src_idx = [| opix.(0); Ir.v ihv; Ir.v iwv; tap.(2) |] in
        let src_idx =
          Index_map.physical a_src.layout ~rank:4 src_idx
        in
        let load = Ir.Load (resolve ts a_src, src_idx) in
        let valid =
          Ir.v arv <: Ir.Int m
          &&: (Ir.v acv <: Ir.Int k)
          &&: (Ir.v ihv >=: Ir.Int 0)
          &&: (Ir.v ihv <: Ir.Int xs.(1))
          &&: (Ir.v iwv >=: Ir.Int 0)
          &&: (Ir.v iwv <: Ir.Int xs.(2))
        in
        let body =
          [
            Ir.Assign (arv, arow);
            Ir.Assign (acv, acol);
            Ir.Assign
              (ihv, (opix.(1) *: Ir.Int sh) +: (tap.(0) *: Ir.Int dh) -: Ir.Int pt);
            Ir.Assign
              (iwv, (opix.(2) *: Ir.Int sw) +: (tap.(1) *: Ir.Int dw) -: Ir.Int pl);
            Ir.If
              (valid, [ Ir.Store (ap, dst, load) ],
               [ Ir.Store (ap, dst, Ir.Float 0.) ]);
          ]
        in
        [
          for_ bb (Ir.Int 0) bs_eff
            [ for_ i (Ir.Int 0) (Ir.Int mb) [ for_ j (Ir.Int 0) (Ir.Int kb) body ] ];
        ]
    | Some ap, None ->
        let bb = iv "bb" and i = iv "i" and j = iv "j" in
        let arow = (Ir.v mpsi *: Ir.Int mb) +: Ir.v i in
        let acol = ((Ir.v ks *: Ir.Int bs) +: Ir.v bb) *: Ir.Int kb +: Ir.v j in
        let src_idx = operand_index a_src arow acol in
        let src_idx = Index_map.physical a_src.layout ~rank:(Shape.rank a_src.shape) src_idx in
        let dst = [| Ir.v bb; Ir.v i; Ir.v j |] in
        let load = Ir.Load (resolve ts a_src, src_idx) in
        [
          for_ bb (Ir.Int 0) bs_eff
            [
              guarded_nest
                (i, mb, when_ m_tail (arow <: Ir.Int m))
                (j, kb, when_ k_tail (acol <: Ir.Int k))
                ~store:[ Ir.Store (ap, dst, load) ]
                ~pad:[ Ir.Store (ap, dst, Ir.Float 0.) ];
            ];
        ]
  in
  (* Pack the whole B panel once per task at pre anchor #2. *)
  let pack_b =
    match bpack with
    | None -> []
    | Some bp ->
        let kbi = iv "kbi" and nbj = iv "nbj" and jn = iv "jn" and jk = iv "jk" in
        let kk = (Ir.v kbi *: Ir.Int kb) +: Ir.v jk in
        let nn = (Ir.v nbj *: Ir.Int nb) +: Ir.v jn in
        let src_idx =
          match conv with
          | Some _ ->
              (* HWIO weights: the GEMM k coordinate decomposes into the
                 receptive-field tap (kh, kw, c); the column is oc *)
              let ws = Shape.to_array b_src.shape in
              let tap = decompose_flat kk [| ws.(0); ws.(1); ws.(2) |] in
              [| tap.(0); tap.(1); tap.(2); nn |]
          | None ->
              let i1, i2 = if transpose_b then (nn, kk) else (kk, nn) in
              operand_index b_src i1 i2
        in
        let src_idx = Index_map.physical b_src.layout ~rank:(Shape.rank b_src.shape) src_idx in
        let dst = [| Ir.v kbi; Ir.v nbj; Ir.v jn; Ir.v jk |] in
        let load = Ir.Load (resolve ts b_src, src_idx) in
        [
          for_ kbi (Ir.Int 0) (Ir.Int kblocks)
            [
              for_ nbj (Ir.Int 0) (Ir.Int nblocks)
                [
                  guarded_nest
                    (jn, nb, when_ n_tail (nn <: Ir.Int n))
                    (jk, kb, when_ k_tail (kk <: Ir.Int k))
                    ~store:[ Ir.Store (bp, dst, load) ]
                    ~pad:[ Ir.Store (bp, dst, Ir.Float 0.) ];
                ];
            ];
        ]
  in

  (* ---- the microkernel call ---- *)
  let kbase = Ir.v ks *: Ir.Int bs in
  (* a direct operand is addressed in its own layout: blocked ones by
     block coordinates, plain ones by their first element, the next batch
     block KB further along K *)
  let row0 = Ir.v mpsi *: Ir.Int mb and col0 = Ir.v npsi *: Ir.Int nb in
  let k0 = kbase *: Ir.Int kb in
  let a_addr =
    match apack with
    | Some ap -> Ir.Addr (ap, [| Ir.Int 0; Ir.Int 0; Ir.Int 0 |])
    | None when a_plain -> Ir.Addr (resolve ts a_src, operand_index a_src row0 k0)
    | None -> Ir.Addr (resolve ts a_src, [| Ir.v mpsi; kbase; Ir.Int 0; Ir.Int 0 |])
  in
  let b_addr =
    match bpack with
    | Some bp -> Ir.Addr (bp, [| kbase; Ir.v npsi; Ir.Int 0; Ir.Int 0 |])
    | None when b_plain ->
        Ir.Addr
          ( resolve ts b_src,
            if transpose_b then operand_index b_src col0 k0 else operand_index b_src k0 col0 )
    | None -> Ir.Addr (resolve ts b_src, [| kbase; Ir.v npsi; Ir.Int 0; Ir.Int 0 |])
  in
  let a_stride = if a_plain then kb else mb * kb in
  let b_stride =
    if not b_plain then nblocks * nb * kb else if transpose_b then kb else kb * n
  in
  (* leading dimensions: N×K B's pitch is K (0 when that is the slab's),
     K×N B's is N *)
  let lda = if a_plain then k else kb in
  let ldb = if not b_plain then 0 else if not transpose_b then n else if k = kb then 0 else -k in
  (* an operand read in place stops where the tensor does: a ragged tile
     passes its valid rows (columns) and the batch's last K block its
     valid extent; packed operands run on through their zero padding *)
  let extent ~tail ~block ~total start =
    if tail then Intrinsic.ragged_extent ~block ~total start else Ir.Int block
  in
  let mb_arg = extent ~tail:(a_plain && m_tail) ~block:mb ~total:m row0 in
  let nb_arg = extent ~tail:(b_plain && n_tail) ~block:nb ~total:n col0 in
  let klast =
    extent ~tail:((a_plain || b_plain) && k_tail) ~block:kb ~total:k
      ((kbase +: bs_eff -: Ir.Int 1) *: Ir.Int kb)
  in
  (* the output tile at (row, col) of a direct C *)
  let c_at row col =
    Ir.Addr (resolve ts c_lt, Array.append out_batch [| row; col |])
  in
  let brgemm_call =
    let c_addr =
      if c_direct then c_at row0 col0 else Ir.Addr (cacc, [| Ir.v nsi; Ir.Int 0; Ir.Int 0 |])
    in
    (* trailing operands only where an operand needs them, so templates
       that pack A and B and stage C keep the slab form ([ldc] is explicit
       once [nb] is a valid extent, not the slab's width) *)
    let ld =
      let ldb = Ir.Int ldb and ldc = Ir.Int (if c_direct then n else nb) in
      if klast <> Ir.Int kb then [ ldb; ldc; Ir.Int lda; klast ]
      else if lda <> kb then [ ldb; ldc; Ir.Int lda ]
      else if c_direct || ldb <> Ir.Int 0 || nb_arg <> Ir.Int nb then [ ldb; ldc ]
      else []
    in
    Ir.Call
      ( "brgemm",
        [
          bs_eff; mb_arg; nb_arg; Ir.Int kb;
          a_addr; Ir.Int a_stride;
          b_addr; Ir.Int b_stride;
          c_addr;
        ]
        @ ld )
  in
  (* C' = 0 before the reduction: the accumulator, or this task's part of
     the output rows — one run when it owns whole rows ([npn = 1]) *)
  let zero_c =
    if not c_direct then
      [ Ir.Call ("zero", [ Ir.Addr (cacc, [| Ir.Int 0; Ir.Int 0; Ir.Int 0 |]); Ir.Int (nsn * mb * nb) ]) ]
    else if p.npn = 1 then [ Ir.Call ("zero", [ c_at row0 (Ir.Int 0); Ir.Int (mb * n) ]) ]
    else
      [
        over_n_tiles
          [
            for_ mbi (Ir.Int 0) (Ir.Int mb)
              [ Ir.Call ("zero", [ c_at (row0 +: Ir.v mbi) (Ir.v npsi *: Ir.Int nb); Ir.Int nb ]) ];
          ];
      ]
  in

  (* ---- post groups ---- *)
  let post1_groups, post3_groups =
    List.partition
      (fun (g : Fused_op.post_group) ->
        match g.g_anchor with Post1 | Post2 -> true | Post3 -> false)
      f.post_groups
  in
  if conv <> None && post3_groups <> [] then
    invalid_arg
      "Lower_tunable: conv chains cannot host reduction post-ops (anchor #3 \
       schedules 2-D points)";
  let post1_ops = List.concat_map (fun (g : Fused_op.post_group) -> g.g_ops) post1_groups in
  (* value flowing out of the post#1 chain *)
  let staged_lt =
    match List.rev post1_ops with last :: _ -> Op.output last | [] -> c_lt
  in

  (* post anchor #1: write back the accumulator through the fused eltwise
     chain. [acc_value] is the expression carrying the matmul result at
     the current element (C' in the plain template, the summed partials in
     the k-sliced variant). *)
  let row = (Ir.v mpsi *: Ir.Int mb) +: Ir.v mbi in
  let col = (Ir.v npsi *: Ir.Int nb) +: Ir.v nbi in
  let point =
    match conv with
    | None -> Array.append out_batch [| row; col |]
    | Some _ ->
        (* the GEMM row is the flattened output pixel (n, oh, ow) *)
        let cs = Shape.to_array c_lt.shape in
        let opix = decompose_flat row [| cs.(0); cs.(1); cs.(2) |] in
        [| opix.(0); opix.(1); opix.(2); col |]
  in
  (* the tile's mbi × nbi write-back; a blocked output's padding gets 0 *)
  let mk_anchor1 acc_value =
    let chain = Chain.create ~tmap:(resolve ts) ~point in
    Chain.bind chain c_lt acc_value;
    List.iter (fun op -> ignore (Chain.apply chain op)) post1_ops;
    let value = Chain.value chain staged_lt in
    let target, idx = Index_map.access (resolve ts) staged_lt point in
    guarded_nest
      (mbi, mb, when_ m_tail (row <: Ir.Int m))
      (nbi, nb, when_ n_tail (col <: Ir.Int n))
      ~store:[ Ir.Store (target, idx, value) ]
      ~pad:(if Layout.is_plain staged_lt.layout then [] else [ Ir.Store (target, idx, Ir.Float 0.) ])
  in
  let anchor1 =
    [ over_n_tiles [ mk_anchor1 (Ir.Load (cacc, [| Ir.v nsi; Ir.v mbi; Ir.v nbi |])) ] ]
  in

  (* post anchor #3: reduction-led groups over the rows this task owns *)
  let anchor3 =
    List.concat_map
      (fun (g : Fused_op.post_group) ->
        let rowv = iv "row" and colv = iv "col" in
        let point col = Array.append out_batch [| Ir.v rowv; col |] in
        let staged = ref staged_lt in
        let rowaccs = ref [] in
        let new_chain col =
          let c = Chain.create ~tmap:(resolve ts) ~point:(point col) in
          List.iter (fun (lt, var) -> Chain.bind_var c lt var) !rowaccs;
          c
        in
        (* persist [op]'s result at the current column: compute it once
           into a scalar, store the scalar, and rebind the chain to it so
           later ops of the segment and the reduction's combine read it
           instead of inlining the expression again. Every result is
           stored, not just the last: a later segment may load any of
           them, and an intermediate output can escape the region when
           the chain was cut at an escaping reduction (layernorm's
           deviation feeding the final scale). Dead stores to locals are
           cleaned by DSE. A row-shaped result (layernorm's variance +
           eps, [.., 1]) is stored at column 0 of its own shape. *)
        let persist chain (op : Op.t) =
          let e = Chain.apply chain op in
          let out = Op.output op in
          let target, idx = Chain.access chain out in
          let v = Ir.fresh_var ~name:(out.name ^ "_v") (Ir.Scalar target.tdtype) in
          Chain.bind chain out (Ir.Var v);
          staged := out;
          [ Ir.Assign (v, e); Ir.Store (target, idx, Ir.Var v) ]
        in
        let segs = split_segments g.g_ops in
        let seg_stmts =
          List.concat_map
            (fun (elts, reduce) ->
              match reduce with
              | Some (rop : Op.t) ->
                  let rkind =
                    match rop.kind with Reduce rk -> rk | _ -> assert false
                  in
                  let acc = Ir.fresh_var ~name:"racc" (Ir.Scalar Dtype.F32) in
                  let chain = new_chain (Ir.v colv) in
                  let stores = List.concat_map (persist chain) elts in
                  let v = Chain.value chain !staged in
                  let body =
                    stores @ [ Ir.Assign (acc, reduce_combine rkind (Ir.v acc) v) ]
                  in
                  rowaccs := (Op.output rop, acc) :: !rowaccs;
                  [ Ir.Assign (acc, reduce_init rkind) ]
                  @ [ for_ colv (Ir.Int 0) (Ir.Int n) body ]
                  @
                  (match rkind with
                  | Mean ->
                      [ Ir.Assign (acc, Ir.Binop (Ir.Div, Ir.v acc, Ir.Float (float_of_int n))) ]
                  | _ -> [])
              | None -> (
                  match elts with
                  | [] -> []
                  | _ ->
                      let chain = new_chain (Ir.v colv) in
                      let stores = List.concat_map (persist chain) elts in
                      [ for_ colv (Ir.Int 0) (Ir.Int n) stores ]))
            segs
        in
        let row_body =
          Ir.Assign (rowv, ((Ir.v mpsi *: Ir.Int mb) +: Ir.v mbi))
          :: (if m_tail then [ Ir.If (Ir.v rowv <: Ir.Int m, seg_stmts, []) ] else seg_stmts)
        in
        [ over_m_tiles [ for_ mbi (Ir.Int 0) (Ir.Int mb) row_body ] ])
      post3_groups
  in

  (* ---- the single-core kernel ---- *)
  let pack_allocs = List.filter_map (Option.map (fun t -> Ir.Alloc t)) [ apack; bpack ] in
  let kernel =
    (if c_direct then [] else [ Ir.Alloc cacc ])
    @ pack_allocs @ pack_b
    @ [
        over_m_tiles
          (zero_c
          @ [ for_ ks (Ir.Int 0) (Ir.Int ksteps) (pack_a @ [ over_n_tiles [ brgemm_call ] ]) ]
          @ if c_direct then [] else anchor1);
      ]
    @ anchor3
  in

  (* ---- the k-slicing template variant (paper: inference on one sample
     "may have to apply k-slicing to extract additional parallelism from
     the reduction axis"): phase 1 computes kpn partial Cs in parallel,
     phase 2 sums them and runs the post-op chain ---- *)
  let ksliced_body () =
    if post3_groups <> [] then
      invalid_arg "Lower_tunable: k-slicing cannot host reduction post-ops";
    if batched then invalid_arg "Lower_tunable: k-slicing is a 2-D template";
    if conv <> None then
      invalid_arg
        "Lower_tunable: k-slicing does not support the conv im2col packing";
    let kpn = p.kpn in
    let kspn = Params.ksteps_per_slice p in
    let cpart =
      Ir.fresh_tensor ~name:"Cpart" ~storage:Ir.Local acc_dt
        [| kpn; mblocks; nblocks; mb; nb |]
    in
    let task = iv "task" and task2 = iv "task2" and ksl = iv "kslice" in
    let ks_lo = Ir.v ksl *: Ir.Int kspn in
    let ks_hi =
      Ir.Binop (Ir.Min, Ir.Int ksteps, (Ir.v ksl +: Ir.Int 1) *: Ir.Int kspn)
    in
    let phase1 =
      (Ir.Alloc cacc :: pack_allocs)
      @ pack_b
      @ [
          over_m_tiles
            (zero_c
            @ [
                Ir.For
                  {
                    v = ks; lo = ks_lo; hi = ks_hi; step = Ir.Int 1;
                    parallel = false; merge_tag = None;
                    body = pack_a @ [ over_n_tiles [ brgemm_call ] ];
                  };
                (* store this slice's raw partials *)
                over_n_tiles
                  [
                    for_ mbi (Ir.Int 0) (Ir.Int mb)
                      [
                        for_ nbi (Ir.Int 0) (Ir.Int nb)
                          [
                            Ir.Store
                              ( cpart,
                                [| Ir.v ksl; Ir.v mpsi; Ir.v npsi; Ir.v mbi; Ir.v nbi |],
                                Ir.Load (cacc, [| Ir.v nsi; Ir.v mbi; Ir.v nbi |]) );
                          ];
                      ];
                  ];
              ]);
        ]
    in
    let partial_sum =
      List.fold_left
        (fun acc s ->
          Ir.Binop
            ( Ir.Add,
              acc,
              Ir.Load (cpart, [| Ir.Int s; Ir.v mpsi; Ir.v npsi; Ir.v mbi; Ir.v nbi |]) ))
        (Ir.Load (cpart, [| Ir.Int 0; Ir.v mpsi; Ir.v npsi; Ir.v mbi; Ir.v nbi |]))
        (List.init (kpn - 1) (fun i -> i + 1))
    in
    let phase2 =
      [
        over_m_tiles
          [
            over_n_tiles [ mk_anchor1 partial_sum ];
          ];
      ]
    in
    [
      Ir.Alloc cpart;
      for_ ~parallel:true task (Ir.Int 0) (Ir.Int (p.mpn * p.npn * kpn))
        ([
           Ir.Assign (ksl, Ir.Binop (Ir.Mod, Ir.v task, Ir.Int kpn));
           Ir.Assign (mpi, Ir.Binop (Ir.Div, Ir.Binop (Ir.Div, Ir.v task, Ir.Int kpn), Ir.Int p.npn));
           Ir.Assign (npi, Ir.Binop (Ir.Mod, Ir.Binop (Ir.Div, Ir.v task, Ir.Int kpn), Ir.Int p.npn));
         ]
        @ phase1);
      for_ ~parallel:true task2 (Ir.Int 0) (Ir.Int (p.mpn * p.npn))
        ([
           Ir.Assign (mpi, Ir.Binop (Ir.Div, Ir.v task2, Ir.Int p.npn));
           Ir.Assign (npi, Ir.Binop (Ir.Mod, Ir.v task2, Ir.Int p.npn));
         ]
        @ phase2);
    ]
  in

  (* ---- outer parallel structure ---- *)
  let body =
    if p.kpn > 1 && not batched then ksliced_body ()
    else if batched then
      let batch_total = Shape.numel batch_dims in
      [
        Ir.Assign (mpi, Ir.Int 0);
        Ir.Assign (npi, Ir.Int 0);
        for_ ~parallel:true ?tag:f.merge_tag bi (Ir.Int 0) (Ir.Int batch_total)
          kernel;
      ]
    else
      (* one flattened parallel loop over the whole core grid (the
         collapse(2) idiom): the runtime parallelizes the outermost loop
         only, so nesting would strand the inner grid dimension *)
      let task = iv "task" in
      [
        for_ ~parallel:true ?tag:f.merge_tag task (Ir.Int 0)
          (Ir.Int (p.mpn * p.npn))
          ([
             Ir.Assign (mpi, Ir.Binop (Ir.Div, Ir.v task, Ir.Int p.npn));
             Ir.Assign (npi, Ir.Binop (Ir.Mod, Ir.v task, Ir.Int p.npn));
           ]
          @ kernel);
      ]
  in
  (* Allocs for the on-demand internal locals go at function entry so they
     are visible to every parallel task. *)
  let local_allocs =
    Hashtbl.fold (fun _ t acc -> Ir.Alloc t :: acc) ts.locals []
  in
  let params =
    let seen = Hashtbl.create 8 in
    List.filter_map ts.tmap (f.f_inputs @ f.f_outputs)
    |> List.filter (fun (t : Ir.tensor) ->
           match t.storage with
           | Ir.Param ->
               if Hashtbl.mem seen t.tid then false
               else begin
                 Hashtbl.add seen t.tid ();
                 true
               end
           | _ -> false)
    |> List.map (fun t -> Ir.Ptensor t)
  in
  { Ir.fname = f.fname; params; body = local_allocs @ body }
