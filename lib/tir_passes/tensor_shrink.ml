open Gc_tensor_ir
open Ir

(* ---- access accounting ---- *)

let accesses_in_stmts (t : tensor) body =
  Visit.fold_stmts
    ~expr:(fun acc e ->
      match e with
      | Load (t', _) | Addr (t', _) when tensor_equal t t' -> acc + 1
      | _ -> acc)
    ~stmt:(fun acc s ->
      match s with Store (t', _, _) when tensor_equal t t' -> acc + 1 | _ -> acc)
    0 body

(* ---- Alloc sinking ---- *)

(* Remove all Allocs of [t] from the tree. *)
let remove_alloc t body =
  Visit.map_stmts
    ~stmt:(fun s ->
      match s with Alloc t' when tensor_equal t t' -> [] | s -> [ s ])
    body

(* Insert [Alloc t] at the head of the deepest statement list that contains
   every access. Returns the rewritten list. *)
let sink_alloc t body =
  let total = accesses_in_stmts t body in
  if total = 0 then body (* never accessed; DSE will not miss it *)
  else begin
    let rec place (stmts : stmt list) : stmt list =
      (* can we descend into a single For/If child that holds all accesses? *)
      (* only descend into parallel loops: that privatizes the temporary
         per task; sinking into sequential loops would just re-allocate it
         every iteration *)
      let candidate =
        List.find_opt
          (fun s ->
            match s with
            | For l -> l.parallel && accesses_in_stmts t [ s ] = total
            | _ -> false)
          stmts
      in
      match candidate with
      | Some (For l) ->
          List.map
            (fun s ->
              match s with
              | For l' when l' == l -> For { l with body = place l.body }
              | s -> s)
            stmts
      | _ -> Alloc t :: stmts
    in
    place body
  end

(* ---- invariant-dimension shrinking ---- *)

(* Loop variables enclosing the Alloc of [t]. *)
let rec enclosing_vars t (stmts : stmt list) (acc : var list) : var list option =
  if List.exists (function Alloc t' -> tensor_equal t t' | _ -> false) stmts
  then Some acc
  else
    List.find_map
      (fun s ->
        match s with
        | For l -> enclosing_vars t l.body (l.v :: acc)
        | If (_, th, el) -> (
            match enclosing_vars t th acc with
            | Some r -> Some r
            | None -> enclosing_vars t el acc)
        | _ -> None)
      stmts

let free_vars e =
  Visit.fold_expr
    (fun acc e -> match e with Var v -> v :: acc | _ -> acc)
    [] e

(* All index expression arrays used to access [t]. *)
let index_sites t body =
  Visit.fold_stmts
    ~expr:(fun acc e ->
      match e with
      | Load (t', idx) | Addr (t', idx) when tensor_equal t t' -> idx :: acc
      | _ -> acc)
    ~stmt:(fun acc s ->
      match s with
      | Store (t', idx, _) when tensor_equal t t' -> idx :: acc
      | _ -> acc)
    [] body

(* Each [Addr] site of [t] (addresses are call operands only) with the
   number of elements the callee may touch from there; [None] when that
   is unknown — a sibling function's parameter. The index returned is the
   one to bound the touched range from, which differs from the site's
   only for a ragged tile (below). *)
let addr_reaches range t body =
  let upper e = Option.map snd (range e) in
  let product xs =
    List.fold_left
      (fun acc x -> Option.bind acc (fun a -> Option.map (( * ) a) (upper x)))
      (Some 1) xs
  in
  let stride d =
    Array.fold_left ( * ) 1 (Array.sub t.dims (d + 1) (Array.length t.dims - d - 1))
  in
  (* A ragged tile's [min(blk, total - s)] rows (or columns) start at
     index [s] of the dimension the pitch [ld] steps: whatever [s] is,
     they end before index [total]. Bounded as one row (column) at
     [total - 1] (given [s >= 0]), the bound does not add the largest
     [s] to the largest extent. *)
  let pin_ragged idx extent ld =
    match (Intrinsic.as_ragged_extent extent, ld) with
    | Some (_, total, s), Int l -> (
        let rec find d =
          if d >= Array.length idx then None
          else if idx.(d) = s && stride d = l
                  && (match range s with Some (lo, _) -> lo >= 0 | None -> false)
          then Some d
          else find (d + 1)
        in
        match find 0 with
        | Some d -> (Array.mapi (fun i x -> if i = d then Int (total - 1) else x) idx, Int 1)
        | None -> (idx, extent))
    | _ -> (idx, extent)
  in
  Visit.fold_stmts
    ~stmt:(fun acc s ->
      match s with
      | Call (name, args) ->
          (* per operand position: the bound's index and the reach *)
          let reaches : (expr array -> expr array * int option) list =
            match (name, Intrinsic.brgemm_args args) with
            | "brgemm", Some g ->
                (* [bs] blocks [stride] apart, each reaching [block] but
                   the last, which reaches [last] (its K extent is
                   [klast]); both reaches grow with the block count, so
                   the count's upper bound bounds them *)
                let blocks stride (block, last) =
                  match (product [ g.batch ], product [ stride ], block, last) with
                  | Some bs, Some st, Some block, Some last ->
                      let last = ((bs - 1) * st) + last in
                      Some (if bs < 2 then last else max last (((bs - 2) * st) + block))
                  | _ -> None
                in
                (* [rows] rows of [cols], [ld] apart *)
                let rows_of rows ld cols =
                  match (product [ rows ], product [ ld ], product [ cols ]) with
                  | Some r, Some l, Some c -> Some ((max 0 (r - 1) * l) + c)
                  | _ -> None
                in
                let a idx =
                  let idx, rows = pin_ragged idx g.mb g.lda in
                  (idx, blocks g.a_stride (rows_of rows g.lda g.kb, rows_of rows g.lda g.klast))
                in
                (* K×N rows [ldb] apart, or N×K rows [-ldb] apart (the slab's
                   pitch is kb) *)
                let b idx =
                  match g.ldb with
                  | Int l when l > 0 ->
                      let idx, cols = pin_ragged idx g.nb (Int 1) in
                      (idx, blocks g.b_stride (rows_of g.kb g.ldb cols, rows_of g.klast g.ldb cols))
                  | Int l ->
                      let pitch = if l = 0 then g.kb else Int (-l) in
                      let idx, rows = pin_ragged idx g.nb pitch in
                      (idx, blocks g.b_stride (rows_of rows pitch g.kb, rows_of rows pitch g.klast))
                  | _ -> (idx, None)
                in
                (* the A, B and C operands sit at positions 4, 6 and 8 *)
                List.mapi
                  (fun i _ ->
                    match i with
                    | 4 -> a
                    | 6 -> b
                    | 8 -> fun idx -> (idx, rows_of g.mb g.ldc g.nb)
                    | _ -> fun idx -> (idx, None))
                  args
            | ("zero" | "copy"), _ ->
                let count = product [ List.nth args (List.length args - 1) ] in
                List.map (fun _ idx -> (idx, count)) args
            | _ -> List.map (fun _ idx -> (idx, None)) args
          in
          List.fold_left2
            (fun acc e r ->
              match e with Addr (t', idx) when tensor_equal t t' -> r idx :: acc | _ -> acc)
            acc args reaches
      | _ -> acc)
    [] body

let shrink_tensor ~range t body =
  match enclosing_vars t body [] with
  | None -> (t, body)
  | Some enclosing ->
      let sites = index_sites t body in
      let addrs = lazy (addr_reaches range t body) in
      (* elements of [t] per index of dimension [d] *)
      let stride d =
        Array.fold_left ( * ) 1 (Array.sub t.dims (d + 1) (Array.length t.dims - d - 1))
      in
      (* an intrinsic's slab starting at [idx] stays inside one index of
         dimension [d]: it reaches no further than the trailing dims *)
      let inside d (idx, reach) =
        let rec offset e acc =
          if e = Array.length idx then Some acc
          else
            match range idx.(e) with
            | Some (lo, hi) when lo >= 0 -> offset (e + 1) (acc + (hi * stride e))
            | _ -> None
        in
        match (reach, offset (d + 1) 0) with
        | Some r, Some o -> o + r <= stride d
        | _ -> false
      in
      if sites = [] then (t, body)
      else begin
        let shrinkable d =
          t.dims.(d) > 1
          && (match sites with
             | [] -> false
             | first :: rest ->
                 let e0 = first.(d) in
                 List.for_all (fun site -> site.(d) = e0) rest
                 && List.for_all
                      (fun v -> List.exists (var_equal v) enclosing)
                      (free_vars e0))
          && List.for_all (inside d) (Lazy.force addrs)
        in
        let dims' =
          Array.mapi (fun d x -> if shrinkable d then 1 else x) t.dims
        in
        if dims' = t.dims then (t, body)
        else begin
          let t' = { t with tid = t.tid; dims = dims' } in
          (* same tid: engine slots and planner treat it as the same buffer,
             just smaller; rewrite shrunk indices to 0 *)
          let body =
            Visit.map_stmts
              ~expr:(fun e ->
                match e with
                | Load (x, idx) when tensor_equal x t ->
                    Load (t', Array.mapi (fun d i -> if dims'.(d) = 1 && t.dims.(d) > 1 then Int 0 else i) idx)
                | Addr (x, idx) when tensor_equal x t ->
                    Addr (t', Array.mapi (fun d i -> if dims'.(d) = 1 && t.dims.(d) > 1 then Int 0 else i) idx)
                | e -> e)
              ~stmt:(fun s ->
                match s with
                | Store (x, idx, e) when tensor_equal x t ->
                    [ Store (t', Array.mapi (fun d i -> if dims'.(d) = 1 && t.dims.(d) > 1 then Int 0 else i) idx, e) ]
                | Alloc x when tensor_equal x t -> [ Alloc t' ]
                | s -> [ s ])
              body
          in
          (t', body)
        end
      end

let run_func (f : func) =
  let locals =
    List.filter (fun (t : tensor) -> t.storage = Local) (Visit.tensors_used f.body)
  in
  let body =
    List.fold_left
      (fun body t ->
        let body = remove_alloc t body in
        sink_alloc t body)
      f.body locals
  in
  (* re-collect: sinking does not change identity; shrinking rewrites
     indices only, so the variables' ranges hold throughout *)
  let range =
    let r = lazy (Simplify.ranges body) in
    fun e -> Lazy.force r e
  in
  let body =
    List.fold_left
      (fun body t ->
        let _, body = shrink_tensor ~range t body in
        body)
      body locals
  in
  { f with body }

let run (m : module_) = { m with funcs = List.map run_func m.funcs }

let local_bytes (f : func) =
  List.fold_left
    (fun acc (t : tensor) ->
      match t.storage with Local -> acc + tensor_bytes t | _ -> acc)
    0 (Visit.tensors_used f.body)
