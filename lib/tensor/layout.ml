type t = Plain | Blocked of (int * int) list

let equal a b =
  match (a, b) with
  | Plain, Plain -> true
  | Blocked x, Blocked y -> x = y
  | _ -> false

let compare a b = Stdlib.compare a b
let is_plain = function Plain -> true | Blocked _ -> false
let is_blocked t = not (is_plain t)

let blocks_of_axis t axis =
  match t with
  | Plain -> []
  | Blocked bs -> List.filter_map (fun (a, s) -> if a = axis then Some s else None) bs

let check_blocks shape bs =
  List.iter
    (fun (a, s) ->
      if a < 0 || a >= Shape.rank shape then
        invalid_arg "Layout: blocked axis out of range";
      if s <= 0 then invalid_arg "Layout: non-positive block size")
    bs

let physical_dims t shape =
  match t with
  | Plain -> shape
  | Blocked bs ->
      check_blocks shape bs;
      let rank = Shape.rank shape in
      let outer =
        Array.init rank (fun a ->
            let prod = List.fold_left ( * ) 1 (blocks_of_axis t a) in
            Shape.ceil_div (Shape.dim shape a) prod)
      in
      let inner = Array.of_list (List.map snd bs) in
      Shape.of_array (Array.append outer inner)

let physical_numel t shape = Shape.numel (physical_dims t shape)

let offset t shape idx =
  match t with
  | Plain -> Shape.offset shape idx
  | Blocked bs ->
      check_blocks shape bs;
      let rank = Shape.rank shape in
      if Array.length idx <> rank then invalid_arg "Layout.offset: rank mismatch";
      (* Decompose each logical index into an outer digit plus one digit per
         block level, outermost level first. *)
      let phys = physical_dims t shape in
      let nblocks = List.length bs in
      let pidx = Array.make (rank + nblocks) 0 in
      (* residual index per axis; peel inner digits from the last block
         level backwards so we can fill pidx in one pass. *)
      let digits = Array.make nblocks 0 in
      let residual = Array.copy idx in
      (* Walk the block list from the last entry to the first: the last
         entry for an axis is the innermost (fastest-varying) digit. *)
      let bs_arr = Array.of_list bs in
      for i = nblocks - 1 downto 0 do
        let a, s = bs_arr.(i) in
        digits.(i) <- residual.(a) mod s;
        residual.(a) <- residual.(a) / s
      done;
      for a = 0 to rank - 1 do
        pidx.(a) <- residual.(a)
      done;
      for i = 0 to nblocks - 1 do
        pidx.(rank + i) <- digits.(i)
      done;
      Shape.offset phys pidx

(* Each physical dimension belongs to exactly one logical axis, so the
   offset is a sum of per-axis terms: peel an index's block digits exactly
   as [offset] does, but once per (axis, index) rather than per element. *)
let axis_offsets t shape =
  let rank = Shape.rank shape in
  match t with
  | Plain ->
      let strides = Shape.row_major_strides shape in
      Array.init rank (fun a ->
          Array.init (Shape.dim shape a) (fun i -> i * strides.(a)))
  | Blocked bs ->
      let strides = Shape.row_major_strides (physical_dims t shape) in
      let bs = Array.of_list bs in
      Array.init rank (fun a ->
          Array.init (Shape.dim shape a) (fun i ->
              let residual = ref i and off = ref 0 in
              for j = Array.length bs - 1 downto 0 do
                let ax, s = bs.(j) in
                if ax = a then begin
                  off := !off + (!residual mod s * strides.(rank + j));
                  residual := !residual / s
                end
              done;
              !off + (!residual * strides.(a))))

let blocked_2d ~outer_block ~inner_block = Blocked [ (0, outer_block); (1, inner_block) ]
let blocked_2d_swapped ~outer_block ~inner_block = Blocked [ (1, inner_block); (0, outer_block) ]
let vnni ~kb ~nb =
  if kb mod 4 <> 0 then invalid_arg "Layout.vnni: kb must be a multiple of 4";
  Blocked [ (0, kb / 4); (1, nb); (0, 4) ]

let batched ~rank t =
  match t with
  | Plain -> Plain
  | Blocked bs -> Blocked (List.map (fun (a, s) -> (a + rank - 2, s)) bs)

let to_string = function
  | Plain -> "plain"
  | Blocked bs ->
      "blocked("
      ^ String.concat ","
          (List.map (fun (a, s) -> Printf.sprintf "ax%d:%d" a s) bs)
      ^ ")"

let pp fmt t = Format.pp_print_string fmt (to_string t)
