type t = { name : string; arity : int; trailing : string list }

let brgemm = { name = "brgemm"; arity = 9; trailing = [ "ldb"; "ldc"; "lda"; "klast" ] }
let zero = { name = "zero"; arity = 2; trailing = [] }
let copy = { name = "copy"; arity = 3; trailing = [] }
let all = [ brgemm; zero; copy ]
let lookup name = List.find_opt (fun t -> String.equal t.name name) all
let accepts t n = n >= t.arity && n <= t.arity + List.length t.trailing

type brgemm_args = {
  batch : Ir.expr; mb : Ir.expr; nb : Ir.expr; kb : Ir.expr;
  a : Ir.expr; a_stride : Ir.expr; b : Ir.expr; b_stride : Ir.expr; c : Ir.expr;
  lda : Ir.expr; ldb : Ir.expr; ldc : Ir.expr; klast : Ir.expr;
}

let brgemm_args = function
  | batch :: mb :: nb :: kb :: a :: a_stride :: b :: b_stride :: c :: ld -> (
      let args ?(ldb = Ir.Int 0) ?(ldc = nb) ?(lda = kb) ?(klast = kb) () =
        Some { batch; mb; nb; kb; a; a_stride; b; b_stride; c; lda; ldb; ldc; klast }
      in
      match ld with
      | [] -> args ()
      | [ ldb ] -> args ~ldb ()
      | [ ldb; ldc ] -> args ~ldb ~ldc ()
      | [ ldb; ldc; lda ] -> args ~ldb ~ldc ~lda ()
      | [ ldb; ldc; lda; klast ] -> args ~ldb ~ldc ~lda ~klast ()
      | _ -> None)
  | _ -> None

let ragged_extent ~block ~total start =
  Ir.Binop (Ir.Min, Ir.Int block, Ir.Binop (Ir.Sub, Ir.Int total, start))

let as_ragged_extent = function
  | Ir.Binop (Ir.Min, Ir.Int block, Ir.Binop (Ir.Sub, Ir.Int total, start)) ->
      Some (block, total, start)
  | _ -> None
