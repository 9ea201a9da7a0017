open Gc_tensor_ir

(** Expression and control-flow simplification: integer constant folding,
    algebraic identities (x+0, x·1, x·0, x/1, x%1), decidable selects and
    branches, removal of empty loops, and trip-count-1 loop elimination
    (the loop variable is substituted by its single value) — the NPN=1
    inner loops and mpi·MSN arithmetic collapse away. Inside loops,
    [run_func] also splits a blocked index: [(x·c + y) / c] becomes [x]
    and [(x·c + y) % c] becomes [y] when the enclosing loop bounds put
    [y] in [\[0, c)] and [x] is a non-negative index. [expr] applies the
    context-free rules only. *)

val expr : Ir.expr -> Ir.expr

(** [ranges body e]: bounds on the value of index expression [e] over one
    function body. A variable ranges over the join of all its definitions
    (a loop variable over [\[lo, hi - 1\]], an assigned one over each
    assigned expression); [None] when a definition is unbounded or the
    definitions are cyclic. *)
val ranges : Ir.stmt list -> Ir.expr -> (int * int) option
val run_func : Ir.func -> Ir.func
val run : Ir.module_ -> Ir.module_
