open Gc_tensor_ir

(** Mechanical merging of loop nests tagged mergeable by coarse-grain
    fusion: adjacent [For] loops carrying the same merge tag and identical
    bounds become one loop whose body is the concatenation of both bodies
    (the second body's loop variable renamed to the first's). [Alloc]
    statements between two mergeable loops are hoisted in front. One
    barrier and one parallel-section launch disappear per merged pair. *)

(** The merged module and the number of loop pairs merged. The count is
    returned, not kept in module state, so concurrent compiles (serve
    workers compiling buckets) each see their own. *)
val run : Ir.module_ -> Ir.module_ * int
