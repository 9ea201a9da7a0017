open Gc_tensor_ir

(** Store-to-load forwarding: inside one statement list, a store to a local
    tensor followed by loads at the syntactically identical index is
    forwarded through a scalar variable:

    {v
    T1[i] = f(x[i]);          s = f(x[i]);  T1[i] = s;
    T2[i] = g(T1[i]);    →    t = g(s);     T2[i] = t;
    y[i]  = h(T2[i]);         y[i] = h(t);
    v}

    After loop merging fuses an eltwise chain into one loop, this pass (and
    dead-store elimination behind it) turns the chain's full-size
    temporaries into scalars — the paper's "the temporary tensor could be
    replaced by a scalar variable". Bindings are invalidated by any nested
    statement that may write the tensor. A store whose scalar no later load
    reads stays the direct [T[i] = e]. *)

val run_func : Ir.func -> Ir.func
val run : Ir.module_ -> Ir.module_
