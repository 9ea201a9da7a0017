open Gc_tensor_ir

type config = {
  merge_loops : bool;
  simplify : bool;
  scalarize : bool;
  shrink : bool;
  dse : bool;
  buffer_reuse : bool;
}

type stats = { loops_merged : int; buffers : Buffer_schedule.stats }

let default =
  {
    merge_loops = true;
    simplify = true;
    scalarize = true;
    shrink = true;
    dse = true;
    buffer_reuse = true;
  }

let none =
  {
    merge_loops = false;
    simplify = false;
    scalarize = false;
    shrink = false;
    dse = false;
    buffer_reuse = false;
  }

let run ?trace ?(config = default) (m : Ir.module_) =
  (* each enabled pass is timed with before/after module statistics when a
     trace sink is supplied; [trace = None] adds no work *)
  let timed name f m =
    Gc_observe.Trace.time trace ~stage:"tir" ~name
      ~stats:Gc_observe.Stats.of_module f m
  in
  let when_t flag name f m = if flag then timed name f m else m in
  let loops_merged = ref 0 in
  let m =
    when_t config.merge_loops "loop_merge"
      (fun m ->
        let m, merged = Loop_merge.run m in
        loops_merged := merged;
        m)
      m
  in
  let m = when_t config.simplify "simplify" Simplify.run m in
  let m = when_t config.scalarize "forward_store" Forward_store.run m in
  let m = when_t config.shrink "tensor_shrink" Tensor_shrink.run m in
  let m = when_t config.dse "dse" Dse.run m in
  let m, buffers =
    if config.buffer_reuse then
      Gc_observe.Trace.time_into trace ~stage:"tir" ~name:"buffer_schedule"
        ~before:(Gc_observe.Stats.of_module m)
        ~after:(fun (m, _) -> Gc_observe.Stats.of_module m)
        Buffer_schedule.run m
    else (m, Buffer_schedule.empty_stats)
  in
  (m, { loops_merged = !loops_merged; buffers })
