open Gc_tensor
open Gc_tensor_ir
open Ir

type stats = {
  naive_bytes : int;
  planned_bytes : int;
  buffers_before : int;
  buffers_after : int;
}

let empty_stats = { naive_bytes = 0; planned_bytes = 0; buffers_before = 0; buffers_after = 0 }

type alloc_slot = {
  slot_tensor : tensor;
  slot_dtype : Dtype.t;
  slot_numel : int;
  slot_bytes : int;
}

type alloc_plan = alloc_slot array

(* Every [Alloc] site of the function, outermost first, deduplicated by
   tensor id (the same tensor is never allocated twice, but be defensive).
   Runs after the passes above, so it sees the arena tensors the scheduler
   materialized plus whatever locals (e.g. loop-sunk temporaries from
   tensor_shrink) the other passes left behind. *)
let alloc_plan (f : func) : alloc_plan =
  let seen = Hashtbl.create 8 in
  let slots =
    Visit.fold_stmts
      ~stmt:(fun acc s ->
        match s with
        | Alloc t when not (Hashtbl.mem seen t.tid) ->
            Hashtbl.add seen t.tid ();
            {
              slot_tensor = t;
              slot_dtype = t.tdtype;
              slot_numel = tensor_numel t;
              slot_bytes = tensor_bytes t;
            }
            :: acc
        | _ -> acc)
      [] f.body
  in
  Array.of_list (List.rev slots)

let plan_bytes (p : alloc_plan) =
  Array.fold_left (fun a s -> a + s.slot_bytes) 0 p

let accesses_tensor t stmts =
  Visit.fold_stmts
    ~expr:(fun acc e ->
      match e with
      | Load (t', _) | Addr (t', _) when tensor_equal t t' -> acc + 1
      | _ -> acc)
    ~stmt:(fun acc s ->
      match s with Store (t', _, _) when tensor_equal t t' -> acc + 1 | _ -> acc)
    0 stmts

let run_func (f : func) =
  (* candidates: locals Alloc'd at the top level of the body *)
  let top_allocs =
    List.filter_map (function Alloc t -> Some t | _ -> None) f.body
  in
  if top_allocs = [] then (f, empty_stats)
  else begin
    let body_no_allocs =
      List.filter
        (fun s ->
          match s with
          | Alloc t -> not (List.exists (tensor_equal t) top_allocs)
          | _ -> true)
        f.body
    in
    let indexed = List.mapi (fun i s -> (i, s)) body_no_allocs in
    (* live interval of each tensor over top-level statement indices *)
    let interval t =
      let hits =
        List.filter_map
          (fun (i, s) -> if accesses_tensor t [ s ] > 0 then Some i else None)
          indexed
      in
      match hits with
      | [] -> None
      | _ -> Some (List.fold_left min max_int hits, List.fold_left max 0 hits)
    in
    let live =
      List.filter_map
        (fun t -> Option.map (fun iv -> (t, iv)) (interval t))
        top_allocs
      |> List.sort (fun (_, (a, _)) (_, (b, _)) -> compare a b)
    in
    (* greedy interval assignment with MRU free-list *)
    let arenas : (int * Dtype.t * int ref * (tensor * int * int) list ref) list ref =
      ref []
    in
    (* each arena: id, dtype, max numel, members (tensor, first, last) *)
    let next_arena = ref 0 in
    List.iter
      (fun ((t : tensor), (first, last)) ->
        (* candidates: same dtype, free at [first] (every member's last < first) *)
        let compatible =
          List.filter
            (fun (_, dt, _, members) ->
              Dtype.equal dt t.tdtype
              && List.for_all (fun (_, _, l) -> l < first) !members)
            !arenas
        in
        (* MRU: the arena freed most recently *)
        let chosen =
          List.fold_left
            (fun best arena ->
              let freed (_, _, _, members) =
                List.fold_left (fun m (_, _, l) -> max m l) (-1) !members
              in
              match best with
              | None -> Some arena
              | Some b -> if freed arena > freed b then Some arena else best)
            None compatible
        in
        match chosen with
        | Some (_, _, size, members) ->
            size := max !size (tensor_numel t);
            members := (t, first, last) :: !members
        | None ->
            let id = !next_arena in
            incr next_arena;
            arenas :=
              !arenas
              @ [ (id, t.tdtype, ref (tensor_numel t), ref [ (t, first, last) ]) ])
      live;
    (* materialize arenas and rewrite members to flattened accesses; this
       runs after [Simplify], so fold the identity arithmetic the
       linearization introduces ([(0 * 32) + i] is [i]) here *)
    let rewritten = ref body_no_allocs in
    let arena_tensors =
      List.map
        (fun (id, dt, size, members) ->
          let arena =
            Ir.fresh_tensor ~name:(Printf.sprintf "arena%d" id) ~storage:Local
              dt [| !size |]
          in
          List.iter
            (fun ((t : tensor), _, _) ->
              rewritten :=
                Visit.subst_tensor t ~by:arena
                  ~index:(fun idx ->
                    [| Simplify.expr (Ir.linear_index t.dims idx) |])
                  !rewritten)
            !members;
          arena)
        !arenas
    in
    let naive_bytes = List.fold_left (fun a (t, _) -> a + tensor_bytes t) 0 live in
    let planned_bytes =
      List.fold_left (fun a t -> a + tensor_bytes t) 0 arena_tensors
    in
    let stats =
      {
        naive_bytes;
        planned_bytes;
        buffers_before = List.length live;
        buffers_after = List.length arena_tensors;
      }
    in
    let body = List.map (fun t -> Alloc t) arena_tensors @ !rewritten in
    (* locals that were allocated but never accessed just disappear *)
    ({ f with body }, stats)
  end

let run (m : module_) =
  let acc = ref empty_stats in
  let funcs =
    List.map
      (fun f ->
        let f', s = run_func f in
        acc :=
          {
            naive_bytes = !acc.naive_bytes + s.naive_bytes;
            planned_bytes = !acc.planned_bytes + s.planned_bytes;
            buffers_before = !acc.buffers_before + s.buffers_before;
            buffers_after = !acc.buffers_after + s.buffers_after;
          };
        f')
      m.funcs
  in
  ({ m with funcs }, !acc)
