open Ir

let err fmt = Format.kasprintf (fun s -> Error s) fmt

exception Fail of string

let failf fmt = Format.kasprintf (fun s -> raise (Fail s)) fmt

let check_func ~known_funcs (f : func) =
  let vars : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let tensors : (int, tensor) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (function
      | Pvar v -> Hashtbl.replace vars v.vid ()
      | Ptensor t -> Hashtbl.replace tensors t.tid t)
    f.params;
  let check_tensor_access (t : tensor) idx =
    if not (Hashtbl.mem tensors t.tid) && t.storage <> Global then
      failf "%s: tensor %s accessed before Alloc" f.fname t.tname;
    if Array.length idx <> Array.length t.dims then
      failf "%s: tensor %s has rank %d, accessed with %d indices" f.fname
        t.tname (Array.length t.dims) (Array.length idx)
  in
  let rec check_expr e =
    match e with
    | Int _ | Float _ -> ()
    | Var v ->
        if not (Hashtbl.mem vars v.vid) then
          failf "%s: variable %s used before assignment" f.fname v.vname
    | Load (t, idx) | Addr (t, idx) ->
        check_tensor_access t idx;
        Array.iter check_expr idx
    | Binop (_, a, b) ->
        check_expr a;
        check_expr b
    | Unop (_, a) | Cast (_, a) -> check_expr a
    | Select (c, a, b) ->
        check_expr c;
        check_expr a;
        check_expr b
  in
  let rec check_stmt s =
    match s with
    | Assign (v, e) ->
        check_expr e;
        Hashtbl.replace vars v.vid ()
    | Store (t, idx, e) ->
        check_tensor_access t idx;
        Array.iter check_expr idx;
        check_expr e
    | Alloc t ->
        if t.storage <> Local then
          failf "%s: Alloc of non-local tensor %s" f.fname t.tname;
        Hashtbl.replace tensors t.tid t
    | For l ->
        check_expr l.lo;
        check_expr l.hi;
        check_expr l.step;
        Hashtbl.replace vars l.v.vid ();
        List.iter check_stmt l.body
    | If (c, t, e) ->
        check_expr c;
        List.iter check_stmt t;
        List.iter check_stmt e
    | Call (name, args) -> (
        List.iter check_expr args;
        match Intrinsic.lookup name with
        | Some intr ->
            if not (Intrinsic.accepts intr (List.length args)) then
              failf "%s: intrinsic %s cannot take %d args" f.fname name
                (List.length args)
        | None -> (
            match List.assoc_opt name known_funcs with
            | Some arity ->
                if List.length args <> arity then
                  failf "%s: call %s expects %d args, got %d" f.fname name
                    arity (List.length args)
            | None -> failf "%s: call to unknown function %s" f.fname name))
    | Barrier -> ()
  in
  match List.iter check_stmt f.body with
  | () -> Ok ()
  | exception Fail msg -> Error msg

let check_module (m : module_) =
  let known_funcs = List.map (fun f -> (f.fname, List.length f.params)) m.funcs in
  (* globals are visible everywhere *)
  let m_funcs_with_globals =
    List.map
      (fun f ->
        {
          f with
          params =
            f.params @ List.map (fun g -> Ptensor g) m.globals;
        })
      m.funcs
  in
  let entry_ok =
    if List.exists (fun f -> String.equal f.fname m.entry) m.funcs then Ok ()
    else err "module entry %S not found" m.entry
  in
  let init_ok =
    match m.init with
    | None -> Ok ()
    | Some i ->
        if List.exists (fun f -> String.equal f.fname i) m.funcs then Ok ()
        else err "module init %S not found" i
  in
  List.fold_left
    (fun acc f -> match acc with Error _ -> acc | Ok () -> check_func ~known_funcs f)
    (match (entry_ok, init_ok) with
    | Error e, _ | _, Error e -> Error e
    | Ok (), Ok () -> Ok ())
    m_funcs_with_globals
