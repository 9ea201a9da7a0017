(* Clock, sample statistics, host probes, output checks and the span
   recorder shared by the workloads. Everything here sits outside the
   library: spans are taken around calls into each layer's public
   functions, never inside them. *)

let now = Unix.gettimeofday
let ms_between t0 t1 = (t1 -. t0) *. 1000.

(* [timed f] is [f ()] with its wallclock duration in ms. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_between t0 (now ()), t0)

(* ------------------------------------------------------------------ *)
(* Sample statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A tail percentile is reported only when at least ten samples lie beyond
   it; otherwise [None]. *)
let tail p xs =
  let n = List.length xs in
  if float_of_int n *. (1. -. p) >= 10. then Some (percentile p xs) else None

(* ------------------------------------------------------------------ *)
(* Host and process probes *)

(* A fixed CPU loop owned by the benchmark: its time tells a slow host
   apart from a slow program. *)
let spin_ms () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !x);
  ms_between t0 (now ())

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type gc_delta = { minor_words : float; major_words : float; minor_gcs : int; major_gcs : int }

let gc_mark () = Gc.quick_stat ()

let gc_since (s0 : Gc.stat) =
  let s1 = Gc.quick_stat () in
  {
    minor_words = s1.minor_words -. s0.minor_words;
    major_words = s1.major_words -. s0.major_words;
    minor_gcs = s1.minor_collections - s0.minor_collections;
    major_gcs = s1.major_collections - s0.major_collections;
  }

(* ------------------------------------------------------------------ *)
(* Output checks against [Core.reference] *)

(* f32: allclose at the pinned 2e-3. Int8: where the reference lands near
   a rounding boundary, the int8 path requantizes a hidden value to the
   adjacent step. In MLP_1 one such flip moves an output by at most 0.2
   (the hidden requant step) times 0.6 (the largest dequantized weight),
   and flips reach about half the outputs. Over 80 seeded inputs the
   compiled and primitives outputs were bit-identical to each other and
   differed from the reference by at most 0.32, and by 0.010-0.036 on
   average at a mean |output| of 1. The int8 check bounds both: the max
   allows four flips into one output, and the mean catches a systematic
   error of 5% that the max alone would let through. *)
let int8_close g w =
  let a = Core.Tensor.to_float_array g and b = Core.Tensor.to_float_array w in
  let sum = ref 0. and worst = ref 0. in
  Array.iteri
    (fun i x ->
      let d = Float.abs (x -. b.(i)) in
      sum := !sum +. d;
      worst := Float.max !worst d)
    a;
  !worst <= 0.5 && !sum /. float_of_int (max 1 (Array.length a)) <= 0.05

let outputs_match kind got want =
  List.length got = List.length want
  && List.for_all2
       (fun g w ->
         Core.Shape.equal (Core.Tensor.shape g) (Core.Tensor.shape w)
         &&
         match kind with
         | `F32 -> Core.Tensor.allclose ~rtol:2e-3 ~atol:2e-3 g w
         | `Int8 -> int8_close g w)
       got want

(* ------------------------------------------------------------------ *)
(* Spans

   A span is one call into a layer, timed from outside: name, start, end,
   the span that caused it, and the op it belongs to. Spans stay in
   memory and are written once, at exit, as Chrome trace-event JSON. *)

type span = {
  id : int;
  parent : int;  (** -1 for an op's root span *)
  op : int;
  name : string;
  tid : int;
  t0 : float;
  t1 : float;
  args : (string * float) list;
}

type tracer = { mutable on : bool; mutable spans : span list; mutable next_id : int }

let tracer () = { on = false; spans = []; next_id = 0 }

let fresh tr =
  tr.next_id <- tr.next_id + 1;
  tr.next_id

(* Record a span already timed by the caller; a no-op while tracing is off. *)
let record tr ?id ?(parent = -1) ?(tid = 0) ?(args = []) ~op name t0 t1 =
  if tr.on then
    let id = match id with Some i -> i | None -> fresh tr in
    tr.spans <- { id; parent; op; name; tid; t0; t1; args } :: tr.spans

(* Durations (ms) of the spans named [name]. *)
let durations tr name =
  List.filter_map
    (fun s -> if s.name = name then Some (ms_between s.t0 s.t1) else None)
    tr.spans

let sum_args tr name key =
  List.fold_left
    (fun acc s ->
      if s.name = name then
        acc +. Option.value ~default:0. (List.assoc_opt key s.args)
      else acc)
    0. tr.spans

(* Share of op time (root spans named "op") that no child span covers. *)
let uncovered_frac tr =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (ms_between s.t0 s.t1
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    tr.spans;
  let whole, covered =
    List.fold_left
      (fun (w, c) s ->
        if s.name = "op" then
          let d = ms_between s.t0 s.t1 in
          (w +. d, c +. Float.min d (Option.value ~default:0. (Hashtbl.find_opt children s.id)))
        else (w, c))
      (0., 0.) tr.spans
  in
  if whole = 0. then 0. else (whole -. covered) /. whole

let write_chrome_trace tr ~meta file =
  let open Core.Observe.Json in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity tr.spans in
  let us t = Float ((t -. base) *. 1e6) in
  let event s =
    let layer =
      match String.index_opt s.name '.' with
      | Some i -> String.sub s.name 0 i
      | None -> s.name
    in
    Obj
      [
        ("name", String s.name);
        ("cat", String layer);
        ("ph", String "X");
        ("ts", us s.t0);
        ("dur", Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Int 1);
        ("tid", Int s.tid);
        ( "args",
          Obj
            ([ ("id", Int s.id); ("parent", Int s.parent); ("op", Int s.op) ]
            @ List.map (fun (k, v) -> (k, Float v)) s.args) );
      ]
  in
  let doc =
    Obj
      [
        ("traceEvents", List (List.rev_map event tr.spans));
        ("displayTimeUnit", String "ms");
        ("otherData", Obj meta);
      ]
  in
  let dir = Filename.dirname file in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p dir;
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc doc)
