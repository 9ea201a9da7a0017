open Bigarray

type f32_arr = (float, float32_elt, c_layout) Array1.t
type s32_arr = (int32, int32_elt, c_layout) Array1.t
type s8_arr = (int, int8_signed_elt, c_layout) Array1.t
type u8_arr = (int, int8_unsigned_elt, c_layout) Array1.t
type s64_arr = (int64, int64_elt, c_layout) Array1.t

type t =
  | F32 of f32_arr
  | Bf16 of f32_arr
  | S32 of s32_arr
  | S8 of s8_arr
  | U8 of u8_arr
  | S64 of s64_arr

(* Typed errors (PR 4): boundary and size violations raise
   {!Gc_errors.Error} carrying the buffer's identity (caller-supplied
   name, dtype) and the requested vs actual extents, so a fault deep in
   the engine still names the tensor it happened on. *)
let bad ?(name = "") what ctx =
  let ctx = if name = "" then ctx else ("buffer", name) :: ctx in
  Gc_errors.invalid_input ~ctx what

(* Storage bytes per element as actually allocated (bf16 is widened to an
   f32 array in this storage model, so it costs 4 bytes, not 2). *)
let elem_bytes : Dtype.t -> int = function
  | F32 | Bf16 | S32 -> 4
  | S8 | U8 -> 1
  | S64 -> 8

let create ?name dtype n =
  if n < 0 then
    bad ?name "Buffer.create: negative length"
      [ ("dtype", Dtype.to_string dtype); ("requested", string_of_int n) ];
  Gc_faultinject.alloc_check ~dtype:(Dtype.to_string dtype) ~numel:n;
  let bytes = elem_bytes dtype * n in
  let charged = Memgov.charge ?name bytes in
  (* Release exactly what was charged when the bigarray (a custom block,
     hence finalisable) is collected, so the ledger tracks live bytes. The
     finaliser never reads the buffer, so off the main domain
     [finalise_last] lets a buffer that dies young be freed at the minor GC
     that finds it; [finalise] would promote it and hold it for a major
     cycle, which on a serving domain between rare minor GCs piles up
     megabytes of dead outputs. The main domain keeps [finalise]: there
     [Gc.full_major] runs its finalisers before returning, which ledger
     reads after a collection rely on. Spawned domains collect before they
     exit, since the runtime runs a finished domain's [finalise_last]
     finalisers late. *)
  let rel : 'a 'b 'c. ('a, 'b, 'c) Array1.t -> unit =
   fun a ->
    if charged then
      if Domain.is_main_domain () then Gc.finalise (fun _ -> Memgov.release bytes) a
      else Gc.finalise_last (fun () -> Memgov.release bytes) a
  in
  match (dtype : Dtype.t) with
  | F32 ->
      let a = Array1.create float32 c_layout n in
      rel a;
      Array1.fill a 0.;
      F32 a
  | Bf16 ->
      let a = Array1.create float32 c_layout n in
      rel a;
      Array1.fill a 0.;
      Bf16 a
  | S32 ->
      let a = Array1.create int32 c_layout n in
      rel a;
      Array1.fill a 0l;
      S32 a
  | S8 ->
      let a = Array1.create int8_signed c_layout n in
      rel a;
      Array1.fill a 0;
      S8 a
  | U8 ->
      let a = Array1.create int8_unsigned c_layout n in
      rel a;
      Array1.fill a 0;
      U8 a
  | S64 ->
      let a = Array1.create int64 c_layout n in
      rel a;
      Array1.fill a 0L;
      S64 a

let dtype = function
  | F32 _ -> Dtype.F32
  | Bf16 _ -> Dtype.Bf16
  | S32 _ -> Dtype.S32
  | S8 _ -> Dtype.S8
  | U8 _ -> Dtype.U8
  | S64 _ -> Dtype.S64

let length = function
  | F32 a | Bf16 a -> Array1.dim a
  | S32 a -> Array1.dim a
  | S8 a -> Array1.dim a
  | U8 a -> Array1.dim a
  | S64 a -> Array1.dim a

let get t i =
  match t with
  | F32 a | Bf16 a -> Array1.get a i
  | S32 a -> Int32.to_float (Array1.get a i)
  | S8 a -> float_of_int (Array1.get a i)
  | U8 a -> float_of_int (Array1.get a i)
  | S64 a -> Int64.to_float (Array1.get a i)

let set t i v =
  match t with
  | F32 a -> Array1.set a i v
  | Bf16 a -> Array1.set a i (Dtype.round_to Bf16 v)
  | S32 a -> Array1.set a i (Int32.of_float (Dtype.round_to S32 v))
  | S8 a -> Array1.set a i (int_of_float (Dtype.round_to S8 v))
  | U8 a -> Array1.set a i (int_of_float (Dtype.round_to U8 v))
  | S64 a -> Array1.set a i (Int64.of_float (Dtype.round_to S64 v))

let unsafe_get t i =
  match t with
  | F32 a | Bf16 a -> Array1.unsafe_get a i
  | S32 a -> Int32.to_float (Array1.unsafe_get a i)
  | S8 a -> float_of_int (Array1.unsafe_get a i)
  | U8 a -> float_of_int (Array1.unsafe_get a i)
  | S64 a -> Int64.to_float (Array1.unsafe_get a i)

let unsafe_set t i v =
  match t with
  | F32 a -> Array1.unsafe_set a i v
  | Bf16 a -> Array1.unsafe_set a i (Dtype.round_to Bf16 v)
  | S32 a -> Array1.unsafe_set a i (Int32.of_float (Dtype.round_to S32 v))
  | S8 a -> Array1.unsafe_set a i (int_of_float (Dtype.round_to S8 v))
  | U8 a -> Array1.unsafe_set a i (int_of_float (Dtype.round_to U8 v))
  | S64 a -> Array1.unsafe_set a i (Int64.of_float (Dtype.round_to S64 v))

let get_int t i =
  match t with
  | S32 a -> Int32.to_int (Array1.get a i)
  | S8 a -> Array1.get a i
  | U8 a -> Array1.get a i
  | S64 a -> Int64.to_int (Array1.get a i)
  | F32 _ | Bf16 _ -> int_of_float (Float.round (get t i))

let set_int t i v =
  match t with
  | S32 a -> Array1.set a i (Int32.of_int v)
  | S8 a -> Array1.set a i (int_of_float (Dtype.round_to S8 (float_of_int v)))
  | U8 a -> Array1.set a i (int_of_float (Dtype.round_to U8 (float_of_int v)))
  | S64 a -> Array1.set a i (Int64.of_int v)
  | F32 _ | Bf16 _ -> set t i (float_of_int v)

let fill t v =
  for i = 0 to length t - 1 do
    set t i v
  done

let blit_impl name ~src ~dst =
  if not (Dtype.equal (dtype src) (dtype dst)) then
    bad ~name "Buffer.blit: dtype mismatch"
      [
        ("src_dtype", Dtype.to_string (dtype src));
        ("dst_dtype", Dtype.to_string (dtype dst));
      ];
  if length src > length dst then
    bad ~name "Buffer.blit: dst too small"
      [
        ("dtype", Dtype.to_string (dtype src));
        ("requested", string_of_int (length src));
        ("actual", string_of_int (length dst));
      ];
  match (src, dst) with
  | F32 a, F32 b | Bf16 a, Bf16 b ->
      Array1.blit a (Array1.sub b 0 (Array1.dim a))
  | S32 a, S32 b -> Array1.blit a (Array1.sub b 0 (Array1.dim a))
  | S8 a, S8 b -> Array1.blit a (Array1.sub b 0 (Array1.dim a))
  | U8 a, U8 b -> Array1.blit a (Array1.sub b 0 (Array1.dim a))
  | S64 a, S64 b -> Array1.blit a (Array1.sub b 0 (Array1.dim a))
  | _ -> assert false

let blit ~src ~dst = blit_impl "" ~src ~dst
let blit_named ~name ~src ~dst = blit_impl name ~src ~dst

let as_f32 = function
  | F32 a | Bf16 a -> a
  | _ -> invalid_arg "Buffer.as_f32: not an f32/bf16 buffer"

let as_s32 = function S32 a -> a | _ -> invalid_arg "Buffer.as_s32"
let as_s8 = function S8 a -> a | _ -> invalid_arg "Buffer.as_s8"
let as_u8 = function U8 a -> a | _ -> invalid_arg "Buffer.as_u8"
let as_s64 = function S64 a -> a | _ -> invalid_arg "Buffer.as_s64"

(* s32/s64 spans take their fill value boxed, as [Array1.fill] wants it;
   never inlined, so a zero fill passes the static [0l]/[0L] and
   allocates nothing (inlined, the value would be unboxed and re-boxed
   per call) *)
let[@inline never] fill_s32 (a : s32_arr) off len whole v =
  if whole then Array1.fill a v
  else
    for i = off to off + len - 1 do
      Array1.unsafe_set a i v
    done

let[@inline never] fill_s64 (a : s64_arr) off len whole v =
  if whole then Array1.fill a v
  else
    for i = off to off + len - 1 do
      Array1.unsafe_set a i v
    done

let fill_range ?name t off len v =
  if len < 0 || off < 0 || off + len > length t then
    bad ?name "Buffer.fill_range: out of bounds"
      [
        ("dtype", Dtype.to_string (dtype t));
        ("off", string_of_int off);
        ("len", string_of_int len);
        ("actual", string_of_int (length t));
      ];
  (* Whole-buffer fills go through [Array1.fill] — a C-level memset-class
     primitive. Partial ranges use explicit loops rather than
     [Array1.fill (Array1.sub ...)]: [sub] allocates a fresh bigarray
     descriptor per call, and zero-fills run on the engine's steady-state
     (allocation-free) execute path. The whole-buffer case matters: arena
     reuse zero-fills every served buffer, and a scalar loop over a large
     intermediate (e.g. attention scores) costs more than the allocation
     it replaces. Zero, what those fills store, is already exact in every
     integer dtype, so it skips [Dtype.round_to], whose boxed float result
     would allocate on each call. *)
  let whole = off = 0 && len = length t in
  match t with
  | F32 a ->
      if whole then Array1.fill a v
      else
        for i = off to off + len - 1 do
          Array1.unsafe_set a i v
        done
  | Bf16 a ->
      let v = Dtype.round_to Bf16 v in
      if whole then Array1.fill a v
      else
        for i = off to off + len - 1 do
          Array1.unsafe_set a i v
        done
  | S32 a ->
      fill_s32 a off len whole
        (if v = 0. then 0l else Int32.of_float (Dtype.round_to S32 v))
  | S8 a ->
      let v = if v = 0. then 0 else int_of_float (Dtype.round_to S8 v) in
      if whole then Array1.fill a v
      else
        for i = off to off + len - 1 do
          Array1.unsafe_set a i v
        done
  | U8 a ->
      let v = if v = 0. then 0 else int_of_float (Dtype.round_to U8 v) in
      if whole then Array1.fill a v
      else
        for i = off to off + len - 1 do
          Array1.unsafe_set a i v
        done
  | S64 a ->
      fill_s64 a off len whole
        (if v = 0. then 0L else Int64.of_float (Dtype.round_to S64 v))

let copy_range ?name ~src ~soff ~dst ~doff len =
  if soff < 0 || doff < 0 || len < 0 || soff + len > length src
     || doff + len > length dst
  then
    bad ?name "Buffer.copy_range: out of bounds"
      [
        ("src_dtype", Dtype.to_string (dtype src));
        ("dst_dtype", Dtype.to_string (dtype dst));
        ("soff", string_of_int soff);
        ("doff", string_of_int doff);
        ("len", string_of_int len);
        ("src_len", string_of_int (length src));
        ("dst_len", string_of_int (length dst));
      ];
  match (src, dst) with
  | F32 a, F32 b | Bf16 a, Bf16 b | Bf16 a, F32 b ->
      Array1.blit (Array1.sub a soff len) (Array1.sub b doff len)
  | S32 a, S32 b -> Array1.blit (Array1.sub a soff len) (Array1.sub b doff len)
  | S8 a, S8 b -> Array1.blit (Array1.sub a soff len) (Array1.sub b doff len)
  | U8 a, U8 b -> Array1.blit (Array1.sub a soff len) (Array1.sub b doff len)
  | S64 a, S64 b -> Array1.blit (Array1.sub a soff len) (Array1.sub b doff len)
  | _ ->
      for i = 0 to len - 1 do
        unsafe_set dst (doff + i) (unsafe_get src (soff + i))
      done

let copy t =
  let out = create (dtype t) (length t) in
  blit ~src:t ~dst:out;
  out

let equal a b =
  Dtype.equal (dtype a) (dtype b)
  && length a = length b
  &&
  let n = length a in
  let rec go i = i >= n || (get a i = get b i && go (i + 1)) in
  go 0
