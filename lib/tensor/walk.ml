open Bigarray

type tables = int array array

let broadcast tabs ~from onto =
  let rf = Shape.rank from and r = Shape.rank onto in
  Array.init r (fun o ->
      let j = o - (r - rf) in
      if j < 0 || Shape.dim from j = 1 then Array.make (Shape.dim onto o) 0
      else tabs.(j))

let check shape tabs =
  if Array.length tabs <> Shape.rank shape then
    invalid_arg "Walk: table rank mismatch";
  Array.iteri
    (fun a t ->
      if Array.length t < Shape.dim shape a then
        invalid_arg "Walk: table shorter than its axis")
    tabs

(* One loop level per axis; the innermost level calls [f]. Offsets ride
   in the arguments, so a step is one table read per tensor. *)
let iter3 shape ta tb tc f =
  check shape ta;
  check shape tb;
  check shape tc;
  let dims = Shape.to_array shape in
  let last = Array.length dims - 1 in
  let rec go a oa ob oc =
    let xa = ta.(a) and xb = tb.(a) and xc = tc.(a) in
    if a = last then
      for i = 0 to dims.(a) - 1 do
        f (oa + xa.(i)) (ob + xb.(i)) (oc + xc.(i))
      done
    else
      for i = 0 to dims.(a) - 1 do
        go (a + 1) (oa + xa.(i)) (ob + xb.(i)) (oc + xc.(i))
      done
  in
  if last < 0 then f 0 0 0 else go 0 0 0 0

let iter2 shape ta tb f = iter3 shape ta tb tb (fun a b _ -> f a b)

(* [Buffer.get] inlined into the loops below: without cross-module
   inlining, a call to it returns a boxed float. *)
let[@inline] get (b : Buffer.t) i =
  match b with
  | F32 a | Bf16 a -> Array1.get a i
  | S32 a -> Int32.to_float (Array1.get a i)
  | S8 a -> float_of_int (Array1.get a i)
  | U8 a -> float_of_int (Array1.get a i)
  | S64 a -> Int64.to_float (Array1.get a i)

let copy shape ~src ts ~dst td =
  let move = iter2 shape ts td in
  match ((src : Buffer.t), (dst : Buffer.t)) with
  | F32 a, F32 b -> move (fun i j -> Array1.set b j (Array1.get a i))
  | S32 a, S32 b -> move (fun i j -> Array1.set b j (Array1.get a i))
  | S8 a, S8 b -> move (fun i j -> Array1.set b j (Array1.get a i))
  | U8 a, U8 b -> move (fun i j -> Array1.set b j (Array1.get a i))
  | S64 a, S64 b -> move (fun i j -> Array1.set b j (Array1.get a i))
  | _, F32 b -> move (fun i j -> Array1.set b j (get src i))
  | _ -> move (fun i j -> Buffer.set dst j (get src i))

type diff = { max_abs : float; unequal : int; far : int }

let diff shape ~rtol ~atol a ta b tb =
  let m = [| 0. |] and unequal = ref 0 and far = ref 0 in
  iter2 shape ta tb (fun i j ->
      let x = get a i and y = get b j in
      let d = Float.abs (x -. y) in
      if x <> y then incr unequal;
      if d > atol +. (rtol *. Float.abs y) then incr far;
      (* NaN sticks, as with [Float.max] *)
      if d > m.(0) || d <> d then m.(0) <- d);
  { max_abs = m.(0); unequal = !unequal; far = !far }
