type t = int array

let of_array a =
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Shape.of_array: negative dimension")
    a;
  Array.copy a

let of_list l = of_array (Array.of_list l)
let to_list t = Array.to_list t
let to_array t = Array.copy t
let rank t = Array.length t

let dim t i =
  if i < 0 || i >= Array.length t then invalid_arg "Shape.dim: out of bounds";
  t.(i)

let numel t = Array.fold_left ( * ) 1 t
let equal a b = a = b
let compare a b = Stdlib.compare a b
let scalar = [||]
let is_scalar t = Array.length t = 0

let row_major_strides t =
  let n = Array.length t in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * t.(i + 1)
  done;
  s

let offset t idx =
  let n = Array.length t in
  if Array.length idx <> n then invalid_arg "Shape.offset: rank mismatch";
  let off = ref 0 in
  for i = 0 to n - 1 do
    if idx.(i) < 0 || idx.(i) >= t.(i) then
      invalid_arg
        (Printf.sprintf "Shape.offset: index %d out of range [0,%d) at dim %d"
           idx.(i) t.(i) i);
    off := (!off * t.(i)) + idx.(i)
  done;
  !off

let unoffset t linear =
  let n = Array.length t in
  let idx = Array.make n 0 in
  let rem = ref linear in
  for i = n - 1 downto 0 do
    if t.(i) > 0 then begin
      idx.(i) <- !rem mod t.(i);
      rem := !rem / t.(i)
    end
  done;
  idx

let broadcast a b =
  let ra = Array.length a and rb = Array.length b in
  let r = max ra rb in
  let out = Array.make r 0 in
  let ok = ref true in
  for i = 0 to r - 1 do
    let da = if i < r - ra then 1 else a.(i - (r - ra)) in
    let db = if i < r - rb then 1 else b.(i - (r - rb)) in
    if da = db then out.(i) <- da
    else if da = 1 then out.(i) <- db
    else if db = 1 then out.(i) <- da
    else ok := false
  done;
  if !ok then Some out else None

let iter t f =
  let n = numel t in
  if Array.length t = 0 then (if n > 0 then f [||])
  else
    let idx = Array.make (Array.length t) 0 in
    let rank = Array.length t in
    let rec loop () =
      f (Array.copy idx);
      (* advance odometer *)
      let rec bump i =
        if i < 0 then false
        else begin
          idx.(i) <- idx.(i) + 1;
          if idx.(i) < t.(i) then true
          else begin
            idx.(i) <- 0;
            bump (i - 1)
          end
        end
      in
      if bump (rank - 1) then loop ()
    in
    if n > 0 then loop ()

let concat a b = Array.append a b
let sub t lo hi = Array.sub t lo (hi - lo)
let ceil_div a b = (a + b - 1) / b

let to_string t =
  "[" ^ String.concat "x" (List.map string_of_int (Array.to_list t)) ^ "]"

let pp fmt t = Format.pp_print_string fmt (to_string t)
