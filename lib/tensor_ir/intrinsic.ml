type t = { name : string; arity : int; trailing : int }

let brgemm = { name = "brgemm"; arity = 9; trailing = 2 }
let zero = { name = "zero"; arity = 2; trailing = 0 }
let copy = { name = "copy"; arity = 3; trailing = 0 }
let all = [ brgemm; zero; copy ]
let lookup name = List.find_opt (fun t -> String.equal t.name name) all
let accepts t n = n = t.arity || (t.trailing > 0 && n = t.arity + t.trailing)
