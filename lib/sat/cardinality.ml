(* Sinz, "Towards an Optimal CNF Encoding of Boolean Cardinality
   Constraints", CP 2005 — the LT_SEQ sequential counter.

   Registers s_{i,j} (1-based in the literature) hold "at least j of
   x_1..x_i are true". Clauses for AtMost-k over x_1..x_n:

     (¬x_1 ∨ s_{1,1})
     (¬s_{1,j})                        for 2 <= j <= k
     (¬x_i ∨ s_{i,1})                  for 2 <= i < n
     (¬s_{i-1,1} ∨ s_{i,1})            for 2 <= i < n
     (¬x_i ∨ ¬s_{i-1,j-1} ∨ s_{i,j})   for 2 <= i < n, 2 <= j <= k
     (¬s_{i-1,j} ∨ s_{i,j})            for 2 <= i < n, 2 <= j <= k
     (¬x_i ∨ ¬s_{i-1,k})               for 2 <= i <= n *)

let at_most ?guard p lits k =
  if k < 0 then invalid_arg "Cardinality.at_most: negative bound";
  let add_clause p cl =
    Cnf.add_clause p (match guard with Some g -> Lit.negate g :: cl | None -> cl)
  in
  let xs = Array.of_list lits in
  let n = Array.length xs in
  if k = 0 then Array.iter (fun l -> add_clause p [ Lit.negate l ]) xs
  else if n > k then begin
    (* s.(i).(j) for 0-based i in [0..n-2], j in [0..k-1] *)
    let s =
      Array.init (n - 1) (fun _ -> Array.init k (fun _ -> Cnf.new_var p))
    in
    let reg i j = Lit.pos s.(i).(j) in
    add_clause p [ Lit.negate xs.(0); reg 0 0 ];
    for j = 1 to k - 1 do
      add_clause p [ Lit.negate (reg 0 j) ]
    done;
    for i = 1 to n - 2 do
      add_clause p [ Lit.negate xs.(i); reg i 0 ];
      add_clause p [ Lit.negate (reg (i - 1) 0); reg i 0 ];
      for j = 1 to k - 1 do
        add_clause p
          [ Lit.negate xs.(i); Lit.negate (reg (i - 1) (j - 1)); reg i j ];
        add_clause p [ Lit.negate (reg (i - 1) j); reg i j ]
      done;
      add_clause p [ Lit.negate xs.(i); Lit.negate (reg (i - 1) (k - 1)) ]
    done;
    if n >= 2 then
      add_clause p
        [ Lit.negate xs.(n - 1); Lit.negate (reg (n - 2) (k - 1)) ]
  end

let guarded_empty ?guard p =
  Cnf.add_clause p (match guard with Some g -> [ Lit.negate g ] | None -> [])

let at_least ?guard p lits k =
  let n = List.length lits in
  if k > n then guarded_empty ?guard p (* unsatisfiable *)
  else if k > 0 then at_most ?guard p (List.map Lit.negate lits) (n - k)

let exactly ?guard p lits k =
  let n = List.length lits in
  if k < 0 || k > n then guarded_empty ?guard p
  else begin
    at_most ?guard p lits k;
    at_least ?guard p lits k
  end

(* Bidirectional sequential counter. Register r(i,j) (0-based input i,
   1 <= j <= bound) holds "at least j of inputs 0..i", in both
   directions, with r(-1,j) false and r(i,0) true:

     r(i-1,j) -> r(i,j)                 x_i ∧ r(i-1,j-1) -> r(i,j)
     r(i,j) -> r(i-1,j) ∨ x_i           r(i,j) -> r(i-1,j-1)

   By induction on i every register equals its count predicate in every
   model, so the last row is a unary count of the inputs up to [bound]
   that any window can be asserted on through assumptions alone. No
   count exceeds n, so a bound past n is clamped to it. *)
type counter = { inputs : int; outputs : Lit.t array }

let counter p lits bound =
  if bound < 0 then invalid_arg "Cardinality.counter: negative bound";
  let xs = Array.of_list lits in
  let n = Array.length xs in
  let bound = min bound n in
  if bound = 0 then { inputs = n; outputs = [||] }
  else begin
    let r =
      Array.init n (fun _ -> Array.init bound (fun _ -> Lit.pos (Cnf.new_var p)))
    in
    (* registers at j = 0 are constant true and absent; at i = -1 they
       are constant false: those literals drop out of their clauses *)
    for i = 0 to n - 1 do
      let x = xs.(i) in
      for j = 1 to bound do
        let rij = r.(i).(j - 1) in
        if i = 0 then begin
          if j = 1 then begin
            Cnf.add_clause p [ Lit.negate x; rij ];
            Cnf.add_clause p [ Lit.negate rij; x ]
          end
          else Cnf.add_clause p [ Lit.negate rij ]
        end
        else begin
          let up = r.(i - 1).(j - 1) in
          Cnf.add_clause p [ Lit.negate up; rij ];
          Cnf.add_clause p [ Lit.negate rij; up; x ];
          if j = 1 then Cnf.add_clause p [ Lit.negate x; rij ]
          else begin
            let diag = r.(i - 1).(j - 2) in
            Cnf.add_clause p [ Lit.negate x; Lit.negate diag; rij ];
            Cnf.add_clause p [ Lit.negate rij; diag ]
          end
        end
      done
    done;
    { inputs = n; outputs = r.(n - 1) }
  end

let at_least_lit c j =
  if j < 1 || j > Array.length c.outputs then
    invalid_arg "Cardinality.at_least_lit: beyond the counter's bound";
  c.outputs.(j - 1)

let within c ~lo ~hi =
  if lo > hi || lo > c.inputs || hi < 0 then
    invalid_arg "Cardinality.within: no count lies in the window";
  (if lo >= 1 then [ at_least_lit c lo ] else [])
  @ if hi < c.inputs then [ Lit.negate (at_least_lit c (hi + 1)) ] else []

(* Naive: forbid every (k+1)-subset from being simultaneously true. *)
let rec subsets n = function
  | _ when n = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
      List.map (fun s -> x :: s) (subsets (n - 1) rest) @ subsets n rest

let at_most_pairwise p lits k =
  if k < 0 then invalid_arg "Cardinality.at_most_pairwise";
  List.iter
    (fun subset -> Cnf.add_clause p (List.map Lit.negate subset))
    (subsets (k + 1) lits)

let exactly_pairwise p lits k =
  let n = List.length lits in
  if k < 0 || k > n then Cnf.add_clause p []
  else begin
    at_most_pairwise p lits k;
    (* at least k: every (n-k+1)-subset contains a true literal *)
    List.iter (fun subset -> Cnf.add_clause p subset) (subsets (n - k + 1) lits)
  end
