(* Tests for the CDCL solver substrate: units on crafted instances,
   brute-force cross-checks on random CNF/XOR/cardinality problems. *)

open Tp_sat

let l p v = Lit.make v p
let pos = Lit.pos
let neg = Lit.neg_of

(* Brute force model count of a Cnf problem. *)
let brute_models p =
  let n = Cnf.nvars p in
  assert (n <= 20);
  let out = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let a = Array.init n (fun i -> (mask lsr i) land 1 = 1) in
    if Cnf.eval p a then out := a :: !out
  done;
  List.rev !out

let check_result = Alcotest.testable (fun ppf (r : Solver.result) ->
    Format.pp_print_string ppf
      (match r with Sat -> "SAT" | Unsat -> "UNSAT" | Unknown -> "UNKNOWN"))
    ( = )

(* ------------------------------------------------------------------ *)
(* Units                                                               *)

let test_trivial_sat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ pos v ];
  Alcotest.check check_result "sat" Sat (Solver.solve s);
  Alcotest.(check bool) "model" true (Solver.value s v)

let test_trivial_unsat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ pos v ];
  Solver.add_clause s [ neg v ];
  Alcotest.check check_result "unsat" Unsat (Solver.solve s);
  Alcotest.(check bool) "ok false" false (Solver.ok s)

let test_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause s [];
  Alcotest.check check_result "unsat" Unsat (Solver.solve s)

let test_unit_propagation_chain () =
  (* x0 ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2) ∧ … forces all true *)
  let s = Solver.create () in
  let n = 50 in
  let vs = Array.init n (fun _ -> Solver.new_var s) in
  Solver.add_clause s [ pos vs.(0) ];
  for i = 0 to n - 2 do
    Solver.add_clause s [ neg vs.(i); pos vs.(i + 1) ]
  done;
  Alcotest.check check_result "sat" Sat (Solver.solve s);
  Array.iter (fun v -> Alcotest.(check bool) "forced" true (Solver.value s v)) vs

let test_tautology_ignored () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ pos v; neg v ];
  Alcotest.check check_result "sat" Sat (Solver.solve s)

let pigeonhole pigeons holes =
  (* var p*holes + h: pigeon p in hole h *)
  let s = Solver.create () in
  ignore (Solver.new_vars s (pigeons * holes));
  let v p h = (p * holes) + h in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> pos (v p h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ neg (v p1 h); neg (v p2 h) ]
      done
    done
  done;
  s

let test_pigeonhole_unsat () =
  Alcotest.check check_result "php(5,4)" Unsat (Solver.solve (pigeonhole 5 4));
  Alcotest.check check_result "php(6,5)" Unsat (Solver.solve (pigeonhole 6 5))

let test_pigeonhole_sat () =
  Alcotest.check check_result "php(4,4)" Sat (Solver.solve (pigeonhole 4 4))

let test_xor_chain_sat () =
  (* x0⊕x1=1, x1⊕x2=1, x0⊕x2=0 is consistent *)
  let s = Solver.create () in
  let x = Solver.new_vars s 3 in
  Solver.add_xor s ~vars:[ x; x + 1 ] ~parity:true;
  Solver.add_xor s ~vars:[ x + 1; x + 2 ] ~parity:true;
  Solver.add_xor s ~vars:[ x; x + 2 ] ~parity:false;
  Alcotest.check check_result "sat" Sat (Solver.solve s);
  let m = Solver.model s in
  Alcotest.(check bool) "x0 <> x1" true (m.(x) <> m.(x + 1));
  Alcotest.(check bool) "x1 <> x2" true (m.(x + 1) <> m.(x + 2));
  Alcotest.(check bool) "x0 = x2" true (m.(x) = m.(x + 2))

let test_xor_chain_unsat () =
  let s = Solver.create () in
  let x = Solver.new_vars s 3 in
  Solver.add_xor s ~vars:[ x; x + 1 ] ~parity:true;
  Solver.add_xor s ~vars:[ x + 1; x + 2 ] ~parity:true;
  Solver.add_xor s ~vars:[ x; x + 2 ] ~parity:true;
  Alcotest.check check_result "odd cycle" Unsat (Solver.solve s)

let test_xor_with_cnf () =
  (* x0⊕x1⊕x2 = 1, plus clauses forcing x0=1, x1=1 => x2 = 1 *)
  let s = Solver.create () in
  let x = Solver.new_vars s 3 in
  Solver.add_xor s ~vars:[ x; x + 1; x + 2 ] ~parity:true;
  Solver.add_clause s [ pos x ];
  Solver.add_clause s [ pos (x + 1) ];
  Alcotest.check check_result "sat" Sat (Solver.solve s);
  Alcotest.(check bool) "x2 forced" true (Solver.value s (x + 2))

let test_xor_duplicate_vars_cancel () =
  (* v ⊕ v = 0, so the constraint [v; v] with parity=1 is unsat *)
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_xor s ~vars:[ v; v ] ~parity:true;
  Alcotest.check check_result "unsat" Unsat (Solver.solve s);
  let s2 = Solver.create () in
  let v2 = Solver.new_var s2 in
  Solver.add_xor s2 ~vars:[ v2; v2 ] ~parity:false;
  Alcotest.check check_result "sat" Sat (Solver.solve s2)

let test_incremental_blocking () =
  (* 2 free vars: 4 models, block them one by one *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ pos a; pos b; neg a; neg b ];
  (* tautology: no constraint *)
  let seen = ref 0 in
  let rec go () =
    match Solver.solve s with
    | Sat ->
        incr seen;
        let ma = Solver.value s a and mb = Solver.value s b in
        Solver.add_clause s [ l (not ma) a; l (not mb) b ];
        go ()
    | Unsat -> ()
    | Unknown -> Alcotest.fail "unexpected unknown"
  in
  go ();
  Alcotest.(check int) "4 models" 4 !seen

let test_conflict_budget () =
  (* A hard instance with a tiny budget must answer Unknown *)
  let s = pigeonhole 8 7 in
  match Solver.solve ~conflict_budget:5 s with
  | Unknown -> ()
  | Sat -> Alcotest.fail "php(8,7) cannot be SAT"
  | Unsat -> () (* solved within budget: fine, but unlikely *)

(* ------------------------------------------------------------------ *)
(* Assumptions and unsat cores                                         *)

let test_assumptions_sat () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ pos a; pos b ];
  Alcotest.check check_result "assume a, ¬b" Sat
    (Solver.solve ~assumptions:[ pos a; neg b ] s);
  Alcotest.(check bool) "a true" true (Solver.value s a);
  Alcotest.(check bool) "b false" false (Solver.value s b);
  (* the same solver answers the flipped query *)
  Alcotest.check check_result "assume ¬a, b" Sat
    (Solver.solve ~assumptions:[ neg a; pos b ] s);
  Alcotest.(check bool) "a false" false (Solver.value s a);
  Alcotest.(check bool) "b true" true (Solver.value s b);
  (* and the unconstrained query; unsat_core is invalid after Sat *)
  Alcotest.check check_result "no assumptions" Sat (Solver.solve s);
  Alcotest.check_raises "core after Sat"
    (Failure "Solver.unsat_core: last solve did not return Unsat") (fun () ->
      ignore (Solver.unsat_core s))

let lit_mem l lits = List.exists (Lit.equal l) lits

let test_assumptions_unsat_core () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ neg a; neg b ];
  Alcotest.check check_result "a ∧ b contradicts" Unsat
    (Solver.solve ~assumptions:[ pos a; pos b; pos c ] s);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "core ⊆ assumptions" true
    (List.for_all (fun l -> lit_mem l [ pos a; pos b; pos c ]) core);
  Alcotest.(check bool) "core mentions a" true (lit_mem (pos a) core);
  Alcotest.(check bool) "core mentions b" true (lit_mem (pos b) core);
  Alcotest.(check bool) "irrelevant c not in core" false (lit_mem (pos c) core);
  (* the instance itself is untouched: assumptions are not learned *)
  Alcotest.(check bool) "still ok" true (Solver.ok s);
  Alcotest.check check_result "sat without assumptions" Sat (Solver.solve s)

let test_unsat_core_root_falsified () =
  (* an assumption contradicted at the root is its own core *)
  let s = Solver.create () in
  let vs = Array.init 5 (fun _ -> Solver.new_var s) in
  Solver.add_clause s [ neg vs.(2) ];
  Alcotest.check check_result "unsat" Unsat
    (Solver.solve ~assumptions:(Array.to_list (Array.map pos vs)) s);
  match Solver.unsat_core s with
  | [ l0 ] -> Alcotest.(check bool) "core = [x2]" true (Lit.equal l0 (pos vs.(2)))
  | core ->
      Alcotest.failf "expected singleton core, got %d literals" (List.length core)

let test_unsat_core_empty_on_global_unsat () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ pos b ];
  Solver.add_clause s [ neg b ];
  Alcotest.check check_result "globally unsat" Unsat
    (Solver.solve ~assumptions:[ pos a ] s);
  Alcotest.(check int) "empty core" 0 (List.length (Solver.unsat_core s))

let test_contradictory_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Alcotest.check check_result "a ∧ ¬a" Unsat
    (Solver.solve ~assumptions:[ pos a; neg a ] s);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "core nonempty" true (core <> []);
  Alcotest.(check bool) "core ⊆ {a, ¬a}" true
    (List.for_all (fun l -> lit_mem l [ pos a; neg a ]) core)

(* ------------------------------------------------------------------ *)
(* Guarded constraint groups                                           *)

let test_guarded_xor_enable_disable () =
  let s = Solver.create () in
  let x = Solver.new_var s and y = Solver.new_var s in
  let g = Solver.new_var s in
  Solver.add_xor ~guard:(pos g) s ~vars:[ x; y ] ~parity:true;
  Solver.add_clause s [ pos x ];
  Solver.add_clause s [ pos y ];
  (* x = y = 1 violates the row, so it only survives with the guard off *)
  Alcotest.check check_result "guard free" Sat (Solver.solve s);
  Alcotest.(check bool) "guard forced off" false (Solver.value s g);
  Alcotest.check check_result "guard assumed" Unsat
    (Solver.solve ~assumptions:[ pos g ] s);
  (match Solver.unsat_core s with
  | [ l0 ] -> Alcotest.(check bool) "core = [g]" true (Lit.equal l0 (pos g))
  | core -> Alcotest.failf "expected [g] core, got %d literals" (List.length core));
  Alcotest.check check_result "guard free again" Sat (Solver.solve s)

let test_guarded_xor_propagates_under_guard () =
  (* with the guard asserted, the row propagates like an unguarded one *)
  let s = Solver.create () in
  let x = Solver.new_var s and y = Solver.new_var s in
  let g = Solver.new_var s in
  Solver.add_xor ~guard:(pos g) s ~vars:[ x; y ] ~parity:true;
  Solver.add_clause s [ pos g ];
  Solver.add_clause s [ pos x ];
  Alcotest.check check_result "sat" Sat (Solver.solve s);
  Alcotest.(check bool) "y forced false" false (Solver.value s y)

let test_guarded_xor_groups_retire () =
  let s = Solver.create () in
  let x = Solver.new_var s and y = Solver.new_var s in
  let g1 = Solver.new_var s and g2 = Solver.new_var s in
  Solver.add_xor ~guard:(pos g1) s ~vars:[ x; y ] ~parity:true;
  Solver.add_xor ~guard:(pos g2) s ~vars:[ x; y ] ~parity:false;
  Alcotest.check check_result "group 1 alone" Sat
    (Solver.solve ~assumptions:[ pos g1 ] s);
  Alcotest.(check bool) "row binds" true (Solver.value s x <> Solver.value s y);
  Alcotest.check check_result "group 2 alone" Sat
    (Solver.solve ~assumptions:[ pos g2 ] s);
  Alcotest.(check bool) "row binds" true (Solver.value s x = Solver.value s y);
  Alcotest.check check_result "both groups clash" Unsat
    (Solver.solve ~assumptions:[ pos g1; pos g2 ] s);
  (* retire group 2 for good; group 1 remains usable *)
  Solver.add_clause s [ neg g2 ];
  Alcotest.check check_result "group 1 after retirement" Sat
    (Solver.solve ~assumptions:[ pos g1 ] s);
  Alcotest.(check bool) "g2 dead" false (Solver.value s g2)

let test_guarded_chunked_xor () =
  (* an 8-variable guarded row built through chunking: with the guard
     assumed, exactly the odd-parity assignments survive; with it
     denied, the row (auxiliaries included) falls away entirely *)
  let p = Cnf.create () in
  let vars = List.init 8 (fun _ -> Cnf.new_var p) in
  let g = Cnf.new_var p in
  Cnf.add_xor_chunked ~chunk:3 ~guard:(pos g) p ~vars ~parity:true;
  let s = Solver.of_cnf p in
  let n_on, exact_on =
    Allsat.count ~assumptions:[ pos g ] s ~project:vars
  in
  Alcotest.(check int) "guard on: odd assignments" 128 n_on;
  Alcotest.(check bool) "exact" true (exact_on = `Exact);
  let s2 = Solver.of_cnf p in
  let n_off, exact_off =
    Allsat.count ~assumptions:[ neg g ] s2 ~project:vars
  in
  Alcotest.(check int) "guard off: unconstrained" 256 n_off;
  Alcotest.(check bool) "exact" true (exact_off = `Exact)

let test_chunked_equals_monolithic () =
  (* chunking preserves the projected model set *)
  List.iter
    (fun (n, parity) ->
      let mono = Cnf.create () in
      let vars = List.init n (fun _ -> Cnf.new_var mono) in
      Cnf.add_xor mono ~vars ~parity;
      let chunked = Cnf.create () in
      let vars' = List.init n (fun _ -> Cnf.new_var chunked) in
      Cnf.add_xor_chunked ~chunk:4 chunked ~vars:vars' ~parity;
      let models prob project =
        let s = Solver.of_cnf prob in
        let { Allsat.models; complete } = Allsat.enumerate s ~project in
        assert complete;
        List.sort compare (List.map Array.to_list models)
      in
      Alcotest.(check (list (list bool)))
        (Printf.sprintf "n=%d parity=%b" n parity)
        (models mono vars) (models chunked vars'))
    [ (5, true); (9, false); (13, true) ]

let test_guarded_cardinality_groups () =
  (* one variable set, two cached exactly-k groups switched by guards *)
  let p = Cnf.create () in
  let vars = List.init 5 (fun _ -> Cnf.new_var p) in
  let g2 = Cnf.new_var p and g3 = Cnf.new_var p in
  Cardinality.exactly ~guard:(pos g2) p (List.map pos vars) 2;
  Cardinality.exactly ~guard:(pos g3) p (List.map pos vars) 3;
  let s = Solver.of_cnf p in
  let n2, _ = Allsat.count ~assumptions:[ pos g2; neg g3 ] s ~project:vars in
  Alcotest.(check int) "C(5,2)" 10 n2;
  let s' = Solver.of_cnf p in
  let n3, _ = Allsat.count ~assumptions:[ neg g2; pos g3 ] s' ~project:vars in
  Alcotest.(check int) "C(5,3)" 10 n3;
  let s'' = Solver.of_cnf p in
  Alcotest.check check_result "both groups clash" Unsat
    (Solver.solve ~assumptions:[ pos g2; pos g3 ] s'')

(* ------------------------------------------------------------------ *)
(* Cardinality                                                         *)

let binom n k =
  let num = ref 1 and den = ref 1 in
  for i = 0 to k - 1 do
    num := !num * (n - i);
    den := !den * (i + 1)
  done;
  !num / !den

let count_models_cnf p ~project =
  let s = Solver.of_cnf p in
  let n, exact = Allsat.count s ~project in
  Alcotest.(check bool) "count is exact" true (exact = `Exact);
  n

let test_exactly_model_count () =
  List.iter
    (fun (n, k) ->
      let p = Cnf.create () in
      let vars = List.init n (fun _ -> Cnf.new_var p) in
      Cardinality.exactly p (List.map pos vars) k;
      let count = count_models_cnf p ~project:vars in
      Alcotest.(check int)
        (Printf.sprintf "C(%d,%d) models" n k)
        (binom n k) count)
    [ (5, 0); (5, 2); (6, 3); (7, 1); (7, 7); (8, 4) ]

let test_at_most_model_count () =
  let p = Cnf.create () in
  let n = 6 and k = 2 in
  let vars = List.init n (fun _ -> Cnf.new_var p) in
  Cardinality.at_most p (List.map pos vars) k;
  let expect = binom n 0 + binom n 1 + binom n 2 in
  Alcotest.(check int) "at most 2 of 6" expect (count_models_cnf p ~project:vars)

let test_at_least_model_count () =
  let p = Cnf.create () in
  let n = 6 and k = 4 in
  let vars = List.init n (fun _ -> Cnf.new_var p) in
  Cardinality.at_least p (List.map pos vars) k;
  let expect = binom n 4 + binom n 5 + binom n 6 in
  Alcotest.(check int) "at least 4 of 6" expect (count_models_cnf p ~project:vars)

let test_cardinality_infeasible () =
  let p = Cnf.create () in
  let vars = List.init 3 (fun _ -> Cnf.new_var p) in
  Cardinality.exactly p (List.map pos vars) 5;
  Alcotest.check check_result "k > n" Unsat (Solver.solve (Solver.of_cnf p))

let test_sinz_equals_pairwise () =
  (* both encodings accept exactly the same projected models *)
  List.iter
    (fun (n, k) ->
      let run enc =
        let p = Cnf.create () in
        let vars = List.init n (fun _ -> Cnf.new_var p) in
        enc p (List.map pos vars) k;
        let s = Solver.of_cnf p in
        let { Allsat.models; complete } = Allsat.enumerate s ~project:vars in
        assert complete;
        List.sort compare (List.map Array.to_list models)
      in
      Alcotest.(check (list (list bool)))
        (Printf.sprintf "n=%d k=%d" n k)
        (run Cardinality.exactly_pairwise)
        (run Cardinality.exactly))
    [ (4, 2); (5, 3); (6, 1) ]

(* ------------------------------------------------------------------ *)
(* Assumable counter                                                   *)

let lit_true s li = Solver.value s (Lit.var li) = Lit.sign li

(* [n ≤ 10] counter inputs, one literal of random polarity per fresh
   variable, with the counter's registers numbered after them *)
let counter_over signs bound =
  let p = Cnf.create () in
  let lits = List.map (fun sign -> l sign (Cnf.new_var p)) signs in
  (p, lits, Cardinality.counter p lits bound)

let prop_counter_outputs =
  QCheck.Test.make ~name:"counter output >= j is popcount >= j" ~count:200
    QCheck.(
      make
        ~print:Print.(pair (list bool) (list bool))
        Gen.(
          int_range 0 10 >>= fun n -> pair (list_repeat n bool) (list_repeat n bool)))
    (fun (signs, truth) ->
      let n = List.length signs in
      let count = List.length (List.filter Fun.id truth) in
      List.for_all
        (fun bound ->
          let p, lits, c = counter_over signs bound in
          let s = Solver.of_cnf p in
          let assumptions =
            List.map2 (fun li v -> if v then li else Lit.negate li) lits truth
          in
          (* the bound is clamped to n: a counter over no inputs has no
             registers, hence no outputs *)
          let outputs = min bound n in
          Solver.solve ~assumptions s = Sat
          && List.for_all
               (fun j -> lit_true s (Cardinality.at_least_lit c j) = (count >= j))
               (List.init outputs (fun j -> j + 1)))
        (List.init (n + 2) Fun.id))

(* each input is fixed true (1), fixed false (0) or left free (2); a
   window (lo, hi) is satisfiable exactly when some completion of the
   free inputs has a count in it *)
let prop_counter_windows =
  QCheck.Test.make ~name:"counter window is SAT iff a completion fits" ~count:300
    QCheck.(
      make
        ~print:Print.(quad (list bool) (list int) int int)
        Gen.(
          int_range 0 10 >>= fun n ->
          quad (list_repeat n bool)
            (list_repeat n (int_bound 2))
            (int_range (-1) (n + 1))
            (int_range (-1) (n + 1))))
    (fun (signs, fix, lo, hi) ->
      let n = List.length signs in
      let fixed_true = List.length (List.filter (( = ) 1) fix) in
      let free = List.length (List.filter (( = ) 2) fix) in
      let fits = max lo fixed_true <= min hi (fixed_true + free) in
      let empty = lo > hi || lo > n || hi < 0 in
      (* the smallest bound that can express the window, up to n + 1 *)
      let needed =
        max
          (if lo >= 1 && lo <= n then lo else 0)
          (if hi >= 0 && hi < n then hi + 1 else 0)
      in
      List.for_all
        (fun bound ->
          let p, lits, c = counter_over signs bound in
          match Cardinality.within c ~lo ~hi with
          | exception Invalid_argument _ when empty -> not fits
          | window -> (
              let pins =
                List.concat
                  (List.map2
                     (fun li f ->
                       if f = 2 then [] else [ (if f = 1 then li else Lit.negate li) ])
                     lits fix)
              in
              let s = Solver.of_cnf p in
              match Solver.solve ~assumptions:(pins @ window) s with
              | Sat ->
                  let count = List.length (List.filter (lit_true s) lits) in
                  fits && lo <= count && count <= hi
              | Unsat -> not fits
              | Unknown -> false))
        (List.init (n + 2 - needed) (fun i -> needed + i)))

let test_counter_edges () =
  let p, _, c = counter_over [ true; false; true ] 2 in
  Alcotest.(check int) "n × bound registers" (3 + (3 * 2)) (Cnf.nvars p);
  Alcotest.check_raises "output beyond the bound"
    (Invalid_argument "Cardinality.at_least_lit: beyond the counter's bound")
    (fun () -> ignore (Cardinality.at_least_lit c 3));
  Alcotest.check_raises "window beyond the bound"
    (Invalid_argument "Cardinality.at_least_lit: beyond the counter's bound")
    (fun () -> ignore (Cardinality.within c ~lo:3 ~hi:3));
  let no_count = Invalid_argument "Cardinality.within: no count lies in the window" in
  Alcotest.check_raises "no count above n" no_count (fun () ->
      ignore (Cardinality.within c ~lo:4 ~hi:9));
  Alcotest.check_raises "empty window" no_count (fun () ->
      ignore (Cardinality.within c ~lo:2 ~hi:1));
  Alcotest.check_raises "no count below 0" no_count (fun () ->
      ignore (Cardinality.within c ~lo:(-3) ~hi:(-1)));
  Alcotest.(check bool) "the full range needs no assumption" true
    (Cardinality.within c ~lo:0 ~hi:3 = []);
  let p, _, c = counter_over [ true; false; true ] max_int in
  Alcotest.(check int) "a bound past n is clamped to n" (3 + (3 * 3)) (Cnf.nvars p);
  Alcotest.(check bool) "the top output exists" true
    (Cardinality.within c ~lo:3 ~hi:3 = [ Cardinality.at_least_lit c 3 ]);
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Cardinality.counter: negative bound") (fun () ->
      ignore (counter_over [ true ] (-1)))

(* ------------------------------------------------------------------ *)
(* AllSAT                                                              *)

let test_allsat_exhaustive_vs_brute () =
  let p = Cnf.create () in
  let a = Cnf.new_var p and b = Cnf.new_var p and c = Cnf.new_var p in
  Cnf.add_clause p [ pos a; pos b ];
  Cnf.add_clause p [ neg b; pos c ];
  Cnf.add_xor p ~vars:[ a; c ] ~parity:false;
  let brute = brute_models p in
  let s = Solver.of_cnf p in
  let { Allsat.models; complete } = Allsat.enumerate s ~project:[ a; b; c ] in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check int) "same count" (List.length brute) (List.length models);
  let norm ms = List.sort compare (List.map Array.to_list ms) in
  Alcotest.(check (list (list bool))) "same set" (norm brute) (norm models)

let test_allsat_max_models () =
  let p = Cnf.create () in
  let vars = List.init 5 (fun _ -> Cnf.new_var p) in
  let s = Solver.of_cnf p in
  let { Allsat.models; complete } = Allsat.enumerate ~max_models:7 s ~project:vars in
  Alcotest.(check int) "capped" 7 (List.length models);
  Alcotest.(check bool) "incomplete" false complete

let test_allsat_global_budget () =
  (* the budget bounds the whole enumeration, not each solve: an
     enumeration that needs many conflicts in total must stop with the
     solver having spent at most [budget] conflicts overall — under the
     old per-solve semantics php(6,6)'s 720 models could burn up to
     720 × budget *)
  let budget = 20 in
  let s = pigeonhole 6 6 in
  let project = List.init 36 Fun.id in
  let { Allsat.models; complete } =
    Allsat.enumerate ~conflict_budget:budget s ~project
  in
  Alcotest.(check bool) "stopped early" false complete;
  Alcotest.(check bool) "found fewer than all 720" true (List.length models < 720);
  Alcotest.(check bool)
    (Printf.sprintf "total conflicts %d <= budget %d" (Solver.stats s).conflicts
       budget)
    true
    ((Solver.stats s).conflicts <= budget)

let test_allsat_count_reports_truncation () =
  let p = Cnf.create () in
  let vars = List.init 4 (fun _ -> Cnf.new_var p) in
  let s = Solver.of_cnf p in
  let n, exact = Allsat.count ~max_models:5 s ~project:vars in
  Alcotest.(check int) "truncated count" 5 n;
  Alcotest.(check bool) "lower bound" true (exact = `Lower_bound);
  let s2 = Solver.of_cnf p in
  let n2, exact2 = Allsat.count s2 ~project:vars in
  Alcotest.(check int) "full count" 16 n2;
  Alcotest.(check bool) "exact" true (exact2 = `Exact)

let test_allsat_guarded_blocking () =
  (* blocking clauses under a guard: retiring the guard restores the
     full model set for later enumerations on the same solver *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  let g1 = Solver.new_var s and g2 = Solver.new_var s in
  let n1, _ = Allsat.count ~guard:(pos g1) s ~project:[ a; b ] in
  Alcotest.(check int) "first enumeration" 4 n1;
  Solver.add_clause s [ neg g1 ];
  let n2, _ = Allsat.count ~guard:(pos g2) s ~project:[ a; b ] in
  Alcotest.(check int) "second enumeration sees all models again" 4 n2

(* ------------------------------------------------------------------ *)
(* Dimacs                                                              *)

let test_dimacs_roundtrip () =
  let p = Cnf.create () in
  let a = Cnf.new_var p and b = Cnf.new_var p and c = Cnf.new_var p in
  Cnf.add_clause p [ pos a; neg b ];
  Cnf.add_clause p [ pos c ];
  Cnf.add_xor p ~vars:[ a; b; c ] ~parity:true;
  Cnf.add_xor p ~vars:[ a; c ] ~parity:false;
  let text = Dimacs.to_string p in
  let q = Dimacs.parse_string text in
  Alcotest.(check int) "nvars" (Cnf.nvars p) (Cnf.nvars q);
  Alcotest.(check int) "nclauses" (Cnf.nclauses p) (Cnf.nclauses q);
  Alcotest.(check int) "nxors" (Cnf.nxors p) (Cnf.nxors q);
  (* same models *)
  let norm prob = List.sort compare (List.map Array.to_list (brute_models prob)) in
  Alcotest.(check (list (list bool))) "same models" (norm p) (norm q)

let test_dimacs_parse_errors () =
  Alcotest.check_raises "unterminated"
    (Failure "Dimacs: line 1: clause not terminated by 0") (fun () ->
      ignore (Dimacs.parse_string "1 2 3"));
  Alcotest.check_raises "bad literal"
    (Failure "Dimacs: line 2: bad literal foo") (fun () ->
      ignore (Dimacs.parse_string "p cnf 2 1\n1 foo 0"));
  (* the error names the line where the open clause started *)
  Alcotest.check_raises "unterminated multi-line"
    (Failure "Dimacs: line 3: clause not terminated by 0") (fun () ->
      ignore (Dimacs.parse_string "p cnf 4 2\n1 2 0\n3\n4"))

let test_dimacs_clause_spanning_lines () =
  (* clauses are a token stream: they may span lines… *)
  let p = Dimacs.parse_string "p cnf 3 2\n1 2\n3 0\n-1\n0" in
  Alcotest.(check int) "two clauses" 2 (Cnf.nclauses p);
  (match Cnf.clauses p with
  | [ c1; c2 ] ->
      Alcotest.(check (list int)) "clause 1" [ 1; 2; 3 ]
        (List.map Lit.to_dimacs c1);
      Alcotest.(check (list int)) "clause 2" [ -1 ] (List.map Lit.to_dimacs c2)
  | _ -> Alcotest.fail "expected two clauses");
  (* …or share one, with comments interleaved *)
  let q = Dimacs.parse_string "p cnf 3 3\nc shared line\n1 2 0 -2 3 0 -1 0\n" in
  Alcotest.(check int) "three clauses" 3 (Cnf.nclauses q)

let test_dimacs_xor_spanning_lines () =
  let p = Dimacs.parse_string "p cnf 4 2\nx1 2\n3 0\nx-1 4 0\n" in
  Alcotest.(check int) "two xors" 2 (Cnf.nxors p);
  match Cnf.xors p with
  | [ x1; x2 ] ->
      Alcotest.(check (list int)) "xor 1 vars" [ 0; 1; 2 ] x1.Cnf.vars;
      Alcotest.(check bool) "xor 1 parity" true x1.Cnf.parity;
      Alcotest.(check (list int)) "xor 2 vars" [ 0; 3 ] x2.Cnf.vars;
      Alcotest.(check bool) "xor 2 parity" false x2.Cnf.parity
  | _ -> Alcotest.fail "expected two xors"

let test_dimacs_empty_xor_roundtrip () =
  (* `x 0` is the odd empty constraint 0 = 1; [Cnf.add_xor] normalizes
     it to the empty clause, so it must serialize as the empty clause
     `0` — an `x 0` rendering would survive, but an {e even} empty row
     written the same way would read back as a contradiction *)
  let p = Dimacs.parse_string "p cnf 1 2\nx 0\n1 0\n" in
  Alcotest.(check int) "odd empty xor is the empty clause" 2 (Cnf.nclauses p);
  Alcotest.(check int) "no xor rows survive" 0 (Cnf.nxors p);
  Alcotest.(check bool) "unsat" true (brute_models p = []);
  let q = Dimacs.parse_string (Dimacs.to_string p) in
  Alcotest.(check int) "round trip keeps both clauses" 2 (Cnf.nclauses q);
  Alcotest.(check bool) "round trip still unsat" true (brute_models q = []);
  (* the even empty constraint 0 = 0 (a cancelling pair) is trivially
     true and vanishes — and the serialized header must agree *)
  let r = Dimacs.parse_string "p cnf 1 2\nx1 -1 0\n1 0\n" in
  Alcotest.(check int) "even empty xor dropped" 0 (Cnf.nxors r);
  Alcotest.(check int) "only the real clause" 1 (Cnf.nclauses r);
  let r' = Dimacs.parse_string (Dimacs.to_string r) in
  Alcotest.(check int) "header stays consistent" 1 (Cnf.nclauses r');
  Alcotest.(check (list (list bool))) "same models"
    (List.map Array.to_list (brute_models r))
    (List.map Array.to_list (brute_models r'))

let test_dimacs_guarded_xor_unserializable () =
  let p = Cnf.create () in
  let a = Cnf.new_var p and b = Cnf.new_var p in
  let g = Cnf.new_var p in
  Cnf.add_xor ~guard:(pos g) p ~vars:[ a; b ] ~parity:true;
  Alcotest.check_raises "guarded xor"
    (Invalid_argument "Dimacs.to_buffer: guarded XOR constraints cannot be serialized")
    (fun () -> ignore (Dimacs.to_string p))

(* ------------------------------------------------------------------ *)
(* Tseitin                                                             *)

let test_tseitin_basic () =
  let open Tseitin in
  let p = Cnf.create () in
  let a = Cnf.new_var p and b = Cnf.new_var p in
  assert_formula p (var a &&& not_ (var b));
  let s = Solver.of_cnf p in
  Alcotest.check check_result "sat" Sat (Solver.solve s);
  Alcotest.(check bool) "a" true (Solver.value s a);
  Alcotest.(check bool) "b" false (Solver.value s b)

let test_tseitin_projected_models () =
  (* (a ∨ b) ∧ (a → c) should have models matching direct evaluation *)
  let open Tseitin in
  let p = Cnf.create () in
  let a = Cnf.new_var p and b = Cnf.new_var p and c = Cnf.new_var p in
  let f = And [ Or [ var a; var b ]; Imp (var a, var c) ] in
  assert_formula p f;
  let s = Solver.of_cnf p in
  let { Allsat.models; complete } = Allsat.enumerate s ~project:[ a; b; c ] in
  Alcotest.(check bool) "complete" true complete;
  let expected = ref 0 in
  for mask = 0 to 7 do
    let env v = if v = a then mask land 1 = 1 else if v = b then mask land 2 = 2 else mask land 4 = 4 in
    if eval env f then incr expected
  done;
  Alcotest.(check int) "model count" !expected (List.length models)

(* ------------------------------------------------------------------ *)
(* Random cross-checks                                                 *)

let gen_problem =
  QCheck.Gen.(
    int_range 3 9 >>= fun nv ->
    int_range 1 25 >>= fun ncl ->
    int_range 0 4 >>= fun nx ->
    let gen_lit = map2 (fun v s -> l s v) (int_bound (nv - 1)) bool in
    let gen_clause = list_size (int_range 1 4) gen_lit in
    let gen_xor =
      pair (list_size (int_range 1 4) (int_bound (nv - 1))) bool
    in
    triple (return nv) (list_repeat ncl gen_clause) (list_repeat nx gen_xor))

let problem_of (nv, cls, xors) =
  let p = Cnf.create () in
  Cnf.ensure_vars p nv;
  List.iter (Cnf.add_clause p) cls;
  List.iter (fun (vars, parity) -> Cnf.add_xor p ~vars ~parity) xors;
  p

let print_problem (nv, cls, xors) =
  Printf.sprintf "nv=%d cls=%s xors=%s" nv
    (String.concat ","
       (List.map
          (fun c -> "[" ^ String.concat " " (List.map (fun li -> string_of_int (Lit.to_dimacs li)) c) ^ "]")
          cls))
    (String.concat ","
       (List.map
          (fun (vs, par) ->
            "x[" ^ String.concat " " (List.map string_of_int vs) ^ "]=" ^ string_of_bool par)
          xors))

let prop_solver_vs_brute =
  QCheck.Test.make ~name:"solver agrees with brute force" ~count:400
    (QCheck.make ~print:print_problem gen_problem) (fun spec ->
      let p = problem_of spec in
      let expected = brute_models p <> [] in
      let s = Solver.of_cnf p in
      match Solver.solve s with
      | Sat ->
          expected
          &&
          (* the model must actually satisfy the problem *)
          let m = Solver.model s in
          let a = Array.init (Cnf.nvars p) (fun i -> if i < Array.length m then m.(i) else false) in
          Cnf.eval p a
      | Unsat -> not expected
      | Unknown -> false)

let prop_allsat_vs_brute =
  QCheck.Test.make ~name:"allsat enumerates the exact model set" ~count:150
    (QCheck.make ~print:print_problem gen_problem) (fun spec ->
      let p = problem_of spec in
      let nv = Cnf.nvars p in
      let project = List.init nv Fun.id in
      let brute = List.sort compare (List.map Array.to_list (brute_models p)) in
      let s = Solver.of_cnf p in
      let { Allsat.models; complete } = Allsat.enumerate s ~project in
      complete && List.sort compare (List.map Array.to_list models) = brute)

let prop_xor_expansion_equiv =
  QCheck.Test.make ~name:"expand_xors preserves projected satisfiability" ~count:200
    (QCheck.make ~print:print_problem gen_problem) (fun spec ->
      let p = problem_of spec in
      let q = Cnf.expand_xors p in
      let sat prob = Solver.solve (Solver.of_cnf prob) = Solver.Sat in
      sat p = sat q)

let prop_assumptions_vs_brute =
  (* solving under assumptions ≡ solving with the assumptions as units *)
  QCheck.Test.make ~name:"assumptions = unit clauses" ~count:200
    (QCheck.make ~print:print_problem gen_problem)
    (fun spec ->
      let p = problem_of spec in
      let nv = Cnf.nvars p in
      let assumptions = [ l (nv mod 2 = 0) 0; l (nv mod 3 = 0) (nv - 1) ] in
      let expected =
        let q = Cnf.copy p in
        List.iter (fun li -> Cnf.add_clause q [ li ]) assumptions;
        brute_models q <> []
      in
      let s = Solver.of_cnf p in
      match Solver.solve ~assumptions s with
      | Sat ->
          expected
          && List.for_all
               (fun li -> Solver.value s (Lit.var li) = Lit.sign li)
               assumptions
      | Unsat ->
          (not expected)
          && List.for_all (fun li -> lit_mem li assumptions) (Solver.unsat_core s)
      | Unknown -> false)

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs round trip preserves models" ~count:150
    (QCheck.make ~print:print_problem gen_problem) (fun spec ->
      let p = problem_of spec in
      let q = Dimacs.parse_string (Dimacs.to_string p) in
      let norm prob = List.sort compare (List.map Array.to_list (brute_models prob)) in
      (* note: xor normalization may shrink variable count references,
         but nvars is pinned by the p-line *)
      norm p = norm q)

let prop_dimacs_structural_roundtrip =
  (* stronger than model equality: serialize/parse is the identity on
     the normalized problem — same header counts, same clauses, same
     xor rows. [gen_problem]'s xors draw variables with repetition, so
     this regularly exercises rows that normalize to fewer variables
     or to the degenerate empty constraints. *)
  QCheck.Test.make ~name:"dimacs round trip is structural identity" ~count:300
    (QCheck.make ~print:print_problem gen_problem) (fun spec ->
      let p = problem_of spec in
      let q = Dimacs.parse_string (Dimacs.to_string p) in
      Cnf.nvars p = Cnf.nvars q
      && Cnf.nclauses p = Cnf.nclauses q
      && Cnf.nxors p = Cnf.nxors q
      && Cnf.clauses p = Cnf.clauses q
      && Cnf.xors p = Cnf.xors q)

(* ------------------------------------------------------------------ *)
(* Gauss engine and XOR presolve cross-checks                          *)

(* XOR-heavy instances: enough rows that the matrix actually has rank
   structure worth eliminating; [~gauss:true] forces the engine on. *)
let gen_xor_heavy =
  QCheck.Gen.(
    int_range 4 10 >>= fun nv ->
    int_range 0 6 >>= fun ncl ->
    int_range 4 12 >>= fun nx ->
    let gen_lit = map2 (fun v s -> l s v) (int_bound (nv - 1)) bool in
    let gen_clause = list_size (int_range 1 4) gen_lit in
    let gen_xor =
      pair (list_size (int_range 1 6) (int_bound (nv - 1))) bool
    in
    triple (return nv) (list_repeat ncl gen_clause) (list_repeat nx gen_xor))

let prop_gauss_vs_brute =
  QCheck.Test.make ~name:"gauss engine agrees with brute force" ~count:400
    (QCheck.make ~print:print_problem gen_xor_heavy) (fun spec ->
      let p = problem_of spec in
      let expected = brute_models p <> [] in
      let s = Solver.of_cnf ~gauss:true p in
      match Solver.solve s with
      | Sat ->
          expected
          &&
          let m = Solver.model s in
          let a =
            Array.init (Cnf.nvars p) (fun i ->
                if i < Array.length m then m.(i) else false)
          in
          Cnf.eval p a
      | Unsat -> not expected
      | Unknown -> false)

let prop_gauss_allsat =
  QCheck.Test.make ~name:"allsat model set is gauss-invariant" ~count:150
    (QCheck.make ~print:print_problem gen_xor_heavy) (fun spec ->
      let p = problem_of spec in
      let nv = Cnf.nvars p in
      let project = List.init nv Fun.id in
      let run gauss =
        let s = Solver.of_cnf ~gauss p in
        let { Allsat.models; complete } = Allsat.enumerate s ~project in
        (complete, List.sort compare (List.map Array.to_list models))
      in
      run true = run false)

(* Brute-force satisfying masks of a bare XOR system over [nv] vars. *)
let xor_masks nv rows =
  let holds mask (vars, parity) =
    List.fold_left
      (fun acc v -> acc <> (mask land (1 lsl v) <> 0))
      false vars
    = parity
  in
  List.filter
    (fun mask -> List.for_all (holds mask) rows)
    (List.init (1 lsl nv) Fun.id)

let prop_xor_simp_equiv =
  QCheck.Test.make ~name:"xor_simp preserves the solution set" ~count:300
    (QCheck.make ~print:print_problem gen_xor_heavy)
    (fun (nv, _, xors) ->
      let before = xor_masks nv xors in
      match Xor_simp.reduce xors with
      | `Unsat -> before = []
      | `Reduced r ->
          let reduced =
            r.Xor_simp.rows
            @ List.map (fun (v, b) -> ([ v ], b)) r.units
            @ List.map (fun (x, rep, c) -> ([ x; rep ], c)) r.aliases
          in
          before <> [] && xor_masks nv reduced = before)

let test_gauss_guarded () =
  (* guarded rows must stay on the watch scheme: retiring the guard has
     to release the constraint even with the engine forced on *)
  let s = Solver.create ~gauss:true () in
  let x = Solver.new_var s and y = Solver.new_var s in
  let z = Solver.new_var s and w = Solver.new_var s in
  (* unguarded backbone so the matrix is non-trivial *)
  Solver.add_xor s ~vars:[ x; z ] ~parity:false;
  Solver.add_xor s ~vars:[ z; w ] ~parity:false;
  let g = Solver.new_var s in
  Solver.add_xor ~guard:(pos g) s ~vars:[ x; y ] ~parity:true;
  Solver.add_clause s [ pos x ];
  Solver.add_clause s [ pos y ];
  (* x = y = 1 violates the guarded row, so it survives only guard-off *)
  Alcotest.check check_result "guard free" Sat (Solver.solve s);
  Alcotest.(check bool) "backbone x=z" true (Solver.value s z);
  Alcotest.(check bool) "backbone z=w" true (Solver.value s w);
  Alcotest.check check_result "guard assumed" Unsat
    (Solver.solve ~assumptions:[ pos g ] s);
  Alcotest.check check_result "guard free again" Sat (Solver.solve s)

let test_gauss_rebuild_unsat () =
  (* rows added after a solve must enter the matrix on the rebuild *)
  let s = Solver.create ~gauss:true () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_xor s ~vars:[ a; b ] ~parity:false;
  Solver.add_xor s ~vars:[ b; c ] ~parity:false;
  Alcotest.check check_result "consistent chain" Sat (Solver.solve s);
  Solver.add_xor s ~vars:[ a; c ] ~parity:true;
  Alcotest.check check_result "odd cycle" Unsat (Solver.solve s)

let test_gauss_toggle () =
  (* set_gauss switches the engine on/off/auto between solves without
     changing any answer *)
  let s = Solver.create ~gauss:false () in
  let vs = Array.init 6 (fun _ -> Solver.new_var s) in
  for i = 0 to 4 do
    Solver.add_xor s ~vars:[ vs.(i); vs.(i + 1) ] ~parity:true
  done;
  Solver.add_clause s [ pos vs.(0) ];
  let check_model msg =
    Alcotest.check check_result msg Sat (Solver.solve s);
    for i = 0 to 5 do
      Alcotest.(check bool)
        (Printf.sprintf "%s v%d" msg i)
        (i mod 2 = 0)
        (Solver.value s vs.(i))
    done
  in
  check_model "engine off";
  Alcotest.(check int) "no matrix when off" 0 (Solver.stats s).gauss_rows;
  Solver.set_gauss s (Some true);
  check_model "engine forced on";
  Alcotest.(check bool) "matrix built when on" true
    ((Solver.stats s).gauss_rows > 0 || (Solver.stats s).gauss_elims > 0);
  Solver.set_gauss s None;
  check_model "engine auto"

(* ------------------------------------------------------------------ *)
(* DRAT proofs                                                         *)

let cnf_of_solverless_pigeonhole pigeons holes =
  let p = Cnf.create () in
  Cnf.ensure_vars p (pigeons * holes);
  let v pg h = (pg * holes) + h in
  for pg = 0 to pigeons - 1 do
    Cnf.add_clause p (List.init holes (fun h -> pos (v pg h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Cnf.add_clause p [ neg (v p1 h); neg (v p2 h) ]
      done
    done
  done;
  p

let test_drat_pigeonhole () =
  let cnf = cnf_of_solverless_pigeonhole 5 4 in
  let s = Solver.of_cnf cnf in
  Solver.enable_proof s;
  Alcotest.check check_result "unsat" Unsat (Solver.solve s);
  match Drat.check_refutation cnf s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_drat_xor_instance_via_expansion () =
  (* an UNSAT xor system, compiled to CNF so the proof is checkable *)
  let p = Cnf.create () in
  let x = Cnf.new_var p and y = Cnf.new_var p and z = Cnf.new_var p in
  Cnf.add_xor p ~vars:[ x; y ] ~parity:true;
  Cnf.add_xor p ~vars:[ y; z ] ~parity:true;
  Cnf.add_xor p ~vars:[ x; z ] ~parity:true;
  let cnf = Cnf.expand_xors p in
  let s = Solver.of_cnf cnf in
  Solver.enable_proof s;
  Alcotest.check check_result "unsat" Unsat (Solver.solve s);
  match Drat.check_refutation cnf s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_drat_rejects_tampered_proof () =
  let cnf = cnf_of_solverless_pigeonhole 4 3 in
  let s = Solver.of_cnf cnf in
  Solver.enable_proof s;
  Alcotest.check check_result "unsat" Unsat (Solver.solve s);
  let proof = Solver.proof s in
  (* claim a bogus clause out of thin air at the start *)
  let tampered = "5 0\n" ^ proof in
  (match Drat.check cnf tampered with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered proof accepted");
  (* truncated proof: no empty clause *)
  match Drat.check cnf "" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty proof accepted"

let test_drat_guards () =
  let p = Cnf.create () in
  let a = Cnf.new_var p and b = Cnf.new_var p in
  Cnf.add_xor p ~vars:[ a; b ] ~parity:true;
  (match Drat.check p "0\n" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "xor formula accepted by checker");
  let s = Solver.of_cnf p in
  Alcotest.check_raises "enable_proof on xor instance"
    (Invalid_argument "Solver.enable_proof: instance has XOR constraints")
    (fun () -> Solver.enable_proof s)

let prop_drat_random_unsat =
  (* random instances: when the solver answers UNSAT, its proof checks *)
  QCheck.Test.make ~count:150 ~name:"every UNSAT answer carries a valid proof"
    (QCheck.make ~print:print_problem gen_problem)
    (fun spec ->
      let p = problem_of spec in
      let cnf = Cnf.expand_xors p in
      let s = Solver.of_cnf cnf in
      Solver.enable_proof s;
      match Solver.solve s with
      | Sat | Unknown -> QCheck.assume_fail ()
      | Unsat -> Drat.check_refutation cnf s = Ok ())

(* stats arithmetic: counters subtract or sum, gauges come from the
   later (second) reading *)
let test_stats_arithmetic () =
  let stats base =
    {
      Solver.conflicts = base;
      decisions = base + 1;
      propagations = base + 2;
      learnt = base + 3;
      restarts = base + 4;
      gauss_rows = base + 5;
      gauss_elims = base + 6;
      gauss_props = base + 7;
      gauss_conflicts = base + 8;
      subsumed = base + 9;
      strengthened = base + 10;
      eliminated = base + 11;
      vivified = base + 12;
      xors_recovered = base + 13;
    }
  in
  let a = stats 10 and b = stats 100 in
  let counters (s : Solver.stats) =
    [
      s.conflicts; s.decisions; s.propagations; s.restarts; s.gauss_props;
      s.gauss_conflicts; s.subsumed; s.strengthened; s.eliminated;
      s.vivified; s.xors_recovered;
    ]
  and gauges (s : Solver.stats) = [ s.learnt; s.gauss_rows; s.gauss_elims ] in
  let d = Solver.stats_diff ~before:a ~after:b in
  Alcotest.(check (list int)) "diff: counters subtract"
    (List.map2 ( - ) (counters b) (counters a))
    (counters d);
  Alcotest.(check (list int)) "diff: gauges from after" (gauges b) (gauges d);
  let s = Solver.stats_add a b in
  Alcotest.(check (list int)) "add: counters sum"
    (List.map2 ( + ) (counters a) (counters b))
    (counters s);
  Alcotest.(check (list int)) "add: gauges from the second" (gauges b)
    (gauges s);
  Alcotest.(check bool) "zero is the identity of add" true
    (Solver.stats_add Solver.zero_stats a = a);
  Alcotest.(check bool) "a reading minus itself is zero on every counter"
    true
    (List.for_all (( = ) 0) (counters (Solver.stats_diff ~before:a ~after:a)));
  (* on a live solver: the delta over a solve is that solve's work *)
  let p = Cnf.create () in
  let x = Cnf.new_var p and y = Cnf.new_var p in
  Cnf.add_clause p [ pos x; pos y ];
  Cnf.add_clause p [ neg x; pos y ];
  let sv = Solver.of_cnf p in
  let before = Solver.stats sv in
  ignore (Solver.solve sv);
  let after = Solver.stats sv in
  Alcotest.(check int) "live delta = decisions spent"
    (after.decisions - before.decisions)
    (Solver.stats_diff ~before ~after).decisions

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sat"
    [
      ( "solver-unit",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "unit propagation chain" `Quick test_unit_propagation_chain;
          Alcotest.test_case "tautology ignored" `Quick test_tautology_ignored;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
          Alcotest.test_case "xor chain sat" `Quick test_xor_chain_sat;
          Alcotest.test_case "xor chain unsat" `Quick test_xor_chain_unsat;
          Alcotest.test_case "xor with cnf" `Quick test_xor_with_cnf;
          Alcotest.test_case "xor duplicates cancel" `Quick test_xor_duplicate_vars_cancel;
          Alcotest.test_case "incremental blocking" `Quick test_incremental_blocking;
          Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
          Alcotest.test_case "stats arithmetic" `Quick test_stats_arithmetic;
        ] );
      ( "assumptions",
        [
          Alcotest.test_case "sat under assumptions" `Quick test_assumptions_sat;
          Alcotest.test_case "unsat core" `Quick test_assumptions_unsat_core;
          Alcotest.test_case "root-falsified core" `Quick test_unsat_core_root_falsified;
          Alcotest.test_case "empty core on global unsat" `Quick
            test_unsat_core_empty_on_global_unsat;
          Alcotest.test_case "contradictory assumptions" `Quick
            test_contradictory_assumptions;
        ] );
      ( "guarded-groups",
        [
          Alcotest.test_case "xor enable/disable" `Quick test_guarded_xor_enable_disable;
          Alcotest.test_case "xor propagates under guard" `Quick
            test_guarded_xor_propagates_under_guard;
          Alcotest.test_case "xor groups retire" `Quick test_guarded_xor_groups_retire;
          Alcotest.test_case "guarded chunked xor" `Quick test_guarded_chunked_xor;
          Alcotest.test_case "chunked = monolithic" `Quick test_chunked_equals_monolithic;
          Alcotest.test_case "guarded cardinality groups" `Quick
            test_guarded_cardinality_groups;
        ] );
      ( "gauss-engine",
        [
          Alcotest.test_case "guarded rows stay clausal" `Quick test_gauss_guarded;
          Alcotest.test_case "rebuild picks up new rows" `Quick
            test_gauss_rebuild_unsat;
          Alcotest.test_case "set_gauss toggles safely" `Quick test_gauss_toggle;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "exactly-k model counts" `Quick test_exactly_model_count;
          Alcotest.test_case "at-most model count" `Quick test_at_most_model_count;
          Alcotest.test_case "at-least model count" `Quick test_at_least_model_count;
          Alcotest.test_case "infeasible bound" `Quick test_cardinality_infeasible;
          Alcotest.test_case "sinz = pairwise" `Quick test_sinz_equals_pairwise;
          Alcotest.test_case "counter edges" `Quick test_counter_edges;
          QCheck_alcotest.to_alcotest prop_counter_outputs;
          QCheck_alcotest.to_alcotest prop_counter_windows;
        ] );
      ( "allsat",
        [
          Alcotest.test_case "exhaustive vs brute force" `Quick test_allsat_exhaustive_vs_brute;
          Alcotest.test_case "max_models cap" `Quick test_allsat_max_models;
          Alcotest.test_case "global conflict budget" `Quick test_allsat_global_budget;
          Alcotest.test_case "count reports truncation" `Quick
            test_allsat_count_reports_truncation;
          Alcotest.test_case "guarded blocking clauses" `Quick
            test_allsat_guarded_blocking;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "round trip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_dimacs_parse_errors;
          Alcotest.test_case "clause spanning lines" `Quick
            test_dimacs_clause_spanning_lines;
          Alcotest.test_case "xor spanning lines" `Quick test_dimacs_xor_spanning_lines;
          Alcotest.test_case "empty xor round trip" `Quick
            test_dimacs_empty_xor_roundtrip;
          Alcotest.test_case "guarded xor unserializable" `Quick
            test_dimacs_guarded_xor_unserializable;
        ] );
      ( "tseitin",
        [
          Alcotest.test_case "basic" `Quick test_tseitin_basic;
          Alcotest.test_case "projected models" `Quick test_tseitin_projected_models;
        ] );
      ( "drat",
        [
          Alcotest.test_case "pigeonhole proof checks" `Quick test_drat_pigeonhole;
          Alcotest.test_case "xor-expanded proof checks" `Quick test_drat_xor_instance_via_expansion;
          Alcotest.test_case "tampered proof rejected" `Quick test_drat_rejects_tampered_proof;
          Alcotest.test_case "guards" `Quick test_drat_guards;
          QCheck_alcotest.to_alcotest prop_drat_random_unsat;
        ] );
      ( "random-crosschecks",
        qt
          [
            prop_solver_vs_brute;
            prop_allsat_vs_brute;
            prop_xor_expansion_equiv;
            prop_assumptions_vs_brute;
            prop_dimacs_roundtrip;
            prop_dimacs_structural_roundtrip;
            prop_gauss_vs_brute;
            prop_gauss_allsat;
            prop_xor_simp_equiv;
          ] );
    ]
