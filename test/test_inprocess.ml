(* Inprocessing agreement suite: clause-database simplification
   (subsumption, self-subsuming resolution, bounded variable
   elimination, XOR recovery, vivification) must be answer-invisible.
   Random CNF+XOR instances are solved with inprocessing on (forced
   aggressively: a pass before the search and a 1-conflict interval
   between restarts) and off, and the Sat/Unsat verdicts, exact model
   counts, guarded-group behaviour under assumptions, and post-clone
   behaviour are required to be identical. Plus the clause-activity
   rescale regression and directed effectiveness checks for the
   individual passes. *)

open Tp_sat

let lit_true model l =
  let v = Lit.var l in
  v < Array.length model && model.(v) = Lit.sign l

let clause_sat model c = List.exists (lit_true model) c

let xor_sat model (vars, parity) =
  List.fold_left (fun p v -> p <> model.(v)) false vars = parity

let result_str = function
  | Solver.Sat -> "Sat"
  | Solver.Unsat -> "Unsat"
  | Solver.Unknown -> "Unknown"

(* random instance in the solver's regime: short clauses, a few XOR
   rows, tight enough that both Sat and Unsat outcomes occur *)
let random_instance st =
  let nvars = 5 + Random.State.int st 8 in
  let nclauses = (2 * nvars) + Random.State.int st (3 * nvars) in
  let clauses =
    List.init nclauses (fun _ ->
        let len = 1 + Random.State.int st 4 in
        List.init len (fun _ ->
            Lit.make (Random.State.int st nvars) (Random.State.bool st)))
  in
  let nxors = Random.State.int st 4 in
  let xors =
    List.init nxors (fun _ ->
        let len = 2 + Random.State.int st 4 in
        ( List.init len (fun _ -> Random.State.int st nvars),
          Random.State.bool st ))
  in
  (nvars, clauses, xors)

let build ~inprocess nvars clauses xors =
  let s = Solver.create () in
  Solver.set_inprocess s inprocess;
  if inprocess then Solver.set_inprocess_interval s 1;
  Solver.ensure_vars s nvars;
  List.iter (Solver.add_clause s) clauses;
  List.iter (fun (vars, parity) -> Solver.add_xor s ~vars ~parity) xors;
  if inprocess then Solver.simplify s;
  s

(* The property bodies are functions of the seed, so the regression
   cases below can replay the seeds a scan found failing. *)
let verdicts_agree seed =
  let st = Random.State.make [| seed; 17 |] in
  let nvars, clauses, xors = random_instance st in
  let a = build ~inprocess:true nvars clauses xors in
  let b = build ~inprocess:false nvars clauses xors in
  let ra = Solver.solve a and rb = Solver.solve b in
  if ra <> rb then
    QCheck.Test.fail_reportf "inprocessed %s vs plain %s" (result_str ra)
      (result_str rb);
  (* an inprocessed model must satisfy the ORIGINAL constraints —
     this is what catches a broken BVE model extension *)
  (match ra with
  | Solver.Sat ->
      let m = Solver.model a in
      if not (List.for_all (clause_sat m) clauses) then
        QCheck.Test.fail_report
          "inprocessed model violates an original clause";
      if not (List.for_all (xor_sat m) xors) then
        QCheck.Test.fail_report "inprocessed model violates an XOR row"
  | _ -> ());
  true

let prop_verdicts_agree =
  QCheck.Test.make ~name:"inprocessing on/off: same verdict, valid models"
    ~count:120
    QCheck.(int_range 0 1_000_000)
    verdicts_agree

let counts_agree seed =
  let st = Random.State.make [| seed; 23 |] in
  let nvars, clauses, xors = random_instance st in
  let project = List.init nvars Fun.id in
  let count inprocess =
    Allsat.count (build ~inprocess nvars clauses xors) ~project
  in
  let ca = count true and cb = count false in
  if ca <> cb then
    QCheck.Test.fail_reportf "counts differ: (%d,%s) vs (%d,%s)" (fst ca)
      (match snd ca with `Exact -> "exact" | `Lower_bound -> "lb")
      (fst cb)
      (match snd cb with `Exact -> "exact" | `Lower_bound -> "lb");
  true

let prop_counts_agree =
  QCheck.Test.make ~name:"inprocessing on/off: identical exact model counts"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    counts_agree

(* Guarded constraint groups (the repair-ladder / enumeration-blocking
   pattern): a guard that occurs only negatively is a prime BVE target,
   so this exercises elimination and restoration of guard variables
   around assumption-driven queries. *)
let guarded_groups_agree seed =
  let st = Random.State.make [| seed; 31 |] in
  let nvars, clauses, xors = random_instance st in
  let g = nvars in
  let total = nvars + 1 in
  let pos_g = Lit.pos g and neg_g = Lit.make g false in
  let nguarded = 1 + Random.State.int st 3 in
  let gclauses =
    List.init nguarded (fun _ ->
        let len = 1 + Random.State.int st 3 in
        neg_g
        :: List.init len (fun _ ->
               Lit.make (Random.State.int st nvars) (Random.State.bool st)))
  in
  let gxor =
    ( List.init (2 + Random.State.int st 3) (fun _ ->
          Random.State.int st nvars),
      Random.State.bool st )
  in
  let mk inprocess =
    let s = Solver.create () in
    Solver.set_inprocess s inprocess;
    if inprocess then Solver.set_inprocess_interval s 1;
    Solver.ensure_vars s total;
    List.iter (Solver.add_clause s) clauses;
    List.iter (fun (vars, parity) -> Solver.add_xor s ~vars ~parity) xors;
    List.iter (Solver.add_clause s) gclauses;
    let vars, parity = gxor in
    Solver.add_xor ~guard:pos_g s ~vars ~parity;
    if inprocess then Solver.simplify s;
    s
  in
  let a = mk true and b = mk false in
  let step name assumptions =
    let ra = Solver.solve ~assumptions a in
    let rb = Solver.solve ~assumptions b in
    if ra <> rb then
      QCheck.Test.fail_reportf "%s: inprocessed %s vs plain %s" name
        (result_str ra) (result_str rb);
    Solver.simplify a
  in
  step "group on" [ pos_g ];
  step "group off" [ neg_g ];
  (* retire the group for good *)
  Solver.add_clause a [ neg_g ];
  Solver.add_clause b [ neg_g ];
  step "group retired" [];
  true

let prop_guarded_groups_agree =
  QCheck.Test.make
    ~name:"inprocessing on/off: guarded groups under assumptions" ~count:60
    QCheck.(int_range 0 1_000_000)
    guarded_groups_agree

(* Seeds a scan of the generators above found failing, replayed on
   every run. Self-subsuming resolution of a unit (l) against (¬l)
   left an empty clause that root cleanup ignored, so the inprocessed
   solver answered Sat on UNSAT formulas (verdict and count seeds).
   XOR recovery re-attached guarded rows as if unguarded, forcing a
   one-free-variable row at the root even with its guard off (guarded
   seeds). *)
let replay name agree seeds =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun seed ->
          Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (agree seed))
        seeds)

let prop_clone_agrees =
  QCheck.Test.make ~name:"inprocessing after clone: same verdicts" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 41 |] in
      let nvars, clauses, xors = random_instance st in
      let src = Solver.create () in
      Solver.set_inprocess src true;
      Solver.set_inprocess_interval src 1;
      Solver.ensure_vars src nvars;
      List.iter (Solver.add_clause src) clauses;
      List.iter (fun (vars, parity) -> Solver.add_xor src ~vars ~parity) xors;
      if not (Solver.ok src) then true
      else begin
        let snap = Solver.snapshot src in
        let a = Solver.clone snap in
        let b = Solver.clone snap in
        Solver.set_inprocess b false;
        Solver.simplify a;
        let ra = Solver.solve a and rb = Solver.solve b in
        if ra <> rb then
          QCheck.Test.fail_reportf "clones disagree: %s vs %s" (result_str ra)
            (result_str rb);
        (* incremental use after inprocessing on a clone: block the
           model and re-solve (AllSAT's inner loop) *)
        (match ra with
        | Solver.Sat ->
            let block s =
              let m = Solver.model s in
              Solver.add_clause s
                (List.init nvars (fun v -> Lit.make v (not m.(v))))
            in
            block a;
            block b;
            Solver.simplify a;
            let ra2 = Solver.solve a and rb2 = Solver.solve b in
            if ra2 <> rb2 then
              QCheck.Test.fail_reportf "clones disagree after blocking: %s vs %s"
                (result_str ra2) (result_str rb2)
        | _ -> ());
        true
      end)

(* ------------------------------------------------------------------ *)
(* Directed effectiveness: each pass provably fires                    *)

let test_subsumption_fires () =
  let s = Solver.create () in
  Solver.set_inprocess s true;
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Solver.add_clause s [ Lit.pos a; Lit.pos b; Lit.pos c ];
  (* self-subsumption: resolving with (a ∨ b) strengthens this to (b ∨ c) *)
  Solver.add_clause s [ Lit.make a false; Lit.pos b; Lit.pos c ];
  Solver.simplify s;
  let st = Solver.stats s in
  Alcotest.(check bool) "subsumption fired" true (st.subsumed >= 1);
  Alcotest.(check bool) "self-subsumption fired" true (st.strengthened >= 1);
  Alcotest.(check bool) "still satisfiable" true (Solver.solve s = Solver.Sat)

let test_bve_fires () =
  let s = Solver.create () in
  Solver.set_inprocess s true;
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Solver.add_clause s [ Lit.make a false; Lit.pos c ];
  Solver.simplify s;
  let st = Solver.stats s in
  Alcotest.(check bool) "BVE eliminated a variable" true (st.eliminated >= 1);
  Alcotest.(check bool) "still satisfiable" true (Solver.solve s = Solver.Sat);
  (* the model must extend to the eliminated variables *)
  let m = Solver.model s in
  Alcotest.(check bool) "extended model satisfies (a|b)" true
    (m.(a) || m.(b));
  Alcotest.(check bool) "extended model satisfies (-a|c)" true
    ((not m.(a)) || m.(c))

let test_xor_recovery_fires () =
  let s = Solver.create () in
  Solver.set_inprocess s true;
  let x = Solver.new_var s and y = Solver.new_var s and z = Solver.new_var s in
  (* the 4 clauses of x ⊕ y ⊕ z = 1 (forbid every even-weight point) *)
  Solver.add_clause s [ Lit.pos x; Lit.pos y; Lit.pos z ];
  Solver.add_clause s [ Lit.make x false; Lit.make y false; Lit.pos z ];
  Solver.add_clause s [ Lit.make x false; Lit.pos y; Lit.make z false ];
  Solver.add_clause s [ Lit.pos x; Lit.make y false; Lit.make z false ];
  Solver.simplify s;
  let st = Solver.stats s in
  Alcotest.(check bool) "XOR row recovered" true (st.xors_recovered >= 1);
  Alcotest.(check bool) "still satisfiable" true (Solver.solve s = Solver.Sat);
  let m = Solver.model s in
  Alcotest.(check bool) "model has odd parity" true
    (m.(x) <> m.(y) <> m.(z));
  (* count: the recovered row must admit exactly the 4 odd points *)
  let n, exact = Allsat.count s ~project:[ x; y; z ] in
  Alcotest.(check bool) "count exact" true (exact = `Exact);
  Alcotest.(check int) "4 odd-parity models" 4 n

(* The clause-activity increment grows by 1/0.999 every conflict; left
   unrescaled it reaches infinity near 709k conflicts, after which
   learnt-clause activities stop ordering the reduction. *)
let test_clause_activity_rescale () =
  let s = Solver.create () in
  Solver.debug_decay_clause_activity s 1_000_000;
  let inc = Solver.debug_cla_inc s in
  Alcotest.(check bool) "cla_inc finite after 1M decays" true
    (Float.is_finite inc);
  Alcotest.(check bool) "cla_inc stays in rescale range" true
    (inc > 0. && inc <= 1e20)

(* ------------------------------------------------------------------ *)
(* End-to-end: the reconstruction stack (repair ladder and all) is
   inprocessing-invariant in verdict kind and health                   *)

let test_stream_repair_agreement () =
  let open Timeprint in
  let digest_with inprocess seed =
    Solver.set_inprocess_default inprocess;
    Fun.protect
      ~finally:(fun () -> Solver.set_inprocess_default true)
      (fun () ->
        let m = 20 and b = 12 in
        let enc = Encoding.random_constrained ~m ~b ~seed:(seed + 11) () in
        let st = Random.State.make [| seed; m |] in
        let clean =
          List.init 8 (fun _ ->
              Logger.abstract enc
                (Signal.random st ~m ~k:(1 + Random.State.int st 5)))
        in
        let spec = Fault.spec ~rate:0.4 ~max_flips:2 () in
        let corrupted, _ = Fault.inject ~seed:(seed + 5) spec ~m clean in
        Plan.run_stream ~repair:1 enc corrupted
        |> List.map (fun (v, h, _) ->
               ( (match v with
                 | `Signal _ -> "S"
                 | `Unsat -> "U"
                 | `Unknown -> "?"),
                 h )))
  in
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "stream digest invariant (seed %d)" seed)
        true
        (digest_with true seed = digest_with false seed))
    [ 3; 42 ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "inprocess"
    [
      ( "agreement",
        qt
          [
            prop_verdicts_agree;
            prop_counts_agree;
            prop_guarded_groups_agree;
            prop_clone_agrees;
          ] );
      ( "regression",
        [
          replay "empty resolvent refutes: verdicts" verdicts_agree
            [ 93370; 45035; 60827; 86395; 96390 ];
          replay "empty resolvent refutes: counts" counts_agree [ 5069; 24883 ];
          replay "xor recovery keeps guarded rows guarded" guarded_groups_agree
            [ 44205; 83640; 112622; 132932; 153381 ];
        ] );
      ( "passes",
        [
          Alcotest.test_case "subsumption + self-subsumption" `Quick
            test_subsumption_fires;
          Alcotest.test_case "bounded variable elimination" `Quick
            test_bve_fires;
          Alcotest.test_case "xor recovery" `Quick test_xor_recovery_fires;
          Alcotest.test_case "clause-activity rescale" `Quick
            test_clause_activity_rescale;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "repair stream digest invariant" `Quick
            test_stream_repair_agreement;
        ] );
    ]
