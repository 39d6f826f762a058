(* Every UNSAT verdict the planner's SAT path produces must come with a
   DRAT refutation that the independent checker accepts. The
   [certify_unsat] knob makes the oracle re-derive each [`Unsat] through
   the proof pipeline and raise unless the certificate checks, so these
   tests fail loudly on any certification gap. *)

open Tp_bitvec
open Timeprint

(* the knob stays on for the whole binary *)
let () = Sat_reconstruct.set_certify_unsat true

(* smallest change count with an empty preimage for this entry's
   timeprint, if any — the cheapest way to make a consistent-looking
   entry that no signal abstracts to *)
let empty_k e tp =
  let m = Encoding.m e in
  let rec go k =
    if k > m then None
    else if
      Linear_reconstruct.preimage ~max_solutions:1 e (Log_entry.make ~tp ~k)
      = []
    then Some k
    else go (k + 1)
  in
  go 0

let prop_planner_unsat_is_certified =
  QCheck.Test.make
    ~name:"planner SAT-path Unsat survives forced certification" ~count:60
    QCheck.(
      pair (int_range 0 ((1 lsl 10) - 1)) (pair (int_range 8 10) (int_range 0 99)))
    (fun (mask, (b, seed)) ->
      let m = 10 in
      let e = Encoding.random_constrained ~m ~b ~seed ()  in
      let tp = Log_entry.tp
          (Logger.abstract e (Signal.of_bitvec (Bitvec.of_int ~width:m mask)))
      in
      match empty_k e tp with
      | None -> true (* every k is realisable; nothing to refute *)
      | Some k ->
          let q = Query.make ~answer:Query.First e (Log_entry.make ~tp ~k) in
          (* with the knob on, a missing or bogus certificate raises *)
          (match Plan.run ~engine:`Sat q with
          | Engine.Verdict `Unsat, _ -> true
          | _ -> false))

let prop_first_certified_agrees_with_first =
  QCheck.Test.make
    ~name:"first_certified verdict = first (and carries a proof)" ~count:60
    QCheck.(
      pair (int_range 0 ((1 lsl 10) - 1)) (pair (int_range 8 10) (int_range 0 7)))
    (fun (mask, (b, kd)) ->
      let m = 10 in
      let e = Encoding.random_constrained ~m ~b ~seed:(mask + b) () in
      let clean =
        Logger.abstract e (Signal.of_bitvec (Bitvec.of_int ~width:m mask))
      in
      (* sometimes the clean entry, sometimes a perturbed counter *)
      let en =
        if kd = 0 then clean
        else
          Log_entry.make ~tp:(Log_entry.tp clean)
            ~k:((Log_entry.k clean + kd) mod (m + 1))
      in
      match
        ( Plan.first e en,
          Sat_reconstruct.first_certified (Sat_reconstruct.problem e en) )
      with
      | `Signal _, `Signal w -> Log_entry.equal en (Logger.abstract e w)
      | `Unsat, `Unsat_certified proof -> String.length proof > 0
      | _ -> false)

(* rank-refuted entries: presolve answers without the solver, and the
   knob forces that refutation through the proof pipeline too *)
let test_refuted_entry_is_certified () =
  (* columns span only bits {0,1} of a 3-bit timeprint *)
  let e =
    Encoding.custom
      [| Bitvec.of_int ~width:3 1; Bitvec.of_int ~width:3 2;
         Bitvec.of_int ~width:3 3 |]
  in
  let bad = Log_entry.make ~tp:(Bitvec.of_int ~width:3 4) ~k:1 in
  Alcotest.(check bool) "premise: rank-refuted" true (Presolve.refutes e bad);
  (match Plan.first e bad with
  | `Unsat -> ()
  | _ -> Alcotest.fail "expected Unsat");
  match Sat_reconstruct.first_certified (Sat_reconstruct.problem e bad) with
  | `Unsat_certified proof ->
      Alcotest.(check bool) "non-empty certificate" true
        (String.length proof > 0)
  | _ -> Alcotest.fail "expected a certified refutation"

(* the checker really is load-bearing: a tampered certificate must be
   rejected at the solver level the oracle builds on *)
let test_drat_rejects_tampered_proof () =
  (* all four sign combinations over two variables: UNSAT, but not by
     unit propagation alone, so a skipped resolution step is detectable *)
  let cnf = Tp_sat.Cnf.create () in
  let v1 = Tp_sat.Cnf.new_var cnf and v2 = Tp_sat.Cnf.new_var cnf in
  List.iter
    (fun (s1, s2) ->
      Tp_sat.Cnf.add_clause cnf
        [ Tp_sat.Lit.make v1 s1; Tp_sat.Lit.make v2 s2 ])
    [ (true, true); (true, false); (false, true); (false, false) ];
  let solver = Tp_sat.Solver.create () in
  Tp_sat.Solver.enable_proof solver;
  Tp_sat.Solver.add_cnf_from solver cnf ~nclauses:0 ~nxors:0;
  (match Tp_sat.Solver.solve solver with
  | Tp_sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected Unsat");
  (match Tp_sat.Drat.check_refutation cnf solver with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "genuine proof rejected: %s" msg);
  match Tp_sat.Drat.check cnf "0\n" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker accepted a non-RUP empty clause"

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "drat"
    [
      ( "certified-unsat",
        qt
          [
            prop_planner_unsat_is_certified;
            prop_first_certified_agrees_with_first;
          ] );
      ( "refutation",
        [
          Alcotest.test_case "rank-refuted entry gets a certificate" `Quick
            test_refuted_entry_is_certified;
          Alcotest.test_case "tampered proof is rejected" `Quick
            test_drat_rejects_tampered_proof;
        ] );
    ]
