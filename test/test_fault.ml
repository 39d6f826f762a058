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
(* The shared cardinality counters at their edges                       *)

(* One m = 8 design and four entries at the counters' edges: the empty
   signal (k = 0), an entry claiming more changes than there are cycles
   (its timeprint is a real one, so only the cardinality refutes it),
   the all-ones signal (k = m, routed to SAT by the stream), and the
   same timeprint at k = max_int, which a client may log: no counter
   bound may wrap round on it. *)
let edge_log () =
  let m = 8 in
  let e = Encoding.random_constrained_auto ~seed:5 ~m () in
  let zero = Signal.create m and ones = Signal.of_changes ~m (List.init m Fun.id) in
  let tp = Log_entry.tp (Logger.abstract e (Signal.of_changes ~m [ 1; 4 ])) in
  ( e,
    zero,
    ones,
    [
      Logger.abstract e zero;
      Log_entry.make ~tp ~k:(m + 1);
      Logger.abstract e ones;
      Log_entry.make ~tp ~k:max_int;
    ] )

let test_counter_edges () =
  let e, zero, ones, log = edge_log () in
  List.iter
    (fun repair ->
      let name what = Printf.sprintf "repair %d: %s" repair what in
      (match Sat_reconstruct.batch ~repair e log with
      | [
       (`Signal s0, Clean, _);
       (`Unsat, Quarantined, st);
       (`Signal sm, Clean, _);
       (`Unsat, Quarantined, st');
      ] ->
          Alcotest.check signal (name "batch k = 0") zero s0;
          Alcotest.check signal (name "batch k = m") ones sm;
          Alcotest.(check bool)
            (name "batch k > m never reaches the solver")
            true
            (st = Tp_sat.Solver.zero_stats && st' = Tp_sat.Solver.zero_stats)
      | _ -> Alcotest.fail (name "batch verdicts"));
      match Plan.run_stream ~repair e log with
      | [
       (`Signal s0, Clean, _);
       (`Unsat, Quarantined, _);
       (`Signal sm, Clean, _);
       (`Unsat, Quarantined, _);
      ] ->
          Alcotest.check signal (name "stream k = 0") zero s0;
          Alcotest.check signal (name "stream k = m") ones sm
      | _ -> Alcotest.fail (name "stream verdicts"))
    [ 0; 1; 2 ]

let test_repair_k_beyond_m () =
  let m = 8 in
  let e = Encoding.random_constrained_auto ~seed:5 ~m () in
  let ones = Signal.of_changes ~m (List.init m Fun.id) in
  let tp = Log_entry.tp (Logger.abstract e ones) in
  (* k − k_slack > m: no split can hold, whatever the flip budget *)
  (match plan_repair ~max_flips:1 ~k_slack:1 e (Log_entry.make ~tp ~k:(m + 2)) with
  | `Unrepairable -> ()
  | _ -> Alcotest.fail "k - k_slack > m must be unrepairable");
  (match plan_repair ~max_flips:1 e (Log_entry.make ~tp ~k:max_int) with
  | `Unrepairable -> ()
  | _ -> Alcotest.fail "k = max_int must be unrepairable");
  (* at k − k_slack = m the all-ones signal explains the entry *)
  (match plan_repair ~max_flips:1 ~k_slack:1 e (Log_entry.make ~tp ~k:(m + 1)) with
  | `Repaired r ->
      Alcotest.(check (list int)) "no flips" [] r.Sat_reconstruct.r_flips;
      Alcotest.(check int) "counter off by -1" (-1) r.r_k_delta;
      Alcotest.check signal "all ones" ones r.r_signal
  | _ -> Alcotest.fail "k - k_slack = m is repairable");
  (* a k_slack of max_int: the all-ones entry is clean, and at
     k = max_int the lightest deviation asks for count m, which only
     the all-ones signal has *)
  (match plan_repair ~max_flips:1 ~k_slack:max_int e (Logger.abstract e ones) with
  | `Clean s -> Alcotest.check signal "k_slack = max_int, clean" ones s
  | _ -> Alcotest.fail "k_slack = max_int on a clean entry");
  match plan_repair ~max_flips:0 ~k_slack:max_int e (Log_entry.make ~tp ~k:max_int) with
  | `Repaired r ->
      Alcotest.(check (list int)) "k = k_slack = max_int: no flips" []
        r.Sat_reconstruct.r_flips;
      Alcotest.check signal "k = k_slack = max_int: all ones" ones r.r_signal
  | _ -> Alcotest.fail "k = k_slack = max_int is repairable"

(* A seeded m = 32 log whose k cycles through 2..8, every fourth entry
   with one timeprint bit flipped. *)
let counter_log () =
  let m = 32 in
  let e = Encoding.random_constrained_auto ~depth:4 ~seed:2019 ~m () in
  let rng = Random.State.make [| 18 |] in
  let log =
    List.init 32 (fun i ->
        let en = Logger.abstract e (Signal.random rng ~m ~k:(2 + (i mod 7))) in
        if i mod 4 = 3 then
          Fault.flip_tp en ~bits:[ Random.State.int rng (Encoding.b e) ]
        else en)
  in
  (e, log)

let batch_propagations results =
  List.fold_left
    (fun n (_, _, (st : Tp_sat.Solver.stats)) -> n + st.propagations)
    0 results

(* Work count of a repair batch: [counter_log] through
   [batch ~repair:1]. Counts are deterministic, so the bound is exact.
   One guarded Sinz group per distinct k, with its auxiliaries pinned
   false while inactive, cost 737_846 propagations on this log; one
   shared counter with assumed outputs costs about a sixth of that.
   The bound is half the guarded figure: a per-bound group coming back
   fails it. *)
let test_repair_batch_propagations () =
  let e, log = counter_log () in
  let propagations = batch_propagations (Sat_reconstruct.batch ~repair:1 e log) in
  let bound = 737_846 / 2 in
  if propagations > bound then
    Alcotest.failf "repair batch: %d propagations, bound %d" propagations bound

(* The same work count on batches whose every entry reaches the solver,
   since the meet answers most of [counter_log]'s ladder: [counter_log]
   at repair 0, where the batch consults no meet, exercises the cycle
   counter; 16 one-bit-flipped k = 9, 10 entries, past the meet's reach,
   at repair 1 exercise the error counter too. Guarded groups cost
   676_633 and 44_694 propagations on these two batches, the shared
   counters 79_948 and 10_333; each batch is bounded by half its
   guarded figure. *)
let test_solver_batch_propagations () =
  let e, log = counter_log () in
  let m = Encoding.m e in
  let rng = Random.State.make [| 78 |] in
  let high_k =
    List.init 16 (fun i ->
        Fault.flip_tp
          (Logger.abstract e (Signal.random rng ~m ~k:(9 + (i mod 2))))
          ~bits:[ Random.State.int rng (Encoding.b e) ])
  in
  List.iter
    (fun (name, log, repair, guarded) ->
      let propagations = batch_propagations (Sat_reconstruct.batch ~repair e log) in
      if propagations > guarded / 2 then
        Alcotest.failf "%s: %d propagations, bound %d" name propagations
          (guarded / 2))
    [
      ("k = 2..8 at repair 0", log, 0, 676_633);
      ("flipped k = 9, 10 at repair 1", high_k, 1, 44_694);
    ]

(* ------------------------------------------------------------------ *)
(* The batch ladder's meet rungs                                        *)

(* Lightest TP flip weight that explains [en] with exactly its k, by
   abstracting every signal of the m ≤ 12 cycles; [None] when no signal
   has k changes. *)
let brute_min_weight e en =
  let m = Encoding.m e and tp = Log_entry.tp en and k = Log_entry.k en in
  let best = ref None in
  for mask = 0 to (1 lsl m) - 1 do
    let a = Logger.abstract e (Signal.of_bitvec (Bitvec.of_int ~width:m mask)) in
    if Log_entry.k a = k then begin
      let w = Bitvec.popcount (Bitvec.logxor (Log_entry.tp a) tp) in
      match !best with Some b when b <= w -> () | _ -> best := Some w
    end
  done;
  !best

(* A witness at flip weight w abstracts to the logged k and a timeprint
   exactly w bits from the logged one. *)
let witness_at e en s w =
  let a = Logger.abstract e s in
  Log_entry.k a = Log_entry.k en
  && Bitvec.popcount (Bitvec.logxor (Log_entry.tp a) (Log_entry.tp en)) = w

(* Random small designs and logs with 0–2 flipped TP bits, k anywhere in
   0..m: at m ≤ 12 the meet takes every rung of k ≤ 8 and the solver
   every rung of k ≥ 9, so both halves of the ladder answer. *)
let prop_batch_ladder_matches_oracle =
  QCheck.Test.make ~name:"batch ladder health = brute-force flip weight"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 19 |] in
      let m = 6 + Random.State.int st 7 and b = 5 + Random.State.int st 5 in
      let e = Encoding.random_constrained ~depth:2 ~seed ~m ~b () in
      let log =
        List.init
          (1 + Random.State.int st 6)
          (fun _ ->
            let en =
              Logger.abstract e (Signal.random st ~m ~k:(Random.State.int st (m + 1)))
            in
            let flips =
              List.sort_uniq compare
                (List.init (Random.State.int st 3) (fun _ -> Random.State.int st b))
            in
            Fault.flip_tp en ~bits:flips)
      in
      List.for_all
        (fun repair ->
          List.for_all2
            (fun en (verdict, health, _) ->
              match (brute_min_weight e en, verdict, health) with
              | Some 0, `Signal s, Sat_reconstruct.Clean -> witness_at e en s 0
              | Some w, `Signal s, Sat_reconstruct.Repaired w' ->
                  w = w' && w <= repair && witness_at e en s w
              | Some w, `Unsat, Sat_reconstruct.Quarantined -> w > repair
              | None, `Unsat, Sat_reconstruct.Quarantined -> true
              | _ -> false)
            log
            (Sat_reconstruct.batch ~repair e log))
        [ 0; 1; 2 ])

(* m = 32, b = 24, k = 8: one meet lookup (C(32,5) probes, 17.6 cost
   bits) is under the SAT price, 24 of them (+4.6 bits) are not, so the
   meet answers rung 0 and the solver rung 1. The entries are
   one-bit-flipped k = 8 entries whose rung 0 is empty, each in its own
   batch. *)
let test_meet_then_sat () =
  let m = 32 in
  let e = Encoding.random_constrained ~depth:4 ~seed:11 ~m ~b:24 () in
  Alcotest.(check bool) "meet takes rung 0" true
    (Sat_reconstruct.meet_wins e ~k:8 ~flips:0);
  Alcotest.(check bool) "solver takes rung 1" false
    (Sat_reconstruct.meet_wins e ~k:8 ~flips:1);
  let rng = Random.State.make [| 6 |] in
  let rec flipped n =
    if n = 0 then []
    else
      let en =
        Fault.flip_tp
          (Logger.abstract e (Signal.random rng ~m ~k:8))
          ~bits:[ Random.State.int rng 24 ]
      in
      if Combinatorial_reconstruct.first e en = None then en :: flipped (n - 1)
      else flipped n
  in
  List.iteri
    (fun i en ->
      match Sat_reconstruct.batch ~repair:1 e [ en ] with
      | [ (`Signal s, Sat_reconstruct.Repaired 1, st) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "entry %d: witness one flip away" i)
            true (witness_at e en s 1);
          Alcotest.(check bool)
            (Printf.sprintf "entry %d: the solver ran rung 1" i)
            true
            (st <> Tp_sat.Solver.zero_stats)
      | _ -> Alcotest.failf "entry %d: expected Repaired 1" i)
    (flipped 12)

(* A seeded m = 32 (b = 11) log in the perfbench repair shape: k ≤ 5
   entries, every third with one flipped bit, k = 9, 10 entries past
   the meet's reach, then k = 7, 8 entries, clean and one bit flipped.
   The meet answers every k ≤ 8 entry without touching the solver (at
   b = 11 a flipped k = 7, 8 timeprint still has a preimage, so rung 0
   answers it); the k = 9, 10 entries need the solver. *)
let repair_shaped_log () =
  let m = 32 in
  let e = Encoding.random_constrained_auto ~depth:4 ~seed:2019 ~m () in
  let rng = Random.State.make [| 32 |] in
  let flip en = Fault.flip_tp en ~bits:[ Random.State.int rng (Encoding.b e) ] in
  let log =
    List.init 24 (fun i ->
        let k = if i mod 4 = 3 then 9 + (i / 4 mod 2) else i mod 6 in
        let en = Logger.abstract e (Signal.random rng ~m ~k) in
        if i mod 3 = 0 && k <= 5 then flip en else en)
  in
  let reach =
    List.init 8 (fun i ->
        let en = Logger.abstract e (Signal.random rng ~m ~k:(7 + (i mod 2))) in
        if i >= 4 then flip en else en)
  in
  (e, log @ reach)

let test_meet_rungs_cost_no_solver_work () =
  let e, log = repair_shaped_log () in
  Alcotest.(check int) "b" 11 (Encoding.b e);
  List.iteri
    (fun i (en, (verdict, _, st)) ->
      Alcotest.(check bool) (Printf.sprintf "entry %d answered" i) true
        (match verdict with `Signal _ -> true | _ -> false);
      if Log_entry.k en <= 8 then
        Alcotest.(check bool)
          (Printf.sprintf "entry %d (k = %d): zero solver stats" i (Log_entry.k en))
          true
          (st = Tp_sat.Solver.zero_stats)
      else
        Alcotest.(check bool)
          (Printf.sprintf "entry %d (k = %d): solver work" i (Log_entry.k en))
          true
          (st <> Tp_sat.Solver.zero_stats))
    (List.combine log (Sat_reconstruct.batch ~repair:1 e log))

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
      ( "shared-counter",
        [
          Alcotest.test_case "k = 0, k = m answered, k > m quarantined" `Quick
            test_counter_edges;
          Alcotest.test_case "k - k_slack > m is unrepairable" `Quick
            test_repair_k_beyond_m;
          Alcotest.test_case "repair batch propagation count" `Quick
            test_repair_batch_propagations;
          Alcotest.test_case "solver-only batch propagation count" `Quick
            test_solver_batch_propagations;
        ] );
      ( "meet-rungs",
        qt [ prop_batch_ladder_matches_oracle ]
        @ [
            Alcotest.test_case "meet rung 0, solver rung 1" `Quick
              test_meet_then_sat;
            Alcotest.test_case "meet-answered entries cost no solver work"
              `Quick test_meet_rungs_cost_no_solver_work;
          ] );
      ( "count-regression",
        [
          Alcotest.test_case "exhausted budget reports Lower_bound" `Quick
            test_count_lower_bound_on_exhausted_budget;
        ] );
    ]
