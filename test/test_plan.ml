(* Query planner: cross-engine agreement, capability guards, stream
   dispatch. The three engines are independent implementations of the
   same preimage semantics; the planner must be invisible in the
   answers and explicit in the reports. *)

open Tp_bitvec
open Timeprint

let signal_set signals = List.sort Signal.compare signals

let enumeration_of = function
  | Engine.Enumeration { signals; complete } -> (signal_set signals, complete)
  | _ -> Alcotest.fail "expected an enumeration outcome"

let count_of = function
  | Engine.Count (n, e) -> (n, e)
  | _ -> Alcotest.fail "expected a count outcome"

let check_of = function
  | Engine.Check r -> r
  | _ -> Alcotest.fail "expected a check outcome"

let engines = [ `Auto; `Sat; `Linear; `Mitm ]

(* ------------------------------------------------------------------ *)
(* QCheck: all engines agree on sets, verdicts and counts              *)

let instance ?(with_props = false) (mask, b) =
  let m = 10 in
  let e = Encoding.random_constrained ~m ~b ~seed:(mask + (13 * b)) () in
  let s = Signal.of_bitvec (Bitvec.of_int ~width:m mask) in
  let en = Logger.abstract e s in
  let assume =
    if with_props then [ Property.deadline ~count:2 ~before:7 ] else []
  in
  (e, en, assume)

let prop_cross_engine_sets with_props =
  let name =
    if with_props then "engines agree on preimage sets (with properties)"
    else "engines agree on preimage sets"
  in
  QCheck.Test.make ~name ~count:40
    QCheck.(pair (int_range 0 ((1 lsl 10) - 1)) (int_range 8 10))
    (fun (mask, b) ->
      let e, en, assume = instance ~with_props (mask, b) in
      let q =
        Query.make ~assume ~answer:(Query.Enumerate { max_solutions = None })
          e en
      in
      let results =
        List.map
          (fun engine -> enumeration_of (fst (Plan.run ~engine q)))
          engines
      in
      match results with
      | (ref_set, ref_complete) :: rest ->
          ref_complete
          && List.for_all
               (fun (set, complete) ->
                 complete
                 && List.length set = List.length ref_set
                 && List.for_all2 Signal.equal set ref_set)
               rest
      | [] -> false)

let prop_cross_engine_check =
  QCheck.Test.make ~name:"engines agree on check verdicts" ~count:40
    QCheck.(
      triple (int_range 0 ((1 lsl 10) - 1)) (int_range 8 10) (int_range 1 6))
    (fun (mask, b, before) ->
      let e, en, assume = instance ~with_props:(mask mod 2 = 0) (mask, b) in
      let q =
        Query.make ~assume
          ~answer:(Query.Check (Property.deadline ~count:1 ~before))
          e en
      in
      let verdicts =
        List.map (fun engine -> check_of (fst (Plan.run ~engine q))) engines
      in
      match verdicts with
      | v :: rest -> List.for_all (fun v' -> v' = v) rest
      | [] -> false)

(* Capped counts need not agree on `Exact vs `Lower_bound across
   engines (AllSAT cannot tell "hit the cap exactly at the last model"
   from "more remain"), but each answer must be sound against the
   reference oracle's true size. *)
let prop_cross_engine_counts =
  QCheck.Test.make ~name:"engine counts consistent vs true preimage size"
    ~count:40
    QCheck.(pair (int_range 0 ((1 lsl 10) - 1)) (int_range 8 10))
    (fun (mask, b) ->
      let e, en, assume = instance (mask, b) in
      let truth = List.length (Linear_reconstruct.preimage e en) in
      let uncapped =
        List.for_all
          (fun engine ->
            let q =
              Query.make ~assume
                ~answer:(Query.Count { max_solutions = None })
                e en
            in
            count_of (fst (Plan.run ~engine q)) = (truth, `Exact))
          engines
      in
      let cap = 2 in
      let capped =
        List.for_all
          (fun engine ->
            let q =
              Query.make ~assume
                ~answer:(Query.Count { max_solutions = Some cap })
                e en
            in
            match count_of (fst (Plan.run ~engine q)) with
            | n, `Exact -> n = truth
            | n, `Lower_bound -> n <= truth && n = min cap truth)
          engines
      in
      uncapped && capped)

(* Auto against forced SAT with a property assumed — P2, a deadline or
   a window — on every answer kind: at k ≤ 8 auto runs them on the
   filtered, confined meet. Verdict kinds, counts and check verdicts
   must match; each witness abstracts back and satisfies the
   properties, and each capped list holds members of SAT's preimage. *)
let prop_auto_vs_sat_with_properties =
  QCheck.Test.make ~name:"auto = forced SAT with P2, Dk or a window assumed"
    ~count:30
    QCheck.(triple (int_range 0 100_000) (int_range 0 8) (int_range 0 2))
    (fun (seed, k, which) ->
      let m = 20 in
      let e = Encoding.random_constrained ~depth:2 ~seed ~m ~b:9 () in
      let st = Random.State.make [| seed; 21 |] in
      let en = Logger.abstract e (Signal.random st ~m ~k) in
      let assume =
        [
          (match which with
          | 0 -> Property.p2
          | 1 -> Property.deadline ~count:(min 2 k) ~before:10
          | _ -> Property.window ~lo:3 ~hi:16);
        ]
      in
      let both answer =
        let q = Query.make ~assume ~answer e en in
        (fst (Plan.run q), fst (Plan.run ~engine:`Sat q))
      in
      let sound s =
        Log_entry.equal en (Logger.abstract e s)
        && List.for_all (fun p -> Property.eval p s) assume
      in
      let all =
        match both (Query.Enumerate { max_solutions = None }) with
        | ( Engine.Enumeration { signals = a; complete = true },
            Engine.Enumeration { signals = b; complete = true } ) ->
            let a = signal_set a and b = signal_set b in
            if List.equal Signal.equal a b && List.for_all sound a then Some b
            else None
        | _ -> None
      in
      match all with
      | None -> false
      | Some preimage ->
          let member s = List.exists (Signal.equal s) preimage in
          let first =
            match both Query.First with
            | Engine.Verdict (`Signal a), Engine.Verdict (`Signal b) ->
                sound a && sound b
            | Engine.Verdict `Unsat, Engine.Verdict `Unsat -> preimage = []
            | _ -> false
          in
          let capped =
            List.for_all
              (fun cap ->
                (match both (Query.Count { max_solutions = Some cap }) with
                | Engine.Count (a, ea), Engine.Count (b, eb) -> a = b && ea = eb
                | _ -> false)
                &&
                match both (Query.Enumerate { max_solutions = Some cap }) with
                | ( Engine.Enumeration { signals = a; complete = ca },
                    Engine.Enumeration { signals = b; complete = cb } ) ->
                    List.length a = List.length b
                    && ca = cb && List.for_all member a
                | _ -> false)
              [ 0; 1; 3 ]
          in
          let check =
            List.for_all
              (fun p ->
                match both (Query.Check p) with
                | Engine.Check a, Engine.Check b -> a = b
                | _ -> false)
              [ Property.p2; Property.deadline ~count:1 ~before:8 ]
          in
          first && capped && check)

(* ------------------------------------------------------------------ *)
(* Satellite: huge nullity falls through to SAT, never raises          *)

let huge_nullity_encoding () =
  (* 70 distinct nonzero 7-bit timestamps: rank <= 7, nullity >= 63 —
     far beyond both the planner threshold and the hard cap *)
  Encoding.custom (Array.init 70 (fun i -> Bitvec.of_int ~width:7 (i + 1)))

let test_huge_nullity_falls_through () =
  let e = huge_nullity_encoding () in
  let s = Signal.of_changes ~m:70 [ 3; 11; 19; 33; 52; 60; 65 ] in
  let en = Logger.abstract e s in
  Alcotest.(check int) "k = 7" 7 (Log_entry.k en);
  let q = Query.make ~answer:Query.First e en in
  (* forced linear: incapable, must silently fall through to SAT *)
  let outcome, report = Plan.run ~engine:`Linear q in
  Alcotest.(check string) "fell through to sat" "sat" report.Plan.chosen;
  Alcotest.(check bool)
    "fallback recorded" true
    (List.exists (fun (n, _) -> n = "linear") report.Plan.fallbacks);
  (match outcome with
  | Engine.Verdict (`Signal w) ->
      Alcotest.(check bool) "witness abstracts back" true
        (Log_entry.equal en (Logger.abstract e w))
  | _ -> Alcotest.fail "expected a witness");
  (* auto: the policy must avoid linear by construction; the meet's
     C(70,4) probes (2^19.8) undercut SAT, so it takes the query *)
  let _, report = Plan.run q in
  Alcotest.(check string) "auto avoids linear" "mitm" report.Plan.chosen;
  (* every answer at k = 7 is the meet's: a capped Enumerate stops one
     past its cap and a Check at its first pair of a satisfying and a
     violating witness, so auto — and admission, which prices auto's
     choice — price them all at the meet's probes. Priced rather than
     run: the preimage holds about C(70,7)/2^7 ≈ 9.4·10⁶ signals. *)
  let session = Plan.session e in
  let price answer = Plan.cost_estimate session (Query.make ~answer e en) in
  List.iter
    (fun (what, answer) ->
      Alcotest.(check (float 1e-9)) (what ^ " priced as the meet")
        (Engine.mitm_cost_bits ~m:70 ~k:7) (price answer))
    [
      ("first", Query.First);
      ("check", Query.Check (Property.deadline ~count:1 ~before:35));
      ("enumerate <= 10", Query.Enumerate { max_solutions = Some 10 });
    ];
  (* and the typed shorthand (planned path) must not raise either *)
  match Plan.first e en with
  | `Signal _ -> ()
  | _ -> Alcotest.fail "Plan.first expected a witness"

(* Past the SAT price but under [feasible]'s probe cap, the meet still
   answers a k ≥ 7 First faster than SAT, with a witness (b = 16) and
   without one (one flipped bit, b far above log₂ C(m,k)); see
   EXPERIMENTS.md. Auto takes both at k = 7, m = 100 and k = 8, m = 56,
   C(m, k − 3) = 2^21.9 probes each. *)
let test_meet_past_sat_price () =
  List.iter
    (fun (m, k, b_empty) ->
      List.iter
        (fun (b, flipped) ->
          let e = Encoding.random_constrained ~seed:11 ~m ~b () in
          let rng = Random.State.make [| m; k; b |] in
          let en = Logger.abstract e (Signal.random rng ~m ~k) in
          let en =
            if flipped then Fault.flip_tp en ~bits:[ Random.State.int rng b ]
            else en
          in
          let what = Printf.sprintf "m = %d, k = %d, b = %d" m k b in
          Alcotest.(check bool) (what ^ ": over the SAT price") false
            (Sat_reconstruct.meet_wins e ~k ~flips:0);
          let outcome, report = Plan.run (Query.make ~answer:Query.First e en) in
          Alcotest.(check string) (what ^ ": auto picks mitm") "mitm"
            report.Plan.chosen;
          match (outcome, flipped) with
          | Engine.Verdict (`Signal w), false ->
              Alcotest.(check bool) (what ^ ": witness abstracts back") true
                (Log_entry.equal en (Logger.abstract e w))
          | Engine.Verdict `Unsat, true -> ()
          | _ -> Alcotest.failf "%s: unexpected verdict" what)
        [ (16, false); (b_empty, true) ])
    [ (100, 7, 42); (56, 8, 40) ]

(* ------------------------------------------------------------------ *)
(* Satellite: batch rank-refutes inconsistent entries for free         *)

let rank_deficient_encoding () =
  (* column space {001, 010, 011} has dimension 2 < b = 4: timeprints
     outside it are linearly inconsistent *)
  Encoding.custom
    [|
      Bitvec.of_int ~width:4 1; Bitvec.of_int ~width:4 2;
      Bitvec.of_int ~width:4 3;
    |]

let test_batch_presolve_refutes () =
  let e = rank_deficient_encoding () in
  let good = Logger.abstract e (Signal.of_changes ~m:3 [ 0 ]) in
  let bad = Log_entry.make ~tp:(Bitvec.of_int ~width:4 8) ~k:1 in
  let results = Sat_reconstruct.batch e [ good; bad ] in
  (match results with
  | [
   (`Signal _, Sat_reconstruct.Clean, _);
   (`Unsat, Sat_reconstruct.Quarantined, st);
  ] ->
      Alcotest.(check int) "zero conflicts" 0 st.Tp_sat.Solver.conflicts;
      Alcotest.(check int) "zero decisions" 0 st.Tp_sat.Solver.decisions;
      Alcotest.(check int) "zero propagations" 0 st.Tp_sat.Solver.propagations
  | _ -> Alcotest.fail "expected [witness; refuted]");
  (* same verdicts with the presolve disabled, where the solver grinds
     them out: k = 11 entries, past the meet's reach, on m = 12
     timestamps that never set bit 5 of b = 6 *)
  let e =
    Encoding.custom
      (Array.init 12 (fun i -> Bitvec.of_int ~width:6 (1 + (i * 7 mod 31))))
  in
  let good =
    Logger.abstract e
      (Signal.of_changes ~m:12 [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 10; 11 ])
  in
  let bad = Log_entry.make ~tp:(Bitvec.of_int ~width:6 32) ~k:11 in
  Alcotest.(check bool) "premise: bad is rank-refuted" true
    (Presolve.refutes e bad);
  match Sat_reconstruct.batch ~presolve:false e [ good; bad ] with
  | [ (`Signal _, _, st); (`Unsat, _, _) ] ->
      Alcotest.(check bool) "the solver answered" true
        (st <> Tp_sat.Solver.zero_stats)
  | _ -> Alcotest.fail "presolve must not change batch verdicts"

let test_plan_refutes_for_free () =
  let e = rank_deficient_encoding () in
  let bad = Log_entry.make ~tp:(Bitvec.of_int ~width:4 8) ~k:1 in
  let outcome, report =
    Plan.run (Query.make ~answer:(Query.Count { max_solutions = None }) e bad)
  in
  Alcotest.(check string) "presolve answered" "presolve" report.Plan.chosen;
  Alcotest.(check bool) "refuted" true (report.Plan.presolve = `Refuted);
  Alcotest.(check bool) "count 0 exact" true
    (count_of outcome = (0, `Exact))

(* ------------------------------------------------------------------ *)
(* A Repair reports the step of the ladder that answered it            *)

let test_repair_names_its_step () =
  let m = 32 in
  let e = Encoding.random_constrained_auto ~depth:4 ~seed:2019 ~m () in
  let st = Random.State.make [| 24 |] in
  let repair en =
    Plan.run (Query.make ~answer:(Query.Repair { max_flips = 1; k_slack = 0 }) e en)
  in
  let engine_of line =
    List.find_map
      (fun tok ->
        match String.split_on_char '=' tok with
        | [ "engine"; v ] -> Some v
        | _ -> None)
      (String.split_on_char ' ' line)
  in
  let expect what step (outcome, report) =
    Alcotest.(check string) (what ^ ": chosen") step report.Plan.chosen;
    Alcotest.(check (option string)) (what ^ ": meta engine") (Some step)
      (engine_of (Plan.meta_line report));
    Alcotest.(check bool) (what ^ ": one ladder line considered") true
      (List.map fst report.Plan.considered = [ "ladder" ]);
    outcome
  in
  (* k = 2 with one flipped bit: the meet's rung 1 answers *)
  let clean = Logger.abstract e (Signal.random st ~m ~k:2) in
  let flipped = Fault.flip_tp clean ~bits:[ 4 ] in
  (match expect "meet" "mitm" (repair flipped) with
  | Engine.Repair (`Clean s) | Engine.Repair (`Repaired { r_signal = s; _ }) ->
      Alcotest.(check bool) "meet: witness within one flip" true
        (Bitvec.popcount
           (Bitvec.logxor (Log_entry.tp (Logger.abstract e s)) (Log_entry.tp flipped))
        <= 1)
  | _ -> Alcotest.fail "meet: expected a repair");
  (* k = 11, past the meet's reach: the solver answers rung 0 *)
  let high = Logger.abstract e (Signal.random st ~m ~k:11) in
  match expect "solver" "sat" (repair high) with
  | Engine.Repair (`Clean s) ->
      Alcotest.(check bool) "solver: witness abstracts back" true
        (Log_entry.equal high (Logger.abstract e s))
  | _ -> Alcotest.fail "solver: expected a clean witness"

(* ------------------------------------------------------------------ *)
(* Planner choices and stream dispatch                                 *)

let test_planner_choices () =
  let m = 10 in
  let e = Encoding.random_constrained ~m ~b:8 ~seed:42 () in
  let run ?assume ~k_changes () =
    let s = Signal.of_changes ~m k_changes in
    let en = Logger.abstract e s in
    let q = Query.make ?assume ~answer:Query.First e en in
    (snd (Plan.run q)).Plan.chosen
  in
  Alcotest.(check string) "k<=4, no properties -> mitm" "mitm"
    (run ~k_changes:[ 1; 4 ] ());
  Alcotest.(check string) "k>4, small nullity -> linear" "linear"
    (run ~k_changes:[ 0; 2; 4; 6; 8 ] ());
  Alcotest.(check string) "properties filter the meet" "mitm"
    (run ~assume:[ Property.deadline ~count:2 ~before:9 ] ~k_changes:[ 1; 4 ] ());
  (* k ≥ 7: the meet answers every kind, each stopping once decided *)
  let e = Encoding.random_constrained_auto ~depth:4 ~seed:2019 ~m:32 () in
  let en = Logger.abstract e (Signal.random (Random.State.make [| 7 |]) ~m:32 ~k:7) in
  let chosen answer = (snd (Plan.run (Query.make ~answer e en))).Plan.chosen in
  Alcotest.(check string) "k = 7 first -> mitm" "mitm" (chosen Query.First);
  Alcotest.(check string) "k = 7 check -> mitm" "mitm"
    (chosen (Query.Check (Property.deadline ~count:1 ~before:16)));
  Alcotest.(check string) "k = 7 enumerate <= 10 -> mitm" "mitm"
    (chosen (Query.Enumerate { max_solutions = Some 10 }))

let test_run_stream () =
  let e = rank_deficient_encoding () in
  let good1 = Logger.abstract e (Signal.of_changes ~m:3 [ 0 ]) in
  let good2 = Logger.abstract e (Signal.of_changes ~m:3 [ 0; 1; 2 ]) in
  let bad = Log_entry.make ~tp:(Bitvec.of_int ~width:4 12) ~k:2 in
  let entries = [ good1; bad; good2 ] in
  let results = Plan.run_stream e entries in
  Alcotest.(check int) "one result per entry" 3 (List.length results);
  List.iter2
    (fun entry (verdict, health, tag) ->
      (* verdicts match the cold single-entry path *)
      let cold = Plan.first e entry in
      (match (verdict, cold) with
      | `Signal _, `Signal _ | `Unsat, `Unsat -> ()
      | _ -> Alcotest.fail "stream verdict <> cold verdict");
      (* without a repair budget, health is Clean/Quarantined in step
         with the verdict *)
      (match (verdict, health) with
      | `Signal _, Sat_reconstruct.Clean | `Unsat, Sat_reconstruct.Quarantined ->
          ()
      | _ -> Alcotest.fail "health out of step with verdict");
      match tag with
      | `Presolve ->
          Alcotest.(check bool) "refuted entries tagged presolve" true
            (verdict = `Unsat)
      | `Mitm | `Sat _ -> ())
    entries results;
  (* all three entries have k <= 4 and no properties: the refuted one
     is tagged presolve, the rest mitm — no SAT work at all *)
  List.iter
    (fun (_, _, tag) ->
      match tag with
      | `Sat _ -> Alcotest.fail "stream burned SAT work on a mitm-able entry"
      | `Presolve | `Mitm -> ())
    results

let test_explain_report () =
  let e = Encoding.random_constrained ~m:10 ~b:8 ~seed:7 () in
  let en = Logger.abstract e (Signal.of_changes ~m:10 [ 2; 5 ]) in
  let _, report = Plan.run (Query.make ~answer:Query.First e en) in
  Alcotest.(check int) "all engines considered" 3
    (List.length report.Plan.considered);
  let rendered = Format.asprintf "%a" Plan.pp_report report in
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "report renders engine name" true
    (report.Plan.chosen <> "" && contains rendered report.Plan.chosen)

(* the meta line is a machine-parseable contract shared with the
   daemon's [stats] verb: exactly these keys, in exactly this order
   (new fields are appended, never reordered), every value a bare
   token. pp_report republishes it verbatim on a ["meta: "] line. *)
let test_meta_line () =
  let e = Encoding.random_constrained ~m:10 ~b:8 ~seed:7 () in
  let en = Logger.abstract e (Signal.of_changes ~m:10 [ 2; 5 ]) in
  let check_line ~expect_pack report =
    let line = Plan.meta_line report in
    let fields =
      List.map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some i ->
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
          | None -> Alcotest.failf "meta token %S is not key=value" tok)
        (String.split_on_char ' ' line)
    in
    Alcotest.(check (list string))
      "meta keys pinned in order"
      [ "engine"; "pack"; "parallel"; "jobs"; "cubes"; "winner" ]
      (List.map fst fields);
    Alcotest.(check string) "engine value" report.Plan.chosen
      (List.assoc "engine" fields);
    Alcotest.(check string) "pack value" expect_pack
      (List.assoc "pack" fields);
    List.iter
      (fun key ->
        match int_of_string_opt (List.assoc key fields) with
        | Some _ -> ()
        | None -> Alcotest.failf "meta %s is not an integer" key)
      [ "jobs"; "cubes"; "winner" ];
    let rendered = Format.asprintf "%a" Plan.pp_report report in
    let needle = "meta: " ^ line in
    let n = String.length needle and h = String.length rendered in
    let rec go i =
      i + n <= h && (String.sub rendered i n = needle || go (i + 1))
    in
    Alcotest.(check bool) "pp_report embeds the meta line" true (go 0)
  in
  let q = Query.make ~answer:Query.First e en in
  let _, cold = Plan.run q in
  check_line ~expect_pack:"miss" cold;
  let _, warm = Plan.run ~pack:(Pack.compile e) q in
  check_line ~expect_pack:"hit" warm

(* ------------------------------------------------------------------ *)
(* Satellite: one MITM table per session, not one per entry            *)

let test_session_table_memoized () =
  let e = Encoding.random_constrained ~m:12 ~b:10 ~seed:3 () in
  let s = Plan.session e in
  Alcotest.(check bool) "repeat calls return the same table" true
    (Plan.session_table s == Plan.session_table s);
  (* and a stream over the session answers identically to the facade *)
  let entries =
    List.map
      (fun mask ->
        Logger.abstract e (Signal.of_bitvec (Bitvec.of_int ~width:12 mask)))
      [ 0b11; 0b10100; 0b111000000001 ]
  in
  let via_session = Plan.run_stream_in s entries in
  let via_facade = Plan.run_stream e entries in
  Alcotest.(check int) "same length" (List.length via_facade)
    (List.length via_session);
  List.iter2
    (fun (v1, h1, _) (v2, h2, _) ->
      Alcotest.(check bool) "same verdict" true (v1 = v2 && h1 = h2))
    via_session via_facade

(* ------------------------------------------------------------------ *)
(* A session accepts its own design, by value, and no other            *)

let test_session_design_check () =
  let e = Encoding.random_constrained ~m:16 ~b:10 ~seed:5 () in
  let s = Plan.session e in
  let en = Logger.abstract e (Signal.of_changes ~m:16 [ 2; 9 ]) in
  let q enc = Query.make ~answer:Query.First enc en in
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  (* same m and b, TS(1) replaced by TS(1) ⊕ TS(2): still non-zero and
     distinct from every timestamp, since [e] is LI-4 *)
  let off =
    let ts = Encoding.timestamps e in
    ts.(0) <- Bitvec.logxor ts.(0) ts.(1);
    Encoding.custom ts
  in
  rejects "cost_estimate: one timestamp differs" (fun () ->
      Plan.cost_estimate s (q off));
  rejects "run_in: one timestamp differs" (fun () -> Plan.run_in s (q off));
  (* a structurally equal copy is a different object, yet the same
     design: priced and answered exactly like the session's own *)
  let copy = Encoding.custom (Encoding.timestamps e) in
  Alcotest.(check bool) "copy is a distinct object" false (copy == e);
  Alcotest.(check (float 0.)) "cost_estimate accepts an equal copy"
    (Plan.cost_estimate s (q e))
    (Plan.cost_estimate s (q copy));
  Alcotest.(check bool) "run_in accepts an equal copy" true
    (fst (Plan.run_in s (q copy)) = fst (Plan.run_in s (q e)))

(* ------------------------------------------------------------------ *)
(* Query.make rejects what no engine could answer                      *)

let test_query_make_rejects () =
  let e = Encoding.random_constrained ~m:16 ~b:10 ~seed:5 () in
  let en = Logger.abstract e (Signal.of_changes ~m:16 [ 2; 9 ]) in
  let rejects what answer =
    Alcotest.(check bool) what true
      (match Query.make ~answer e en with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "negative enumerate cap" (Query.Enumerate { max_solutions = Some (-1) });
  rejects "negative count cap" (Query.Count { max_solutions = Some (-1) });
  rejects "negative repair budget" (Query.Repair { max_flips = -1; k_slack = 0 });
  (* a zero cap is a valid question: no solutions listed, more exist *)
  match
    Plan.run (Query.make ~answer:(Query.Count { max_solutions = Some 0 }) e en)
  with
  | Engine.Count (0, `Lower_bound), _ -> ()
  | _ -> Alcotest.fail "a count capped at 0 is 0, a lower bound"

(* ------------------------------------------------------------------ *)
(* Stream emission comes in flushed bursts                             *)

type event = Emit of { line : string; sat : bool } | Flush

let test_stream_bursts () =
  let m = 24 in
  let e = Encoding.random_constrained ~m ~b:12 ~seed:7 () in
  let st = Random.State.make [| 0xB0057 |] in
  let entry k = Logger.abstract e (Signal.random st ~m ~k) in
  (* a fast-path prefix, then SAT-routed k = 11 entries (past MITM's
     reach) mixed with more fast ones — enough to fill two SAT chunks *)
  let prefix = List.init 4 (fun i -> entry (1 + (i mod 3))) in
  let rest =
    List.concat (List.init 10 (fun i -> [ entry 11; entry (1 + (i mod 4)) ]))
  in
  let s = Plan.session e in
  let line = Tp_service.Render.entry_line in
  List.iter
    (fun jobs ->
      let expected =
        List.mapi line (Plan.run_stream_in ?jobs s (prefix @ rest))
      in
      let name what =
        Printf.sprintf "jobs=%s: %s"
          (match jobs with None -> "none" | Some j -> string_of_int j)
          what
      in
      let events = ref [] in
      Plan.run_stream_emit ?jobs
        ~flush:(fun () -> events := Flush :: !events)
        s (prefix @ rest)
        ~emit:(fun i ((_, _, tag) as r) ->
          let sat = match tag with `Sat _ -> true | _ -> false in
          events := Emit { line = line i r; sat } :: !events);
      let events = List.rev !events in
      Alcotest.(check (list string)) (name "emitted sequence unchanged")
        expected
        (List.filter_map
           (function Emit { line; _ } -> Some line | Flush -> None)
           events);
      let rec before_first_sat acc = function
        | Emit { sat = true; _ } :: _ -> List.rev acc
        | ev :: tl -> before_first_sat (ev :: acc) tl
        | [] -> Alcotest.fail (name "no SAT-routed verdict emitted")
      in
      let fast_prefix =
        List.filteri (fun i _ -> i < List.length prefix) expected
        |> List.map (fun line -> Emit { line; sat = false })
      in
      Alcotest.(check bool)
        (name "fast-path prefix flushed before any SAT verdict")
        true
        (before_first_sat [] events = fast_prefix @ [ Flush ]);
      Alcotest.(check bool) (name "a flush follows the last entry") true
        (List.nth events (List.length events - 1) = Flush);
      let rec no_empty_burst = function
        | Flush :: Flush :: _ -> false
        | _ :: tl -> no_empty_burst tl
        | [] -> true
      in
      Alcotest.(check bool) (name "no empty burst") true (no_empty_burst events))
    [ None; Some 1; Some 2 ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "plan"
    [
      ( "cross-engine",
        qt
          [
            prop_cross_engine_sets false;
            prop_cross_engine_sets true;
            prop_cross_engine_check;
            prop_cross_engine_counts;
            prop_auto_vs_sat_with_properties;
          ] );
      ( "capabilities",
        [
          Alcotest.test_case "huge nullity falls through to SAT" `Quick
            test_huge_nullity_falls_through;
          Alcotest.test_case "k >= 7 meet past the SAT price" `Quick
            test_meet_past_sat_price;
          Alcotest.test_case "session table memoized" `Quick
            test_session_table_memoized;
          Alcotest.test_case "session design check" `Quick
            test_session_design_check;
          Alcotest.test_case "query validation" `Quick test_query_make_rejects;
        ] );
      ( "batch-presolve",
        [
          Alcotest.test_case "batch rank-refutes for free" `Quick
            test_batch_presolve_refutes;
          Alcotest.test_case "planner rank-refutes for free" `Quick
            test_plan_refutes_for_free;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "policy choices" `Quick test_planner_choices;
          Alcotest.test_case "stream dispatch" `Quick test_run_stream;
          Alcotest.test_case "stream bursts flushed" `Quick test_stream_bursts;
          Alcotest.test_case "explainable report" `Quick test_explain_report;
          Alcotest.test_case "meta line format pinned" `Quick test_meta_line;
          Alcotest.test_case "repair names the step that answered" `Quick
            test_repair_names_its_step;
        ] );
    ]
