(* Tests for the RV monitor substrate: online verdicts must agree with
   the declarative property semantics, since a Pass verdict is what
   licenses using the property to prune SAT reconstruction. *)

open Tp_rv
open Timeprint

let verdict =
  Alcotest.testable Monitor.pp_verdict (fun (a : Monitor.verdict) b -> a = b)

let sig_of_str = Signal.of_string

(* ------------------------------------------------------------------ *)
(* Unit                                                                *)

let test_deadline_monitor () =
  let spec = Monitor.Deadline { count = 2; before = 4 } in
  Alcotest.check verdict "pass" Pass (Monitor.run ~m:8 spec (sig_of_str "01100000"));
  Alcotest.check verdict "fail: too late" Fail
    (Monitor.run ~m:8 spec (sig_of_str "00011000"));
  Alcotest.check verdict "fail: too few" Fail
    (Monitor.run ~m:8 spec (sig_of_str "01000000"))

let test_max_changes_monitor () =
  let spec = Monitor.Max_changes 2 in
  Alcotest.check verdict "pass" Pass (Monitor.run ~m:8 spec (sig_of_str "01000100"));
  Alcotest.check verdict "fail" Fail (Monitor.run ~m:8 spec (sig_of_str "01010100"))

let test_min_separation_monitor () =
  let spec = Monitor.Min_separation 2 in
  Alcotest.check verdict "pass" Pass (Monitor.run ~m:8 spec (sig_of_str "10010010"));
  Alcotest.check verdict "fail" Fail (Monitor.run ~m:8 spec (sig_of_str "10100000"));
  Alcotest.check verdict "adjacent fails" Fail
    (Monitor.run ~m:8 spec (sig_of_str "11000000"))

let test_pulse_pairs_monitor () =
  let spec = Monitor.Pulse_pairs in
  Alcotest.check verdict "pairs pass" Pass (Monitor.run ~m:8 spec (sig_of_str "01100110"));
  Alcotest.check verdict "lone change fails" Fail
    (Monitor.run ~m:8 spec (sig_of_str "01000000"));
  Alcotest.check verdict "open pair at boundary fails" Fail
    (Monitor.run ~m:8 spec (sig_of_str "00000001"))

let test_window_monitor () =
  let spec = Monitor.Window { lo = 2; hi = 5 } in
  Alcotest.check verdict "pass" Pass (Monitor.run ~m:8 spec (sig_of_str "00110100"));
  Alcotest.check verdict "fail early" Fail (Monitor.run ~m:8 spec (sig_of_str "10000000"));
  Alcotest.check verdict "fail late" Fail (Monitor.run ~m:8 spec (sig_of_str "00000011"))

let test_early_violation () =
  let t = Monitor.create ~m:16 (Monitor.Window { lo = 4; hi = 12 }) in
  ignore (Monitor.step t ~change:false);
  Alcotest.(check bool) "clean so far" false (Monitor.violated_so_far t);
  ignore (Monitor.step t ~change:true);
  Alcotest.(check bool) "violated at cycle 1" true (Monitor.violated_so_far t)

let test_deadline_early_violation () =
  let t = Monitor.create ~m:16 (Monitor.Deadline { count = 1; before = 3 }) in
  for _ = 1 to 3 do
    ignore (Monitor.step t ~change:false)
  done;
  Alcotest.(check bool) "deadline passed without change" true
    (Monitor.violated_so_far t)

let test_multi_trace_cycle_verdicts () =
  let t = Monitor.create ~m:4 (Monitor.Max_changes 1) in
  let feed s = String.iter (fun c -> ignore (Monitor.step t ~change:(c = '1'))) s in
  feed "0100";
  feed "1100";
  feed "0000";
  Alcotest.(check (list verdict))
    "three verdicts"
    [ Monitor.Pass; Monitor.Fail; Monitor.Pass ]
    (Monitor.verdicts t)

let test_monitor_state_resets () =
  (* a violation in one trace-cycle must not leak into the next *)
  let t = Monitor.create ~m:4 Monitor.Pulse_pairs in
  let feed s = String.iter (fun c -> ignore (Monitor.step t ~change:(c = '1'))) s in
  feed "0100";
  feed "0110";
  Alcotest.(check (list verdict)) "fail then pass" [ Monitor.Fail; Monitor.Pass ]
    (Monitor.verdicts t)

let test_cost_sane () =
  List.iter
    (fun spec ->
      let { Monitor.registers; comparators; adders } = Monitor.cost ~m:1024 spec in
      Alcotest.(check bool) "registers positive" true (registers > 0);
      Alcotest.(check bool) "comparators bounded" true (comparators <= 4);
      Alcotest.(check bool) "adders bounded" true (adders <= 4))
    [
      Monitor.Deadline { count = 3; before = 32 };
      Monitor.Max_changes 8;
      Monitor.Min_separation 4;
      Monitor.Pulse_pairs;
      Monitor.Window { lo = 0; hi = 100 };
    ]

(* ------------------------------------------------------------------ *)
(* Monitor ≡ Property                                                  *)

let gen_spec m =
  QCheck.Gen.(
    oneof
      [
        (pair (int_range 0 4) (int_range 0 m) >|= fun (count, before) ->
         Monitor.Deadline { count; before });
        (int_range 0 5 >|= fun n -> Monitor.Max_changes n);
        (int_range 0 4 >|= fun n -> Monitor.Min_separation n);
        return Monitor.Pulse_pairs;
        (pair (int_bound (m - 1)) (int_bound (m - 1)) >|= fun (a, b) ->
         Monitor.Window { lo = min a b; hi = max a b });
      ])

let prop_monitor_equals_property =
  let m = 10 in
  QCheck.Test.make ~count:400
    ~name:"monitor verdict = property semantics"
    QCheck.(
      pair
        (make ~print:(Format.asprintf "%a" Monitor.pp_spec) (gen_spec m))
        (int_bound ((1 lsl m) - 1)))
    (fun (spec, mask) ->
      let s = Signal.of_bitvec (Tp_bitvec.Bitvec.of_int ~width:m mask) in
      let verdict = Monitor.run ~m spec s in
      let holds = Property.eval (Monitor.to_property spec) s in
      (verdict = Monitor.Pass) = holds)

let prop_pass_prunes_soundly =
  (* if the monitor passed, adding its property to reconstruction keeps
     the true signal in the solution set *)
  let m = 10 in
  QCheck.Test.make ~count:60 ~name:"Pass verdict licenses sound pruning"
    QCheck.(
      pair
        (make ~print:(Format.asprintf "%a" Monitor.pp_spec) (gen_spec m))
        (int_bound ((1 lsl m) - 1)))
    (fun (spec, mask) ->
      let s = Signal.of_bitvec (Tp_bitvec.Bitvec.of_int ~width:m mask) in
      QCheck.assume (Monitor.run ~m spec s = Monitor.Pass);
      let e = Encoding.random_constrained ~m ~b:9 ~seed:mask () in
      let entry = Logger.abstract e s in
      let { Sat_reconstruct.signals; complete } =
        Plan.enumerate ~assume:[ Monitor.to_property spec ] e entry
      in
      complete && List.exists (Signal.equal s) signals)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rv"
    [
      ( "monitors",
        [
          Alcotest.test_case "deadline" `Quick test_deadline_monitor;
          Alcotest.test_case "max changes" `Quick test_max_changes_monitor;
          Alcotest.test_case "min separation" `Quick test_min_separation_monitor;
          Alcotest.test_case "pulse pairs" `Quick test_pulse_pairs_monitor;
          Alcotest.test_case "window" `Quick test_window_monitor;
          Alcotest.test_case "early violation" `Quick test_early_violation;
          Alcotest.test_case "deadline early violation" `Quick test_deadline_early_violation;
          Alcotest.test_case "multi trace-cycle verdicts" `Quick test_multi_trace_cycle_verdicts;
          Alcotest.test_case "state resets" `Quick test_monitor_state_resets;
          Alcotest.test_case "hardware cost" `Quick test_cost_sane;
        ] );
      ( "monitor-property-agreement",
        qt [ prop_monitor_equals_property; prop_pass_prunes_soundly ] );
    ]
