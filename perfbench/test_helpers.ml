(* Tests for the benchmark's own helpers: the percentile tail rule,
   span self time, the answered-share tally and the VmHWM parser. *)

open Perfbench_core

let samples n = Array.init n (fun i -> float (i + 1))

let percentile_rule () =
  (match Bench_stats.percentile ~pct:90 (samples 100) with
  | Ok v -> Alcotest.(check (float 0.)) "p90 of 1..100 is rank 90" 90. v
  | Error e -> Alcotest.fail e);
  (match Bench_stats.percentile ~pct:90 (samples 99) with
  | Ok _ -> Alcotest.fail "p90 of 99 samples has only 9 beyond it"
  | Error _ -> ());
  (match Bench_stats.percentile ~pct:90 (samples 10) with
  | Ok _ -> Alcotest.fail "p90 of 10 samples has 1 beyond it"
  | Error _ -> ());
  (match Bench_stats.percentile ~pct:50 (samples 20) with
  | Ok v -> Alcotest.(check (float 0.)) "p50 of 1..20 is rank 10" 10. v
  | Error e -> Alcotest.fail e);
  (match Bench_stats.percentile ~pct:50 (samples 19) with
  | Ok _ -> Alcotest.fail "p50 of 19 samples has 9 beyond it"
  | Error _ -> ());
  (* order of the input does not matter *)
  let rev = Array.of_list (List.rev (Array.to_list (samples 200))) in
  (match Bench_stats.percentile ~pct:90 rev with
  | Ok v -> Alcotest.(check (float 0.)) "p90 of 200 reversed" 180. v
  | Error e -> Alcotest.fail e)

let self_time () =
  let check msg expected ~start ~stop children =
    Alcotest.(check int) msg expected (Span.self_time_of ~start ~stop children)
  in
  check "no children" 100 ~start:0 ~stop:100 [];
  check "disjoint children" 60 ~start:0 ~stop:100 [ (10, 30); (50, 70) ];
  check "overlapping children count once" 70 ~start:0 ~stop:100
    [ (10, 30); (20, 40) ];
  check "children clipped to the parent" 50 ~start:0 ~stop:100
    [ (10, 30); (20, 50); (90, 120) ];
  check "nested child inside a child" 80 ~start:0 ~stop:100
    [ (10, 30); (15, 20) ];
  check "child covering everything" 0 ~start:0 ~stop:100 [ (-5, 105) ];
  (* the recorder: parent / child links and self time of real spans *)
  let sp = Span.create () in
  let root = Span.enter sp ~req:0 ~parent:(-1) "request" in
  let a = Span.enter sp ~req:0 ~parent:root "a" in
  Span.leave sp a;
  let b = Span.enter sp ~req:0 ~parent:root "b" in
  Span.leave sp b;
  Span.leave sp root;
  let kids = Span.children sp in
  Alcotest.(check (list int)) "children in order" [ a; b ] kids.(root);
  Alcotest.(check int) "self time = duration - children"
    (Span.duration sp root - Span.duration sp a - Span.duration sp b)
    (Span.self_time sp kids root)

let answered_share () =
  let open Bench_stats in
  let t = List.fold_left add empty [ Answered; Answered; Exhausted; Answered ] in
  let t = add_many t Refused 4 in
  Alcotest.(check int) "attempted" 8 t.attempted;
  Alcotest.(check int) "answered" 3 t.answered;
  Alcotest.(check int) "failed" 5 (failed t);
  Alcotest.(check (float 1e-12)) "share" 0.375 (answered_share t);
  let u = merge t (add_many empty Answered 2) in
  Alcotest.(check (float 1e-12)) "merged share" 0.5 (answered_share u);
  Alcotest.(check (float 0.)) "nothing attempted" 0. (answered_share empty)

let vmhwm () =
  let status =
    "Name:\ttimeprintd\nVmPeak:\t  301234 kB\nVmSize:\t  300000 kB\n\
     VmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n"
  in
  Alcotest.(check (option int)) "VmHWM" (Some 45678) (Bench_stats.vmhwm_kib status);
  Alcotest.(check (option int)) "spaces" (Some 12)
    (Bench_stats.vmhwm_kib "VmHWM:       12 kB");
  Alcotest.(check (option int)) "absent" None
    (Bench_stats.vmhwm_kib "VmRSS:\t 1 kB\n");
  Alcotest.(check (option int)) "not VmHWMx" None
    (Bench_stats.vmhwm_kib "VmHWMx:\t 1 kB\n");
  Alcotest.(check (option int)) "bad unit" None
    (Bench_stats.vmhwm_kib "VmHWM:\t 1 MB\n")

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile tail rule" `Quick percentile_rule;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "answered share" `Quick answered_share;
          Alcotest.test_case "VmHWM parse" `Quick vmhwm;
        ] );
    ]
