(* Tests for the VCD reader/writer and the VCD → timeprint pipeline. *)

open Timeprint

let sample_vcd =
  {|$date
  today
$end
$version
  handwritten
$end
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 1 " sig $end
$var wire 8 # bus [7:0] $end
$scope module sub $end
$var wire 1 $ sig $end
$upscope $end
$upscope $end
$enddefinitions $end
$dumpvars
0!
0"
b00000000 #
0$
$end
#5
1!
1"
#10
0!
b10100001 #
#15
1!
0"
#20
0!
1$
|}

let parsed () =
  match Tp_vcd.Vcd.parse sample_vcd with
  | Ok w -> w
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parse_vars () =
  let w = parsed () in
  let names = List.map (fun v -> v.Tp_vcd.Vcd.name) (Tp_vcd.Vcd.vars w) in
  Alcotest.(check (list string)) "hierarchical names"
    [ "top.clk"; "top.sig"; "top.bus"; "top.sub.sig" ]
    names;
  Alcotest.(check int) "timescale 1ns" 1_000_000 (Tp_vcd.Vcd.timescale_fs w)

let test_find_var () =
  let w = parsed () in
  (match Tp_vcd.Vcd.find_var w "top.sub.sig" with
  | Some v -> Alcotest.(check string) "qualified" "$" v.Tp_vcd.Vcd.id
  | None -> Alcotest.fail "qualified lookup failed");
  (* "sig" is ambiguous (top.sig and top.sub.sig) *)
  Alcotest.(check bool) "ambiguous short name" true
    (Tp_vcd.Vcd.find_var w "sig" = None);
  (* "clk" is unambiguous *)
  match Tp_vcd.Vcd.find_var w "clk" with
  | Some v -> Alcotest.(check string) "short name" "!" v.Tp_vcd.Vcd.id
  | None -> Alcotest.fail "short lookup failed"

let test_changes () =
  let w = parsed () in
  let evs = Tp_vcd.Vcd.changes w ~id:"\"" in
  Alcotest.(check int) "three events" 3 (List.length evs);
  Alcotest.(check bool) "last is 0 at t=15" true
    (match List.rev evs with (15, Tp_vcd.Vcd.V0) :: _ -> true | _ -> false)

let test_vector_lsb () =
  let w = parsed () in
  let evs = Tp_vcd.Vcd.changes w ~id:"#" in
  (* b10100001 at t=10: lsb = 1 *)
  Alcotest.(check bool) "vector lsb tracked" true
    (List.exists (fun (t, v) -> t = 10 && v = Tp_vcd.Vcd.V1) evs)

let test_sample () =
  let w = parsed () in
  match Tp_vcd.Vcd.sample w ~name:"top.sig" ~clock_period:5 ~samples:4 () with
  | Error e -> Alcotest.fail e
  | Ok values ->
      (* samples at t = 5, 10, 15, 20: sig = 1, 1, 0, 0 *)
      Alcotest.(check (list bool)) "sampled" [ true; true; false; false ]
        (Array.to_list values)

let test_writer_roundtrip () =
  let values = [| true; true; false; true; false; false; true; true |] in
  let text = Tp_vcd.Vcd.of_values ~name:"s" ~clock_period:10 values in
  match Tp_vcd.Vcd.parse text with
  | Error e -> Alcotest.fail e
  | Ok w -> (
      match Tp_vcd.Vcd.sample w ~name:"top.s" ~clock_period:10 ~samples:8 () with
      | Error e -> Alcotest.fail e
      | Ok back ->
          Alcotest.(check (list bool)) "roundtrip" (Array.to_list values)
            (Array.to_list back))

let test_vcd_to_timeprint_pipeline () =
  (* dump a waveform, parse it back, split into trace-cycles, log and
     reconstruct: the loop a user closes with a real simulator dump *)
  let m = 16 in
  let enc = Encoding.random_constrained ~m ~b:10 ~seed:12 () in
  let signal = Signal.of_changes ~m [ 2; 3; 9; 10 ] in
  let text = Tp_vcd.Vcd.of_signal ~name:"st" ~clock_period:2 ~initial:false signal in
  match Tp_vcd.Vcd.parse text with
  | Error e -> Alcotest.fail e
  | Ok w -> (
      match Tp_vcd.Vcd.to_signal w ~name:"top.st" ~clock_period:2 ~m () with
      | Error e -> Alcotest.fail e
      | Ok [ recovered ] ->
          Alcotest.(check bool) "signal recovered from VCD" true
            (Signal.equal recovered signal);
          let entry = Logger.abstract enc recovered in
          (match Plan.enumerate ~assume:[ Property.pulse_pairs ] enc entry with
          | { Sat_reconstruct.signals = [ s ]; _ } ->
              Alcotest.(check bool) "reconstructed" true (Signal.equal s signal)
          | { Sat_reconstruct.signals; _ } ->
              Alcotest.failf "expected unique reconstruction, got %d"
                (List.length signals))
      | Ok l -> Alcotest.failf "expected 1 trace-cycle, got %d" (List.length l))

let test_parse_errors () =
  (match Tp_vcd.Vcd.parse "#notatime" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad time accepted");
  match Tp_vcd.Vcd.parse "$timescale 1fortnight $end" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad timescale accepted"

let test_timescales () =
  List.iter
    (fun (text, expect) ->
      match Tp_vcd.Vcd.parse (Printf.sprintf "$timescale %s $end" text) with
      | Ok w -> Alcotest.(check int) text expect (Tp_vcd.Vcd.timescale_fs w)
      | Error e -> Alcotest.fail e)
    [ ("1ns", 1_000_000); ("10ps", 10_000); ("100 us", 100_000_000_000); ("1fs", 1) ]

let () =
  Alcotest.run "vcd"
    [
      ( "parse",
        [
          Alcotest.test_case "vars and scopes" `Quick test_parse_vars;
          Alcotest.test_case "find_var" `Quick test_find_var;
          Alcotest.test_case "changes" `Quick test_changes;
          Alcotest.test_case "vector lsb" `Quick test_vector_lsb;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "timescales" `Quick test_timescales;
        ] );
      ( "sample-write",
        [
          Alcotest.test_case "sample" `Quick test_sample;
          Alcotest.test_case "writer roundtrip" `Quick test_writer_roundtrip;
          Alcotest.test_case "vcd -> timeprint pipeline" `Quick test_vcd_to_timeprint_pipeline;
        ] );
    ]
