(* Tests for the CAN substrate: CRC algebra, frame round-trips,
   stuffing invariants, bus arbitration, and the end-to-end forensic
   localization of a transmission from a logged timeprint. *)

open Tp_canbus
open Timeprint

(* ------------------------------------------------------------------ *)
(* CRC-15                                                              *)

let test_crc_check_appended () =
  let bits = [ false; true; true; false; true; false; false; true; true ] in
  let crc = Crc15.compute bits in
  Alcotest.(check bool) "15 bits" true (crc >= 0 && crc < 0x8000);
  Alcotest.(check bool) "appending CRC zeroes it" true
    (Crc15.check (bits @ Crc15.to_bits crc))

let test_crc_detects_flip () =
  let bits = List.init 40 (fun i -> i mod 3 = 0) in
  let full = bits @ Crc15.to_bits (Crc15.compute bits) in
  (* flipping any single bit must break the check *)
  List.iteri
    (fun i _ ->
      let flipped = List.mapi (fun j b -> if j = i then not b else b) full in
      Alcotest.(check bool) (Printf.sprintf "flip %d detected" i) false
        (Crc15.check flipped))
    full

let prop_crc_linear =
  (* CRC of a XOR of bitstreams is the XOR of the CRCs (linearity of
     polynomial division over F2) *)
  QCheck.Test.make ~count:200 ~name:"CRC-15 is linear over F2"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 64) bool)
              (list_of_size (QCheck.Gen.int_range 1 64) bool))
    (fun (a, b) ->
      let n = min (List.length a) (List.length b) in
      let trim l = List.filteri (fun i _ -> i < n) l in
      let a = trim a and b = trim b in
      let x = List.map2 ( <> ) a b in
      Crc15.compute x = Crc15.compute a lxor Crc15.compute b)

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

let test_frame_length () =
  let f = Frame.of_message Message.engine_data in
  (* SOF + 11 id + RTR/IDE/r0 + 4 dlc + 64 data + 15 crc + 3 + 7 eof *)
  Alcotest.(check int) "unstuffed length" (1 + 11 + 3 + 4 + 64 + 15 + 3 + 7)
    (Frame.length f)

let test_frame_roundtrip () =
  List.iter
    (fun msg ->
      let f = Frame.of_message msg in
      match Frame.decode (Frame.to_bits f) with
      | Error e -> Alcotest.fail e
      | Ok m ->
          Alcotest.(check int) "id" msg.Message.id m.Message.id;
          Alcotest.(check bool) "data" true (m.Message.data = msg.Message.data))
    Scheduler.demo_scenario

let test_frame_roundtrip_stuffed () =
  List.iter
    (fun msg ->
      let f = Frame.of_message msg in
      match Frame.decode ~stuffed:true (Frame.to_bits ~stuffed:true f) with
      | Error e -> Alcotest.fail e
      | Ok m -> Alcotest.(check int) "id" msg.Message.id m.Message.id)
    Scheduler.demo_scenario

let test_frame_corruption_detected () =
  let bits = Array.of_list (Frame.to_bits (Frame.of_message Message.abs_data)) in
  (* flip a data bit (offset 19 = first data bit region) *)
  bits.(25) <- not bits.(25);
  match Frame.decode (Array.to_list bits) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted frame accepted"

let prop_frame_roundtrip_random =
  let gen =
    QCheck.Gen.(
      pair (int_bound 0x7ff) (list_size (int_bound 8) (int_bound 0xff))
      >|= fun (id, data) ->
      Message.make ~name:"rnd" ~id ~data:(Array.of_list data))
  in
  QCheck.Test.make ~count:300 ~name:"random frame round-trips (both stuffings)"
    (QCheck.make ~print:(Format.asprintf "%a" Message.pp) gen)
    (fun msg ->
      let f = Frame.of_message msg in
      let plain =
        match Frame.decode (Frame.to_bits f) with
        | Ok m -> m.Message.id = msg.Message.id && m.Message.data = msg.Message.data
        | Error _ -> false
      in
      let stuffed =
        match Frame.decode ~stuffed:true (Frame.to_bits ~stuffed:true f) with
        | Ok m -> m.Message.id = msg.Message.id && m.Message.data = msg.Message.data
        | Error _ -> false
      in
      plain && stuffed)

let prop_stuffed_run_length =
  let gen =
    QCheck.Gen.(
      pair (int_bound 0x7ff) (list_size (int_bound 8) (int_bound 0xff))
      >|= fun (id, data) ->
      Message.make ~name:"rnd" ~id ~data:(Array.of_list data))
  in
  QCheck.Test.make ~count:300
    ~name:"stuffed body never has six equal consecutive bits"
    (QCheck.make ~print:(Format.asprintf "%a" Message.pp) gen)
    (fun msg ->
      let bits = Frame.to_bits ~stuffed:true (Frame.of_message msg) in
      (* check the stuffed span: everything before the 12-bit tail *)
      let body = List.filteri (fun i _ -> i < List.length bits - 12) bits in
      let rec ok run prev = function
        | [] -> true
        | b :: rest ->
            if b = prev then run < 5 && ok (run + 1) b rest else ok 1 b rest
      in
      match body with [] -> true | b :: rest -> ok 1 b rest)

(* ------------------------------------------------------------------ *)
(* Bus                                                                 *)

let test_bus_single_frame () =
  let reqs = [ { Bus.message = Message.gearbox_info; release = 10 } ] in
  let tl = Bus.simulate ~bitrate:5_000_000 ~duration:300 reqs in
  (match tl.Bus.transmissions with
  | [ { Bus.message; start_bit; end_bit } ] ->
      Alcotest.(check string) "name" "GearBoxInfo" message.Message.name;
      Alcotest.(check int) "starts at release" 10 start_bit;
      Alcotest.(check int) "length" (Frame.length (Frame.of_message message))
        (end_bit - start_bit)
  | _ -> Alcotest.fail "expected exactly one transmission");
  (* idle elsewhere *)
  Alcotest.(check bool) "idle before" true tl.Bus.wire.(5);
  Alcotest.(check bool) "SOF dominant" false tl.Bus.wire.(10)

let test_bus_arbitration () =
  (* both released at 0: EngineData (id 100) beats GearBoxInfo (1020) *)
  let reqs =
    [
      { Bus.message = Message.gearbox_info; release = 0 };
      { Bus.message = Message.engine_data; release = 0 };
    ]
  in
  let tl = Bus.simulate ~bitrate:5_000_000 ~duration:1000 reqs in
  match tl.Bus.transmissions with
  | [ a; b ] ->
      Alcotest.(check string) "winner" "EngineData" a.Bus.message.Message.name;
      Alcotest.(check string) "loser second" "GearBoxInfo" b.Bus.message.Message.name;
      Alcotest.(check bool) "no overlap" true (b.Bus.start_bit >= a.Bus.end_bit + 3)
  | _ -> Alcotest.fail "expected two transmissions"

let test_bus_busy_delays () =
  (* a higher-priority message released mid-frame must wait *)
  let reqs =
    [
      { Bus.message = Message.gearbox_info; release = 0 };
      { Bus.message = Message.engine_data; release = 5 };
    ]
  in
  let tl = Bus.simulate ~bitrate:5_000_000 ~duration:1000 reqs in
  match tl.Bus.transmissions with
  | [ a; b ] ->
      Alcotest.(check string) "first keeps the bus" "GearBoxInfo"
        a.Bus.message.Message.name;
      Alcotest.(check bool) "second delayed" true (b.Bus.start_bit >= a.Bus.end_bit)
  | _ -> Alcotest.fail "expected two transmissions"

let test_scheduler_delays () =
  let periodics = [ Scheduler.periodic Message.engine_data ~period:100 ~offset:0 ] in
  let plain = Scheduler.requests ~duration:500 periodics in
  let delayed =
    Scheduler.requests ~duration:500 ~delays:[ ("EngineData", 2, 37) ] periodics
  in
  Alcotest.(check int) "5 instances" 5 (List.length plain);
  let r_plain = List.nth plain 2 and r_delayed = List.nth delayed 2 in
  Alcotest.(check int) "instance 2 pushed" (r_plain.Bus.release + 37)
    r_delayed.Bus.release;
  Alcotest.(check int) "instance 1 untouched" (List.nth plain 1).Bus.release
    (List.nth delayed 1).Bus.release

(* ------------------------------------------------------------------ *)
(* Message log                                                         *)

let test_msglog_roundtrip () =
  let e =
    { Msglog.time = 2.253552; message = Message.engine_data }
  in
  let line = Msglog.to_string e in
  Alcotest.(check bool) "paper-style prefix" true
    (String.length line > 10 && String.sub line 0 9 = "2.253552s");
  match Msglog.parse line with
  | Error err -> Alcotest.fail err
  | Ok e' ->
      Alcotest.(check int) "id" 100 e'.Msglog.message.Message.id;
      Alcotest.(check bool) "time" true (abs_float (e'.Msglog.time -. 2.253552) < 1e-9)

let test_msglog_of_timeline () =
  let reqs = [ { Bus.message = Message.abs_data; release = 50 } ] in
  let tl = Bus.simulate ~bitrate:5_000_000 ~duration:500 reqs in
  match Msglog.of_timeline tl with
  | [ e ] ->
      let expected_end =
        50 + Frame.length (Frame.of_message Message.abs_data)
      in
      Alcotest.(check bool) "time = end of frame" true
        (abs_float (e.Msglog.time -. (float_of_int expected_end /. 5e6)) < 1e-9)
  | _ -> Alcotest.fail "expected one log entry"

(* ------------------------------------------------------------------ *)
(* Forensics end-to-end                                                *)

let forensic_setup () =
  (* one EngineData frame inside the first trace-cycle of m = 128 *)
  let m = 128 in
  let enc = Encoding.random_constrained ~m ~b:17 ~seed:99 () in
  let start = 23 in
  let reqs = [ { Bus.message = Message.gearbox_info; release = start } ] in
  let tl = Bus.simulate ~bitrate:5_000_000 ~duration:m reqs in
  (m, enc, start, tl)

let test_forensics_log_matches_reference () =
  let _, enc, _, tl = forensic_setup () in
  let entries = Forensics.log_timeline enc tl in
  Alcotest.(check int) "one trace-cycle" 1 (List.length entries);
  let s = List.hd (Forensics.trace_signals tl ~m:(Encoding.m enc)) in
  Alcotest.(check bool) "entry = abstract of signal" true
    (Log_entry.equal (List.hd entries) (Logger.abstract enc s))

let test_forensics_locate () =
  let _, enc, start, tl = forensic_setup () in
  let entry = List.hd (Forensics.log_timeline enc tl) in
  match
    Forensics.locate_transmission ~window:(10, 40) enc entry Message.gearbox_info
  with
  | Error e -> Alcotest.fail e
  | Ok { Forensics.start_cycle; end_cycle; _ } ->
      Alcotest.(check int) "start located" start start_cycle;
      Alcotest.(check int) "end located"
        (start + Frame.length (Frame.of_message Message.gearbox_info))
        end_cycle

let test_forensics_deadline_checks () =
  (* one-sided queries, as the paper runs them: assume "completed
     before the deadline" and ask for any consistent reconstruction *)
  let _, enc, start, tl = forensic_setup () in
  let entry = List.hd (Forensics.log_timeline enc tl) in
  let flen = Frame.length (Frame.of_message Message.gearbox_info) in
  let query deadline =
    Plan.first
      ~assume:[ Forensics.completed_before Message.gearbox_info ~deadline ]
      enc entry
  in
  (* deadline after the actual end: satisfiable *)
  (match query (start + flen + 10) with
  | `Signal _ -> ()
  | `Unsat -> Alcotest.fail "late deadline should be satisfiable"
  | `Unknown -> Alcotest.fail "budget exhausted");
  (* deadline before the actual end: provably impossible (UNSAT) *)
  match query (start + flen - 10) with
  | `Unsat -> ()
  | `Signal _ -> Alcotest.fail "early deadline should be UNSAT"
  | `Unknown -> Alcotest.fail "budget exhausted"

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "canbus"
    [
      ( "crc15",
        [
          Alcotest.test_case "check appended" `Quick test_crc_check_appended;
          Alcotest.test_case "detects bit flips" `Quick test_crc_detects_flip;
        ] );
      ( "frame",
        [
          Alcotest.test_case "length" `Quick test_frame_length;
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "roundtrip stuffed" `Quick test_frame_roundtrip_stuffed;
          Alcotest.test_case "corruption detected" `Quick test_frame_corruption_detected;
        ] );
      ( "bus",
        [
          Alcotest.test_case "single frame" `Quick test_bus_single_frame;
          Alcotest.test_case "arbitration by id" `Quick test_bus_arbitration;
          Alcotest.test_case "busy bus delays" `Quick test_bus_busy_delays;
          Alcotest.test_case "scheduler delays" `Quick test_scheduler_delays;
        ] );
      ( "msglog",
        [
          Alcotest.test_case "roundtrip" `Quick test_msglog_roundtrip;
          Alcotest.test_case "of timeline" `Quick test_msglog_of_timeline;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "log matches reference" `Quick test_forensics_log_matches_reference;
          Alcotest.test_case "locate transmission" `Quick test_forensics_locate;
          Alcotest.test_case "deadline checks" `Quick test_forensics_deadline_checks;
        ] );
      ( "qcheck",
        qt [ prop_crc_linear; prop_frame_roundtrip_random; prop_stuffed_run_length ] );
    ]
