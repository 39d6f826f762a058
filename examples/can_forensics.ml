(* The CAN-bus liability scenario of §5.2.1.

   Two ECUs exchange EngineData over a 5 Mbps CAN bus. The car
   responded late; the transmitter's software log claims the message
   left on time, the receiver's log says it arrived late. The timeprint
   logged from the bus wire is the independent witness: reconstructing
   the relevant trace-cycle shows exactly when the transmission
   happened, and a deadline property gives a direct UNSAT verdict.

   Run with: dune exec examples/can_forensics.exe *)

open Tp_canbus
open Timeprint

let bitrate = 5_000_000

(* Trace-cycle design: the paper uses m = 1000 bits and b = 24, i.e.
   (24 + 10) bits logged per 200 µs trace-cycle = 170 bps. We keep the
   same b and a smaller m so the demo reconstructs in seconds. *)
let m = 250
let enc = Encoding.random_constrained ~m ~b:24 ~seed:2019 ()

let () =
  Format.printf "CAN forensics: %a, %d bps log rate at %d Mbps@.@." Encoding.pp enc
    (int_of_float
       (Design.log_rate_hz enc ~clock_hz:(float_of_int bitrate)))
    (bitrate / 1_000_000);

  (* The scenario: EngineData is due periodically; a fault delays one
     instance. The ground truth below exists only inside the bus
     simulation — the analyst sees the software log and the timeprints. *)
  let delay = 61 in
  let periodics =
    [
      Scheduler.periodic Message.engine_data ~period:(4 * m) ~offset:40;
      (* a single GearBoxInfo instance, in a different trace-cycle: at
         5 Mbps the bus is idle most of the time, as in the paper *)
      Scheduler.periodic Message.gearbox_info ~period:(8 * m) ~offset:320;
    ]
  in
  let requests =
    Scheduler.requests ~duration:(8 * m)
      ~delays:[ ("EngineData", 1, delay) ]
      periodics
  in
  let tl = Bus.simulate ~bitrate ~duration:(8 * m) requests in

  Format.printf "Software message log (what the ECU reports):@.";
  List.iter
    (fun e -> Format.printf "  %s@." (Msglog.to_string e))
    (Msglog.of_timeline tl);

  (* The in-field agg-log recorded one (TP, k) pair per trace-cycle. *)
  let entries = Forensics.log_timeline enc tl in
  Format.printf "@.Timeprint log (all that was stored, %d bits each):@."
    (Design.bits_per_trace_cycle enc);
  List.iteri
    (fun i e -> Format.printf "  trace-cycle %d: %a@." i Log_entry.pp e)
    entries;

  (* Postmortem: the delayed instance is the second EngineData, due at
     bit 1040, i.e. inside trace-cycle 4..: compute its cycle. *)
  let suspect_release = 40 + (4 * m) + delay in
  let tc = suspect_release / m in
  let entry = List.nth entries tc in
  Format.printf "@.Suspect trace-cycle %d, logged entry %a@." tc Log_entry.pp entry;

  (* 1. Locate the transmission inside the trace-cycle. *)
  let window = (0, m - Signal.length (Forensics.change_pattern Message.engine_data)) in
  (match Forensics.locate_transmission ~window enc entry Message.engine_data with
  | Ok { Forensics.start_cycle; end_cycle; _ } ->
      Format.printf "Reconstruction: EngineData on the wire from cycle %d to %d@."
        start_cycle end_cycle;
      Format.printf "  (absolute %.1f us to %.1f us)@."
        (float_of_int ((tc * m) + start_cycle) /. 5.)
        (float_of_int ((tc * m) + end_cycle) /. 5.)
  | Error e -> Format.printf "location failed: %s@." e);

  (* 2. The deadline question: the message had to be fully transmitted
        by cycle 180 of this trace-cycle. *)
  let deadline = 180 in
  (* the paper's one-sided query: assume the transmission completed
     before the deadline and ask for any consistent reconstruction —
     UNSAT proves it cannot have happened *)
  let assume = [ Forensics.completed_before Message.engine_data ~deadline ] in
  (* the certificate needs the XOR rows compiled to CNF, which is
     measurably slower (see the bench ablation); give it a budget and
     fall back to the native-XOR query *)
  let pb = Sat_reconstruct.problem ~assume enc entry in
  match Sat_reconstruct.first_certified ~conflict_budget:3_000 pb with
  | `Unknown -> (
      match Plan.first ~assume enc entry with
      | `Unsat ->
          Format.printf "@.\"EngineData completed before cycle %d\": UNSAT@."
            deadline;
          Format.printf "=> no consistent reconstruction meets the deadline.@.";
          Format.printf
            "   (certificate skipped: clausal compilation exceeded its budget)@."
      | `Signal _ ->
          Format.printf "@.\"EngineData completed before cycle %d\": satisfiable@."
            deadline
      | `Unknown -> Format.printf "@.solver budget exhausted@.")
  | `Unsat_certified proof ->
      Format.printf "@.\"EngineData completed before cycle %d\": UNSAT@." deadline;
      Format.printf "=> no consistent reconstruction meets the deadline.@.";
      Format.printf "   The transmitter is responsible for the delay.@.";
      Format.printf
        "   (DRAT certificate: %d bytes, independently re-checked — the@."
        (String.length proof);
      Format.printf "    verdict does not rest on trusting the solver.)@."
  | `Signal _ ->
      Format.printf "@.\"EngineData completed before cycle %d\": satisfiable@."
        deadline;
      Format.printf "=> the log does not incriminate the transmitter.@."
