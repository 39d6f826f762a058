(* The didactic example of the paper, Figure 4, replayed end to end:
   m = 16 cycles, b = 8-bit timestamps, four changes, timeprint
   00000001 — then the 256 → 8 → 1 reconstruction funnel.

   Run with: dune exec examples/didactic.exe *)

open Tp_bitvec
open Timeprint

let timestamps =
  Array.map Bitvec.of_string
    [|
      "00010100"; "00111010"; "00001111"; "01000100";
      "00000010"; "10101110"; "01100000"; "11110101";
      "00010111"; "11100111"; "10100000"; "10101000";
      "10011110"; "10001111"; "01110000"; "01101100";
    |]

let () =
  let enc = Encoding.custom timestamps in
  Format.printf "Timestamps (TS(1) .. TS(16)):@.";
  Array.iteri (fun i ts -> Format.printf "  TS(%2d) = %a@." (i + 1) Bitvec.pp ts) timestamps;

  (* The signal of Figure 4: values V1..V4 written in clock-cycles
     4, 5, 10, 11 (1-based) — changes at 0-based cycles 3, 4, 9, 10. *)
  let actual = Signal.of_string "0001100001100000" in
  let entry = Logger.abstract enc actual in
  Format.printf "@.Actual signal     : %a@." Signal.pp actual;
  Format.printf "Aggregated TS(4) + TS(5) + TS(10) + TS(11)@.";
  Format.printf "Logged timeprint  : TP = %a, k = %d@." Bitvec.pp (Log_entry.tp entry)
    (Log_entry.k entry);

  (* Step 1: without the counter there are 256 candidate combinations. *)
  Format.printf "@.Signals summing to TP (any k): %d@."
    (Linear_reconstruct.preimage_size_unbounded enc entry);

  (* Step 2: the logged k = 4 narrows it to 8. *)
  let with_k = Linear_reconstruct.preimage enc entry in
  Format.printf "Signals with exactly k = 4 changes: %d@." (List.length with_k);
  List.iter (fun s -> Format.printf "  %a@." Signal.pp s) with_k;

  (* The planned path agrees with the reference oracle — and, with
     k = 4 and no properties, it never even starts a SAT search. *)
  let { Sat_reconstruct.signals; _ } = Plan.enumerate enc entry in
  assert (List.length signals = List.length with_k);
  let _, report =
    Plan.run (Query.make ~answer:(Query.Enumerate { max_solutions = None }) enc entry)
  in
  Format.printf "(answered by the %s engine)@." report.Plan.chosen;

  (* Step 3: the verified property "writes last one cycle, so changes
     always come as two consecutive ones" leaves the actual signal. *)
  let pulse = [ Property.pulse_pairs ] in
  let { Sat_reconstruct.signals = unique; _ } = Plan.enumerate ~assume:pulse enc entry in
  Format.printf "@.With the 2-consecutive-changes property: %d candidate@."
    (List.length unique);
  List.iter (fun s -> Format.printf "  %a  <- the signal that happened@." Signal.pp s) unique;
  assert (unique = [ actual ]);

  (* The deadline question of §3.3: with the deadline at i = 8, every
     k = 4 reconstruction has a change before it — no matter which one
     actually took place, the deadline was met. *)
  Format.printf "@.Deadline at cycle 8: %a@." Sat_reconstruct.pp_check_result
    (Plan.check enc entry (Property.deadline ~count:1 ~before:8))
