(* Quickstart: trace a signal, log a timeprint, reconstruct the exact
   change instants.

   Run with: dune exec examples/quickstart.exe *)

open Timeprint

let () =
  (* 1. Pick design parameters: trace-cycles of m = 64 clock-cycles,
        timestamps generated randomly under linear-independence depth 4
        with the width b chosen automatically. *)
  let enc = Encoding.random_constrained_auto ~m:64 () in
  Format.printf "Encoding: %a@." Encoding.pp enc;
  Format.printf "Logging cost: %d bits per trace-cycle (%.2f MHz at a 100 MHz clock)@."
    (Design.bits_per_trace_cycle enc)
    (Design.log_rate_hz enc ~clock_hz:100e6 /. 1e6);

  (* 2. Something happens on chip: the traced signal changes in cycles
        7, 8, 30 and 31 (two write pulses). On silicon the agg-log
        hardware sees only the change wire; here we replay it. *)
  let actual = Signal.of_changes ~m:64 [ 7; 8; 30; 31 ] in
  let entry = Logger.abstract enc actual in
  Format.printf "@.Logged entry: %a — that is all the chip stores.@." Log_entry.pp entry;

  (* 3. Postmortem: reconstruct every signal consistent with the log. *)
  let { Sat_reconstruct.signals; complete } = Plan.enumerate ~max_solutions:10 enc entry in
  Format.printf "@.%d reconstruction(s)%s:@."
    (List.length signals)
    (if complete then "" else " (first 10)");
  List.iter (fun s -> Format.printf "  %a@." Signal.pp s) signals;

  (* 4. A verified property (writes always last one cycle, i.e. changes
        come in adjacent pairs) prunes the ambiguity. *)
  let pulse = [ Property.pulse_pairs ] in
  let { Sat_reconstruct.signals = pruned; _ } = Plan.enumerate ~assume:pulse enc entry in
  Format.printf "@.With the pulse-pair property: %d reconstruction(s)@."
    (List.length pruned);
  List.iter (fun s -> Format.printf "  %a@." Signal.pp s) pruned;

  (* 5. Often a yes/no answer suffices: did anything fire before the
        deadline at cycle 16? *)
  let verdict = Plan.check enc entry (Property.deadline ~count:1 ~before:16) in
  Format.printf "@.\"Some change before cycle 16\" — %a@."
    Sat_reconstruct.pp_check_result verdict;

  (* 6. All of the above went through the query planner: with k = 4 it
        answered by meet-in-the-middle hashing, no SAT solver at all.
        Ask it to explain itself. *)
  let _, report =
    Plan.run (Query.make ~answer:(Query.Enumerate { max_solutions = Some 10 }) enc entry)
  in
  Format.printf "@.%a@." Plan.pp_report report;

  match List.exists (Signal.equal actual) pruned with
  | true -> Format.printf "@.The actual signal was recovered exactly.@."
  | false -> assert false
