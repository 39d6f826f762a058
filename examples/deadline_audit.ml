(* RV monitors + timeprints working together (Figures 1-3).

   During deployment an on-chip monitor checks a coarse deadline
   property every trace-cycle. Its PASS verdicts cost nothing to store
   — but after an incident they become reconstruction constraints that
   shrink the SAT search, letting the postmortem answer a question the
   monitor itself never checked: was there a suspiciously EARLY firing
   (a security-relevant behaviour the paper attributes to [14])?

   Run with: dune exec examples/deadline_audit.exe *)

open Tp_rv
open Timeprint

let m = 64
let enc = Encoding.random_constrained_auto ~m ~seed:7 ()

(* The deployed monitor: "at least 2 changes before cycle 48". *)
let monitor_spec = Monitor.Deadline { count = 2; before = 48 }

let () =
  Format.printf "Deployment: %a with monitor %a@.@." Encoding.pp enc
    Monitor.pp_spec monitor_spec;

  (* In-field execution: a handful of trace-cycles; cycle 2 contains an
     anomalously early firing at cycle 1. *)
  let traces =
    [
      Signal.of_changes ~m [ 10; 11; 30; 31 ];
      Signal.of_changes ~m [ 12; 13; 33; 34 ];
      Signal.of_changes ~m [ 1; 2; 30; 31 ];
      (* the anomaly *)
      Signal.of_changes ~m [ 11; 12; 31; 32 ];
    ]
  in
  let monitor = Monitor.create ~m monitor_spec in
  let logger = Logger.create enc in
  List.iter
    (fun s ->
      for i = 0 to m - 1 do
        let change = Signal.change_at s i in
        ignore (Monitor.step monitor ~change);
        ignore (Logger.step logger ~change)
      done)
    traces;

  Format.printf "Monitor verdicts per trace-cycle: ";
  List.iter (fun v -> Format.printf "%a " Monitor.pp_verdict v) (Monitor.verdicts monitor);
  Format.printf "@.(the monitor saw nothing: every deadline was met)@.@.";

  (* Postmortem: audit each trace-cycle for firings before cycle 8 —
     a property never monitored on chip. The monitor's PASS verdict is
     sound pruning knowledge for the reconstruction. *)
  let early = Property.deadline ~count:1 ~before:8 in
  List.iteri
    (fun i entry ->
      let assume =
        match List.nth (Monitor.verdicts monitor) i with
        | Monitor.Pass -> [ Monitor.to_property monitor_spec; Property.pulse_pairs ]
        | Monitor.Fail -> [ Property.pulse_pairs ]
      in
      Format.printf "trace-cycle %d %a: early firing? %a@." i Log_entry.pp entry
        Sat_reconstruct.pp_check_result
        (Plan.check ~assume enc entry early))
    (Logger.completed logger);

  Format.printf
    "@.Trace-cycle 2 is exposed: every reconstruction consistent with its@.";
  Format.printf
    "timeprint fires before cycle 8 - evidence of the early (suspicious) event.@."
