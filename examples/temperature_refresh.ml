(* The temperature-compensated-refresh experiment of §5.2.2.

   A CPU image runs twice: once on the "FPGA hardware" (SRAM refresh
   enabled, its rate compensated by die temperature) and once in the
   "RTL simulation" (no refresh — and initially with the Gaisler
   library's wrong wait-state configuration). Comparing the timeprints
   logged by both runs surfaces, in order:

     1. a k mismatch  -> the simulation's SRAM wait states are wrong;
     2. after the fix, a TP mismatch with equal k -> a sporadic
        one-cycle delay happened on chip but not in simulation;
     3. reconstruction under the "one change delayed by one cycle"
        hypothesis pinpoints the exact clock-cycle;
     4. sweeping ambient temperature moves the first mismatch earlier —
        the temperature-compensated refresh signature.

   Run with: dune exec examples/temperature_refresh.exe *)

open Tp_soc
open Timeprint

let enc = Encoding.random_constrained ~m:256 ~b:20 ~seed:5 ()
let image = Isa.stride_walker ~steps:600 ~base:0x8000 ~stride:3

let pp_mismatch ppf = function
  | `K i -> Format.fprintf ppf "k mismatch at trace-cycle %d" i
  | `Tp i -> Format.fprintf ppf "TP mismatch (equal k) at trace-cycle %d" i
  | `None -> Format.pp_print_string ppf "no mismatch"

let () =
  Format.printf "Image: %d-step stride walker; %a@.@." 600 Encoding.pp enc;

  (* The hardware: refresh on, correct wait states, warm car interior. *)
  let hw = Soc_system.run (Soc_system.hardware_config ~ambient:55.0 enc) image in
  Format.printf
    "Hardware run: %d cycles, %d trace-cycles, %d refreshes, %.1f degC final@."
    hw.Soc_system.cycles
    (List.length hw.Soc_system.entries)
    hw.Soc_system.refresh_count hw.Soc_system.final_celsius;

  (* Step 1: simulation with the WRONG wait states (the library bug). *)
  let sim_buggy = Soc_system.run (Soc_system.simulation_config ~wait_states:0 enc) image in
  Format.printf "@.vs simulation with wrong SRAM wait states: %a@." pp_mismatch
    (Soc_system.first_mismatch hw sim_buggy);
  Format.printf "   -> k differs: the simulation model's timing is wrong.@.";

  (* Step 2: fix the wait states; k now agrees everywhere, but the
     timeprints start to differ where refresh delayed a change. *)
  let sim = Soc_system.run (Soc_system.simulation_config ~wait_states:1 enc) image in
  let mismatch = Soc_system.first_mismatch hw sim in
  Format.printf "@.vs corrected simulation: %a@." pp_mismatch mismatch;

  (* Step 3: localize the delay with the delayed-once property. *)
  (match mismatch with
  | `Tp tc ->
      let hw_entry = List.nth hw.Soc_system.entries tc in
      let sim_signal = List.nth sim.Soc_system.signals tc in
      (match Plan.enumerate ~assume:[ Property.delayed_once sim_signal ] enc hw_entry with
      | { Sat_reconstruct.signals = [ found ]; _ } ->
          let delayed_at =
            List.find
              (fun i -> not (Signal.change_at found i))
              (Signal.changes sim_signal)
          in
          Format.printf
            "   delayed-once reconstruction: unique solution; the change@.";
          Format.printf
            "   scheduled for cycle %d slipped to cycle %d (refresh collision).@."
            delayed_at (delayed_at + 1)
      | { Sat_reconstruct.signals; _ } ->
          Format.printf "   %d candidate delay positions@." (List.length signals));
      (* cross-check against the simulator's ground truth *)
      let truth =
        List.filter (fun (tc', _) -> tc' = tc) hw.Soc_system.delayed_changes
      in
      List.iter
        (fun (_, c) -> Format.printf "   (ground truth: delay at cycle %d)@." c)
        truth
  | `K _ | `None -> Format.printf "   unexpected mismatch shape@.");

  (* Step 4: temperature sweep — hotter means earlier first mismatch. *)
  Format.printf "@.Ambient sweep (first mismatching trace-cycle):@.";
  List.iter
    (fun ambient ->
      let hw = Soc_system.run (Soc_system.hardware_config ~ambient enc) image in
      Format.printf "  %5.1f degC: %a@." ambient pp_mismatch
        (Soc_system.first_mismatch hw sim))
    [ 25.0; 40.0; 55.0; 70.0; 85.0 ]
