(* From a simulator waveform dump to a reconstructed trace.

   A user with an RTL simulator does not write change vectors by hand —
   they have a VCD dump. This example plays both sides: it fabricates a
   dump the way Questa/Verilator would (here: an interrupt-request line
   pulsing twice per trace-cycle), then runs the analyst's pipeline:
   parse the VCD, sample the signal at its clock, log timeprints per
   trace-cycle, and reconstruct — dumping the reconstruction back to
   VCD for side-by-side viewing in GTKWave.

   Run with: dune exec examples/vcd_pipeline.exe *)

open Timeprint

let m = 32
let clock_period = 10 (* ns *)

let () =
  (* --- the design under test side: produce a VCD dump --------------- *)
  let irq = Signal.of_changes ~m [ 4; 5; 20; 21 ] in
  let dump = Tp_vcd.Vcd.of_signal ~name:"irq" ~clock_period ~initial:false irq in
  Format.printf "Simulator dump (%d bytes of VCD):@.%s@." (String.length dump)
    (String.concat "\n"
       (List.filteri (fun i _ -> i < 12) (String.split_on_char '\n' dump))
    ^ "\n...");

  (* --- the analyst side --------------------------------------------- *)
  let w =
    match Tp_vcd.Vcd.parse dump with
    | Ok w -> w
    | Error e -> failwith e
  in
  Format.printf "@.Variables in the dump:@.";
  List.iter
    (fun v -> Format.printf "  %s (width %d)@." v.Tp_vcd.Vcd.name v.Tp_vcd.Vcd.width)
    (Tp_vcd.Vcd.vars w);

  let signals =
    match Tp_vcd.Vcd.to_signal w ~name:"irq" ~clock_period ~m () with
    | Ok s -> s
    | Error e -> failwith e
  in
  Format.printf "@.%d trace-cycle(s) sampled at %d ns clock@." (List.length signals)
    clock_period;

  let enc = Encoding.random_constrained_auto ~m () in
  List.iteri
    (fun i s ->
      let entry = Logger.abstract enc s in
      Format.printf "@.trace-cycle %d: logged %a@." i Log_entry.pp entry;
      match Plan.enumerate ~assume:[ Property.pulse_pairs ] enc entry with
      | { Sat_reconstruct.signals = [ unique ]; _ } ->
          Format.printf "  unique reconstruction: %a@." Signal.pp unique;
          let back =
            Tp_vcd.Vcd.of_signal ~name:"irq_reconstructed" ~clock_period
              ~initial:false unique
          in
          Format.printf "  re-dumped as VCD (%d bytes) for GTKWave@."
            (String.length back)
      | { Sat_reconstruct.signals; _ } ->
          Format.printf "  %d candidate reconstructions@." (List.length signals))
    signals
