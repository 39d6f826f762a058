(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) plus the design ablations called out in DESIGN.md.

     dune exec bench/main.exe                 # quick mode (minutes)
     dune exec bench/main.exe -- --full       # paper-scale m (hours)
     dune exec bench/main.exe -- table1 soc   # selected sections

   Sections: fig4 table1 table2 can incremental faults soc engines
   parallel pack solvercore daemon flow kernels ablation baseline
   micro.
   [--smoke] shrinks the grids and budgets for the tier1 alias's smoke
   run.

   Absolute times are not comparable to the paper's (their substrate
   was Cryptominisat on an i7; ours is the in-repo CDCL solver) — the
   shapes are: growth in m and k, the ordering of property-pruning
   columns, and the experiment verdicts. EXPERIMENTS.md records the
   comparison. *)

open Timeprint

(* Conflict budget per SAT query: quick mode caps runaway unpruned
   solves at roughly a minute; --full allows paper-scale patience. *)
let conflict_budget = ref 15_000

(* ------------------------------------------------------------------ *)
(* Timing helpers — monotonic wall clock. [Sys.time] measures process
   CPU time, which is blind to anything that blocks and drifts against
   the wall-clock figures the paper reports.                           *)

let time f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9, r)

let pp_time ppf t =
  if t < 0. then Format.pp_print_string ppf "  budget "
  else if t >= 60. then
    Format.fprintf ppf "%2dm%05.2fs" (int_of_float t / 60) (Float.rem t 60.)
  else Format.fprintf ppf "%8.3fs" t

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every Gauss/presolve ablation run is
   recorded and written to BENCH_pr2.json, with per-section median
   speedups (both-on over both-off), so the claimed effect is a number
   in the repo rather than a sentence in a doc. The headline
   "speedups" median ranges over the pairs where the auto policy
   enables the engine — the shipped default — since forcing it on
   needle instances is a configuration nothing ships;
   "speedups_all_pairs" keeps the unfiltered median for transparency. *)

type bench_row = {
  section : string;
  m : int;
  k : int option; (* None: mixed per-entry k (batched sections) *)
  b : int;
  encoding_name : string;
  gauss_on : bool; (* true: gauss + presolve on; false: both off *)
  engaged : bool; (* would the auto policy enable the engine here? *)
  median_s : float;
  times_s : float list; (* negative = budget-exhausted, excluded *)
  conflicts : int;
  propagations : int;
}

let bench_rows : bench_row list ref = ref []
let add_bench_row r = bench_rows := r :: !bench_rows

let median l =
  match List.sort compare (List.filter (fun t -> t >= 0.) l) with
  | [] -> -1.
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let write_bench_json () =
  match List.rev !bench_rows with
  | [] -> ()
  | rows ->
      let open Bench_json in
      let cells =
        List.map
          (fun r ->
            Obj
              [
                ("section", Str r.section);
                ("m", int r.m);
                ("k", opt int r.k);
                ("b", int r.b);
                ("encoding", Str r.encoding_name);
                ("gauss", Bool r.gauss_on);
                ("engaged", Bool r.engaged);
                ("median_s", time_s r.median_s);
                ("times_s", List (List.map time_s r.times_s));
                ("conflicts", int r.conflicts);
                ("propagations", int r.propagations);
              ])
          rows
      in
      let key r = (r.m, r.k, r.b, r.encoding_name) in
      let sections =
        List.sort_uniq compare (List.map (fun r -> r.section) rows)
      in
      let speedups_where keep =
        List.filter_map
          (fun sec ->
            let secrows = List.filter (fun r -> r.section = sec) rows in
            let ratios =
              List.filter_map
                (fun on ->
                  if (not on.gauss_on) || not (keep on) then None
                  else
                    match
                      List.find_opt
                        (fun off -> (not off.gauss_on) && key off = key on)
                        secrows
                    with
                    | Some off when on.median_s > 0. && off.median_s >= 0. ->
                        Some (off.median_s /. on.median_s)
                    | _ -> None)
                secrows
            in
            if ratios = [] then None else Some (sec, median ratios))
          sections
      in
      let headline = speedups_where (fun r -> r.engaged) in
      write "BENCH_pr2.json"
        ~summary:
          (Printf.sprintf "%d rows;%s" (List.length rows)
             (String.concat ","
                (List.map
                   (fun (sec, sp) -> Printf.sprintf " %s speedup %.2fx" sec sp)
                   headline)))
        (document ~name:"gauss-ablation" ~medians:headline ~cells
           [
             ( "speedups_all_pairs",
               Obj
                 (List.map
                    (fun (sec, sp) -> (sec, ratio sp))
                    (speedups_where (fun _ -> true))) );
           ])

(* ------------------------------------------------------------------ *)
(* Engine crossover grid → BENCH_pr3.json: per-(m,k) medians for the
   planner and each forced engine on the same enumerate-up-to-10
   query, plus which engine the planner chose. The acceptance bar:
   the planner matches or beats forced SAT on every cell, and some
   cell has a non-SAT engine ahead by >= 2x. *)

type engine_cell = {
  ec_m : int;
  ec_k : int;
  ec_b : int;
  ec_nullity : int;
  ec_chosen : string;
  ec_planner_s : float;
  ec_sat_s : float;
  ec_linear_s : float option; (* None: capability/policy-skipped *)
  ec_mitm_s : float option;
}

let engine_cells : engine_cell list ref = ref []

let write_engines_json () =
  match List.rev !engine_cells with
  | [] -> ()
  | cells ->
      let open Bench_json in
      let rows =
        List.map
          (fun c ->
            Obj
              [
                ("m", int c.ec_m);
                ("k", int c.ec_k);
                ("b", int c.ec_b);
                ("nullity", int c.ec_nullity);
                ("planner_engine", Str c.ec_chosen);
                ("planner_s", time_s c.ec_planner_s);
                ("sat_s", time_s c.ec_sat_s);
                ("linear_s", opt time_s c.ec_linear_s);
                ("mitm_s", opt time_s c.ec_mitm_s);
              ])
          cells
      in
      let usable =
        List.filter (fun c -> c.ec_planner_s >= 0. && c.ec_sat_s >= 0.) cells
      in
      let matches =
        (* "matching" allows measurement noise on sub-millisecond cells *)
        List.filter
          (fun c -> c.ec_planner_s <= (c.ec_sat_s *. 1.15) +. 0.002)
          usable
      in
      let best_nonsat =
        List.fold_left
          (fun acc c ->
            if c.ec_chosen <> "sat" && c.ec_planner_s > 0. then
              max acc (c.ec_sat_s /. c.ec_planner_s)
            else acc)
          0. usable
      in
      write "BENCH_pr3.json"
        ~summary:
          (Printf.sprintf
             "%d cells; planner matches/beats SAT on %d; best non-SAT speedup \
              %.1fx"
             (List.length usable) (List.length matches) best_nonsat)
        (document ~name:"engines" ~cells:rows
           [
             ( "summary",
               Obj
                 [
                   ("cells", int (List.length usable));
                   ("planner_matches_or_beats_sat", int (List.length matches));
                   ("best_nonsat_speedup", ratio best_nonsat);
                 ] );
           ])

(* one reconstruction timing: first solution and 10th solution *)
let times first enumerate =
  let t1, r1 = time first in
  let t10, (r10 : Sat_reconstruct.enumeration) = time enumerate in
  ( (match r1 with `Unknown -> -1. | _ -> t1),
    if r10.complete || List.length r10.signals = 10 then t10 else -1. )

(* [times] through the planner, which picks the engine ({!table1}) *)
let plan_times ~assume enc entry =
  let conflict_budget = !conflict_budget in
  times
    (fun () -> Plan.first ~assume ~conflict_budget enc entry)
    (fun () -> Plan.enumerate ~assume ~conflict_budget ~max_solutions:10 enc entry)

(* [times] on the SAT oracle, with the problem's knobs ({!table1_gauss}) *)
let sat_times pb =
  let conflict_budget = !conflict_budget in
  times
    (fun () -> Sat_reconstruct.first ~conflict_budget pb)
    (fun () -> Sat_reconstruct.enumerate ~max_solutions:10 ~conflict_budget pb)

(* A signal with k changes that satisfies P2 and Dk (count<=3, D=32):
   an adjacent pair early, a third early change, the rest random. *)
let constrained_signal ~m ~k =
  let st = Random.State.make [| 0xbeef; m; k |] in
  if k < 3 then Signal.random st ~m ~k
  else begin
    let fixed = [ 5; 6; 20 ] in
    let rec draw acc need =
      if need = 0 then acc
      else begin
        let c = Random.State.int st m in
        if List.mem c acc then draw acc need else draw (c :: acc) (need - 1)
      end
    in
    Signal.of_changes ~m (draw fixed (k - 3))
  end

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)

let fig4_timestamps =
  [|
    "00010100"; "00111010"; "00001111"; "01000100";
    "00000010"; "10101110"; "01100000"; "11110101";
    "00010111"; "11100111"; "10100000"; "10101000";
    "10011110"; "10001111"; "01110000"; "01101100";
  |]

let fig4 () =
  Format.printf "@.== Figure 4: didactic example (m=16, b=8) ==@.";
  let enc = Encoding.custom (Array.map Tp_bitvec.Bitvec.of_string fig4_timestamps) in
  let actual = Signal.of_string "0001100001100000" in
  let entry = Logger.abstract enc actual in
  Format.printf "logged entry: %a@." Log_entry.pp entry;
  Format.printf "preimages ignoring k : %d   (paper: 256)@."
    (Linear_reconstruct.preimage_size_unbounded enc entry);
  let with_k = Plan.enumerate enc entry in
  Format.printf "preimages with k = 4 : %d   (paper: 8)@."
    (List.length with_k.Sat_reconstruct.signals);
  let pruned = Plan.enumerate ~assume:[ Property.pulse_pairs ] enc entry in
  Format.printf "with pulse property  : %d   (paper: 1)@."
    (List.length pruned.Sat_reconstruct.signals);
  Format.printf "deadline i=8 check   : %a   (paper: met by all)@."
    Sat_reconstruct.pp_check_result
    (Plan.check enc entry (Property.deadline ~count:1 ~before:8))

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let table1_rows ~full =
  if full then
    [
      (64, [ 3; 4; 8; 32 ]);
      (128, [ 3; 4; 8; 16 ]);
      (512, [ 3; 4; 8 ]);
      (1024, [ 3; 4; 8 ]);
    ]
  else [ (64, [ 3; 4; 8; 32 ]); (128, [ 3; 4; 8; 16 ]) ]

(* random-constrained greedy generation cannot reach LI-4 beyond
   roughly C(n,3) < 2^b; for the paper-scale rows we use the BCH
   construction (guaranteed LI-4, b = 2*ceil(log2(m+1))) *)
let encoding_for m =
  if m >= 512 then Encoding.bch ~m
  else Encoding.random_constrained_auto ~m ~seed:0x7155 ()

let table1 ~full () =
  Format.printf
    "@.== Table 1: reconstruction time vs (m, k), random-constrained LI-4 ==@.";
  Format.printf "%-9s %3s %9s %9s %9s %9s %9s %9s %9s %9s %10s@." "m/k" "b"
    "c-SAT.1" "c-SAT.10" "c+P2.1" "c+P2.10" "c+Dk.1" "c+Dk.10" "c+DkP2.1"
    "c+DkP2.10" "R@100MHz";
  List.iter
    (fun (m, ks) ->
      let enc = encoding_for m in
      let rate = Design.log_rate_hz enc ~clock_hz:100e6 /. 1e6 in
      List.iter
        (fun k ->
          let s = constrained_signal ~m ~k in
          let entry = Logger.abstract enc s in
          let p2 = Property.p2 in
          let dk = Property.deadline ~count:(min 3 k) ~before:32 in
          let col assume = plan_times ~assume enc entry in
          let c1, c10 = col [] in
          let p1, p10 = col [ p2 ] in
          let d1, d10 = col [ dk ] in
          let pd1, pd10 = col [ dk; p2 ] in
          Format.printf "%-9s %3d %a %a %a %a %a %a %a %a %7.2fMHz@."
            (Printf.sprintf "%d/%d" m k)
            (Encoding.b enc) pp_time c1 pp_time c10 pp_time p1 pp_time p10
            pp_time d1 pp_time d10 pp_time pd1 pp_time pd10 rate)
        ks)
    (table1_rows ~full)

(* Gauss engine + F₂ presolve on vs off on the SAT oracle, over the
   Table 1 grid ({!table1} goes through the planner instead). The
   off-configuration is the seed's path (chunked XOR rows, lazy watch
   scheme, no presolve). Recorded to BENCH_pr2.json. *)
let table1_gauss ~full () =
  Format.printf
    "@.== Table 1 ablation: gauss+presolve on vs off ==@.";
  Format.printf "   (* = the auto policy engages the engine by default)@.";
  Format.printf "%-9s %3s %9s %9s %9s %9s %9s@." "m/k" "b" "on.1" "on.10"
    "off.1" "off.10" "speedup";
  List.iter
    (fun (m, ks) ->
      let enc = encoding_for m in
      List.iter
        (fun k ->
          let s = constrained_signal ~m ~k in
          let entry = Logger.abstract enc s in
          let engaged = Sat_reconstruct.auto_gauss (Sat_reconstruct.problem enc entry) in
          let run gauss_on =
            let pb =
              if gauss_on then
                Sat_reconstruct.problem ~presolve:true ~gauss:true enc entry
              else Sat_reconstruct.problem ~presolve:false ~gauss:false enc entry
            in
            let t1, t10 = sat_times pb in
            (* solver-work counters for the record: one more
               first-query on a session with the same settings *)
            let sess = Sat_reconstruct.Session.create pb in
            ignore (Sat_reconstruct.Session.first ~conflict_budget:!conflict_budget sess);
            let st = Sat_reconstruct.Session.last_stats sess in
            add_bench_row
              {
                section = "table1";
                m;
                k = Some k;
                b = Encoding.b enc;
                encoding_name =
                  (if m >= 512 then "bch" else "random-constrained");
                gauss_on;
                engaged;
                median_s = median [ t1; t10 ];
                times_s = [ t1; t10 ];
                conflicts = st.Tp_sat.Solver.conflicts;
                propagations = st.Tp_sat.Solver.propagations;
              };
            (t1, t10)
          in
          let on1, on10 = run true in
          let off1, off10 = run false in
          let m_on = median [ on1; on10 ] and m_off = median [ off1; off10 ] in
          Format.printf "%-9s %3d %a %a %a %a "
            (Printf.sprintf "%d/%d%s" m k (if engaged then "*" else ""))
            (Encoding.b enc) pp_time on1 pp_time on10 pp_time off1 pp_time
            off10;
          if m_on > 0. && m_off >= 0. then
            Format.printf "%8.2fx@." (m_off /. m_on)
          else Format.printf "%9s@." "-")
        ks)
    (table1_rows ~full)

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)

let table2 ~full () =
  Format.printf
    "@.== Table 2: timestamp encoding schemes (random-constrained vs incremental) ==@.";
  let cases =
    if full then [ (512, 3); (512, 4); (1024, 3) ]
    else [ (128, 3); (128, 4); (256, 3) ]
  in
  Format.printf "%-10s %-20s %3s %9s %9s %9s %9s@." "m/k" "encoding" "b" "c-SAT"
    "c+P2" "c+Dk" "c+Dk+P2";
  List.iter
    (fun (m, k) ->
      let run name enc =
        let s = constrained_signal ~m ~k in
        let entry = Logger.abstract enc s in
        let p2 = Property.p2 in
        let dk = Property.deadline ~count:(min 3 k) ~before:32 in
        let first assume =
          let t, r =
            time (fun () ->
                Plan.first ~assume ~conflict_budget:!conflict_budget enc entry)
          in
          match r with `Unknown -> -1. | _ -> t
        in
        let c = first [] in
        let p = first [ p2 ] in
        let d = first [ dk ] in
        let pd = first [ dk; p2 ] in
        Format.printf "%-10s %-20s %3d %a %a %a %a@."
          (Printf.sprintf "%d/%d" m k)
          name (Encoding.b enc) pp_time c pp_time p pp_time d pp_time pd
      in
      run "random-constrained" (encoding_for m);
      run "incremental" (Encoding.incremental_auto ~m ()))
    cases

(* ------------------------------------------------------------------ *)
(* Experiment 5.2.1: CAN                                               *)

let can ~full () =
  let open Tp_canbus in
  Format.printf "@.== Experiment 5.2.1: CAN bus forensics ==@.";
  let m = if full then 1000 else 250 in
  let b = 24 in
  let enc = Encoding.random_constrained ~m ~b ~seed:2019 () in
  Format.printf
    "m=%d b=%d: log rate %.0f bps at 5 Mbps (paper: 170 bps at m=1000)@." m b
    (Design.log_rate_hz enc ~clock_hz:5e6);
  let periodics =
    [
      Scheduler.periodic Message.engine_data ~period:(4 * m) ~offset:40;
      (* single instance, in a different trace-cycle than the suspect *)
      Scheduler.periodic Message.gearbox_info ~period:(8 * m) ~offset:320;
    ]
  in
  let duration = 8 * m in
  let delay = 61 in
  let requests =
    Scheduler.requests ~duration ~delays:[ ("EngineData", 1, delay) ] periodics
  in
  let tl = Bus.simulate ~bitrate:5_000_000 ~duration requests in
  let entries = Forensics.log_timeline enc tl in
  let release = 40 + (4 * m) + delay in
  let tc = release / m in
  let entry = List.nth entries tc in
  Format.printf "suspect trace-cycle %d: %a@." tc Log_entry.pp entry;
  let flen = Signal.length (Forensics.change_pattern Message.engine_data) in

  (* whole trace-cycle window (paper: 38.279 s) *)
  let t_whole, whole =
    time (fun () ->
        Forensics.locate_transmission ~window:(0, m - flen) enc entry
          Message.engine_data)
  in
  (match whole with
  | Ok { Forensics.start_cycle; end_cycle; _ } ->
      Format.printf "whole-cycle reconstruction: cycles %d..%d in %a@."
        start_cycle end_cycle pp_time t_whole
  | Error e ->
      Format.printf "whole-cycle reconstruction failed (%s) %a@." e pp_time
        t_whole);

  (* restricted failure window (paper: 3.082 s) *)
  let wlo = max 0 ((release mod m) - 30)
  and whi = min (m - flen) ((release mod m) + 30) in
  let t_win, win =
    time (fun () ->
        Forensics.locate_transmission ~window:(wlo, whi) enc entry
          Message.engine_data)
  in
  (match win with
  | Ok { Forensics.start_cycle; _ } ->
      Format.printf "failure-window reconstruction: starts at %d in %a@."
        start_cycle pp_time t_win
  | Error e -> Format.printf "failure-window reconstruction failed (%s)@." e);

  (* deadline property, one-sided as in the paper: assuming the
     transmission completed before the deadline, is any reconstruction
     consistent?  UNSAT assigns liability (paper: 1.597 s) *)
  let deadline = (release mod m) + flen - 10 in
  let t_dl, verdict =
    time (fun () ->
        Plan.first ~conflict_budget:!conflict_budget
          ~assume:[ Forensics.completed_before Message.engine_data ~deadline ]
          enc entry)
  in
  Format.printf "\"completed before deadline\" query: %s in %a (paper: UNSAT)@."
    (match verdict with
    | `Unsat -> "UNSAT"
    | `Signal _ -> "SAT"
    | `Unknown -> "budget exhausted")
    pp_time t_dl

(* ------------------------------------------------------------------ *)
(* Incremental vs cold solving                                         *)

(* Reconstruct every trace-cycle of a multi-cycle CAN log twice: cold
   (a fresh solver per entry, as the pre-session code did) and batched
   (one incremental solver, timestamp rows shared in parity-select
   form, per-entry timeprint bits and k-group pinned by assumptions).
   Same verdicts, one learned clause database. *)
let incremental ~full () =
  let open Tp_canbus in
  Format.printf "@.== Incremental vs cold reconstruction (CAN log) ==@.";
  (* generous per-query budget so both paths decide every entry and the
     comparison is verdict-for-verdict *)
  let budget = max !conflict_budget 50_000 in
  let m = if full then 256 else 128 in
  let b = if full then 20 else 16 in
  let enc = Encoding.random_constrained ~m ~b ~seed:2019 () in
  (* periods are multiples of the trace-cycle length, so each message
     recurs at the same in-cycle alignment: the log mixes idle cycles
     with a handful of recurring entry shapes, as a real periodic bus
     does, and the incremental solver gets to replay what it learned *)
  let periodics =
    [
      Scheduler.periodic Message.engine_data ~period:(4 * m) ~offset:25;
      Scheduler.periodic Message.gearbox_info ~period:(6 * m) ~offset:(m / 2);
    ]
  in
  let duration = (if full then 96 else 48) * m in
  let requests = Scheduler.requests ~duration periodics in
  let tl = Bus.simulate ~bitrate:5_000_000 ~duration requests in
  let entries = Forensics.log_timeline enc tl in
  Format.printf "m=%d b=%d, %d trace-cycles@." m b (List.length entries);

  let t_cold, cold =
    time (fun () ->
        List.map
          (fun e -> Plan.first ~conflict_budget:budget enc e)
          entries)
  in
  let t_inc, inc =
    time (fun () -> Sat_reconstruct.batch ~conflict_budget:budget ~gauss:true enc entries)
  in
  let t_inc_off, inc_off =
    time (fun () ->
        Sat_reconstruct.batch ~conflict_budget:budget ~gauss:false enc entries)
  in
  List.iteri
    (fun i (v, _, st) ->
      if i < 12 then
        Format.printf
          "  entry %2d: %-7s conflicts=%-5d decisions=%-6d propagations=%-8d learnt=%d@."
          i
          (match v with
          | `Signal _ -> "SAT"
          | `Unsat -> "UNSAT"
          | `Unknown -> "unknown")
          st.Tp_sat.Solver.conflicts st.Tp_sat.Solver.decisions
          st.Tp_sat.Solver.propagations st.Tp_sat.Solver.learnt)
    inc;
  let total_conflicts =
    List.fold_left (fun acc (_, _, st) -> acc + st.Tp_sat.Solver.conflicts) 0 inc
  in
  Format.printf "  … (%d entries total, %d conflicts across the batch)@."
    (List.length inc) total_conflicts;
  let agree =
    List.for_all2
      (fun c (v, _, _) ->
        match (c, v) with
        | `Signal _, `Signal _ | `Unsat, `Unsat | `Unknown, `Unknown -> true
        | _ -> false)
      cold inc
  in
  let agree_off =
    List.for_all2
      (fun (v, _, _) (v', _, _) ->
        match (v, v') with
        | `Signal _, `Signal _ | `Unsat, `Unsat | `Unknown, `Unknown -> true
        | _ -> false)
      inc inc_off
  in
  Format.printf "verdicts agree: %b (gauss off: %b)@." agree agree_off;
  Format.printf "cold (fresh solver per entry)    : %a@." pp_time t_cold;
  Format.printf "incremental (one solver, gauss)  : %a@." pp_time t_inc;
  Format.printf "incremental (one solver, no gauss): %a@." pp_time t_inc_off;
  let totals rs =
    List.fold_left
      (fun (c, p) (_, _, st) ->
        (c + st.Tp_sat.Solver.conflicts, p + st.Tp_sat.Solver.propagations))
      (0, 0) rs
  in
  let row gauss_on t rs =
    let c, p = totals rs in
    add_bench_row
      {
        section = "incremental";
        m;
        k = None;
        b;
        encoding_name = "random-constrained";
        gauss_on;
        (* the batched parity-select structure always engages *)
        engaged = true;
        median_s = t;
        times_s = [ t ];
        conflicts = c;
        propagations = p;
      }
  in
  row true t_inc inc;
  row false t_inc_off inc_off;

  (* session: repeated property checks against one suspect entry *)
  let entry = List.nth entries (List.length entries / 2) in
  let props =
    [
      Property.p2;
      Property.deadline ~count:1 ~before:(m / 2);
      Property.window ~lo:0 ~hi:(m - 1);
      Property.deadline ~count:2 ~before:m;
    ]
  in
  let t_ccheck, cold_verdicts =
    time (fun () ->
        List.map
          (fun p -> Plan.check ~conflict_budget:budget enc entry p)
          props)
  in
  let t_scheck, session_verdicts =
    time (fun () ->
        let session = Sat_reconstruct.Session.create (Sat_reconstruct.problem enc entry) in
        List.map
          (fun p ->
            let r = Sat_reconstruct.Session.check ~conflict_budget:budget session p in
            let st = Sat_reconstruct.Session.last_stats session in
            Format.printf "  check %-18s conflicts=%-5d decisions=%-6d learnt=%d@."
              (Format.asprintf "%a:" Property.pp p)
              st.Tp_sat.Solver.conflicts st.Tp_sat.Solver.decisions
              st.Tp_sat.Solver.learnt;
            r)
          props)
  in
  Format.printf "check verdicts agree: %b@." (cold_verdicts = session_verdicts);
  Format.printf "cold checks    : %a@." pp_time t_ccheck;
  Format.printf "session checks : %a@." pp_time t_scheck

(* ------------------------------------------------------------------ *)
(* Fault injection → BENCH_pr4.json: repair-ladder cost and health mix
   on a periodic CAN log with a corrupted trace channel, as a function
   of the per-entry flip budget e. The e = 0 row is the plain
   quarantine path (no error literals), so the delta over it is the
   price of tolerance. *)

type fault_row = {
  f_repair : int;
  f_time_s : float;
  f_clean : int;
  f_repaired : int;
  f_quarantined : int;
  f_conflicts : int;
}

let fault_rows : fault_row list ref = ref []
let fault_meta = ref (0, 0, 0, 0) (* m, b, entries, faulty entries *)

let write_faults_json () =
  match List.rev !fault_rows with
  | [] -> ()
  | rows ->
      let open Bench_json in
      let m, b, n, faulty = !fault_meta in
      write "BENCH_pr4.json"
        ~summary:(Printf.sprintf "%d budgets" (List.length rows))
        (document ~name:"faults"
           ~cells:
             (List.map
                (fun r ->
                  Obj
                    [
                      ("repair", int r.f_repair);
                      ("time_s", time_s r.f_time_s);
                      ("clean", int r.f_clean);
                      ("repaired", int r.f_repaired);
                      ("quarantined", int r.f_quarantined);
                      ("conflicts", int r.f_conflicts);
                    ])
                rows)
           [
             ("m", int m);
             ("b", int b);
             ("entries", int n);
             ("faulty", int faulty);
           ])

let faults ~full ~smoke () =
  let open Tp_canbus in
  Format.printf
    "@.== Fault injection: repair time and quarantine rate vs budget ==@.";
  (* corrupted-but-consistent entries are random-XOR instances — much
     harder than clean ones — so the smoke run keeps its small budget
     and accepts an Unknown-quarantine or two *)
  let budget = if smoke then !conflict_budget else max !conflict_budget 50_000 in
  let m = if full then 256 else if smoke then 48 else 128 in
  let b = if full then 20 else 16 in
  let enc = Encoding.random_constrained ~m ~b ~seed:2019 () in
  let periodics =
    [
      Scheduler.periodic Message.engine_data ~period:(4 * m) ~offset:25;
      Scheduler.periodic Message.gearbox_info ~period:(6 * m) ~offset:(m / 2);
    ]
  in
  let duration = (if full then 96 else if smoke then 24 else 48) * m in
  let requests = Scheduler.requests ~duration periodics in
  let tl = Bus.simulate ~bitrate:5_000_000 ~duration requests in
  let clean_log = Forensics.log_timeline enc tl in
  (* flips only — same entry count for every budget, so the health
     columns are comparable across rows *)
  let spec = Fault.spec ~rate:0.3 ~max_flips:2 () in
  let corrupted, events = Fault.inject ~seed:0xfa17 spec ~m clean_log in
  let faulty = List.length (Fault.indices events) in
  fault_meta := (m, b, List.length corrupted, faulty);
  Format.printf "m=%d b=%d, %d trace-cycles, %d corrupted (<=2 flips each)@." m
    b (List.length corrupted) faulty;
  List.iter
    (fun e ->
      let t, results =
        time (fun () ->
            Plan.run_stream ~conflict_budget:budget ~repair:e enc corrupted)
      in
      let clean, repaired, quarantined, conflicts =
        List.fold_left
          (fun (c, r, q, cf) (_, health, tag) ->
            let cf =
              match tag with
              | `Sat st -> cf + st.Tp_sat.Solver.conflicts
              | `Presolve | `Mitm -> cf
            in
            match health with
            | Sat_reconstruct.Clean -> (c + 1, r, q, cf)
            | Sat_reconstruct.Repaired _ -> (c, r + 1, q, cf)
            | Sat_reconstruct.Quarantined -> (c, r, q + 1, cf))
          (0, 0, 0, 0) results
      in
      Format.printf
        "  repair<=%d: %a  %d clean / %d repaired / %d quarantined@." e pp_time
        t clean repaired quarantined;
      fault_rows :=
        {
          f_repair = e;
          f_time_s = t;
          f_clean = clean;
          f_repaired = repaired;
          f_quarantined = quarantined;
          f_conflicts = conflicts;
        }
        :: !fault_rows)
    [ 0; 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Experiment 5.2.2: SoC                                               *)

let soc ~full () =
  let open Tp_soc in
  Format.printf
    "@.== Experiment 5.2.2: temperature-compensated refresh detection ==@.";
  let m = if full then 1024 else 256 in
  let b = if full then 24 else 20 in
  let enc = Encoding.random_constrained ~m ~b ~seed:5 () in
  let image =
    Isa.stride_walker ~steps:(if full then 2400 else 600) ~base:0x8000 ~stride:3
  in
  let hw = Soc_system.run (Soc_system.hardware_config ~ambient:55.0 enc) image in
  let sim_buggy =
    Soc_system.run (Soc_system.simulation_config ~wait_states:0 enc) image
  in
  let sim = Soc_system.run (Soc_system.simulation_config ~wait_states:1 enc) image in
  let pp_mm ppf = function
    | `K i -> Format.fprintf ppf "k mismatch at trace-cycle %d" i
    | `Tp i -> Format.fprintf ppf "TP mismatch at trace-cycle %d" i
    | `None -> Format.pp_print_string ppf "no mismatch"
  in
  Format.printf "hw vs buggy sim (wrong wait states): %a (paper: k mismatch)@."
    pp_mm
    (Soc_system.first_mismatch hw sim_buggy);
  let mismatch = Soc_system.first_mismatch hw sim in
  Format.printf "hw vs fixed sim: %a (paper: TP-only mismatch)@." pp_mm mismatch;
  (match mismatch with
  | `Tp tc ->
      let hw_entry = List.nth hw.Soc_system.entries tc in
      let sim_signal = List.nth sim.Soc_system.signals tc in
      let t, result =
        time (fun () ->
            Plan.enumerate ~conflict_budget:!conflict_budget
              ~assume:[ Property.delayed_once sim_signal ]
              enc hw_entry)
      in
      Format.printf "delayed-once localization: %d solution(s) in %a@."
        (List.length result.Sat_reconstruct.signals)
        pp_time t;
      List.iter
        (fun (tc', c) ->
          if tc' = tc then Format.printf "  ground-truth delay: cycle %d@." c)
        hw.Soc_system.delayed_changes
  | _ -> ());
  Format.printf
    "@.ambient sweep (first mismatching trace-cycle; paper: 3rd..28th):@.";
  List.iter
    (fun ambient ->
      let hw = Soc_system.run (Soc_system.hardware_config ~ambient enc) image in
      Format.printf "  %5.1f degC -> %a@." ambient pp_mm
        (Soc_system.first_mismatch hw sim))
    [ 25.0; 40.0; 55.0; 70.0; 85.0 ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation () =
  Format.printf "@.== Ablations: design choices of the reduction ==@.";
  let m = 96 and k = 8 in
  let enc = Encoding.random_constrained ~m ~b:15 ~seed:4 () in
  let s = constrained_signal ~m ~k in
  let entry = Logger.abstract enc s in

  (* 1. native XOR vs CNF-expanded XOR *)
  let solve_cnf cnf =
    time (fun () ->
        Tp_sat.Solver.solve ~conflict_budget:!conflict_budget (Tp_sat.Solver.of_cnf cnf))
  in
  let base_cnf, _ = Sat_reconstruct.to_cnf (Sat_reconstruct.problem enc entry) in
  let t_native, r1 = solve_cnf base_cnf in
  let t_expanded, r2 = solve_cnf (Tp_sat.Cnf.expand_xors base_cnf) in
  assert (r1 = r2);
  Format.printf "xor handling      : native %a   cnf-expanded %a@." pp_time
    t_native pp_time t_expanded;

  (* 2. chunked vs monolithic xor rows *)
  let with_rows add_row =
    let cnf = Tp_sat.Cnf.create () in
    let xvars = Array.init m (fun _ -> Tp_sat.Cnf.new_var cnf) in
    let tp = Log_entry.tp entry in
    for j = 0 to Encoding.b enc - 1 do
      let vars = ref [] in
      for i = 0 to m - 1 do
        if Tp_bitvec.Bitvec.get (Encoding.timestamp enc i) j then
          vars := xvars.(i) :: !vars
      done;
      add_row cnf ~vars:!vars ~parity:(Tp_bitvec.Bitvec.get tp j)
    done;
    Tp_sat.Cardinality.exactly cnf
      (Array.to_list (Array.map Tp_sat.Lit.pos xvars))
      (Log_entry.k entry);
    cnf
  in
  let t_mono, _ = solve_cnf (with_rows (Tp_sat.Cnf.add_xor ?guard:None)) in
  let t_chunk, _ =
    solve_cnf (with_rows (Tp_sat.Cnf.add_xor_chunked ?chunk:None ?guard:None))
  in
  Format.printf "xor row splitting : chunked %a   monolithic %a@." pp_time
    t_chunk pp_time t_mono;

  (* 3. Sinz sequential counter vs naive pairwise cardinality *)
  let small_m = 24 and small_k = 3 in
  let enc_s = Encoding.random_constrained ~m:small_m ~b:10 ~seed:4 () in
  let s_s = constrained_signal ~m:small_m ~k:small_k in
  let entry_s = Logger.abstract enc_s s_s in
  let build card =
    let cnf = Tp_sat.Cnf.create () in
    let xvars = Array.init small_m (fun _ -> Tp_sat.Cnf.new_var cnf) in
    let tp = Log_entry.tp entry_s in
    for j = 0 to Encoding.b enc_s - 1 do
      let vars = ref [] in
      for i = 0 to small_m - 1 do
        if Tp_bitvec.Bitvec.get (Encoding.timestamp enc_s i) j then
          vars := xvars.(i) :: !vars
      done;
      Tp_sat.Cnf.add_xor cnf ~vars:!vars ~parity:(Tp_bitvec.Bitvec.get tp j)
    done;
    card cnf (Array.to_list (Array.map Tp_sat.Lit.pos xvars)) small_k;
    cnf
  in
  let t_sinz, _ = solve_cnf (build (Tp_sat.Cardinality.exactly ?guard:None)) in
  let t_pair, _ = solve_cnf (build Tp_sat.Cardinality.exactly_pairwise) in
  Format.printf "cardinality (m=%d): sinz %a   pairwise %a@." small_m pp_time
    t_sinz pp_time t_pair;

  (* 4. encoding depth: reconstruction ambiguity of LI-2 vs LI-4 *)
  let count_at depth =
    let e = Encoding.random_constrained_auto ~depth ~m:14 ~seed:21 () in
    let s = Signal.random (Random.State.make [| 3 |]) ~m:14 ~k:4 in
    (Encoding.b e, List.length (Linear_reconstruct.preimage e (Logger.abstract e s)))
  in
  let b2, n2 = count_at 2 in
  let b4, n4 = count_at 4 in
  Format.printf
    "LI depth (m=14,k=4): LI-2 b=%d %d preimages   LI-4 b=%d %d preimages@." b2
    n2 b4 n4

(* ------------------------------------------------------------------ *)
(* Baseline: conventional trace buffer vs timeprints                    *)

let baseline () =
  Format.printf
    "@.== Baseline: precise-timestamp trace buffer vs timeprints (s1/s3 argument) ==@.";
  let m = 1024 in
  let enc = Encoding.bch ~m in
  let trace_cycles = 2_000 in
  (* bursty workload: calm stretches punctuated by heavy activity *)
  let st = Random.State.make [| 0xca7 |] in
  let workload =
    List.init trace_cycles (fun i ->
        let k = if i mod 50 < 45 then 4 + Random.State.int st 8 else 120 + Random.State.int st 60 in
        Signal.random st ~m ~k)
  in
  let timeprint_bits = trace_cycles * Design.bits_per_trace_cycle enc in
  Format.printf "workload: %d trace-cycles of m=%d (bursty activity)@."
    trace_cycles m;
  Format.printf "timeprints: %d bits total (%d per trace-cycle), coverage 1.00@."
    timeprint_bits
    (Design.bits_per_trace_cycle enc);
  List.iter
    (fun budget_factor ->
      let capacity_bits = timeprint_bits * budget_factor in
      let buf = Trace_buffer.create ~capacity_bits ~m in
      List.iter (fun s -> ignore (Trace_buffer.record_trace_cycle buf s)) workload;
      Format.printf
        "trace buffer %2dx the storage: coverage %.2f%s@."
        budget_factor (Trace_buffer.coverage buf)
        (if Trace_buffer.overflowed buf then "  (overflowed)" else ""))
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot kernels                        *)

let micro () =
  Format.printf "@.== Micro-benchmarks (Bechamel) ==@.";
  let open Bechamel in
  let enc = Encoding.bch ~m:1024 in
  let s = constrained_signal ~m:1024 ~k:32 in
  let entry = Logger.abstract enc s in
  let fig4_enc =
    Encoding.custom (Array.map Tp_bitvec.Bitvec.of_string fig4_timestamps)
  in
  let fig4_entry = Logger.abstract fig4_enc (Signal.of_string "0001100001100000") in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        Test.make ~name:"logger.abstract m=1024 (one trace-cycle)"
          (Staged.stage (fun () -> ignore (Logger.abstract enc s)));
        Test.make ~name:"xor accumulate (one change)"
          (Staged.stage
             (let tp = Tp_bitvec.Bitvec.create (Encoding.b enc) in
              let ts = Encoding.timestamp enc 137 in
              fun () -> Tp_bitvec.Bitvec.xor_in_place tp ts));
        Test.make ~name:"encoding generation m=256 LI-4"
          (Staged.stage (fun () ->
               ignore (Encoding.random_constrained ~m:256 ~b:20 ~seed:1 ())));
        Test.make ~name:"reduction to CNF m=1024 k=32"
          (Staged.stage (fun () ->
               ignore (Sat_reconstruct.to_cnf (Sat_reconstruct.problem enc entry))));
        Test.make ~name:"fig4 full reconstruction (8 solutions)"
          (Staged.stage (fun () ->
               ignore (Plan.enumerate fig4_enc fig4_entry)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          if est > 1e6 then Format.printf "  %-55s %10.3f ms/run@." name (est /. 1e6)
          else Format.printf "  %-55s %10.1f ns/run@." name est
      | _ -> Format.printf "  %-55s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Engine crossover grid (section "engines")                           *)

let engines_grid ~full ~smoke () =
  Format.printf
    "@.== Engine crossover: planner vs forced engines (enumerate <=10) ==@.";
  (* the small-m low-nullity row is the coset engine's regime: b close
     to m leaves a kernel the linear oracle sweeps in microseconds *)
  let rows =
    if smoke then [ (`Small, 24, [ 2; 8 ]); (`Auto, 64, [ 3; 8 ]) ]
    else
      let base =
        [
          (`Small, 24, [ 2; 3; 4; 8; 12 ]);
          (`Auto, 64, [ 2; 3; 4; 8; 16 ]);
          (`Auto, 128, [ 2; 3; 4; 8; 16 ]);
        ]
      in
      if full then base @ [ (`Auto, 512, [ 2; 3; 4 ]) ] else base
  in
  let reps = if smoke then 1 else 3 in
  Format.printf "%-9s %3s %4s %-8s %10s %10s %10s %10s@." "m/k" "b" "null"
    "chosen" "planner" "sat" "linear" "mitm";
  let pp_opt ppf = function
    | None -> Format.fprintf ppf "%10s" "-"
    | Some t -> pp_time ppf t
  in
  List.iter
    (fun (kind, m, ks) ->
      let enc =
        match kind with
        | `Small -> Encoding.random_constrained ~m ~b:18 ~seed:0x7155 ()
        | `Auto -> encoding_for m
      in
      let nullity = Linear_reconstruct.nullity enc in
      List.iter
        (fun k ->
          let s = constrained_signal ~m ~k in
          let entry = Logger.abstract enc s in
          let q =
            Query.make ~conflict_budget:!conflict_budget
              ~answer:(Query.Enumerate { max_solutions = Some 10 })
              enc entry
          in
          let time_engine engine =
            median
              (List.init reps (fun _ ->
                   fst (time (fun () -> ignore (Plan.run ~engine q)))))
          in
          let chosen = (snd (Plan.run q)).Plan.chosen in
          let planner_s = time_engine `Auto in
          let sat_s = time_engine `Sat in
          let linear_s =
            (* a forced coset sweep beyond ~2^20 points is pointless to
               sit through; the capability guard itself cuts at 61 *)
            if nullity <= 20 then Some (time_engine `Linear) else None
          in
          let mitm_s =
            (* feasible = supported k and the k>4 triple table fits;
               forcing an infeasible MITM would just time its SAT
               fallback under the wrong label *)
            if Combinatorial_reconstruct.feasible enc ~k then
              Some (time_engine `Mitm)
            else None
          in
          Format.printf "%-9s %3d %4d %-8s %a %a %a %a@."
            (Printf.sprintf "%d/%d" m k)
            (Encoding.b enc) nullity chosen pp_time planner_s pp_time sat_s
            pp_opt linear_s pp_opt mitm_s;
          engine_cells :=
            {
              ec_m = m;
              ec_k = k;
              ec_b = Encoding.b enc;
              ec_nullity = nullity;
              ec_chosen = chosen;
              ec_planner_s = planner_s;
              ec_sat_s = sat_s;
              ec_linear_s = linear_s;
              ec_mitm_s = mitm_s;
            }
            :: !engine_cells)
        ks)
    rows

(* ------------------------------------------------------------------ *)
(* Multicore scaling (section "parallel") → BENCH_pr5.json: the
   domain-pool stream on a corrupted 48-entry log swept over pool
   sizes, with the byte-identical-triage check run right here, plus a
   populous-preimage count through the cube-and-conquer path. The
   "cores" field records what the container actually offers — on a
   single hardware thread the pool can only demonstrate invariance,
   not speedup, and the JSON says so rather than implying otherwise. *)

type par_row = {
  pr_jobs : int;
  pr_time_s : float;
  pr_clean : int;
  pr_repaired : int;
  pr_quarantined : int;
  pr_identical : bool; (* triage byte-identical to the jobs=1 row *)
}

type par_results = {
  mutable ps_m : int;
  mutable ps_b : int;
  mutable ps_entries : int;
  mutable ps_seq_s : float;
  mutable ps_rows : par_row list;
  mutable ps_cube_count : int;
  mutable ps_cube_exact : bool;
  mutable ps_cube_rows : (int * float * bool) list; (* jobs, time, agrees *)
}

let par_results =
  {
    ps_m = 0;
    ps_b = 0;
    ps_entries = 0;
    ps_seq_s = -1.;
    ps_rows = [];
    ps_cube_count = -1;
    ps_cube_exact = false;
    ps_cube_rows = [];
  }

let write_parallel_json () =
  match List.rev par_results.ps_rows with
  | [] -> ()
  | rows ->
      let open Bench_json in
      let base =
        match List.find_opt (fun r -> r.pr_jobs = 1) rows with
        | Some r -> r.pr_time_s
        | None -> -1.
      in
      let cells =
        List.map
          (fun r ->
            Obj
              [
                ("jobs", int r.pr_jobs);
                ("time_s", time_s r.pr_time_s);
                ( "speedup",
                  ratio
                    (if base > 0. && r.pr_time_s > 0. then base /. r.pr_time_s
                     else -1.) );
                ("clean", int r.pr_clean);
                ("repaired", int r.pr_repaired);
                ("quarantined", int r.pr_quarantined);
                ("identical", Bool r.pr_identical);
              ])
          rows
      in
      write "BENCH_pr5.json"
        ~summary:
          (Printf.sprintf "%d pool sizes on %d core(s)" (List.length rows)
             (Domain.recommended_domain_count ()))
        (document ~name:"parallel" ~cells
           [
             ( "stream",
               Obj
                 [
                   ("m", int par_results.ps_m);
                   ("b", int par_results.ps_b);
                   ("entries", int par_results.ps_entries);
                   ("repair", int 2);
                   ("sequential_s", time_s par_results.ps_seq_s);
                 ] );
             ( "cube",
               Obj
                 [
                   ("count", int par_results.ps_cube_count);
                   ("exact", Bool par_results.ps_cube_exact);
                   ( "rows",
                     List
                       (List.map
                          (fun (jobs, t, agrees) ->
                            Obj
                              [
                                ("jobs", int jobs);
                                ("time_s", time_s t);
                                ("agrees", Bool agrees);
                              ])
                          (List.rev par_results.ps_cube_rows)) );
                 ] );
           ])

let parallel_bench ~full ~smoke ~max_jobs () =
  let open Tp_canbus in
  Format.printf "@.== Multicore scaling: domain-pool stream and cube split ==@.";
  let budget = if smoke then !conflict_budget else max !conflict_budget 50_000 in
  let m = if full then 256 else if smoke then 48 else 128 in
  let b = if full then 20 else 16 in
  let enc = Encoding.random_constrained ~m ~b ~seed:2019 () in
  let periodics =
    [
      Scheduler.periodic Message.engine_data ~period:(4 * m) ~offset:25;
      Scheduler.periodic Message.gearbox_info ~period:(6 * m) ~offset:(m / 2);
    ]
  in
  let duration = (if smoke then 24 else 48) * m in
  let requests = Scheduler.requests ~duration periodics in
  let tl = Bus.simulate ~bitrate:5_000_000 ~duration requests in
  let clean_log = Forensics.log_timeline enc tl in
  let spec = Fault.spec ~rate:0.3 ~max_flips:2 () in
  let corrupted, events = Fault.inject ~seed:0xfa17 spec ~m clean_log in
  par_results.ps_m <- m;
  par_results.ps_b <- b;
  par_results.ps_entries <- List.length corrupted;
  Format.printf "m=%d b=%d, %d trace-cycles, %d corrupted, repair<=2@." m b
    (List.length corrupted)
    (List.length (Fault.indices events));
  (* the invariance check compares the full per-entry triage — verdict
     witness included — rendered to text *)
  let digest results =
    String.concat "|"
      (List.map
         (fun (v, h, tag) ->
           Format.asprintf "%s/%a/%s"
             (match v with
             | `Signal s -> Format.asprintf "S%a" Signal.pp s
             | `Unsat -> "U"
             | `Unknown -> "?")
             Sat_reconstruct.pp_health h
             (match tag with `Presolve -> "p" | `Mitm -> "m" | `Sat _ -> "s"))
         results)
  in
  let stream ?jobs () =
    Plan.run_stream ~conflict_budget:budget ~repair:2 ?jobs enc corrupted
  in
  let t_seq, _ = time (fun () -> stream ()) in
  par_results.ps_seq_s <- t_seq;
  Format.printf "  sequential (no pool)      : %a@." pp_time t_seq;
  let reference = ref "" in
  let sweep =
    List.filter (fun j -> j <= max_jobs) (if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ])
  in
  List.iter
    (fun jobs ->
      let t, results = time (fun () -> stream ~jobs ()) in
      let clean, repaired, quarantined =
        List.fold_left
          (fun (c, r, q) (_, health, _) ->
            match health with
            | Sat_reconstruct.Clean -> (c + 1, r, q)
            | Sat_reconstruct.Repaired _ -> (c, r + 1, q)
            | Sat_reconstruct.Quarantined -> (c, r, q + 1))
          (0, 0, 0) results
      in
      let d = digest results in
      if jobs = 1 then reference := d;
      let identical = d = !reference in
      Format.printf
        "  jobs=%d: %a  %d clean / %d repaired / %d quarantined%s@." jobs
        pp_time t clean repaired quarantined
        (if identical then "" else "  TRIAGE DIVERGED");
      par_results.ps_rows <-
        {
          pr_jobs = jobs;
          pr_time_s = t;
          pr_clean = clean;
          pr_repaired = repaired;
          pr_quarantined = quarantined;
          pr_identical = identical;
        }
        :: par_results.ps_rows)
    sweep;

  (* cube-and-conquer: a populous preimage (m=24, b=10, k=8 is ~2^9.5
     solutions, above the engage threshold) counted exactly, forced
     onto the SAT engine so the cube path runs rather than the coset
     sweep the auto policy would rightly prefer *)
  Format.printf "  cube split (m=24 b=10 k=8, exact count):@.";
  let enc_c = Encoding.random_constrained ~m:24 ~b:10 ~seed:7 () in
  let s_c = constrained_signal ~m:24 ~k:8 in
  let q =
    Query.make ~conflict_budget:budget
      ~answer:(Query.Count { max_solutions = None })
      enc_c
      (Logger.abstract enc_c s_c)
  in
  let count_of = function
    | Engine.Count (n, e) -> (n, e = `Exact)
    | _ -> (-1, false)
  in
  let t0, seq = time (fun () -> Plan.run ~engine:`Sat q) in
  let n0, exact0 = count_of (fst seq) in
  Format.printf "    sequential: %d solutions%s in %a@." n0
    (if exact0 then " (exact)" else " (lower bound)")
    pp_time t0;
  (* the invariance bar is across pool sizes: every jobs value must
     report the same (count, exactness). The sequential row is context
     only — under a tight smoke budget it can stop at a lower bound
     where the cubes, each with its own conflict budget, finish. *)
  let cube_ref = ref None in
  List.iter
    (fun jobs ->
      let t, (outcome, report) =
        time (fun () -> Plan.run ~engine:`Sat ~jobs q)
      in
      let n, exact = count_of outcome in
      if !cube_ref = None then begin
        cube_ref := Some (n, exact);
        par_results.ps_cube_count <- n;
        par_results.ps_cube_exact <- exact
      end;
      let agrees = Some (n, exact) = !cube_ref in
      let cubes =
        match report.Plan.parallel with
        | Plan.Cubed { cubes; _ } -> cubes
        | _ -> 0
      in
      Format.printf "    jobs=%d (%d cubes): %d solutions%s in %a%s@." jobs
        cubes n
        (if exact then " (exact)" else " (lower bound)")
        pp_time t
        (if agrees then "" else "  COUNT DIVERGED");
      par_results.ps_cube_rows <- (jobs, t, agrees) :: par_results.ps_cube_rows)
    sweep;
  ignore full

(* ------------------------------------------------------------------ *)
(* Compiled design packs (section "pack") → BENCH_pr6.json: the
   per-request setup cost, cold (re-encode the parity-select system
   from scratch) versus warm (clone the pack's solver snapshot), over
   the Table 1 workload, plus the full save/load round trip and the
   byte-identity check of a packed stream against a cold one. Both
   checks are deterministic, so they fail the smoke run loudly instead
   of letting a regression ship as a slightly different verdict. *)

type pack_row = {
  pk_m : int;
  pk_b : int;
  pk_entries : int;
  pk_compile_s : float;
  pk_save_load_s : float;
  pk_cold_setup_s : float;
  pk_warm_setup_s : float;
  pk_cold_stream_s : float;
  pk_warm_stream_s : float;
}

let pack_rows : pack_row list ref = ref []

let write_pack_json () =
  match List.rev !pack_rows with
  | [] -> ()
  | rows ->
      let open Bench_json in
      write "BENCH_pr6.json"
        ~summary:(Printf.sprintf "%d designs" (List.length rows))
        (document ~name:"packs"
           ~cells:
             (List.map
                (fun r ->
                  Obj
                    [
                      ("m", int r.pk_m);
                      ("b", int r.pk_b);
                      ("entries", int r.pk_entries);
                      ("compile_s", time_s r.pk_compile_s);
                      ("save_load_s", time_s r.pk_save_load_s);
                      ("cold_setup_s", time_s r.pk_cold_setup_s);
                      ("warm_setup_s", time_s r.pk_warm_setup_s);
                      ( "setup_speedup",
                        ratio
                          (if r.pk_warm_setup_s > 0. then
                             r.pk_cold_setup_s /. r.pk_warm_setup_s
                           else -1.) );
                      ("cold_stream_s", time_s r.pk_cold_stream_s);
                      ("warm_stream_s", time_s r.pk_warm_stream_s);
                    ])
                rows)
           [])

let pack_bench ~full ~smoke () =
  Format.printf "@.== Design packs: cold vs warm per-request setup ==@.";
  Format.printf "%-9s %9s %12s %12s %8s %11s %11s@." "m/b" "compile"
    "cold-setup" "warm-setup" "speedup" "cold-stream" "warm-stream";
  let ms = if smoke then [ 48 ] else if full then [ 64; 128; 512 ] else [ 64; 128 ] in
  let reps = if smoke then 5 else 9 in
  (* inner amplification beats clock granularity on microsecond setups *)
  let inner = 10 in
  let med_time f =
    median
      (List.init reps (fun _ ->
           let t, () =
             time (fun () ->
                 for _ = 1 to inner do
                   f ()
                 done)
           in
           t /. float_of_int inner))
  in
  List.iter
    (fun m ->
      let enc = encoding_for m in
      let b = Encoding.b enc in
      let st = Random.State.make [| 0x9ac4; m |] in
      let entries =
        List.concat_map
          (fun k ->
            List.init
              (if smoke then 2 else 4)
              (fun _ -> Logger.abstract enc (Signal.random st ~m ~k)))
          (if smoke then [ 2; 3; 4; 8 ] else [ 3; 4; 8 ])
      in
      let pack = Pack.compile enc in
      let path = Filename.temp_file "timeprints" ".tpk" in
      let save_load_s, loaded =
        time (fun () ->
            Pack.save pack path;
            match Pack.load path with
            | Ok p -> p
            | Error e ->
                failwith
                  (Format.asprintf "pack bench: round trip failed: %a"
                     Pack.pp_load_error e))
      in
      Sys.remove path;
      if not (Pack.matches loaded enc) then
        failwith "pack bench: loaded pack does not match its encoding";
      (* per-request setup: the whole batch construction on an empty
         stream — encode + load + propagate cold, copy + clone warm *)
      let cold_setup_s =
        med_time (fun () -> ignore (Sat_reconstruct.batch enc []))
      in
      let warm = Pack.warm loaded in
      let warm_setup () = ignore (Sat_reconstruct.batch ~warm enc []) in
      let warm_setup_s = med_time warm_setup in
      (* compile against warm set-up, paired: each rep times one compile
         and [inner] warm set-ups back to back, each after a full major
         GC so neither pays for the other's garbage. Timed apart, the
         two sides of the ratio can land in different phases of the
         host's speed. *)
      let compiles, ratios =
        List.split
          (List.init 9 (fun _ ->
               Gc.full_major ();
               let c, _ = time (fun () -> Pack.compile enc) in
               Gc.full_major ();
               let w, () =
                 time (fun () ->
                     for _ = 1 to inner do
                       warm_setup ()
                     done)
               in
               (c, c /. (w /. float_of_int inner))))
      in
      let compile_s = median compiles in
      let budget = !conflict_budget in
      let cold_stream_s, cold_results =
        time (fun () -> Plan.run_stream ~conflict_budget:budget enc entries)
      in
      let warm_stream_s, warm_results =
        time (fun () ->
            Plan.run_stream ~conflict_budget:budget ~pack:loaded enc entries)
      in
      if cold_results <> warm_results then
        failwith "pack bench: packed stream differs from cold stream";
      (* the acceptance bar: stamping out a warm session must be at
         least 10x cheaper than compiling the design pack, in the median
         paired rep *)
      let ratio = median ratios in
      if ratio < 10. then
        failwith
          (Printf.sprintf
             "pack bench: warm setup not 10x cheaper than compile (median \
              paired ratio %.1fx; compile %.6fs, warm setup %.6fs)"
             ratio compile_s warm_setup_s);
      Format.printf "%-9s %a %a %a %7.1fx %a %a@."
        (Printf.sprintf "%d/%d" m b)
        pp_time compile_s pp_time cold_setup_s pp_time warm_setup_s
        (if warm_setup_s > 0. then cold_setup_s /. warm_setup_s else -1.)
        pp_time cold_stream_s pp_time warm_stream_s;
      pack_rows :=
        {
          pk_m = m;
          pk_b = b;
          pk_entries = List.length entries;
          pk_compile_s = compile_s;
          pk_save_load_s = save_load_s;
          pk_cold_setup_s = cold_setup_s;
          pk_warm_setup_s = warm_setup_s;
          pk_cold_stream_s = cold_stream_s;
          pk_warm_stream_s = warm_stream_s;
        }
        :: !pack_rows)
    ms

(* ------------------------------------------------------------------ *)
(* Solver core (section "solvercore") → BENCH_pr7.json: the arena
   layout + inprocessing + portfolio changes measured against the seed
   solver. Three cell families:

   - identity: the same unbudgeted [Check] answered with inprocessing
     on and off must return the exact same verdict — a hard [failwith]
     otherwise, so the tier1 smoke run gates on it. (Unbudgeted checks
     are pure functions of the problem; budgeted ones are
     trajectory-dependent and excluded by construction.)
   - speed: the recorded BENCH_pr3 m=128 SAT cells (enumerate <=10,
     budget 15000) re-run on the current solver against the medians
     written by that PR, on the same container class. The acceptance
     bar is a >= 2x median improvement on the SAT-engine cells.
   - portfolio: the same check raced on 1 and 2 domains must return
     identical verdicts; the report's winner config is recorded. *)

type sc_cell = {
  sc_kind : string; (* "identity" | "speed" | "portfolio" *)
  sc_m : int;
  sc_k : int;
  sc_detail : string;
  sc_time_s : float;
  sc_ref_s : float; (* inprocessing-off / PR3-recorded / jobs=1; <0 = n/a *)
}

let sc_cells : sc_cell list ref = ref []

let write_solvercore_json () =
  match List.rev !sc_cells with
  | [] -> ()
  | cells ->
      let open Bench_json in
      let rows =
        List.map
          (fun c ->
            Obj
              [
                ("kind", Str c.sc_kind);
                ("m", int c.sc_m);
                ("k", int c.sc_k);
                ("detail", Str c.sc_detail);
                ("time_s", time_s c.sc_time_s);
                ("ref_s", time_s c.sc_ref_s);
                ( "speedup",
                  ratio
                    (if c.sc_ref_s > 0. && c.sc_time_s > 0. then
                       c.sc_ref_s /. c.sc_time_s
                     else -1.) );
              ])
          cells
      in
      let sat_speedups =
        List.filter_map
          (fun c ->
            if c.sc_kind = "speed" && c.sc_detail = "sat" && c.sc_time_s > 0.
            then Some (c.sc_ref_s /. c.sc_time_s)
            else None)
          cells
      in
      let sat_median = median sat_speedups in
      let n_id =
        List.length (List.filter (fun c -> c.sc_kind = "identity") cells)
      in
      let n_pf =
        List.length (List.filter (fun c -> c.sc_kind = "portfolio") cells)
      in
      (* mismatches abort the run with [failwith] before this writer,
         so reaching here certifies both invariants held *)
      write "BENCH_pr7.json"
        ~summary:
          (Printf.sprintf "%d cells; sat median speedup vs PR3 %s"
             (List.length cells)
             (if sat_median >= 0. then Printf.sprintf "%.2fx" sat_median
              else "n/a"))
        (document ~name:"solvercore" ~cells:rows
           [
             ( "summary",
               Obj
                 [
                   ("identity_cells", int n_id);
                   ("identity_mismatches", int 0);
                   ("portfolio_cells", int n_pf);
                   ("portfolio_invariant", Bool true);
                   ("sat_speedup_median_vs_pr3", ratio sat_median);
                   ("target_2x_met", Bool (sat_median >= 2.));
                 ] );
           ])

let check_str = function
  | Engine.Check `Holds_in_all -> "holds-in-all"
  | Engine.Check `Violated_in_all -> "violated-in-all"
  | Engine.Check `Mixed -> "mixed"
  | Engine.Check `Vacuous -> "vacuous"
  | Engine.Check `Unknown -> "unknown"
  | _ -> "non-check"

let solvercore_bench ~full:_ ~smoke () =
  Format.printf "@.== Solver core: arena + inprocessing + portfolio ==@.";
  let with_inprocess on f =
    Tp_sat.Solver.set_inprocess_default on;
    Fun.protect
      ~finally:(fun () -> Tp_sat.Solver.set_inprocess_default true)
      f
  in
  let check_query m k =
    let enc = encoding_for m in
    let entry = Logger.abstract enc (constrained_signal ~m ~k) in
    Query.make
      ~answer:(Query.Check (Property.deadline ~count:1 ~before:(m / 4)))
      enc entry
  in
  (* -- identity: inprocessing on vs off on unbudgeted checks -------- *)
  let idcells =
    if smoke then [ (64, 8) ] else [ (64, 8); (64, 16); (128, 8); (128, 16) ]
  in
  Format.printf "%-10s %-8s %-16s %10s %10s@." "cell" "m/k" "verdict"
    "inproc-on" "inproc-off";
  List.iter
    (fun (m, k) ->
      let q = check_query m k in
      let t_on, (o_on, _) = time (fun () -> Plan.run q) in
      let t_off, (o_off, _) =
        with_inprocess false (fun () -> time (fun () -> Plan.run q))
      in
      if o_on <> o_off then
        failwith
          (Printf.sprintf
             "solvercore: inprocessed check answer differs from plain on \
              m=%d k=%d"
             m k);
      Format.printf "%-10s %-8s %-16s %a %a@." "identity"
        (Printf.sprintf "%d/%d" m k)
        (check_str o_on) pp_time t_on pp_time t_off;
      sc_cells :=
        {
          sc_kind = "identity";
          sc_m = m;
          sc_k = k;
          sc_detail = check_str o_on;
          sc_time_s = t_on;
          sc_ref_s = t_off;
        }
        :: !sc_cells)
    idcells;
  (* -- speed: the PR3 SAT cells against that PR's recorded medians -- *)
  let refs =
    (* (m, k) -> (sat_s, planner_s) as written in BENCH_pr3.json *)
    if smoke then [ ((64, 8), (1.020624, 0.987330)) ]
    else [ ((128, 8), (13.397805, 12.693901)); ((128, 16), (10.618156, 8.589313)) ]
  in
  let reps = if smoke then 1 else 3 in
  Format.printf "%-10s %-8s %-16s %10s %10s %7s@." "cell" "m/k" "engine" "now"
    "pr3" "x";
  List.iter
    (fun ((m, k), (ref_sat, ref_planner)) ->
      let enc = encoding_for m in
      let entry = Logger.abstract enc (constrained_signal ~m ~k) in
      let q =
        Query.make ~conflict_budget:15_000
          ~answer:(Query.Enumerate { max_solutions = Some 10 })
          enc entry
      in
      List.iter
        (fun (engine, name, ref_s) ->
          let t =
            median
              (List.init reps (fun _ ->
                   fst (time (fun () -> ignore (Plan.run ~engine q)))))
          in
          Format.printf "%-10s %-8s %-16s %a %a %6.2fx@." "speed"
            (Printf.sprintf "%d/%d" m k)
            name pp_time t pp_time ref_s
            (if t > 0. then ref_s /. t else -1.);
          sc_cells :=
            {
              sc_kind = "speed";
              sc_m = m;
              sc_k = k;
              sc_detail = name;
              sc_time_s = t;
              sc_ref_s = ref_s;
            }
            :: !sc_cells)
        [ (`Sat, "sat", ref_sat); (`Auto, "planner", ref_planner) ])
    refs;
  (* -- portfolio: jobs-invariance of the raced check ---------------- *)
  let pfcells = if smoke then [ (64, 8) ] else [ (64, 8); (128, 8) ] in
  Format.printf "%-10s %-8s %-16s %10s %10s@." "cell" "m/k" "race" "jobs=2"
    "jobs=1";
  List.iter
    (fun (m, k) ->
      let q = check_query m k in
      let t1, (o1, _) = time (fun () -> Plan.run ~jobs:1 q) in
      let t2, (o2, r2) = time (fun () -> Plan.run ~jobs:2 q) in
      if o1 <> o2 then
        failwith
          (Printf.sprintf
             "solvercore: portfolio answer depends on jobs on m=%d k=%d" m k);
      let race =
        match r2.Plan.parallel with
        | Plan.Portfolio { jobs; winner } ->
            Printf.sprintf "jobs=%d winner=%d" jobs winner
        | Plan.Pinned why -> "pinned: " ^ why
        | Plan.Cubed _ -> "cubed"
        | Plan.Off -> "off"
      in
      Format.printf "%-10s %-8s %-16s %a %a@." "portfolio"
        (Printf.sprintf "%d/%d" m k)
        race pp_time t2 pp_time t1;
      sc_cells :=
        {
          sc_kind = "portfolio";
          sc_m = m;
          sc_k = k;
          sc_detail = Printf.sprintf "%s; verdict %s" race (check_str o2);
          sc_time_s = t2;
          sc_ref_s = t1;
        }
        :: !sc_cells)
    pfcells

(* ------------------------------------------------------------------ *)
(* Service core (section "daemon") → BENCH_pr8.json: what keeping the
   pipeline resident buys. Three cell families, each gated hard so a
   regression fails the smoke run instead of shipping as a slightly
   worse number:

   - cache: a repeat (design, entry, query) must be served from the
     result cache at least 50x cheaper than the cold one-shot
     [Plan.run] (which pays rank + planner + engine every time).
   - registry: the second [load] of a design must be an LRU hit, and
     a reconstruct on it must run against the cached pack ([pack=hit]
     in the plan meta) — no recompile, no re-presolve.
   - stream: the service's emitted verdict lines must be
     byte-identical to the one-shot [Plan.run_stream] rendering for
     jobs in {1, 2, 4}. *)

type dm_cell = {
  dm_kind : string; (* "cache" | "registry" | "stream" *)
  dm_detail : string;
  dm_jobs : int; (* 0 = n/a *)
  dm_time_s : float;
  dm_ref_s : float; (* cold / first-load / sequential reference; <0 = n/a *)
  dm_ok : bool;
}

let dm_cells : dm_cell list ref = ref []

let write_daemon_json () =
  match List.rev !dm_cells with
  | [] -> ()
  | cells ->
      let open Bench_json in
      let rows =
        List.map
          (fun c ->
            Obj
              [
                ("kind", Str c.dm_kind);
                ("detail", Str c.dm_detail);
                ("jobs", if c.dm_jobs = 0 then Null else int c.dm_jobs);
                ("time_s", time_s c.dm_time_s);
                ("ref_s", time_s c.dm_ref_s);
                ( "speedup",
                  ratio
                    (if c.dm_ref_s > 0. && c.dm_time_s > 0. then
                       c.dm_ref_s /. c.dm_time_s
                     else -1.) );
                ("ok", Bool c.dm_ok);
              ])
          cells
      in
      let cache_speedup =
        List.fold_left
          (fun acc c ->
            if c.dm_kind = "cache" && c.dm_time_s > 0. then
              max acc (c.dm_ref_s /. c.dm_time_s)
            else acc)
          (-1.) cells
      in
      let stream_identical =
        List.for_all (fun c -> c.dm_ok) (List.filter (fun c -> c.dm_kind = "stream") cells)
      in
      (* gate failures abort with [failwith] before this writer runs *)
      write "BENCH_pr8.json"
        ~summary:
          (Printf.sprintf "%d cells; cache hit %.0fx cheaper than cold"
             (List.length cells) cache_speedup)
        (document ~name:"daemon" ~cells:rows
           [
             ( "summary",
               Obj
                 [
                   ("cache_speedup", ratio cache_speedup);
                   ("target_50x_met", Bool (cache_speedup >= 50.));
                   ("stream_identical_jobs_1_2_4", Bool stream_identical);
                 ] );
           ])

let daemon_bench ~full ~smoke () =
  let open Tp_service in
  Format.printf
    "@.== Service core: result cache, design registry, stream identity ==@.";
  let m = if full then 128 else if smoke then 48 else 64 in
  let enc = encoding_for m in
  let b = Encoding.b enc in
  let st = Random.State.make [| 0xd43; m |] in
  let entries =
    List.init
      (if smoke then 8 else 24)
      (fun i -> Logger.abstract enc (constrained_signal ~m ~k:(2 + (i mod 7))))
  in
  ignore st;
  (* the k=8 entry: representative solver work, not the trivial path *)
  let entry = List.nth entries 6 in
  let answer = Query.Enumerate { max_solutions = Some 10 } in
  let budget = !conflict_budget in
  let svc = Service.create () in
  (* -- registry: second load is a hit, reconstructs see pack=hit ----- *)
  let first_load_s, _ = time (fun () -> Service.load svc ~name:"bench" enc) in
  let second_load_s, (_, status2) =
    time (fun () -> Service.load svc ~name:"bench" enc)
  in
  if status2 <> `Hit then
    failwith "daemon bench: second load of an unchanged design was not a hit";
  let run_reconstruct () =
    match
      Service.reconstruct svc ~design:"bench" ~conflict_budget:budget ~answer
        entry
    with
    | Ok r -> r
    | Error e -> failwith ("daemon bench: " ^ Service.error_line e)
  in
  let first = run_reconstruct () in
  (* the registry-cached pack must have served the run: no recompile,
     no re-presolve — the plan meta records the pack status *)
  let pack_hit =
    match first.Service.served with
    | `Ran report ->
        let meta = Plan.meta_line report in
        let has_hit =
          let needle = "pack=hit" in
          let nl = String.length needle and ml = String.length meta in
          let rec scan i =
            i + nl <= ml && (String.sub meta i nl = needle || scan (i + 1))
          in
          scan 0
        in
        if not has_hit then
          failwith
            (Printf.sprintf
               "daemon bench: reconstruct on a registered design ran cold \
                (%s)"
               meta);
        true
    | `Cache -> failwith "daemon bench: first reconstruct cannot be cached"
  in
  let rs = Design_registry.stats (Service.registry svc) in
  if rs.Design_registry.misses <> 1 then
    failwith
      (Printf.sprintf "daemon bench: registry compiled %d times for one design"
         rs.Design_registry.misses);
  Format.printf "%-10s %-22s %a %a@." "registry"
    (Printf.sprintf "m=%d b=%d compile/hit" m b)
    pp_time first_load_s pp_time second_load_s;
  dm_cells :=
    {
      dm_kind = "registry";
      dm_detail = Printf.sprintf "m=%d load compile vs hit" m;
      dm_jobs = 0;
      dm_time_s = second_load_s;
      dm_ref_s = first_load_s;
      dm_ok = pack_hit;
    }
    :: !dm_cells;
  (* -- cache: repeat query vs the cold one-shot --------------------- *)
  let q = Query.make ~conflict_budget:budget ~answer enc entry in
  let reps = if smoke then 3 else 5 in
  let cold_s =
    median (List.init reps (fun _ -> fst (time (fun () -> Plan.run q))))
  in
  let second = run_reconstruct () in
  (match second.Service.served with
  | `Cache -> ()
  | `Ran _ -> failwith "daemon bench: repeat reconstruct missed the cache");
  if second.Service.outcome <> first.Service.outcome then
    failwith "daemon bench: cached outcome differs from the solver's";
  let inner = 100 in
  let hit_s =
    let t, () =
      time (fun () ->
          for _ = 1 to inner do
            ignore (run_reconstruct ())
          done)
    in
    t /. float_of_int inner
  in
  if hit_s *. 50. > cold_s then
    failwith
      (Printf.sprintf
         "daemon bench: cache hit %.6fs is not 50x cheaper than cold one-shot \
          %.6fs"
         hit_s cold_s);
  Format.printf "%-10s %-22s %a %a %7.0fx@." "cache"
    (Printf.sprintf "m=%d cold/hit" m)
    pp_time cold_s pp_time hit_s (cold_s /. hit_s);
  dm_cells :=
    {
      dm_kind = "cache";
      dm_detail = Printf.sprintf "m=%d repeat enumerate" m;
      dm_jobs = 0;
      dm_time_s = hit_s;
      dm_ref_s = cold_s;
      dm_ok = true;
    }
    :: !dm_cells;
  (* -- stream: byte identity with the one-shot path across jobs ----- *)
  let oneshot =
    Plan.run_stream ~conflict_budget:budget ~repair:1 enc entries
  in
  let oneshot_lines = List.mapi Render.entry_line oneshot in
  List.iter
    (fun jobs ->
      let got = ref [] in
      let t, () =
        time (fun () ->
            match
              Service.stream svc ~design:"bench" ~repair:1 ~jobs entries
                ~emit:(fun i tr -> got := Render.entry_line i tr :: !got)
            with
            | Ok () -> ()
            | Error e -> failwith ("daemon bench: " ^ Service.error_line e))
      in
      let identical = List.rev !got = oneshot_lines in
      if not identical then
        failwith
          (Printf.sprintf
             "daemon bench: service stream differs from one-shot at jobs=%d"
             jobs);
      Format.printf "%-10s %-22s %a identical@." "stream"
        (Printf.sprintf "jobs=%d entries=%d" jobs (List.length entries))
        pp_time t;
      dm_cells :=
        {
          dm_kind = "stream";
          dm_detail = Printf.sprintf "m=%d entries=%d" m (List.length entries);
          dm_jobs = jobs;
          dm_time_s = t;
          dm_ref_s = -1.;
          dm_ok = identical;
        }
        :: !dm_cells)
    [ 1; 2; 4 ]

(* Multi-signal flows (section "flow") → BENCH_pr9.json: the three
   ROADMAP scenarios (bus-deadlock, DMA/refresh interference, lost CAN
   arbitration) reconstructed end to end — per-channel observation
   through the planner, witness stitching into protocol chains — plus
   the observability-selection pass. Gated hard:

   - every scenario's stitched chains must equal its injected ground
     truth ([Scenario.check] = []);
   - the rendered reconstruction must be byte-identical across jobs
     (the flow layer inherits the planner's jobs invariance);
   - selection at the scenario's 0.75x-naive budget must keep at least
     2 of its 3 properties decidable. *)

type fl_cell = {
  fl_scenario : string;
  fl_kind : string; (* "reconstruct" | "select" *)
  fl_jobs : int; (* 0 = n/a *)
  fl_time_s : float;
  fl_flows : int; (* select: decidable properties *)
  fl_definite : int;
  fl_broken : int;
  fl_ok : bool;
}

let fl_cells : fl_cell list ref = ref []

let write_flow_json () =
  match List.rev !fl_cells with
  | [] -> ()
  | cells ->
      let open Bench_json in
      let rows =
        List.map
          (fun c ->
            Obj
              [
                ("scenario", Str c.fl_scenario);
                ("kind", Str c.fl_kind);
                ("jobs", if c.fl_jobs = 0 then Null else int c.fl_jobs);
                ("time_s", time_s c.fl_time_s);
                ("flows", int c.fl_flows);
                ("definite", int c.fl_definite);
                ("broken", int c.fl_broken);
                ("ok", Bool c.fl_ok);
              ])
          cells
      in
      let scenarios =
        List.sort_uniq compare
          (List.filter_map
             (fun c ->
               if c.fl_kind = "reconstruct" then Some c.fl_scenario else None)
             cells)
      in
      let decidable =
        List.fold_left
          (fun acc c -> if c.fl_kind = "select" then c.fl_flows else acc)
          0 cells
      in
      (* gate failures abort with [failwith] before this writer runs *)
      write "BENCH_pr9.json"
        ~summary:
          (Printf.sprintf
             "%d scenarios reconstruct their injected chains; selection keeps \
              %d properties decidable at 0.75x naive"
             (List.length scenarios) decidable)
        (document ~name:"flow" ~cells:rows
           [
             ( "summary",
               Obj
                 [
                   ("scenarios", int (List.length scenarios));
                   ("chains_match_ground_truth", Bool true);
                   ("jobs_identical", Bool true);
                   ("select_decidable", int decidable);
                 ] );
           ])

let flow_bench ~full ~smoke () =
  let open Tp_flow in
  Format.printf
    "@.== Multi-signal flows: scenario reconstruction and selection ==@.";
  ignore full;
  let jobs_list = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let render (observed, (stitched : Flow.stitched)) =
    String.concat "\n"
      (List.map
         (fun (o : Flow.observed) ->
           Printf.sprintf "%s %s" o.Flow.o_name
             (String.concat ","
                (Array.to_list
                   (Array.map
                      (function
                        | Flow.Exact s -> "e" ^ Signal.to_string s
                        | Flow.Choice { alts; _ } ->
                            "c" ^ string_of_int (List.length alts)
                        | Flow.Opaque -> "o")
                      o.Flow.obs))))
         observed
      @ List.map (Format.asprintf "%a" Flow.pp_flow) stitched.Flow.flows)
  in
  List.iter
    (fun sc ->
      let reference = ref None in
      List.iter
        (fun jobs ->
          let t, res = time (fun () -> Scenario.reconstruct ~jobs sc) in
          let _, stitched = res in
          (match Scenario.check sc stitched with
          | [] -> ()
          | mism :: _ ->
              failwith
                (Printf.sprintf "flow bench: %s at jobs=%d: %s"
                   sc.Scenario.sc_name jobs mism));
          let rendered = render res in
          (match !reference with
          | None -> reference := Some rendered
          | Some r0 ->
              if not (String.equal r0 rendered) then
                failwith
                  (Printf.sprintf
                     "flow bench: %s renders differently at jobs=%d"
                     sc.Scenario.sc_name jobs));
          let count p = List.length (List.filter p stitched.Flow.flows) in
          let definite =
            count (fun (f : Flow.flow) ->
                match f.Flow.f_status with Flow.Definite _ -> true | _ -> false)
          in
          let broken =
            count (fun (f : Flow.flow) ->
                match f.Flow.f_status with Flow.Broken _ -> true | _ -> false)
          in
          Format.printf "%-18s jobs=%d flows=%d definite=%d broken=%d %a@."
            sc.Scenario.sc_name jobs
            (List.length stitched.Flow.flows)
            definite broken pp_time t;
          fl_cells :=
            {
              fl_scenario = sc.Scenario.sc_name;
              fl_kind = "reconstruct";
              fl_jobs = jobs;
              fl_time_s = t;
              fl_flows = List.length stitched.Flow.flows;
              fl_definite = definite;
              fl_broken = broken;
              fl_ok = true;
            }
            :: !fl_cells)
        jobs_list)
    (Scenario.all ());
  (* observability selection at the scenario's 0.75x-naive budget *)
  let sc = Scenario.dma_refresh () in
  let t, report =
    time (fun () ->
        Select.select ~budget:sc.Scenario.sc_budget sc.Scenario.sc_candidates
          sc.Scenario.sc_properties)
  in
  let decidable =
    List.length (List.filter (fun (_, _, d) -> d) report.Select.r_properties)
  in
  let total = List.length report.Select.r_properties in
  if decidable < 2 then
    failwith
      (Printf.sprintf
         "flow bench: selection kept %d/%d properties decidable at 0.75x \
          naive budget (want >= 2)"
         decidable total);
  if report.Select.r_used > report.Select.r_budget then
    failwith "flow bench: selection overspent its budget";
  List.iter (Format.printf "  %s@.") (Select.report_lines report);
  Format.printf "%-18s decidable=%d/%d budget=%d %a@." "select" decidable total
    report.Select.r_budget pp_time t;
  fl_cells :=
    {
      fl_scenario = sc.Scenario.sc_name;
      fl_kind = "select";
      fl_jobs = 0;
      fl_time_s = t;
      fl_flows = decidable;
      fl_definite = 0;
      fl_broken = 0;
      fl_ok = true;
    }
    :: !fl_cells

(* ------------------------------------------------------------------ *)
(* Blocked F2 kernels (section "kernels") → BENCH_pr10.json: the
   kernel rebuild measured against its naive references, with every
   cell's answers gated on identity — a speedup is only worth
   recording when nothing observable moved. Four cell families:

   - rref: random m x m systems reduced by the naive Gauss–Jordan and
     the Four-Russians kernel. Identical pivots and byte-identical
     reduced rows are a hard failwith; at m >= 128 the M4RI median
     must be >= 2x faster.
   - pack-kernel: the compile-time kernel portion of a design pack
     (shared rank reduction + MITM half-sum tables) against the
     pre-PR-10 Hashtbl pair table rebuilt inline here; >= 2x at
     m >= 128. Full Pack.compile is recorded under both rref
     policies, and a short mixed-k stream must answer identically
     under both — the policy knob may move time, never answers.
   - mitm: Enumerate-all preimages on k in {5, 6, 7, 8} cells, forced MITM
     against forced SAT on one prebuilt session: identical sorted
     witness lists, and the MITM median must beat SAT outright.
   - design-search: the consumer loop the kernels exist for — grade
     candidate designs by uniqueness fraction (Count capped at 2 per
     random signal) under the auto planner, verdict-identical to
     forced SAT, alongside the design's bits-per-trace-cycle cost. *)

type kn_cell = {
  kn_kind : string; (* "rref" | "pack-kernel" | "mitm" | "design-search" *)
  kn_m : int;
  kn_k : int option;
  kn_b : int option;
  kn_detail : string;
  kn_new_s : float;
  kn_ref_s : float; (* naive / legacy / forced-SAT median; < 0 = n/a *)
  kn_extra : (string * Bench_json.t) list;
}

let kn_cells : kn_cell list ref = ref []

let write_kernels_json () =
  match List.rev !kn_cells with
  | [] -> ()
  | cells ->
      let open Bench_json in
      let med kind =
        let rs =
          List.filter_map
            (fun c ->
              if c.kn_kind = kind && c.kn_new_s > 0. && c.kn_ref_s > 0. then
                Some (c.kn_ref_s /. c.kn_new_s)
              else None)
            cells
        in
        if rs = [] then None else Some (median rs)
      in
      let medians =
        List.filter_map
          (fun (name, kind) -> Option.map (fun v -> (name, v)) (med kind))
          [
            ("rref_m4ri_speedup", "rref");
            ("pack_kernel_speedup", "pack-kernel");
            ("mitm_vs_sat", "mitm");
          ]
      in
      write "BENCH_pr10.json"
        ~summary:
          (Printf.sprintf "%d cells;%s" (List.length cells)
             (String.concat ","
                (List.map
                   (fun (n, v) -> Printf.sprintf " %s %.2fx" n v)
                   medians)))
        (document ~name:"kernels" ~medians
           ~cells:
             (List.map
                (fun c ->
                  Obj
                    ([
                       ("kind", Str c.kn_kind);
                       ("m", int c.kn_m);
                       ("k", opt int c.kn_k);
                       ("b", opt int c.kn_b);
                       ("detail", Str c.kn_detail);
                       ("new_s", time_s c.kn_new_s);
                       ("ref_s", time_s c.kn_ref_s);
                       ( "speedup",
                         ratio
                           (if c.kn_new_s > 0. && c.kn_ref_s > 0. then
                              c.kn_ref_s /. c.kn_new_s
                            else -1.) );
                     ]
                    @ c.kn_extra))
                cells)
           [])

let kernels_bench ~full ~smoke () =
  let module BV = Tp_bitvec.Bitvec in
  let module FM = Tp_bitvec.F2_matrix in
  Format.printf
    "@.== Blocked F2 kernels: M4RI rref, pack tables, MITM vs SAT ==@.";
  let reps = if smoke then 5 else 9 in
  let with_policy p f =
    let saved = FM.rref_policy () in
    FM.set_rref_policy p;
    Fun.protect ~finally:(fun () -> FM.set_rref_policy saved) f
  in
  (* the ISSUE-level speed bars gate on the median over the m >= 128
     cells of a family — robust to one noisy cell, honest about the
     trend *)
  let gate_median family floor sps =
    let big = List.filter_map (fun (m, sp) -> if m >= 128 then Some sp else None) sps in
    if big <> [] && median big < floor then
      failwith
        (Printf.sprintf
           "kernels: %s median %.2fx below the %.1fx bar at m >= 128" family
           (median big) floor)
  in
  (* --- rref: naive vs Four-Russians on random square systems --- *)
  let rref_ms =
    if smoke then [ 128; 256 ]
    else if full then [ 64; 128; 256; 512 ]
    else [ 64; 128; 256 ]
  in
  let rref_sps = ref [] in
  Format.printf "%-12s %10s %10s %8s@." "rref" "naive" "m4ri" "speedup";
  List.iter
    (fun m ->
      let st = Random.State.make [| 0xf2f2; m |] in
      let base = Array.init m (fun _ -> BV.random st m) in
      let a = Array.map BV.copy base and b = Array.map BV.copy base in
      let pa = FM.rref_rows_naive a ~cols:m in
      let pb = FM.rref_rows_m4ri b ~cols:m in
      if pa <> pb || not (Array.for_all2 BV.equal a b) then
        failwith
          (Printf.sprintf "kernels: m4ri rref diverges from naive at m=%d" m);
      let run rref =
        median
          (List.init reps (fun _ ->
               let rows = Array.map BV.copy base in
               fst (time (fun () -> ignore (rref rows ~cols:m)))))
      in
      let naive_s = run FM.rref_rows_naive in
      let m4ri_s = run FM.rref_rows_m4ri in
      let sp = if m4ri_s > 0. then naive_s /. m4ri_s else -1. in
      rref_sps := (m, sp) :: !rref_sps;
      Format.printf "%-12s %a %a %7.1fx@."
        (Printf.sprintf "%dx%d" m m)
        pp_time naive_s pp_time m4ri_s sp;
      kn_cells :=
        {
          kn_kind = "rref";
          kn_m = m;
          kn_k = None;
          kn_b = None;
          kn_detail = "random m x m";
          kn_new_s = m4ri_s;
          kn_ref_s = naive_s;
          kn_extra = [];
        }
        :: !kn_cells)
    rref_ms;
  gate_median "m4ri rref" 2. !rref_sps;
  (* --- pack kernel: sorted half-sum tables vs the seed Hashtbl --- *)
  let module H = Hashtbl.Make (struct
    type t = BV.t

    let equal = BV.equal
    let hash = BV.hash
  end) in
  (* the pre-PR-10 pair table, verbatim in shape: one allocated XOR
     bitvec and one hash probe per (i, j) *)
  let legacy_pair_table enc =
    let m = Encoding.m enc in
    let tbl = H.create (m * m / 2) in
    for i = 0 to m - 1 do
      for j = i + 1 to m - 1 do
        let v = BV.logxor (Encoding.timestamp enc i) (Encoding.timestamp enc j) in
        H.replace tbl v
          ((i, j) :: (try H.find tbl v with Not_found -> []))
      done
    done;
    tbl
  in
  let pack_ms = [ 128; 256 ] in
  let pack_sps = ref [] in
  Format.printf "@.%-12s %10s %10s %8s %10s %10s@." "pack" "legacy" "kernel"
    "speedup" "compile" "compile-nv";
  List.iter
    (fun m ->
      let enc = encoding_for m in
      let b = Encoding.b enc in
      let kernel_s =
        median
          (List.init reps (fun _ ->
               fst
                 (time (fun () ->
                      ignore (Presolve.shared enc);
                      ignore (Combinatorial_reconstruct.pair_table enc)))))
      in
      let legacy_s =
        median
          (List.init reps (fun _ ->
               fst
                 (time (fun () ->
                      ignore (Presolve.shared enc);
                      ignore (legacy_pair_table enc)))))
      in
      let sp = if kernel_s > 0. then legacy_s /. kernel_s else -1. in
      pack_sps := (m, sp) :: !pack_sps;
      let compile_med () =
        median
          (List.init reps (fun _ ->
               fst (time (fun () -> ignore (Pack.compile enc)))))
      in
      let compile_s = with_policy `Auto compile_med in
      let compile_naive_s = with_policy `Naive compile_med in
      (* answers must not observe the policy knob: a short mixed-k
         stream (rank refutations, MITM hits, SAT residue) both ways *)
      let st = Random.State.make [| 0x517e; m |] in
      let entries =
        List.concat_map
          (fun k ->
            List.init 2 (fun _ -> Logger.abstract enc (Signal.random st ~m ~k)))
          [ 2; 3; 5; 6; 8 ]
      in
      let stream () =
        Plan.run_stream ~conflict_budget:!conflict_budget enc entries
      in
      if with_policy `Naive stream <> with_policy `Auto stream then
        failwith "kernels: stream answers depend on the rref policy";
      Format.printf "%-12s %a %a %7.1fx %a %a@."
        (Printf.sprintf "m=%d b=%d" m b)
        pp_time legacy_s pp_time kernel_s sp pp_time compile_s pp_time
        compile_naive_s;
      kn_cells :=
        {
          kn_kind = "pack-kernel";
          kn_m = m;
          kn_k = None;
          kn_b = Some b;
          kn_detail = "shared reduction + half-sum tables";
          kn_new_s = kernel_s;
          kn_ref_s = legacy_s;
          kn_extra =
            [
              ("compile_s", Bench_json.time_s compile_s);
              ("compile_naive_s", Bench_json.time_s compile_naive_s);
              ("stream_identical", Bench_json.Bool true);
            ];
        }
        :: !kn_cells)
    pack_ms;
  gate_median "pack kernel" 2. !pack_sps;
  (* --- MITM k in {5, 6, 7, 8} vs forced SAT on one prebuilt session ---
     Cells are picked so the SAT side can actually finish its
     exhaustion proof: at m = 128 (or low b) forced SAT never
     completes an enumerate-all, which is the point the speedup
     column already makes at m <= 64. *)
  let mitm_grid =
    if smoke then
      [ (32, 5, 14); (32, 6, 16); (48, 5, 18); (32, 7, 20); (32, 8, 22) ]
    else
      [ (32, 5, 14); (32, 6, 16); (48, 5, 18); (48, 6, 20); (64, 5, 26);
        (64, 6, 30); (32, 7, 20); (32, 8, 22) ]
  in
  Format.printf "@.%-12s %4s %10s %10s %8s@." "mitm" "pre" "mitm" "sat"
    "speedup";
  List.iter
    (fun (m, k, b) ->
      let enc = Encoding.random_constrained ~m ~b ~seed:0x51ab () in
      if not (Combinatorial_reconstruct.feasible enc ~k) then
        failwith
          (Printf.sprintf "kernels: mitm cell m=%d k=%d infeasible" m k);
      let entry = Logger.abstract enc (constrained_signal ~m ~k) in
      let ses = Plan.session enc in
      (* the identity gate needs the SAT side to finish its exhaustion
         proof, which outgrows the smoke budget — give these cells
         their own floor *)
      let q =
        Query.make
          ~conflict_budget:(max !conflict_budget 500_000)
          ~answer:(Query.Enumerate { max_solutions = None })
          enc entry
      in
      let witnesses engine =
        let out, rep = Plan.run_in ~engine ses q in
        match out with
        | Engine.Enumeration { signals; complete = true } ->
            List.sort Signal.compare signals
        | _ ->
            failwith
              (Printf.sprintf
                 "kernels: mitm cell m=%d k=%d: incomplete enumeration [%s]" m
                 k (Plan.meta_line rep))
      in
      (* first runs double as identity gate and table warm-up *)
      let w_mitm = witnesses `Mitm in
      let w_sat = witnesses `Sat in
      if not (List.equal Signal.equal w_mitm w_sat) then
        failwith
          (Printf.sprintf
             "kernels: mitm witnesses diverge from SAT at m=%d k=%d" m k);
      let timed engine =
        median
          (List.init reps (fun _ ->
               fst (time (fun () -> ignore (Plan.run_in ~engine ses q)))))
      in
      let mitm_s = timed `Mitm in
      let sat_s = timed `Sat in
      if mitm_s >= sat_s then
        failwith
          (Printf.sprintf
             "kernels: mitm %.6fs not ahead of SAT %.6fs at m=%d k=%d" mitm_s
             sat_s m k);
      Format.printf "%-12s %4d %a %a %7.1fx@."
        (Printf.sprintf "m=%d k=%d" m k)
        (List.length w_mitm) pp_time mitm_s pp_time sat_s (sat_s /. mitm_s);
      kn_cells :=
        {
          kn_kind = "mitm";
          kn_m = m;
          kn_k = Some k;
          kn_b = Some b;
          kn_detail = "enumerate-all, session table";
          kn_new_s = mitm_s;
          kn_ref_s = sat_s;
          kn_extra = [ ("preimage", Bench_json.int (List.length w_mitm)) ];
        }
        :: !kn_cells)
    mitm_grid;
  (* --- design search: sweep the timeprint width, grade uniqueness ---
     The loop the kernels exist for: for each (m, k) walk candidate
     widths b and measure the fraction of logged signals whose
     timeprint pins them uniquely — the designer picks the smallest b
     whose fraction clears their bar. Each grade is a capped Count
     answered by the auto planner; a forced-SAT shadow run gates the
     verdicts. *)
  let ds_grid =
    if smoke then [ (32, 4, [ 12; 18; 24 ]); (32, 5, [ 12; 18; 24 ]) ]
    else
      [
        (32, 4, [ 12; 16; 20; 24 ]);
        (32, 5, [ 12; 16; 20; 24 ]);
        (48, 5, [ 16; 20; 24; 28 ]);
      ]
  in
  let n_signals = if smoke then 3 else 8 in
  Format.printf "@.%-12s %7s %5s %10s %10s@." "search" "unique" "bits"
    "auto" "sat";
  List.iter
    (fun (m, k, bs) ->
      List.iter
        (fun b ->
          let enc = Encoding.random_constrained ~m ~b ~seed:0xd510 () in
          let ses = Plan.session enc in
          let st = Random.State.make [| 0xd51; m; k; b |] in
          let auto_ts = ref [] and sat_ts = ref [] and unique = ref 0 in
          for _ = 1 to n_signals do
            let entry = Logger.abstract enc (Signal.random st ~m ~k) in
            (* uniqueness needs the SAT shadow's exhaustion proof, which
               outgrows the smoke budget — same floor as the mitm cells *)
            let q =
              Query.make
                ~conflict_budget:(max !conflict_budget 500_000)
                ~answer:(Query.Count { max_solutions = Some 2 })
                enc entry
            in
            let t_a, (out_a, _) = time (fun () -> Plan.run_in ses q) in
            let t_s, (out_s, _) =
              time (fun () -> Plan.run_in ~engine:`Sat ses q)
            in
            if out_a <> out_s then
              failwith
                (Printf.sprintf
                   "kernels: design-search verdict diverges from SAT at \
                    m=%d k=%d b=%d"
                   m k b);
            auto_ts := t_a :: !auto_ts;
            sat_ts := t_s :: !sat_ts;
            match out_a with
            | Engine.Count (1, `Exact) -> incr unique
            | _ -> ()
          done;
          let frac = float_of_int !unique /. float_of_int n_signals in
          let bits = Design.bits_per_trace_cycle enc in
          Format.printf "%-12s %6.0f%% %5d %a %a@."
            (Printf.sprintf "m=%d k=%d b=%d" m k b)
            (100. *. frac) bits pp_time (median !auto_ts) pp_time
            (median !sat_ts);
          kn_cells :=
            {
              kn_kind = "design-search";
              kn_m = m;
              kn_k = Some k;
              kn_b = Some b;
              kn_detail = Printf.sprintf "uniqueness over %d signals" n_signals;
              kn_new_s = median !auto_ts;
              kn_ref_s = median !sat_ts;
              kn_extra =
                [
                  ( "unique_fraction",
                    Bench_json.Num (Printf.sprintf "%.3f" frac) );
                  ("bits_per_trace_cycle", Bench_json.int bits);
                ];
            }
            :: !kn_cells)
        bs)
    ds_grid

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let () =
  let argv = Array.to_list Sys.argv in
  let full = List.mem "--full" argv in
  let smoke = List.mem "--smoke" argv in
  if full then conflict_budget := 5_000_000;
  if smoke then conflict_budget := 5_000;
  (* --jobs N caps the parallel section's pool-size sweep *)
  let max_jobs = ref max_int in
  let rec strip = function
    | "--jobs" :: v :: rest ->
        max_jobs := int_of_string v;
        strip rest
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  let argv = strip argv in
  let sections =
    List.filter
      (fun a -> String.length a > 0 && a.[0] <> '-')
      (List.tl argv)
  in
  let want s = sections = [] || List.mem s sections in
  if want "fig4" then fig4 ();
  if want "table1" then begin
    table1 ~full ();
    table1_gauss ~full ()
  end;
  if want "table2" then table2 ~full ();
  if want "can" then can ~full ();
  if want "incremental" then incremental ~full ();
  if want "faults" then faults ~full ~smoke ();
  if want "soc" then soc ~full ();
  if want "engines" then engines_grid ~full ~smoke ();
  if want "parallel" then parallel_bench ~full ~smoke ~max_jobs:!max_jobs ();
  if want "pack" then pack_bench ~full ~smoke ();
  if want "solvercore" then solvercore_bench ~full ~smoke ();
  if want "daemon" then daemon_bench ~full ~smoke ();
  if want "flow" then flow_bench ~full ~smoke ();
  if want "kernels" then kernels_bench ~full ~smoke ();
  if want "ablation" then ablation ();
  if want "baseline" then baseline ();
  if want "micro" then micro ();
  write_bench_json ();
  write_engines_json ();
  write_faults_json ();
  write_parallel_json ();
  write_pack_json ();
  write_solvercore_json ();
  write_daemon_json ();
  write_flow_json ();
  write_kernels_json ();
  Format.printf "@.done.@."
