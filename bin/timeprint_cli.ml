(* timeprint — command-line front end to the timeprints library.

   Encodings are deterministic in (scheme, m, b, seed, depth), so the
   same flags reproduce the same timestamps across `log`,
   `reconstruct`, `check` and `dimacs` invocations. *)

open Cmdliner
open Timeprint
module Service = Tp_service.Service
module Render = Tp_service.Render
module Daemon = Tp_service.Daemon
module Wire = Tp_service.Wire

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let m_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "m"; "trace-len" ] ~docv:"M" ~doc:"Trace-cycle length in clock-cycles.")

let b_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "b"; "width" ] ~docv:"B"
        ~doc:"Timestamp width in bits (default: smallest feasible).")

let seed_arg =
  Arg.(value & opt int 0x7155 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let depth_arg =
  Arg.(
    value & opt int 4
    & info [ "depth" ] ~docv:"D" ~doc:"Linear-independence depth of the encoding.")

let scheme_arg =
  let schemes =
    [
      ("one-hot", `One_hot);
      ("random", `Random);
      ("incremental", `Incremental);
      ("bch", `Bch);
    ]
  in
  Arg.(
    value
    & opt (enum schemes) `Random
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Timestamp scheme: $(b,one-hot), $(b,random), $(b,incremental) or \
           $(b,bch).")

let make_encoding scheme m b seed depth =
  match scheme with
  | `One_hot -> Encoding.one_hot ~m
  | `Random -> (
      match b with
      | Some b -> Encoding.random_constrained ~depth ~seed ~m ~b ()
      | None -> Encoding.random_constrained_auto ~depth ~seed ~m ())
  | `Incremental -> (
      match b with
      | Some b -> Encoding.incremental ~depth ~m ~b ()
      | None -> Encoding.incremental_auto ~depth ~m ())
  | `Bch -> Encoding.bch ~m

(* property flags shared by reconstruct/check/dimacs *)
let p2_flag =
  Arg.(value & flag & info [ "p2" ] ~doc:"Assume P2: some two adjacent changes.")

let pulse_flag =
  Arg.(
    value & flag
    & info [ "pulse-pairs" ]
        ~doc:"Assume all changes come as disjoint adjacent pairs.")

let deadline_opt =
  Arg.(
    value
    & opt (some (pair ~sep:',' int int)) None
    & info [ "deadline" ] ~docv:"K,D"
        ~doc:"Assume at least $(i,K) changes before cycle $(i,D).")

let window_opt =
  Arg.(
    value
    & opt (some (pair ~sep:',' int int)) None
    & info [ "window" ] ~docv:"LO,HI"
        ~doc:"Assume all changes lie within cycles $(i,LO)..$(i,HI).")

let assume_of p2 pulse deadline window =
  List.concat
    [
      (if p2 then [ Property.p2 ] else []);
      (if pulse then [ Property.pulse_pairs ] else []);
      (match deadline with
      | Some (count, before) -> [ Property.deadline ~count ~before ]
      | None -> []);
      (match window with
      | Some (lo, hi) -> [ Property.window ~lo ~hi ]
      | None -> []);
    ]

let entry_args =
  let tp =
    Arg.(
      required
      & opt (some string) None
      & info [ "tp" ] ~docv:"BITS"
          ~doc:"Logged timeprint as a binary string (MSB first).")
  in
  let k =
    Arg.(
      required
      & opt (some int) None
      & info [ "k"; "changes" ] ~docv:"K" ~doc:"Logged number of changes.")
  in
  Term.(
    const (fun tp k -> Log_entry.make ~tp:(Tp_bitvec.Bitvec.of_string tp) ~k)
    $ tp $ k)

let enc_term =
  Term.(const make_encoding $ scheme_arg $ m_arg $ b_arg $ seed_arg $ depth_arg)

(* planner flags shared by reconstruct/check *)
let engine_arg =
  let engines =
    [ ("auto", `Auto); ("sat", `Sat); ("linear", `Linear); ("mitm", `Mitm) ]
  in
  Arg.(
    value
    & opt (enum engines) `Auto
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Reconstruction engine: $(b,auto) (cost-model planner, default), \
           or force $(b,sat), $(b,linear), $(b,mitm). The MITM engine's \
           sorted-meet join covers k <= 6 change positions (half-sum \
           tables; triples gated by a memory bound). A forced engine that \
           cannot answer the query falls through to SAT.")

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the plan: chosen engine, preimage-size estimate, presolve \
           outcome and per-stage solver stats.")

(* accepted as a raw string so that a bad TIMEPRINTS_JOBS (or --jobs)
   value dies with one clear line and exit 64, instead of cmdliner's
   usage dump — the env var is typically set far from the invocation
   that trips over it *)
let exit_usage = 64

let jobs_arg =
  let raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~env:(Cmd.Env.info "TIMEPRINTS_JOBS")
          ~doc:
            "Solve on $(i,N) domains: hard queries split into cubes, log \
             streams fan out in chunks. $(b,0) means the runtime's \
             recommended domain count. Answers never depend on $(i,N).")
  in
  let validate = function
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 0 -> Some n
        | Some _ ->
            Format.eprintf "error: jobs must be a non-negative integer, got %s@." s;
            exit exit_usage
        | None ->
            Format.eprintf "error: jobs must be a non-negative integer, got %S@." s;
            exit exit_usage)
  in
  Term.(const validate $ raw)

let maybe_explain explain report =
  if explain then Format.printf "%a@." Plan.pp_report report

(* compiled design packs: accelerate-only, so every load failure is a
   warning and a cold run, never an error *)
let pack_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pack" ] ~docv:"PATH"
        ~doc:
          "Load a compiled design pack (see $(b,compile)). A pack that is \
           missing, corrupt or compiled for another encoding is reported and \
           ignored; answers never depend on it.")

let load_pack = function
  | None -> None
  | Some path -> (
      match Pack.load path with
      | Ok p -> Some p
      | Error e ->
          Format.eprintf "warning: %a; running cold@." Pack.pp_load_error e;
          None)

(* reconstruct/stream are in-process clients of the same service core
   timeprintd serves: a single-design registry per invocation. A good
   pack file installs directly; otherwise the registry compiles one. *)
let cli_design = "design"

let cli_service enc pack ~warn_stale =
  let svc = Service.create () in
  (match load_pack pack with
  | Some p when Pack.matches p enc ->
      ignore (Service.load_pack svc ~name:cli_design p)
  | Some _ ->
      if warn_stale then
        Format.eprintf "warning: pack is stale (encoding mismatch); running cold@.";
      ignore (Service.load svc ~name:cli_design enc)
  | None -> ignore (Service.load svc ~name:cli_design enc));
  svc

let service_error e =
  Format.eprintf "error: %s@." (Service.error_line e);
  exit 1

(* ------------------------------------------------------------------ *)
(* encode                                                              *)

let encode_cmd =
  let run enc verbose =
    Format.printf "%a@." Encoding.pp enc;
    Format.printf "bits per trace-cycle: %d@." (Design.bits_per_trace_cycle enc);
    Format.printf "log rate at 100 MHz: %.3f Mbit/s@."
      (Design.log_rate_hz enc ~clock_hz:100e6 /. 1e6);
    if verbose then
      Array.iteri
        (fun i ts -> Format.printf "TS(%d) = %a@." (i + 1) Tp_bitvec.Bitvec.pp ts)
        (Encoding.timestamps enc)
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every timestamp.")
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Generate a timestamp encoding and report its cost.")
    Term.(const run $ enc_term $ verbose)

(* ------------------------------------------------------------------ *)
(* log                                                                 *)

let signal_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SIGNAL"
        ~doc:"Change signal as a 0/1 string, cycle 0 leftmost.")

let log_cmd =
  let run enc sig_str =
    let s = Signal.of_string sig_str in
    if Signal.length s <> Encoding.m enc then (
      Format.eprintf "error: signal length %d but m = %d@." (Signal.length s)
        (Encoding.m enc);
      exit 1);
    let e = Logger.abstract enc s in
    Format.printf "TP = %a@.k  = %d@." Tp_bitvec.Bitvec.pp (Log_entry.tp e)
      (Log_entry.k e)
  in
  Cmd.v
    (Cmd.info "log" ~doc:"Abstract a signal into its (TP, k) log entry.")
    Term.(const run $ enc_term $ signal_arg)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)

let compile_cmd =
  let run enc out =
    let p = Pack.compile enc in
    Pack.save p out;
    Format.printf "compiled pack %s: %s@." out (Pack.describe p)
  in
  let out_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PACKFILE" ~doc:"Output pack file.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile a design pack for an encoding — the presolve reduction, \
          cube-selection ranking and parity-select solver skeleton — into a \
          versioned, checksummed file that $(b,reconstruct --pack) and \
          $(b,stream --pack) load instead of recomputing per run.")
    Term.(const run $ enc_term $ out_arg)

(* ------------------------------------------------------------------ *)
(* reconstruct                                                         *)

let repair_arg =
  Arg.(
    value & opt int 0
    & info [ "repair" ] ~docv:"E"
        ~doc:
          "Tolerate up to $(i,E) flipped timeprint bits: answer with the \
           minimal-error repair instead of failing on a corrupted entry.")

let k_slack_arg =
  Arg.(
    value & opt int 0
    & info [ "k-slack" ] ~docv:"D"
        ~doc:
          "With $(b,--repair), also tolerate a logged change count off by \
           up to $(i,D).")

let reconstruct_cmd =
  let run enc entry p2 pulse deadline window max_solutions engine repair
      k_slack jobs pack explain =
    let assume = assume_of p2 pulse deadline window in
    let svc = cli_service enc pack ~warn_stale:false in
    let answer =
      if repair > 0 || k_slack > 0 then Query.Repair { max_flips = repair; k_slack }
      else Query.Enumerate { max_solutions = Some max_solutions }
    in
    match
      Service.reconstruct svc ~design:cli_design ~engine ~assume ?jobs ~answer
        entry
    with
    | Error e -> service_error e
    | Ok { Service.outcome; served } -> (
        let chosen =
          match served with
          | `Cache -> "cache"
          | `Ran report ->
              maybe_explain explain report;
              report.Plan.chosen
        in
        match outcome with
        | Engine.Repair v ->
            Format.printf "%a [engine: %s]@." Reconstruct.pp_repair_verdict v
              chosen;
            (match v with
            | `Clean s | `Repaired { Reconstruct.r_signal = s; _ } ->
                Format.printf "%a@." Signal.pp s
            | `Unrepairable | `Unknown -> ())
        | Engine.Enumeration { signals; complete } ->
            List.iter (fun s -> Format.printf "%a@." Signal.pp s) signals;
            Format.printf "%d solution(s)%s [engine: %s]@." (List.length signals)
              (if complete then ""
               else Printf.sprintf " (capped at %d)" max_solutions)
              chosen
        | _ -> assert false)
  in
  let max_arg =
    Arg.(
      value & opt int 10
      & info [ "max" ] ~docv:"N" ~doc:"Stop after $(i,N) solutions.")
  in
  Cmd.v
    (Cmd.info "reconstruct"
       ~doc:
         "Enumerate the signals consistent with a logged entry, or repair a \
          corrupted one with $(b,--repair).")
    Term.(
      const run $ enc_term $ entry_args $ p2_flag $ pulse_flag $ deadline_opt
      $ window_opt $ max_arg $ engine_arg $ repair_arg $ k_slack_arg
      $ jobs_arg $ pack_arg $ explain_flag)

(* ------------------------------------------------------------------ *)
(* stream / corrupt: whole-log commands over "<tp-bits> <k>" lines      *)

(* Malformed lines are skipped with a warning but counted: dropping a
   line silently shifts the indices of every later entry, so callers
   must not exit 0 when the count is nonzero (stream/corrupt exit 3,
   distinct from stream's quarantine exit 2). *)
let read_log path =
  let ic = if path = "-" then stdin else open_in path in
  let malformed = ref 0 in
  let bad line =
    incr malformed;
    Format.eprintf "warning: malformed log line %S@." line;
    None
  in
  let parse line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then None
    else
      match
        String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
      with
      | [ tp; k ] -> (
          try
            Some (Log_entry.make ~tp:(Tp_bitvec.Bitvec.of_string tp)
                    ~k:(int_of_string k))
          with Failure _ | Invalid_argument _ -> bad line)
      | _ -> bad line
  in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        if ic != stdin then close_in ic;
        (List.rev acc, !malformed)
    | line -> go (match parse line with Some e -> e :: acc | None -> acc)
  in
  go []

let log_file_arg =
  Arg.(
    value
    & pos 0 string "-"
    & info [] ~docv:"FILE"
        ~doc:
          "Log file, one $(i,TP-BITS K) pair per line ($(b,-) for stdin); \
           $(b,#) starts a comment.")

let stream_cmd =
  let run enc path p2 pulse deadline window repair jobs pack explain =
    let entries, malformed = read_log path in
    let svc = cli_service enc pack ~warn_stale:true in
    (* verdict lines print from the service's emit callback as chunks
       complete — the same Render strings the daemon streams, so the
       two front ends agree byte for byte — and reach stdout once per
       ready burst *)
    let triages = ref [] in
    let emit i t =
      triages := t :: !triages;
      print_string (Render.entry_line i t);
      (if explain then
         let _, _, tag = t in
         Printf.printf "  [%s]" (Render.tag_name tag));
      print_char '\n'
    in
    (match
       Service.stream svc ~design:cli_design
         ~assume:(assume_of p2 pulse deadline window) ~repair ?jobs
         ~flush:(fun () -> flush stdout)
         entries ~emit
     with
    | Error e -> service_error e
    | Ok () -> ());
    let c = Render.count !triages in
    print_endline (Render.summary_line c);
    if malformed > 0 then (
      Format.eprintf "error: %d malformed log line(s) skipped@." malformed;
      exit 3);
    if c.Render.quarantined > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Reconstruct a whole log through the planner's streaming path, \
          quarantining entries no repair within budget can explain. Exits 2 \
          when anything was quarantined, 3 when the log held malformed \
          lines.")
    Term.(
      const run $ enc_term $ log_file_arg $ p2_flag $ pulse_flag $ deadline_opt
      $ window_opt $ repair_arg $ jobs_arg $ pack_arg $ explain_flag)

let corrupt_cmd =
  let run enc path rate max_flips max_delta drop_rate seed =
    let entries, malformed = read_log path in
    let spec = Fault.spec ~rate ~max_flips ~max_delta ~drop_rate () in
    let log, faults = Fault.inject ~seed spec ~m:(Encoding.m enc) entries in
    List.iter
      (fun e ->
        Format.printf "%s %d@."
          (Tp_bitvec.Bitvec.to_string (Log_entry.tp e))
          (Log_entry.k e))
      log;
    List.iter (fun f -> Format.eprintf "%a@." Fault.pp_fault f) faults;
    if malformed > 0 then (
      Format.eprintf "error: %d malformed log line(s) skipped@." malformed;
      exit 3)
  in
  let rate =
    Arg.(
      value & opt float 0.1
      & info [ "rate" ] ~docv:"P" ~doc:"Per-entry corruption probability.")
  in
  let flips =
    Arg.(
      value & opt int 1
      & info [ "flips" ] ~docv:"E" ~doc:"Max timeprint bit flips per faulty entry.")
  in
  let delta =
    Arg.(
      value & opt int 0
      & info [ "delta" ] ~docv:"D" ~doc:"Max change-count perturbation.")
  in
  let drop =
    Arg.(
      value & opt float 0.
      & info [ "drop-rate" ] ~docv:"P"
          ~doc:"Probability a faulty entry is dropped entirely.")
  in
  let fault_seed =
    Arg.(
      value & opt int 0xfa17
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Fault-injection seed.")
  in
  Cmd.v
    (Cmd.info "corrupt"
       ~doc:
         "Inject deterministic faults into a log: corrupted log on stdout, \
          fault events on stderr.")
    Term.(
      const run $ enc_term $ log_file_arg $ rate $ flips $ delta $ drop
      $ fault_seed)

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_cmd =
  let run enc entry p2 pulse deadline window q_deadline engine jobs explain =
    let prop =
      match q_deadline with
      | Some (count, before) -> Property.deadline ~count ~before
      | None -> Property.p2
    in
    let q =
      Query.make
        ~assume:(assume_of p2 pulse deadline window)
        ~answer:(Query.Check prop) enc entry
    in
    let outcome, report = Plan.run ~engine ?jobs q in
    maybe_explain explain report;
    match outcome with
    | Engine.Check r -> Format.printf "%a@." Reconstruct.pp_check_result r
    | _ -> assert false
  in
  let q_deadline =
    Arg.(
      value
      & opt (some (pair ~sep:',' int int)) None
      & info [ "holds-deadline" ] ~docv:"K,D"
          ~doc:
            "Property to decide: at least $(i,K) changes before cycle $(i,D) \
             (default: P2).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Decide whether a property holds in all/some reconstructions.")
    Term.(
      const run $ enc_term $ entry_args $ p2_flag $ pulse_flag $ deadline_opt
      $ window_opt $ q_deadline $ engine_arg $ jobs_arg $ explain_flag)

(* ------------------------------------------------------------------ *)
(* dimacs                                                              *)

let dimacs_cmd =
  let run enc entry p2 pulse deadline window =
    let pb = Reconstruct.problem ~assume:(assume_of p2 pulse deadline window) enc entry in
    let cnf, _ = Reconstruct.to_cnf pb in
    print_string (Tp_sat.Dimacs.to_string cnf)
  in
  Cmd.v
    (Cmd.info "dimacs"
       ~doc:
         "Print the SR instance in extended DIMACS (Cryptominisat xor lines).")
    Term.(
      const run $ enc_term $ entry_args $ p2_flag $ pulse_flag $ deadline_opt
      $ window_opt)

(* ------------------------------------------------------------------ *)
(* serve / query: the daemon and its line-protocol client              *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket registry_capacity cache_capacity max_running queue_limit
      default_quota_bits =
    let config =
      Daemon.config ?registry_capacity ?cache_capacity ?max_running
        ?queue_limit ?default_quota_bits socket
    in
    match Daemon.run config with
    | () -> ()
    | exception Unix.Unix_error (e, fn, arg) ->
        Format.eprintf "error: %s %s: %s@." fn arg (Unix.error_message e);
        exit 1
  in
  let registry =
    Arg.(
      value
      & opt (some int) None
      & info [ "registry-capacity" ] ~docv:"N"
          ~doc:"Designs kept loaded before LRU eviction (default 8).")
  in
  let cache =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Result-cache ring size per design (default 1024).")
  in
  let max_running =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-running" ] ~docv:"N"
          ~doc:"Solver runs admitted concurrently.")
  in
  let queue_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:"Requests allowed to wait for a run slot (default 16).")
  in
  let quota =
    Arg.(
      value
      & opt (some float) None
      & info [ "quota-bits" ] ~docv:"F"
          ~doc:"Default per-request cost-bits quota (default: unlimited).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the reconstruction service on a Unix socket (same daemon as \
          $(b,timeprintd)): designs compile once into a registry, repeat \
          queries answer from the result cache, every solver run passes the \
          cost-model admission gate.")
    Term.(
      const run $ socket_arg $ registry $ cache $ max_running $ queue_limit
      $ quota)

let query_cmd =
  let run socket log spec words =
    let body, words =
      match (log, spec) with
      | Some _, Some _ ->
          Format.eprintf "error: --log and --spec are mutually exclusive@.";
          exit exit_usage
      | None, None -> ([], words)
      | Some path, None ->
          let entries, malformed = read_log path in
          if malformed > 0 then (
            Format.eprintf "error: %d malformed log line(s) skipped@." malformed;
            exit 3);
          ( List.map Wire.render_entry entries,
            words @ [ Printf.sprintf "n=%d" (List.length entries) ] )
      | None, Some path ->
          (* raw body lines — the daemon parses the Flow_spec grammar *)
          let ic =
            if path = "-" then stdin
            else
              try open_in path
              with Sys_error msg ->
                Format.eprintf "error: %s@." msg;
                exit exit_usage
          in
          let rec go acc =
            match input_line ic with
            | exception End_of_file ->
                if ic != stdin then close_in ic;
                List.rev acc
            | line -> go (line :: acc)
          in
          let lines = go [] in
          (lines, words @ [ Printf.sprintf "n=%d" (List.length lines) ])
    in
    if words = [] then (
      Format.eprintf "error: empty request@.";
      exit exit_usage);
    match Daemon.connect socket with
    | Error msg ->
        Format.eprintf "error: %s@." msg;
        exit 4
    | Ok conn ->
        let res =
          Daemon.request conn ~body (String.concat " " words)
            ~on_line:print_endline
        in
        Daemon.close conn;
        (match res with
        | Ok (`Ok header) -> Format.eprintf "%s@." header
        | Ok (`Err header) ->
            Format.eprintf "%s@." header;
            exit 4
        | Error msg ->
            Format.eprintf "error: %s@." msg;
            exit 4)
  in
  let log =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Log file to send as a $(b,stream) body ($(b,-) for stdin); \
             $(b,n=)$(i,COUNT) is appended to the request automatically.")
  in
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Flow-spec file to send as a $(b,flow) body, raw lines ($(b,-) \
             for stdin); $(b,n=)$(i,COUNT) is appended automatically.")
  in
  let words =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"WORD"
          ~doc:
            "Request tokens, e.g. $(b,load name=d scheme=random m=64) or \
             $(b,stream design=d repair=1).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send one request to a running $(b,timeprintd) ($(b,serve)) and \
          print the response: payload lines on stdout as they stream in, the \
          response header on stderr. Exits 4 on an $(b,err) response or \
          transport failure.")
    Term.(const run $ socket_arg $ log $ spec $ words)

(* ------------------------------------------------------------------ *)
(* flow: multi-signal reconstruction over a Flow_spec request          *)

module Flow = Tp_flow.Flow
module Flow_spec = Tp_flow.Flow_spec
module Select = Tp_flow.Select

let spec_file_arg =
  Arg.(
    value
    & pos 0 string "-"
    & info [] ~docv:"FILE"
        ~doc:
          "Flow spec ($(b,-) for stdin): $(b,channel)/$(b,entry)/\
           $(b,template)/$(b,property)/$(b,budget) lines, one directive per \
           line.")

(* a malformed spec is a usage error (64), same as a bad flag: nothing
   was reconstructed, the request itself is wrong *)
let read_spec path =
  let ic =
    if path = "-" then stdin
    else
      try open_in path
      with Sys_error msg ->
        Format.eprintf "error: %s@." msg;
        exit exit_usage
  in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        if ic != stdin then close_in ic;
        List.rev acc
    | line -> go (line :: acc)
  in
  match Flow_spec.parse (go []) with
  | Ok spec -> spec
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit exit_usage

let max_alts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-alts" ] ~docv:"N"
        ~doc:
          "Enumerate at most $(i,N) witnesses per ambiguous entry (default \
           16); an entry that exceeds it stays ambiguous with a truncated \
           alternative set.")

let flow_reconstruct_cmd =
  let run path repair jobs max_alts =
    let spec = read_spec path in
    match Flow_spec.channels spec with
    | Error msg ->
        Format.eprintf "error: %s@." msg;
        exit exit_usage
    | Ok channels -> (
        let svc = Service.create () in
        match
          Service.flow svc ~repair ?jobs ?max_alts channels
            spec.Flow_spec.sp_templates
        with
        | Error e -> service_error e
        | Ok { Service.fl_observed; fl_stitched } ->
            List.iter
              (fun o -> print_endline (Render.flow_health_line o))
              fl_observed;
            List.iter
              (fun f -> print_endline (Render.flow_line f))
              fl_stitched.Flow.flows;
            print_endline (Render.flow_summary_line fl_stitched);
            if
              List.exists
                (fun (f : Flow.flow) ->
                  match f.Flow.f_status with
                  | Flow.Broken _ -> true
                  | Flow.Definite _ | Flow.Ambiguous _ -> false)
                fl_stitched.Flow.flows
            then exit 2)
  in
  Cmd.v
    (Cmd.info "reconstruct"
       ~doc:
         "Reconstruct every channel of a flow spec independently, stitch the \
          witnesses into protocol transactions against the spec's templates, \
          and report each flow as definite, ambiguous or broken. Exits 2 \
          when any flow is broken (a template step has no witness in its \
          window), 64 on a malformed spec.")
    Term.(const run $ spec_file_arg $ repair_arg $ jobs_arg $ max_alts_arg)

let flow_select_cmd =
  let run path budget =
    let spec = read_spec path in
    match Flow_spec.candidates spec with
    | Error msg ->
        Format.eprintf "error: %s@." msg;
        exit exit_usage
    | Ok candidates -> (
        let budget =
          match budget with Some b -> Some b | None -> spec.Flow_spec.sp_budget
        in
        match budget with
        | None ->
            Format.eprintf
              "error: select needs --budget or a 'budget bits=' spec line@.";
            exit exit_usage
        | Some budget -> (
            match Select.select ~budget candidates spec.Flow_spec.sp_properties with
            | exception Invalid_argument msg ->
                Format.eprintf "error: %s@." msg;
                exit exit_usage
            | report -> List.iter print_endline (Select.report_lines report)))
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"BITS"
          ~doc:
            "Total register bits to spend across channels (overrides the \
             spec's $(b,budget bits=) line).")
  in
  Cmd.v
    (Cmd.info "select"
       ~doc:
         "Observability selection: greedily assign per-channel timestamp \
          widths under a total register-bit budget and report which \
          properties stay decidable. Exits 64 on a malformed spec or a \
          missing budget.")
    Term.(const run $ spec_file_arg $ budget_arg)

let flow_cmd =
  Cmd.group
    (Cmd.info "flow"
       ~doc:
         "Multi-signal timeprint flows: reconstruct concurrent channels and \
          stitch protocol transactions, or select per-channel widths under a \
          bit budget.")
    [ flow_reconstruct_cmd; flow_select_cmd ]

(* ------------------------------------------------------------------ *)
(* can-demo / soc-demo                                                 *)

let can_demo_cmd =
  let run m delay =
    let enc = Encoding.random_constrained ~m ~b:24 ~seed:2019 () in
    let open Tp_canbus in
    let periodics =
      [
        Scheduler.periodic Message.engine_data ~period:(4 * m) ~offset:40;
        Scheduler.periodic Message.gearbox_info ~period:(3 * m + 150) ~offset:320;
      ]
    in
    let duration = 8 * m in
    let requests =
      Scheduler.requests ~duration ~delays:[ ("EngineData", 1, delay) ] periodics
    in
    let tl = Bus.simulate ~bitrate:5_000_000 ~duration requests in
    List.iter
      (fun e -> Format.printf "%s@." (Msglog.to_string e))
      (Msglog.of_timeline tl);
    let entries = Forensics.log_timeline enc tl in
    List.iteri
      (fun i e -> Format.printf "trace-cycle %d: %a@." i Log_entry.pp e)
      entries;
    let release = 40 + (4 * m) + delay in
    let tc = release / m in
    match
      Forensics.locate_transmission enc (List.nth entries tc) Message.engine_data
    with
    | Ok { Forensics.start_cycle; end_cycle; _ } ->
        Format.printf "EngineData reconstructed at cycles %d..%d of trace-cycle %d@."
          start_cycle end_cycle tc
    | Error e -> Format.printf "reconstruction failed: %s@." e
  in
  let m_arg =
    Arg.(value & opt int 250 & info [ "m"; "trace-len" ] ~docv:"M" ~doc:"Trace-cycle length.")
  in
  let delay_arg =
    Arg.(
      value & opt int 61
      & info [ "delay" ] ~docv:"BITS" ~doc:"Injected delay on EngineData #1.")
  in
  Cmd.v
    (Cmd.info "can-demo" ~doc:"Run the CAN forensics scenario end to end.")
    Term.(const run $ m_arg $ delay_arg)

let soc_demo_cmd =
  let run ambient =
    let open Tp_soc in
    let enc = Encoding.random_constrained ~m:256 ~b:20 ~seed:5 () in
    let image = Isa.stride_walker ~steps:600 ~base:0x8000 ~stride:3 in
    let hw = Soc_system.run (Soc_system.hardware_config ~ambient enc) image in
    let sim = Soc_system.run (Soc_system.simulation_config enc) image in
    Format.printf "hardware: %d refreshes, %.1f degC final@."
      hw.Soc_system.refresh_count hw.Soc_system.final_celsius;
    (match Soc_system.first_mismatch hw sim with
    | `K i -> Format.printf "k mismatch at trace-cycle %d@." i
    | `Tp i -> Format.printf "TP mismatch (equal k) at trace-cycle %d@." i
    | `None -> Format.printf "no mismatch@.")
  in
  let ambient_arg =
    Arg.(
      value & opt float 55.0
      & info [ "ambient" ] ~docv:"C" ~doc:"Ambient temperature in Celsius.")
  in
  Cmd.v
    (Cmd.info "soc-demo" ~doc:"Run the SoC refresh-detection scenario.")
    Term.(const run $ ambient_arg)

let () =
  let info =
    Cmd.info "timeprint" ~version:"1.0.0"
      ~doc:"Cycle-accurate temporal tracing of on-chip signals using timeprints."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            encode_cmd;
            log_cmd;
            compile_cmd;
            reconstruct_cmd;
            stream_cmd;
            corrupt_cmd;
            check_cmd;
            dimacs_cmd;
            serve_cmd;
            query_cmd;
            flow_cmd;
            can_demo_cmd;
            soc_demo_cmd;
          ]))
