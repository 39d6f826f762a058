(* tpbench — drive one seeded workload through timeprintd.

   tpbench --workload triage|repair --seed N --seconds S --trace 0|1
           --daemon PATH/timeprintd.exe --rundir DIR

   --trace 0: set up the daemon (spawn, load every design, one warm-up
   pass), then run a closed loop over one Unix-socket connection for S
   seconds of request time, checking every answer; set-up is repeated
   on fresh daemons at points spread over the run, and the fastest
   set-up is reported. Prints the end-to-end metrics.

   --trace 1: send a fixed request prefix over the socket, through
   Service in-process, and twice through the layer-by-layer traced
   replay, side by side; check that the replays priced every request
   as the program did and that tracing cost at most [max_overhead];
   print the per-layer metrics.

   The last stdout line is the JSON result. A wrong answer exits 1
   without printing one. *)

open Timeprint
open Perfbench_core
module Daemon = Tp_service.Daemon

let setup_repeats = 9

(* Largest trace.overhead_share a traced run accepts. Tracing costs a
   few percent; a replay that lags the program it copies (say, a
   faster pricing path that replay.ml did not follow) costs more, and
   fails the run instead of timing the old code. *)
let max_overhead = 0.5

(* Fewest requests a closed-loop run may report: p90 needs ten samples
   beyond it. The loop runs past --seconds to reach it, up to 3x
   --seconds or 60 s of request time, whichever is longer. *)
let min_requests = 120

exception Usage of string

type args = {
  workload : Gen.workload;
  seed : int;
  seconds : int;
  trace : bool;
  daemon_exe : string;
  rundir : string;
}

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | a :: _ -> raise (Usage ("unexpected argument " ^ a))
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None -> raise (Usage ("missing --" ^ k))
  in
  let int k =
    match int_of_string_opt (get k) with
    | Some v -> v
    | None -> raise (Usage ("--" ^ k ^ " is not an integer"))
  in
  {
    workload =
      (match Gen.workload_of_string (get "workload") with
      | Some w -> w
      | None -> raise (Usage ("unknown workload " ^ get "workload")));
    seed = int "seed";
    seconds = int "seconds";
    trace =
      (match get "trace" with
      | "0" -> false
      | "1" -> true
      | _ -> raise (Usage "--trace is 0 or 1"));
    daemon_exe = get "daemon";
    rundir = get "rundir";
  }

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)

type daemon = { pid : int; conn : Daemon.connection; sock : string }

let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun (p, _) -> p <> pid) !live

let kill_all () =
  List.iter
    (fun (pid, sock) ->
      reap pid;
      try Sys.remove sock with Sys_error _ -> ())
    !live

let sockets = ref 0

let spawn ~exe ~rundir =
  incr sockets;
  let sock =
    Filename.concat rundir
      (Printf.sprintf "tpd-%d-%d.sock" (Unix.getpid ()) !sockets)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe [| exe; "--socket"; sock |] null null Unix.stderr
  in
  Unix.close null;
  live := (pid, sock) :: !live;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec connect () =
    match Daemon.connect sock with
    | Ok conn -> { pid; conn; sock }
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun (p, _) -> p <> pid) !live;
            failwith "timeprintd exited during start-up");
        if Unix.gettimeofday () > deadline then failwith e;
        Unix.sleepf 0.001;
        connect ()
  in
  connect ()

(* One round trip: the response and its latency in ns, from writing the
   request line to reading the last payload line. *)
let round_trip d ~line ~body =
  let lines = ref [] in
  let t0 = Span.now () in
  let res =
    Daemon.request d.conn ~body line ~on_line:(fun l -> lines := l :: !lines)
  in
  let t1 = Span.now () in
  match res with
  | Error e -> failwith ("timeprintd transport: " ^ e)
  | Ok (`Ok header) -> (`Ok (header, List.rev !lines), t1 - t0)
  | Ok (`Err header) -> (`Err header, t1 - t0)

let peak_rss_kib d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
  in
  match Bench_stats.vmhwm_kib text with
  | Some kib -> kib
  | None -> failwith "no VmHWM in /proc status"

let shutdown d =
  (match round_trip d ~line:"shutdown" ~body:[] with
  | `Ok _, _ -> ()
  | `Err h, _ -> failwith ("shutdown refused: " ^ h));
  Daemon.close d.conn;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun (p, _) -> p <> d.pid) !live

let lines_of = function `Ok (h, p) -> h :: p | `Err h -> [ h ]

let field header key =
  String.split_on_char ' ' header
  |> List.find_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i when String.sub tok 0 i = key ->
             Some (String.sub tok (i + 1) (String.length tok - i - 1))
         | _ -> None)

(* Spawn, load every design, send the warm-ups. Returns the daemon, the
   set-up time in ns, and the warm-up responses (checked after the
   clock stops). *)
let setup args designs warmups =
  let t0 = Span.now () in
  let d = spawn ~exe:args.daemon_exe ~rundir:args.rundir in
  let loads =
    Array.map
      (fun (ds : Gen.design) -> fst (round_trip d ~line:ds.load_line ~body:[]))
      designs
  in
  let warm =
    List.map
      (fun (r : Gen.request) -> fst (round_trip d ~line:r.line ~body:r.body))
      warmups
  in
  let t1 = Span.now () in
  Array.iteri
    (fun i resp ->
      let ds = designs.(i) in
      match resp with
      | `Ok (h, [])
        when field h "status" = Some "compiled"
             && field h "b" = Some (string_of_int (Encoding.b ds.enc)) ->
          ()
      | r ->
          failwith
            (Printf.sprintf "load of %s: unexpected %S" ds.d_name
               (String.concat "|" (lines_of r))))
    loads;
  List.iter2
    (fun r resp ->
      let t = Verify.check designs ~original:(fun _ -> None) r resp in
      if Bench_stats.failed t > 0 then failwith ("warm-up not answered: " ^ r.Gen.line))
    warmups warm;
  (d, t1 - t0, warm)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let print_result ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
          (Bench_stats.json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed (String.concat ", " body)

let ns_to_s ns = float ns /. 1e9
let ns_to_ms ns = float ns /. 1e6

(* The correctness gate over a request sequence, with word-for-word
   query repeats compared against the payload their original got. *)
let checker designs =
  let payloads = Hashtbl.create 256 in
  fun (r : Gen.request) resp ->
    let t = Verify.check designs ~original:(Hashtbl.find_opt payloads) r resp in
    (match (resp, r.truth) with
    | `Ok (_, p), Gen.Ask { repeat = false; _ } -> Hashtbl.replace payloads r.line p
    | _ -> ());
    t

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end                                               *)

let end_to_end args designs warmups request =
  let budget = args.seconds * 1_000_000_000 in
  let d, ns, _ = setup args designs warmups in
  let setups = ref [ ns_to_s ns ] in
  (* the other set-up samples are spread over the run (each on a
     daemon of its own, while the measured one idles), and the fastest
     is reported: this host's speed moves between two levels in
     phases, and the fastest sample is the one that does not depend on
     which phases a run happened to meet *)
  let more_setups ~upto =
    while List.length !setups < setup_repeats
          && upto >= budget * List.length !setups / setup_repeats do
      let d', ns, _ = setup args designs warmups in
      shutdown d';
      setups := ns_to_s ns :: !setups
    done
  in
  let check = checker designs in
  let latencies = ref [] and timed = ref 0 and i = ref 0 in
  let tally = ref Bench_stats.empty in
  let cap = max (3 * budget) 60_000_000_000 in
  while (!timed < budget || !i < min_requests) && !timed < cap do
    more_setups ~upto:!timed;
    let r : Gen.request = request !i in
    let resp, ns = round_trip d ~line:r.line ~body:r.body in
    timed := !timed + ns;
    latencies := ns_to_ms ns :: !latencies;
    tally := Bench_stats.merge !tally (check r resp);
    incr i
  done;
  more_setups ~upto:max_int;
  let rss = peak_rss_kib d in
  shutdown d;
  let lat = Array.of_list !latencies in
  let pct p =
    match Bench_stats.percentile ~pct:p lat with
    | Ok v -> v
    | Error e -> failwith ("latency " ^ e)
  in
  let p50 = pct 50 and p90 = pct 90 in
  let t = !tally in
  Printf.printf
    "%s seed=%d: %d requests, %d entries in %.3f s of request time; \
     latency n=%d p50=%.3f ms p90=%.3f ms (%d samples beyond p90); \
     set-up runs %s s\n"
    (Gen.workload_name args.workload)
    args.seed !i t.attempted (ns_to_s !timed) (Array.length lat) p50 p90
    (Bench_stats.beyond ~pct:90 (Array.length lat))
    (String.concat "," (List.rev_map (Printf.sprintf "%.4f") !setups));
  print_result ~attempted:t.attempted ~failed:(Bench_stats.failed t)
    [
      ("setup_s", "s", List.fold_left Float.min infinity !setups);
      ("entries_per_s", "1/s", float t.answered /. ns_to_s !timed);
      ("latency_p50_ms", "ms", p50);
      ("latency_p90_ms", "ms", p90);
      ("answered_share", "ratio", Bench_stats.answered_share t);
      ("peak_rss_mb", "MB", float rss /. 1024.);
    ]

(* ------------------------------------------------------------------ *)
(* --trace 1: per layer                                                *)

type agg = { mutable count : int; mutable dur : int; mutable work : int }

(* Per-name totals over the spans whose request id satisfies [keep]. *)
let aggregate sp kids ~keep =
  let tbl = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
        let a = { count = 0; dur = 0; work = 0 } in
        Hashtbl.replace tbl name a;
        a
  in
  for id = 0 to Span.length sp - 1 do
    if keep (Span.req sp id) then begin
      let name = Span.name sp id in
      let a = get name in
      a.count <- a.count + 1;
      a.dur <- a.dur + Span.duration sp id;
      a.work <- a.work + Span.work sp id;
      (* the planner's own share of a stream: the span minus the
         rendering its emit callback did *)
      if name = "plan.stream" then begin
        let r = get "plan.stream.run" in
        let render =
          List.fold_left
            (fun acc c ->
              if Span.name sp c = "render" then acc + Span.duration sp c else acc)
            0 kids.(id)
        in
        r.count <- r.count + 1;
        r.dur <- r.dur + Span.duration sp id - render;
        r.work <- r.work + Span.work sp id
      end
    end
  done;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None -> { count = 0; dur = 0; work = 0 }

let ratio a b = if b = 0 then 0. else float a /. float b

let response_of_lines = function
  | h :: p when String.starts_with ~prefix:"ok" h -> `Ok (h, p)
  | h :: _ -> `Err h
  | [] -> failwith "empty response"

let same_lines what i expected got =
  if got <> expected then
    raise
      (Verify.Wrong
         (Printf.sprintf "%s differs from the daemon's response to request %d"
            what i))

(* One traced replay: its own Service, span recorder and counts. *)
type replay = {
  sp : Span.t;
  svc : Tp_service.Service.t;
  counts : Replay.counts;
  warm_counts : Replay.counts;
  check : Gen.request -> [ `Ok of string * string list | `Err of string ] -> Bench_stats.tally;
  mutable tally : Bench_stats.tally;
  cache0 : Tp_service.Result_cache.stats;
}

(* Traced design set-up and warm-ups, each warm-up compared with the
   daemon's answer to it. *)
let replay designs warmups ~warm_expected =
  let sp = Span.create () and svc = Tp_service.Service.create () in
  Replay.traced_setup sp svc designs;
  let warm_counts = Replay.counts () in
  Array.iteri
    (fun i r ->
      same_lines "traced warm-up" i warm_expected.(i)
        (Replay.traced sp ~req:i warm_counts svc r))
    warmups;
  {
    sp;
    svc;
    counts = Replay.counts ();
    warm_counts;
    check = checker designs;
    tally = Bench_stats.empty;
    cache0 = Tp_service.Result_cache.stats (Tp_service.Service.cache svc);
  }

let replay_request t ~nw i r ~expected =
  let lines = Replay.traced t.sp ~req:(nw + i) t.counts t.svc r in
  same_lines "traced replay" i expected lines;
  t.tally <- Bench_stats.merge t.tally (t.check r (response_of_lines lines))

let cache_delta t =
  let c = Tp_service.Result_cache.stats (Tp_service.Service.cache t.svc) in
  (c.hits - t.cache0.hits, c.misses - t.cache0.misses)

(* The per-layer figures of one traced replay. *)
let layer_metrics r ~nw ~entries ~socket_ns ~plain_ns =
  let sp = r.sp in
  let kids = Span.children sp in
  let setup_agg = aggregate sp kids ~keep:(fun q -> q < 0) in
  let warm_agg = aggregate sp kids ~keep:(fun q -> q >= 0 && q < nw) in
  let work_agg = aggregate sp kids ~keep:(fun q -> q >= nw) in
  (* a layer the workload never reaches is measured on the warm-ups *)
  let source name = if (work_agg name).count > 0 then work_agg else warm_agg in
  let us_per ?(per = `Count) name =
    let agg = source name in
    let a = agg name in
    let denom =
      match per with
      | `Count -> a.count
      | `Work -> a.work
      | `Entries -> (agg "request").work
    in
    ratio a.dur denom /. 1e3
  in
  let setup_ms name = ratio (setup_agg name).dur (setup_agg name).count /. 1e6 in
  let admit_us =
    let agg = source "admission.admit" in
    ratio
      ((agg "admission.admit").dur + (agg "admission.release").dur)
      (agg "admission.admit").count
    /. 1e3
  in
  let traced_ns = (work_agg "request").dur in
  let covered = ref 0 in
  for id = 0 to Span.length sp - 1 do
    if Span.req sp id >= nw && Span.parent sp id = -1 then
      covered := !covered + Span.duration sp id - Span.self_time sp kids id
  done;
  let c = r.counts in
  (* the planner-only counts fall back to the warm-ups' queries on a
     workload that sends none (triage) *)
  let planner = if c.plan_runs > 0 then c else r.warm_counts in
  let hits, misses =
    match cache_delta r with
    | 0, 0 -> (r.cache0.hits, r.cache0.misses)
    | d -> d
  in
  let per_entry x = ratio x c.entries in
  let share x = ratio x c.stream_entries in
  ( traced_ns,
    [
      ("encoding.generate_ms", "ms", setup_ms "encoding.generate");
      ("registry.load_ms", "ms", setup_ms "registry.load");
      ("mitm.table_ms", "ms", setup_ms "mitm.table");
      ("daemon.io_us_per_entry", "us", ratio (socket_ns - plain_ns) entries /. 1e3);
      ("wire.parse_us_per_entry", "us", us_per ~per:`Entries "wire.parse");
      ("registry.find_us", "us", us_per "registry.find");
      ("admission.price_us_per_entry", "us", us_per ~per:`Work "admission.price");
      ("admission.admit_us", "us", admit_us);
      ("plan.stream_us_per_entry", "us", us_per ~per:`Work "plan.stream.run");
      ("presolve.us_per_entry", "us", us_per "presolve");
      ("mitm.us_per_entry", "us", us_per "mitm");
      ("plan.presolve_share", "ratio", share c.presolve);
      ("plan.mitm_share", "ratio", share c.mitm);
      ("plan.sat_share", "ratio", share c.sat);
      ("render.us_per_entry", "us", us_per ~per:`Entries "render");
      ("batch.ms_per_sat_entry", "ms", us_per ~per:`Work "batch" /. 1e3);
      ("batch.repaired_share", "ratio", share c.repaired);
      ("batch.quarantined_share", "ratio", share c.quarantined);
      ("sat.conflicts_per_entry", "count", per_entry c.conflicts);
      ("sat.propagations_per_entry", "count", per_entry c.propagations);
      ("sat.decisions_per_entry", "count", per_entry c.decisions);
      ("sat.gauss_props_per_entry", "count", per_entry c.gauss_props);
      ("plan.run_ms", "ms", us_per "plan.run" /. 1e3);
      ("plan.estimate_us", "us", us_per "plan.estimate");
      ("plan.sat_engine_share", "ratio", ratio planner.sat_engine planner.plan_runs);
      ("cache.lookup_us", "us", us_per "cache.lookup");
      ("cache.hit_share", "ratio", ratio hits (hits + misses));
      ("trace.overhead_share", "ratio", ratio (traced_ns - plain_ns) plain_ns);
      ("trace.coverage_share", "ratio", ratio !covered traced_ns);
    ] )

(* Every request goes, side by side, over the socket, through Service
   in-process, and through two traced replays — each on its own
   instance, all four in the same order — so each comparison is made
   within the same moment of the host. *)
let per_layer args designs warmups request =
  let n = (Gen.shape args.workload).trace_requests in
  let warmups = Array.of_list warmups in
  let nw = Array.length warmups in
  let d, _, warm_resp = setup args designs (Array.to_list warmups) in
  let warm_expected = Array.of_list (List.map lines_of warm_resp) in
  let plain = Tp_service.Service.create () in
  Array.iter
    (fun (ds : Gen.design) ->
      ignore (Tp_service.Service.load plain ~name:ds.d_name ds.enc))
    designs;
  Array.iter
    (fun (r : Gen.request) -> ignore (Replay.serve plain ~line:r.line ~body:r.body))
    warmups;
  let r1 = replay designs warmups ~warm_expected in
  let r2 = replay designs warmups ~warm_expected in
  let check = checker designs in
  let tally = ref Bench_stats.empty in
  let entries = ref 0 and socket_ns = ref 0 and plain_ns = ref 0 in
  for i = 0 to n - 1 do
    let r : Gen.request = request i in
    entries := !entries + Gen.entries r;
    let resp, ns = round_trip d ~line:r.line ~body:r.body in
    socket_ns := !socket_ns + ns;
    tally := Bench_stats.merge !tally (check r resp);
    let expected = lines_of resp in
    let t0 = Span.now () in
    let lines = Replay.serve plain ~line:r.line ~body:r.body in
    plain_ns := !plain_ns + (Span.now () - t0);
    same_lines "in-process Service answer" i expected lines;
    replay_request r1 ~nw i r ~expected;
    replay_request r2 ~nw i r ~expected
  done;
  shutdown d;
  let tally = !tally and entries = !entries in
  let socket_ns = !socket_ns and plain_ns = !plain_ns in
  if r1.tally <> tally then
    raise (Verify.Wrong "traced replay's answered share differs from the daemon's");
  let exact r = (r.counts, r.warm_counts, cache_delta r, r.tally) in
  if exact r1 <> exact r2 then
    raise (Verify.Wrong "two traced replays of one seed disagree on a count");
  (* the replay prices requests with its own copy of Service's pricing:
     the admitted cost must match the program's to the last bit *)
  let priced svc =
    (Tp_service.Admission.stats (Tp_service.Service.admission svc)).cost_bits_admitted
  in
  List.iter
    (fun r ->
      if priced r.svc <> priced plain then
        raise
          (Verify.Wrong
             (Printf.sprintf
                "traced replay priced the requests at %.17g bits, Service at %.17g"
                (priced r.svc) (priced plain))))
    [ r1; r2 ];
  let traced_ns, metrics = layer_metrics r1 ~nw ~entries ~socket_ns ~plain_ns in
  let overhead = ratio (traced_ns - plain_ns) plain_ns in
  if overhead > max_overhead then
    failwith
      (Printf.sprintf
         "trace.overhead_share %.3f is above %.1f: replay.ml no longer \
          follows the program's cost"
         overhead max_overhead);
  Span.write r1.sp
    (Filename.concat args.rundir
       (Printf.sprintf "spans-%s-%d.tsv" (Gen.workload_name args.workload) args.seed));
  Printf.printf
    "%s seed=%d traced: %d requests, %d entries; socket %.3f s, in-process \
     %.3f s, traced %.3f s; %d spans\n"
    (Gen.workload_name args.workload)
    args.seed n entries (ns_to_s socket_ns) (ns_to_s plain_ns)
    (ns_to_s traced_ns) (Span.length r1.sp);
  print_result ~attempted:tally.attempted ~failed:(Bench_stats.failed tally) metrics

let () =
  at_exit kill_all;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 3));
  match parse_args () with
  | exception Usage msg ->
      prerr_endline ("tpbench: " ^ msg);
      exit 2
  | args -> (
      let designs = Gen.designs args.workload in
      let warmups = Gen.warmups args.workload ~seed:args.seed designs in
      let request = Gen.requests args.workload ~seed:args.seed designs in
      match
        if args.trace then per_layer args designs warmups request
        else end_to_end args designs warmups request
      with
      | () -> ()
      | exception Verify.Wrong msg ->
          prerr_endline ("tpbench: WRONG ANSWER: " ^ msg);
          exit 1
      | exception Failure msg ->
          prerr_endline ("tpbench: " ^ msg);
          exit 2)
