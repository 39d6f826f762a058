(* The service core: registry LRU semantics (eviction order, stale
   reload, counter correctness under concurrent pool access),
   cost-bits admission (reject / queue / run), result-cache wear-out,
   the end-to-end Service API, and the daemon speaking the wire
   protocol over a real Unix socket. *)

open Timeprint
module Service = Tp_service.Service
module Design_registry = Tp_service.Design_registry
module Admission = Tp_service.Admission
module Result_cache = Tp_service.Result_cache
module Render = Tp_service.Render
module Wire = Tp_service.Wire
module Daemon = Tp_service.Daemon
module Pool = Tp_parallel.Pool

let m = 24
let enc_seed seed = Encoding.random_constrained ~m ~b:10 ~seed ()

let entry_k enc k =
  let st = Random.State.make [| 0x7e57; k |] in
  Logger.abstract enc (Signal.random st ~m ~k)

(* ------------------------------------------------------------------ *)
(* Design registry                                                     *)

let test_lru_eviction_order () =
  let t = Design_registry.create ~capacity:2 () in
  let evicted = ref [] in
  Design_registry.on_evict t (fun name -> evicted := name :: !evicted);
  ignore (Design_registry.load t ~name:"a" (enc_seed 1));
  ignore (Design_registry.load t ~name:"b" (enc_seed 2));
  (* touching [a] makes [b] the least-recently-used entry *)
  (match Design_registry.find t "a" with
  | Some _ -> ()
  | None -> Alcotest.fail "design a vanished");
  ignore (Design_registry.load t ~name:"c" (enc_seed 3));
  Alcotest.(check (list string)) "LRU victim was b" [ "b" ] !evicted;
  Alcotest.(check (list string))
    "survivors" [ "a"; "c" ] (Design_registry.names t);
  let s = Design_registry.stats t in
  Alcotest.(check int) "one eviction" 1 s.Design_registry.evictions;
  Alcotest.(check int) "size at capacity" 2 s.Design_registry.size;
  (* and the evicted name misses while the touched one still hits *)
  Alcotest.(check bool) "b gone" true (Design_registry.find t "b" = None);
  Alcotest.(check bool) "a kept" true (Design_registry.find t "a" <> None)

let test_stale_reload () =
  let t = Design_registry.create () in
  let _, st1 = Design_registry.load t ~name:"d" (enc_seed 1) in
  Alcotest.(check bool) "first load misses" true (st1 = `Miss);
  let _, st2 = Design_registry.load t ~name:"d" (enc_seed 1) in
  Alcotest.(check bool) "same encoding hits" true (st2 = `Hit);
  let session, st3 = Design_registry.load t ~name:"d" (enc_seed 2) in
  Alcotest.(check bool) "changed encoding is stale" true (st3 = `Stale);
  (* the session must serve the NEW design, not the cached pack *)
  Alcotest.(check bool) "session re-anchored on the new encoding" true
    (Encoding.timestamps (Plan.session_encoding session)
    = Encoding.timestamps (enc_seed 2));
  Alcotest.(check bool) "stale session still pack-backed" true
    (Plan.session_pack session <> None);
  let s = Design_registry.stats t in
  Alcotest.(check int) "hits" 1 s.Design_registry.hits;
  Alcotest.(check int) "misses" 1 s.Design_registry.misses;
  Alcotest.(check int) "stales" 1 s.Design_registry.stales

let test_concurrent_counters () =
  let t = Design_registry.create () in
  let designs = Array.init 4 (fun i -> (Printf.sprintf "d%d" i, enc_seed i)) in
  let pool = Pool.create ~jobs:4 in
  let ops = 96 in
  let sessions =
    Pool.map pool
      (fun i ->
        let name, enc = designs.(i mod 4) in
        fst (Design_registry.load t ~name enc))
      (Array.init ops Fun.id)
  in
  Pool.shutdown pool;
  Array.iter
    (fun s ->
      if Plan.session_pack s = None then
        Alcotest.fail "concurrent load returned a packless session")
    sessions;
  let s = Design_registry.stats t in
  (* the lock serializes the counters: every op is exactly one of
     hit/miss/stale, and a design compiles at most once per loser of
     the racing-compile window — with 4 designs and 96 ops, misses
     land in [4, ops] and the sum stays exact *)
  Alcotest.(check int) "every op counted once" ops
    (s.Design_registry.hits + s.Design_registry.misses
   + s.Design_registry.stales);
  Alcotest.(check int) "no stales" 0 s.Design_registry.stales;
  Alcotest.(check bool) "at least one miss per design" true
    (s.Design_registry.misses >= 4);
  Alcotest.(check int) "all designs cached" 4 s.Design_registry.size

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let test_admission_routes () =
  let a =
    Admission.create ~max_running:1 ~queue_limit:0 ~default_quota_bits:10. ()
  in
  (match Admission.admit a ~tenant:"t" ~cost_bits:11. with
  | Error (Admission.Over_quota { cost_bits; quota_bits; _ }) ->
      Alcotest.(check (float 0.01)) "cost echoed" 11. cost_bits;
      Alcotest.(check (float 0.01)) "quota echoed" 10. quota_bits
  | _ -> Alcotest.fail "over-quota request was not rejected");
  let ticket =
    match Admission.admit a ~tenant:"t" ~cost_bits:5. with
    | Ok t -> t
    | Error _ -> Alcotest.fail "in-budget request rejected"
  in
  (* slot full, zero-length queue: reject rather than block *)
  (match Admission.admit a ~tenant:"t" ~cost_bits:5. with
  | Error (Admission.Queue_full _) -> ()
  | _ -> Alcotest.fail "expected queue-full rejection");
  Admission.release a ticket;
  let s = Admission.stats a in
  Alcotest.(check int) "admitted" 1 s.Admission.admitted;
  Alcotest.(check int) "rejected quota" 1 s.Admission.rejected_quota;
  Alcotest.(check int) "rejected queue" 1 s.Admission.rejected_queue;
  Alcotest.(check int) "nothing running" 0 s.Admission.running

let test_admission_backpressure () =
  let a = Admission.create ~max_running:1 ~queue_limit:2 () in
  let t1 =
    match Admission.admit a ~tenant:"t" ~cost_bits:1. with
    | Ok t -> t
    | Error _ -> Alcotest.fail "first admit rejected"
  in
  let waiter =
    Domain.spawn (fun () -> Admission.admit a ~tenant:"t" ~cost_bits:1.)
  in
  (* wait until the domain is parked in the queue *)
  let rec spin n =
    if n = 0 then Alcotest.fail "waiter never queued"
    else if (Admission.stats a).Admission.queued = 0 then (
      Unix.sleepf 0.01;
      spin (n - 1))
  in
  spin 500;
  Admission.release a t1;
  (match Domain.join waiter with
  | Ok t2 -> Admission.release a t2
  | Error _ -> Alcotest.fail "queued request was rejected");
  let s = Admission.stats a in
  Alcotest.(check int) "both admitted" 2 s.Admission.admitted;
  Alcotest.(check bool) "queue depth recorded" true
    (s.Admission.queued_peak >= 1);
  Alcotest.(check int) "drained" 0 (s.Admission.running + s.Admission.queued)

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)

let test_cache_wearout () =
  let c = Result_cache.create ~capacity:4 () in
  let enc = enc_seed 7 in
  let entries = List.init 5 (fun k -> entry_k enc (k + 1)) in
  let outcome k = Engine.Count (k, `Exact) in
  List.iteri
    (fun i e ->
      Result_cache.store c ~design:"d" enc e ~fingerprint:"fp" (outcome i))
    entries;
  (* the ring holds 4: entry 0 has been overwritten and must miss *)
  Alcotest.(check bool) "oldest entry worn out" true
    (Result_cache.lookup c ~design:"d" enc (List.hd entries) ~fingerprint:"fp"
    = None);
  (match
     Result_cache.lookup c ~design:"d" enc (List.nth entries 4)
       ~fingerprint:"fp"
   with
  | Some (Engine.Count (4, `Exact)) -> ()
  | _ -> Alcotest.fail "newest entry lost");
  (* same entry, different query fingerprint: not the same answer *)
  Alcotest.(check bool) "fingerprint partitions the key" true
    (Result_cache.lookup c ~design:"d" enc (List.nth entries 4)
       ~fingerprint:"other"
    = None);
  let s = Result_cache.stats c in
  Alcotest.(check bool) "wear-out counted as eviction" true
    (s.Result_cache.evictions >= 1);
  Result_cache.invalidate c ~design:"d";
  Alcotest.(check bool) "invalidate drops the shard" true
    (Result_cache.lookup c ~design:"d" enc (List.nth entries 4)
       ~fingerprint:"fp"
    = None)

(* ------------------------------------------------------------------ *)
(* Service end to end                                                  *)

let test_service_reconstruct_cache () =
  let svc = Service.create () in
  let enc = enc_seed 11 in
  ignore (Service.load svc ~name:"d" enc);
  let answer = Query.Enumerate { max_solutions = Some 5 } in
  let first =
    match Service.reconstruct svc ~design:"d" ~answer (entry_k enc 3) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Service.error_line e)
  in
  (match first.Service.served with
  | `Ran _ -> ()
  | `Cache -> Alcotest.fail "first answer cannot be cached");
  let second =
    match Service.reconstruct svc ~design:"d" ~answer (entry_k enc 3) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Service.error_line e)
  in
  (match second.Service.served with
  | `Cache -> ()
  | `Ran _ -> Alcotest.fail "repeat query missed the result cache");
  Alcotest.(check bool) "cached outcome identical" true
    (first.Service.outcome = second.Service.outcome);
  (match Service.reconstruct svc ~design:"nope" ~answer (entry_k enc 3) with
  | Error (Service.Unknown_design "nope") -> ()
  | _ -> Alcotest.fail "unknown design not rejected");
  (* a stale reload of the design must drop its cached answers *)
  ignore (Service.load svc ~name:"d" (enc_seed 12));
  let enc' = enc_seed 12 in
  (match Service.reconstruct svc ~design:"d" ~answer (entry_k enc' 3) with
  | Ok { Service.served = `Ran _; _ } -> ()
  | Ok { Service.served = `Cache; _ } ->
      Alcotest.fail "stale design served a cached answer for the old design"
  | Error e -> Alcotest.fail (Service.error_line e))

(* the stale reload drops the shard — but the cache must come back to
   life for the NEW design: same request twice after the reload is one
   run, one hit (a shard invalidated forever would silently turn every
   repeat query into a solver run) *)
let test_cache_refills_after_stale () =
  let svc = Service.create () in
  let answer = Query.Enumerate { max_solutions = Some 5 } in
  let serve enc =
    match Service.reconstruct svc ~design:"d" ~answer (entry_k enc 3) with
    | Ok r -> r.Service.served
    | Error e -> Alcotest.fail (Service.error_line e)
  in
  let enc1 = enc_seed 41 in
  ignore (Service.load svc ~name:"d" enc1);
  (match serve enc1 with
  | `Ran _ -> ()
  | `Cache -> Alcotest.fail "first answer cannot be cached");
  (match serve enc1 with
  | `Cache -> ()
  | `Ran _ -> Alcotest.fail "warm repeat missed the cache");
  let enc2 = enc_seed 42 in
  let _, status = Service.load svc ~name:"d" enc2 in
  Alcotest.(check bool) "reload is stale" true (status = `Stale);
  (match serve enc2 with
  | `Ran _ -> ()
  | `Cache -> Alcotest.fail "post-stale request served from the dropped shard");
  match serve enc2 with
  | `Cache -> ()
  | `Ran _ -> Alcotest.fail "post-stale repeat did not re-cache"

let test_service_stream_matches_oneshot () =
  let svc = Service.create () in
  let enc = enc_seed 21 in
  ignore (Service.load svc ~name:"d" enc);
  let entries = List.init 9 (fun i -> entry_k enc (1 + (i mod 3))) in
  let oneshot = List.mapi Render.entry_line (Plan.run_stream enc entries) in
  List.iter
    (fun jobs ->
      let got = ref [] in
      (match
         Service.stream svc ~design:"d" ?jobs entries ~emit:(fun i t ->
             got := Render.entry_line i t :: !got)
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Service.error_line e));
      Alcotest.(check (list string))
        (Printf.sprintf "stream lines jobs=%s"
           (match jobs with None -> "none" | Some j -> string_of_int j))
        oneshot (List.rev !got))
    [ None; Some 1; Some 2; Some 4 ]

let test_service_quota () =
  let svc = Service.create () in
  let enc = enc_seed 31 in
  ignore (Service.load svc ~name:"d" enc);
  Service.set_quota svc ~tenant:"starved" 0.1;
  let answer = Query.First in
  (* hard entry for this design: k=8 prices above a 0.1-bit quota *)
  (match
     Service.reconstruct svc ~tenant:"starved" ~design:"d" ~answer
       (entry_k enc 8)
   with
  | Error (Service.Rejected (Admission.Over_quota { tenant; _ })) ->
      Alcotest.(check string) "rejection names the tenant" "starved" tenant
  | _ -> Alcotest.fail "starved tenant was admitted");
  (* the default tenant still gets through on the same service *)
  match Service.reconstruct svc ~design:"d" ~answer (entry_k enc 8) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Service.error_line e)

(* ------------------------------------------------------------------ *)
(* Daemon over a real socket                                           *)

(* Best-effort shutdown so an assertion failure mid-test cannot leave
   the daemon domain parked in [accept] (joining it would then hang
   the whole suite). *)
let shutdown_daemon socket =
  match Daemon.connect socket with
  | Error _ -> ()
  | Ok conn ->
      (try ignore (Daemon.request conn ~body:[] "shutdown" ~on_line:ignore)
       with _ -> ());
      Daemon.close conn

let with_daemon f =
  let dir = Filename.temp_file "tpd" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  let svc = Service.create () in
  let daemon =
    Domain.spawn (fun () -> Daemon.run ~service:svc (Daemon.config socket))
  in
  let rec wait_sock n =
    if n = 0 then Alcotest.fail "daemon never bound its socket"
    else if not (Sys.file_exists socket) then (
      Unix.sleepf 0.01;
      wait_sock (n - 1))
  in
  wait_sock 500;
  Fun.protect
    ~finally:(fun () ->
      shutdown_daemon socket;
      Domain.join daemon;
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    (fun () -> f socket)

let request_lines conn line ~body =
  let lines = ref [] in
  match Daemon.request conn ~body line ~on_line:(fun l -> lines := l :: !lines) with
  | Ok (`Ok header) -> (header, List.rev !lines)
  | Ok (`Err header) -> Alcotest.failf "request %S failed: %s" line header
  | Error msg -> Alcotest.failf "request %S transport error: %s" line msg

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_daemon_socket () =
  with_daemon (fun socket ->
      let conn =
        match Daemon.connect socket with
        | Ok c -> c
        | Error msg -> Alcotest.fail msg
      in
      let enc = enc_seed 0x7155 in
      (* [load] answers in-line with the design's dimensions *)
      let header, _ =
        request_lines conn
          (Printf.sprintf "load name=d scheme=random m=%d b=10 seed=%d" m
             0x7155)
          ~body:[]
      in
      Alcotest.(check bool) "load compiled" true (contains header "status=compiled");
      (* a malformed request is an err line, not a dropped connection *)
      (match Daemon.request conn ~body:[] "bogus verb=1" ~on_line:ignore with
      | Ok (`Err line) ->
          Alcotest.(check bool) "bad request structured" true
            (contains line "code=bad-request")
      | _ -> Alcotest.fail "garbage verb not rejected");
      (* stream over the wire = one-shot rendering, byte for byte *)
      let entries = List.init 6 (fun i -> entry_k enc (1 + (i mod 3))) in
      let oneshot = Plan.run_stream enc entries in
      let expect =
        List.mapi Render.entry_line oneshot
        @ [ Render.summary_line (Render.count oneshot) ]
      in
      let _, got =
        request_lines conn
          (Printf.sprintf "stream design=d n=%d" (List.length entries))
          ~body:(List.map Wire.render_entry entries)
      in
      Alcotest.(check (list string)) "streamed verdicts" expect got;
      (* reconstruct round trip, then its cache hit *)
      let e = entry_k enc 2 in
      let hdr1, lines1 =
        request_lines conn
          (Printf.sprintf "reconstruct design=d tp=%s k=%d first=1"
             (Tp_bitvec.Bitvec.to_string (Log_entry.tp e))
             (Log_entry.k e))
          ~body:[]
      in
      Alcotest.(check bool) "first run not cached" true
        (contains hdr1 "cached=0");
      let hdr2, lines2 =
        request_lines conn
          (Printf.sprintf "reconstruct design=d tp=%s k=%d first=1"
             (Tp_bitvec.Bitvec.to_string (Log_entry.tp e))
             (Log_entry.k e))
          ~body:[]
      in
      Alcotest.(check bool) "repeat served from cache" true
        (contains hdr2 "cached=1");
      Alcotest.(check (list string)) "cached payload identical" lines1 lines2;
      (* stats exposes one line per subsystem *)
      let _, stats = request_lines conn "stats" ~body:[] in
      Alcotest.(check int) "stats lines" 4 (List.length stats);
      List.iter2
        (fun prefix line ->
          Alcotest.(check bool)
            (Printf.sprintf "stats line %s" prefix)
            true
            (String.length line >= String.length prefix
            && String.sub line 0 (String.length prefix) = prefix))
        [ "registry "; "cache "; "admission "; "plan " ]
        stats;
      let _, _ = request_lines conn "shutdown" ~body:[] in
      Daemon.close conn;
      (* the daemon unlinks on its way out of the accept loop *)
      let rec wait_unlink n =
        if Sys.file_exists socket then
          if n = 0 then Alcotest.fail "socket survived shutdown"
          else (
            Unix.sleepf 0.01;
            wait_unlink (n - 1))
      in
      wait_unlink 500)

(* One client connection, closed even when an assertion fails: the
   daemon serves connections one at a time, so a connection left open
   would keep the final shutdown request from ever being read. *)
let with_conn socket f =
  let conn =
    match Daemon.connect socket with Ok c -> c | Error msg -> Alcotest.fail msg
  in
  Fun.protect ~finally:(fun () -> Daemon.close conn) (fun () -> f conn)

let load_design conn =
  ignore
    (request_lines conn
       (Printf.sprintf "load name=d scheme=random m=%d b=10 seed=%d" m 0x7155)
       ~body:[])

let check_stats conn =
  let header, stats = request_lines conn "stats" ~body:[] in
  Alcotest.(check bool) "stats answered" true (contains header "ok ");
  Alcotest.(check int) "stats lines" 4 (List.length stats)

(* A client that sends a long stream and hangs up without reading the
   reply: the daemon's writes fail (EPIPE — SIGPIPE would kill the
   process), which must end that connection only. *)
let test_daemon_client_hangup () =
  with_daemon (fun socket ->
      with_conn socket load_design;
      let enc = enc_seed 0x7155 in
      let n = 3000 in
      with_conn socket (fun (_, oc) ->
          output_string oc (Printf.sprintf "stream design=d n=%d\n" n);
          for i = 0 to n - 1 do
            output_string oc (Wire.render_entry (entry_k enc (1 + (i mod 3))));
            output_char oc '\n'
          done);
      with_conn socket check_stats)

(* A stream or flow header that fails to parse still declares its
   body; the daemon must consume it, so the next request gets its own
   reply instead of an err line per body line. *)
let test_daemon_bad_header_framing () =
  with_daemon (fun socket ->
      with_conn socket (fun conn ->
          load_design conn;
          List.iter
            (fun header ->
              (match
                 Daemon.request conn ~body:[ "0 1"; "0 1" ] header
                   ~on_line:ignore
               with
              | Ok (`Err line) ->
                  Alcotest.(check bool)
                    (header ^ " is a bad request")
                    true
                    (contains line "code=bad-request")
              | _ -> Alcotest.failf "%S was not rejected" header);
              check_stats conn)
            [ "stream design=d n=2 jobs=x"; "flow n=2 mode=bogus" ]))

(* A negative solution cap is a bad request on every answer kind, and
   the connection keeps serving: the next request gets its reply. *)
let test_daemon_negative_max () =
  with_daemon (fun socket ->
      with_conn socket (fun conn ->
          load_design conn;
          let e = entry_k (enc_seed 0x7155) 4 in
          List.iter
            (fun extra ->
              let line =
                Printf.sprintf "reconstruct design=d tp=%s k=%d%s max=-1"
                  (Tp_bitvec.Bitvec.to_string (Log_entry.tp e))
                  (Log_entry.k e) extra
              in
              (match Daemon.request conn ~body:[] line ~on_line:ignore with
              | Ok (`Err l) ->
                  Alcotest.(check bool) (line ^ " is a bad request") true
                    (contains l "code=bad-request")
              | _ -> Alcotest.failf "%S was not rejected" line);
              check_stats conn)
            [ ""; " count=1" ]))

let () =
  Alcotest.run "service"
    [
      ( "registry",
        [
          Alcotest.test_case "LRU eviction order" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "stale pack reload" `Quick test_stale_reload;
          Alcotest.test_case "counters under concurrent pool access" `Quick
            test_concurrent_counters;
        ] );
      ( "admission",
        [
          Alcotest.test_case "reject / queue / run" `Quick
            test_admission_routes;
          Alcotest.test_case "bounded-queue backpressure" `Quick
            test_admission_backpressure;
        ] );
      ( "cache",
        [ Alcotest.test_case "ring wear-out" `Quick test_cache_wearout ] );
      ( "service",
        [
          Alcotest.test_case "reconstruct + result cache" `Quick
            test_service_reconstruct_cache;
          Alcotest.test_case "cache refills after stale reload" `Quick
            test_cache_refills_after_stale;
          Alcotest.test_case "stream matches one-shot" `Quick
            test_service_stream_matches_oneshot;
          Alcotest.test_case "per-tenant quota" `Quick test_service_quota;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "wire protocol e2e" `Quick test_daemon_socket;
          Alcotest.test_case "client hang-up ends only its connection" `Quick
            test_daemon_client_hangup;
          Alcotest.test_case "negative max is a bad request" `Quick
            test_daemon_negative_max;
          Alcotest.test_case "malformed header keeps framing" `Quick
            test_daemon_bad_header_framing;
        ] );
    ]
