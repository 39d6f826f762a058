(* Multicore reconstruction: the domain pool itself, cooperative
   solver interruption, and the load-bearing invariant of the whole
   layer — answers never depend on the jobs value. Stream triage,
   cube-split enumerations/counts and First witnesses are compared
   across pool sizes and against the sequential path; the planner's
   pinning of non-splittable queries is regression-tested. *)

open Tp_parallel
open Timeprint

let signal_set signals = List.sort Signal.compare signals

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs in
      let input = Array.init 37 (fun i -> i) in
      let out = Pool.map pool (fun i -> i * i) input in
      Alcotest.(check (array int))
        (Printf.sprintf "squares in input order (jobs=%d)" jobs)
        (Array.map (fun i -> i * i) input)
        out;
      Pool.shutdown pool)
    [ 1; 2; 3; 4 ]

let test_pool_reuse_and_stats () =
  let pool = Pool.create ~jobs:2 in
  ignore (Pool.map pool succ [| 1; 2; 3 |]);
  ignore (Pool.map_list pool succ [ 4; 5 ]);
  Alcotest.(check int) "tasks counted across calls" 5 (Pool.tasks_run pool);
  Alcotest.(check (list int)) "map_list keeps order" [ 5; 6 ]
    (Pool.map_list pool succ [ 4; 5 ]);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

exception Boom of int

let test_pool_exception_propagation () =
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs in
      (try
         ignore
           (Pool.map pool
              (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
              (Array.init 10 (fun i -> i)));
         Alcotest.fail "expected Boom"
       with Boom i ->
         Alcotest.(check int)
           (Printf.sprintf "lowest-indexed failure wins (jobs=%d)" jobs)
           2 i);
      (* the pool survives a failed batch *)
      Alcotest.(check (array int)) "pool still usable" [| 0; 1 |]
        (Pool.map pool (fun i -> i) [| 0; 1 |]);
      Pool.shutdown pool)
    [ 1; 3 ]

let test_pool_get_eviction_defers_shutdown () =
  (* Evicting the cached pool while it has a map in flight must not
     join its workers under the running map: [get] returns the fresh
     pool at once and the retired one shuts down when the map drains.
     Before the deferred shutdown, the [get] below joined worker
     domains that were blocked inside the map's tasks — deadlock until
     the tasks gave up. *)
  let p1 = Pool.get ~jobs:3 in
  let started = Atomic.make 0 in
  let released = Atomic.make false in
  let evicted = Atomic.make false in
  let mapper =
    Domain.spawn (fun () ->
        Pool.map p1
          (fun _ ->
            Atomic.incr started;
            let spins = ref 0 in
            while (not (Atomic.get released)) && !spins < 300_000_000 do
              incr spins;
              Domain.cpu_relax ()
            done;
            Atomic.get evicted)
          (Array.make 4 ()))
  in
  while Atomic.get started = 0 do
    Domain.cpu_relax ()
  done;
  let p2 = Pool.get ~jobs:2 in
  Atomic.set evicted true;
  Atomic.set released true;
  let results = Domain.join mapper in
  Alcotest.(check int) "replacement pool has the new size" 2 (Pool.jobs p2);
  Alcotest.(check (array bool)) "map drained after eviction, not before"
    (Array.make 4 true) results;
  (* the retired pool's deferred shutdown has run; the fresh one works *)
  Alcotest.(check (array int)) "fresh pool serves maps" [| 0; 1; 2 |]
    (Pool.map p2 (fun i -> i) [| 0; 1; 2 |])

let test_pool_zero_means_recommended () =
  let pool = Pool.create ~jobs:0 in
  Alcotest.(check bool) "at least one domain" true (Pool.jobs pool >= 1);
  Pool.shutdown pool;
  Alcotest.(check int) "resolve_jobs fixes positive values" 3
    (Par_reconstruct.resolve_jobs 3);
  Alcotest.(check bool) "resolve_jobs 0 is recommended" true
    (Par_reconstruct.resolve_jobs 0 >= 1)

(* ------------------------------------------------------------------ *)
(* Solver interruption                                                 *)

(* exactly-2 and exactly-3 over the same 8 variables: UNSAT, but only
   after real conflict work — unit propagation alone cannot refute
   two Sinz counters against each other *)
let conflicting_cardinalities () =
  let cnf = Tp_sat.Cnf.create () in
  let vars = Array.init 8 (fun _ -> Tp_sat.Cnf.new_var cnf) in
  let lits = Array.to_list (Array.map Tp_sat.Lit.pos vars) in
  Tp_sat.Cardinality.exactly cnf lits 2;
  Tp_sat.Cardinality.exactly cnf lits 3;
  cnf

let test_solver_interrupt () =
  let s = Tp_sat.Solver.of_cnf (conflicting_cardinalities ()) in
  Alcotest.(check bool) "starts uninterrupted" false
    (Tp_sat.Solver.interrupted s);
  Tp_sat.Solver.interrupt s;
  (match Tp_sat.Solver.solve s with
  | Tp_sat.Solver.Unknown -> ()
  | _ -> Alcotest.fail "interrupted solve must return Unknown");
  (* the flag stays tripped across calls until cleared *)
  (match Tp_sat.Solver.solve s with
  | Tp_sat.Solver.Unknown -> ()
  | _ -> Alcotest.fail "flag must persist across solve calls");
  Tp_sat.Solver.clear_interrupt s;
  match Tp_sat.Solver.solve s with
  | Tp_sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "cleared solver must refute the instance"

let test_solver_shared_stop () =
  let s1 = Tp_sat.Solver.of_cnf (conflicting_cardinalities ()) in
  let s2 = Tp_sat.Solver.of_cnf (conflicting_cardinalities ()) in
  let flag = Atomic.make false in
  Tp_sat.Solver.share_stop s1 flag;
  Tp_sat.Solver.share_stop s2 flag;
  Tp_sat.Solver.interrupt s1;
  Alcotest.(check bool) "stop flag is shared" true
    (Tp_sat.Solver.interrupted s2)

(* ------------------------------------------------------------------ *)
(* Stream triage is jobs-invariant                                     *)

let fault_stream_instance seed =
  let m = 24 and b = 14 in
  let enc = Encoding.random_constrained ~m ~b ~seed:(seed + 11) () in
  let st = Random.State.make [| seed; m |] in
  let clean =
    List.init 10 (fun _ ->
        Logger.abstract enc (Signal.random st ~m ~k:(1 + Random.State.int st 6)))
  in
  let spec = Fault.spec ~rate:0.4 ~max_flips:2 () in
  let corrupted, _ = Fault.inject ~seed:(seed + 5) spec ~m clean in
  (enc, corrupted)

let triage_digest results =
  List.map
    (fun (v, h, tag) ->
      ( (match v with
        | `Signal s -> "S:" ^ Format.asprintf "%a" Signal.pp s
        | `Unsat -> "U"
        | `Unknown -> "?"),
        h,
        match tag with `Presolve -> "p" | `Mitm -> "m" | `Sat _ -> "s" ))
    results

let prop_stream_jobs_invariant =
  QCheck.Test.make ~name:"stream triage identical for jobs 1/2/4" ~count:12
    QCheck.(int_range 0 1000)
    (fun seed ->
      let enc, log = fault_stream_instance seed in
      let run jobs = Plan.run_stream ~repair:2 ?jobs enc log in
      let reference = triage_digest (run (Some 1)) in
      List.for_all
        (fun jobs -> triage_digest (run (Some jobs)) = reference)
        [ 2; 4 ])

let prop_stream_matches_sequential =
  QCheck.Test.make ~name:"pooled stream agrees with sequential batch"
    ~count:12
    QCheck.(int_range 0 1000)
    (fun seed ->
      (* the pooled path may find a different witness, never a
         different verdict kind or health tag *)
      let enc, log = fault_stream_instance seed in
      let kinds results =
        List.map
          (fun (v, h, _) ->
            ( (match v with
              | `Signal _ -> `Sat
              | `Unsat -> `Unsat
              | `Unknown -> `Unknown),
              h ))
          results
      in
      kinds (Plan.run_stream ~repair:2 ~jobs:2 enc log)
      = kinds (Plan.run_stream ~repair:2 enc log))

(* ------------------------------------------------------------------ *)
(* Cube-and-conquer is jobs-invariant and matches the linear path      *)

(* m=24, b=10, k=8: the preimage estimate (~2^9.5) clears
   parallel_threshold_bits, so ~jobs engages the cube path *)
let hard_instance seed =
  let m = 24 in
  let enc = Encoding.random_constrained ~m ~b:10 ~seed ()
  and st = Random.State.make [| seed; 0xcafe |] in
  (enc, Logger.abstract enc (Signal.random st ~m ~k:8))

let prop_cube_enumerate_invariant =
  QCheck.Test.make ~name:"cube enumeration = sequential preimage set" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let enc, entry = hard_instance seed in
      let q =
        Query.make ~answer:(Query.Enumerate { max_solutions = None }) enc entry
      in
      let signals_of = function
        | Engine.Enumeration { signals; complete } ->
            (signal_set signals, complete)
        | _ -> QCheck.Test.fail_report "expected an enumeration"
      in
      let reference = signals_of (fst (Plan.run ~engine:`Sat q)) in
      List.for_all
        (fun jobs ->
          let outcome, report = Plan.run ~engine:`Sat ~jobs q in
          let cubed =
            match report.Plan.parallel with
            | Plan.Cubed { cubes; _ } -> cubes > 1
            | _ -> QCheck.Test.fail_report "expected the cube path to engage"
          in
          cubed && signals_of outcome = reference)
        [ 1; 2; 4 ])

let prop_cube_count_invariant =
  QCheck.Test.make ~name:"cube counts exact and jobs-invariant" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let enc, entry = hard_instance seed in
      let q =
        Query.make ~answer:(Query.Count { max_solutions = None }) enc entry
      in
      let count_of = function
        | Engine.Count (n, e) -> (n, e)
        | _ -> QCheck.Test.fail_report "expected a count"
      in
      let reference = count_of (fst (Plan.run ~engine:`Sat q)) in
      snd reference = `Exact
      && List.for_all
           (fun jobs ->
             count_of (fst (Plan.run ~engine:`Sat ~jobs q)) = reference)
           [ 1; 2; 4 ])

let prop_cube_first_valid_and_invariant =
  QCheck.Test.make ~name:"cube First witness valid and jobs-invariant"
    ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let enc, entry = hard_instance seed in
      let q = Query.make ~answer:Query.First enc entry in
      let witness jobs =
        match fst (Plan.run ~engine:`Sat ~jobs q) with
        | Engine.Verdict (`Signal s) -> s
        | _ -> QCheck.Test.fail_report "the instance is satisfiable"
      in
      let w1 = witness 1 in
      Log_entry.equal (Logger.abstract enc w1) entry
      && List.for_all (fun jobs -> Signal.equal (witness jobs) w1) [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Merge soundness and planner pinning                                 *)

let test_count_never_exact_on_budget () =
  let enc, entry = hard_instance 17 in
  (* one conflict per cube: every cube exhausts its budget *)
  let q =
    Query.make ~conflict_budget:1
      ~answer:(Query.Count { max_solutions = None })
      enc entry
  in
  match fst (Plan.run ~engine:`Sat ~jobs:2 q) with
  | Engine.Count (_, `Lower_bound) -> ()
  | Engine.Count (_, `Exact) ->
      Alcotest.fail "budget-exhausted cubes must never report Exact"
  | _ -> Alcotest.fail "expected a count outcome"

let test_certified_pinned () =
  let enc, entry = hard_instance 3 in
  let q = Query.make ~answer:Query.Certified enc entry in
  let outcome, report = Plan.run ~jobs:4 q in
  (match report.Plan.parallel with
  | Plan.Pinned _ -> ()
  | Plan.Cubed _ -> Alcotest.fail "certified queries must not be cubed"
  | Plan.Portfolio _ -> Alcotest.fail "certified queries must not be raced"
  | Plan.Off -> Alcotest.fail "jobs was requested; the report must say pinned");
  match outcome with
  | Engine.Certified _ -> ()
  | _ -> Alcotest.fail "expected a certified outcome"

let test_easy_query_pinned_below_threshold () =
  (* m=10, b=8: preimage estimate far below 2^6 *)
  let enc = Encoding.random_constrained ~m:10 ~b:8 ~seed:7 () in
  let entry = Logger.abstract enc (Signal.of_changes ~m:10 [ 2; 5 ]) in
  let q = Query.make ~answer:Query.First enc entry in
  let _, report = Plan.run ~engine:`Sat ~jobs:4 q in
  match report.Plan.parallel with
  | Plan.Pinned _ -> ()
  | _ -> Alcotest.fail "easy instances stay on one domain"

let test_single_core_check_pinned () =
  (* racing diversified configs on one domain only adds scheduling
     overhead; a jobs=1 check must run pinned and say why, while the
     same query with two domains still races *)
  let enc, entry = hard_instance 5 in
  let q =
    Query.make ~answer:(Query.Check (Property.deadline ~count:2 ~before:9))
      enc entry
  in
  let _, r1 = Plan.run ~engine:`Sat ~jobs:1 q in
  (match r1.Plan.parallel with
  | Plan.Pinned reason ->
      Alcotest.(check bool) "reason names the single core" true
        (String.length reason >= 11 && String.sub reason 0 11 = "single-core")
  | _ -> Alcotest.fail "jobs=1 check must be pinned, not raced");
  let _, r2 = Plan.run ~engine:`Sat ~jobs:2 q in
  match r2.Plan.parallel with
  | Plan.Portfolio { jobs = 2; _ } -> ()
  | _ -> Alcotest.fail "jobs=2 unbudgeted check must race a portfolio"

(* without jobs the whole pending list is one chunk, solved inline by
   exactly one solver step; the log's k = 11, 12 entries are past the
   meet's reach, so every entry is pending *)
let test_batch_emit_one_chunk_without_jobs () =
  let m = 24 and b = 14 in
  let enc = Encoding.random_constrained ~m ~b ~seed:110 () in
  let st = Random.State.make [| 99 |] in
  let log =
    List.init 12 (fun i ->
        let en = Logger.abstract enc (Signal.random st ~m ~k:(11 + (i mod 2))) in
        if i mod 3 = 0 then Fault.flip_tp en ~bits:[ Random.State.int st b ]
        else en)
  in
  let shared = lazy (Presolve.shared enc)
  and table = lazy (Combinatorial_reconstruct.pair_table enc) in
  let pending =
    List.filter_map
      (fun en ->
        match Sat_reconstruct.meet_step ~repair:1 ~shared ~table enc en with
        | Sat_reconstruct.Pending p -> Some p
        | Sat_reconstruct.Answered _ -> None)
      log
  in
  Alcotest.(check bool) "premise: more pending entries than one pooled chunk"
    true
    (List.length pending > Par_reconstruct.default_chunk);
  let digest =
    List.map (fun (v, h, st) ->
        ( (match v with
          | `Signal s -> Signal.to_string s
          | `Unsat -> "U"
          | `Unknown -> "?"),
          h,
          st ))
  in
  let chunks = ref [] in
  Par_reconstruct.batch_emit enc pending ~emit:(fun first results ->
      chunks := (first, results) :: !chunks);
  match !chunks with
  | [ (0, results) ] ->
      Alcotest.(check bool) "results = Sat_reconstruct.solver_step" true
        (digest results = digest (Sat_reconstruct.solver_step enc pending))
  | _ -> Alcotest.fail "expected exactly one chunk, at index 0"

(* The repair ladder's meet rungs under entry-level parallelism: every
   entry here is a one-bit-flipped k = 5 entry that the rank check
   refutes, so the meet answers rung 1, on the calling domain, which
   forces the session's triple half; no entry reaches a worker. Every
   pool size gives the jobs = 1 answer. *)
let test_meet_rungs_across_domains () =
  let m = 40 in
  let enc = Encoding.random_constrained ~depth:4 ~seed:7 ~m ~b:60 () in
  let rng = Random.State.make [| 40 |] in
  let log =
    List.init 48 (fun _ ->
        Fault.flip_tp
          (Logger.abstract enc (Signal.random rng ~m ~k:5))
          ~bits:[ Random.State.int rng 60 ])
  in
  Alcotest.(check bool) "premise: every entry is rank-refuted" true
    (List.for_all (Presolve.refutes enc) log);
  let run jobs = Plan.run_stream ~repair:1 ~jobs enc log in
  let one = run 1 in
  Alcotest.(check bool) "every entry repaired" true
    (List.for_all
       (fun (_, h, _) -> h = Sat_reconstruct.Repaired 1)
       one);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical to jobs=1" jobs)
        true
        (run jobs = one))
    [ 2; 4 ]

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps input order" `Quick test_pool_map_order;
          Alcotest.test_case "reuse and task counter" `Quick
            test_pool_reuse_and_stats;
          Alcotest.test_case "lowest-indexed exception wins" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "jobs=0 means recommended" `Quick
            test_pool_zero_means_recommended;
          Alcotest.test_case "get eviction defers shutdown of a busy pool"
            `Quick test_pool_get_eviction_defers_shutdown;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "interrupted solve returns Unknown" `Quick
            test_solver_interrupt;
          Alcotest.test_case "stop flag shared across solvers" `Quick
            test_solver_shared_stop;
        ] );
      ( "jobs-invariance",
        qt
          [
            prop_stream_jobs_invariant;
            prop_stream_matches_sequential;
            prop_cube_enumerate_invariant;
            prop_cube_count_invariant;
            prop_cube_first_valid_and_invariant;
          ] );
      ( "merge-and-pinning",
        [
          Alcotest.test_case "budget exhaustion never reports Exact" `Quick
            test_count_never_exact_on_budget;
          Alcotest.test_case "certified queries pinned to one domain" `Quick
            test_certified_pinned;
          Alcotest.test_case "easy queries pinned below threshold" `Quick
            test_easy_query_pinned_below_threshold;
          Alcotest.test_case "single-core check pinned, not raced" `Quick
            test_single_core_check_pinned;
          Alcotest.test_case "batch_emit without jobs is one inline chunk"
            `Quick test_batch_emit_one_chunk_without_jobs;
          Alcotest.test_case "meet rungs identical across domains" `Quick
            test_meet_rungs_across_domains;
        ] );
    ]
