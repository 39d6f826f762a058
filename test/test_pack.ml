(* Compiled design packs: solver snapshot/clone semantics, the
   versioned/checksummed on-disk format, and the layer's load-bearing
   invariant — answers never depend on the pack. A pack only moves
   per-request setup work to compile time; every verdict, witness,
   count and health column must be byte-identical to the cold path,
   and every way a pack file can go bad must degrade to a cold run. *)

open Timeprint
module Bitvec = Tp_bitvec.Bitvec
module F2_matrix = Tp_bitvec.F2_matrix
module Lit = Tp_sat.Lit
module Solver = Tp_sat.Solver

let m = 32
let enc = Encoding.random_constrained ~m ~b:12 ~seed:0xC0DE ()
let other_enc = Encoding.random_constrained ~m ~b:12 ~seed:0xBEEF ()

(* a mixed stream: MITM-sized entries, SAT-sized entries, and one
   corrupted timeprint that must quarantine on every path *)
let entries =
  let st = Random.State.make [| 0x5EED |] in
  let good =
    List.concat_map
      (fun k ->
        List.init 3 (fun _ -> Logger.abstract enc (Signal.random st ~m ~k)))
      [ 1; 2; 3; 4; 6 ]
  in
  let corrupted =
    let e = List.hd good in
    let tp = Bitvec.copy (Log_entry.tp e) in
    Bitvec.set tp 0 (not (Bitvec.get tp 0));
    Bitvec.set tp 5 (not (Bitvec.get tp 5));
    Log_entry.make ~tp ~k:(Log_entry.k e)
  in
  good @ [ corrupted ]

let with_pack_file f =
  let path = Filename.temp_file "tppack" ".tpk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  In_channel.with_open_bin path (fun ic ->
      Bytes.unsafe_of_string (In_channel.input_all ic))

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes)

let check_result = Alcotest.testable (fun ppf (r : Solver.result) ->
    Format.pp_print_string ppf
      (match r with Sat -> "SAT" | Unsat -> "UNSAT" | Unknown -> "UNKNOWN"))
    ( = )

(* ------------------------------------------------------------------ *)
(* Solver snapshot / clone                                             *)

let test_snapshot_clone_equivalence () =
  (* clauses + an XOR row, snapshotted at root after propagation *)
  let s = Solver.create () in
  let v = Array.init 6 (fun _ -> Solver.new_var s) in
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1) ];
  Solver.add_clause s [ Lit.neg_of v.(0); Lit.pos v.(2) ];
  Solver.add_clause s [ Lit.pos v.(3) ];
  Solver.add_xor s ~vars:[ v.(1); v.(2); v.(4) ] ~parity:true;
  let snap = Solver.snapshot s in
  let c1 = Solver.clone snap and c2 = Solver.clone snap in
  Alcotest.check check_result "source solves SAT" Sat (Solver.solve s);
  Alcotest.check check_result "clone solves SAT" Sat (Solver.solve c1);
  (* same root propagations: the unit clause is fixed in both *)
  Alcotest.(check bool) "unit survives cloning" true (Solver.value c1 v.(3));
  (* clones are independent: poisoning one leaves its sibling (and the
     snapshot it came from) untouched *)
  Solver.add_clause c1 [ Lit.neg_of v.(3) ];
  Alcotest.check check_result "poisoned clone UNSAT" Unsat (Solver.solve c1);
  Alcotest.check check_result "sibling clone unaffected" Sat (Solver.solve c2);
  Alcotest.check check_result "third clone still fresh" Sat
    (Solver.solve (Solver.clone snap))

let test_snapshot_preconditions () =
  (* exactly-2 vs exactly-3 over the same variables: refuting it takes
     real conflicts, so the solver is left with learnt clauses — no
     longer the pristine root state a snapshot requires *)
  let cnf = Tp_sat.Cnf.create () in
  let vars = Array.init 8 (fun _ -> Tp_sat.Cnf.new_var cnf) in
  let lits = Array.to_list (Array.map Lit.pos vars) in
  Tp_sat.Cardinality.exactly cnf lits 2;
  Tp_sat.Cardinality.exactly cnf lits 3;
  let s = Solver.create () in
  Solver.add_cnf_from s cnf ~nclauses:0 ~nxors:0;
  Alcotest.check check_result "unsat" Unsat (Solver.solve s);
  Alcotest.(check bool) "snapshot after search rejected" true
    (match Solver.snapshot s with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Pack round trip                                                     *)

let test_pack_roundtrip () =
  let p = Pack.compile enc in
  Alcotest.(check bool) "compiled pack matches" true (Pack.matches p enc);
  Alcotest.(check bool) "mismatch detected" false (Pack.matches p other_enc);
  (* TS(1) ⊕ TS(2) in place of TS(1): a valid design ([enc] is LI-4)
     that differs in that one timestamp *)
  let ts = Encoding.timestamps enc in
  ts.(0) <- Bitvec.logxor ts.(0) ts.(1);
  Alcotest.(check bool) "one-timestamp mismatch detected" false
    (Pack.matches p (Encoding.custom ts));
  Alcotest.(check bool) "equal copy matches" true
    (Pack.matches p (Encoding.custom (Encoding.timestamps enc)));
  Alcotest.(check int) "rank is the matrix rank"
    (F2_matrix.rank (Encoding.matrix enc))
    (Pack.rank p);
  Alcotest.(check (list int)) "ranking is a permutation of the cycles"
    (List.init m Fun.id)
    (List.sort compare (Pack.ranking p));
  with_pack_file (fun path ->
      Pack.save p path;
      match Pack.load path with
      | Error e -> Alcotest.failf "load: %a" Pack.pp_load_error e
      | Ok q ->
          Alcotest.(check bool) "loaded pack matches" true (Pack.matches q enc);
          Alcotest.(check int) "rank survives" (Pack.rank p) (Pack.rank q);
          Alcotest.(check (list int)) "ranking survives" (Pack.ranking p)
            (Pack.ranking q);
          Alcotest.(check string) "describe survives" (Pack.describe p)
            (Pack.describe q))

let load_error =
  Alcotest.testable Pack.pp_load_error (fun a b ->
      match (a, b) with
      | Pack.Missing, Pack.Missing -> true
      | Pack.Corrupt _, Pack.Corrupt _ -> true (* message is informative *)
      | Pack.Version a, Pack.Version b -> a = b
      | _ -> false)

let check_load name expect path =
  match Pack.load path with
  | Ok _ -> Alcotest.failf "%s: corrupted pack loaded successfully" name
  | Error e -> Alcotest.check load_error name expect e

let test_pack_integrity () =
  with_pack_file (fun path ->
      Pack.save (Pack.compile enc) path;
      let pristine = Bytes.copy (read_file path) in
      let restore () = write_file path (Bytes.copy pristine) in
      (* truncation, anywhere, is Corrupt *)
      write_file path (Bytes.sub pristine 0 (Bytes.length pristine / 2));
      check_load "truncated" (Pack.Corrupt "") path;
      write_file path (Bytes.sub pristine 0 10);
      check_load "truncated header" (Pack.Corrupt "") path;
      (* a single flipped payload bit fails the checksum *)
      restore ();
      let b = read_file path in
      Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0x10));
      write_file path b;
      check_load "bit flip" (Pack.Corrupt "") path;
      (* bad magic *)
      restore ();
      let b = read_file path in
      Bytes.set b 0 'X';
      write_file path b;
      check_load "bad magic" (Pack.Corrupt "") path;
      (* a future version is Version, not Corrupt: the reader knows it
         is a pack, just not one it can interpret *)
      restore ();
      let b = read_file path in
      Bytes.set b 8 (Char.chr 7);
      write_file path b;
      check_load "future version" (Pack.Version 7) path;
      Alcotest.check load_error "missing file" Pack.Missing
        (match Pack.load (path ^ ".does-not-exist") with
        | Ok _ -> Alcotest.fail "phantom pack"
        | Error e -> e))

(* A file that is BOTH version-bumped and payload-truncated must
   report Version, not Corrupt: once the 32-byte header is whole the
   reader cannot judge the integrity of a format it does not know, so
   the version check comes first. Truncation INSIDE the header wins
   the other way — there is no version field to trust yet. This pins
   the check order in [Pack.load]; reordering it would misreport
   future-version packs as corruption. *)
let test_pack_error_ordering () =
  with_pack_file (fun path ->
      Pack.save (Pack.compile enc) path;
      let pristine = read_file path in
      let b = Bytes.sub pristine 0 (Bytes.length pristine - 7) in
      Bytes.set b 8 (Char.chr 9);
      write_file path b;
      check_load "version bump + truncated payload" (Pack.Version 9) path;
      let b = Bytes.sub pristine 0 16 in
      Bytes.set b 8 (Char.chr 9);
      write_file path b;
      check_load "version bump + truncated header" (Pack.Corrupt "") path)

(* ------------------------------------------------------------------ *)
(* Answers never depend on the pack                                    *)

let queries =
  let e1 = List.nth entries 1 in
  [
    ("first", Query.make ~answer:Query.First enc e1);
    ( "enumerate",
      Query.make ~answer:(Query.Enumerate { max_solutions = Some 64 }) enc e1
    );
    ("count", Query.make ~answer:(Query.Count { max_solutions = None }) enc e1);
    ( "repair",
      Query.make
        ~answer:(Query.Repair { max_flips = 2; k_slack = 0 })
        enc (List.nth entries (List.length entries - 1)) );
  ]

let test_pack_status_and_identity () =
  let pack = Pack.compile enc in
  let stale = Pack.compile other_enc in
  List.iter
    (fun (name, q) ->
      List.iter
        (fun engine ->
          let cold, r_cold = Plan.run ~engine q in
          let warm, r_warm = Plan.run ~engine ~pack q in
          let ignored, r_stale = Plan.run ~engine ~pack:stale q in
          Alcotest.(check bool)
            (Printf.sprintf "%s: pack-hit outcome identical" name)
            true (cold = warm);
          Alcotest.(check bool)
            (Printf.sprintf "%s: stale-pack outcome identical" name)
            true (cold = ignored);
          Alcotest.(check bool) "miss recorded" true (r_cold.Plan.pack = `Miss);
          Alcotest.(check bool) "hit recorded" true (r_warm.Plan.pack = `Hit);
          Alcotest.(check bool) "stale recorded" true
            (r_stale.Plan.pack = `Stale))
        [ `Auto; `Sat; `Linear; `Mitm ])
    queries

let test_stream_identity_grid () =
  with_pack_file (fun path ->
      Pack.save (Pack.compile enc) path;
      let pack =
        match Pack.load path with
        | Ok p -> p
        | Error e -> Alcotest.failf "load: %a" Pack.pp_load_error e
      in
      (* repair exercises the quarantine column on the corrupted entry *)
      List.iter
        (fun repair ->
          let baseline = Plan.run_stream ~repair enc entries in
          List.iter
            (fun jobs ->
              let cold = Plan.run_stream ~repair ?jobs enc entries in
              let warm = Plan.run_stream ~repair ?jobs ~pack enc entries in
              Alcotest.(check bool)
                (Printf.sprintf "repair=%d jobs=%s: warm = cold" repair
                   (match jobs with None -> "-" | Some j -> string_of_int j))
                true (cold = warm);
              if jobs = None then
                Alcotest.(check bool) "sequential baseline" true
                  (baseline = cold))
            [ None; Some 1; Some 2; Some 4 ])
        [ 0; 1 ])

let test_warm_batch () =
  let w = Sat_reconstruct.warm enc in
  let cold = Sat_reconstruct.batch enc entries in
  let warm = Sat_reconstruct.batch ~warm:w enc entries in
  Alcotest.(check bool) "warm batch = cold batch" true (cold = warm);
  (* ineligible requests silently ignore the skeleton *)
  let cold_r = Sat_reconstruct.batch ~repair:1 enc entries in
  let warm_r = Sat_reconstruct.batch ~repair:1 ~warm:w enc entries in
  Alcotest.(check bool) "repair ignores warm, same answers" true
    (cold_r = warm_r);
  (* a skeleton of the wrong shape is a caller bug, not a bad answer
     (same-shape staleness is the planner's job, via [Pack.matches]) *)
  let small = Encoding.random_constrained ~m:16 ~b:10 ~seed:1 () in
  Alcotest.(check bool) "shape mismatch raises" true
    (match
       Sat_reconstruct.batch ~warm:(Sat_reconstruct.warm small) enc entries
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "pack"
    [
      ( "snapshot",
        [
          Alcotest.test_case "clone equivalence and independence" `Quick
            test_snapshot_clone_equivalence;
          Alcotest.test_case "preconditions" `Quick test_snapshot_preconditions;
        ] );
      ( "format",
        [
          Alcotest.test_case "round trip" `Quick test_pack_roundtrip;
          Alcotest.test_case "integrity rejections" `Quick test_pack_integrity;
          Alcotest.test_case "error ordering" `Quick test_pack_error_ordering;
        ] );
      ( "identity",
        [
          Alcotest.test_case "planner outcomes and pack status" `Slow
            test_pack_status_and_identity;
          Alcotest.test_case "stream grid over jobs and repair" `Slow
            test_stream_identity_grid;
          Alcotest.test_case "warm batch" `Quick test_warm_batch;
        ] );
    ]
