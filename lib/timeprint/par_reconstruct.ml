open Tp_sat
open Tp_parallel

(* Chunk size for entry-level parallelism. Fixed — never derived from
   the pool size — so the partition of a log into per-chunk solvers is
   a pure function of the log, and the batch output is byte-identical
   for every jobs value. Large enough that the parity-select solver
   still amortizes its encoding across several entries, small enough
   that a 48-entry log fans out over 6 lanes. *)
let default_chunk = 8

(* 2^3 cubes per hard query. Also fixed independently of jobs: the cube
   set, the per-cube answers and the merged result are identical
   whether one domain solves all eight cubes or eight domains solve one
   each. *)
let default_cube_bits = 3

let resolve_jobs jobs =
  if jobs <= 0 then Domain.recommended_domain_count () else jobs

let chunk_list size xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let batch_emit ?assume ?conflict_budget ?warm ?jobs encoding pending ~emit =
  let solve chunk =
    Sat_reconstruct.solver_step ?assume ?conflict_budget ?warm encoding chunk
  in
  match jobs with
  | None -> emit 0 (solve pending)
  | Some jobs ->
      (* the warm skeleton is read-only: each chunk clones its own
         solver from the one snapshot *)
      let pool = Pool.get ~jobs:(resolve_jobs jobs) in
      Pool.map_emit pool solve
        (Array.of_list (chunk_list default_chunk pending))
        ~emit:(fun chunk results -> emit (chunk * default_chunk) results)

(* ------------------------------------------------------------------ *)
(* Query-level parallelism: cube-and-conquer on the pool               *)

type cube_summary = {
  cs_jobs : int;
  cs_cubes : int;
  cs_incomplete : int;
  cs_stages : Engine.stage list;
}

let pp_cube c =
  String.concat ""
    (List.map
       (fun l ->
         Printf.sprintf "%sx%d" (if Lit.sign l then "+" else "-") (Lit.var l))
       c)

(* one stage per cube, with that cube's private-solver stats *)
let cube_stages cubes results =
  let n = Array.length cubes in
  List.mapi
    (fun i (_, stats) ->
      {
        Engine.stage = Printf.sprintf "sat.cube[%d/%d]" i n;
        detail = (if cubes.(i) = [] then "(empty cube)" else pp_cube cubes.(i));
        stats;
      })
    (Array.to_list results)

(* First: the answer is the witness of the LOWEST-indexed Sat cube —
   not the first to finish. Any Sat cube cancels only higher-indexed
   siblings, so every cube below the lowest Sat index runs to its
   deterministic completion and the lowest Sat index itself can never
   be cancelled: the chosen witness is independent of scheduling and
   of the pool size. Cancelled cubes surface as `Unknown, which the
   merge ignores whenever a Sat cube exists. *)
let run_first ?conflict_budget pool pb cubes =
  let n = List.length cubes in
  let cubes_a = Array.of_list cubes in
  let stops = Array.init n (fun _ -> Atomic.make false) in
  let results =
    Pool.map pool
      (fun i ->
        if Atomic.get stops.(i) then ((`Unknown :> Sat_reconstruct.verdict), None)
        else begin
          let v, st =
            Sat_reconstruct.solve_first ?conflict_budget ~stop:stops.(i)
              ~cube:cubes_a.(i) pb
          in
          (match v with
          | `Signal _ ->
              for j = i + 1 to n - 1 do
                Atomic.set stops.(j) true
              done
          | `Unsat | `Unknown -> ());
          (v, st)
        end)
      (Array.init n Fun.id)
  in
  let verdict = ref `Unsat in
  (* scan downward so the lowest Sat index wins *)
  for i = n - 1 downto 0 do
    match (fst results.(i), !verdict) with
    | `Signal s, _ -> verdict := `Signal s
    | `Unknown, `Unsat -> verdict := `Unknown
    | _ -> ()
  done;
  let unknowns =
    Array.fold_left
      (fun acc (v, _) -> if v = `Unknown then acc + 1 else acc)
      0 results
  in
  (Engine.Verdict !verdict, unknowns, cube_stages cubes_a results)

(* Enumerate/Count: no cancellation — every cube runs to completion so
   the merge is deterministic. The cubes partition the preimage, so
   the per-cube signal lists concatenate (in cube order) without
   duplicates and the counts sum; a cube cut short by its cap or its
   conflict budget makes the aggregate incomplete, never silently
   wrong. *)
let run_enumerations ?max_solutions ?conflict_budget pool pb cubes =
  let n = List.length cubes in
  let cubes_a = Array.of_list cubes in
  let results =
    Pool.map pool
      (fun i ->
        Sat_reconstruct.solve_enumerate ?max_solutions ?conflict_budget
          ~cube:cubes_a.(i) pb)
      (Array.init n Fun.id)
  in
  let signals =
    List.concat_map
      (fun (e, _) -> e.Sat_reconstruct.signals)
      (Array.to_list results)
  in
  let incomplete =
    Array.fold_left
      (fun acc (e, _) -> if e.Sat_reconstruct.complete then acc else acc + 1)
      0 results
  in
  (signals, incomplete = 0, (incomplete, cube_stages cubes_a results))

let run_query ?(cube_bits = default_cube_bits) ~jobs (q : Query.t) =
  (match q.answer with
  | Query.First | Query.Enumerate _ | Query.Count _ -> ()
  | Query.Check _ | Query.Certified | Query.Repair _ ->
      invalid_arg "Par_reconstruct.run_query: answer kind is pinned");
  let jobs = resolve_jobs jobs in
  let pool = Pool.get ~jobs in
  let pb = Sat_reconstruct.problem ~assume:q.assume q.encoding q.entry in
  let budget = q.conflict_budget in
  match Sat_reconstruct.cubes ~bits:cube_bits pb with
  | None ->
      ( Engine.refuted_outcome q,
        { cs_jobs = jobs; cs_cubes = 0; cs_incomplete = 0; cs_stages = [] } )
  | Some cubes ->
      let header n =
        {
          Engine.stage = "sat.parallel";
          detail = Printf.sprintf "jobs=%d cubes=%d (d=%d)" jobs n cube_bits;
          stats = None;
        }
      in
      let summary n incomplete stages =
        {
          cs_jobs = jobs;
          cs_cubes = n;
          cs_incomplete = incomplete;
          cs_stages = header n :: stages;
        }
      in
      let n = List.length cubes in
      (match q.answer with
      | Query.First ->
          let outcome, unknowns, stages =
            run_first ?conflict_budget:budget pool pb cubes
          in
          (outcome, summary n unknowns stages)
      | answer ->
          (* every cube gets the raised cap, so an exactly-cap-filling
             merge still reads complete *)
          let outcome, (incomplete, stages) =
            Engine.capped_outcome answer (fun max_solutions ->
                run_enumerations ?max_solutions ?conflict_budget:budget pool
                  pb cubes)
          in
          (outcome, summary n incomplete stages))

(* ------------------------------------------------------------------ *)
(* Portfolio racing: one hard Check query, 2-4 diversified solver
   configurations

   Check cannot be cube-split (its verdict quantifies over the WHOLE
   preimage), but a completed check verdict is a pure function of the
   problem — Holds_in_all / Mixed / ... do not depend on which model a
   solver happens to visit first. So the configs race on the full
   query and the first definite answer wins; diversification (Gauss
   engine flipped, perturbed phases and activities) makes their solve
   times decorrelated, and the race finishes in min- rather than
   fixed-config time. Losers are cancelled through the shared stop
   flag. Config 0 is the canonical configuration, untouched, so a
   1-lane race degenerates to exactly the sequential run. *)

type race_summary = {
  rs_jobs : int;
  rs_configs : int;
  rs_winner : int;
  rs_stages : Engine.stage list;
}

let race_check ~jobs pb prop =
  let jobs = resolve_jobs jobs in
  let n = min 4 (max 2 jobs) in
  let pool = Pool.get ~jobs in
  let base_gauss =
    match pb.Sat_reconstruct.gauss with
    | Some g -> g
    | None -> Sat_reconstruct.auto_gauss pb
  in
  (* (gauss override, diversification seed); config 0 is canonical *)
  let configs =
    Array.sub
      [|
        (None, 0);
        (Some (not base_gauss), 0);
        (None, 1);
        (Some (not base_gauss), 2);
      |]
      0 n
  in
  let stop = Atomic.make false in
  let ticket = Atomic.make 0 in
  let results =
    Pool.map pool
      (fun i ->
        if Atomic.get stop then ((`Unknown : Sat_reconstruct.check_result), None, -1)
        else begin
          let gauss_override, seed = configs.(i) in
          let pb =
            match gauss_override with
            | None -> pb
            | Some g -> { pb with Sat_reconstruct.gauss = Some g }
          in
          let r, st = Sat_reconstruct.solve_check ~stop ~seed pb prop in
          match r with
          | `Unknown -> (r, st, -1)
          | _ ->
              (* finish order, not config order: the winner is the
                 config that crossed the line first with a definite
                 verdict *)
              let t = Atomic.fetch_and_add ticket 1 in
              Atomic.set stop true;
              (r, st, t)
        end)
      (Array.init n Fun.id)
  in
  let verdict = ref (`Unknown : Sat_reconstruct.check_result) in
  let winner = ref (-1) in
  let best = ref max_int in
  Array.iteri
    (fun i (r, _, t) ->
      if t >= 0 && t < !best then begin
        best := t;
        winner := i;
        verdict := r
      end)
    results;
  let config_stage i (r, st, t) =
    let gauss_override, seed = configs.(i) in
    {
      Engine.stage = Printf.sprintf "sat.race[%d/%d]" i n;
      detail =
        Printf.sprintf "gauss=%s seed=%d -> %s"
          (match gauss_override with
          | None -> if base_gauss then "auto:on" else "auto:off"
          | Some g -> if g then "on" else "off")
          seed
          (if i = !winner then "winner"
           else if t >= 0 then "finished"
           else match r with `Unknown -> "cancelled" | _ -> "finished");
      stats = st;
    }
  in
  let header =
    {
      Engine.stage = "sat.portfolio";
      detail = Printf.sprintf "jobs=%d configs=%d" jobs n;
      stats = None;
    }
  in
  ( !verdict,
    {
      rs_jobs = jobs;
      rs_configs = n;
      rs_winner = !winner;
      rs_stages = header :: Array.to_list (Array.mapi config_stage results);
    } )
