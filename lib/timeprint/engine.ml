open Tp_bitvec

type outcome =
  | Verdict of [ `Signal of Signal.t | `Unsat | `Unknown ]
  | Enumeration of { signals : Signal.t list; complete : bool }
  | Count of int * [ `Exact | `Lower_bound ]
  | Check of [ `Holds_in_all | `Violated_in_all | `Mixed | `Vacuous | `Unknown ]
  | Certified of
      [ `Signal of Signal.t | `Unsat_certified of string | `Unknown ]
  | Repair of Sat_reconstruct.repair_verdict

type stage = {
  stage : string;
  detail : string;
  stats : Tp_sat.Solver.stats option;
}

type ctx = {
  rank : int;
  nullity : int;
  preimage_bits : float;
  table : Combinatorial_reconstruct.table Lazy.t option;
      (** a session-scoped MITM table to reuse instead of rebuilding
          the O(m²) half-sum tables per query *)
}

type t = {
  name : string;
  capable : ctx -> Query.t -> (unit, string) result;
  cost_bits : ctx -> Query.t -> float;
  run : ctx -> Query.t -> outcome * stage list;
}

let context ?rank ?table (q : Query.t) =
  let m = Encoding.m q.encoding and b = Encoding.b q.encoding in
  let rank =
    match rank with
    | Some r -> r
    | None -> F2_matrix.rank (Encoding.matrix q.encoding)
  in
  {
    rank;
    nullity = m - rank;
    preimage_bits = Signal.log2_choose m (Log_entry.k q.entry) -. float_of_int b;
    table;
  }

(* ------------------------------------------------------------------ *)
(* Outcome conventions every engine shares *)

(* The outcome a rank-refuted entry gets for each answer kind — the
   empty preimage, phrased in that answer's vocabulary. *)
let refuted_outcome (q : Query.t) =
  match q.answer with
  | Query.First -> Verdict `Unsat
  | Query.Enumerate _ -> Enumeration { signals = []; complete = true }
  | Query.Count _ -> Count (0, `Exact)
  | Query.Check _ -> Check `Vacuous
  | Query.Repair _ ->
      (* only with a zero flip budget: the rank refutation is exactly
         the statement that no zero-error explanation exists *)
      Repair `Unrepairable
  | Query.Certified -> assert false (* presolve is skipped for Certified *)

(* Capped answers probe one solution past the cap, so a preimage that
   exactly fills the cap still reads complete / [`Exact]; only
   solutions beyond the cap (or an unfinished search) degrade it.
   [enumerate cap] returns the signals found, whether the search was
   exhaustive, and whatever else the caller wants carried through. *)
let capped_outcome (answer : Query.answer) enumerate =
  let max_solutions, count =
    match answer with
    | Query.Enumerate { max_solutions } -> (max_solutions, false)
    | Query.Count { max_solutions } -> (max_solutions, true)
    | _ -> invalid_arg "Engine.capped_outcome: not an Enumerate/Count answer"
  in
  let signals, complete, extra = enumerate (Option.map succ max_solutions) in
  let signals, complete =
    match max_solutions with
    | Some n when List.length signals > n ->
        (List.filteri (fun i _ -> i < n) signals, false)
    | _ -> (signals, complete)
  in
  ( (if count then
       Count (List.length signals, if complete then `Exact else `Lower_bound)
     else Enumeration { signals; complete }),
    extra )

(* The two exact (list-producing) oracles enumerate the assume-filtered
   preimage, so First / Enumerate / Count / Check all reduce to one
   list computation. *)
let exact_outcome (q : Query.t)
    ~(preimage : ?max_solutions:int -> unit -> Signal.t list)
    ~(first : unit -> Signal.t option) =
  match q.answer with
  | Query.First -> (
      match first () with
      | Some s -> Verdict (`Signal s)
      | None -> Verdict `Unsat)
  | Query.Enumerate _ | Query.Count _ ->
      fst
        (capped_outcome q.answer (fun max_solutions ->
             (preimage ?max_solutions (), true, ())))
  | Query.Check p ->
      let all = preimage () in
      Check
        (match all with
        | [] -> `Vacuous
        | _ ->
            let holds = List.filter (Property.eval p) all in
            if List.length holds = List.length all then `Holds_in_all
            else if holds = [] then `Violated_in_all
            else `Mixed)
  | Query.Certified ->
      invalid_arg "Engine: exact oracles cannot certify; guarded by capable"
  | Query.Repair _ ->
      invalid_arg "Engine: exact oracles cannot repair; guarded by capable"

let no_certificate = "cannot produce a DRAT certificate"
let no_repair = "cannot repair corrupted entries"

(* The Parallel capability: which answers survive cube-and-conquer
   splitting. First/Enumerate/Count partition over cubes; the other
   three are pinned to a single domain — the planner records the
   reason in its report. *)
let parallelizable (q : Query.t) =
  match q.answer with
  | Query.First | Query.Enumerate _ | Query.Count _ -> Ok ()
  | Query.Certified ->
      Error "certified: DRAT emission is per-solver and must stay linear"
  | Query.Repair _ ->
      Error "repair: the minimal-weight ladder is inherently sequential"
  | Query.Check _ ->
      Error "check: two dependent solves on one incremental solver"

(* ------------------------------------------------------------------ *)
(* SAT adapter *)

let sat_problem (q : Query.t) =
  Sat_reconstruct.problem ~assume:q.assume q.encoding q.entry

let sat =
  {
    name = "sat";
    capable = (fun _ _ -> Ok ());
    (* the flat SAT baseline ([Sat_reconstruct.cost_baseline]); repair
       adds a solve per budget split on top of it *)
    cost_bits =
      (fun _ q ->
        match q.answer with
        | Query.Repair { max_flips; _ } ->
            Sat_reconstruct.cost_baseline +. float_of_int max_flips
        | _ -> Sat_reconstruct.cost_baseline);
    run =
      (fun _ctx q ->
        let pb = sat_problem q in
        let budget = q.conflict_budget in
        let gauss_detail =
          if Sat_reconstruct.auto_gauss pb then "presolve+gauss(auto:on)"
          else "presolve+gauss(auto:off)"
        in
        let stage ?stats name =
          { stage = name; detail = gauss_detail; stats }
        in
        match q.answer with
        | Query.First ->
            let v, stats = Sat_reconstruct.solve_first ?conflict_budget:budget pb in
            (Verdict v, [ stage ?stats "sat.first" ])
        | (Query.Enumerate _ | Query.Count _) as answer ->
            let outcome, stats =
              capped_outcome answer (fun max_solutions ->
                  let e, stats =
                    Sat_reconstruct.solve_enumerate ?max_solutions
                      ?conflict_budget:budget pb
                  in
                  (e.Sat_reconstruct.signals, e.complete, stats))
            in
            let name =
              match answer with
              | Query.Count _ -> "sat.count"
              | _ -> "sat.enumerate"
            in
            (outcome, [ stage ?stats name ])
        | Query.Check p ->
            let r, stats = Sat_reconstruct.solve_check ?conflict_budget:budget pb p in
            (Check r, [ stage ?stats "sat.check" ])
        | Query.Certified ->
            let c = Sat_reconstruct.first_certified ?conflict_budget:budget pb in
            (Certified c, [ stage "sat.certified" ])
        | Query.Repair { max_flips; k_slack } ->
            let r, stats =
              Sat_reconstruct.solve_repair ?conflict_budget:budget ~k_slack
                ~max_flips pb
            in
            (Repair r, [ stage ?stats "sat.repair" ]));
  }

(* ------------------------------------------------------------------ *)
(* Linear (coset enumeration) adapter *)

let linear =
  {
    name = "linear";
    capable =
      (fun ctx q ->
        match q.answer with
        | Query.Certified -> Error no_certificate
        | Query.Repair _ -> Error no_repair
        | _ ->
            if ctx.nullity > Linear_reconstruct.max_nullity then
              Error
                (Printf.sprintf "nullity %d > %d" ctx.nullity
                   Linear_reconstruct.max_nullity)
            else Ok ());
    (* 2^nullity coset points, O(m) work each *)
    cost_bits =
      (fun ctx q ->
        float_of_int ctx.nullity
        +. (log (float_of_int (Encoding.m q.encoding)) /. log 2.));
    run =
      (fun ctx q ->
        let preimage ?max_solutions () =
          Linear_reconstruct.preimage_with ?max_solutions q.encoding q.entry
            ~assume:q.assume
        in
        let first () =
          match preimage ~max_solutions:1 () with s :: _ -> Some s | [] -> None
        in
        ( exact_outcome q ~preimage ~first,
          [
            {
              stage = "linear.coset";
              detail = Printf.sprintf "nullity=%d" ctx.nullity;
              stats = None;
            };
          ] ));
  }

(* ------------------------------------------------------------------ *)
(* Meet-in-the-middle adapter *)

let sat_cost_baseline = Sat_reconstruct.cost_baseline
let mitm_cost_bits = Combinatorial_reconstruct.cost_bits

let mitm =
  {
    name = "mitm";
    capable =
      (fun _ q ->
        match q.answer with
        | Query.Certified -> Error no_certificate
        | Query.Repair _ -> Error no_repair
        | _ ->
            let k = Log_entry.k q.entry in
            if not (Combinatorial_reconstruct.supported ~k) then
              Error (Printf.sprintf "k=%d > 8" k)
            else if not (Combinatorial_reconstruct.feasible q.encoding ~k) then
              Error
                (Printf.sprintf
                   "k=%d: triple table or probe count over its cap at m=%d" k
                   (Encoding.m q.encoding))
            else Ok ());
    cost_bits =
      (fun _ q ->
        mitm_cost_bits ~m:(Encoding.m q.encoding) ~k:(Log_entry.k q.entry));
    run =
      (fun ctx q ->
        let k = Log_entry.k q.entry in
        let table = Option.map Lazy.force ctx.table in
        let preimage ?max_solutions () =
          Combinatorial_reconstruct.preimage_with ?max_solutions ?table
            q.encoding q.entry ~assume:q.assume
        in
        let first () =
          Combinatorial_reconstruct.first ~assume:q.assume ?table q.encoding
            q.entry
        in
        ( exact_outcome q ~preimage ~first,
          [
            {
              stage = "mitm.meet";
              detail =
                (if k <= 2 then Printf.sprintf "k=%d, one directory lookup" k
                 else if k <= 4 then
                   Printf.sprintf "k=%d, pair-half meet, C(m,%d) probes" k (k - 2)
                 else
                   Printf.sprintf "k=%d, triple-half meet, C(m,%d) probes" k
                     (k - 3));
              stats = None;
            };
          ] ));
  }

let all = [ mitm; linear; sat ]
