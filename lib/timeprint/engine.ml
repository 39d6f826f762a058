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

(* The two exact oracles hand their assume-filtered preimage to a
   [search] callback that returns [false] to stop the sweep, and
   reports whether the sweep ran to its end. Every answer stops as soon
   as it is decided: [First] at the first member, a capped answer one
   past its cap, [Check] once it holds a member that satisfies the
   property and one that violates it. An uncapped answer is sorted; a
   capped one keeps the oracle's order. *)
let exact_outcome (q : Query.t) ~(search : (Signal.t -> bool) -> bool) =
  match q.answer with
  | Query.First ->
      let found = ref None in
      ignore
        (search (fun s ->
             found := Some s;
             false));
      Verdict (match !found with Some s -> `Signal s | None -> `Unsat)
  | Query.Enumerate _ | Query.Count _ ->
      fst
        (capped_outcome q.answer (fun cap ->
             let out = ref [] and n = ref 0 in
             let complete =
               search (fun s ->
                   out := s :: !out;
                   incr n;
                   match cap with Some c -> !n < c | None -> true)
             in
             ( (if cap = None then List.sort Signal.compare !out
                else List.rev !out),
               complete,
               () )))
  | Query.Check p ->
      let holds = ref false and violated = ref false in
      ignore
        (search (fun s ->
             if Property.eval p s then holds := true else violated := true;
             not (!holds && !violated)));
      Check
        (match (!holds, !violated) with
        | false, false -> `Vacuous
        | true, false -> `Holds_in_all
        | false, true -> `Violated_in_all
        | true, true -> `Mixed)
  | Query.Certified ->
      invalid_arg "Engine: exact oracles cannot certify; guarded by capable"
  | Query.Repair _ -> invalid_arg "Engine: a repair climbs the ladder"

let no_certificate = "cannot produce a DRAT certificate"
let ladder_only = "repair: the ladder answers it (Engine.ladder)"

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
    capable =
      (fun _ q ->
        match q.answer with Query.Repair _ -> Error ladder_only | _ -> Ok ());
    (* the flat SAT baseline ([Sat_reconstruct.cost_baseline]) *)
    cost_bits = (fun _ _ -> Sat_reconstruct.cost_baseline);
    run =
      (fun _ q ->
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
        | Query.Repair _ -> invalid_arg ladder_only);
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
        | Query.Repair _ -> Error ladder_only
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
        let search visit =
          List.for_all visit
            (Linear_reconstruct.preimage_with q.encoding q.entry
               ~assume:q.assume)
        in
        ( exact_outcome q ~search,
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

(* The meet sweeps only the columns the assumed Window/Allowed leave,
   so it is judged and priced over that span's width. *)
let mitm_width (q : Query.t) =
  Combinatorial_reconstruct.width ~m:(Encoding.m q.encoding) q.assume

let mitm =
  {
    name = "mitm";
    capable =
      (fun _ q ->
        match q.answer with
        | Query.Certified -> Error no_certificate
        | Query.Repair _ -> Error ladder_only
        | _ ->
            let k = Log_entry.k q.entry and w = mitm_width q in
            if not (Combinatorial_reconstruct.supported ~k) then
              Error (Printf.sprintf "k=%d > 10" k)
            else if not (Combinatorial_reconstruct.feasible_in q.encoding ~w ~k)
            then
              Error
                (Printf.sprintf
                   "k=%d: triple table or probe count over its cap at m=%d, \
                    %d columns"
                   k (Encoding.m q.encoding) w)
            else Ok ());
    cost_bits =
      (fun _ q -> mitm_cost_bits ~m:(mitm_width q) ~k:(Log_entry.k q.entry));
    run =
      (fun ctx q ->
        let k = Log_entry.k q.entry in
        let table = Option.map Lazy.force ctx.table in
        let search =
          Combinatorial_reconstruct.search ~assume:q.assume ?table q.encoding
            q.entry
        in
        let lo, hi =
          Combinatorial_reconstruct.span ~m:(Encoding.m q.encoding) q.assume
        in
        let probes half r =
          Printf.sprintf "k=%d, %s-half meet, C(%d,%d) probes over cycles %d..%d"
            k half (mitm_width q) r lo hi
        in
        ( exact_outcome q ~search,
          [
            {
              stage = "mitm.meet";
              detail =
                (if k <= 2 then Printf.sprintf "k=%d, one directory lookup" k
                 else if k <= 4 then probes "pair" (k - 2)
                 else probes "triple" (k - 3));
              stats = None;
            };
          ] ));
  }

let all = [ mitm; linear; sat ]

(* ------------------------------------------------------------------ *)
(* The repair ladder *)

(* A ladder witness [s] as a repair: the flipped bits are those of
   [TP ⊕ A·s], the counter deviation is [|s| − k]. *)
let repair_verdict (q : Query.t) = function
  | `Signal s ->
      let flips =
        Bitvec.indices
          (Bitvec.logxor (Log_entry.tp q.entry)
             (Log_entry.tp (Logger.abstract q.encoding s)))
      in
      let k_delta = Signal.num_changes s - Log_entry.k q.entry in
      if flips = [] && k_delta = 0 then `Clean s
      else
        `Repaired
          { Sat_reconstruct.r_signal = s; r_flips = flips; r_k_delta = k_delta }
  | `Unsat -> `Unrepairable
  | `Unknown -> `Unknown

(* Priced as one SAT solve per budget split, whatever rung answers. *)
let ladder_cost_bits (q : Query.t) =
  match q.answer with
  | Query.Repair { max_flips; _ } ->
      Sat_reconstruct.cost_baseline +. float_of_int max_flips
  | _ -> invalid_arg "Engine.ladder_cost_bits: not a Repair answer"

let ladder ctx (q : Query.t) =
  let max_flips, k_slack =
    match q.answer with
    | Query.Repair { max_flips; k_slack } -> (max_flips, k_slack)
    | _ -> invalid_arg "Engine.ladder: not a Repair answer"
  in
  let table =
    match ctx.table with
    | Some t -> t
    | None -> lazy (Combinatorial_reconstruct.pair_table q.encoding)
  in
  let verdict, step, stats =
    match
      Sat_reconstruct.meet_step ~assume:q.assume ~k_slack ~repair:max_flips
        ~shared:(lazy (Presolve.shared q.encoding))
        ~table q.encoding q.entry
    with
    | Sat_reconstruct.Answered (v, _, `Presolve) -> (v, "presolve", None)
    | Sat_reconstruct.Answered (v, _, `Mitm) -> (v, "mitm", None)
    | Sat_reconstruct.Pending p -> (
        match
          Sat_reconstruct.solver_step ~assume:q.assume
            ?conflict_budget:q.conflict_budget q.encoding [ p ]
        with
        | [ (v, _, st) ] -> (v, "sat", Some st)
        | _ -> assert false)
  in
  ( step,
    Repair (repair_verdict q verdict),
    [ { stage = step ^ ".repair"; detail = "ladder answered by " ^ step; stats } ] )
