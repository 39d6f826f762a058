type engine_choice = [ `Auto | `Sat | `Linear | `Mitm ]

let linear_nullity_threshold = 14

(* Cube-and-conquer only pays once the instance is hard; below this
   preimage-size estimate the single-threaded path wins (8 solver
   builds for a query a warm solver answers in microseconds). The
   engage decision depends on the instance, never on the jobs value,
   so a query's answer is identical for every pool size. *)
let parallel_threshold_bits = 6.

type parallelism =
  | Off
  | Cubed of { jobs : int; cubes : int }
  | Portfolio of { jobs : int; winner : int }
  | Pinned of string

type report = {
  chosen : string;
  presolve :
    [ `Refuted
    | `Refuted_but_repairable
    | `Reduced of Presolve.stats
    | `Skipped ];
  nullity : int;
  preimage_bits : float;
  considered : (string * [ `Cost of float | `Rejected of string ]) list;
  fallbacks : (string * string) list;
  parallel : parallelism;
  pack : [ `Hit | `Miss | `Stale ];
  stages : Engine.stage list;
}

(* The outcome a rank-refuted entry gets for each answer kind — the
   empty preimage, phrased in that answer's vocabulary. *)
let refuted_outcome (q : Query.t) =
  match q.answer with
  | Query.First -> Engine.Verdict `Unsat
  | Query.Enumerate _ -> Engine.Enumeration { signals = []; complete = true }
  | Query.Count _ -> Engine.Count (0, `Exact)
  | Query.Check _ -> Engine.Check `Vacuous
  | Query.Repair _ ->
      (* only with a zero flip budget: the rank refutation is exactly
         the statement that no zero-error explanation exists *)
      Engine.Repair `Unrepairable
  | Query.Certified -> assert false (* presolve is skipped for Certified *)

(* Policy eligibility on top of raw capability: the auto planner only
   hands MITM property-free queries (the filter is exact but defeats
   the O(m) early exit) and only hands linear a coset it can sweep
   faster than a SAT warm-up. *)
let policy_eligible (ctx : Engine.ctx) (q : Query.t) (e : Engine.t) =
  match e.Engine.capable ctx q with
  | Error reason -> Error reason
  | Ok () ->
      if e.Engine.name = "mitm" && q.assume <> [] then
        Error "policy: properties assumed"
      else if
        e.Engine.name = "linear" && ctx.Engine.nullity > linear_nullity_threshold
      then
        Error
          (Printf.sprintf "policy: nullity %d > %d" ctx.Engine.nullity
             linear_nullity_threshold)
      else Ok ()

(* ------------------------------------------------------------------ *)
(* Sessions: the per-design context every request-shaped caller reuses.

   A session owns everything derivable from the encoding alone — the
   F₂ rank, the shared left-nullspace reduction, and (when a matching
   pack was offered) the MITM pair table and warm solver skeleton — so
   a service holding one session per design answers repeat queries
   without recomputing any of it. [run]/[run_stream] build a throwaway
   session per call, which costs exactly what the pre-session code
   paid: the rank and the reduction are lazy, forced only by the code
   paths that needed them before. *)

type session = {
  ses_encoding : Encoding.t;
  ses_pack : Pack.t option;  (* validated: matches [ses_encoding] *)
  ses_status : [ `Hit | `Miss | `Stale ];
  ses_rank : int Lazy.t;
  ses_shared : Presolve.shared Lazy.t;
  ses_warm : Sat_reconstruct.warm option;
  ses_table : Combinatorial_reconstruct.table Lazy.t;
}

let session ?pack encoding =
  (* a pack accelerates only — a stale one (compiled for a different
     design) is recorded and ignored, never an error *)
  let pack, status =
    match pack with
    | None -> (None, `Miss)
    | Some p ->
        if Pack.matches p encoding then (Some p, `Hit) else (None, `Stale)
  in
  {
    ses_encoding = encoding;
    ses_pack = pack;
    ses_status = status;
    ses_rank =
      (match pack with
      | Some p -> Lazy.from_val (Pack.rank p)
      | None -> lazy (Tp_bitvec.F2_matrix.rank (Encoding.matrix encoding)));
    ses_shared =
      (match pack with
      | Some p -> Lazy.from_val (Pack.shared p)
      | None -> lazy (Presolve.shared encoding));
    ses_warm = Option.map Pack.warm pack;
    ses_table =
      (* memoized per session: without a pack the O(m²) half-sum build
         runs at most once per design, not once per entry *)
      (match pack with
      | Some p -> Lazy.from_val (Pack.table p)
      | None -> lazy (Combinatorial_reconstruct.pair_table encoding));
  }

let session_encoding s = s.ses_encoding
let session_pack s = s.ses_pack
let session_status s = s.ses_status
let session_rank s = Lazy.force s.ses_rank
let session_shared s = Lazy.force s.ses_shared
let session_warm s = s.ses_warm
let session_table s = Lazy.force s.ses_table

let check_encoding ~who s enc =
  if not (Encoding.equal s.ses_encoding enc) then
    invalid_arg (who ^ ": query encoding does not match the session's design")

let run_in ?(engine = `Auto) ?jobs (s : session) (q : Query.t) =
  check_encoding ~who:"Plan.run_in" s q.encoding;
  let pack_status = s.ses_status in
  let ctx = Engine.context ~rank:(Lazy.force s.ses_rank) ~table:s.ses_table q in
  (* how a SAT run of this query would parallelize — decided from the
     query and the instance estimates alone, never from the jobs
     value, so the engage decision (and hence the answer) is the same
     for every pool size *)
  let below_threshold () =
    Printf.sprintf "below cost threshold: |preimage|~2^%.1f < 2^%.1f"
      ctx.Engine.preimage_bits parallel_threshold_bits
  in
  let parallel_plan =
    match jobs with
    | None -> `Off
    | Some j -> (
        match q.answer with
        | Query.Check _ when q.conflict_budget = None ->
            (* Check cannot cube-split, but an unbudgeted check races
               as a portfolio: the verdict of a completed check is a
               pure function of the problem, so any config that
               finishes gives THE answer — jobs-invariant by
               construction *)
            if ctx.Engine.preimage_bits < parallel_threshold_bits then
              `Pinned (below_threshold ())
            else begin
              (* racing diversified configs on one domain only adds
                 scheduling overhead (BENCH_pr7 measured 0.13–0.44×
                 there); a single-core pool runs the canonical config
                 pinned instead *)
              let rj = Par_reconstruct.resolve_jobs j in
              if rj <= 1 then
                `Pinned "single-core: portfolio racing needs at least 2 domains"
              else `Race rj
            end
        | Query.Check _ ->
            `Pinned
              "check: a conflict-budgeted verdict depends on the search \
               trajectory"
        | _ -> (
            match Engine.parallelizable q with
            | Error reason -> `Pinned reason
            | Ok () ->
                if ctx.Engine.preimage_bits < parallel_threshold_bits then
                  `Pinned (below_threshold ())
                else `Cubes (Par_reconstruct.resolve_jobs j)))
  in
  let base chosen presolve parallel considered fallbacks stages =
    {
      chosen;
      presolve;
      nullity = ctx.Engine.nullity;
      preimage_bits = ctx.Engine.preimage_bits;
      considered;
      fallbacks;
      parallel;
      pack = pack_status;
      stages;
    }
  in
  let forced name =
    List.find_opt (fun e -> e.Engine.name = name) Engine.all
  in
  let run_engine ?(fallbacks = []) presolve considered (e : Engine.t) =
    let outcome, parallel, stages =
      if e.Engine.name = "sat" then
        match parallel_plan with
        | `Cubes j ->
            let outcome, s = Par_reconstruct.run_query ~jobs:j q in
            ( outcome,
              Cubed
                {
                  jobs = s.Par_reconstruct.cs_jobs;
                  cubes = s.Par_reconstruct.cs_cubes;
                },
              s.Par_reconstruct.cs_stages )
        | `Race j ->
            let prop =
              match q.answer with Query.Check p -> p | _ -> assert false
            in
            let pb =
              Sat_reconstruct.problem ~assume:q.assume q.encoding q.entry
            in
            let r, s = Par_reconstruct.race_check ~jobs:j pb prop in
            ( Engine.Check r,
              Portfolio
                {
                  jobs = s.Par_reconstruct.rs_jobs;
                  winner = s.Par_reconstruct.rs_winner;
                },
              s.Par_reconstruct.rs_stages )
        | `Off ->
            let outcome, stages = e.Engine.run ctx q in
            (outcome, Off, stages)
        | `Pinned r ->
            let outcome, stages = e.Engine.run ctx q in
            (outcome, Pinned r, stages)
      else
        let outcome, stages = e.Engine.run ctx q in
        let parallel =
          match parallel_plan with
          | `Off -> Off
          | `Cubes _ | `Race _ | `Pinned _ ->
              Pinned (e.Engine.name ^ ": engine is single-threaded")
        in
        (outcome, parallel, stages)
    in
    (outcome, base e.Engine.name presolve parallel considered fallbacks stages)
  in
  match engine with
  | (`Sat | `Linear | `Mitm) as f -> (
      let name =
        match f with `Sat -> "sat" | `Linear -> "linear" | `Mitm -> "mitm"
      in
      let e = Option.get (forced name) in
      match e.Engine.capable ctx q with
      | Ok () -> run_engine `Skipped [ (name, `Cost (e.Engine.cost_bits ctx q)) ] e
      | Error reason ->
          (* an incapable forced engine silently falls through to SAT *)
          run_engine
            ~fallbacks:[ (name, reason) ]
            `Skipped
            [ (name, `Rejected reason) ]
            Engine.sat)
  | `Auto -> (
      let presolve =
        match q.answer with
        | Query.Certified -> `Skipped
        | _ -> (
            match Presolve.run q.encoding q.entry with
            | `Unsat -> `Refuted
            | `Reduced p -> `Reduced p.Presolve.stats)
      in
      match presolve with
      | `Refuted -> (
          match q.answer with
          | Query.Repair { max_flips; _ } when max_flips > 0 ->
              (* the clean system is inconsistent, but the query brought
                 an error budget: only SAT can search the relaxation.
                 The rank refutation still pays for itself — the repair
                 encoding skips every zero-flip split. *)
              let considered =
                [ ("sat", `Cost (Engine.sat.Engine.cost_bits ctx q)) ]
              in
              let outcome, stages = Engine.sat.Engine.run ctx q in
              let presolve =
                match outcome with
                | Engine.Repair (`Repaired _) -> `Refuted_but_repairable
                | _ -> `Refuted
              in
              let parallel =
                match parallel_plan with
                | `Off -> Off
                | `Pinned r -> Pinned r
                | `Cubes _ | `Race _ ->
                    assert false (* Repair is never cubed or raced *)
              in
              (outcome, base "sat" presolve parallel considered [] stages)
          | _ ->
              let parallel =
                match parallel_plan with
                | `Off -> Off
                | `Pinned r -> Pinned r
                | `Cubes _ | `Race _ -> Pinned "presolve answered the query"
              in
              ( refuted_outcome q,
                base "presolve" `Refuted parallel
                  [ ("presolve", `Cost 0.) ]
                  [] [] ))
      | `Reduced _ | `Skipped -> (
          let considered =
            List.map
              (fun e ->
                ( e.Engine.name,
                  match policy_eligible ctx q e with
                  | Ok () -> `Cost (e.Engine.cost_bits ctx q)
                  | Error reason -> `Rejected reason ))
              Engine.all
          in
          let eligible =
            List.filter_map
              (fun (name, v) ->
                match v with
                | `Cost c when name <> "sat" -> Some (name, c)
                | _ -> None)
              considered
          in
          match
            List.sort (fun (_, a) (_, b) -> Float.compare a b) eligible
          with
          | (winner, _) :: _ ->
              run_engine presolve considered (Option.get (forced winner))
          | [] -> run_engine presolve considered Engine.sat))

let run ?engine ?jobs ?pack (q : Query.t) =
  run_in ?engine ?jobs (session ?pack q.encoding) q

(* What the auto policy would charge for this query, in cost bits —
   the admission currency: the winning engine's [cost_bits] estimate,
   computed from the session's cached rank without running anything.
   An upper bound: a presolve rank refutation would answer for free,
   but that cannot be known without doing the refutation. *)
let cost_estimate (s : session) (q : Query.t) =
  check_encoding ~who:"Plan.cost_estimate" s q.encoding;
  let ctx = Engine.context ~rank:(Lazy.force s.ses_rank) q in
  let eligible =
    List.filter_map
      (fun e ->
        if e.Engine.name = "sat" then None
        else
          match policy_eligible ctx q e with
          | Ok () -> Some (e.Engine.cost_bits ctx q)
          | Error _ -> None)
      Engine.all
  in
  match List.sort Float.compare eligible with
  | c :: _ -> c
  | [] -> Engine.sat.Engine.cost_bits ctx q

let run_stream_emit ?(assume = []) ?conflict_budget ?gauss ?(repair = 0)
    ?jobs ?(flush = ignore) (s : session) entries ~emit =
  if repair < 0 then invalid_arg "Plan.run_stream_emit: negative repair budget";
  let encoding = s.ses_encoding in
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let out = Array.make n None in
  let sat_idx = ref [] in
  (* the session supplies the whole per-stream setup — rank-check
     masks, MITM half-sum tables, warm solver skeleton — compiled once
     per design (from a pack on a hit, lazily memoized otherwise) *)
  let table = s.ses_table in
  let warm = s.ses_warm in
  let m = Encoding.m encoding in
  (* which entries take the MITM fast path: any supported-and-feasible
     k ≤ 4, and k ∈ {5, 6} only when the sorted-meet estimate still
     beats a warm SAT solve *)
  let mitm_fast k =
    Combinatorial_reconstruct.feasible encoding ~k
    && (k <= 4 || Engine.mitm_cost_bits ~m ~k < Engine.sat_cost_baseline)
  in
  (* encoding-only half of the rank check: one reduction for the whole
     stream (and, with [jobs], the read-only copy every chunk worker
     shares) *)
  let shared = Lazy.force s.ses_shared in
  Array.iteri
    (fun i e ->
      if Presolve.refutes_with shared e then
        (* inconsistent as logged: quarantined outright without a
           budget, SAT's repair ladder with one *)
        if repair = 0 then
          out.(i) <- Some (`Unsat, Sat_reconstruct.Quarantined, `Presolve)
        else sat_idx := i :: !sat_idx
      else if assume = [] && mitm_fast (Log_entry.k e) then
        match
          Combinatorial_reconstruct.first ~table:(Lazy.force table) encoding e
        with
        | Some s -> out.(i) <- Some (`Signal s, Sat_reconstruct.Clean, `Mitm)
        | None ->
            (* linearly consistent yet no exact-k witness: cardinality
               UNSAT, which only the repair ladder can explain away *)
            if repair = 0 then
              out.(i) <- Some (`Unsat, Sat_reconstruct.Quarantined, `Mitm)
            else sat_idx := i :: !sat_idx
      else sat_idx := i :: !sat_idx)
    entries;
  let sat_idx = List.rev !sat_idx in
  (* Emission is strictly in entry order: slot [i] goes out only once
     every slot below it has. Chunks completing out of order buffer in
     [out] until the prefix is ready, so the emitted stream is
     byte-identical for every [jobs] value — parallelism moves the
     moments of emission, never the sequence. Each drain that emits
     anything is one burst, closed by one [flush]. *)
  let next = ref 0 in
  let drain () =
    let first = !next in
    while !next < n && out.(!next) <> None do
      (match out.(!next) with Some r -> emit !next r | None -> assert false);
      incr next
    done;
    if !next > first then flush ()
  in
  drain ();
  (match sat_idx with
  | [] -> ()
  | _ ->
      (* with a repair budget the batch re-runs the rank check so its
         ladder can skip the zero-flip rung of refuted entries; with
         none, every surviving entry already passed it above *)
      let selected = List.map (fun i -> entries.(i)) sat_idx in
      (match jobs with
      | None ->
          let results =
            Sat_reconstruct.batch ~assume ~presolve:(repair > 0)
              ?conflict_budget ?gauss ~repair ~shared ?warm encoding selected
          in
          List.iter2
            (fun i (v, h, st) -> out.(i) <- Some (v, h, `Sat st))
            sat_idx results
      | Some jobs ->
          (* classification above is sequential and jobs-independent;
             only the SAT leftovers fan out, in fixed-size chunks, so
             the merged triage is identical for every pool size. Each
             chunk's results land (and the ready prefix is emitted)
             the moment that chunk completes on the pool. *)
          let sat_idx_a = Array.of_list sat_idx in
          Par_reconstruct.batch_emit ~assume ~presolve:(repair > 0)
            ?conflict_budget ?gauss ~repair ~shared ?warm ~jobs encoding
            selected
            ~emit:(fun chunk results ->
              List.iteri
                (fun off (v, h, st) ->
                  let at = (chunk * Par_reconstruct.default_chunk) + off in
                  out.(sat_idx_a.(at)) <- Some (v, h, `Sat st))
                results;
              drain ())));
  drain ();
  assert (!next = n)

let run_stream_in ?assume ?conflict_budget ?gauss ?repair ?jobs s entries =
  let acc = ref [] in
  run_stream_emit ?assume ?conflict_budget ?gauss ?repair ?jobs s entries
    ~emit:(fun _ r -> acc := r :: !acc);
  List.rev !acc

let run_stream ?assume ?conflict_budget ?gauss ?repair ?jobs ?pack encoding
    entries =
  run_stream_in ?assume ?conflict_budget ?gauss ?repair ?jobs
    (session ?pack encoding) entries

(* One stable machine-parseable line carrying the report's dispatch
   facts; the daemon's [stats] verb serves it verbatim and scripts
   parse it, so the format is pinned by test — extend by appending
   fields, never by reordering. *)
let meta_line r =
  let pack =
    match r.pack with `Hit -> "hit" | `Miss -> "miss" | `Stale -> "stale"
  in
  let parallel, jobs, cubes, winner =
    match r.parallel with
    | Off -> ("off", 0, 0, -1)
    | Cubed { jobs; cubes } -> ("cubed", jobs, cubes, -1)
    | Portfolio { jobs; winner } -> ("portfolio", jobs, 0, winner)
    | Pinned _ -> ("pinned", 0, 0, -1)
  in
  Printf.sprintf "engine=%s pack=%s parallel=%s jobs=%d cubes=%d winner=%d"
    r.chosen pack parallel jobs cubes winner

let pp_report ppf r =
  let open Format in
  fprintf ppf "@[<v>plan: engine=%s  nullity=%d  |preimage|~2^%.1f@," r.chosen
    r.nullity r.preimage_bits;
  (match r.presolve with
  | `Refuted -> fprintf ppf "presolve: rank-refuted (zero solver work)@,"
  | `Refuted_but_repairable ->
      fprintf ppf
        "presolve: rank-refuted as logged, but repairable within budget@,"
  | `Skipped -> fprintf ppf "presolve: skipped@,"
  | `Reduced s ->
      fprintf ppf "presolve: rank=%d dropped=%d units=%d aliases=%d@,"
        s.Presolve.rank s.dropped s.units s.aliases);
  List.iter
    (fun (name, v) ->
      match v with
      | `Cost c -> fprintf ppf "  %-7s cost~2^%.1f@," name c
      | `Rejected why -> fprintf ppf "  %-7s rejected: %s@," name why)
    r.considered;
  List.iter
    (fun (name, why) -> fprintf ppf "fallback: %s unavailable (%s) -> sat@," name why)
    r.fallbacks;
  (match r.parallel with
  | Off -> ()
  | Cubed { jobs; cubes } ->
      fprintf ppf "parallel: %d cubes on %d jobs@," cubes jobs
  | Portfolio { jobs; winner } ->
      fprintf ppf "parallel: portfolio race on %d jobs, config %d won@," jobs
        winner
  | Pinned reason ->
      fprintf ppf "parallel: pinned to one domain (%s)@," reason);
  (match r.pack with
  | `Miss -> ()
  | `Hit -> fprintf ppf "pack: hit@,"
  | `Stale -> fprintf ppf "pack: stale (encoding mismatch), ignored@,");
  fprintf ppf "meta: %s@," (meta_line r);
  List.iter
    (fun (st : Engine.stage) ->
      match st.Engine.stats with
      | None -> fprintf ppf "stage %s: %s@," st.stage st.detail
      | Some s ->
          fprintf ppf
            "stage %s: %s  conflicts=%d decisions=%d propagations=%d"
            st.stage st.detail s.Tp_sat.Solver.conflicts s.decisions
            s.propagations;
          if
            s.subsumed + s.strengthened + s.eliminated + s.vivified
            + s.xors_recovered > 0
          then
            fprintf ppf
              "  inprocess: subsumed=%d strengthened=%d eliminated=%d \
               vivified=%d xors-recovered=%d"
              s.subsumed s.strengthened s.eliminated s.vivified
              s.xors_recovered;
          fprintf ppf "@,")
    r.stages;
  fprintf ppf "@]"
