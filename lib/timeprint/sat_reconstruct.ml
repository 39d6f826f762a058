open Tp_bitvec
open Tp_sat

type problem = {
  encoding : Encoding.t;
  entry : Log_entry.t;
  assume : Property.t list;
  presolve : bool;
  gauss : bool option;
}

let problem ?(assume = []) ?(presolve = true) ?gauss encoding entry =
  if Bitvec.width (Log_entry.tp entry) <> Encoding.b encoding then
    invalid_arg "Sat_reconstruct.problem: timeprint width <> encoding b";
  { encoding; entry; assume; presolve; gauss }

(* Row [j] of [A·x = TP] over the cycle variables [xvars]: bit j of the
   timeprint is the XOR of x_i over the cycles i whose timestamp has
   bit j set. The variables come after [init], last cycle first. *)
let row_vars encoding xvars ~init j =
  let vars = ref init in
  for i = 0 to Encoding.m encoding - 1 do
    if Bitvec.get (Encoding.timestamp encoding i) j then vars := xvars.(i) :: !vars
  done;
  !vars

(* verified properties prune the space *)
let assert_all cnf ~m xvars props =
  List.iter (fun p -> Property.assert_holds cnf ~m ~xvar:(fun i -> xvars.(i)) p) props

(* The legacy monolithic encoding — chunked XOR rows, no presolve, all
   [m] signal variables materialized first. Kept verbatim: it is the
   shape external consumers (DIMACS export, certified runs, encoding
   ablations) rely on. *)
let to_cnf { encoding; entry; assume; _ } =
  let m = Encoding.m encoding and b = Encoding.b encoding in
  let cnf = Cnf.create () in
  let xvars = Array.init m (fun _ -> Cnf.new_var cnf) in
  let tp = Log_entry.tp entry in
  for j = 0 to b - 1 do
    Cnf.add_xor_chunked cnf ~vars:(row_vars encoding xvars ~init:[] j)
      ~parity:(Bitvec.get tp j)
  done;
  (* exactly k changes *)
  Cardinality.exactly cnf (Array.to_list (Array.map Lit.pos xvars)) (Log_entry.k entry);
  assert_all cnf ~m xvars assume;
  (cnf, xvars)

let signal_of_model m xvars value =
  Signal.of_bitvec
    (Bitvec.of_indices ~width:m
       (List.filter (fun i -> value xvars.(i)) (List.init m Fun.id)))

(* ------------------------------------------------------------------ *)
(* The rank-aware encoder.

   When [pb.presolve] is on, the linear system [A·x = TP] is
   Gauss–Jordan-reduced offline first ({!Presolve}): an inconsistent
   system short-circuits to UNSAT before any solver exists, implied
   units and aliases are substituted out, and only the reduced kernel
   is encoded. Two encodings cover the callers:

   - the {e substituted} form (property-free one-shot queries): only
     surviving cycles get variables, the cardinality counter runs over
     representative literals with the bound lowered by the fixed-true
     cycles, and [e_extract] rebuilds the full signal through the
     elimination map — witnesses and AllSAT model sets are exactly
     those of the legacy encoding;
   - the {e materialized} form (properties, {!Session}): all [m]
     signal variables exist so property encodings and cached guard
     groups can refer to any cycle; the eliminations are strengthening
     facts (unit clauses / binary XORs) on top of the reduced kernel.

   XOR rows are emitted monolithically — one row per timeprint bit —
   unless Gauss is explicitly off, in which case the legacy chunked
   form keeps the lazy watch scheme fed with short rows. *)

type encoded = {
  e_cnf : Cnf.t;
  e_xvars : int array option;  (* Some: all m signal vars, indices 0..m-1 *)
  e_proj : int list;  (* projection variables for AllSAT *)
  e_extract : (int -> bool) -> Signal.t;
}

(* Auto policy for the in-solver Gauss engine, resolved here because
   this layer knows [k]. The engine pays off when the preimage is
   populous — eager XOR propagation then closes one of the many models
   in a handful of conflicts (observed ~100× on such instances) — and
   costs ~2× when the entry pins a needle, because the dense rows feed
   long, weak learnt clauses into an already hard search. The estimate
   is the paper's preimage-size heuristic: log₂|SR| ≈ log₂ C(m,k) − b.
   The 10-bit threshold is calibrated on the bench grid: at 8 estimated
   bits (m = 128, k = 4) the engine still loses ~2×, from ~20 estimated
   bits up it wins 5–40×. Assumed properties invalidate the estimate —
   a single pattern property can pin the populous preimage down to a
   needle — so auto engages only on bare (TP, k) problems. *)
let gauss_choice pb =
  match pb.gauss with
  | Some g -> g
  | None ->
      pb.assume = []
      &&
      let m = Encoding.m pb.encoding and b = Encoding.b pb.encoding in
      let k = Log_entry.k pb.entry in
      Signal.log2_choose m k -. float_of_int b >= 10.

let auto_gauss pb = gauss_choice { pb with gauss = None }

let encode ?(materialize = false) pb =
  let m = Encoding.m pb.encoding in
  let k = Log_entry.k pb.entry in
  let materialize = materialize || pb.assume <> [] in
  let gauss = gauss_choice pb in
  let add_rows cnf rows var_of =
    List.iter
      (fun (cycles, parity) ->
        let vars = List.map var_of cycles in
        if gauss then Cnf.add_xor cnf ~vars ~parity
        else Cnf.add_xor_chunked cnf ~vars ~parity)
      rows
  in
  let materialized rows elim =
    let cnf = Cnf.create () in
    let xvars = Array.init m (fun _ -> Cnf.new_var cnf) in
    (match elim with
    | None -> ()
    | Some e ->
        Array.iteri
          (fun i -> function
            | Some (Presolve.Fixed v) ->
                Cnf.add_clause cnf [ Lit.make xvars.(i) v ]
            | Some (Presolve.Aliased { rep; negate }) ->
                Cnf.add_xor cnf ~vars:[ xvars.(i); xvars.(rep) ] ~parity:negate
            | None -> ())
          e);
    add_rows cnf rows (fun i -> xvars.(i));
    Cardinality.exactly cnf (Array.to_list (Array.map Lit.pos xvars)) k;
    assert_all cnf ~m xvars pb.assume;
    {
      e_cnf = cnf;
      e_xvars = Some xvars;
      e_proj = Array.to_list xvars;
      e_extract = (fun value -> signal_of_model m xvars value);
    }
  in
  if not pb.presolve then
    `Enc (materialized (Presolve.system pb.encoding pb.entry) None)
  else
    match Presolve.run pb.encoding pb.entry with
    | `Unsat -> `Unsat
    | `Reduced r ->
        if materialize then `Enc (materialized r.Presolve.rows (Some r.elim))
        else begin
          let cnf = Cnf.create () in
          let map = Array.make m (-1) in
          for i = 0 to m - 1 do
            if r.Presolve.elim.(i) = None then map.(i) <- Cnf.new_var cnf
          done;
          add_rows cnf r.rows (fun i -> map.(i));
          (* each alias still counts toward [exactly k], through the
             literal of its representative that makes it true *)
          let card_lits =
            List.filter_map
              (fun i ->
                match r.elim.(i) with
                | None -> Some (Lit.pos map.(i))
                | Some (Presolve.Aliased { rep; negate }) ->
                    Some (Lit.make map.(rep) (not negate))
                | Some (Presolve.Fixed _) -> None)
              (List.init m Fun.id)
          in
          Cardinality.exactly cnf card_lits (k - r.units_true);
          let extract value =
            Signal.of_bitvec
              (Bitvec.of_indices ~width:m
                 (List.filter
                    (fun i ->
                      match r.elim.(i) with
                      | Some (Presolve.Fixed v) -> v
                      | Some (Presolve.Aliased { rep; negate }) ->
                          value map.(rep) <> negate
                      | None -> value map.(i))
                    (List.init m Fun.id)))
          in
          let proj =
            List.filter_map
              (fun i -> if map.(i) >= 0 then Some map.(i) else None)
              (List.init m Fun.id)
          in
          `Enc { e_cnf = cnf; e_xvars = None; e_proj = proj; e_extract = extract }
        end

type verdict = [ `Signal of Signal.t | `Unsat | `Unknown ]

(* branch on the (surviving) signal variables before the cardinality
   auxiliaries — same heuristic [batch] uses, and what lets the Gauss
   rows do the propagating *)
let solver_for ?stop ?(seed = 0) ?(cube = []) pb e =
  let s = Solver.of_cnf ~gauss:(gauss_choice pb) e.e_cnf in
  Solver.boost s e.e_proj;
  (* portfolio hooks: seed 0 is the identity, so the canonical config
     is byte-identical to a sequential run; a shared stop flag lets the
     first finisher cancel its siblings *)
  Solver.diversify s ~seed;
  (match stop with Some f -> Solver.share_stop s f | None -> ());
  (* a cube's solver is private to its worker, so the cube literals can
     be asserted as unit clauses rather than assumptions *)
  List.iter (fun l -> Solver.add_clause s [ l ]) cube;
  s

type certified =
  [ `Signal of Signal.t | `Unsat_certified of string | `Unknown ]

let first_certified ?conflict_budget pb : certified =
  let cnf, xvars = to_cnf pb in
  let clausal = Cnf.expand_xors cnf in
  let s = Solver.of_cnf clausal in
  Solver.enable_proof s;
  match Solver.solve ?conflict_budget s with
  | Sat -> `Signal (signal_of_model (Encoding.m pb.encoding) xvars (Solver.value s))
  | Unknown -> `Unknown
  | Unsat -> (
      let proof = Solver.proof s in
      match Drat.check clausal proof with
      | Ok () -> `Unsat_certified proof
      | Error e -> failwith ("Sat_reconstruct.first_certified: bad certificate: " ^ e))

(* Test-only knob: re-run every [`Unsat] answer of {!solve_first}
   (rank refutations included) through the proof-carrying pipeline and
   fail loudly unless the DRAT certificate checks out. Property suites
   flip this on to assert that no refutation rests on the solver's
   word alone. *)
let certify_unsat = ref false
let set_certify_unsat b = certify_unsat := b

(* A cube's [`Unsat] says nothing about the whole problem, so there is
   no refutation to certify: the recheck runs only without a cube. *)
let recheck_unsat ?cube pb =
  if !certify_unsat && cube = None then
    match first_certified pb with
    | `Unsat_certified _ -> ()
    | `Signal _ ->
        failwith
          "Sat_reconstruct.solve_first: UNSAT verdict but the certified \
           rerun found a model"
    | `Unknown ->
        failwith "Sat_reconstruct.solve_first: certified rerun was inconclusive"

let solve_first ?conflict_budget ?stop ?cube pb =
  match encode pb with
  | `Unsat ->
      recheck_unsat ?cube pb;
      (`Unsat, None)
  | `Enc e ->
      let s = solver_for ?stop ?cube pb e in
      let v =
        match Solver.solve ?conflict_budget s with
        | Sat -> `Signal (e.e_extract (Solver.value s))
        | Unsat ->
            recheck_unsat ?cube pb;
            `Unsat
        | Unknown -> `Unknown
      in
      (v, Some (Solver.stats s))

let first ?conflict_budget pb = fst (solve_first ?conflict_budget pb)

type enumeration = { signals : Signal.t list; complete : bool }

let solve_enumerate ?max_solutions ?conflict_budget ?stop ?cube pb =
  match encode pb with
  | `Unsat -> ({ signals = []; complete = true }, None)
  | `Enc e ->
      let s = solver_for ?stop ?cube pb e in
      let { Allsat.models; complete } =
        Allsat.enumerate ?max_models:max_solutions ?conflict_budget s
          ~project:e.e_proj
      in
      ( {
          signals =
            List.map (fun model -> e.e_extract (fun v -> model.(v))) models;
          complete;
        },
        Some (Solver.stats s) )

let enumerate ?max_solutions ?conflict_budget pb =
  fst (solve_enumerate ?max_solutions ?conflict_budget pb)

type check_result =
  [ `Holds_in_all | `Violated_in_all | `Mixed | `Vacuous | `Unknown ]

let exists_with ?stop ?seed ?conflict_budget pb extra_polarity prop =
  match encode ~materialize:true pb with
  | `Unsat -> (`No, None)
  | `Enc e ->
      let cnf = e.e_cnf in
      let xvars =
        match e.e_xvars with Some x -> x | None -> assert false
      in
      let m = Encoding.m pb.encoding in
      let xvar i = xvars.(i) in
      (match extra_polarity with
      | `Holds -> Property.assert_holds cnf ~m ~xvar prop
      | `Violated -> Property.assert_violated cnf ~m ~xvar prop);
      let s = solver_for ?stop ?seed pb e in
      let r =
        match Solver.solve ?conflict_budget s with
        | Sat -> `Yes
        | Unsat -> `No
        | Unknown -> `Unknown
      in
      (r, Some (Solver.stats s))

let solve_check ?stop ?seed ?conflict_budget pb prop =
  let some_sat, st_sat = exists_with ?stop ?seed ?conflict_budget pb `Holds prop in
  let some_viol, st_viol =
    exists_with ?stop ?seed ?conflict_budget pb `Violated prop
  in
  let r =
    match (some_sat, some_viol) with
    | `Yes, `Yes -> `Mixed
    | `Yes, `No -> `Holds_in_all
    | `No, `Yes -> `Violated_in_all
    | `No, `No -> `Vacuous
    | `Unknown, _ | _, `Unknown -> `Unknown
  in
  ( r,
    match (st_sat, st_viol) with
    | None, s | s, None -> s
    | Some a, Some b -> Some (Solver.stats_add a b) )

let pp_check_result ppf r =
  Format.pp_print_string ppf
    (match r with
    | `Holds_in_all -> "holds in all reconstructions"
    | `Violated_in_all -> "violated in all reconstructions"
    | `Mixed -> "holds in some reconstructions, violated in others"
    | `Vacuous -> "no reconstruction exists"
    | `Unknown -> "unknown (budget exhausted)")

(* ------------------------------------------------------------------ *)
(* Repair: minimal-error consistent explanations of corrupted entries  *)

type repair = {
  r_signal : Signal.t;
  r_flips : int list;
  r_k_delta : int;
}

type repair_verdict =
  [ `Clean of Signal.t | `Repaired of repair | `Unrepairable | `Unknown ]

type health = Clean | Repaired of int | Quarantined

let pp_health ppf = function
  | Clean -> Format.pp_print_string ppf "clean"
  | Repaired w -> Format.fprintf ppf "repaired (error weight %d)" w
  | Quarantined -> Format.pp_print_string ppf "quarantined"

let pp_repair_verdict ppf = function
  | `Clean _ -> Format.pp_print_string ppf "clean"
  | `Repaired { r_flips; r_k_delta; _ } ->
      Format.fprintf ppf "repaired (TP bits {%s}%s)"
        (String.concat "," (List.map string_of_int r_flips))
        (if r_k_delta = 0 then ""
         else Format.asprintf ", k off by %+d" r_k_delta)
  | `Unrepairable -> Format.pp_print_string ppf "unrepairable within budget"
  | `Unknown -> Format.pp_print_string ppf "unknown (budget exhausted)"

(* ------------------------------------------------------------------ *)
(* Incremental sessions                                                *)

module Session = struct
  type t = {
    pb : problem;
    cnf : Cnf.t;  (** shadow problem: grows; deltas are flushed to the solver *)
    solver : Solver.t;
    xvars : int array;
    mutable flushed_clauses : int;
    mutable flushed_xors : int;
    mutable prop_guards : ((Property.t * bool) * Lit.t) list;
        (** cached guarded encodings, keyed by (property, polarity) *)
    mutable last_stats : Solver.stats;
  }

  let flush t =
    Solver.add_cnf_from t.solver t.cnf ~nclauses:t.flushed_clauses
      ~nxors:t.flushed_xors;
    t.flushed_clauses <- Cnf.nclauses t.cnf;
    t.flushed_xors <- Cnf.nxors t.cnf

  let create pb =
    let cnf, xvars =
      match encode ~materialize:true pb with
      | `Enc e ->
          (e.e_cnf, match e.e_xvars with Some x -> x | None -> assert false)
      | `Unsat ->
          (* refuted by rank alone: a root empty clause makes every
             query answer Unsat while keeping the session API alive *)
          let cnf = Cnf.create () in
          let xvars =
            Array.init (Encoding.m pb.encoding) (fun _ -> Cnf.new_var cnf)
          in
          Cnf.add_clause cnf [];
          (cnf, xvars)
    in
    let t =
      {
        pb;
        cnf;
        solver = Solver.create ~gauss:(gauss_choice pb) ();
        xvars;
        flushed_clauses = 0;
        flushed_xors = 0;
        prop_guards = [];
        last_stats = Solver.zero_stats;
      }
    in
    flush t;
    Solver.boost t.solver (Array.to_list xvars);
    t

  let problem t = t.pb
  let last_stats t = t.last_stats

  (* run a query, recording the solver-work delta it cost *)
  let measured t f =
    let before = Solver.stats t.solver in
    let r = f () in
    t.last_stats <- Solver.stats_diff ~before ~after:(Solver.stats t.solver);
    r

  let first ?conflict_budget t =
    measured t (fun () ->
        match Solver.solve ?conflict_budget t.solver with
        | Sat ->
            `Signal
              (signal_of_model (Encoding.m t.pb.encoding) t.xvars
                 (Solver.value t.solver))
        | Unsat -> `Unsat
        | Unknown -> `Unknown)

  let enumerate ?max_solutions ?conflict_budget t =
    (* blocking clauses live under a per-enumeration guard, retired when
       the enumeration finishes, so later queries see the full space *)
    let g = Lit.pos (Cnf.new_var t.cnf) in
    flush t;
    measured t (fun () ->
        let { Allsat.models; complete } =
          Allsat.enumerate ?max_models:max_solutions ?conflict_budget ~guard:g
            t.solver
            ~project:(Array.to_list t.xvars)
        in
        Solver.add_clause t.solver [ Lit.negate g ];
        (* keep the shadow problem in step with the retirement *)
        Cnf.add_clause t.cnf [ Lit.negate g ];
        t.flushed_clauses <- t.flushed_clauses + 1;
        let extract model =
          signal_of_model (Encoding.m t.pb.encoding) t.xvars (Array.get model)
        in
        { signals = List.map extract models; complete })

  let count ?max_solutions ?conflict_budget t =
    let { signals; complete } = enumerate ?max_solutions ?conflict_budget t in
    (List.length signals, if complete then `Exact else `Lower_bound)

  (* guarded property encoding, built once per (property, polarity) and
     switched on by assuming its guard *)
  let prop_guard t prop pos =
    match List.assoc_opt (prop, pos) t.prop_guards with
    | Some g -> g
    | None ->
        let g = Lit.pos (Cnf.new_var t.cnf) in
        let m = Encoding.m t.pb.encoding in
        let xvar i = t.xvars.(i) in
        (if pos then Property.assert_holds ~guard:g t.cnf ~m ~xvar prop
         else Property.assert_violated ~guard:g t.cnf ~m ~xvar prop);
        flush t;
        t.prop_guards <- ((prop, pos), g) :: t.prop_guards;
        g

  let exists_with ?conflict_budget t polarity prop =
    let g = prop_guard t prop (match polarity with `Holds -> true | `Violated -> false) in
    measured t (fun () ->
        match Solver.solve ?conflict_budget ~assumptions:[ g ] t.solver with
        | Sat -> `Yes
        | Unsat -> `No
        | Unknown -> `Unknown)

  let check ?conflict_budget t prop =
    let some_sat = exists_with ?conflict_budget t `Holds prop in
    let stats_sat = t.last_stats in
    let some_viol = exists_with ?conflict_budget t `Violated prop in
    t.last_stats <- Solver.stats_add stats_sat t.last_stats;
    match (some_sat, some_viol) with
    | `Yes, `Yes -> `Mixed
    | `Yes, `No -> `Holds_in_all
    | `No, `Yes -> `Violated_in_all
    | `No, `No -> `Vacuous
    | `Unknown, _ | _, `Unknown -> `Unknown
end

(* ------------------------------------------------------------------ *)
(* Compiled batch skeleton                                             *)

(* The encoding-only prefix of [solver_step]'s construction — cycle
   and select variables, the parity-select XOR rows, the primed and
   boosted solver — compiled once and stamped out per request:
   [solver_step ?warm] replays it as one [Cnf.copy] plus one
   [Solver.clone] instead of re-encoding [A] and re-propagating it from
   scratch. The skeleton covers exactly the default configuration (no
   assumed properties, no flip rungs, [gauss = None]); anything else
   changes the shared structure itself, so such calls fall back to the
   cold construction unchanged. *)
type warm = {
  w_m : int;
  w_b : int;
  w_cnf : Cnf.t;
  w_snapshot : Solver.snapshot;
}

let warm encoding =
  let m = Encoding.m encoding and b = Encoding.b encoding in
  let cnf = Cnf.create () in
  let xvars = Array.init m (fun _ -> Cnf.new_var cnf) in
  let pvars = Array.init b (fun _ -> Cnf.new_var cnf) in
  for j = 0 to b - 1 do
    Cnf.add_xor cnf ~vars:(row_vars encoding xvars ~init:[ pvars.(j) ] j)
      ~parity:false
  done;
  let solver = Solver.create () in
  Solver.add_cnf_from solver cnf ~nclauses:0 ~nxors:0;
  Solver.boost solver (Array.to_list xvars);
  { w_m = m; w_b = b; w_cnf = cnf; w_snapshot = Solver.snapshot solver }

let warm_skeleton w = w.w_cnf
let warm_clones w = Solver.clones w.w_snapshot

(* Rebuild a skeleton from its serialized CNF (design packs store the
   clause/XOR skeleton, not solver state): loading the same CNF into a
   fresh solver is deterministic, so the snapshot — and every clone cut
   from it — is identical to one compiled from the encoding. *)
let warm_of_skeleton ~m ~b cnf =
  if Cnf.nvars cnf <> m + b then
    invalid_arg "Sat_reconstruct.warm_of_skeleton: skeleton nvars <> m + b";
  let solver = Solver.create () in
  Solver.add_cnf_from solver cnf ~nclauses:0 ~nxors:0;
  Solver.boost solver (List.init m Fun.id);
  { w_m = m; w_b = b; w_cnf = cnf; w_snapshot = Solver.snapshot solver }

(* ------------------------------------------------------------------ *)
(* The repair ladder                                                   *)

(* CDCL work has no clean analytic model; a flat price places SAT as
   the fallback once the exact engines price themselves out. *)
let cost_baseline = 20.

(* Whether [lookups = C(b, flips)] meet lookups at this k, over the w
   columns the assumed properties leave, beat one SAT solve. A single
   lookup at k ≤ 4 always does (at most C(m, 2) probes); otherwise the
   meet's total price — flip sets times probes — must undercut the SAT
   baseline, which at m = 32 holds for a single lookup up to k = 9.
   [meet_step] asks it at each rung, so at [flips = 0] it is the
   stream's fast path. *)
let meet_wins ?(assume = []) encoding ~k ~flips =
  let b = Encoding.b encoding in
  let w = Combinatorial_reconstruct.width ~m:(Encoding.m encoding) assume in
  Combinatorial_reconstruct.feasible_in encoding ~w ~k
  && flips >= 0 && flips <= b
  && ((flips = 0 && k <= 4)
     || Signal.log2_choose b flips +. Combinatorial_reconstruct.cost_bits ~m:w ~k
        < cost_baseline)

(* Rung [f] of the ladder on the meet: the C(b, f) flip sets [F] of
   weight f in lexicographic order, one filtered lookup each on
   [(TP ⊕ e_F, k)]. The first hit explains the entry with exactly f
   flipped bits. *)
let meet_rung ~assume table encoding entry f =
  if f = 0 then Combinatorial_reconstruct.first ~assume ~table encoding entry
  else
    let b = Encoding.b encoding and k = Log_entry.k entry in
    let tp = Bitvec.copy (Log_entry.tp entry) in
    let flip j = Bitvec.set tp j (not (Bitvec.get tp j)) in
    let rec pick lo f =
      if f = 0 then
        Combinatorial_reconstruct.first ~assume ~table encoding
          (Log_entry.make ~tp ~k)
      else
        let rec from j =
          if j > b - f then None
          else begin
            flip j;
            let hit = pick (j + 1) (f - 1) in
            flip j;
            match hit with Some _ -> hit | None -> from (j + 1)
          end
        in
        from lo
    in
    pick 0 f

(* An entry's rungs [(f, d)] in increasing [f + d], then [d]: at most
   [f] flipped bits, a count within [d] of [k]. Deviations below
   [k − m] reach no count, and above [max k (m − k)] add none, so every
   bound lies within −m .. m + b whatever [k] and [k_slack] a client
   sends; ordering by [e = d − d_lo] instead of [d] keeps the sums from
   overflowing at [k = max_int]. A rung that answers has flip weight
   exactly [f] and deviation exactly [d], since every lighter rung came
   back empty. A rank-refuted entry skips every [f = 0] rung. Plain
   reconstruction, the stream's fast path, shares one list. *)
let plain = [ (0, 0) ]

let ladder ~m ~b ~k ~repair ~k_slack ~refuted =
  let f_max = Int.min repair b in
  let d_lo = Int.max 0 (k - m)
  and d_hi = Int.min k_slack (Int.max k (m - k)) in
  if f_max = 0 && d_lo = 0 && d_hi = 0 && not refuted then plain
  else begin
    (* no deviation in range ([d_lo > d_hi]) leaves the inner loop empty *)
    let e_max = d_hi - d_lo and rungs = ref [] in
    for w = f_max + e_max downto 0 do
      for e = Int.min w e_max downto 0 do
        let f = w - e in
        if f <= f_max && not (refuted && f = 0) then
          rungs := (f, d_lo + e) :: !rungs
      done
    done;
    !rungs
  end

type pending = { p_entry : Log_entry.t; p_rungs : (int * int) list }

let pending_rung p = List.hd p.p_rungs

type step =
  | Answered of verdict * health * [ `Presolve | `Mitm ]
  | Pending of pending

(* The meet step: the rank check, then every rung at the bottom of the
   ladder that [meet_wins] prices on the meet, over the columns the
   assumed properties leave. Only exact-k rungs ([d = 0]) run there;
   the assumed properties filter each lookup exactly. A ladder that
   runs out is quarantined: [`Mitm] if the meet swept a rung, else
   [`Presolve] (rank-refuted without a budget, or [k − k_slack > m]).
   The climb is a top-level function, not a closure: the stream's fast
   path runs it once per entry. *)
let rec meet_climb ~meet ~assume ~table encoding entry swept = function
  | (f, 0) :: rest
    when meet && meet_wins ~assume encoding ~k:(Log_entry.k entry) ~flips:f
    -> (
      match meet_rung ~assume (Lazy.force table) encoding entry f with
      | Some s ->
          Answered (`Signal s, (if f = 0 then Clean else Repaired f), `Mitm)
      | None -> meet_climb ~meet ~assume ~table encoding entry true rest)
  | [] -> Answered (`Unsat, Quarantined, if swept then `Mitm else `Presolve)
  | rungs -> Pending { p_entry = entry; p_rungs = rungs }

let meet_step ?(assume = []) ?(presolve = true) ?(meet = true) ?(k_slack = 0)
    ~repair ~shared ~table encoding entry =
  if repair < 0 || k_slack < 0 then
    invalid_arg "Sat_reconstruct.meet_step: negative budget";
  let m = Encoding.m encoding and b = Encoding.b encoding in
  if Bitvec.width (Log_entry.tp entry) <> b then
    invalid_arg "Sat_reconstruct.meet_step: timeprint width <> encoding b";
  let refuted = presolve && Presolve.refutes_with (Lazy.force shared) entry in
  meet_climb ~meet ~assume ~table encoding entry false
    (ladder ~m ~b ~k:(Log_entry.k entry) ~repair ~k_slack ~refuted)

(* The solver step. One solver serves every pending entry: the
   timestamp matrix [A] is shared, so each XOR row is emitted once in
   the parity-select form [⊕ vars_j ⊕ p_j = 0] — the select variable
   p_j carries bit j of the timeprint — and the p_j are pinned per
   entry through assumptions. When some rung allows flips, the rows
   also close on shared error variables [err_j]. The cardinality is
   shared the same way: one counter over the cycle literals, asked
   [{≥ k − d, ¬(≥ hi + 1)}] for rung [(f, d)], and one over the error
   literals, asked [¬(≥ f + 1)]. All structure learned about [A] (and
   the assumed properties) transfers across entries. The construction,
   the counter sizes and the solve order depend on the pending entries
   alone, so two callers that hand over the same entries get the same
   answers. *)
let solver_step ?(assume = []) ?conflict_budget ?gauss ?warm encoding pending =
  let m = Encoding.m encoding and b = Encoding.b encoding in
  let fold f =
    List.fold_left (fun acc p -> List.fold_left (f p) acc p.p_rungs)
  in
  let flips = fold (fun _ acc (f, _) -> max acc f) 0 pending in
  let hi k d = if k >= m - d then m else k + d in
  (* a compiled skeleton stands in for the construction below only in
     the exact configuration it was compiled for; any other call falls
     back to the cold path, whose answers the warm path must reproduce
     byte for byte *)
  let warm =
    match warm with
    | Some w when assume = [] && flips = 0 && gauss = None ->
        if w.w_m <> m || w.w_b <> b then
          invalid_arg "Sat_reconstruct.solver_step: warm skeleton shape";
        Some w
    | _ -> None
  in
  let cnf, xvars, pvars, evars, solver =
    match warm with
    | Some w ->
        (* the skeleton numbered its variables exactly as the cold path
           below does: cycles first, then the select variables *)
        ( Cnf.copy w.w_cnf,
          Array.init m Fun.id,
          Array.init b (fun j -> m + j),
          None,
          Solver.clone w.w_snapshot )
    | None ->
        let cnf = Cnf.create () in
        let xvars = Array.init m (fun _ -> Cnf.new_var cnf) in
        let pvars = Array.init b (fun _ -> Cnf.new_var cnf) in
        let evars =
          if flips > 0 then Some (Array.init b (fun _ -> Cnf.new_var cnf))
          else None
        in
        for j = 0 to b - 1 do
          let init =
            match evars with
            | Some ev -> [ ev.(j); pvars.(j) ]
            | None -> [ pvars.(j) ]
          in
          let vars = row_vars encoding xvars ~init j in
          (* monolithic rows feed the in-solver Gauss engine (the select
             variables p_j are ordinary matrix columns to it); chunked
             rows only when the engine is explicitly off *)
          if gauss = Some false then Cnf.add_xor_chunked cnf ~vars ~parity:false
          else Cnf.add_xor cnf ~vars ~parity:false
        done;
        assert_all cnf ~m xvars assume;
        (cnf, xvars, pvars, evars, Solver.create ?gauss ())
  in
  let flushed_clauses = ref 0 and flushed_xors = ref 0 in
  let flush () =
    Solver.add_cnf_from solver cnf ~nclauses:!flushed_clauses ~nxors:!flushed_xors;
    flushed_clauses := Cnf.nclauses cnf;
    flushed_xors := Cnf.nxors cnf
  in
  (match warm with
  | Some _ ->
      (* the skeleton is already flushed into the snapshot and its
         cycle variables boosted; only set the flush watermark *)
      flushed_clauses := Cnf.nclauses cnf;
      flushed_xors := Cnf.nxors cnf
  | None ->
      flush ();
      (* branch on the signal variables before select/auxiliary
         variables: they determine everything else through the XOR rows
         and counters *)
      Solver.boost solver (Array.to_list xvars));
  (* the counters come after the skeleton, built the same way on the
     warm and cold paths, and only once an entry reaches the solver:
     an empty step builds none. Each reaches one past the largest
     bound a rung asks of it. *)
  let counters =
    lazy
      (let lits vars = Array.to_list (Array.map Lit.pos vars) in
       let top =
         fold
           (fun p acc (_, d) -> max acc (hi (Log_entry.k p.p_entry) d))
           0 pending
       in
       let cycles = Cardinality.counter cnf (lits xvars) (top + 1) in
       let errors =
         Option.map
           (fun ev -> Cardinality.counter cnf (lits ev) (flips + 1))
           evars
       in
       flush ();
       (cycles, errors))
  in
  List.map
    (fun { p_entry = entry; p_rungs } ->
      let cycles, errors = Lazy.force counters in
      let k = Log_entry.k entry and tp = Log_entry.tp entry in
      let select =
        List.init b (fun j -> Lit.make pvars.(j) (Bitvec.get tp j))
      in
      let before = Solver.stats solver in
      let rec climb = function
        | [] -> (`Unsat, Quarantined)
        | (f, d) :: rest -> (
            let assumptions =
              Cardinality.within cycles ~lo:(k - d) ~hi:(hi k d)
              @ select
              @
              match errors with
              | None -> []
              | Some c -> Cardinality.within c ~lo:0 ~hi:f
            in
            match Solver.solve ?conflict_budget ~assumptions solver with
            | Sat ->
                let signal = signal_of_model m xvars (Solver.value solver) in
                let weight =
                  match evars with
                  | None -> 0
                  | Some ev ->
                      Array.fold_left
                        (fun n v -> if Solver.value solver v then n + 1 else n)
                        0 ev
                in
                (`Signal signal, if weight = 0 then Clean else Repaired weight)
            | Unsat -> climb rest
            | Unknown -> (`Unknown, Quarantined))
      in
      let verdict, health = climb p_rungs in
      (verdict, health, Solver.stats_diff ~before ~after:(Solver.stats solver)))
    pending

(* [batch] is the two steps in sequence, on a table and a rank-check
   reduction of its own (or the caller's [shared]). *)
let batch ?(assume = []) ?(presolve = true) ?conflict_budget ?gauss
    ?(repair = 0) ?shared ?warm encoding entries =
  if repair < 0 then
    invalid_arg "Sat_reconstruct.batch: negative repair budget";
  let shared =
    lazy (match shared with Some s -> s | None -> Presolve.shared encoding)
  in
  let table = lazy (Combinatorial_reconstruct.pair_table encoding) in
  let steps =
    List.map
      (meet_step ~assume ~presolve ~repair ~shared ~table encoding)
      entries
  in
  let pending =
    List.filter_map (function Pending p -> Some p | Answered _ -> None) steps
  in
  let solved =
    ref (solver_step ~assume ?conflict_budget ?gauss ?warm encoding pending)
  in
  List.map
    (function
      | Answered (v, h, _) -> (v, h, Solver.zero_stats)
      | Pending _ -> (
          match !solved with
          | r :: rest ->
              solved := rest;
              r
          | [] -> assert false))
    steps

(* ------------------------------------------------------------------ *)
(* Cube-and-conquer hooks

   A hard single query is split into 2^d sub-queries ("cubes") by
   assigning d splitting variables to every combination of truth
   values; each cube is an independent problem a worker domain can own
   outright. Splitting variables are the projection variables that sit
   on the most XOR rows — the densest columns of the reduced linear
   system, which is what the in-solver Gauss engine branches on first
   anyway — ranked on the deterministic encoding with ties broken by
   variable index, so the cube set is a pure function of the problem:
   it never depends on how many domains end up solving it.

   Soundness of the merge is structural: the cubes assign d projection
   variables to all 2^d combinations, every model extends exactly one
   combination, and [e_extract] is injective on projected models, so
   the per-cube signal sets partition the preimage — unions are the
   full answer and counts add. A solve under a cube deliberately
   bypasses the [certify_unsat] knob: a cube's `Unsat says nothing
   about the whole problem, so there is no refutation to certify. *)

type cube = Lit.t list

let split_vars e ~bits =
  let occ = Hashtbl.create 64 in
  List.iter
    (fun (x : Cnf.xor_constraint) ->
      List.iter
        (fun v ->
          Hashtbl.replace occ v
            (1 + Option.value ~default:0 (Hashtbl.find_opt occ v)))
        x.Cnf.vars)
    (Cnf.xors e.e_cnf);
  let count v = Option.value ~default:0 (Hashtbl.find_opt occ v) in
  let ranked =
    List.stable_sort
      (fun a b ->
        let c = compare (count b) (count a) in
        if c <> 0 then c else compare a b)
      e.e_proj
  in
  List.filteri (fun i _ -> i < bits) ranked

let cubes ~bits pb =
  if bits < 0 then invalid_arg "Sat_reconstruct.cubes: negative bits";
  match encode pb with
  | `Unsat -> None
  | `Enc e ->
      let vs = split_vars e ~bits in
      Some
        (List.init
           (1 lsl List.length vs)
           (fun c ->
             List.mapi (fun j v -> Lit.make v ((c lsr j) land 1 = 1)) vs))
