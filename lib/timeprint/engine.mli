(** The reconstruction backend signature, and the three adapters.

    An engine is a named triple: a capability predicate (can it answer
    this {!Query.t} at all?), a cost estimate in bits (log₂ of expected
    elementary steps — comparable across engines), and a runner that
    produces an {!outcome} plus the per-stage work it spent. The three
    values {!sat}, {!linear} and {!mitm} wrap the existing oracles
    ({!Sat_reconstruct}, {!Linear_reconstruct},
    {!Combinatorial_reconstruct}) without changing their semantics; any
    future backend — portfolio, parallel domains, remote solving — is
    one more value of {!t}. *)

type outcome =
  | Verdict of [ `Signal of Signal.t | `Unsat | `Unknown ]
  | Enumeration of { signals : Signal.t list; complete : bool }
  | Count of int * [ `Exact | `Lower_bound ]
  | Check of [ `Holds_in_all | `Violated_in_all | `Mixed | `Vacuous | `Unknown ]
  | Certified of
      [ `Signal of Signal.t | `Unsat_certified of string | `Unknown ]
  | Repair of Sat_reconstruct.repair_verdict

type stage = {
  stage : string;  (** e.g. ["sat.enumerate"], ["mitm.pair-table"] *)
  detail : string;
  stats : Tp_sat.Solver.stats option;  (** solver work, for SAT stages *)
}

type ctx = {
  rank : int;  (** rank of [A] over F₂ *)
  nullity : int;  (** [m − rank]: coset dimension *)
  preimage_bits : float;
      (** [log₂ C(m,k) − b], the expected-preimage-size estimate that
          already drives [auto_gauss] *)
  table : Combinatorial_reconstruct.table Lazy.t option;
      (** session-scoped MITM half-sum tables; when present, the MITM
          adapter forces and reuses them instead of rebuilding O(m²)
          state per query *)
}
(** Instance facts the planner computes once and hands to every
    engine's [capable]/[cost_bits]/[run] — engines never re-derive
    them. *)

type t = {
  name : string;
  capable : ctx -> Query.t -> (unit, string) result;
      (** [Error reason] when the engine cannot answer the query;
          the planner records the reason and moves on *)
  cost_bits : ctx -> Query.t -> float;
      (** log₂ of expected elementary steps; only consulted among
          capable engines *)
  run : ctx -> Query.t -> outcome * stage list;
}

val context : ?rank:int -> ?table:Combinatorial_reconstruct.table Lazy.t -> Query.t -> ctx
(** Rank/nullity via one Gauss reduction of [A]; cheap relative to any
    solve. [?rank] supplies a precomputed rank (a design pack stores
    it) and skips the reduction — the caller is trusted that it is the
    rank of this encoding's matrix. [?table] supplies shared MITM
    tables (from a pack or a session) for the same encoding. *)

val sat_cost_baseline : float
(** {!Sat_reconstruct.cost_baseline}: the flat [cost_bits] the SAT
    adapter reports. *)

val mitm_cost_bits : m:int -> k:int -> float
(** {!Combinatorial_reconstruct.cost_bits}: the MITM adapter's cost
    model, over the [m] columns it sweeps. *)

val refuted_outcome : Query.t -> outcome
(** The answer to a query whose entry the presolve rank check refuted:
    the empty preimage in the query's vocabulary ([`Unsat],
    no signals, [0, `Exact], [`Vacuous], or [`Unrepairable] for a
    zero-budget repair). Not defined for [Certified], which skips the
    rank check. *)

val capped_outcome :
  Query.answer ->
  (int option -> Signal.t list * bool * 'a) ->
  outcome * 'a
(** The one-past-the-cap convention every engine shares for
    [Enumerate]/[Count]: [capped_outcome answer enumerate] calls
    [enumerate] with the answer's cap raised by one, then cuts the
    [(signals, exhaustive, extra)] it returns back to the cap. A
    preimage that exactly fills the cap therefore still reads
    complete/[`Exact]. Raises [Invalid_argument] on other answers. *)

val parallelizable : Query.t -> (unit, string) result
(** The Parallel capability: [Ok ()] for the answers that split
    soundly into disjoint cubes ([First], [Enumerate], [Count]);
    [Error reason] for the answers the planner must pin to a single
    domain ([Certified] — DRAT emission is per-solver and must stay
    linear; [Repair] — the minimal-weight ladder is sequential;
    [Check] — two dependent solves on one incremental solver). *)

val sat : t
(** The CDCL + XOR + cardinality oracle. Capable of every answer but
    [Repair] (which {!ladder} answers), including [Certified]; runs
    with [presolve = true] and the [auto_gauss] policy. *)

val linear : t
(** Coset enumeration over [x₀ + ker A]. Capable when the nullity is at
    most {!Linear_reconstruct.max_nullity} and the query is neither
    [Certified] nor [Repair]; cost grows as [2^nullity]. *)

val mitm : t
(** Meet-in-the-middle half-sum join over the columns the assumed
    [Window]/[Allowed] leave ({!Combinatorial_reconstruct.span}, [w]
    of them). Capable when [k ≤ 10], the meet over [w] columns is
    {!Combinatorial_reconstruct.feasible_in} (the triple table and the
    probe count within their caps; [k = 9, 10] only below the SAT
    baseline) and the query is neither [Certified] nor [Repair]; one
    directory lookup for [k ≤ 2], pair-half and triple-half meets of
    [Combinatorial_reconstruct.cost_bits ~m:w] probes beyond. Every
    answer runs on the one filtered generator
    ({!Combinatorial_reconstruct.search}) and stops once decided:
    [First] at the first witness, [Enumerate]/[Count] one past the
    cap (returning the first members in probe order), [Check] at the
    first pair of a satisfying and a violating witness. *)

val all : t list
(** [[mitm; linear; sat]] — cheapest-regime first. *)

(** {1 The repair ladder}

    No single engine answers a [Repair]: it climbs
    {!Sat_reconstruct.meet_step} (the rank check and the rungs the
    meet is priced to take, assumed properties filtering and confining
    them) and, for what is left, {!Sat_reconstruct.solver_step} on the
    one entry. *)

val ladder : ctx -> Query.t -> string * outcome * stage list
(** Answer a [Repair] query on the ladder, against the context's table
    (or a fresh one). Returns the step that answered — ["presolve"]
    (no rung ran), ["mitm"] (the meet answered, or swept every rung in
    vain) or ["sat"] — with the outcome and one stage. The repair's
    flipped bits are those of [TP ⊕ A·s] for the witness [s], its
    counter deviation [|s| − k]. Raises [Invalid_argument] on any other
    answer. *)

val ladder_cost_bits : Query.t -> float
(** A [Repair]'s price: {!Sat_reconstruct.cost_baseline} plus one per
    flip of budget, whichever step answers. Raises [Invalid_argument]
    on any other answer. *)
