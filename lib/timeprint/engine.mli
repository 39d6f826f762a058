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
    adapter reports for non-repair queries. *)

val mitm_cost_bits : m:int -> k:int -> float
(** {!Combinatorial_reconstruct.cost_bits}: the MITM adapter's cost
    model. *)

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
(** The CDCL + XOR + cardinality oracle. Capable of everything,
    including [Certified] and [Repair]; runs with [presolve = true] and
    the [auto_gauss] policy. *)

val linear : t
(** Coset enumeration over [x₀ + ker A]. Capable when the nullity is at
    most {!Linear_reconstruct.max_nullity} and the query is neither
    [Certified] nor [Repair] (the exact oracles solve [A·x = TP] as
    given — they cannot relax it); cost grows as [2^nullity]. *)

val mitm : t
(** Meet-in-the-middle half-sum join. Capable when [k ≤ 8] (for
    [k ∈ [5, 8]] the triple table and the meet's [C(m, k − 3)] probes
    within their cap, see {!Combinatorial_reconstruct.feasible}) and
    the query is neither [Certified] nor [Repair]; one directory
    lookup for [k ≤ 2], pair-half and triple-half meets of
    {!Combinatorial_reconstruct.cost_bits} probes beyond. *)

val all : t list
(** [[mitm; linear; sat]] — cheapest-regime first. *)
