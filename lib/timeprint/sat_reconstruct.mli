(** Signal Reconstruction (SR): the SAT-based preimage computation of §4.2.

    Given an encoding [TS], a log entry [(TP, k)] and a set of verified
    properties, find the signals [S] with [α̃(S) = (TP, k)] that satisfy
    the properties. The reduction introduces one variable per clock
    cycle, one XOR clause per timeprint bit (the rows of [A·x = TP]),
    the Sinz-encoded [exactly-k] cardinality constraint, and the
    property clauses — precisely the Cryptominisat input fragment used
    by the paper. *)

type problem = {
  encoding : Encoding.t;
  entry : Log_entry.t;
  assume : Property.t list;
      (** properties known to hold (RV verdicts, diagnostics, failure
          analysis) — they prune the search space *)
  presolve : bool;
      (** Gauss–Jordan-reduce [A·x = TP] over F₂ before encoding
          ({!Presolve}): rank-refute without a solver call, substitute
          implied units/aliases out of the CNF and cardinality encoding,
          and hand the solver only the reduced kernel. Witnesses are
          mapped back through the elimination, so every query observes
          exactly the legacy answers. Default [true]. *)
  gauss : bool option;
      (** in-solver Gauss–Jordan engine ({!Tp_sat.Solver.create}):
          [Some true] on, [Some false] off (and XOR rows are emitted in
          the legacy chunked form), [None] auto — on exactly when
          [assume] is empty and the preimage-size estimate
          [log₂ C(m,k) − b] says the entry has many reconstructions,
          the regime where the engine is worth orders of magnitude
          (assumed properties can pin a populous preimage down to a
          needle, where the engine loses). Default [None]. *)
}

val problem :
  ?assume:Property.t list ->
  ?presolve:bool ->
  ?gauss:bool ->
  Encoding.t ->
  Log_entry.t ->
  problem
(** Raises [Invalid_argument] when the timeprint width differs from the
    encoding's [b]. *)

val auto_gauss : problem -> bool
(** What [gauss = None] resolves to for this problem: [true] exactly
    when the preimage-size estimate [log₂ C(m,k) − b] clears the
    engine's pay-off threshold. Exposed so benchmarks and diagnostics
    can report which regime an instance falls in. *)

val to_cnf : problem -> Tp_sat.Cnf.t * int array
(** The reduction in its legacy monolithic form — all [m] cycle
    variables, chunked XOR rows, no presolve — regardless of the
    problem's [presolve]/[gauss] settings; the array maps cycle [i] to
    its CNF variable. This is the stable shape for DIMACS export and
    encoding ablations. *)

type verdict = [ `Signal of Signal.t | `Unsat | `Unknown ]

type cube = Tp_sat.Lit.t list
(** The literals defining one cube of a cube-and-conquer split
    ({!cubes}). *)

val first : ?conflict_budget:int -> problem -> verdict
(** One reconstruction (the paper's [.1] columns), or [`Unsat] when no
    signal abstracts to the entry under the assumptions. *)

val solve_first :
  ?conflict_budget:int ->
  ?stop:bool Atomic.t ->
  ?cube:cube ->
  problem ->
  verdict * Tp_sat.Solver.stats option
(** {!first} plus the solver work it cost; [None] when the presolve
    refuted the entry without a solver call. The [Engine] adapters
    thread these stats into plan reports.

    [cube] restricts the search to one cube of {!cubes}, and [stop]
    installs a shared stop flag ({!Tp_sat.Solver.share_stop}) so a
    sibling's witness can cancel this solve; a cancelled (or
    budget-exhausted) solve answers [`Unknown]. A cube's [`Unsat] says
    nothing about the whole problem, so the {!set_certify_unsat}
    recheck runs only without a cube. *)

type certified =
  [ `Signal of Signal.t
  | `Unsat_certified of string  (** a DRAT refutation, already verified *)
  | `Unknown ]

val first_certified : ?conflict_budget:int -> problem -> certified
(** Like {!first}, but an [`Unsat] answer comes with an independently
    checked DRAT certificate — the artifact to archive when the answer
    assigns liability (§5.2.1's "UNSAT in 1.597 s" becomes a verifiable
    statement rather than the solver's word). The reduction's XOR rows
    are compiled to plain CNF for this query, since DRAT covers only
    clausal reasoning. Raises [Failure] in the (never-observed) event
    that the produced certificate fails its check. *)

type enumeration = {
  signals : Signal.t list;  (** discovery order *)
  complete : bool;  (** [true] iff provably all solutions were found *)
}

val enumerate :
  ?max_solutions:int -> ?conflict_budget:int -> problem -> enumeration
(** All reconstructions, or the first [max_solutions] (the paper's
    [.10] columns use [max_solutions = 10]). *)

val solve_enumerate :
  ?max_solutions:int ->
  ?conflict_budget:int ->
  ?stop:bool Atomic.t ->
  ?cube:cube ->
  problem ->
  enumeration * Tp_sat.Solver.stats option
(** {!enumerate} plus the solver work it cost; [stop] and [cube] as in
    {!solve_first}. *)

type check_result =
  [ `Holds_in_all  (** every reconstruction satisfies the property *)
  | `Violated_in_all  (** no reconstruction satisfies it *)
  | `Mixed  (** some do, some do not — the log cannot decide *)
  | `Vacuous  (** no reconstruction exists at all *)
  | `Unknown ]

val solve_check :
  ?stop:bool Atomic.t ->
  ?seed:int ->
  ?conflict_budget:int ->
  problem ->
  Property.t ->
  check_result * Tp_sat.Solver.stats option
(** Decide a suspected property against the log entry with two SAT
    queries (§3.3: "often we only want to know whether there is a trace
    that satisfies or breaks a certain temporal property"), plus the
    summed work of the two solves.

    [stop]/[seed] are the portfolio-racing hooks
    ({!Par_reconstruct.race_check}): [stop] is shared as the solvers'
    cancellation flag, [seed] diversifies phases and branching
    activities ({!Tp_sat.Solver.diversify}; [0], the default, is the
    identity). A tripped stop surfaces as [`Unknown]. The verdict of a
    completed check depends only on the problem — every diversified
    config that finishes returns the same answer. *)

val pp_check_result : Format.formatter -> check_result -> unit

(** {1 Repair: reconstructing from corrupted entries}

    Logs arrive damaged — flipped timeprint bits on the trace channel,
    off-by-δ change counters ({!Fault} models both). A plain
    reconstruction of such an entry is UNSAT; {!solve_repair} instead finds
    the {e minimal-error} consistent explanation: the XOR rows are
    relaxed to [A·x = TP ⊕ err] with one error literal per timeprint
    bit, the cardinality constraint to a [±d] window around [k], and
    budget splits [(f, d)] are tried in increasing total weight
    [f + d], so the first satisfiable split is a provably lightest
    repair. Each split is a set of assumptions on two shared counters
    ({!Tp_sat.Cardinality.counter}): [¬(≥ f+1)] on the error literals
    and [{≥ k−d, ¬(≥ k+d+1)}] on the cycle literals. *)

type repair = {
  r_signal : Signal.t;  (** the reconstruction under the repair *)
  r_flips : int list;
      (** timeprint bit positions the repair inverted, increasing *)
  r_k_delta : int;  (** the witness's change count minus the logged [k] *)
}

type repair_verdict =
  [ `Clean of Signal.t
    (** the entry needs no repair; this is an ordinary witness *)
  | `Repaired of repair  (** minimal-error explanation within budget *)
  | `Unrepairable  (** no explanation within the budget exists *)
  | `Unknown ]

val solve_repair :
  ?conflict_budget:int -> ?k_slack:int -> max_flips:int -> problem ->
  repair_verdict * Tp_sat.Solver.stats option
(** Minimal-error reconstruction: up to [max_flips] timeprint bit
    errors (clamped to [b]) and a counter off by at most [k_slack]
    (default [0]). With [max_flips = 0] and [k_slack = 0] this is
    {!first} in different clothing: [`Clean] iff a witness exists. The
    rank refutation disposes of every zero-flip split for free, so
    clean entries pay nothing for the repair machinery. A split with
    [k − d > m] is UNSAT without a solve, so an entry whose
    [k − k_slack] exceeds [m] is [`Unrepairable]. Raises
    [Invalid_argument] on negative budgets.

    Also returns the solver work across all budget splits; [None] when
    no solver ran: the rank refutation answered ([max_flips = 0] on an
    inconsistent system), or [k − k_slack] exceeds [m]. *)

type health =
  | Clean  (** reconstructed as logged *)
  | Repaired of int  (** reconstructed after inverting this many TP bits *)
  | Quarantined
      (** no consistent explanation within the repair budget (or the
          budget was exhausted) — excluded rather than trusted *)

val pp_health : Format.formatter -> health -> unit
val pp_repair_verdict : Format.formatter -> repair_verdict -> unit

val set_certify_unsat : bool -> unit
(** Test-only knob (global): when on, every [`Unsat] answer of
    {!first}/{!solve_first} — rank refutations included — is re-derived
    through the proof-carrying pipeline ({!first_certified}) and the
    DRAT certificate checked with {!Tp_sat.Drat.check}; a refutation
    that cannot be certified raises [Failure]. Off by default; property
    suites flip it on to make "UNSAT" mean "UNSAT with a checked
    certificate". *)

(** {1 Incremental sessions}

    The cold entry points above build a fresh solver per query, so
    nothing learned answering one question about a log entry helps the
    next. A {!Session.t} owns a single incremental solver primed with
    the entry's base constraints (XOR rows, cardinality, verified
    properties); {!Session.first}, {!Session.enumerate} and
    {!Session.check} are then assumption flips on that solver — learnt
    clauses, variable activities and saved phases accumulate across
    queries. Enumeration blocking clauses are emitted under a
    per-enumeration guard and retired afterwards; suspected-property
    encodings are cached under guards keyed by (property, polarity), so
    [check]'s Holds/Violated pair — and any repeat of it — shares all
    learned structure. *)

module Session : sig
  type t

  val create : problem -> t
  (** Solver primed with the problem's base constraints. *)

  val problem : t -> problem

  val first : ?conflict_budget:int -> t -> verdict
  (** As {!val:first}, on the live solver. *)

  val enumerate :
    ?max_solutions:int -> ?conflict_budget:int -> t -> enumeration
  (** As {!val:enumerate}; the blocking clauses are guarded and retired
      when the call returns, so subsequent queries (including a repeat
      enumeration) see the complete preimage again. *)

  val count :
    ?max_solutions:int ->
    ?conflict_budget:int ->
    t ->
    int * [ `Exact | `Lower_bound ]

  val check : ?conflict_budget:int -> t -> Property.t -> check_result
  (** As {!solve_check}: two assumption-solves on the shared solver. The
      property encodings are added once (guarded) and reused on repeat
      checks of the same property. *)

  val last_stats : t -> Tp_sat.Solver.stats
  (** Solver work spent by the most recent query on this session —
      [conflicts], [decisions], [propagations] and [restarts] are
      deltas over that query ([check] sums its two solves); [learnt] is
      the current database size. *)
end

type warm
(** A compiled skeleton of {!batch}'s per-call construction for the
    default configuration (no assumed properties, no repair budget,
    [gauss] unset): the parity-select CNF — cycle variables, select
    variables, the XOR rows of [A] — plus a {!Tp_sat.Solver.snapshot}
    of a solver already loaded, propagated and activity-boosted with
    it. Immutable; one value can serve any number of concurrent
    {!batch} calls (each clones its own solver). Design packs
    ({!Pack}) persist the inputs and rebuild this at load. *)

val warm : Encoding.t -> warm
(** Compile the skeleton — the one-off cost that {!batch} otherwise
    pays on every call. *)

val warm_skeleton : warm -> Tp_sat.Cnf.t
(** The skeleton's CNF (cycle variables [0..m-1], select variables
    [m..m+b-1], the XOR rows; no clauses, no guards) — what design
    packs serialize. Treat as read-only. *)

val warm_clones : warm -> int
(** How many solvers have been cloned off this skeleton's snapshot so
    far ({!Tp_sat.Solver.clones}) — the per-design session count a
    service registry reports. *)

val warm_of_skeleton : m:int -> b:int -> Tp_sat.Cnf.t -> warm
(** Rebuild a skeleton from a deserialized CNF. Loading the same CNF
    is deterministic, so the result is indistinguishable from
    {!val:warm} on the encoding that produced it. Raises
    [Invalid_argument] when the CNF's variable count is not [m + b].
    The caller is trusted on the CNF's content (design packs verify it
    with a checksum). *)

val cost_baseline : float
(** The price of one SAT solve in the planner's cost bits (log₂ of
    elementary steps) — a flat baseline, since CDCL work has no clean
    analytic model. The exact engines price themselves against it. *)

val meet_wins : Encoding.t -> k:int -> flips:int -> bool
(** Whether answering the [C(b, flips)] flip sets of repair rung
    [flips] with one meet-in-the-middle lookup each
    ({!Combinatorial_reconstruct.first}) beats one SAT solve: [k] is
    {!Combinatorial_reconstruct.feasible}, [0 ≤ flips ≤ b], and either
    [flips = 0 ∧ k ≤ 4] or
    [log₂ C(b, flips) + Combinatorial_reconstruct.cost_bits ~m ~k]
    is below {!cost_baseline}. At [flips = 0] this is the planner's
    stream fast path ({!Plan.run_stream_emit}); above, it gates the
    meet rungs of {!batch}'s repair ladder. *)

val batch :
  ?assume:Property.t list ->
  ?presolve:bool ->
  ?conflict_budget:int ->
  ?gauss:bool ->
  ?repair:int ->
  ?shared:Presolve.shared ->
  ?warm:warm ->
  Encoding.t ->
  Log_entry.t list ->
  (verdict * health * Tp_sat.Solver.stats) list
(** Reconstruct a stream of trace-cycle log entries against one
    encoding with a single solver. The timestamp-matrix structure is
    emitted once in parity-select form — each XOR row closes on a fresh
    select variable [p_j] instead of the constant [TP] bit, and each
    entry pins [p_j] to its timeprint bit via assumptions — so conflict
    clauses learned about [A] (and about the [assume] properties, which
    must hold in every trace-cycle) transfer across entries. The
    cardinality is one {!Tp_sat.Cardinality.counter} over the cycle
    literals, reaching one past the largest [k] of the batch: an entry
    asks for [exactly k] by assuming the counter outputs
    [{≥ k, ¬(≥ k+1)}]. The counters are built when the first entry
    reaches the solver, so an empty batch, or one the rank check
    answers entirely at [repair = 0], builds none. An entry with
    [k > m] is [(`Unsat, Quarantined)] without a solve, at every
    repair budget. When [presolve]
    (default [true]), each entry first takes the F₂ rank check
    ({!Presolve.refutes}): an inconsistent [A | TP] is answered
    [`Unsat] with an all-zero stats record and no solver call. Returns,
    per entry in order, the {!verdict}, the entry's {!health}, and the
    solver-work delta that entry cost. [conflict_budget] bounds each
    individual solve.

    [repair] (default [0], clamped to [b]) is the per-entry flip
    budget: the shared XOR rows additionally close on [b] error
    variables, and each entry climbs the ladder [f = 0, 1, .., repair]
    — rung [f] assumes [¬(≥ f+1)] on a second counter over the error
    literals, so rung 0 is exactly the clean solve — and the first SAT
    rung is the entry's minimal flip weight
    ([Repaired f]). An entry whose ladder runs out (or whose budget is
    exhausted) is [Quarantined] and the batch moves on; with
    [repair = 0] the health column is just [Clean]/[Quarantined].
    Raises [Invalid_argument] on a timeprint width mismatch or a
    negative repair budget.

    With [repair > 0] and no [assume], the ladder's lowest rungs skip
    the solver: rung [f] runs on the meet while {!meet_wins} says its
    [C(b, f)] lookups beat a solve — the flip sets [F] of weight [f] in
    lexicographic order, one {!Combinatorial_reconstruct.first} lookup
    each on [(TP ⊕ e_F, k)], the first hit being the entry's witness
    ([Clean] at [f = 0], [Repaired f] above) with all-zero stats. The
    first rung the meet declines, and every rung above it, runs on the
    solver. Both oracles are exact, so the health is the same either
    way; where a rung has several members, the meet's witness may
    differ from the solver's. At [m = 32, b = 11] the meet takes rung 0
    for every [k ≤ 8], rung 1 for [k ≤ 7] and rungs 2–3 for [k ≤ 6]; at
    [m = 128, b = 16], rung 0 for [k ≤ 6], rungs 1–2 for [k ≤ 5] and
    rung 3 for [k ≤ 3]. At [repair = 0], or
    with properties assumed, every rung runs on the solver. The meet's
    half-sum table ({!Combinatorial_reconstruct.pair_table}) is built
    on the first rung it takes and belongs to this call alone.

    [shared] is the encoding-only half of the rank check
    ({!Presolve.shared}); parallel callers that split a log into
    chunks compute it once and hand the same read-only copy to every
    chunk, instead of each chunk re-reducing [A]. Omitted, it is
    computed lazily on first use.

    [warm] is a compiled skeleton ({!val:warm}): the batch starts from
    a copy of its CNF and a clone of its solver snapshot instead of
    re-encoding and re-propagating the XOR rows. Used only when the
    call matches the compiled configuration ([assume = []],
    [repair = 0], [gauss] unset) — otherwise it is silently ignored
    and the cold construction runs; either way the answers are
    identical to a cold call. Raises [Invalid_argument] when the
    skeleton's dimensions disagree with [encoding]. *)

(** {1 Cube-and-conquer hooks}

    A hard single query is split into [2^d] disjoint sub-queries by
    assigning [d] splitting variables every combination of truth
    values; each cube is solved by a private solver (typically on its
    own domain) and the answers merge structurally: the cubes
    partition the preimage, so unions are the whole answer, counts
    add, and any cube left incomplete leaves the aggregate a lower
    bound. {!Par_reconstruct} owns the merge; this hook only exposes
    the deterministic split, and {!solve_first}/{!solve_enumerate}
    take a [?cube] for the per-cube solves. *)

val cubes : bits:int -> problem -> cube list option
(** The [2^min(bits, surviving vars)] cubes over the top-ranked
    splitting variables — the projection variables on the most XOR
    rows of the (deterministic) encoding, ties broken by variable
    index — or [None] when the presolve rank check refutes the
    problem outright. A pure function of the problem: the cube set
    never depends on how many domains solve it. Raises
    [Invalid_argument] on negative [bits]. *)
