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
    reconstruction of such an entry is UNSAT; the repair ladder
    ({!meet_step}, {!solver_step}) instead finds the {e minimal-error}
    consistent explanation: a signal [x] with [A·x = TP ⊕ err] and a
    change count within [±d] of [k], trying rungs [(f, d)] — at most
    [f] flipped bits, at most [d] deviation — in increasing total
    weight [f + d], so the first rung that answers is a provably
    lightest repair. A single {!Query.Repair} and every stream entry
    climb the same ladder. *)

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
(** A compiled skeleton of {!solver_step}'s construction for the
    default configuration (no assumed properties, no flip rungs,
    [gauss] unset): the parity-select CNF — cycle variables, select
    variables, the XOR rows of [A] — plus a {!Tp_sat.Solver.snapshot}
    of a solver already loaded, propagated and activity-boosted with
    it. Immutable; one value can serve any number of concurrent
    {!solver_step} calls (each clones its own solver). Design packs
    ({!Pack}) persist the inputs and rebuild this at load. *)

val warm : Encoding.t -> warm
(** Compile the skeleton — the one-off cost that {!solver_step}
    otherwise pays on every call. *)

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

(** {1 The repair ladder}

    An entry climbs rungs [(f, d)] — at most [f] flipped timeprint
    bits, a change count at most [d] from [k] — in increasing [f + d],
    then [d]: [f] up to the flip budget (clamped to [b]), [d] from
    [k − m] (no lower deviation reaches a count of [m] or less) up to
    [min k_slack (max k (m − k))] (a wider window adds no count), so no
    bound overflows whatever [k] and [k_slack] a client sends. Every
    lighter rung has come back empty when a rung answers, so its
    answer has flip weight exactly [f] and deviation exactly [d]. A
    rank-refuted entry skips every [f = 0] rung. With a zero budget
    the ladder is the single rung [(0, 0)]: plain reconstruction.

    The ladder runs in two steps. {!meet_step} takes one entry through
    the rank check and the bottom rungs the meet is priced to take
    ({!meet_wins}); {!solver_step} runs the rest of every pending entry
    on one shared solver. {!batch} is the two in sequence; the planner
    runs the meet step on the calling domain and fans the pending
    entries out ({!Plan.run_stream_emit}); the SAT adapter answers a
    single {!Query.Repair} with both steps on its one entry. *)

val cost_baseline : float
(** The price of one SAT solve in the planner's cost bits (log₂ of
    elementary steps) — a flat baseline, since CDCL work has no clean
    analytic model. The exact engines price themselves against it. *)

val meet_wins :
  ?assume:Property.t list -> Encoding.t -> k:int -> flips:int -> bool
(** Whether answering the [C(b, flips)] flip sets of rung [(flips, 0)]
    with one meet-in-the-middle lookup each
    ({!Combinatorial_reconstruct.first}, filtered by [assume] and
    confined to its {!Combinatorial_reconstruct.span} of [w] columns;
    [w = m] without a [Window] or [Allowed]) beats one SAT solve: the
    meet over [w] columns is {!Combinatorial_reconstruct.feasible_in},
    [0 ≤ flips ≤ b], and either [flips = 0 ∧ k ≤ 4] or
    [log₂ C(b, flips) + Combinatorial_reconstruct.cost_bits ~m:w ~k]
    is below {!cost_baseline}. {!meet_step} asks it at every rung, so
    at [flips = 0] it is the stream's fast path. *)

type pending
(** An entry the meet step left to the solver, with the rungs still to
    climb. Immutable. *)

val pending_rung : pending -> int * int
(** The rung [(flips, deviation)] the solver starts from. *)

type step =
  | Answered of verdict * health * [ `Presolve | `Mitm ]
      (** decided without a solver: [`Presolve] when no rung ran (a
          rank-refuted entry without a flip budget, or
          [k − k_slack > m]), [`Mitm] when the meet swept a rung *)
  | Pending of pending

val meet_step :
  ?assume:Property.t list ->
  ?presolve:bool ->
  ?meet:bool ->
  ?k_slack:int ->
  repair:int ->
  shared:Presolve.shared Lazy.t ->
  table:Combinatorial_reconstruct.table Lazy.t ->
  Encoding.t ->
  Log_entry.t ->
  step
(** One entry's bottom rungs at flip budget [repair] and counter slack
    [k_slack] (default [0]). When [presolve] (default [true]) the rank
    check ({!Presolve.refutes_with} on [shared]) runs first, and a
    refuted entry skips its [f = 0] rungs. Then each exact-[k] rung
    [(f, 0)] that {!meet_wins} prices (with the same [assume]) runs on
    the meet against [table]: the flip sets [F] of weight [f] in
    lexicographic order, one {!Combinatorial_reconstruct.first} lookup
    each on [(TP ⊕ e_F, k)], filtered by [assume] and confined to its
    span, the first hit being the witness ([Clean] at [f = 0],
    [Repaired f] above). The first rung the meet is not priced to take
    makes the entry [Pending] from that rung; a ladder that runs out is
    [(`Unsat, Quarantined)]. Without properties, at [m = 32, b = 11]
    the meet takes rung 0 for every [k ≤ 9], rung 1 for [k ≤ 7] and
    rungs 2–3 for [k ≤ 6]; at [m = 128, b = 16], rung 0 for [k ≤ 6],
    rungs 1–2 for [k ≤ 5] and rung 3 for [k ≤ 3]; a [Window] or
    [Allowed] narrows the columns and so can admit more. [meet]
    (default [true]) set to [false] leaves every rung to the solver
    step, the reference the meet rungs must agree with. [shared] and
    [table] are forced only when a rung needs them; a caller that
    shares one table across domains runs this step on one domain,
    since the table memoizes its triple half. Raises
    [Invalid_argument] on a timeprint width mismatch or a negative
    budget. *)

val solver_step :
  ?assume:Property.t list ->
  ?conflict_budget:int ->
  ?gauss:bool ->
  ?warm:warm ->
  Encoding.t ->
  pending list ->
  (verdict * health * Tp_sat.Solver.stats) list
(** The remaining rungs of every pending entry, in order, on a single
    solver. The timestamp-matrix structure is emitted once in
    parity-select form — each XOR row closes on a fresh select
    variable [p_j] instead of the constant [TP] bit (and on an error
    variable [err_j] when some rung allows flips), and each entry pins
    [p_j] to its timeprint bit via assumptions — so conflict clauses
    learned about [A] (and about the [assume] properties, which must
    hold in every trace-cycle) transfer across entries. The
    cardinalities are {!Tp_sat.Cardinality.counter}s, one over the
    cycle literals and one over the error literals, each reaching one
    past the largest bound a rung asks of it; rung [(f, d)] assumes
    [{≥ k − d, ¬(≥ hi + 1)}] on the first ([hi = min m (k + d)]) and
    [¬(≥ f + 1)] on the second. The counters are built when the first
    entry reaches the solver, so an empty list builds none. The
    construction, the counter sizes and the solve order depend on the
    pending entries alone. Returns, per entry, the verdict of its
    first satisfiable rung with health [Clean] (no flipped bit) or
    [Repaired w] ([w] flipped bits), or [(`Unsat, Quarantined)] when
    every rung came back UNSAT ([`Unknown] when a solve ran out of
    [conflict_budget], which bounds each solve), and the solver-work
    delta the entry cost.

    [gauss] is the in-solver Gauss engine ({!Tp_sat.Solver.create};
    [Some false] also emits the rows chunked). [warm] is a compiled
    skeleton ({!val:warm}): the step starts from a copy of its CNF and
    a clone of its solver snapshot instead of re-encoding and
    re-propagating the XOR rows. Used only when the call matches the
    compiled configuration (no [assume], no flip rungs, [gauss] unset)
    — otherwise it is silently ignored and the cold construction runs;
    either way the answers are identical to a cold call. Raises
    [Invalid_argument] when a used skeleton's dimensions disagree with
    [encoding]. *)

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
(** The whole ladder over a log: {!meet_step} on every entry at flip
    budget [repair] (default [0]) with no counter slack, then one
    {!solver_step} over the pending entries, with all-zero stats for
    the entries the meet step answered. Returns, per entry in order,
    the {!verdict}, the entry's {!health} and the solver work it cost.
    With [repair = 0] the health column is just [Clean]/[Quarantined];
    an entry with [k > m] is [(`Unsat, Quarantined)] without a solve
    at every budget. Both the meet and the solver are exact, so the
    health never depends on which one answered a rung; a witness can,
    where a rung has several members.

    [presolve] (default [true]) turns the rank check on; [shared] is
    its encoding-only half ({!Presolve.shared}), computed on first use
    when omitted. The meet's half-sum table
    ({!Combinatorial_reconstruct.pair_table}) is built on the first
    rung the meet takes and belongs to this call. [conflict_budget],
    [gauss] and [warm] go to {!solver_step}, which always runs, so an
    empty log still pays the skeleton and a mis-shaped [warm] raises
    [Invalid_argument]. Raises [Invalid_argument] on a timeprint width
    mismatch or a negative repair budget. *)

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
