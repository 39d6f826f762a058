(** CDCL SAT solver with native XOR-clause propagation.

    This is the in-repo stand-in for Cryptominisat [21]: it accepts the
    same input fragment the paper's reconstruction reduction emits —
    CNF clauses, XOR clauses (the rows of [A·x = TP]), and the
    CNF-encoded cardinality constraint — and decides satisfiability
    with conflict-driven clause learning.

    Implemented techniques: two-watched-literal propagation with
    blocker literals, lazy XOR watching with on-demand reason clauses,
    in-solver Gauss–Jordan elimination over the unguarded XOR rows
    ({!Gauss}, Cryptominisat's decisive trick on XOR-heavy instances —
    switchable via [?gauss], auto-enabled from a small row-count
    threshold), first-UIP conflict analysis with local clause
    minimization, VSIDS variable activity with an indexed heap, phase
    saving, Luby restarts, and glucose-style LBD-aware learnt-clause
    database reduction.

    The solver is incremental in two senses. In the AllSAT sense: after
    a [Sat] answer, further clauses (e.g. blocking clauses) may be added
    and the solver re-run; learnt clauses are kept. And in the
    MiniSat/Cryptominisat sense: {!solve} accepts {e assumption}
    literals that are decided before the search and never learned over,
    so one solver can answer many related queries while retaining all
    learnt clauses and VSIDS state. Combined with the guard literals of
    {!add_xor} and {!Cardinality.at_most}, assumptions give removable
    constraint groups: emit a group under a fresh guard [g], enable it
    by assuming [g], retire it for good with [add_clause [¬g]]. *)

type t

type result = Sat | Unsat | Unknown
(** [Unknown] is only returned when a conflict budget was exhausted or
    the solver was {!interrupt}ed. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  learnt : int;  (** learnt clauses currently in the database *)
  restarts : int;
  gauss_rows : int;  (** rows in the current Gauss matrix *)
  gauss_elims : int;
      (** XOR rows absorbed by the last Gauss build: linearly redundant
          rows plus rows that collapsed to root units *)
  gauss_props : int;  (** literals propagated by the Gauss engine *)
  gauss_conflicts : int;  (** conflicts detected by the Gauss engine *)
  subsumed : int;  (** clauses deleted by inprocessing subsumption *)
  strengthened : int;
      (** literals removed by self-subsuming resolution *)
  eliminated : int;  (** variables eliminated by bounded VE *)
  vivified : int;  (** learnt clauses shortened or deleted by vivification *)
  xors_recovered : int;
      (** XOR rows recovered from complete CNF pattern buckets *)
}

val create : ?gauss:bool -> unit -> t
(** [gauss] controls the in-solver Gauss–Jordan XOR engine:
    [Some true] forces it on, [Some false] off; omitted means auto —
    enabled once the instance holds at least a handful of unguarded
    XOR rows. The engine subsumes the lazy watch scheme for unguarded
    rows; guarded (removable) rows always stay on the watch scheme. *)

val of_cnf : ?gauss:bool -> Cnf.t -> t
(** Solver primed with every clause and XOR constraint of the problem. *)

val set_gauss : t -> bool option -> unit
(** Change the Gauss mode ([None] = auto) between queries; takes
    effect at the next {!solve}. *)

val add_cnf_from : t -> Cnf.t -> nclauses:int -> nxors:int -> unit
(** [add_cnf_from s p ~nclauses ~nxors] loads every clause and XOR
    constraint of [p] {e beyond} the first [nclauses] / [nxors] — the
    flush primitive for callers that grow one {!Cnf.t} incrementally
    alongside a live solver (see [Timeprint.Sat_reconstruct.Session]). *)

val new_var : t -> int
val new_vars : t -> int -> int
(** [new_vars s n] allocates [n] fresh variables, returning the first. *)

val ensure_vars : t -> int -> unit
val nvars : t -> int

val add_clause : t -> Lit.t list -> unit
(** May be called at any time; the solver first backtracks to the root
    level. An empty (or root-falsified) clause makes the instance
    permanently unsatisfiable. *)

val add_xor : ?guard:Lit.t -> t -> vars:int list -> parity:bool -> unit
(** With [?guard:g] the constraint reads [g -> (vars ⊕ = parity)]: it
    binds only in models where [g] is true, so a whole XOR row can be
    switched on per query (assume [g]) or retired permanently
    ([add_clause [¬g]]). Unguarded rows behave as before. *)

val enable_proof : t -> unit
(** Start recording a DRAT proof: every clause the solver learns (and
    deletes) is appended to an in-memory log; an [Unsat] answer ends it
    with the empty clause. The resulting certificate is independently
    checkable with {!Drat.check} — which matters when an UNSAT answer
    carries legal weight, as in the deadline-liability scenario of the
    paper's §5.2.1.

    Restriction: proofs are only sound for pure-CNF instances (native
    XOR propagation steps are not RUP over the clause database); raises
    [Invalid_argument] when the solver already holds XOR constraints,
    and {!add_xor} raises once proof logging is on. Compile XOR
    constraints with {!Cnf.expand_xors} for proof-carrying runs. *)

val proof : t -> string
(** The DRAT log recorded so far ([""] when not enabled). *)

val boost : t -> int list -> unit
(** Raise the branching activity of the given variables so the search
    decides them first. On reconstruction instances, branching on the
    signal variables before the cardinality-counter auxiliaries prunes
    markedly faster. *)

val freeze : t -> int list -> unit
(** Pin variables against inprocessing: a frozen variable is never
    eliminated by bounded variable elimination, so its model value and
    its meaning in later [add_clause]/[add_xor] calls and assumptions
    stay direct. Assumption variables are frozen automatically by
    {!solve}; callers that consult {!value}/{!model} on specific
    variables after adding further constraints should freeze those. *)

val diversify : t -> seed:int -> unit
(** Deterministically perturb saved phases and branching activities as
    a function of [seed], for portfolio racing. [seed = 0] is the
    identity, so the canonical portfolio member stays byte-identical to
    a sequential run. *)

val set_inprocess : t -> bool -> unit
(** Enable/disable inprocessing (clause-database simplification between
    restarts) for this solver. Defaults to the process-wide
    {!set_inprocess_default} value at creation time. *)

val set_inprocess_interval : t -> int -> unit
(** Conflicts between inprocessing passes (default 2000; the gap also
    widens with each round). Raises [Invalid_argument] on [n < 1]. *)

val set_inprocess_default : bool -> unit
(** Process-wide default consulted by {!create}; lets benchmarks and
    agreement tests compare inprocessing on/off without threading a
    flag through every construction site. *)

val simplify : t -> unit
(** Run one inprocessing pass immediately (subsumption,
    self-subsuming resolution, bounded variable elimination, XOR
    recovery, vivification — the proof-unsound passes are skipped when
    DRAT logging is on). No-op unless the solver is at the root with
    propagation complete. *)

val debug_decay_clause_activity : t -> int -> unit
(** Apply the per-conflict clause-activity decay [n] times — regression
    hook for the increment-overflow rescale. *)

val debug_cla_inc : t -> float
(** Current clause-activity increment. *)

type snapshot
(** A frozen image of a root-level solver. Immutable once built, so a
    single snapshot may be {!clone}d concurrently from many domains —
    the intended pattern for compiled design packs: encode the per-design
    CNF/XOR skeleton once, snapshot it, then stamp out one warm solver
    per request instead of re-encoding. *)

val snapshot : t -> snapshot
(** Capture the solver's complete root state: clauses, XOR rows, watch
    lists (in order), trail, phases, activities, branching heap and
    stats counters. The clone of a snapshot behaves identically to the
    source solver at capture time — same propagations, same decisions,
    same models.

    Preconditions (raises [Invalid_argument] otherwise): the solver is
    at decision level 0 with propagation complete, has no learnt
    clauses, no DRAT proof in progress, no live Gauss engine, and no
    BVE-eliminated variables — i.e. snapshot after loading constraints
    but before solving. *)

val clone : snapshot -> t
(** A fresh, fully independent solver restored from the snapshot. The
    clone shares no mutable state with the snapshot or with other
    clones (its stop flag is its own; use {!share_stop} to group).
    Thread-safe with respect to the snapshot: the only write is an
    atomic bump of the {!clones} lifecycle counter. *)

val clones : snapshot -> int
(** Number of solvers stamped out of this snapshot via {!clone} so
    far (an atomic counter, safe to read from any domain). Service
    layers use it to report how many sessions a cached design pack
    has served. *)

val solve : ?conflict_budget:int -> ?assumptions:Lit.t list -> t -> result
(** [conflict_budget] bounds the number of conflicts before giving up
    with [Unknown] (default: unbounded).

    [assumptions] are literals decided (in order) before the search and
    never learned over, exactly MiniSat's [solve(assumptions)]: a [Sat]
    model satisfies all of them; an [Unsat] answer means the instance
    is unsatisfiable {e under the assumptions}, and {!unsat_core} names
    the subset to blame. The solver state (learnt clauses, activities,
    phases) survives across calls, which is what makes closely related
    queries cheap. *)

val interrupt : t -> unit
(** Trip the cooperative stop flag. The flag is an [Atomic.t] polled at
    conflict and restart boundaries, so it is safe to call from another
    domain while {!solve} is running; the in-flight call (and every
    subsequent one) returns [Unknown] until {!clear_interrupt}. The
    flag deliberately stays tripped across calls so that one interrupt
    also stops a multi-[solve] loop such as an AllSAT enumeration —
    previously a runaway enumeration could only be stopped by
    pre-committing a conflict budget. *)

val interrupted : t -> bool
(** Whether the stop flag is currently tripped. *)

val clear_interrupt : t -> unit
(** Re-arm the solver after an {!interrupt}. *)

val share_stop : t -> bool Atomic.t -> unit
(** Replace this solver's stop flag with an external atomic, so a group
    of solvers (one per domain, e.g. sibling cubes of a split query)
    can be interrupted collectively by a single [Atomic.set _ true]. *)

val unsat_core : t -> Lit.t list
(** After {!solve} returned [Unsat]: a subset [A'] of the assumption
    literals such that the instance is already unsatisfiable under
    [A'] (the final-conflict clause, as in MiniSat's [analyzeFinal]).
    [[]] means the instance is unsatisfiable regardless of the
    assumptions. Raises [Failure] when the last call did not return
    [Unsat]. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer. Raises [Failure]
    when the last call did not return [Sat]. *)

val model : t -> bool array
(** Complete model (length {!nvars}) after a [Sat] answer. *)

val ok : t -> bool
(** [false] once the instance is known unsatisfiable at the root. *)

val stats : t -> stats

val zero_stats : stats
(** Every counter and gauge [0]. *)

val stats_diff : before:stats -> after:stats -> stats
(** The work done between two readings of one solver: counters
    subtract, while the gauges [learnt], [gauss_rows] and
    [gauss_elims] are [after]'s. *)

val stats_add : stats -> stats -> stats
(** The work of two solves together: counters sum, while the gauges
    [learnt], [gauss_rows] and [gauss_elims] are the second
    argument's. *)
