(** The query planner: one entry point for every reconstruction.

    Dispatch policy, generalizing PR 2's per-instance [auto_gauss] from
    a knob inside the SAT backend to a choice {e between} backends:

    + {b rank-refute}: the F₂ presolve runs first; an inconsistent
      [A | TP] answers the query with zero solver work (skipped for
      [Certified] queries, which must produce a DRAT refutation);
    + {b MITM} when [k ≤ 6] (triples memory-gated), no properties are
      assumed, and its {!Engine.t.cost_bits} beats SAT — the sorted
      half-sum meet turns the search into binary-searched joins;
    + {b coset enumeration} when the nullity is at most
      {!linear_nullity_threshold} — the whole solution space is smaller
      than a SAT solver's warm-up (when both MITM and linear apply, the
      cheaper {!Engine.t.cost_bits} wins);
    + {b SAT} otherwise, with presolve on and the [auto_gauss] policy.

    Every answer carries a {!report} — which engine ran, why the others
    did not, the instance estimates, and per-stage solver stats — so a
    surprising answer is always explainable. *)

type engine_choice = [ `Auto | `Sat | `Linear | `Mitm ]

val linear_nullity_threshold : int
(** Auto-policy cutoff (14) for the coset engine: [2^14] coset points
    enumerate in well under a millisecond, while the hard capability
    cap {!Linear_reconstruct.max_nullity} is only about termination. *)

val parallel_threshold_bits : float
(** Auto-policy cutoff (6) for cube-and-conquer: below an estimated
    [2^6] preimage the query is pinned to a single domain — eight cold
    cube solvers cannot beat one warm solver on an easy instance. The
    engage decision depends only on the instance, never on the [jobs]
    value, so answers are identical for every pool size. *)

type parallelism =
  | Off  (** no [jobs] requested *)
  | Cubed of { jobs : int; cubes : int }
      (** the query ran cube-and-conquer on the domain pool *)
  | Portfolio of { jobs : int; winner : int }
      (** an unbudgeted [Check] raced 2–4 diversified solver configs on
          the pool ({!Par_reconstruct.race_check}); [winner] is the
          config whose definite verdict finished first. The verdict of
          a completed check is a pure function of the problem, so the
          answer is identical for every pool size — racing changes only
          the wall-clock. *)
  | Pinned of string
      (** [jobs] was requested but the query stayed on one domain — the
          string says why (engine incapability per
          {!Engine.parallelizable}, cost below
          {!parallel_threshold_bits}, a non-SAT engine won, or presolve
          answered outright) *)

type report = {
  chosen : string;
      (** engine that produced the outcome; ["presolve"] when the rank
          check refuted the entry before any engine ran *)
  presolve :
    [ `Refuted
    | `Refuted_but_repairable
      (** the clean system is rank-inconsistent, yet a repair within
          the query's error budget exists — the diagnosis that tells a
          corrupted-but-recoverable entry from a truly impossible one *)
    | `Reduced of Presolve.stats
    | `Skipped ];
  nullity : int;
  preimage_bits : float;  (** [log₂ C(m,k) − b] *)
  considered : (string * [ `Cost of float | `Rejected of string ]) list;
      (** every engine, with its cost estimate or the reason it was
          ruled out (capability or policy) *)
  fallbacks : (string * string) list;
      (** forced engines that could not run: [(name, reason)]; the
          query silently fell through to SAT *)
  parallel : parallelism;
  pack : [ `Hit | `Miss | `Stale ];
      (** [`Hit]: a matching design pack supplied the instance facts;
          [`Miss]: no pack was offered; [`Stale]: a pack was offered
          but was compiled for a different encoding and ignored.
          Answers are identical in all three cases. *)
  stages : Engine.stage list;
}

type session
(** The per-design context every request-shaped caller reuses: the
    encoding, a validated design pack (when one was offered and
    matched), the F₂ rank, the shared left-nullspace reduction, the
    MITM pair table and the warm solver skeleton. Building one costs
    at most one pack validation up front — the rank and the reduction
    are computed lazily, once, on first use — so a service holding a
    session per design answers repeat queries with no per-request
    setup. Sessions are immutable after the lazy fields force;
    concurrent use from several domains is safe (the solver skeleton
    is cloned per chunk, never shared mutable). *)

val session : ?pack:Pack.t -> Encoding.t -> session
(** [session ?pack enc] builds the context for design [enc]. A [pack]
    that {!Pack.matches} the encoding supplies the rank, reduction,
    table and warm skeleton precompiled ({!session_status} says
    [`Hit]); a mismatched pack is dropped and recorded [`Stale]; no
    pack means [`Miss] and the session recomputes what it needs
    lazily. Answers never depend on which of the three happened. *)

val session_encoding : session -> Encoding.t
val session_status : session -> [ `Hit | `Miss | `Stale ]
val session_pack : session -> Pack.t option
(** The validated pack ([None] unless {!session_status} is [`Hit]). *)

val session_rank : session -> int
(** The encoding's F₂ rank (forces the lazy Gauss reduction on first
    call for a pack-less session; free afterwards). *)

val session_shared : session -> Presolve.shared
(** The shared rank-check reduction (lazily computed once). *)

val session_warm : session -> Sat_reconstruct.warm option

val session_table : session -> Combinatorial_reconstruct.table
(** The session's MITM half-sum tables — from the pack on a hit, else
    built (and memoized) on first call, so a pack-less session pays the
    O(m²) construction at most once across all its entries. *)

val run_in :
  ?engine:engine_choice ->
  ?jobs:int ->
  session ->
  Query.t ->
  Engine.outcome * report
(** {!run} against an existing session: identical dispatch, outcomes
    and reports, but the rank (and on a pack hit the warm machinery)
    comes from the session instead of being recomputed. Raises
    [Invalid_argument] when the query's encoding is not the session's
    design ({!Encoding.equal}, the test {!Pack.matches} makes). *)

val cost_estimate : session -> Query.t -> float
(** The cost-bits estimate of the engine the auto policy would choose
    for this query — the admission currency services charge quotas
    in. Pure planning: nothing runs, no solver is built. An upper
    bound, since a presolve rank refutation would answer for free but
    cannot be predicted without running it. Raises [Invalid_argument]
    on an encoding mismatch like {!run_in}. *)

val run :
  ?engine:engine_choice ->
  ?jobs:int ->
  ?pack:Pack.t ->
  Query.t ->
  Engine.outcome * report
(** Answer the query. [`Auto] (default) applies the dispatch policy
    above; forcing an engine bypasses the policy but not the
    capability guards — an incapable forced engine is recorded in
    [fallbacks] and the query runs on SAT instead (never an
    exception).

    [jobs] enables query-level parallelism: when the SAT engine runs a
    [First]/[Enumerate]/[Count] query whose preimage estimate clears
    {!parallel_threshold_bits}, it is split into cubes and solved on
    the domain pool ({!Par_reconstruct.run_query}; [jobs = 0] means
    [Domain.recommended_domain_count ()]). Certified and repair
    queries, and any query another engine wins, are pinned to a single
    domain — the report's [parallel] field records the decision either
    way. Answers never depend on [jobs].

    [pack] offers a compiled design pack ({!Pack}): when it
    {!Pack.matches} the query's encoding, its stored rank replaces the
    context's Gauss reduction (the report says [`Hit]); otherwise it
    is ignored ([`Stale]). Answers never depend on [pack]. *)

val run_stream :
  ?assume:Property.t list ->
  ?conflict_budget:int ->
  ?gauss:bool ->
  ?repair:int ->
  ?jobs:int ->
  ?pack:Pack.t ->
  Encoding.t ->
  Log_entry.t list ->
  (Sat_reconstruct.verdict
  * Sat_reconstruct.health
  * [ `Presolve | `Mitm | `Sat of Tp_sat.Solver.stats ])
  list
(** Planned witness reconstruction of a log stream, in order: each
    entry is rank-refuted for free when inconsistent, answered by MITM
    when it is feasible ([k ≤ 6], triples memory-gated), cheaper than
    SAT and no properties are assumed, and the rest share one
    incremental parity-select solver ({!Sat_reconstruct.batch} — the
    stream capability the planner exploits). The tag says which path
    answered each entry.

    [repair] (default [0]) is the per-entry flip budget: entries the
    fast paths cannot explain as logged — rank-refuted, or consistent
    but with no exact-[k] witness — are routed to the batch solver's
    repair ladder instead of being failed outright. The {!type:
    Sat_reconstruct.health} column tags each entry [Clean],
    [Repaired w] (reconstructed after inverting [w] timeprint bits) or
    [Quarantined] (no explanation within budget — one corrupted
    trace-cycle no longer poisons the log). Raises [Invalid_argument]
    on a negative budget.

    [jobs] enables entry-level parallelism: the entries the fast paths
    leave for SAT fan out over the domain pool in fixed-size chunks
    ({!Par_reconstruct.batch}), each chunk on its own parity-select
    solver sharing one read-only presolve reduction. Classification
    and chunking never depend on [jobs], so the triage is byte-for-byte
    identical for every pool size; [jobs = 0] means
    [Domain.recommended_domain_count ()].

    [pack] offers a compiled design pack: when it matches the
    encoding, the stream starts from the pack's rank-check masks, MITM
    pair table and warm solver skeleton instead of recomputing them; a
    stale pack is ignored. Either way the triage and every verdict,
    witness and health column are byte-identical to a pack-less run. *)

val run_stream_in :
  ?assume:Property.t list ->
  ?conflict_budget:int ->
  ?gauss:bool ->
  ?repair:int ->
  ?jobs:int ->
  session ->
  Log_entry.t list ->
  (Sat_reconstruct.verdict
  * Sat_reconstruct.health
  * [ `Presolve | `Mitm | `Sat of Tp_sat.Solver.stats ])
  list
(** {!run_stream} against an existing session: the rank-check masks,
    MITM table and warm skeleton come from the session (compiled once
    per design) instead of being rebuilt per stream. Triage and
    results are byte-identical to {!run_stream} with the session's
    pack. *)

val run_stream_emit :
  ?assume:Property.t list ->
  ?conflict_budget:int ->
  ?gauss:bool ->
  ?repair:int ->
  ?jobs:int ->
  ?flush:(unit -> unit) ->
  session ->
  Log_entry.t list ->
  emit:
    (int ->
    Sat_reconstruct.verdict
    * Sat_reconstruct.health
    * [ `Presolve | `Mitm | `Sat of Tp_sat.Solver.stats ] ->
    unit) ->
  unit
(** Streaming {!run_stream_in}: [emit i result] is called for every
    entry, {e strictly in entry order} (index [0] first), each as soon
    as it and every entry before it is decided. With [jobs], SAT
    chunks land as they complete on the pool and the ready prefix
    flushes immediately — a daemon can push verdicts over a socket
    while later chunks still solve — but the emitted sequence is
    byte-identical for every pool size; parallelism moves the moments
    of emission, never the order or the contents. [emit] may be
    called from pool worker domains (serialized, never concurrently)
    and must not call back into the pool.

    Emission comes in bursts: the verdicts the fast paths decide form
    the first, each SAT chunk that lands releases the next, and the
    end of the stream releases the last. [flush ()] (default: nothing)
    is called once after every burst that emitted at least one entry,
    never between two entries of one burst, so a socket writer can
    buffer lines and push each burst in one write. It runs on the
    same domain as the burst's [emit] calls, under the same
    serialization. *)

val meta_line : report -> string
(** The report's dispatch facts as one stable machine-parseable line:
    [engine=<name> pack=<hit|miss|stale> parallel=<off|cubed|portfolio|pinned>
    jobs=<n> cubes=<n> winner=<i>] — [jobs]/[cubes] are [0] and
    [winner] is [-1] where not applicable. Also printed by
    {!pp_report} as the [meta:] line; the daemon's [stats] verb
    serves it verbatim. The format is pinned by test: fields are
    appended, never reordered or renamed. *)

val pp_report : Format.formatter -> report -> unit
