(** The multicore execution layer: entry-level and query-level
    parallelism on a shared domain pool ({!Tp_parallel.Pool}).

    Two orthogonal fan-outs, both with results that are {e independent
    of the pool size by construction}:

    - {b entry-level} ({!batch_emit}): the entries a stream's meet
      step left pending are cut into fixed-size chunks (the chunk size
      never depends on [jobs]), each chunk's remaining rungs run on its
      own parity-select solver ({!Sat_reconstruct.solver_step}) on
      whichever domain picks it up, and each chunk's results are handed
      back with the chunk's position in the list. The CDCL solver is
      mutable and single-owner, so each domain owns its chunk's solver
      outright; the only shared state, the warm skeleton, is read-only.
    - {b query-level} ({!run_query}): one hard [First]/[Enumerate]/
      [Count] query is split into [2^d] cubes over the top-ranked
      splitting variables ({!Sat_reconstruct.cubes}); cubes solve
      concurrently and merge structurally (disjoint unions, summed
      counts, any incomplete cube downgrades [`Exact] to
      [`Lower_bound]). A [First] query cancels higher-indexed sibling
      cubes as soon as a witness is found — the answer is the witness
      of the {e lowest-indexed} satisfiable cube, which cancellation
      can never reach, so even it is scheduling-independent. *)

val default_chunk : int
(** Entries per chunk in {!batch_emit} with [jobs] (8). *)

val default_cube_bits : int
(** Splitting variables per hard query (3, i.e. 8 cubes). *)

val resolve_jobs : int -> int
(** [jobs <= 0] resolves to [Domain.recommended_domain_count ()]. *)

val batch_emit :
  ?assume:Property.t list ->
  ?conflict_budget:int ->
  ?warm:Sat_reconstruct.warm ->
  ?jobs:int ->
  Encoding.t ->
  Sat_reconstruct.pending list ->
  emit:
    (int ->
    (Sat_reconstruct.verdict * Sat_reconstruct.health * Tp_sat.Solver.stats)
    list ->
    unit) ->
  unit
(** {!Sat_reconstruct.solver_step} over pending entries, scheduled in
    chunks: each chunk's result list is handed to [emit first results],
    where [first] is the index in [pending] of the chunk's first entry.

    Without [jobs] the whole list is one chunk, solved inline on the
    caller by exactly one [Sat_reconstruct.solver_step] call, and
    [emit 0] runs once. With [jobs] the list is cut into chunks of
    {!default_chunk} entries, each solved on the domain pool by a fresh
    parity-select solver; [jobs = 0] means
    [Domain.recommended_domain_count ()]. Calls to [emit] are then
    serialized ({!Tp_parallel.Pool.map_emit}) but arrive in
    {e completion} order; callers wanting log order reorder by
    [first]. The chunk partition never depends on the [jobs] value, so
    the union of emitted results is byte-identical across pool sizes
    (a chunked run may report a different witness than the one-chunk
    run for a satisfiable entry, never a different verdict kind or
    health). [warm] is a compiled skeleton each chunk clones its solver
    from, with the eligibility rule of {!Sat_reconstruct.solver_step}. *)

type cube_summary = {
  cs_jobs : int;  (** pool lanes used *)
  cs_cubes : int;  (** cubes solved (0: presolve refuted the query) *)
  cs_incomplete : int;
      (** cubes that came back [`Unknown]/incomplete — cancelled
          siblings of a [First] witness, or budget-exhausted cubes
          that forced a [`Lower_bound] *)
  cs_stages : Engine.stage list;
      (** one header stage plus one stage per cube, with that cube's
          private-solver stats (per-domain conflict counts) *)
}

val run_query :
  ?cube_bits:int -> jobs:int -> Query.t -> Engine.outcome * cube_summary
(** Cube-and-conquer the query on the pool. Only [First], [Enumerate]
    and [Count] answers split soundly; [Check]/[Certified]/[Repair]
    raise [Invalid_argument] (the planner pins those to a single
    domain instead). A [Count] whose cubes were cut short by the
    conflict budget is never [`Exact]. *)

type race_summary = {
  rs_jobs : int;  (** pool lanes *)
  rs_configs : int;  (** diversified configurations raced (2–4) *)
  rs_winner : int;
      (** index of the config whose definite verdict finished first
          ([-1] only if every config was cancelled externally) *)
  rs_stages : Engine.stage list;
      (** one header stage plus one stage per config, marking the
          winner and the cancelled losers *)
}

val race_check :
  jobs:int ->
  Sat_reconstruct.problem ->
  Property.t ->
  Sat_reconstruct.check_result * race_summary
(** Portfolio-race one hard [Check] query: 2–4 diversified solver
    configurations (config 0 canonical, then Gauss engine flipped and
    phase/activity seeds perturbed) solve the {e whole} query
    concurrently; the first definite verdict wins and cancels the rest
    through a shared stop flag. Sound because a completed check verdict
    is a pure function of the problem — it quantifies over the whole
    preimage, so it cannot depend on the search trajectory; hence the
    answer is jobs-invariant, and racing changes only the wall-clock
    (min over configs instead of the canonical config's time). Only
    unbudgeted checks race: a conflict-budgeted verdict {e does} depend
    on the trajectory, so the planner pins those. *)
