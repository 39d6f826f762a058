(** The session-oriented service core: registry + admission + result
    cache behind one request-shaped API.

    Every request names a design; the {!Design_registry} turns the
    name into a pack-backed {!Timeprint.Plan.session} (compiled once,
    LRU-cached). Single-entry queries first consult the
    {!Result_cache} — a hit bypasses admission and the planner
    entirely — then pay {!Timeprint.Plan.cost_estimate} cost bits at
    the {!Admission} gate before running. Streams price the whole log
    in one ticket and emit verdicts in entry order as chunks complete
    on the domain pool.

    Both the CLI and the [timeprintd] daemon are thin clients of this
    module: neither builds presolve reductions, packs or solvers
    itself. *)

open Timeprint

type t

type error =
  | Unknown_design of string
  | Rejected of Admission.rejection
  | Bad_request of string

val error_line : error -> string
(** One stable machine-parseable line starting with [code=...] —
    what the daemon's [err] responses carry. *)

val create :
  ?registry_capacity:int ->
  ?cache_capacity:int ->
  ?max_running:int ->
  ?queue_limit:int ->
  ?default_quota_bits:float ->
  unit ->
  t
(** Defaults: {!Design_registry.default_capacity} designs,
    {!Result_cache.default_capacity} cached results per design,
    admission as {!Admission.create}. Registry evictions invalidate
    the evicted design's result-cache shard automatically. *)

val registry : t -> Design_registry.t
val admission : t -> Admission.t
val cache : t -> Result_cache.t
val set_quota : t -> tenant:string -> float -> unit

val load : t -> name:string -> Encoding.t -> Plan.session * [ `Hit | `Miss | `Stale ]
(** Register (or refresh) a named design; [`Stale] reloads drop the
    design's cached results. *)

val load_pack : t -> name:string -> Pack.t -> Plan.session
(** Install a pack loaded from a file under [name] (always replaces;
    the design's cached results are dropped). *)

val default_tenant : string
(** ["anon"] — the tenant unauthenticated requests are charged to. *)

type reconstructed = {
  outcome : Engine.outcome;
  served : [ `Cache | `Ran of Plan.report ];
}

val reconstruct :
  t ->
  ?tenant:string ->
  design:string ->
  ?engine:Plan.engine_choice ->
  ?assume:Property.t list ->
  ?conflict_budget:int ->
  ?jobs:int ->
  answer:Query.answer ->
  Log_entry.t ->
  (reconstructed, error) result
(** One planner query against a registered design. Served [`Cache]
    when the same (design, entry, answer, assumptions, budget) was
    answered before and has not worn out; otherwise priced, admitted
    (possibly blocking on the bounded queue), run via
    {!Timeprint.Plan.run_in} and cached. *)

val stream :
  t ->
  ?tenant:string ->
  design:string ->
  ?assume:Property.t list ->
  ?repair:int ->
  ?jobs:int ->
  ?flush:(unit -> unit) ->
  Log_entry.t list ->
  emit:(int -> Render.triage -> unit) ->
  (unit, error) result
(** Whole-log triage via {!Timeprint.Plan.run_stream_emit}: one
    admission ticket for the log (per-entry estimates log₂-summed),
    verdicts emitted strictly in entry order as chunks complete, and
    [flush] called once after each burst of them (see there).
    Byte-identical to the one-shot path for every [jobs]; not cached
    (see {!Result_cache}). *)

type flow_result = {
  fl_observed : Tp_flow.Flow.observed list;
  fl_stitched : Tp_flow.Flow.stitched;
}

val flow :
  t ->
  ?tenant:string ->
  ?repair:int ->
  ?jobs:int ->
  ?max_alts:int ->
  Tp_flow.Flow.channel list ->
  Tp_flow.Flow.template list ->
  (flow_result, error) result
(** Multi-signal flow reconstruction as a service: every channel is
    registered in the {!Design_registry} under ["flow:<name>"] (so
    repeat flows over the same designs reuse compiled sessions, LRU
    and all), the whole request is priced as {e one} admission ticket
    (per-channel stream costs log₂-summed, like {!stream}), and the
    channels are observed and stitched ({!Tp_flow.Flow.observe} /
    {!Tp_flow.Flow.stitch}) inside it. Deterministic and
    jobs-invariant like everything beneath it. *)

val stats_lines : t -> string list
(** Machine-parseable service counters, one subsystem per line:
    [registry ...], [cache ...], [admission ...], and [plan <meta>]
    with the {!Timeprint.Plan.meta_line} of the planner's most recent
    non-cached run. *)
