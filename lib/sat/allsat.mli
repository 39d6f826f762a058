(** Model enumeration (All-SAT) by blocking clauses.

    Reconstruction needs {e all} signals abstracting to a log entry
    (§4.2), or the first few, or a yes/no answer under a property. We
    enumerate models projected onto the [m] signal variables: after
    each model, a blocking clause over the projection variables forbids
    it and the (incremental) solver continues.

    Every entry point takes optional [assumptions] (passed to each
    underlying {!Solver.solve}) and an optional [guard] literal. With
    [?guard:g], [g] is assumed on every solve and every blocking clause
    is emitted as [¬g ∨ …]: once the enumeration is over, retiring the
    guard ([Solver.add_clause s [¬g]]) releases all its blocking
    clauses, so one long-lived solver can run many independent
    enumerations (see [Timeprint.Sat_reconstruct.Session]). *)

type outcome = {
  models : bool array list;  (** projected models, in discovery order *)
  complete : bool;
      (** [true] when enumeration provably exhausted the solution space
          (final answer was UNSAT), [false] when stopped by [max_models]
          or by the conflict budget *)
}

val enumerate :
  ?max_models:int ->
  ?conflict_budget:int ->
  ?assumptions:Lit.t list ->
  ?guard:Lit.t ->
  Solver.t ->
  project:int list ->
  outcome
(** [enumerate s ~project] repeatedly solves, records each model
    restricted to the variables [project] (in the given order), blocks
    it, and continues. The solver is left with the blocking clauses
    installed (guarded by [guard] when given).

    [conflict_budget] bounds the {e total} number of conflicts across
    the whole enumeration, not each individual solve: every call
    consumes the conflicts it spent (measured through {!Solver.stats})
    from the shared budget, and the run stops with [complete = false]
    when the budget is exhausted. *)

val count :
  ?max_models:int ->
  ?conflict_budget:int ->
  ?assumptions:Lit.t list ->
  ?guard:Lit.t ->
  Solver.t ->
  project:int list ->
  int * [ `Exact | `Lower_bound ]
(** Number of projected models. [`Exact] when the enumeration ran to
    provable exhaustion; [`Lower_bound] when it was cut short by
    [max_models] or the conflict budget, in which case at least that
    many models exist. *)

val iter :
  ?max_models:int ->
  ?conflict_budget:int ->
  ?assumptions:Lit.t list ->
  ?guard:Lit.t ->
  (bool array -> unit) ->
  Solver.t ->
  project:int list ->
  bool
(** Streaming variant; returns the [complete] flag. *)
