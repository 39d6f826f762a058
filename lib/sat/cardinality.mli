(** CNF encodings of Boolean cardinality constraints.

    The reconstruction problem fixes the number of signal changes to
    exactly [k] (§4.2). A naive encoding needs [C(m, k+1) + C(m, m-k+1)]
    clauses; following the paper we use Sinz's sequential-counter
    encoding [20], which introduces [O(m·k)] auxiliary variables and
    [O(m·k)] clauses. The naive pairwise encoding is kept for the
    encoding ablation and for cross-checks on small instances. A
    bidirectional variant of the counter ({!counter}) exposes the
    count itself, so one solver can ask many bounds of it through
    assumptions. *)

val at_most : ?guard:Lit.t -> Cnf.t -> Lit.t list -> int -> unit
(** [at_most p lits k] constrains at most [k] of [lits] to be true
    (sequential counter). [k >= 0]; [k = 0] emits unit clauses.
    With [?guard:g], the constraint is only enforced in models where
    [g] is true (every emitted clause carries [¬g]). *)

val at_least : ?guard:Lit.t -> Cnf.t -> Lit.t list -> int -> unit
(** At least [k] true, via [at_most] on the negations. *)

val exactly : ?guard:Lit.t -> Cnf.t -> Lit.t list -> int -> unit
(** Exactly [k] true. With [k] out of range [0 .. length lits] the
    problem becomes unsatisfiable. *)

(** {1 Assumable counter}

    The bounds above are fixed when emitted. A solver that answers many
    cardinality questions over the same literals instead builds one
    counter and asks each question through assumptions on its outputs:
    exactly [k] is [within ~lo:k ~hi:k], at most [f] is
    [within ~lo:0 ~hi:f]. *)

type counter

val counter : Cnf.t -> Lit.t list -> int -> counter
(** [counter p lits bound] adds a bidirectional sequential counter over
    [lits]: [n × bound] register variables (n = [length lits], and
    [bound] is clamped to [n]) and [O(n·bound)] clauses, with no
    constraint on the count itself. Its output [≥ j], for
    [1 ≤ j ≤ bound], is true exactly when at least [j] of [lits] are
    true, in every model. Raises [Invalid_argument] on a negative
    bound. *)

val at_least_lit : counter -> int -> Lit.t
(** The output [≥ j]. Raises [Invalid_argument] unless
    [1 ≤ j ≤ bound]; a counter over no inputs has no outputs. *)

val within : counter -> lo:int -> hi:int -> Lit.t list
(** The assumptions that hold the count in [lo .. hi]: [≥ lo] unless
    [lo ≤ 0], and [¬(≥ hi+1)] unless [hi ≥ n]. Raises
    [Invalid_argument] when no count can lie in the window ([lo > hi],
    [lo > n] or [hi < 0]) — a caller that may ask such a window tests
    for it first — and when a needed output lies beyond the bound. *)

val at_most_pairwise : Cnf.t -> Lit.t list -> int -> unit
(** Naive encoding: one clause per [(k+1)]-subset. Exponential; only
    sensible for small inputs (ablation baseline). *)

val exactly_pairwise : Cnf.t -> Lit.t list -> int -> unit
