(** Offline F₂ presolve of the reconstruction system [A·x = TP].

    Before anything is encoded for the SAT solver, the [b] XOR rows of
    the linear system — one per timeprint bit, over the [m] cycle
    variables — are Gauss–Jordan-reduced over F₂ ({!Tp_sat.Xor_simp}).
    Three things fall out:

    - a rank check: if the augmented system [A | TP] is inconsistent,
      the whole reconstruction is UNSAT with no solver call at all;
    - implied assignments: a pivot row with a single variable fixes
      that cycle ([Fixed]), and a two-variable pivot row ties a cycle
      to a representative ([Aliased]: [x = rep ⊕ negate]);
    - a reduced kernel: the remaining independent rows, over fewer
      variables, which is all the solver ever needs to see.

    {!Sat_reconstruct} substitutes the eliminations out of the CNF and
    cardinality encoding and maps solver witnesses back through
    [elim], so callers observe exactly the same models as without
    presolve. *)

type elim =
  | Fixed of bool  (** the cycle's signal value is forced *)
  | Aliased of { rep : int; negate : bool }
      (** cycle equals cycle [rep], inverted when [negate];
          [rep] is itself never eliminated *)

type stats = {
  rank : int;  (** rank of [A] over the participating variables *)
  dropped : int;  (** linearly dependent (redundant) input rows *)
  units : int;  (** cycles fixed by single-variable pivot rows *)
  aliases : int;  (** cycles tied to a representative *)
}

type t = {
  elim : elim option array;  (** length [m]; [None] = survives *)
  rows : (int list * bool) list;
      (** the reduced kernel, over surviving cycle indices *)
  units_true : int;
      (** how many [Fixed true] cycles — the cardinality bound on the
          surviving variables drops by this much *)
  stats : stats;
}

val system : Encoding.t -> Log_entry.t -> (int list * bool) list
(** The raw rows of [A·x = TP]: for each timeprint bit [j], the cycle
    indices whose timestamp has bit [j] set, with parity [TP_j]. *)

val run : Encoding.t -> Log_entry.t -> [ `Unsat | `Reduced of t ]
(** [`Unsat] exactly when the linear system alone is inconsistent
    (the cardinality constraint is not consulted here). *)

val refutes : Encoding.t -> Log_entry.t -> bool
(** Rank check alone: [true] iff the augmented system [A | TP] is
    inconsistent over F₂. Cheaper than {!run} (no alias extraction);
    used to refute stream entries with zero solver work. *)

type shared
(** The encoding-only part of the rank check, factored out of the
    per-entry reduction: a basis of the left null space of [A], i.e.
    the combinations of timeprint bits the timestamps force to zero.
    Immutable once built — one copy can be read concurrently by every
    worker domain of a parallel batch. *)

val shared : Encoding.t -> shared
(** One Gauss reduction of [A | I_b]; do this once per stream. *)

val refutes_with : shared -> Log_entry.t -> bool
(** Same answer as {!refutes}, in O(b²) bit operations per entry: the
    augmented system is inconsistent iff some basis mask hits [TP]
    with odd parity. *)

val masks : shared -> Tp_bitvec.Bitvec.t list
(** The null-space basis masks, in the order {!refutes_with} consults
    them — exposed so design packs can serialize the reduction. *)

val of_masks : Tp_bitvec.Bitvec.t list -> shared
(** Rebuild a [shared] from serialized masks. The caller is trusted to
    pass masks produced by {!masks} for the same encoding (design
    packs verify this with a checksum and an encoding match). *)
