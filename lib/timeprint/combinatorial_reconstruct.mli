(** Meet-in-the-middle reconstruction for small change counts.

    For [k ≤ 6] the preimage of a log entry is enumerated by a
    sorted-meet join: every half-subset sum (singles, pairs, triples of
    timestamps) is reduced to a 62-bit key that is {e linear} over XOR,
    stored in flat arrays sorted by key, and each probe half locates
    its complements with one binary search. Cost is [O(m)] for
    [k ≤ 2], [O(m log m)] per probe row for [k ≤ 4] and
    [O(m² · … )] probes against the [C(m,3)] triple table for
    [k ∈ {5, 6}]. A canonical split (probe side holds the smallest
    indices) yields each solution exactly once. For [b ≤ 62] the key is
    the timeprint value itself, so key equality is exact; wider
    encodings verify each candidate against the real timestamps.

    This is practical exactly in the regime the paper's Table 1
    stresses (small k), serves as a third independent oracle next to
    {!Sat_reconstruct} (SAT) and {!Linear_reconstruct} (coset enumeration),
    and is the natural engine behind the LI-d guarantee: with an LI-4
    encoding and [k ≤ 2], the result is provably a singleton. *)

val supported : k:int -> bool
(** [0 <= k <= 6]. *)

val feasible : Encoding.t -> k:int -> bool
(** Whether a query at this [k] can actually run against this encoding:
    always for [k ≤ 4]; for [k ∈ {5, 6}] only when the triple table
    fits the materialization cap ([C(m,3) ≤ 2²³], m ≲ 368). The planner
    routes infeasible instances to SAT. *)

val cost_bits : m:int -> k:int -> float
(** The meet's price for one lookup, in the planner's cost bits (log₂
    of elementary steps): [log₂ m] for [k ≤ 2], otherwise
    [log₂ (C(m,⌊k/2⌋) · log₂ C(m,⌈k/2⌉))] — probes times binary-search
    depth. The planner ({!Engine.mitm}) and the repair ladder of
    {!Sat_reconstruct.batch} both compare it against
    {!Sat_reconstruct.cost_baseline}. *)

type table
(** The meet-in-the-middle half-sum tables: per-index keys plus the
    single, pair and (lazily, on the first [k ≥ 5] query) triple
    subset-sum keys in sorted flat arrays. Building the eager part is
    the dominant setup cost of a [k ∈ {2, 3, 4}] query — [O(m²)] — and
    it depends only on the encoding, so build it once ({!pair_table})
    and pass it to any number of queries via [?table]. Read-only after
    construction apart from the memoized triple half; safe to share
    across domains once the triple half is forced (or never used). *)

val pair_table : Encoding.t -> table
(** Compile the half-sum tables for an encoding. Deterministic: two
    calls on equal encodings produce identical tables, which keeps
    witness choices of {!first} reproducible. Raises
    [Invalid_argument] when [m] exceeds the 20-bit payload width. *)

val preimage :
  ?max_solutions:int -> ?table:table -> Encoding.t -> Log_entry.t -> Signal.t list
(** All signals with [α̃(S) = entry], sorted. [?table] reuses a
    prebuilt {!pair_table} (it must belong to this encoding). Raises
    [Invalid_argument] when [not (supported ~k)], or when [k ≥ 5] and
    the triple table is over the cap (see {!feasible}). *)

val preimage_with :
  ?max_solutions:int ->
  ?table:table ->
  Encoding.t ->
  Log_entry.t ->
  assume:Property.t list ->
  Signal.t list
(** {!preimage} filtered by reference property semantics. *)

val first :
  ?assume:Property.t list ->
  ?table:table ->
  Encoding.t ->
  Log_entry.t ->
  Signal.t option
(** One witness, with an early exit as soon as a combination matches —
    a [`Signal]/[`Unsat] verdict without materializing the preimage.
    The witness is the first match in deterministic probe order (not
    necessarily the {!Signal.compare}-least one). Raises
    [Invalid_argument] as {!preimage} does. *)
