(** Meet-in-the-middle reconstruction for small change counts.

    For [k ≤ 8] the preimage of a log entry is enumerated by a
    half-sum meet: every half-subset sum (singles, pairs, triples of
    timestamps) is reduced to a 62-bit key that is {e linear} over XOR,
    stored in flat arrays sorted by key, and each probe — an XOR of the
    entry's key with the keys of the [k − h] smallest indices — finds
    the [h]-index complements in the table half ([h = k] for [k ≤ 2],
    else [min 3 ⌈k/2⌉]) through a key directory: two slot reads and a
    scan of a run of a few entries. So a lookup costs [O(1)] for
    [k ≤ 2], and [C(m, k − h)] probes beyond: [C(m,1)], [C(m,2)] for
    [k = 3, 4] against the pair table, [C(m,2) … C(m,5)] for
    [k = 5 … 8] against the [C(m,3)] triple table that every [k ≥ 5]
    query shares. A canonical split (probe side holds the smallest
    indices) yields each solution exactly once. For [b ≤ 62] the key is
    the timeprint value itself, so key equality is exact; wider
    encodings verify each candidate against the real timestamps.

    This is practical exactly in the regime the paper's Table 1
    stresses (small k), serves as a third independent oracle next to
    {!Sat_reconstruct} (SAT) and {!Linear_reconstruct} (coset enumeration),
    and is the natural engine behind the LI-d guarantee: with an LI-4
    encoding and [k ≤ 2], the result is provably a singleton. *)

val supported : k:int -> bool
(** [0 <= k <= 8]. *)

val feasible : Encoding.t -> k:int -> bool
(** Whether a query at this [k] can actually run against this encoding:
    always for [k ≤ 4]; for [k ∈ [5, 8]] only when the triple table
    fits the materialization cap ([C(m,3) ≤ 2²³], m ≲ 368) and the
    meet's [C(m, k − 3)] probes fit the same cap (at [k = 7], m ≲ 120;
    at [k = 8], m ≲ 65), so a forced meet never runs for minutes. The
    planner routes infeasible instances to SAT. *)

val cost_bits : m:int -> k:int -> float
(** The meet's price for one lookup, in the planner's cost bits (log₂
    of elementary steps): [log₂ m] for [k ≤ 2], otherwise the probe
    count [log₂ C(m, k − h)] with [h = min 3 ⌈k/2⌉] — a probe is two
    directory slot reads and a scan of a few entries, [O(1)], one step.
    At [m = 32]: 5.0, 8.95, 8.95, 12.3, 15.1 and 17.6 bits for
    [k = 3 … 8]. A function of [(m, k)] alone. The planner's stream
    fast path and the repair ladder of {!Sat_reconstruct.batch}
    compare it against {!Sat_reconstruct.cost_baseline}
    ({!Sat_reconstruct.meet_wins}); the single-query planner ranks it
    against the coset engine's ({!Engine.mitm}). *)

type table
(** The meet-in-the-middle half-sum tables: per-index keys plus the
    single, pair and (lazily, on the first [k ≥ 5] query) triple
    subset-sum keys in sorted flat arrays, each with a key directory of
    [2^min(kb, ⌈log₂ n⌉ − 2) + 1] slot offsets over the top bits of its
    [n] sorted keys ([kb = b] for [b ≤ 62], else 62). Where the slots
    cover every key bit — the triple half at [m = 32, b = 11] and at
    [m = 128, b = 16] — a slot's run is exactly its key's hits and the
    half stores no keys; wide encodings ([b > 62]) always keep theirs.
    Building the eager part is the dominant setup cost of a
    [k ∈ {2, 3, 4}] query — [O(m²)] — and it depends only on the
    encoding, so build it once ({!pair_table}) and pass it to any
    number of queries via [?table]. Read-only after construction apart
    from the memoized triple half; safe to share across domains once
    the triple half is forced (or never used). *)

val pair_table : Encoding.t -> table
(** Compile the half-sum tables for an encoding. Deterministic: two
    calls on equal encodings produce identical tables, which keeps
    witness choices of {!first} reproducible. Raises
    [Invalid_argument] when [m] exceeds the 20-bit payload width. *)

val preimage :
  ?max_solutions:int -> ?table:table -> Encoding.t -> Log_entry.t -> Signal.t list
(** All signals with [α̃(S) = entry], sorted. [?table] reuses a
    prebuilt {!pair_table} (it must belong to this encoding). Raises
    [Invalid_argument] when [not (supported ~k)], when the timeprint
    width is not the encoding's [b], or when [k ≥ 5] and the triple
    table is over the cap. The probe-count cap of {!feasible} is the
    planner's; a direct call runs whatever it is asked. *)

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
