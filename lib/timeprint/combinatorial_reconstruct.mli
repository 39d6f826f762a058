(** Meet-in-the-middle reconstruction for small change counts.

    For [k ≤ 10] the preimage of a log entry is enumerated by a
    half-sum meet: every half-subset sum (singles, pairs, triples of
    timestamps) is reduced to a 62-bit key that is {e linear} over XOR,
    stored in flat arrays sorted by key, and each probe — an XOR of the
    entry's key with the keys of the [k − h] smallest indices — finds
    the [h]-index complements in the table half ([h = k] for [k ≤ 2],
    else [min 3 ⌈k/2⌉]) through a key directory: two slot reads and a
    scan of a run of a few entries. So a lookup costs [O(1)] for
    [k ≤ 2], and [C(m, k − h)] probes beyond: [C(m,1)], [C(m,2)] for
    [k = 3, 4] against the pair table, [C(m,2) … C(m,7)] for
    [k = 5 … 10] against the [C(m,3)] triple table that every [k ≥ 5]
    query shares. A canonical split (probe side holds the smallest
    indices) yields each solution exactly once. For [b ≤ 62] the key is
    the timeprint value itself, so key equality is exact; wider
    encodings verify each candidate against the real timestamps.

    One generator ({!search}) walks the probe order, which is
    lexicographic in the change list, and answers every question:
    assumed properties filter it exactly, a [Window] or [Allowed]
    confines the sweep to the columns of its span ({!span}: probe
    indices from [lo], table-side indices at most [hi]), and the caller
    stops it at the first hit, at a cap, or once a check is decided.
    So a filtered or capped answer costs what it returns, not the whole
    preimage.

    This is practical exactly in the regime the paper's Table 1
    stresses (small k), serves as a third independent oracle next to
    {!Sat_reconstruct} (SAT) and {!Linear_reconstruct} (coset enumeration),
    and is the natural engine behind the LI-d guarantee: with an LI-4
    encoding and [k ≤ 2], the result is provably a singleton. *)

val supported : k:int -> bool
(** [0 <= k <= 10]. *)

val span : m:int -> Property.t list -> int * int
(** [(lo, hi)]: the cycles the assumed properties leave to the changes
    — the intersection of every [Window] and of the hull of every
    [Allowed] (inside [And] too), within [0 .. m − 1]; the whole
    [(0, m − 1)] when none is assumed, and empty ([lo > hi]) when they
    exclude every cycle. The meet sweeps only these columns. *)

val width : m:int -> Property.t list -> int
(** The number of cycles in {!span}, [0] when it is empty — the [w]
    the meet is priced and judged feasible over. *)

val feasible_in : Encoding.t -> w:int -> k:int -> bool
(** Whether a meet over [w] columns can run against this encoding:
    always for [k ≤ 4]; for [k ∈ [5, 10]] only when the triple table
    fits the materialization cap ([C(m,3) ≤ 2²³], m ≲ 368) and the
    meet's [C(w, k − 3)] probes fit a cap: the same 2²³ for [k ≤ 8]
    (at [k = 7], w ≲ 120; at [k = 8], w ≲ 65), so a forced meet never
    runs for minutes, and fewer than 2²⁰ — below
    {!Sat_reconstruct.cost_baseline} — for [k = 9, 10], whose full
    sweeps lose to SAT above it (at [k = 9], w ≤ 32; at [k = 10],
    w ≤ 27). The planner routes infeasible instances to SAT. *)

val feasible : Encoding.t -> k:int -> bool
(** {!feasible_in} over all [m] columns: the unconfined meet. *)

val cost_bits : m:int -> k:int -> float
(** The meet's price for one lookup over [m] columns, in the planner's
    cost bits (log₂ of elementary steps): [log₂ m] for [k ≤ 2],
    otherwise the probe count [log₂ C(m, k − h)] with
    [h = min 3 ⌈k/2⌉] — a probe is two directory slot reads and a scan
    of a few entries, [O(1)], one step; [0] when fewer than [k − h]
    columns leave nothing to probe. At [m = 32]: 5.0, 8.95, 8.95, 12.3,
    15.1, 17.6, 19.8 and 21.7 bits for [k = 3 … 10]. A confined meet is
    priced at its span's width ([m = w]). The repair ladder's meet step
    ({!Sat_reconstruct.meet_step}), whose rung 0 is the stream's fast
    path, compares it against {!Sat_reconstruct.cost_baseline}
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

val search :
  ?assume:Property.t list ->
  ?table:table ->
  Encoding.t ->
  Log_entry.t ->
  (Signal.t -> bool) ->
  bool
(** [search enc entry visit] hands [visit] every signal [S] with
    [α̃(S) = entry] that satisfies all of [assume] (reference
    semantics, {!Property.eval}), each exactly once, in probe order —
    lexicographic in the change list, not {!Signal.compare} — until
    [visit] returns [false]. Returns [true] when the sweep ran to its
    end, [false] when [visit] stopped it. Only the columns of the
    assumed {!span} are swept. [?table] reuses a prebuilt {!pair_table}
    (it must belong to this encoding). Raises [Invalid_argument] when
    [not (supported ~k)], when the timeprint width is not the
    encoding's [b], or when [k ≥ 5] and the triple table is over the
    cap. The probe-count cap of {!feasible_in} is the planner's; a
    direct call runs whatever it is asked. *)

val preimage :
  ?max_solutions:int -> ?table:table -> Encoding.t -> Log_entry.t -> Signal.t list
(** {!preimage_with} without properties. *)

val preimage_with :
  ?max_solutions:int ->
  ?table:table ->
  Encoding.t ->
  Log_entry.t ->
  assume:Property.t list ->
  Signal.t list
(** The filtered preimage of {!search}: all of it sorted by
    {!Signal.compare}, or with [max_solutions = n] its first [n]
    members in probe order, the sweep stopping at the [n]-th. Raises
    [Invalid_argument] as {!search} does. *)

val first :
  ?assume:Property.t list ->
  ?table:table ->
  Encoding.t ->
  Log_entry.t ->
  Signal.t option
(** One witness: the first member of {!search}'s filtered preimage in
    probe order (not necessarily the {!Signal.compare}-least one), the
    sweep stopping there — a [`Signal]/[`Unsat] verdict without
    materializing the preimage. Raises [Invalid_argument] as {!search}
    does. *)
