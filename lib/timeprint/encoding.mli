(** Timestamp encodings: the injective map [TS : [1..m] → F₂ᵇ].

    The encoding fixes the trade-off at the heart of the method
    (§3.2, §4.3): linearly independent timestamps make reconstruction
    unique but force [b = m]; compressed timestamps shrink the log but
    multiply the preimage. The paper settles on {e linear independence
    up to depth d} (LI-d, default [d = 4]): every subset of at most [d]
    timestamps is linearly independent, so no [≤ d] changes can alias
    another [≤ d]-change signal.

    Two LI-d generators are compared in Table 2: random-constrained
    (§5.1.2, smaller [b], faster plain reconstruction) and incremental
    (start from the smallest vector and count upward, keeping vectors
    that preserve LI-d). One-hot is the exact-but-wide baseline. *)

type t

type scheme =
  | One_hot
  | Random_constrained of { seed : int }
  | Incremental  (** deterministic: smallest-first counting *)
  | Bch  (** double-error-correcting BCH parity-check columns *)
  | Custom  (** user-supplied timestamps, e.g. the Figure 4 table *)

val scheme : t -> scheme
val m : t -> int
(** Trace-cycle length. *)

val b : t -> int
(** Timestamp width in bits. *)

val depth : t -> int
(** The guaranteed linear-independence depth [d]. *)

val timestamp : t -> int -> Tp_bitvec.Bitvec.t
(** [timestamp e i] is [TS(i+1)], the encoded timestamp of cycle [i]
    ([0]-based). Raises [Invalid_argument] when out of range. *)

val timestamps : t -> Tp_bitvec.Bitvec.t array
(** All [m] timestamps, cycle order. *)

val matrix : t -> Tp_bitvec.F2_matrix.t
(** The [b × m] matrix [A = [TS(1) | … | TS(m)]] of §4.2. *)

val equal : t -> t -> bool
(** Same design: equal [m], [b] and timestamps, cycle by cycle (the
    scheme and depth labels are not compared). Physically equal
    encodings answer at once, and nothing is copied either way. *)

val one_hot : m:int -> t
(** [b = m]; reconstruction is always unique. *)

val random_constrained : ?depth:int -> ?seed:int -> m:int -> b:int -> unit -> t
(** Draw timestamps uniformly, rejecting candidates that would break
    LI-[depth] (default 4). Raises [Failure] when [b] is too small to
    host [m] such vectors (detected by exhausting the retry budget). *)

val random_constrained_auto : ?depth:int -> ?seed:int -> m:int -> unit -> t
(** {!random_constrained} with the smallest width [b] found by starting
    at the information-theoretic floor and growing until generation
    succeeds — the "practical heuristic" of §4.3. *)

val incremental : ?depth:int -> m:int -> b:int -> unit -> t
(** Deterministic generator of §5.1.2: enumerate [1, 2, 3, …] and keep
    every vector that preserves LI-[depth]. Raises [Failure] when the
    [b]-bit space is exhausted before [m] vectors are found. *)

val incremental_auto : ?depth:int -> m:int -> unit -> t
(** {!incremental} at the smallest width the counting search succeeds
    at. *)

val bch : m:int -> t
(** The structured LI-4 encoding the paper's §4.3 leaves open: the
    parity-check columns [(x, x³)] of a double-error-correcting
    narrow-sense BCH code over GF(2^q), with [q = ⌈log₂(m+1)⌉] and
    [b = 2q]. Every 4-subset of columns is linearly independent by the
    BCH bound, at a width the random-constrained greedy provably cannot
    reach for large m (the triple-XOR set of [n] chosen vectors covers
    the [2^b] space once [C(n,3) ≳ 2^b]). Gives [b = 20] at [m = 512]
    and [b = 22] at [m = 1024] versus the paper's 22 and 24. Supported
    up to [q = 12] ([m ≤ 4095]). *)

val custom : ?depth:int -> Tp_bitvec.Bitvec.t array -> t
(** Encoding from explicit timestamps (cycle order). All vectors must
    share one width and be pairwise distinct and non-zero (injectivity);
    [depth] (default 1) is the caller-asserted LI depth — check it with
    {!verify_li} if it matters. *)

val min_b : m:int -> int
(** Information-theoretic floor [⌈log₂ m⌉] for injectivity. *)

val verify_li : t -> upto:int -> bool
(** Exhaustively check that every subset of size [<= upto] of the
    timestamps is linearly independent. Exponential in [upto]; used by
    tests with small [m]. *)

val pp : Format.formatter -> t -> unit
