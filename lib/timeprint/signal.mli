(** Change signals over one trace-cycle.

    Following §4 of the paper, a signal is a map
    [S : [1..m] → {0,1}] where [S(i) = 1] marks a {e change} of the
    traced on-chip signal in the [i]-th clock-cycle. We index cycles
    [0 .. m-1] and store the map as a width-[m] bitvector, which makes
    the signal literally the solution vector [x] of the reconstruction
    system [A·x = TP]. *)

type t
(** A change signal within a trace-cycle of length [width]. *)

val length : t -> int
(** The trace-cycle length [m]. *)

val create : int -> t
(** No changes. *)

val of_bitvec : Tp_bitvec.Bitvec.t -> t
val to_bitvec : t -> Tp_bitvec.Bitvec.t
(** The change vector [x ∈ F₂ᵐ]. *)

val of_changes : m:int -> int list -> t
(** Signal changing exactly at the given cycles. Raises
    [Invalid_argument] on out-of-range cycles. *)

val changes : t -> int list
(** Cycles with a change, increasing. *)

val change_at : t -> int -> bool
val num_changes : t -> int
(** The paper's counter [k]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
(** Renders cycle-per-character, earliest cycle leftmost, e.g.
    ["0001100001100000"] for changes at cycles 3,4,9,10 of m = 16. *)

val to_string : t -> string
val of_string : string -> t
(** Inverse of {!to_string} (leftmost character = cycle 0). *)

val log2_choose : int -> int -> float
(** [log₂ C(m, k)], the number of [k]-change signals over [m] cycles
    in bits ([neg_infinity] outside [0 ≤ k ≤ m]) — the paper's
    preimage-size estimate is [log₂ C(m, k) − b]. *)

val random : Random.State.t -> m:int -> k:int -> t
(** Uniform signal with exactly [k] changes among [m] cycles. *)

val of_values : initial:bool -> bool array -> t
(** Derive the change signal from a sampled value waveform: cycle [i]
    has a change iff [values.(i)] differs from the previous sample
    ([initial] before cycle 0). The array length is the trace-cycle
    length. *)

val delay_change : t -> at:int -> t
(** [delay_change s ~at] moves the change at cycle [at] one cycle
    later — the sporadic one-cycle delay of experiment §5.2.2. Raises
    [Invalid_argument] if there is no change at [at], if [at] is the
    last cycle, or if cycle [at+1] already changes. *)
