(** Conventional precise-timestamp trace buffer: the baseline
    timeprints replace.

    The development-phase approach (§1, §3, [23–25]): every change is
    logged as a [⌈log₂ m⌉]-bit cycle offset into an on-chip buffer of
    fixed capacity. Logging is exact while the buffer lasts, but cost
    is activity-dependent ([k·⌈log₂ m⌉] bits per trace-cycle) and the
    buffer overflows on bursts — after which cycles are simply not
    captured. {!coverage} and {!Design.bits_per_trace_cycle} make the
    §1 comparison (gigabytes/s vs ~bits/trace-cycle) executable, see
    the bench [baseline] section. *)

type t

val create : capacity_bits:int -> m:int -> t
(** Raises [Invalid_argument] when [capacity_bits <= 0] or [m <= 1]. *)

val m : t -> int
val capacity_bits : t -> int
val bits_per_change : t -> int
(** [⌈log₂ m⌉]. *)

val record_trace_cycle : t -> Signal.t -> bool
(** Log one trace-cycle's changes. Returns [true] when everything fit;
    [false] when the buffer overflowed — the trailing changes of this
    trace-cycle (and everything after) are lost. *)

val used_bits : t -> int
val overflowed : t -> bool

val captured : t -> (int * int list) list
(** Fully captured trace-cycles as [(index, changes)], oldest first.
    A trace-cycle that overflowed mid-way is not included. *)

val coverage : t -> float
(** Fraction of offered trace-cycles fully captured, in [0, 1]. *)
