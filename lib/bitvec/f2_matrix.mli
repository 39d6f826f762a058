(** Dense matrices over [F₂] with row-packed {!Bitvec.t} storage.

    The reconstruction problem of the paper (§4.2) is the linear system
    [A·x = TP] over [F₂] with a Hamming-weight side condition, where
    [A = [TS(1) | … | TS(m)]] stacks the timestamps as columns. This
    module provides the exact linear-algebra machinery: Gaussian
    elimination, rank, a particular solution, and a nullspace basis —
    used both by the encoding generators (linear-independence-depth
    checks) and by {!Timeprint.Linear_reconstruct}, the brute-force
    cross-check for the SAT path. *)

type t

val make : rows:int -> cols:int -> t
(** All-zero matrix. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> bool
(** [get m i j] is entry (row [i], column [j]). *)

val set : t -> int -> int -> bool -> unit

val row : t -> int -> Bitvec.t
(** Copy of row [i] as a vector of width [cols]. *)

val of_rows : Bitvec.t array -> t
(** Rows must share a common width. *)

val of_columns : rows:int -> Bitvec.t array -> t
(** [of_columns ~rows cs] builds the [rows × Array.length cs] matrix
    whose [j]-th column is [cs.(j)]; each [cs.(j)] must have width
    [rows]. This is exactly the paper's [A = [TS(1) | … | TS(m)]]. *)

val column : t -> int -> Bitvec.t

val transpose : t -> t
(** Blocked transpose over 32×32 bit tiles (word-level gather,
    in-register tile transpose, word-level scatter). *)

val transpose_naive : t -> t
(** Reference bit-at-a-time transpose; kept for agreement tests. *)

val mul_vec : t -> Bitvec.t -> Bitvec.t
(** [mul_vec a x] is [A·x]; [x] must have width [cols a]. *)

val swap_rows : t -> int -> int -> unit
(** Exchange two rows in place. *)

val xor_rows : t -> src:int -> dst:int -> unit
(** [xor_rows m ~src ~dst] adds (XORs) row [src] into row [dst] in
    place. [src] and [dst] must differ. Together with {!swap_rows}
    these are the elementary F₂ row operations; both preserve the row
    space, so rank and solution sets are unchanged. *)

val rref : t -> (int * int) list
(** In-place Gauss–Jordan to reduced row-echelon form. Returns the
    pivots as [(row, col)] pairs in elimination order: after the call,
    each pivot column contains a single 1, at its pivot row. The rank
    is the number of pivots; rows beyond the last pivot row are zero. *)

val rref_rows : Bitvec.t array -> cols:int -> (int * int) list
(** {!rref} on a raw row array (destructive). Only the first [cols]
    columns are eligible as pivots, so an augmented system [A | b] can
    be reduced by passing rows of width [cols + w] — the trailing [w]
    columns ride along under the row operations. This is the workhorse
    behind the SAT-side XOR presolve and the in-solver Gauss engine.

    Dispatches by size: the blocked Method-of-Four-Russians kernel when
    both the row count and [cols] reach its profitability threshold
    (24), the naive sweep below it. The two kernels produce
    byte-identical rows and pivots, so the choice never changes
    results, only speed. *)

val rref_rows_naive : Bitvec.t array -> cols:int -> (int * int) list
(** The column-at-a-time Gauss–Jordan sweep, unconditionally. *)

val rref_rows_m4ri : Bitvec.t array -> cols:int -> (int * int) list
(** Method-of-Four-Russians elimination: columns in blocks of
    [κ = clamp(log₂ rows, 2, 8)], pivots chosen on κ-bit windows, a
    Gray-code table of all [2^s] pivot-row combinations, then one table
    XOR per remaining row per block. Byte-identical output to
    {!rref_rows_naive} (same pivots, same reduced rows), roughly κ×
    fewer row XOR passes. All rows must share one width [≥ cols]. *)

val rank : t -> int

val solve : t -> Bitvec.t -> Bitvec.t option
(** [solve a b] returns a particular solution of [A·x = b], or [None]
    when the system is inconsistent. *)

val nullspace : t -> Bitvec.t list
(** A basis of the kernel [{x | A·x = 0}]; the list has
    [cols a - rank a] elements. *)

val solve_all : ?max_solutions:int -> t -> Bitvec.t -> Bitvec.t list
(** Every solution of [A·x = b] (particular solution + span of the
    nullspace), enumerated exhaustively. The number of solutions is
    [2^(cols - rank)]; intended for small instances and tests.
    [max_solutions] truncates the enumeration. *)

val solve_all_with_weight :
  ?max_solutions:int -> t -> Bitvec.t -> weight:int -> Bitvec.t list
(** {!solve_all} restricted to solutions of Hamming weight [weight] —
    the exact preimage of a log entry [(TP, k)]. *)

val independent : Bitvec.t list -> bool
(** Whether the vectors are linearly independent. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Entry-wise equality (dimensions must match too). *)

val to_buffer : Buffer.t -> t -> unit
(** Append a binary serialization: row and column counts as 8-byte
    little-endian integers, then each row via {!Bitvec.to_buffer}. *)

val read : Bytes.t -> pos:int -> t * int
(** [read bytes ~pos] decodes a matrix written by {!to_buffer} starting
    at [pos] and returns it with the offset one past its last byte.
    Raises [Failure] on truncated or malformed input. *)
