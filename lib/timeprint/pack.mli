(** Compiled design packs: the per-encoding setup work, persisted.

    Everything a reconstruction request recomputes about the {e design}
    — as opposed to the log entry — is a pure function of the encoding:
    the left-nullspace masks behind the presolve rank check
    ({!Presolve.shared}), the meet-in-the-middle pair table
    ({!Combinatorial_reconstruct.pair_table}), the cube-selection
    variable ranking, and the parity-select CNF skeleton with its
    propagated, activity-boosted solver ({!Sat_reconstruct.warm}). A
    pack compiles all of it once, saves it as a versioned, checksummed
    artifact next to the design, and loads it back so a stream request
    starts from {!Tp_sat.Solver.clone} instead of a cold re-encode.

    Answers never depend on the pack: {!Plan.run} and
    {!Plan.run_stream} with a pack return byte-identical verdicts,
    witnesses, counts and health columns to the cold path — the pack
    only moves work out of the request. A pack that fails to load or
    does not {!matches} the live encoding is reported and ignored.

    Solver state and the MITM tables are deliberately not serialized:
    the skeleton CNF reloads into a fresh solver deterministically, and
    the half-sum tables are rebuilt from the serialized timestamps
    through the same code path — identical sorted arrays and probe
    order, so every witness choice survives the round trip. *)

type t

val compile : Encoding.t -> t
(** The one-off: one Gauss reduction of [A | I_b], the [O(m²)] pair
    table, the variable ranking, and the warm solver skeleton. *)

val save : t -> string -> unit
(** Write the pack to a file (format: magic, version, payload length,
    FNV-1a-64 checksum, payload). Raises [Sys_error] on I/O failure. *)

type load_error =
  | Missing  (** no such file (or unreadable) *)
  | Corrupt of string  (** bad magic, checksum, truncation, bad field *)
  | Version of int  (** recognized file, unsupported version *)

val load : string -> (t, load_error) result
(** Read a pack back. The checksum is verified before any field is
    interpreted, so a truncated or bit-flipped file is [Corrupt], never
    a crash or a silently wrong pack. Loading rebuilds the pair table
    and the warm solver snapshot eagerly. *)

val pp_load_error : Format.formatter -> load_error -> unit

val matches : t -> Encoding.t -> bool
(** Whether the pack was compiled for exactly this encoding: same
    [m], same [b], same timestamps ({!Encoding.equal}). Callers must
    check before using any component against a live encoding; a
    mismatch is how a stale pack (design changed, pack did not) is
    detected. *)

val encoding : t -> Encoding.t
(** The pack's own copy of the design's timestamps (a [Custom]
    encoding after a load round-trip). *)

val rank : t -> int
(** Rank of [A] over F₂ — {!Engine.context} reuses it instead of
    re-reducing the matrix. *)

val shared : t -> Presolve.shared
(** The rank-check masks, ready for {!Presolve.refutes_with}. *)

val table : t -> Combinatorial_reconstruct.table
(** The MITM half-sum tables (rebuilt at load). *)

val ranking : t -> int list
(** Cube-selection ranking of the [m] cycle variables on the
    monolithic system: XOR-row occupancy descending, ties by index.
    Stored for splitters; the live cube path ranks the per-entry
    reduced system and is deliberately left unchanged. *)

val warm : t -> Sat_reconstruct.warm
(** The compiled batch skeleton for {!Sat_reconstruct.batch}'s
    [?warm]. *)

val describe : t -> string
(** One line for CLIs: scheme, dimensions, rank, mask count. *)
