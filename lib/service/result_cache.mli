(** Reconstructed-trace cache: a repeat query over the same (design,
    log entry, query) key is a table lookup, not a solver run.

    Per design, results wear out the way the paper's store keeps its
    log entries — "stored until they wear out" in a bounded ring
    ({!Timeprint.Trace_db}): each result is stamped with its position
    in the design's sequence of stores, and is gone once [capacity]
    newer results have been stored for that design, exactly when a
    [capacity]-slot ring would have overwritten its entry. Only the
    counter is kept, not the entries. Each result is filed under one
    string (timeprint bits, k, fingerprint). A design reloaded with a
    different encoding drops its shard (those results answer a
    different linear system).

    Thread-safe. Only single-entry planner queries are cached; stream
    triage is deliberately not — a partially-cached stream would
    re-chunk the leftovers and could report different (equally valid)
    witnesses than the full run, breaking the byte-identity invariant
    the streaming path guarantees. *)

open Timeprint

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
      (** results dropped because they wore out, their design's shard
          was invalidated, or the design's encoding changed *)
  entries : int;  (** currently cached results, all designs *)
}

val default_capacity : int
(** 1024 stores per design. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is how many newer stores on its design a result
    survives. Raises [Invalid_argument] when [<= 0]. *)

val lookup :
  t ->
  design:string ->
  Encoding.t ->
  Log_entry.t ->
  fingerprint:string ->
  Engine.outcome option
(** The cached outcome for (design, entry, fingerprint), unless worn
    out. [fingerprint] must determine the query apart from its entry
    — answer kind, assumptions, budgets (the service builds it). *)

val store :
  t ->
  design:string ->
  Encoding.t ->
  Log_entry.t ->
  fingerprint:string ->
  Engine.outcome ->
  unit
(** File the outcome under (entry, fingerprint) as the design's newest
    store, replacing any earlier result under that key; the design's
    result stored [capacity] stores ago wears out. *)

val invalidate : t -> design:string -> unit
(** Drop a design's whole shard (registry eviction/replacement). *)

val stats : t -> stats
