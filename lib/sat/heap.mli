(** Indexed binary max-heap keyed by variable activity (VSIDS order).

    Elements are variable indices in [0 .. n-1]; the heap maintains a
    position index so that {!decrease}/{!increase} after an activity
    bump and {!mem} are O(log n) / O(1). *)

type t

val create : int -> score:float array -> t
(** [create n ~score] builds an empty heap over elements [0 .. n-1];
    element [x]'s score is [score.(x)], read on every comparison, so
    bumping an activity requires a follow-up {!update} of that element
    (if present). [score] is shared, not copied. *)

val set_score : t -> float array -> unit
(** Re-point the heap at a new score array — after its owner replaced
    the old one with a larger copy. The new array must agree with the
    old on every stored element, or heap order is lost. *)

val grow : t -> int -> unit
(** Extend the element universe to [0 .. n-1]. *)

val is_empty : t -> bool
val size : t -> int
val mem : t -> int -> bool
val insert : t -> int -> unit
(** No-op when already present. *)

val update : t -> int -> unit
(** Restore heap order around [x] after its score changed. No-op when
    absent. *)

val remove_max : t -> int
(** Raises [Not_found] when empty. *)

val copy : t -> score:float array -> t
(** Structural copy of the heap over a fresh score array — used when
    cloning a solver, whose heap must read the clone's own activity
    array. The caller must supply a [score] that agrees with the
    original on every stored element, or heap order is lost. *)

val rebuild : t -> int list -> unit
(** Clear and re-insert the given elements. *)
