(** Temporal properties of a signal within one trace-cycle.

    Properties play two roles in the method (§2, §3.3, §5.1.3):

    - {e verified} properties — known to hold from RV monitors,
      diagnostic logs or the specification — prune the reconstruction
      search space ({!assert_holds});
    - {e suspected} properties — a deadline miss, a security-relevant
      early firing — are decided against the logged timeprint by asking
      whether some/every reconstruction satisfies them
      ({!assert_violated} + SAT/UNSAT, see {!Plan.check}).

    The two named properties evaluated in Table 1 are here: {!p2}
    ("two consecutive changes appear at least once") and {!deadline}
    ([Dk]: "at least [count] changes happen before cycle [before]").
    {!pulse_pairs} is the didactic write-pulse shape of §3.3, and
    {!delayed_once} the one-cycle-delay hypothesis of §5.2.2. *)

type t =
  | P2  (** ∃i. change at [i] and [i+1] (the paper's weak pulse hint) *)
  | Pulse_pairs
      (** every change belongs to a disjoint adjacent pair: the
          "writes last one cycle, then back to zero" shape of §3.3 *)
  | Deadline of { count : int; before : int }
      (** [Dk]: at least [count] changes strictly before cycle [before] *)
  | Window of { lo : int; hi : int }
      (** changes happen only in cycles [lo..hi] (inclusive) *)
  | Change_at of int
  | No_change_at of int
  | Pattern_at of { pattern : Signal.t; lo : int; hi : int }
      (** the given change pattern occurs verbatim, starting at some
          cycle in [lo..hi]; cycles outside the matched span are
          unconstrained *)
  | Min_separation of int
      (** consecutive changes are separated by at least [n] quiet
          cycles (inter-arrival constraint) *)
  | Max_separation of int
      (** every change is followed by another change within [n] cycles,
          unless it lies within the last [n] cycles of the trace-cycle
          (whose successor may fall in the next trace-cycle) *)
  | At_least_in of { lo : int; hi : int; n : int }
      (** at least [n] changes in cycles [lo..hi] (inclusive);
          [Deadline] is the [lo = 0] special case *)
  | At_most_in of { lo : int; hi : int; n : int }
      (** at most [n] changes in cycles [lo..hi] (inclusive) *)
  | Allowed of (int * int) list
      (** changes happen only inside the union of the given (inclusive)
          windows; [Window] is the single-window special case *)
  | Delayed_once of Signal.t
      (** the signal equals the reference except that exactly one
          change occurring at some cycle [i] (with no reference change
          at [i+1]) slipped to [i+1] *)
  | Exact of Signal.t
  | Not of t
  | And of t list
  | Or of t list

val p2 : t
val pulse_pairs : t
val deadline : count:int -> before:int -> t
val window : lo:int -> hi:int -> t
val delayed_once : Signal.t -> t

val eval : t -> Signal.t -> bool
(** Reference semantics. *)

val assert_holds :
  ?guard:Tp_sat.Lit.t -> Tp_sat.Cnf.t -> m:int -> xvar:(int -> int) -> t -> unit
(** Add clauses forcing the property to hold of the signal whose
    change-variable for cycle [i] is [xvar i]. With [?guard:g] the
    encoding binds only in models where [g] is true (every emitted
    clause carries [¬g], and cardinality counters are built guarded),
    so a property can be switched on per query via a solver assumption
    — the leaf encodings are exact under an asserted guard. *)

val assert_violated :
  ?guard:Tp_sat.Lit.t -> Tp_sat.Cnf.t -> m:int -> xvar:(int -> int) -> t -> unit
(** Add clauses forcing the property to be false. [?guard] as in
    {!assert_holds}. *)

val pp : Format.formatter -> t -> unit
