(** The unified reconstruction query IR.

    Every question the toolkit answers about a log entry — a witness, a
    preimage enumeration, a count, a property check, a certified
    verdict — is one value of {!t}: the encoding, the entry, the
    assumed properties, the budgets, and the requested {!answer}. The
    {!Engine} adapters consume this IR; the {!Plan} layer picks which
    of them runs it. Nothing here solves anything. *)

type answer =
  | First  (** one witness, or [`Unsat] *)
  | Enumerate of { max_solutions : int option }
      (** the preimage, possibly truncated: a capped answer lists the
          first members its engine finds, not the smallest ones *)
  | Count of { max_solutions : int option }
      (** the preimage size, [`Exact] when provably exhausted. Every
          engine probes one solution past a cap, so a preimage that
          exactly fills it still reads [`Exact] — capped answers only
          degrade to [`Lower_bound] when solutions genuinely remain or
          a conflict budget ran out *)
  | Check of Property.t
      (** the four-way verdict of a suspected property *)
  | Certified
      (** like [First], but an UNSAT answer must carry a verified DRAT
          certificate — only the SAT engine can produce one *)
  | Repair of { max_flips : int; k_slack : int }
      (** minimal-error explanation of a possibly corrupted entry: up
          to [max_flips] timeprint bit errors and a change counter off
          by at most [k_slack] — no single engine answers it; it climbs
          the repair ladder ({!Engine.ladder}): meet rungs first
          ({!Sat_reconstruct.meet_step}), the solver for the rest *)

type t = {
  encoding : Encoding.t;
  entry : Log_entry.t;
  assume : Property.t list;
      (** properties known to hold; they prune every answer — on the
          meet, [Window] and [Allowed] also confine the sweep to their
          columns *)
  conflict_budget : int option;
      (** bound on each SAT solve, when a SAT engine runs the query *)
  answer : answer;
}

val make :
  ?assume:Property.t list ->
  ?conflict_budget:int ->
  answer:answer ->
  Encoding.t ->
  Log_entry.t ->
  t
(** Raises [Invalid_argument] when the timeprint width differs from the
    encoding's [b], on a [Repair] answer with a negative budget, or on
    an [Enumerate]/[Count] answer with a negative [max_solutions]
    ([0] is a valid cap). *)

val pp_answer : Format.formatter -> answer -> unit
