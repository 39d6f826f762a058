(** The [timeprintd] line protocol.

    Requests are newline-delimited: [verb key=value ...], every value
    a bare token. Verbs:

    {v
    load name=ID scheme=SCHEME m=M [b=B] [seed=S] [depth=D]
    load name=ID pack=PATH
    quota tenant=ID bits=F
    reconstruct design=ID tp=BITS k=K [tenant=ID] [max=N] [first=1]
                [count=1] [repair=E] [k_slack=D] [budget=N] [jobs=N]
                [p2=1] [pulse=1] [deadline=K,D] [window=LO,HI]
    stream design=ID n=N [tenant=ID] [repair=E] [jobs=N] [p2=1] ...
    flow n=N [mode=reconstruct|select] [tenant=ID] [repair=E]
         [jobs=N] [max_alts=N] [budget=B]
    stats
    shutdown
    v}

    A [stream] request is followed by exactly [n] body lines in the
    CLI log-file syntax ["<tp-bits> <k>"]. A [flow] request is
    followed by exactly [n] body lines in the {!Flow_spec} grammar;
    [mode=select] runs the observability-selection pass instead of
    reconstruction ([budget=] overrides the spec's [budget bits=]
    directive).

    Responses: one header line — [ok key=value ... lines=N] followed
    by exactly [N] payload lines, or a single [err code=... ...]
    line. The [lines] field is the framing; payload lines of a
    [stream] response arrive progressively as chunks complete, and
    are byte-identical to the one-shot CLI's output
    ({!Render.entry_line} / {!Render.summary_line}). *)

open Timeprint

type request =
  | Load of {
      name : string;
      spec : [ `Encoding of Encoding.t | `Pack_file of string ];
    }
  | Quota of { tenant : string; bits : float }
  | Reconstruct of {
      design : string;
      tenant : string option;
      entry : Log_entry.t;
      answer : Query.answer;
      assume : Property.t list;
      conflict_budget : int option;
      jobs : int option;
      max_solutions : int option;
    }
  | Stream of {
      design : string;
      tenant : string option;
      n : int;  (** body lines that follow *)
      repair : int;
      jobs : int option;
    }
  | Flow of {
      mode : [ `Reconstruct | `Select ];
      tenant : string option;
      n : int;  (** body lines that follow, {!Flow_spec} grammar *)
      repair : int;
      jobs : int option;
      max_alts : int option;
      budget : int option;
    }
  | Stats
  | Shutdown

val parse_request : string -> (request, string) result
val body_lines : string -> int option
(** The body length a [stream] or [flow] request line declares with a
    well-formed [n=], whether or not the rest of the line parses;
    [None] for any other line. A server that rejects such a header
    must still consume this many lines to stay in step with the
    client. *)

val parse_entry : string -> (Log_entry.t, string) result
val render_entry : Log_entry.t -> string
(** ["<tp-bits> <k>"] — inverse of {!parse_entry}. *)

val ok_line : (string * string) list -> lines:int -> string
(** [ok k=v ... lines=N]. *)

val err_line : Service.error -> string
(** [err code=...]. *)

val parse_response_header : string -> [ `Ok of int | `Err | `Garbled ]
(** For clients: [`Ok n] means [n] payload lines follow. *)
