(** The [timeprintd] Unix-socket daemon: a single-threaded accept
    loop speaking the {!Wire} line protocol over [SOCK_STREAM]
    connections. Parallelism lives below the protocol — one stream
    request fans its chunks over the whole domain pool — so requests
    on one connection are served in order, and concurrent clients are
    throttled by the service's admission queue. *)

type config = {
  socket_path : string;
  registry_capacity : int option;
  cache_capacity : int option;
  max_running : int option;
  queue_limit : int option;
  default_quota_bits : float option;
}

val config :
  ?registry_capacity:int ->
  ?cache_capacity:int ->
  ?max_running:int ->
  ?queue_limit:int ->
  ?default_quota_bits:float ->
  string ->
  config

val run : ?service:Service.t -> config -> unit
(** Bind [config.socket_path] (unlinking any stale socket first) and
    serve connections until a [shutdown] request arrives; the socket
    is closed and unlinked on the way out, including on exceptions.
    Pass [?service] to serve a pre-configured {!Service.t} (tests).

    Sets SIGPIPE to ignored for the whole process: a client that hangs
    up, or any other read or write error on a connection, ends that
    connection only. Responses are written in one flush each, except
    that a [stream] response is also flushed after every ready burst
    of verdicts ({!Timeprint.Plan.run_stream_emit}). *)

(** {1 Client side} *)

type connection = in_channel * out_channel

val connect : string -> (connection, string) result

val request :
  connection ->
  body:string list ->
  string ->
  on_line:(string -> unit) ->
  ([ `Ok of string | `Err of string ], string) result
(** Send one request line plus [body] lines, read the response header
    and feed each payload line to [on_line] as it arrives. Returns the
    header line itself ([`Ok] or [`Err]); [Error] means a transport
    failure (truncated or garbled response). *)

val close : connection -> unit
