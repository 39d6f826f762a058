open Timeprint

(* A deliberately simple daemon: one accept loop, connections served
   in arrival order on the daemon's own thread of control. The
   parallelism lives BELOW the protocol — a single stream request
   fans its SAT chunks out over the whole domain pool — so a second
   listener thread would only fight the pool for cores. Clients that
   want concurrency open one connection each and the bounded
   admission queue provides the backpressure. *)

type config = {
  socket_path : string;
  registry_capacity : int option;
  cache_capacity : int option;
  max_running : int option;
  queue_limit : int option;
  default_quota_bits : float option;
}

let config ?registry_capacity ?cache_capacity ?max_running ?queue_limit
    ?default_quota_bits socket_path =
  {
    socket_path;
    registry_capacity;
    cache_capacity;
    max_running;
    queue_limit;
    default_quota_bits;
  }

let service_of_config c =
  Service.create ?registry_capacity:c.registry_capacity
    ?cache_capacity:c.cache_capacity ?max_running:c.max_running
    ?queue_limit:c.queue_limit ?default_quota_bits:c.default_quota_bits ()

(* Lines are buffered: the connection loop flushes once per response,
   and a stream additionally once per ready burst of verdicts. *)
let write_line oc line =
  output_string oc line;
  output_char oc '\n'

let rec skip_lines ic n =
  if n > 0 then
    match input_line ic with
    | _ -> skip_lines ic (n - 1)
    | exception End_of_file -> ()

let pack_kvs session =
  let enc = Plan.session_encoding session in
  [
    ("rank", string_of_int (Plan.session_rank session));
    ("m", string_of_int (Encoding.m enc));
    ("b", string_of_int (Encoding.b enc));
  ]

let handle_load svc oc name spec =
  match spec with
  | `Encoding enc -> (
      match Service.load svc ~name enc with
      | session, status ->
          let status =
            match status with
            | `Hit -> "hit"
            | `Miss -> "compiled"
            | `Stale -> "recompiled"
          in
          write_line oc
            (Wire.ok_line
               ((("design", name) :: ("status", status) :: pack_kvs session))
               ~lines:0)
      | exception Invalid_argument msg ->
          write_line oc (Wire.err_line (Service.Bad_request msg)))
  | `Pack_file path -> (
      match Pack.load path with
      | Error e ->
          write_line oc
            (Wire.err_line
               (Service.Bad_request (Format.asprintf "%a" Pack.pp_load_error e)))
      | Ok pack ->
          let session = Service.load_pack svc ~name pack in
          write_line oc
            (Wire.ok_line
               (("design", name) :: ("status", "loaded") :: pack_kvs session)
               ~lines:0))

let handle_reconstruct svc oc (r : Wire.request) =
  match r with
  | Wire.Reconstruct
      { design; tenant; entry; answer; assume; conflict_budget; jobs;
        max_solutions } -> (
      match
        Service.reconstruct svc ?tenant ~design ~assume ?conflict_budget ?jobs
          ~answer entry
      with
      | Error e -> write_line oc (Wire.err_line e)
      | Ok { Service.outcome; served } ->
          let payload = Render.outcome_lines ~max_solutions outcome in
          let cached, engine =
            match served with
            | `Cache -> ("1", "cache")
            | `Ran report -> ("0", report.Plan.chosen)
          in
          write_line oc
            (Wire.ok_line
               [ ("design", design); ("cached", cached); ("engine", engine) ]
               ~lines:(List.length payload));
          List.iter (write_line oc) payload)
  | _ -> assert false

(* Read the [n] body lines of a stream request. The protocol is
   stricter than the CLI's log reader: a malformed body line is a
   [bad-request] error (after consuming the remaining body, so the
   connection stays line-synchronized), not a skip — a lost line
   would silently shift every later entry index. *)
let read_stream_body ic n =
  let rec go acc i =
    if i = n then Ok (List.rev acc)
    else
      match input_line ic with
      | exception End_of_file -> Error "stream body truncated"
      | line -> (
          match Wire.parse_entry line with
          | Ok e -> go (e :: acc) (i + 1)
          | Error msg ->
              skip_lines ic (n - i - 1);
              Error msg)
  in
  go [] 0

let handle_stream svc ic oc (r : Wire.request) =
  match r with
  | Wire.Stream { design; tenant; n; repair; jobs } -> (
      match read_stream_body ic n with
      | Error msg -> write_line oc (Wire.err_line (Service.Bad_request msg))
      | Ok entries -> (
          (* verdict lines stream out as chunks complete, one write
             per ready burst; the summary is the final payload line.
             [lines] is known upfront so the client's framing never
             depends on timing. *)
          let triages = ref [] in
          let emit i t =
            triages := t :: !triages;
            write_line oc (Render.entry_line i t)
          in
          let header_written = ref false in
          let write_header () =
            if not !header_written then begin
              header_written := true;
              write_line oc
                (Wire.ok_line
                   [ ("design", design); ("n", string_of_int n) ]
                   ~lines:(n + 1))
            end
          in
          match
            Service.stream svc ?tenant ~design ~repair ?jobs
              ~flush:(fun () -> flush oc)
              entries
              ~emit:(fun i t ->
                write_header ();
                emit i t)
          with
          | Error e -> write_line oc (Wire.err_line e)
          | Ok () ->
              write_header () (* n = 0: no emit happened *);
              write_line oc (Render.summary_line (Render.count !triages))))
  | _ -> assert false

(* Flow bodies are raw {!Flow_spec} lines — consumed in full before
   parsing, so a spec error never desynchronizes the connection. *)
let read_flow_body ic n =
  let rec go acc i =
    if i = n then Ok (List.rev acc)
    else
      match input_line ic with
      | exception End_of_file -> Error "flow body truncated"
      | line -> go (line :: acc) (i + 1)
  in
  go [] 0

let handle_flow svc ic oc (r : Wire.request) =
  match r with
  | Wire.Flow { mode; tenant; n; repair; jobs; max_alts; budget } -> (
      match read_flow_body ic n with
      | Error msg -> write_line oc (Wire.err_line (Service.Bad_request msg))
      | Ok body -> (
          match Tp_flow.Flow_spec.parse body with
          | Error msg ->
              write_line oc (Wire.err_line (Service.Bad_request msg))
          | Ok spec -> (
              match mode with
              | `Reconstruct -> (
                  match Tp_flow.Flow_spec.channels spec with
                  | Error msg ->
                      write_line oc
                        (Wire.err_line (Service.Bad_request msg))
                  | Ok channels -> (
                      match
                        Service.flow svc ?tenant ~repair ?jobs ?max_alts
                          channels spec.Tp_flow.Flow_spec.sp_templates
                      with
                      | Error e -> write_line oc (Wire.err_line e)
                      | Ok { Service.fl_observed; fl_stitched } ->
                          let payload =
                            List.map Render.flow_health_line fl_observed
                            @ List.map Render.flow_line
                                fl_stitched.Tp_flow.Flow.flows
                            @ [ Render.flow_summary_line fl_stitched ]
                          in
                          write_line oc
                            (Wire.ok_line
                               [
                                 ("mode", "reconstruct");
                                 ( "channels",
                                   string_of_int (List.length fl_observed) );
                                 ( "flows",
                                   string_of_int
                                     (List.length
                                        fl_stitched.Tp_flow.Flow.flows) );
                               ]
                               ~lines:(List.length payload));
                          List.iter (write_line oc) payload))
              | `Select -> (
                  match Tp_flow.Flow_spec.candidates spec with
                  | Error msg ->
                      write_line oc
                        (Wire.err_line (Service.Bad_request msg))
                  | Ok candidates -> (
                      let budget =
                        match budget with
                        | Some b -> Some b
                        | None -> spec.Tp_flow.Flow_spec.sp_budget
                      in
                      match budget with
                      | None ->
                          write_line oc
                            (Wire.err_line
                               (Service.Bad_request
                                  "select needs budget= (request or spec)"))
                      | Some budget -> (
                          match
                            Tp_flow.Select.select ~budget candidates
                              spec.Tp_flow.Flow_spec.sp_properties
                          with
                          | exception Invalid_argument msg ->
                              write_line oc
                                (Wire.err_line (Service.Bad_request msg))
                          | report ->
                              let payload =
                                Tp_flow.Select.report_lines report
                              in
                              write_line oc
                                (Wire.ok_line
                                   [
                                     ("mode", "select");
                                     ("budget", string_of_int budget);
                                   ]
                                   ~lines:(List.length payload));
                              List.iter (write_line oc) payload))))))
  | _ -> assert false

exception Shutdown_requested

let handle_request svc ic oc line =
  match Wire.parse_request line with
  | Error msg ->
      (* a stream/flow header that fails to parse still frames its
         body: consume it, or each body line would be read as a
         request of its own *)
      Option.iter (skip_lines ic) (Wire.body_lines line);
      write_line oc (Wire.err_line (Service.Bad_request msg))
  | Ok (Wire.Load { name; spec }) -> handle_load svc oc name spec
  | Ok (Wire.Quota { tenant; bits }) ->
      Service.set_quota svc ~tenant bits;
      write_line oc
        (Wire.ok_line
           [ ("tenant", tenant); ("quota_bits", Printf.sprintf "%g" bits) ]
           ~lines:0)
  | Ok (Wire.Reconstruct _ as r) -> handle_reconstruct svc oc r
  | Ok (Wire.Stream _ as r) -> handle_stream svc ic oc r
  | Ok (Wire.Flow _ as r) -> handle_flow svc ic oc r
  | Ok Wire.Stats ->
      let lines = Service.stats_lines svc in
      write_line oc (Wire.ok_line [] ~lines:(List.length lines));
      List.iter (write_line oc) lines
  | Ok Wire.Shutdown ->
      write_line oc (Wire.ok_line [ ("bye", "1") ] ~lines:0);
      raise Shutdown_requested

let serve_connection svc fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        if String.trim line <> "" then begin
          handle_request svc ic oc line;
          flush oc
        end;
        loop ()
  in
  (* A read or write error (a client that hung up mid-response, with
     SIGPIPE ignored) ends this connection only. Closing through [oc]
     closes the descriptor and drops the channel's unsent bytes with
     it, so nothing can later be flushed into a reused descriptor. *)
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> try loop () with Sys_error _ -> ())

let run ?(service : Service.t option) config =
  let svc =
    match service with Some s -> s | None -> service_of_config config
  in
  let path = config.socket_path in
  (* a peer that closes early must surface as a write error on its own
     connection, not as a signal that kills the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        match serve_connection svc fd with
        | () -> accept_loop ()
        | exception Shutdown_requested -> ()
      in
      accept_loop ())

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)

type connection = in_channel * out_channel

let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect sock (Unix.ADDR_UNIX path) with
  | () -> Ok (Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))

let request (ic, oc) ~body line ~on_line =
  output_string oc line;
  output_char oc '\n';
  List.iter
    (fun b ->
      output_string oc b;
      output_char oc '\n')
    body;
  flush oc;
  match input_line ic with
  | exception End_of_file -> Error "connection closed before response"
  | header -> (
      match Wire.parse_response_header header with
      | `Err -> Ok (`Err header)
      | `Garbled -> Error (Printf.sprintf "garbled response %S" header)
      | `Ok n ->
          let rec go i =
            if i = n then Ok (`Ok header)
            else
              match input_line ic with
              | exception End_of_file -> Error "response truncated"
              | l ->
                  on_line l;
                  go (i + 1)
          in
          go 0)

let close (ic, oc) =
  (try flush oc with Sys_error _ -> ());
  try close_in ic with Sys_error _ -> ()
