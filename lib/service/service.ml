open Timeprint

type error =
  | Unknown_design of string
  | Rejected of Admission.rejection
  | Bad_request of string

let error_line = function
  | Unknown_design name -> Printf.sprintf "code=unknown-design design=%s" name
  | Rejected r -> Admission.rejection_line r
  | Bad_request msg -> Printf.sprintf "code=bad-request msg=%S" msg

type t = {
  registry : Design_registry.t;
  admission : Admission.t;
  cache : Result_cache.t;
  meta_mutex : Mutex.t;
  mutable last_meta : string;
}

let create ?registry_capacity ?cache_capacity ?max_running ?queue_limit
    ?default_quota_bits () =
  let t =
    {
      registry = Design_registry.create ?capacity:registry_capacity ();
      admission = Admission.create ?max_running ?queue_limit ?default_quota_bits ();
      cache = Result_cache.create ?capacity:cache_capacity ();
      meta_mutex = Mutex.create ();
      last_meta = "none";
    }
  in
  (* an evicted or replaced design's cached results answer a design
     the registry no longer serves — drop them with it *)
  Design_registry.on_evict t.registry (fun name ->
      Result_cache.invalidate t.cache ~design:name);
  t

let registry t = t.registry
let admission t = t.admission
let cache t = t.cache

let set_quota t ~tenant bits = Admission.set_quota t.admission ~tenant bits

let load t ~name encoding =
  let session, status = Design_registry.load t.registry ~name encoding in
  (* a stale reload changed the design under the name: its cached
     results answer the OLD linear system (the shard's shape check
     cannot catch a same-shape different-timestamps swap), so drop
     the shard with the pack *)
  if status = `Stale then Result_cache.invalidate t.cache ~design:name;
  (session, status)

let load_pack t ~name pack =
  Result_cache.invalidate t.cache ~design:name;
  Design_registry.put t.registry ~name pack

let default_tenant = "anon"

let note_meta t report =
  Mutex.lock t.meta_mutex;
  t.last_meta <- Plan.meta_line report;
  Mutex.unlock t.meta_mutex

(* The query fingerprint: everything that determines the answer apart
   from the entry itself. Renders through the library's own printers,
   which are deterministic in the value. *)
let fingerprint ~engine ~assume ~conflict_budget answer =
  Format.asprintf "%a|%a|%s|%s" Query.pp_answer answer
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "&")
       Property.pp)
    assume
    (match conflict_budget with None -> "-" | Some b -> string_of_int b)
    (match engine with
    | `Auto -> "auto"
    | `Sat -> "sat"
    | `Linear -> "linear"
    | `Mitm -> "mitm")

type reconstructed = {
  outcome : Engine.outcome;
  served : [ `Cache | `Ran of Plan.report ];
}

let reconstruct t ?(tenant = default_tenant) ~design ?(engine = `Auto)
    ?(assume = []) ?conflict_budget ?jobs ~answer entry =
  match Design_registry.find t.registry design with
  | None -> Error (Unknown_design design)
  | Some session -> (
      let encoding = Plan.session_encoding session in
      let fp = fingerprint ~engine ~assume ~conflict_budget answer in
      (* the lookup comes before query validation: a hit proves the
         identical query validated when it was first answered, and a
         malformed entry can never be a hit — so the hit path is a
         hash probe, bypassing the planner, admission AND validation *)
      match
        Result_cache.lookup t.cache ~design encoding entry ~fingerprint:fp
      with
      | Some outcome -> Ok { outcome; served = `Cache }
      | None -> (
          match Query.make ~assume ?conflict_budget ~answer encoding entry with
          | exception Invalid_argument msg -> Error (Bad_request msg)
          | q -> (
              let cost_bits = Plan.cost_estimate session q in
              match
                Admission.with_ticket t.admission ~tenant ~cost_bits (fun () ->
                    Plan.run_in ~engine ?jobs session q)
              with
              | Error r -> Error (Rejected r)
              | Ok (outcome, report) ->
                  note_meta t report;
                  Result_cache.store t.cache ~design encoding entry
                    ~fingerprint:fp outcome;
                  Ok { outcome; served = `Ran report })))

(* Cost bits are log₂ of solver steps, so the price of several jobs
   under one ticket is the log₂ of their summed steps: a log-sum-exp,
   shifted by the largest term to stay in range. Keep the fold order:
   perfbench's replay prices streams with a copy of [stream_cost] and
   must reach the same [cost_bits_admitted] to the last bit. *)
let log2_sum_exp = function
  | [] -> 0.
  | b ->
      let hi = List.fold_left Float.max neg_infinity b in
      let sum = List.fold_left (fun a x -> a +. (2. ** (x -. hi))) 0. b in
      hi +. (Float.log sum /. Float.log 2.)

(* Price a whole stream: admission charges one ticket for the log,
   log₂-summed over the per-entry estimates. *)
let stream_cost session ~assume ~repair entries =
  let answer =
    if repair > 0 then Query.Repair { max_flips = repair; k_slack = 0 }
    else Query.First
  in
  let encoding = Plan.session_encoding session in
  let bits =
    List.filter_map
      (fun e ->
        match Query.make ~assume ~answer encoding e with
        | q -> Some (Plan.cost_estimate session q)
        | exception Invalid_argument _ -> None)
      entries
  in
  log2_sum_exp bits

let stream t ?(tenant = default_tenant) ~design ?(assume = []) ?(repair = 0)
    ?jobs ?flush entries ~emit =
  match Design_registry.find t.registry design with
  | None -> Error (Unknown_design design)
  | Some session -> (
      let encoding = Plan.session_encoding session in
      let bad =
        List.exists
          (fun e ->
            Tp_bitvec.Bitvec.width (Log_entry.tp e) <> Encoding.b encoding)
          entries
      in
      if bad then Error (Bad_request "timeprint width does not match design")
      else if repair < 0 then Error (Bad_request "negative repair budget")
      else
        let cost_bits = stream_cost session ~assume ~repair entries in
        match
          Admission.with_ticket t.admission ~tenant ~cost_bits (fun () ->
              Plan.run_stream_emit ~assume ~repair ?jobs ?flush session entries
                ~emit)
        with
        | Error r -> Error (Rejected r)
        | Ok () -> Ok ())

type flow_result = {
  fl_observed : Tp_flow.Flow.observed list;
  fl_stitched : Tp_flow.Flow.stitched;
}

let flow t ?(tenant = default_tenant) ?(repair = 0) ?jobs ?max_alts channels
    templates =
  if repair < 0 then Error (Bad_request "negative repair budget")
  else if channels = [] then Error (Bad_request "no channels")
  else begin
    let sessions =
      List.map
        (fun (ch : Tp_flow.Flow.channel) ->
          let session, _ = load t ~name:("flow:" ^ ch.name) ch.encoding in
          (ch, session))
        channels
    in
    match
      List.find_opt
        (fun ((ch : Tp_flow.Flow.channel), _) ->
          List.exists
            (fun e ->
              Tp_bitvec.Bitvec.width (Log_entry.tp e)
              <> Encoding.b ch.encoding)
            ch.entries)
        sessions
    with
    | Some (ch, _) ->
        Error
          (Bad_request
             (Printf.sprintf "channel %s: timeprint width does not match"
                ch.name))
    | None -> (
        (* one ticket for the whole flow, log₂-summed over the
           per-channel stream costs (the per-entry ambiguity probes
           ride inside the same estimate regime) *)
        let cost_bits =
          log2_sum_exp
            (List.map
               (fun ((ch : Tp_flow.Flow.channel), session) ->
                 stream_cost session ~assume:[] ~repair ch.entries)
               sessions)
        in
        match
          Admission.with_ticket t.admission ~tenant ~cost_bits (fun () ->
              let observed =
                List.map
                  (fun (ch, session) ->
                    Tp_flow.Flow.observe ~repair ?jobs ?max_alts session ch)
                  sessions
              in
              (observed, Tp_flow.Flow.stitch observed templates))
        with
        | Error r -> Error (Rejected r)
        | Ok (observed, stitched) ->
            Ok { fl_observed = observed; fl_stitched = stitched }
        | exception Invalid_argument msg -> Error (Bad_request msg))
  end

let stats_lines t =
  let r = Design_registry.stats t.registry in
  let c = Result_cache.stats t.cache in
  let a = Admission.stats t.admission in
  [
    Printf.sprintf
      "registry hits=%d misses=%d stales=%d evictions=%d size=%d capacity=%d \
       clones=%d"
      r.Design_registry.hits r.misses r.stales r.evictions r.size r.capacity
      r.clones;
    Printf.sprintf "cache hits=%d misses=%d evictions=%d entries=%d"
      c.Result_cache.hits c.misses c.evictions c.entries;
    Printf.sprintf
      "admission admitted=%d rejected_quota=%d rejected_queue=%d running=%d \
       queued=%d queued_peak=%d cost_bits_admitted=%.1f"
      a.Admission.admitted a.rejected_quota a.rejected_queue a.running a.queued
      a.queued_peak a.cost_bits_admitted;
    (Mutex.lock t.meta_mutex;
     let m = t.last_meta in
     Mutex.unlock t.meta_mutex;
     Printf.sprintf "plan %s" m);
  ]
