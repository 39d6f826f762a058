(* In-process replays of the daemon's request handling.

   [serve] is what the daemon does with a request minus the socket:
   parse, call {!Tp_service.Service}, render. Timed beside the socket
   round trip it gives the daemon's I/O cost.

   [traced] replays the same request layer by layer, calling the
   public functions in the order [Service.stream],
   [Service.reconstruct] and [Plan.run_stream_emit] call them, with a
   span around each call. Its rendered lines must be byte-identical to
   the daemon's response — that is what proves the replica still
   follows the program. *)

open Timeprint
open Tp_service
open Perfbench_core

let parse_body body =
  List.map
    (fun l ->
      match Wire.parse_entry l with Ok e -> e | Error msg -> failwith msg)
    body

let stream_header ~design ~n =
  Wire.ok_line [ ("design", design); ("n", string_of_int n) ] ~lines:(n + 1)

let reconstruct_response ~design ~max_solutions outcome served =
  let payload = Render.outcome_lines ~max_solutions outcome in
  let cached, engine =
    match served with
    | `Cache -> ("1", "cache")
    | `Ran report -> ("0", report.Plan.chosen)
  in
  Wire.ok_line
    [ ("design", design); ("cached", cached); ("engine", engine) ]
    ~lines:(List.length payload)
  :: payload

(* ------------------------------------------------------------------ *)
(* Untraced                                                            *)

let serve svc ~line ~body =
  match Wire.parse_request line with
  | Ok (Wire.Stream { design; tenant; n; repair; jobs }) -> (
      let entries = parse_body body in
      let lines = ref [] and triages = ref [] in
      match
        Service.stream svc ?tenant ~design ~repair ?jobs entries
          ~emit:(fun i t ->
            triages := t :: !triages;
            lines := Render.entry_line i t :: !lines)
      with
      | Error e -> [ Wire.err_line e ]
      | Ok () ->
          stream_header ~design ~n
          :: List.rev_append !lines
               [ Render.summary_line (Render.count !triages) ])
  | Ok
      (Wire.Reconstruct
        { design; tenant; entry; answer; assume; conflict_budget; jobs;
          max_solutions }) -> (
      match
        Service.reconstruct svc ?tenant ~design ~assume ?conflict_budget ?jobs
          ~answer entry
      with
      | Error e -> [ Wire.err_line e ]
      | Ok { Service.outcome; served } ->
          reconstruct_response ~design ~max_solutions outcome served)
  | Ok _ -> failwith ("replay: unexpected request " ^ line)
  | Error msg -> [ Wire.err_line (Service.Bad_request msg) ]

(* ------------------------------------------------------------------ *)
(* Traced                                                              *)

(* Exact work counts over a set of requests (the workload's, or the
   warm-ups'): two replays of one seed must agree on every one. *)
type counts = {
  mutable entries : int;
  mutable stream_entries : int;
  mutable presolve : int;
  mutable mitm : int;
  mutable sat : int;
  mutable repaired : int;
  mutable quarantined : int;
  mutable conflicts : int;
  mutable propagations : int;
  mutable decisions : int;
  mutable gauss_props : int;
  mutable plan_runs : int;
  mutable sat_engine : int;
}

let counts () =
  {
    entries = 0;
    stream_entries = 0;
    presolve = 0;
    mitm = 0;
    sat = 0;
    repaired = 0;
    quarantined = 0;
    conflicts = 0;
    propagations = 0;
    decisions = 0;
    gauss_props = 0;
    plan_runs = 0;
    sat_engine = 0;
  }

let add_stats c (st : Tp_sat.Solver.stats) =
  c.conflicts <- c.conflicts + st.conflicts;
  c.propagations <- c.propagations + st.propagations;
  c.decisions <- c.decisions + st.decisions;
  c.gauss_props <- c.gauss_props + st.gauss_props

(* Service's query fingerprint (private there): everything that
   determines the answer apart from the entry. The replay only needs
   it to tell distinct queries apart in its own cache. *)
let fingerprint ~assume ~conflict_budget answer =
  Format.asprintf "%a|%a|%s|auto" Query.pp_answer answer
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "&")
       Property.pp)
    assume
    (match conflict_budget with None -> "-" | Some b -> string_of_int b)

(* Service.stream's admission price: per-entry estimates, log₂-summed. *)
let stream_cost sp ~req ~parent session ~assume ~repair entries =
  let answer =
    if repair > 0 then Query.Repair { max_flips = repair; k_slack = 0 }
    else Query.First
  in
  let encoding = Plan.session_encoding session in
  let bits =
    List.filter_map
      (fun e ->
        let s = Span.enter sp ~req ~parent "plan.estimate" in
        let r =
          match Query.make ~assume ~answer encoding e with
          | q -> Some (Plan.cost_estimate session q)
          | exception Invalid_argument _ -> None
        in
        Span.leave sp s;
        r)
      entries
  in
  match bits with
  | [] -> 0.
  | b ->
      let hi = List.fold_left Float.max neg_infinity b in
      let sum = List.fold_left (fun a x -> a +. (2. ** (x -. hi))) 0. b in
      hi +. (Float.log sum /. Float.log 2.)

(* Plan.run_stream_emit without [jobs], call for call. *)
let plan_stream sp ~req ~parent counts session ~assume ~repair entries ~emit =
  let encoding = Plan.session_encoding session in
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let out = Array.make n None in
  let sat_idx = ref [] in
  let m = Encoding.m encoding in
  let mitm_fast k =
    Combinatorial_reconstruct.feasible encoding ~k
    && (k <= 4 || Engine.mitm_cost_bits ~m ~k < Engine.sat_cost_baseline)
  in
  let shared = Plan.session_shared session in
  Array.iteri
    (fun i e ->
      let s = Span.enter sp ~req ~parent "presolve" in
      let refuted = Presolve.refutes_with shared e in
      Span.leave sp s;
      if refuted then
        if repair = 0 then
          out.(i) <- Some (`Unsat, Sat_reconstruct.Quarantined, `Presolve)
        else sat_idx := i :: !sat_idx
      else if assume = [] && mitm_fast (Log_entry.k e) then begin
        let s = Span.enter sp ~req ~parent "mitm" in
        let r =
          Combinatorial_reconstruct.first ~table:(Plan.session_table session)
            encoding e
        in
        Span.leave sp s;
        match r with
        | Some w -> out.(i) <- Some (`Signal w, Sat_reconstruct.Clean, `Mitm)
        | None ->
            if repair = 0 then
              out.(i) <- Some (`Unsat, Sat_reconstruct.Quarantined, `Mitm)
            else sat_idx := i :: !sat_idx
      end
      else sat_idx := i :: !sat_idx)
    entries;
  let sat_idx = List.rev !sat_idx in
  let next = ref 0 in
  let flush () =
    let s = Span.enter sp ~req ~parent "render" in
    let first = !next in
    while !next < n && out.(!next) <> None do
      (match out.(!next) with Some r -> emit !next r | None -> assert false);
      incr next
    done;
    Span.set_work sp s (!next - first);
    Span.leave sp s
  in
  flush ();
  (match sat_idx with
  | [] -> ()
  | _ ->
      let selected = List.map (fun i -> entries.(i)) sat_idx in
      let s = Span.enter sp ~req ~parent "batch" in
      let results =
        Sat_reconstruct.batch ~assume ~presolve:(repair > 0) ~repair ~shared
          ?warm:(Plan.session_warm session) encoding selected
      in
      Span.leave sp s;
      Span.set_work sp s (List.length selected);
      List.iter2
        (fun i (v, h, st) -> out.(i) <- Some (v, h, `Sat st))
        sat_idx results);
  flush ();
  let c = counts in
  Array.iter
    (function
      | Some (_, h, tag) -> (
          c.stream_entries <- c.stream_entries + 1;
          (match h with
          | Sat_reconstruct.Clean -> ()
          | Sat_reconstruct.Repaired _ -> c.repaired <- c.repaired + 1
          | Sat_reconstruct.Quarantined -> c.quarantined <- c.quarantined + 1);
          match tag with
          | `Presolve -> c.presolve <- c.presolve + 1
          | `Mitm -> c.mitm <- c.mitm + 1
          | `Sat st ->
              c.sat <- c.sat + 1;
              add_stats c st)
      | None -> assert false)
    out

let span sp ~req ~parent name f =
  let s = Span.enter sp ~req ~parent name in
  let r = f () in
  Span.leave sp s;
  r

let traced_stream sp ~req ~root counts svc ~line ~body =
  let parsed, entries =
    span sp ~req ~parent:root "wire.parse" (fun () ->
        let parsed = Wire.parse_request line in
        (parsed, parse_body body))
  in
  match parsed with
  | Ok (Wire.Stream { design; tenant; n; repair; jobs = None }) -> (
      let tenant = Option.value tenant ~default:Service.default_tenant in
      match
        span sp ~req ~parent:root "registry.find" (fun () ->
            Design_registry.find (Service.registry svc) design)
      with
      | None -> [ Wire.err_line (Service.Unknown_design design) ]
      | Some session -> (
          let encoding = Plan.session_encoding session in
          if
            List.exists
              (fun e ->
                Tp_bitvec.Bitvec.width (Log_entry.tp e) <> Encoding.b encoding)
              entries
          then
            [
              Wire.err_line
                (Service.Bad_request "timeprint width does not match design");
            ]
          else if repair < 0 then
            [ Wire.err_line (Service.Bad_request "negative repair budget") ]
          else
            let s = Span.enter sp ~req ~parent:root "admission.price" in
            let cost_bits =
              stream_cost sp ~req ~parent:s session ~assume:[] ~repair entries
            in
            Span.leave sp s;
            Span.set_work sp s n;
            let adm = Service.admission svc in
            match
              span sp ~req ~parent:root "admission.admit" (fun () ->
                  Admission.admit adm ~tenant ~cost_bits)
            with
            | Error r -> [ Wire.err_line (Service.Rejected r) ]
            | Ok ticket ->
                let lines = ref [] and triages = ref [] in
                let s = Span.enter sp ~req ~parent:root "plan.stream" in
                plan_stream sp ~req ~parent:s counts session ~assume:[] ~repair
                  entries ~emit:(fun i t ->
                    triages := t :: !triages;
                    lines := Render.entry_line i t :: !lines);
                Span.leave sp s;
                Span.set_work sp s n;
                span sp ~req ~parent:root "admission.release" (fun () ->
                    Admission.release adm ticket);
                span sp ~req ~parent:root "render" (fun () ->
                    stream_header ~design ~n
                    :: List.rev_append !lines
                         [ Render.summary_line (Render.count !triages) ])))
  | _ -> failwith ("replay: expected a stream request without jobs: " ^ line)

let traced_reconstruct sp ~req ~root counts svc ~line =
  match span sp ~req ~parent:root "wire.parse" (fun () -> Wire.parse_request line) with
  | Ok
      (Wire.Reconstruct
        { design; tenant; entry; answer; assume; conflict_budget; jobs = None;
          max_solutions }) -> (
      let tenant = Option.value tenant ~default:Service.default_tenant in
      match
        span sp ~req ~parent:root "registry.find" (fun () ->
            Design_registry.find (Service.registry svc) design)
      with
      | None -> [ Wire.err_line (Service.Unknown_design design) ]
      | Some session -> (
          let encoding = Plan.session_encoding session in
          let cache = Service.cache svc in
          let fp = fingerprint ~assume ~conflict_budget answer in
          let render outcome served =
            span sp ~req ~parent:root "render" (fun () ->
                reconstruct_response ~design ~max_solutions outcome served)
          in
          match
            span sp ~req ~parent:root "cache.lookup" (fun () ->
                Result_cache.lookup cache ~design encoding entry ~fingerprint:fp)
          with
          | Some outcome -> render outcome `Cache
          | None -> (
              match
                span sp ~req ~parent:root "plan.estimate" (fun () ->
                    match
                      Query.make ~assume ?conflict_budget ~answer encoding entry
                    with
                    | q -> Ok (q, Plan.cost_estimate session q)
                    | exception Invalid_argument msg -> Error msg)
              with
              | Error msg -> [ Wire.err_line (Service.Bad_request msg) ]
              | Ok (q, cost_bits) -> (
                  let adm = Service.admission svc in
                  match
                    span sp ~req ~parent:root "admission.admit" (fun () ->
                        Admission.admit adm ~tenant ~cost_bits)
                  with
                  | Error r -> [ Wire.err_line (Service.Rejected r) ]
                  | Ok ticket ->
                      let outcome, report =
                        span sp ~req ~parent:root "plan.run" (fun () ->
                            Plan.run_in session q)
                      in
                      span sp ~req ~parent:root "admission.release" (fun () ->
                          Admission.release adm ticket);
                      counts.plan_runs <- counts.plan_runs + 1;
                      if report.Plan.chosen = "sat" then
                        counts.sat_engine <- counts.sat_engine + 1;
                      List.iter
                        (fun (st : Engine.stage) ->
                          Option.iter (add_stats counts) st.stats)
                        report.Plan.stages;
                      span sp ~req ~parent:root "cache.store" (fun () ->
                          Result_cache.store cache ~design encoding entry
                            ~fingerprint:fp outcome);
                      render outcome (`Ran report)))))
  | _ -> failwith ("replay: expected a reconstruct request without jobs: " ^ line)

(* One request, traced under a root span [request], its work added to
   [counts]. *)
let traced sp ~req counts svc (r : Gen.request) =
  let root = Span.enter sp ~req ~parent:(-1) "request" in
  let lines =
    match r.truth with
    | Gen.Log _ -> traced_stream sp ~req ~root counts svc ~line:r.line ~body:r.body
    | Gen.Ask _ -> traced_reconstruct sp ~req ~root counts svc ~line:r.line
  in
  Span.leave sp root;
  Span.set_work sp root (Gen.entries r);
  counts.entries <- counts.entries + Gen.entries r;
  lines

(* Design set-up, traced per design: timestamp generation, registry
   load (pack compile), and forcing the MITM tables' lazy triple half
   with one k = 5 lookup. *)
let traced_setup sp svc (designs : Gen.design array) =
  Array.iter
    (fun (d : Gen.design) ->
      let m = Encoding.m d.enc in
      let enc =
        span sp ~req:(-1) ~parent:(-1) "encoding.generate" (fun () ->
            Encoding.random_constrained_auto ~depth:4 ~seed:d.d_seed ~m ())
      in
      if
        not
          (Array.for_all2 Tp_bitvec.Bitvec.equal (Encoding.timestamps enc)
             (Encoding.timestamps d.enc))
      then failwith "replay: regenerated design differs";
      let session, _ =
        span sp ~req:(-1) ~parent:(-1) "registry.load" (fun () ->
            Service.load svc ~name:d.d_name enc)
      in
      let k5 = Logger.abstract enc (Signal.of_changes ~m [ 0; 1; 2; 3; 4 ]) in
      span sp ~req:(-1) ~parent:(-1) "mitm.table" (fun () ->
          let table = Plan.session_table session in
          ignore (Combinatorial_reconstruct.first ~table enc k5)))
    designs
