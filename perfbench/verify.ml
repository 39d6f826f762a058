(* The correctness gate: every response is checked against the
   generator's ground truth. A wrong answer raises [Wrong] (the run
   fails and prints no numbers); an [err] response or an exhausted
   solver budget only lowers the answered share. *)

open Timeprint
open Perfbench_core
module Bitvec = Tp_bitvec.Bitvec

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

let after ~prefix s =
  String.sub s (String.length prefix) (String.length s - String.length prefix)

(* The first occurrence of [sep] in [s]. *)
let split_once ~sep s =
  let n = String.length s and k = String.length sep in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sep then
      Some (String.sub s 0 i, String.sub s (i + k) (n - i - k))
    else go (i + 1)
  in
  go 0

type health = Clean | Repaired of int | Quarantined

let health_of_string s =
  match s with
  | "clean" -> Some Clean
  | "quarantined" -> Some Quarantined
  | _ -> (
      match Scanf.sscanf_opt s "repaired (error weight %d)%!" Fun.id with
      | Some w -> Some (Repaired w)
      | None -> None)

let signal_of ~m s =
  if String.length s <> m || not (String.for_all (fun c -> c = '0' || c = '1') s)
  then None
  else Some (Signal.of_string s)

let exhausted_suffix = " (solver budget exhausted)"

(* One triaged stream entry against its logged ground truth. *)
let check_entry enc ~repair i (l : Gen.logged) line =
  let prefix = Printf.sprintf "entry %d: " i in
  if not (String.starts_with ~prefix line) then wrong "entry %d: bad line %S" i line;
  let rest = after ~prefix line in
  if String.ends_with ~suffix:exhausted_suffix rest then
    let h = String.sub rest 0 (String.length rest - String.length exhausted_suffix) in
    match health_of_string h with
    | Some h -> (h, Bench_stats.Exhausted)
    | None -> wrong "entry %d: bad health in %S" i line
  else
    let h, signal =
      match split_once ~sep:"  " rest with
      | Some (h, s) -> (h, Some s)
      | None -> (rest, None)
    in
    let m = Encoding.m enc in
    let signal =
      Option.map
        (fun s ->
          match signal_of ~m s with
          | Some s -> s
          | None -> wrong "entry %d: bad witness in %S" i line)
        signal
    in
    let h =
      match health_of_string h with
      | Some h -> h
      | None -> wrong "entry %d: bad health in %S" i line
    in
    let logged = l.entry in
    (match (h, signal, l.flipped) with
    | Clean, Some s, _ ->
        if not (Log_entry.equal (Logger.abstract enc s) logged) then
          wrong "entry %d: witness does not map back to the logged entry" i;
        if l.flipped = None && Log_entry.k logged <= 2
           && not (Signal.equal s l.signal)
        then wrong "entry %d: k<=2 witness differs from the injected signal" i
    | Repaired w, Some s, Some _ ->
        if repair < 1 || w <> 1 then
          wrong "entry %d: one flipped bit came back repaired with weight %d" i w;
        let a = Logger.abstract enc s in
        if Log_entry.k a <> Log_entry.k logged
           || Bitvec.popcount (Bitvec.logxor (Log_entry.tp a) (Log_entry.tp logged)) <> w
        then wrong "entry %d: repaired witness is not %d flip(s) from the log" i w
    | Quarantined, None, Some _ ->
        if repair >= 1 then
          wrong "entry %d: a one-bit flip was quarantined under repair=%d" i repair
    | Quarantined, None, None -> wrong "entry %d: unfaulted entry quarantined" i
    | Repaired _, Some _, None -> wrong "entry %d: unfaulted entry repaired" i
    | _ -> wrong "entry %d: malformed verdict %S" i line);
    (h, Bench_stats.Answered)

let check_stream enc ~repair logged payload =
  let n = Array.length logged in
  let payload = Array.of_list payload in
  if Array.length payload <> n + 1 then
    wrong "stream: %d payload lines for %d entries" (Array.length payload) n;
  let clean = ref 0 and repaired = ref 0 and quarantined = ref 0 in
  let tally =
    Array.to_list logged
    |> List.mapi (fun i l ->
           let h, r = check_entry enc ~repair i l payload.(i) in
           (match h with
           | Clean -> incr clean
           | Repaired _ -> incr repaired
           | Quarantined -> incr quarantined);
           r)
    |> List.fold_left Bench_stats.add Bench_stats.empty
  in
  let summary =
    Printf.sprintf "%d clean, %d repaired, %d quarantined" !clean !repaired
      !quarantined
  in
  if payload.(n) <> summary then
    wrong "stream: summary %S, entries say %S" payload.(n) summary;
  tally

let check_ask enc ~entry ~prop ~count payload =
  let one r = Bench_stats.add Bench_stats.empty r in
  match payload with
  | [ "unknown" ] -> one Bench_stats.Exhausted
  | [ "unsat" ] -> wrong "query: unsat, but the ground truth satisfies it"
  | [ line ] when count -> (
      match
        Scanf.sscanf_opt line "count %d %s@\n" (fun n kind -> (n, kind))
      with
      | Some (0, "lower-bound") -> one Bench_stats.Exhausted
      | Some (n, ("exact" | "lower-bound")) when n >= 1 -> one Bench_stats.Answered
      | _ -> wrong "query: bad count %S" line)
  | [ line ] -> (
      match signal_of ~m:(Encoding.m enc) line with
      | None -> wrong "query: bad witness %S" line
      | Some s ->
          if not (Log_entry.equal (Logger.abstract enc s) entry) then
            wrong "query: witness does not map back to the entry";
          if not (Property.eval prop s) then
            wrong "query: witness violates the assumed property";
          one Bench_stats.Answered)
  | _ -> wrong "query: %d payload lines" (List.length payload)

(* Check one response. [original] gives the payload an earlier query
   with the same line got (for word-for-word repeats). *)
let check (designs : Gen.design array) ~original (r : Gen.request) response =
  match response with
  | `Err _ -> Bench_stats.add_many Bench_stats.empty Bench_stats.Refused (Gen.entries r)
  | `Ok (header, payload) -> (
      (match Tp_service.Wire.parse_response_header header with
      | `Ok n when n = List.length payload -> ()
      | _ -> wrong "bad response header %S" header);
      match r.truth with
      | Gen.Log { design; repair; logged } ->
          check_stream designs.(design).enc ~repair logged payload
      | Gen.Ask { design; entry; prop; count; repeat; _ } ->
          let t = check_ask designs.(design).enc ~entry ~prop ~count payload in
          (if repeat then
             match original r.line with
             | Some p when p = payload -> ()
             | Some _ -> wrong "query repeat changed its answer: %S" r.line
             | None -> wrong "query repeat of an unseen query: %S" r.line);
          t)
