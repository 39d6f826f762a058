(* Pure helpers behind the benchmark's figures: percentiles with a tail
   rule, the answered-share tally, the daemon's VmHWM, JSON numbers. *)

(* The 1-based nearest rank ⌈pct·n/100⌉, in integer arithmetic: p90
   of 100 samples is rank 90, never 91 by float rounding. *)
let rank ~pct n = ((pct * n) + 99) / 100

(* How many of [n] samples lie above the nearest-rank percentile. *)
let beyond ~pct n = n - rank ~pct n

(* Nearest-rank percentile over [samples], refused unless at least
   [min_beyond] samples lie above its rank — a tail figure read off a
   handful of samples is noise, not a measurement. *)
let percentile ?(min_beyond = 10) ~pct samples =
  if pct < 1 || pct > 100 then invalid_arg "Bench_stats.percentile: pct";
  let n = Array.length samples in
  let rank = rank ~pct n and beyond = beyond ~pct n in
  if n = 0 then Error "no samples"
  else if beyond < min_beyond then
    Error
      (Printf.sprintf "p%d of %d samples has %d beyond it, needs %d" pct n
         beyond min_beyond)
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    Ok sorted.(rank - 1)
  end

(* How one attempted entry ended, as the answered share sees it. *)
type entry_result =
  | Answered  (** a definite answer that passed the correctness checks *)
  | Exhausted  (** the solver budget ran out ("unknown") *)
  | Refused  (** the request drew an [err] response *)

type tally = { attempted : int; answered : int }

let empty = { attempted = 0; answered = 0 }

let add t r =
  {
    attempted = t.attempted + 1;
    answered = (t.answered + match r with Answered -> 1 | _ -> 0);
  }

let add_many t r n =
  let rec go t i = if i = 0 then t else go (add t r) (i - 1) in
  go t n

let merge a b =
  { attempted = a.attempted + b.attempted; answered = a.answered + b.answered }

let failed t = t.attempted - t.answered

let answered_share t =
  if t.attempted = 0 then 0. else float t.answered /. float t.attempted

(* [VmHWM:   12345 kB] out of a /proc/<pid>/status text, in KiB. *)
let vmhwm_kib status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = "VmHWM" -> (
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             match
               String.split_on_char ' ' (String.trim rest)
               |> List.concat_map (String.split_on_char '\t')
               |> List.filter (fun s -> s <> "")
             with
             | [ v; "kB" ] -> int_of_string_opt v
             | _ -> None)
         | _ -> None)

(* A JSON number with every digit the float carries. *)
let json_number x =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> invalid_arg "Bench_stats.json_number: not finite"
  | _ ->
      if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
      else Printf.sprintf "%.17g" x
