(* Seeded workload generator. Everything the daemon sees — design load
   lines, warm-up requests, workload requests — is rendered here,
   together with the ground truth the checker needs. The same seed gives
   the same lines, byte for byte. *)

open Timeprint

type workload = Triage | Repair

let workload_of_string = function
  | "triage" -> Some Triage
  | "repair" -> Some Repair
  | _ -> None

let workload_name = function Triage -> "triage" | Repair -> "repair"
let tag = function Triage -> 1 | Repair -> 2

(* Shape of each workload (NOTES.md says why each number is what it
   is). *)
type shape = {
  m : int;  (** design size: cycles per trace-cycle *)
  designs : int;  (** designs loaded and rotated through *)
  log_len : int * int;
      (** shortest and longest stream request, in entries; lengths are
          log-uniform between them *)
  flips : int;  (** entries per 1000 with one TP bit flipped *)
  high_k : int;  (** entries per 1000 with k ∈ {7, 8} *)
  repair : int;  (** stream flip budget *)
  query_every : int;
      (** one property query after every [query_every] logs; 0 for none *)
  trace_requests : int;  (** fixed request count of a traced run *)
}

let shape = function
  | Triage ->
      { m = 128; designs = 4; log_len = (250, 4000); flips = 50; high_k = 0;
        repair = 0; query_every = 0; trace_requests = 40 }
  | Repair ->
      { m = 32; designs = 8; log_len = (200, 200); flips = 50; high_k = 30;
        repair = 1; query_every = 3; trace_requests = 80 }

(* Fixed SAT conflict budget of every query request. *)
let query_budget = 100_000

type design = {
  d_name : string;
  d_seed : int;
  enc : Encoding.t;
  load_line : string;
}

(* One logged trace-cycle: the injected signal, the entry as logged
   (after any fault) and the flipped TP bit, if any. *)
type logged = { signal : Signal.t; entry : Log_entry.t; flipped : int option }

type truth =
  | Log of { design : int; repair : int; logged : logged array }
  | Ask of {
      design : int;
      signal : Signal.t;
      entry : Log_entry.t;
      prop : Property.t;
      count : bool;
      repeat : bool;  (** a word-for-word repeat of an earlier query *)
    }

type request = { line : string; body : string list; truth : truth }

let entries r = match r.truth with Log { logged; _ } -> Array.length logged | Ask _ -> 1

let rng seed parts = Random.State.make (Array.append [| seed |] parts)

(* The designs are the same for every workload seed: they are the
   system's configuration, the seed varies the traffic. Seeded designs
   differ in SAT difficulty and in generation time by ±20 %, which with
   a handful of designs per run swamped every figure's seed-to-seed
   spread (NOTES.md). *)
let design_seed = 2019

let designs w =
  let s = shape w in
  Array.init s.designs (fun i ->
      let d_seed = Hashtbl.hash (design_seed, tag w, i) land 0x3FFF_FFFF in
      let d_name = Printf.sprintf "d%d" i in
      {
        d_name;
        d_seed;
        enc = Encoding.random_constrained_auto ~depth:4 ~seed:d_seed ~m:s.m ();
        load_line =
          Printf.sprintf "load name=%s scheme=random m=%d seed=%d depth=4"
            d_name s.m d_seed;
      })

(* [n] distinct indices below [bound], by partial Fisher–Yates. *)
let distinct rng ~n ~bound =
  let idx = Array.init bound Fun.id in
  for i = 0 to n - 1 do
    let j = i + Random.State.int rng (bound - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 n

let stream_request designs ~design ~repair logged =
  let d = designs.(design) in
  {
    line =
      Printf.sprintf "stream design=%s n=%d repair=%d" d.d_name
        (Array.length logged) repair;
    body = Array.to_list (Array.map (fun l -> Tp_service.Wire.render_entry l.entry) logged);
    truth = Log { design; repair; logged };
  }

(* Log lengths are log-uniform over [log_len], stratified: each block
   of [length_strata] consecutive logs takes every stratum's midpoint
   once, in a seeded order, so the length mix of a run does not move
   with the seed. Triage spreads its lengths over 16x so that its
   latency percentiles move smoothly with the host's speed phases
   instead of jumping between them (NOTES.md). *)
let length_strata = 32

let log_length w ~seed n =
  let lo, hi = (shape w).log_len in
  let order =
    distinct
      (rng seed [| tag w; n / length_strata; 8 |])
      ~n:length_strata ~bound:length_strata
  in
  let u = (float order.(n mod length_strata) +. 0.5) /. float length_strata in
  let l = log (float lo) and h = log (float hi) in
  int_of_float (Float.round (exp (l +. (u *. (h -. l)))))

(* A log of [n] entries, k uniform on 0..5, except n·[high_k]/1000
   entries at k = 7, 8, 7, .. and n·[flips]/1000 entries with one TP bit
   flipped whose k cycle through 0..5. Fixing those counts per log
   (stratified rather than drawn) keeps the SAT work per request from
   swinging with the draw. *)
let make_log rng (s : shape) enc n =
  let m = Encoding.m enc and b = Encoding.b enc in
  let high_k = n * s.high_k / 1000 and flips = n * s.flips / 1000 in
  let special = distinct rng ~n:(high_k + flips) ~bound:n in
  let ks = Array.init n (fun _ -> Random.State.int rng 6) in
  Array.iteri
    (fun j i -> ks.(i) <- (if j < high_k then 7 + (j mod 2) else (j - high_k) mod 6))
    special;
  let logged =
    Array.map
      (fun k ->
        let signal = Signal.random rng ~m ~k in
        { signal; entry = Logger.abstract enc signal; flipped = None })
      ks
  in
  Array.iteri
    (fun j i ->
      if j >= high_k then begin
        let bit = Random.State.int rng b in
        let l = logged.(i) in
        logged.(i) <-
          { l with entry = Fault.flip_tp l.entry ~bits:[ bit ]; flipped = Some bit }
      end)
    special;
  logged

(* A property that holds on the ground-truth signal, with some slack so
   it prunes without pinning the answer: a deadline on at most half the
   changes, or a window around all of them. *)
let property rng ~m signal =
  let ch = Array.of_list (Signal.changes signal) in
  let k = Array.length ch in
  let slack () = Random.State.int rng ((m / 8) + 1) in
  if Random.State.bool rng then
    let count = 1 + Random.State.int rng (max 1 (k / 2)) in
    let before = min m (ch.(count - 1) + 1 + slack ()) in
    ( Property.deadline ~count ~before,
      Printf.sprintf "deadline=%d,%d" count before )
  else
    let lo = max 0 (ch.(0) - slack ()) and hi = min (m - 1) (ch.(k - 1) + slack ()) in
    (Property.window ~lo ~hi, Printf.sprintf "window=%d,%d" lo hi)

let ask_request designs ~design ~signal ~prop ~prop_kv ~count =
  let d = designs.(design) in
  let entry = Logger.abstract d.enc signal in
  {
    line =
      Printf.sprintf "reconstruct design=%s tp=%s k=%d %s %s budget=%d"
        d.d_name
        (Tp_bitvec.Bitvec.to_string (Log_entry.tp entry))
        (Log_entry.k entry)
        (if count then "count=1 max=2" else "first=1")
        prop_kv query_budget;
    body = [];
    truth = Ask { design; signal; entry; prop; count; repeat = false };
  }

(* Untimed warm-ups per design. The stream (k = 0 with a flipped bit,
   then k = 1..5) forces the lazy MITM triple half and routes one entry
   through the repair ladder; the trivial property query, sent twice,
   runs the planner, fills the result cache and hits it. Together they
   touch every layer the traced run reports, on every workload. *)
let warmups w ~seed designs =
  let s = shape w in
  List.concat
    (List.init (Array.length designs) (fun design ->
         let rng = rng seed [| tag w; 1_000_000 + design |] in
         let enc = designs.(design).enc in
         let m = s.m and b = Encoding.b enc in
         let zero = Signal.create m in
         let bit = Random.State.int rng b in
         let logged =
           Array.init 6 (fun k ->
               if k = 0 then
                 {
                   signal = zero;
                   entry = Fault.flip_tp (Logger.abstract enc zero) ~bits:[ bit ];
                   flipped = Some bit;
                 }
               else
                 let signal = Signal.random rng ~m ~k in
                 { signal; entry = Logger.abstract enc signal; flipped = None })
         in
         let ask =
           ask_request designs ~design ~signal:zero
             ~prop:(Property.window ~lo:0 ~hi:(m - 1))
             ~prop_kv:(Printf.sprintf "window=0,%d" (m - 1))
             ~count:false
         in
         [ stream_request designs ~design ~repair:1 logged; ask; ask ]))

(* The query mix, per block of ten consecutive queries in a seeded
   order: two word-for-word repeats of earlier queries, two capped
   counts, six first-witness queries. *)
type kind = First | Count | Repeat

let block_kinds ~seed w b =
  let kinds =
    [| Repeat; Repeat; Count; Count; First; First; First; First; First; First |]
  in
  let order = distinct (rng seed [| tag w; b; 7 |]) ~n:10 ~bound:10 in
  Array.map (fun j -> kinds.(j)) order

(* Query [j] of the workload: k uniform on 7..10, one property that
   holds on the ground truth, on design [j mod designs]. A repeat
   copies an earlier query's line. *)
let queries w ~seed designs =
  let s = shape w in
  let nd = Array.length designs in
  let memo = Hashtbl.create 256 in
  let kind j =
    match (block_kinds ~seed w (j / 10)).(j mod 10) with
    | Repeat when j = 0 -> First
    | k -> k
  in
  let rec get j =
    match Hashtbl.find_opt memo j with
    | Some r -> r
    | None ->
        let rng = rng seed [| tag w; 2_000_000 + j |] in
        let r =
          match kind j with
          | Repeat -> (
              let orig = get (Random.State.int rng j) in
              match orig.truth with
              | Ask a -> { orig with truth = Ask { a with repeat = true } }
              | Log _ -> assert false)
          | (First | Count) as kd ->
              let k = 7 + Random.State.int rng 4 in
              let signal = Signal.random rng ~m:s.m ~k in
              let prop, prop_kv = property rng ~m:s.m signal in
              ask_request designs ~design:(j mod nd) ~signal ~prop ~prop_kv
                ~count:(kd = Count)
        in
        Hashtbl.replace memo j r;
        r
  in
  get

(* The workload's request sequence, generated on demand: request [i]
   depends only on (seed, workload, i) and, for a query repeat, on the
   query it repeats — so any prefix is the same however long a run
   lasts. With [query_every] = q, every (q+1)-th request is a query;
   logs and queries each rotate through the designs. *)
let requests w ~seed designs =
  let s = shape w in
  let nd = Array.length designs in
  let log i n =
    let design = n mod nd in
    stream_request designs ~design ~repair:s.repair
      (make_log (rng seed [| tag w; i |]) s designs.(design).enc
         (log_length w ~seed n))
  in
  if s.query_every = 0 then fun i -> log i i
  else
    let query = queries w ~seed designs and period = s.query_every + 1 in
    fun i ->
      if i mod period = s.query_every then query (i / period)
      else log i (i - (i / period))
