open Tp_bitvec

type t = Bitvec.t

let length = Bitvec.width
let create m = Bitvec.create m
let of_bitvec v = v
let to_bitvec v = Bitvec.copy v

let of_changes ~m cs =
  List.iter
    (fun c -> if c < 0 || c >= m then invalid_arg "Signal.of_changes: cycle out of range")
    cs;
  Bitvec.of_indices ~width:m cs

let changes = Bitvec.indices
let change_at = Bitvec.get
let num_changes = Bitvec.popcount
let equal = Bitvec.equal
let compare = Bitvec.compare

(* cycle 0 leftmost: the time axis of Figure 4 *)
let to_string s = String.init (Bitvec.width s) (fun i -> if Bitvec.get s i then '1' else '0')

let of_string str =
  let m = String.length str in
  if m = 0 then invalid_arg "Signal.of_string: empty";
  let s = Bitvec.create m in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> Bitvec.set s i true
      | '0' -> ()
      | _ -> invalid_arg "Signal.of_string: expected '0' or '1'")
    str;
  s

let pp ppf s = Format.pp_print_string ppf (to_string s)

let log2_choose m k =
  if k < 0 || k > m then neg_infinity
  else (
    let acc = ref 0. in
    for i = 0 to k - 1 do
      acc := !acc +. (log (float_of_int (m - i) /. float_of_int (i + 1)) /. log 2.)
    done;
    !acc)

let random st ~m ~k =
  if k < 0 || k > m then invalid_arg "Signal.random: k out of range";
  (* partial Fisher–Yates over cycle indices *)
  let idx = Array.init m Fun.id in
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (m - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Bitvec.of_indices ~width:m (Array.to_list (Array.sub idx 0 k))

let of_values ~initial values =
  let m = Array.length values in
  if m = 0 then invalid_arg "Signal.of_values: empty";
  let s = Bitvec.create m in
  let prev = ref initial in
  Array.iteri
    (fun i v ->
      if v <> !prev then Bitvec.set s i true;
      prev := v)
    values;
  s

let delay_change s ~at =
  let m = Bitvec.width s in
  if at < 0 || at >= m - 1 then invalid_arg "Signal.delay_change: bad cycle";
  if not (Bitvec.get s at) then invalid_arg "Signal.delay_change: no change at cycle";
  if Bitvec.get s (at + 1) then
    invalid_arg "Signal.delay_change: next cycle already changes";
  let s' = Bitvec.copy s in
  Bitvec.set s' at false;
  Bitvec.set s' (at + 1) true;
  s'
