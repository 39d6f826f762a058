open Tp_bitvec

let supported ~k = k >= 0 && k <= 6

let unsupported () = invalid_arg "Combinatorial_reconstruct: k > 6 unsupported"

(* ---- Linear 62-bit keys --------------------------------------------- *)

(* Every subset sum is located through a key κ : F₂ᵇ → int that is
   linear over XOR: κ(tp ⊕ TS(i) ⊕ TS(j)) = κ(tp) ⊕ κᵢ ⊕ κⱼ, so the
   key of a half-sum is int arithmetic on per-index keys — no Bitvec
   work inside the join. For b ≤ 62 the key is the value itself and
   key equality is value equality; wider timeprints fold their words
   XOR-rotated (rotation decorrelates equal words at different
   positions) and candidates are verified against the real
   timestamps. *)

let bpw = Bitvec.bits_per_word
let word_mask = (1 lsl bpw) - 1

let rot w r =
  if r = 0 then w else ((w lsl r) lor (w lsr (bpw - r))) land word_mask

let key_wide v =
  let acc = ref 0 in
  for i = 0 to Bitvec.word_count v - 1 do
    acc := !acc lxor rot (Bitvec.get_word v i) (13 * i mod bpw)
  done;
  !acc

(* ---- Sorted half-sum tables ----------------------------------------- *)

(* A [half] lists every candidate half-subset as parallel arrays sorted
   by (key, payload): all preimages of a key sit in one contiguous run
   found by a single binary search. Payloads pack the subset's indices
   20 bits each, largest index in the low bits, so the smallest index
   is always the topmost field — the canonical-split test below reads
   it with one shift. *)

type half = { keys : int array; pays : int array }

let idx_bits = 20
let idx_mask = (1 lsl idx_bits) - 1

(* Triples are the one half that can explode: C(m,3) entries. Cap the
   materialized size; [feasible] lets the planner route larger
   instances to SAT instead of tripping the guard. *)
let triples_limit = 1 lsl 23

let choose3 m = m * (m - 1) * (m - 2) / 6

let triples_feasible m = m >= 0 && choose3 m <= triples_limit

let feasible enc ~k =
  k >= 0
  && (k <= 4 || (k <= 6 && triples_feasible (Encoding.m enc)))

(* log₂ of the sorted-meet work: C(m, ⌊k/2⌋) probes, each a binary
   search over the C(m, ⌈k/2⌉)-entry half table. *)
let cost_bits ~m ~k =
  let lg x = log x /. log 2. in
  if k <= 2 then lg (float_of_int (max 1 m))
  else
    Signal.log2_choose m (k / 2)
    +. lg (max 1. (Signal.log2_choose m ((k + 1) / 2)))

(* Stable LSD radix sort of the parallel (keys, pays) arrays by key,
   11-bit digits. Comparison sorts lose here: a comparator call (even
   [Array.sort]'s specialized int path) costs more per element than a
   whole counting pass, and the table build was dominated by it.
   Stability buys the (key, pay) order for free — every generator
   below emits payloads in strictly increasing order, so equal-key
   runs arrive pay-sorted and stay that way. [key_bits] bounds the
   significant bits so narrow (exact) keys pay only ⌈b/11⌉ passes. *)
let radix_digit = 11

let sort_half ?(key_bits = bpw) keys pays =
  let n = Array.length keys in
  if n > 1 then begin
    let buckets = 1 lsl radix_digit in
    let mask = buckets - 1 in
    let count = Array.make buckets 0 in
    let tk = Array.make n 0 and tp = Array.make n 0 in
    let src_k = ref keys and src_p = ref pays in
    let dst_k = ref tk and dst_p = ref tp in
    let shift = ref 0 in
    let bits = max 1 (min key_bits bpw) in
    while !shift < bits do
      let sk = !src_k and sp = !src_p and dk = !dst_k and dp = !dst_p in
      let sh = !shift in
      Array.fill count 0 buckets 0;
      for i = 0 to n - 1 do
        let d = (Array.unsafe_get sk i lsr sh) land mask in
        Array.unsafe_set count d (Array.unsafe_get count d + 1)
      done;
      let acc = ref 0 in
      for d = 0 to buckets - 1 do
        let c = Array.unsafe_get count d in
        Array.unsafe_set count d !acc;
        acc := !acc + c
      done;
      for i = 0 to n - 1 do
        let k = Array.unsafe_get sk i in
        let d = (k lsr sh) land mask in
        let pos = Array.unsafe_get count d in
        Array.unsafe_set count d (pos + 1);
        Array.unsafe_set dk pos k;
        Array.unsafe_set dp pos (Array.unsafe_get sp i)
      done;
      let k = !src_k and p = !src_p in
      src_k := !dst_k;
      src_p := !dst_p;
      dst_k := k;
      dst_p := p;
      shift := sh + radix_digit
    done;
    if !src_k != keys then begin
      Array.blit !src_k 0 keys 0 n;
      Array.blit !src_p 0 pays 0 n
    end
  end;
  { keys; pays }

type table = {
  t_m : int;
  t_exact : bool;  (** keys are injective (b ≤ 62): skip verification *)
  t_key : int array;  (** per-signal-index key κᵢ = κ(TS(i)) *)
  t_singles : half;
  t_pairs : half;
  t_triples : half Lazy.t;
      (** C(m,3) entries, built on first k ≥ 5 query; forcing raises
          [Invalid_argument] when over [triples_limit] *)
}

let pair_table enc : table =
  let m = Encoding.m enc in
  if m > idx_mask then
    invalid_arg "Combinatorial_reconstruct: m exceeds payload width";
  let exact = Encoding.b enc <= bpw in
  let key_of v = if exact then Bitvec.get_word v 0 else key_wide v in
  (* XORs of keys stay below 2^b in the exact case, so every table of
     this encoding sorts in ⌈b/11⌉ radix passes *)
  let key_bits = if exact then Encoding.b enc else bpw in
  let t_key = Array.init m (fun i -> key_of (Encoding.timestamp enc i)) in
  let singles = sort_half ~key_bits (Array.copy t_key) (Array.init m Fun.id) in
  let npairs = m * (m - 1) / 2 in
  let pk = Array.make (max npairs 1) 0 in
  let pp = Array.make (max npairs 1) 0 in
  let c = ref 0 in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      pk.(!c) <- t_key.(i) lxor t_key.(j);
      pp.(!c) <- (i lsl idx_bits) lor j;
      incr c
    done
  done;
  let pairs =
    if npairs = 0 then { keys = [||]; pays = [||] }
    else sort_half ~key_bits pk pp
  in
  let triples =
    lazy
      (if not (triples_feasible m) then
         invalid_arg "Combinatorial_reconstruct: triple table infeasible (m too large)"
       else begin
         let n = choose3 m in
         let tk = Array.make (max n 1) 0 in
         let tp = Array.make (max n 1) 0 in
         let c = ref 0 in
         for i = 0 to m - 1 do
           for j = i + 1 to m - 1 do
             let kij = t_key.(i) lxor t_key.(j) in
             let pij = ((i lsl idx_bits) lor j) lsl idx_bits in
             for l = j + 1 to m - 1 do
               tk.(!c) <- kij lxor t_key.(l);
               tp.(!c) <- pij lor l;
               incr c
             done
           done
         done;
         if n = 0 then { keys = [||]; pays = [||] } else sort_half ~key_bits tk tp
       end)
  in
  {
    t_m = m;
    t_exact = exact;
    t_key;
    t_singles = singles;
    t_pairs = pairs;
    t_triples = triples;
  }

let table_for ?table enc =
  match table with Some t -> t | None -> pair_table enc

(* leftmost index whose key is ≥ [key] *)
let lower_bound h key =
  let lo = ref 0 and hi = ref (Array.length h.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let iter_hits h key f =
  let n = Array.length h.keys in
  let i = ref (lower_bound h key) in
  while !i < n && h.keys.(!i) = key do
    f h.pays.(!i);
    incr i
  done

(* ---- The meet ------------------------------------------------------- *)

(* Each k-subset is produced exactly once via the canonical split: the
   probe side carries the ⌊k/2⌋ *smallest* indices, the table side the
   rest, enforced by requiring the table half's minimum index to exceed
   the probe half's maximum. *)

let verify enc tp changes =
  let acc = Bitvec.create (Bitvec.width tp) in
  List.iter (fun i -> Bitvec.xor_in_place acc (Encoding.timestamp enc i)) changes;
  Bitvec.equal acc tp

(* [meet] drives every k ∈ [0, 6]: [emit] receives each candidate
   change list (already canonical, possibly unverified when the table
   is not exact). *)
let meet t enc entry emit =
  let k = Log_entry.k entry in
  if not (supported ~k) then unsupported ();
  let m = t.t_m in
  let tp = Log_entry.tp entry in
  let tp_key = if t.t_exact then Bitvec.get_word tp 0 else key_wide tp in
  let checked changes =
    if t.t_exact || verify enc tp changes then emit changes
  in
  let pair_lo pay = pay lsr idx_bits in
  let triple_lo pay = pay lsr (2 * idx_bits) in
  match k with
  | 0 -> if Bitvec.is_zero tp then emit []
  | 1 ->
      iter_hits t.t_singles tp_key (fun i -> checked [ i ])
  | 2 ->
      iter_hits t.t_pairs tp_key (fun pay ->
          checked [ pair_lo pay; pay land idx_mask ])
  | 3 ->
      for i = 0 to m - 1 do
        iter_hits t.t_pairs (tp_key lxor t.t_key.(i)) (fun pay ->
            let a = pair_lo pay in
            if a > i then checked [ i; a; pay land idx_mask ])
      done
  | 4 ->
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          iter_hits t.t_pairs (tp_key lxor t.t_key.(i) lxor t.t_key.(j))
            (fun pay ->
              let a = pair_lo pay in
              if a > j then checked [ i; j; a; pay land idx_mask ])
        done
      done
  | 5 ->
      let triples = Lazy.force t.t_triples in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          iter_hits triples (tp_key lxor t.t_key.(i) lxor t.t_key.(j))
            (fun pay ->
              let a = triple_lo pay in
              if a > j then
                checked
                  [ i; j; a; (pay lsr idx_bits) land idx_mask; pay land idx_mask ])
        done
      done
  | 6 ->
      let triples = Lazy.force t.t_triples in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          let kij = tp_key lxor t.t_key.(i) lxor t.t_key.(j) in
          for l = j + 1 to m - 1 do
            iter_hits triples (kij lxor t.t_key.(l)) (fun pay ->
                let a = triple_lo pay in
                if a > l then
                  checked
                    [
                      i; j; l; a; (pay lsr idx_bits) land idx_mask;
                      pay land idx_mask;
                    ])
          done
        done
      done
  | _ -> assert false

let preimage ?max_solutions ?table enc entry =
  let k = Log_entry.k entry in
  if not (supported ~k) then unsupported ();
  let t = table_for ?table enc in
  let m = t.t_m in
  let out = ref [] in
  meet t enc entry (fun changes -> out := Signal.of_changes ~m changes :: !out);
  let sols = List.sort_uniq Signal.compare !out in
  match max_solutions with
  | None -> sols
  | Some n -> List.filteri (fun i _ -> i < n) sols

let preimage_with ?max_solutions ?table enc entry ~assume =
  let keep s = List.for_all (fun p -> Property.eval p s) assume in
  let all = List.filter keep (preimage ?table enc entry) in
  match max_solutions with
  | None -> all
  | Some n -> List.filteri (fun i _ -> i < n) all

exception Found of Signal.t

let first ?(assume = []) ?table enc entry =
  let k = Log_entry.k entry in
  if not (supported ~k) then unsupported ();
  let keep s = List.for_all (fun p -> Property.eval p s) assume in
  let t = table_for ?table enc in
  let m = t.t_m in
  try
    meet t enc entry (fun changes ->
        let s = Signal.of_changes ~m changes in
        if keep s then raise (Found s));
    None
  with Found s -> Some s
