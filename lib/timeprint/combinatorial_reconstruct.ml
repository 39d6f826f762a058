open Tp_bitvec

let supported ~k = k >= 0 && k <= 10

let unsupported () = invalid_arg "Combinatorial_reconstruct: k > 10 unsupported"

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
   by (key, payload): all preimages of a key sit in one contiguous run.
   Payloads pack the subset's indices 20 bits each, largest index in
   the low bits, so the smallest index is always the topmost field —
   the canonical-split test below reads it with one shift.

   A key directory finds the run without a search: [dir.(s)] is the
   first position whose key has top bits [key lsr shift ≥ s], over
   2^min(key_bits, ⌈log₂ n⌉ − 2) slots, so a slot spans about four
   entries and a probe reads two slots and scans that short run. Where
   the slots cover every key bit ([shift = 0]) a slot's run is exactly
   its key's hits, and the half keeps no [keys] array. *)

type half = { keys : int array; pays : int array; dir : int array; shift : int }

let idx_bits = 20
let idx_mask = (1 lsl idx_bits) - 1

(* Triples are the one half that can explode: C(m,3) entries. Cap the
   materialized size, and a meet's probe count at the same bound;
   [feasible] lets the planner route larger instances to SAT instead
   of tripping the guard. *)
let triples_limit = 1 lsl 23

(* k = 9, 10 probe C(w, 6) and C(w, 7) subsets against the same
   resident triple half. A full sweep there (the empty-preimage case)
   measured 17–29 ms at k = 9 and 51–91 ms at k = 10 on m = 32, against
   SAT's 8–20 ms, so those two take the meet only below the SAT
   baseline's 2^20 steps ([Sat_reconstruct.cost_baseline]). *)
let deep_limit = 1 lsl 20

(* C(m, r), exact while C(m, r − 1) · m fits an int: r ≤ 7 at the
   m ≤ 368 the triple cap admits, and r = 3 up to the payload width *)
let choose m r =
  let c = ref 1 in
  for i = 0 to r - 1 do
    c := !c * (m - i) / (i + 1)
  done;
  !c

let triples_feasible m = m >= 0 && choose m 3 <= triples_limit

(* How many of a k-subset's indices the table half holds: the whole
   subset for k ≤ 2, else ⌈k/2⌉ up to the triples. The probe side
   enumerates the other k − h. *)
let half_size k = if k <= 2 then k else min 3 ((k + 1) / 2)

(* The columns [lo, hi] the assumed properties leave to the changes:
   the intersection of every Window and of the hull of every Allowed
   (inside conjunctions too), within [0, m − 1]. Empty when lo > hi. *)
let span ~m assume =
  let rec narrow ((lo, hi) as acc) = function
    | Property.Window { lo = l; hi = h } -> (max lo l, min hi h)
    | Property.Allowed ws ->
        List.fold_left
          (fun (l, h) (a, b) -> if a > b then (l, h) else (min l a, max h b))
          (max_int, min_int) ws
        |> fun (l, h) -> (max lo l, min hi h)
    | Property.And ps -> List.fold_left narrow acc ps
    | _ -> acc
  in
  List.fold_left narrow (0, m - 1) assume

let width ~m assume =
  let lo, hi = span ~m assume in
  max 0 (hi - lo + 1)

let feasible_in enc ~w ~k =
  k >= 0
  && (k <= 4
     || supported ~k
        && triples_feasible (Encoding.m enc)
        &&
        let probes = choose (max 0 w) (k - half_size k) in
        probes <= triples_limit && (k <= 8 || probes < deep_limit))

let feasible enc ~k = feasible_in enc ~w:(Encoding.m enc) ~k

(* log₂ of the meet's probe count, C(m, k − h), over the m columns it
   sweeps. A probe is O(1) — two directory slots and a run of a few
   entries — so it counts as one step. k ≤ 2 is a single lookup and
   keeps its log₂ m price, so the planner's choices there stay as they
   were. Fewer columns than probe indices sweep nothing: 0 bits. *)
let cost_bits ~m ~k =
  if k <= 2 then log (float_of_int (max 1 m)) /. log 2.
  else Float.max 0. (Signal.log2_choose m (k - half_size k))

(* Stable LSD radix sort of the parallel (keys, pays) arrays by key,
   11-bit digits. Comparison sorts lose here: a comparator call (even
   [Array.sort]'s specialized int path) costs more per element than a
   whole counting pass, and the table build was dominated by it.
   Stability buys the (key, pay) order for free — every generator
   below emits payloads in strictly increasing order, so equal-key
   runs arrive pay-sorted and stay that way. [key_bits] bounds the
   significant bits so narrow (exact) keys pay only ⌈b/11⌉ passes.
   One more pass over the sorted keys fills the half's directory. *)
let radix_digit = 11

let sort_half ~key_bits keys pays =
  let n = Array.length keys in
  if n > 1 then begin
    let buckets = 1 lsl radix_digit in
    let mask = buckets - 1 in
    let count = Array.make buckets 0 in
    let tk = Array.make n 0 and tp = Array.make n 0 in
    let src_k = ref keys and src_p = ref pays in
    let dst_k = ref tk and dst_p = ref tp in
    let shift = ref 0 in
    let bits = max 1 key_bits in
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
  let rec ceil_log2 c = if 1 lsl c >= n then c else ceil_log2 (c + 1) in
  let dir_bits = min key_bits (max 0 (ceil_log2 0 - 2)) in
  let shift = key_bits - dir_bits in
  let dir = Array.make ((1 lsl dir_bits) + 1) n in
  let s = ref 0 in
  for i = 0 to n - 1 do
    let top = keys.(i) lsr shift in
    while !s <= top do
      dir.(!s) <- i;
      incr s
    done
  done;
  { keys = (if shift = 0 then [||] else keys); pays; dir; shift }

type table = {
  t_m : int;
  t_b : int;
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
     this encoding sorts in ⌈b/11⌉ radix passes and its directory
     slots read the top of b bits *)
  let key_bits = if exact then Encoding.b enc else bpw in
  let t_key = Array.init m (fun i -> key_of (Encoding.timestamp enc i)) in
  let singles = sort_half ~key_bits (Array.copy t_key) (Array.init m Fun.id) in
  let npairs = m * (m - 1) / 2 in
  let pk = Array.make npairs 0 in
  let pp = Array.make npairs 0 in
  let c = ref 0 in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      pk.(!c) <- t_key.(i) lxor t_key.(j);
      pp.(!c) <- (i lsl idx_bits) lor j;
      incr c
    done
  done;
  let pairs = sort_half ~key_bits pk pp in
  let triples =
    lazy
      (if not (triples_feasible m) then
         invalid_arg "Combinatorial_reconstruct: triple table infeasible (m too large)"
       else begin
         let n = choose m 3 in
         let tk = Array.make n 0 in
         let tp = Array.make n 0 in
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
         sort_half ~key_bits tk tp
       end)
  in
  {
    t_m = m;
    t_b = Encoding.b enc;
    t_exact = exact;
    t_key;
    t_singles = singles;
    t_pairs = pairs;
    t_triples = triples;
  }

let table_for ?table enc =
  match table with Some t -> t | None -> pair_table enc

(* ---- The meet ------------------------------------------------------- *)

(* Each k-subset is produced exactly once via the canonical split: the
   probe side carries the k − h *smallest* indices, the table half the
   h largest, enforced by requiring the table half's minimum index to
   exceed the probe side's maximum. Probe loops stop where fewer than
   h indices remain above them, which skips only probes that cannot
   hit. Probes run in lexicographic order and a directory run lists
   its payloads in increasing order, so candidates arrive
   lexicographically ordered by their change lists.

   A span [lo, hi] confines the sweep: probe indices start at lo and
   stop where the remaining indices no longer fit below hi, and a hit
   whose largest table-side index exceeds hi is skipped. The full span
   [0, m − 1] is the unconfined meet, probe for probe. *)

let verify enc tp changes =
  let acc = Bitvec.create (Bitvec.width tp) in
  List.iter (fun i -> Bitvec.xor_in_place acc (Encoding.timestamp enc i)) changes;
  Bitvec.equal acc tp

(* [sweep] drives every k ∈ [0, 10]: [emit] receives each candidate
   change list inside the span (already canonical, possibly unverified
   when the table is not exact). *)
let sweep t enc entry ~lo ~hi emit =
  let k = Log_entry.k entry in
  let tp = Log_entry.tp entry in
  (* the unchecked directory reads below rely on it *)
  if Bitvec.width tp <> t.t_b then
    invalid_arg "Combinatorial_reconstruct: timeprint width <> encoding b";
  if k = 0 then (if Bitvec.is_zero tp then emit [])
  else if hi - lo + 1 >= k then begin
    let tp_key = if t.t_exact then Bitvec.get_word tp 0 else key_wide tp in
    let h = half_size k in
    let { keys; pays; dir; shift } =
      match h with
      | 1 -> t.t_singles
      | 2 -> t.t_pairs
      | _ -> Lazy.force t.t_triples
    in
    let r = k - h in
    let top = (h - 1) * idx_bits in
    let probe = Array.make r 0 in
    let hit pay =
      let rec table_side j acc =
        if j = h then acc
        else table_side (j + 1) (((pay lsr (j * idx_bits)) land idx_mask) :: acc)
      in
      let changes = Array.fold_right List.cons probe (table_side 0 []) in
      if t.t_exact || verify enc tp changes then emit changes
    in
    if r = 0 then
      let s = tp_key lsr shift in
      for j = dir.(s) to dir.(s + 1) - 1 do
        if shift = 0 || keys.(j) = tp_key then
          let pay = pays.(j) in
          if pay lsr top >= lo && pay land idx_mask <= hi then hit pay
      done
    else begin
      (* The innermost probe level reads the directory inline: without
         flambda a lookup closure per probe costs a third of the meet.
         Every index is in range by construction — probe keys are XORs
         of b-bit (or 62-bit folded) keys, so [key lsr shift] is a
         slot, and a slot's bounds are positions of the half. *)
      let t_key = t.t_key in
      let rec go d from key =
        if d = r - 1 then
          for i = from to hi - h do
            Array.unsafe_set probe d i;
            let key = key lxor Array.unsafe_get t_key i in
            let s = key lsr shift in
            for j = Array.unsafe_get dir s to Array.unsafe_get dir (s + 1) - 1 do
              if shift = 0 || Array.unsafe_get keys j = key then
                let pay = Array.unsafe_get pays j in
                if pay lsr top > i && pay land idx_mask <= hi then hit pay
            done
          done
        else
          for i = from to hi + 1 - k + d do
            Array.unsafe_set probe d i;
            go (d + 1) (i + 1) (key lxor Array.unsafe_get t_key i)
          done
      in
      go 0 lo tp_key
    end
  end

let search ?(assume = []) ?table enc entry visit =
  let k = Log_entry.k entry in
  if not (supported ~k) then unsupported ();
  let t = table_for ?table enc in
  let m = t.t_m in
  let lo, hi = span ~m assume in
  let exception Stop in
  match
    sweep t enc entry ~lo ~hi (fun changes ->
        let s = Signal.of_changes ~m changes in
        if List.for_all (fun p -> Property.eval p s) assume && not (visit s)
        then raise_notrace Stop)
  with
  | () -> true
  | exception Stop -> false

let preimage_with ?max_solutions ?table enc entry ~assume =
  let out = ref [] in
  match max_solutions with
  | None ->
      ignore
        (search ~assume ?table enc entry (fun s ->
             out := s :: !out;
             true));
      List.sort Signal.compare !out
  | Some n ->
      let left = ref n in
      ignore
        (search ~assume ?table enc entry (fun s ->
             if !left > 0 then begin
               out := s :: !out;
               decr left
             end;
             !left > 0));
      List.rev !out

let preimage ?max_solutions ?table enc entry =
  preimage_with ?max_solutions ?table enc entry ~assume:[]

let first ?assume ?table enc entry =
  let found = ref None in
  ignore
    (search ?assume ?table enc entry (fun s ->
         found := Some s;
         false));
  !found
