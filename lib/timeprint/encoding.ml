open Tp_bitvec

type scheme =
  | One_hot
  | Random_constrained of { seed : int }
  | Incremental
  | Bch
  | Custom

type t = { scheme : scheme; m : int; b : int; depth : int; ts : Bitvec.t array }

let scheme e = e.scheme
let m e = e.m
let b e = e.b
let depth e = e.depth

let timestamp e i =
  if i < 0 || i >= e.m then invalid_arg "Encoding.timestamp: cycle out of range";
  e.ts.(i)

let timestamps e = Array.map Bitvec.copy e.ts
let matrix e = F2_matrix.of_columns ~rows:e.b e.ts

(* Compares the internal array, never the copying [timestamps]: a
   per-request design check must not allocate m bitvectors. *)
let equal x y =
  x == y || (x.m = y.m && x.b = y.b && Array.for_all2 Bitvec.equal x.ts y.ts)

let min_b ~m =
  let rec go b = if 1 lsl b >= m then b else go (b + 1) in
  go 1

let one_hot ~m =
  if m <= 0 then invalid_arg "Encoding.one_hot";
  {
    scheme = One_hot;
    m;
    b = m;
    depth = m;
    ts = Array.init m (fun i -> Bitvec.of_indices ~width:m [ i ]);
  }

(* Incremental LI-d maintenance.

   Invariant: the chosen set S is LI-d. A candidate v keeps the
   invariant iff no dependent subset of size <= d contains v, i.e.
   v is not 0, not in S, not a XOR of 2 elements of S, … not a XOR of
   (d-1) elements of S. We keep hash sets of all XORs of exactly
   j elements for j <= ceil((d-1)/2) and meet-in-the-middle for the
   larger combination sizes. For the default d = 4 this means: singles
   and pairs are stored; triples are checked as single ⊕ pair. *)

module H = Hashtbl.Make (struct
  type t = Bitvec.t

  let equal = Bitvec.equal
  let hash = Bitvec.hash
end)

type li_state = {
  d : int;
  singles : unit H.t;
  pairs : unit H.t; (* used when d >= 3 *)
  mutable members : Bitvec.t list;
}

let li_create d =
  { d; singles = H.create 64; pairs = H.create 1024; members = [] }

let li_ok st v =
  (not (Bitvec.is_zero v))
  && (st.d < 2 || not (H.mem st.singles v))
  && (st.d < 3 || not (H.mem st.pairs v))
  && (st.d < 4
     || not (List.exists (fun a -> H.mem st.pairs (Bitvec.logxor v a)) st.members))
  && (st.d < 5
     ||
     (* depth 5: v must not be a XOR of 4 members = pair ⊕ pair *)
     not
       (H.fold
          (fun p () acc -> acc || H.mem st.pairs (Bitvec.logxor v p))
          st.pairs false))

let li_add st v =
  List.iter (fun a -> H.replace st.pairs (Bitvec.logxor v a) ()) st.members;
  H.replace st.singles v ();
  st.members <- v :: st.members

let generate ~scheme ~m ~b ~depth ~next ~budget =
  let st = li_create depth in
  let ts = Array.make m (Bitvec.create b) in
  let attempts = ref 0 in
  let i = ref 0 in
  while !i < m do
    if !attempts > budget then
      failwith
        (Printf.sprintf
           "Encoding: could not fit %d LI-%d timestamps in %d bits" m depth b);
    incr attempts;
    let v = next () in
    if li_ok st v then begin
      li_add st v;
      ts.(!i) <- v;
      incr i
    end
  done;
  { scheme; m; b; depth; ts }

let random_constrained ?(depth = 4) ?(seed = 0x7155) ~m ~b () =
  if m <= 0 || b <= 0 then invalid_arg "Encoding.random_constrained";
  let rng = Random.State.make [| seed; m; b; depth |] in
  generate
    ~scheme:(Random_constrained { seed })
    ~m ~b ~depth
    ~next:(fun () -> Bitvec.random rng b)
    ~budget:(max 100_000 (200 * m))

let incremental ?(depth = 4) ~m ~b () =
  if m <= 0 || b <= 0 then invalid_arg "Encoding.incremental";
  let counter = ref (Bitvec.create b) in
  let wrapped = ref false in
  generate ~scheme:Incremental ~m ~b ~depth
    ~next:(fun () ->
      Bitvec.succ_in_place !counter;
      if Bitvec.is_zero !counter then
        if !wrapped then failwith "Encoding.incremental: space exhausted"
        else begin
          wrapped := true;
          Bitvec.succ_in_place !counter
        end;
      Bitvec.copy !counter)
    ~budget:(if b < 62 then (1 lsl b) + m else max_int)

let auto gen ~m ~depth =
  let floor_b = min_b ~m in
  let rec go b =
    if b > 4 * (floor_b + depth) then
      failwith "Encoding: auto width search failed"
    else
      match gen ~b with
      | e -> e
      | exception Failure _ -> go (b + 1)
  in
  go floor_b

let random_constrained_auto ?(depth = 4) ?seed ~m () =
  auto ~m ~depth (fun ~b -> random_constrained ~depth ?seed ~m ~b ())

let incremental_auto ?(depth = 4) ~m () =
  auto ~m ~depth (fun ~b -> incremental ~depth ~m ~b ())

(* GF(2^q) arithmetic for the BCH construction: elements are q-bit
   polynomials; multiplication reduces by a primitive polynomial. *)

let primitive_polynomials =
  (* index q: a primitive polynomial of degree q, bit q set *)
  [| 0; 0x3; 0x7; 0xB; 0x13; 0x25; 0x43; 0x89; 0x11D; 0x211; 0x409; 0x805; 0x1053 |]

let gf_mul ~q ~poly a b =
  let r = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 = 1 then r := !r lxor !a;
    b := !b lsr 1;
    a := !a lsl 1;
    if !a land (1 lsl q) <> 0 then a := !a lxor poly
  done;
  !r

let bch ~m =
  if m <= 0 then invalid_arg "Encoding.bch";
  let rec find_q q = if (1 lsl q) - 1 >= m then q else find_q (q + 1) in
  let q = find_q 2 in
  if q >= Array.length primitive_polynomials then
    invalid_arg "Encoding.bch: m too large (q > 12)";
  let poly = primitive_polynomials.(q) in
  let b = 2 * q in
  (* column for cycle i: (x, x^3) with x = alpha^i, alpha = the root
     represented by polynomial "x" = 2 *)
  let ts = Array.make m (Bitvec.create b) in
  let x = ref 1 in
  for i = 0 to m - 1 do
    let x3 = gf_mul ~q ~poly (gf_mul ~q ~poly !x !x) !x in
    let v = Bitvec.create b in
    for bit = 0 to q - 1 do
      if (!x lsr bit) land 1 = 1 then Bitvec.set v bit true;
      if (x3 lsr bit) land 1 = 1 then Bitvec.set v (q + bit) true
    done;
    ts.(i) <- v;
    x := gf_mul ~q ~poly !x 2
  done;
  { scheme = Bch; m; b; depth = 4; ts }

let custom ?(depth = 1) ts =
  let m = Array.length ts in
  if m = 0 then invalid_arg "Encoding.custom: no timestamps";
  let b = Bitvec.width ts.(0) in
  Array.iter
    (fun v ->
      if Bitvec.width v <> b then invalid_arg "Encoding.custom: ragged widths";
      if Bitvec.is_zero v then invalid_arg "Encoding.custom: zero timestamp")
    ts;
  let seen = H.create m in
  Array.iter
    (fun v ->
      if H.mem seen v then invalid_arg "Encoding.custom: duplicate timestamp";
      H.replace seen v ())
    ts;
  { scheme = Custom; m; b; depth; ts = Array.map Bitvec.copy ts }

let verify_li e ~upto =
  (* check every subset of size <= upto for linear independence *)
  let rec subsets n start acc =
    if n = 0 then [ acc ]
    else if start >= e.m then []
    else
      subsets (n - 1) (start + 1) (e.ts.(start) :: acc)
      @ subsets n (start + 1) acc
  in
  let rec sizes n = if n = 0 then true else
    List.for_all F2_matrix.independent (subsets n 0 []) && sizes (n - 1)
  in
  sizes (min upto e.m)

let pp ppf e =
  let name =
    match e.scheme with
    | One_hot -> "one-hot"
    | Random_constrained { seed } -> Printf.sprintf "random-constrained(seed=%d)" seed
    | Incremental -> "incremental"
    | Bch -> "bch"
    | Custom -> "custom"
  in
  Format.fprintf ppf "%s encoding: m=%d b=%d LI-%d" name e.m e.b e.depth
