open Tp_bitvec
open Tp_sat

(* A design pack is everything about an encoding that every
   reconstruction request would otherwise recompute: the left-nullspace
   masks of the presolve rank check, the meet-in-the-middle pair table,
   and the parity-select CNF skeleton behind [Sat_reconstruct.warm]. Compile once per design,
   persist, and stamp the warm state out per request.

   On-disk format (little-endian, 8-byte integers throughout):

     magic "TPPACKv0" | version | payload length | FNV-1a-64(payload)
     payload:
       scheme tag, seed, depth, m, b
       m timestamps            (Bitvec wire format, width b each)
       rank
       mask count, masks       (Bitvec wire format, width b each)
       skeleton: nvars, nclauses, clauses (len + DIMACS literals),
                 nxors, rows (len + variables + parity)

   The checksum covers the payload only, so a truncated, bit-flipped or
   version-bumped file is rejected before any of it is interpreted.
   Solver state and the MITM tables are deliberately NOT serialized:
   the skeleton CNF reloads into a fresh solver deterministically, and
   the half-sum tables are rebuilt from the timestamps through the
   same [Combinatorial_reconstruct.pair_table] code path — identical
   sorted arrays, identical probe order, so every witness choice is
   byte-identical to a cold run at a fraction of the file size. *)

type t = {
  enc : Encoding.t;
  scheme_tag : int;
  seed : int;
  rank : int;
  shared : Presolve.shared;
  table : Combinatorial_reconstruct.table;
  warm : Sat_reconstruct.warm;
}

let magic = "TPPACKv0"

(* 2: the cube-selection ranking (which nothing read) left the payload *)
let version = 2

(* ------------------------------------------------------------------ *)
(* Compile *)

let tag_of_scheme = function
  | Encoding.One_hot -> (0, 0)
  | Encoding.Random_constrained { seed } -> (1, seed)
  | Encoding.Incremental -> (2, 0)
  | Encoding.Bch -> (3, 0)
  | Encoding.Custom -> (4, 0)

let scheme_name = function
  | 0 -> "one-hot"
  | 1 -> "random-constrained"
  | 2 -> "incremental"
  | 3 -> "bch"
  | _ -> "custom"

let compile encoding =
  let b = Encoding.b encoding in
  let shared = Presolve.shared encoding in
  let scheme_tag, seed = tag_of_scheme (Encoding.scheme encoding) in
  {
    enc = encoding;
    scheme_tag;
    seed;
    (* row rank of A is b minus the dimension of its left null space *)
    rank = b - List.length (Presolve.masks shared);
    shared;
    table = Combinatorial_reconstruct.pair_table encoding;
    warm = Sat_reconstruct.warm encoding;
  }

(* ------------------------------------------------------------------ *)
(* Accessors *)

let encoding t = t.enc
let rank t = t.rank
let shared t = t.shared
let table t = t.table
let warm t = t.warm

let matches t enc = Encoding.equal t.enc enc

let describe t =
  Printf.sprintf "scheme=%s m=%d b=%d depth=%d rank=%d masks=%d"
    (scheme_name t.scheme_tag) (Encoding.m t.enc) (Encoding.b t.enc)
    (Encoding.depth t.enc) t.rank
    (List.length (Presolve.masks t.shared))

(* ------------------------------------------------------------------ *)
(* Save *)

let add_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let fnv1a bytes ~pos ~len =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get bytes i))))
        prime
  done;
  !h

let save t path =
  let payload = Buffer.create 4096 in
  add_int payload t.scheme_tag;
  add_int payload t.seed;
  add_int payload (Encoding.depth t.enc);
  let m = Encoding.m t.enc and b = Encoding.b t.enc in
  add_int payload m;
  add_int payload b;
  Array.iter (Bitvec.to_buffer payload) (Encoding.timestamps t.enc);
  add_int payload t.rank;
  let masks = Presolve.masks t.shared in
  add_int payload (List.length masks);
  List.iter (Bitvec.to_buffer payload) masks;
  let cnf = Sat_reconstruct.warm_skeleton t.warm in
  add_int payload (Cnf.nvars cnf);
  add_int payload (Cnf.nclauses cnf);
  List.iter
    (fun cl ->
      add_int payload (List.length cl);
      List.iter (fun l -> add_int payload (Lit.to_dimacs l)) cl)
    (Cnf.clauses cnf);
  add_int payload (Cnf.nxors cnf);
  List.iter
    (fun { Cnf.vars; parity; guard } ->
      (match guard with
      | Some _ -> failwith "Pack.save: guarded skeleton row"
      | None -> ());
      add_int payload (List.length vars);
      List.iter (add_int payload) vars;
      add_int payload (if parity then 1 else 0))
    (Cnf.xors cnf);
  let payload = Buffer.to_bytes payload in
  let head = Buffer.create 32 in
  Buffer.add_string head magic;
  add_int head version;
  add_int head (Bytes.length payload);
  Buffer.add_int64_le head (fnv1a payload ~pos:0 ~len:(Bytes.length payload));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Buffer.contents head);
      Out_channel.output_bytes oc payload)

(* ------------------------------------------------------------------ *)
(* Load *)

type load_error = Missing | Corrupt of string | Version of int

let pp_load_error ppf = function
  | Missing -> Format.fprintf ppf "pack file missing or unreadable"
  | Corrupt msg -> Format.fprintf ppf "pack corrupt: %s" msg
  | Version v -> Format.fprintf ppf "pack version %d unsupported (want %d)" v version

let rd_int bytes pos =
  if pos < 0 || pos + 8 > Bytes.length bytes then failwith "Pack: truncated";
  (Int64.to_int (Bytes.get_int64_le bytes pos), pos + 8)

(* [f] reads through a cursor, so the element order must be the write
   order — an explicit left-to-right loop, not [List.init]. *)
let read_n n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f () :: acc) in
  go 0 []

let parse raw ~pos =
  let cursor = ref pos in
  let read_i () =
    let v, p = rd_int raw !cursor in
    cursor := p;
    v
  in
  let read_bv () =
    let v, p = Bitvec.read raw ~pos:!cursor in
    cursor := p;
    v
  in
  let scheme_tag = read_i () in
  let seed = read_i () in
  let depth = read_i () in
  let m = read_i () in
  let b = read_i () in
  if m <= 0 || b <= 0 || depth < 0 then failwith "Pack: bad dimensions";
  let timestamps = Array.of_list (read_n m read_bv) in
  Array.iter
    (fun v -> if Bitvec.width v <> b then failwith "Pack: timestamp width <> b")
    timestamps;
  let enc = Encoding.custom ~depth timestamps in
  let rank = read_i () in
  let nmasks = read_i () in
  if nmasks < 0 || nmasks > b then failwith "Pack: mask count out of range";
  let masks = read_n nmasks read_bv in
  List.iter
    (fun v -> if Bitvec.width v <> b then failwith "Pack: mask width <> b")
    masks;
  if rank <> b - nmasks then failwith "Pack: rank inconsistent with masks";
  let nvars = read_i () in
  let nclauses = read_i () in
  if nclauses < 0 then failwith "Pack: negative clause count";
  let cnf = Cnf.create () in
  for _ = 1 to nclauses do
    let n = read_i () in
    if n < 0 then failwith "Pack: negative clause length";
    Cnf.add_clause cnf (read_n n (fun () -> Lit.of_dimacs (read_i ())))
  done;
  let nxors = read_i () in
  if nxors < 0 then failwith "Pack: negative row count";
  for _ = 1 to nxors do
    let n = read_i () in
    if n < 0 then failwith "Pack: negative row length";
    let vars = read_n n read_i in
    List.iter (fun v -> if v < 0 then failwith "Pack: negative variable") vars;
    let parity = read_i () = 1 in
    Cnf.add_xor cnf ~vars ~parity
  done;
  Cnf.ensure_vars cnf nvars;
  if !cursor <> Bytes.length raw then failwith "Pack: trailing bytes";
  {
    enc;
    scheme_tag;
    seed;
    rank;
    shared = Presolve.of_masks masks;
    table = Combinatorial_reconstruct.pair_table enc;
    warm = Sat_reconstruct.warm_of_skeleton ~m ~b cnf;
  }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Error Missing
  | raw -> (
      let raw = Bytes.unsafe_of_string raw in
      let len = Bytes.length raw in
      if len < 32 then Error (Corrupt "truncated header")
      else if Bytes.sub_string raw 0 8 <> magic then Error (Corrupt "bad magic")
      else
        let v, pos = rd_int raw 8 in
        if v <> version then Error (Version v)
        else
          let plen, pos = rd_int raw pos in
          let sum = Bytes.get_int64_le raw pos in
          let pos = pos + 8 in
          if plen < 0 || pos + plen <> len then Error (Corrupt "length mismatch")
          else if not (Int64.equal sum (fnv1a raw ~pos ~len:plen)) then
            Error (Corrupt "checksum mismatch")
          else
            match parse raw ~pos with
            | t -> Ok t
            | exception (Failure msg | Invalid_argument msg) ->
                Error (Corrupt msg))
