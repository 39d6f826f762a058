(* Agreement suites for the blocked F2 kernels (PR 10): the SWAR
   popcount, the tiled transpose, and the M4RI RREF must be
   observationally identical to their naive references — the planner,
   packs, and linear witness enumeration all depend on byte-identical
   reduced rows. The MITM sorted-meet join is checked against the
   planner's forced-SAT Enumerate path on random encodings. *)

open Tp_bitvec
open Timeprint

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let gen_bitvec ~max_width =
  QCheck.Gen.(
    int_range 1 max_width >>= fun n ->
    list_size (return n) bool >|= fun bits ->
    let v = Bitvec.create n in
    List.iteri (fun i b -> if b then Bitvec.set v i true) bits;
    v)

let arb_bitvec ~max_width =
  QCheck.make ~print:Bitvec.to_string (gen_bitvec ~max_width)

(* Random row array for rref: [nrows] rows of width [cols + extra] so
   the augmented-system path (trailing columns riding along) is
   exercised too. *)
let gen_rref_instance =
  QCheck.Gen.(
    int_range 1 40 >>= fun nrows ->
    int_range 1 80 >>= fun cols ->
    int_range 0 20 >>= fun extra ->
    list_size (return (nrows * (cols + extra))) bool >|= fun bits ->
    let bits = Array.of_list bits in
    let rows =
      Array.init nrows (fun i ->
          let v = Bitvec.create (cols + extra) in
          for j = 0 to cols + extra - 1 do
            if bits.((i * (cols + extra)) + j) then Bitvec.set v j true
          done;
          v)
    in
    (rows, cols))

let print_rref_instance (rows, cols) =
  Printf.sprintf "cols=%d rows=[%s]" cols
    (String.concat ";" (Array.to_list (Array.map Bitvec.to_string rows)))

let arb_rref_instance = QCheck.make ~print:print_rref_instance gen_rref_instance

(* ------------------------------------------------------------------ *)
(* SWAR popcount vs the nibble-table reference                         *)

let nibble_popcount = [| 0; 1; 1; 2; 1; 2; 2; 3; 1; 2; 2; 3; 2; 3; 3; 4 |]

let popcount_reference v =
  (* bit-at-a-time via the nibble table over the binary rendering *)
  let s = Bitvec.to_string v in
  let acc = ref 0 in
  String.iter (fun c -> if c = '1' then incr acc) s;
  ignore nibble_popcount.(0);
  !acc

let popcount_word_reference w =
  let rec go w acc =
    if w = 0 then acc else go (w lsr 4) (acc + nibble_popcount.(w land 0xf))
  in
  go w 0

let prop_popcount_agrees =
  QCheck.Test.make ~name:"SWAR popcount = nibble-table popcount" ~count:1000
    (arb_bitvec ~max_width:300) (fun v ->
      let by_words =
        let acc = ref 0 in
        for i = 0 to Bitvec.word_count v - 1 do
          acc := !acc + popcount_word_reference (Bitvec.get_word v i)
        done;
        !acc
      in
      Bitvec.popcount v = popcount_reference v && Bitvec.popcount v = by_words)

let prop_parity_and_agrees =
  QCheck.Test.make ~name:"parity_and = popcount of AND, mod 2" ~count:1000
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
        Gen.(pair (int_range 1 200) (int_range 0 1000000)))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let a = Bitvec.random st n and b = Bitvec.random st n in
      Bitvec.parity_and a b = Bitvec.popcount (Bitvec.logand a b) land 1)

(* ------------------------------------------------------------------ *)
(* Blocked transpose vs naive                                          *)

let prop_transpose_agrees =
  QCheck.Test.make ~name:"blocked transpose = naive transpose" ~count:400
    QCheck.(
      make
        ~print:(fun (r, c, seed) -> Printf.sprintf "r=%d c=%d seed=%d" r c seed)
        Gen.(triple (int_range 1 150) (int_range 1 150) (int_range 0 10000)))
    (fun (r, c, seed) ->
      let st = Random.State.make [| seed |] in
      let rows = Array.init r (fun _ -> Bitvec.random st c) in
      let m = F2_matrix.of_rows rows in
      F2_matrix.equal (F2_matrix.transpose m) (F2_matrix.transpose_naive m))

(* ------------------------------------------------------------------ *)
(* M4RI RREF vs naive: same pivots AND byte-identical rows             *)

let prop_rref_m4ri_agrees =
  QCheck.Test.make ~name:"rref_rows_m4ri = rref_rows_naive (pivots + rows)"
    ~count:600 arb_rref_instance (fun (rows, cols) ->
      let a = Array.map Bitvec.copy rows in
      let b = Array.map Bitvec.copy rows in
      let pa = F2_matrix.rref_rows_naive a ~cols in
      let pb = F2_matrix.rref_rows_m4ri b ~cols in
      pa = pb
      && Array.length a = Array.length b
      && Array.for_all2 Bitvec.equal a b)

let prop_rref_dispatch_agrees =
  QCheck.Test.make ~name:"rref_rows dispatch honors policy, identical output"
    ~count:200 arb_rref_instance (fun (rows, cols) ->
      let saved = F2_matrix.rref_policy () in
      Fun.protect
        ~finally:(fun () -> F2_matrix.set_rref_policy saved)
        (fun () ->
          let a = Array.map Bitvec.copy rows in
          let b = Array.map Bitvec.copy rows in
          F2_matrix.set_rref_policy `Naive;
          let pa = F2_matrix.rref_rows a ~cols in
          F2_matrix.set_rref_policy `M4ri;
          let pb = F2_matrix.rref_rows b ~cols in
          pa = pb && Array.for_all2 Bitvec.equal a b))

(* ------------------------------------------------------------------ *)
(* MITM sorted-meet join vs forced-SAT enumeration                     *)

let signal_set signals = List.sort compare (List.map Signal.changes signals)

let prop_mitm_agrees_with_sat =
  QCheck.Test.make
    ~name:"MITM preimage (k<=6) = forced-SAT Enumerate, exact witness sets"
    ~count:60
    QCheck.(
      make
        ~print:(fun (m, k, seed) -> Printf.sprintf "m=%d k=%d seed=%d" m k seed)
        Gen.(triple (int_range 7 16) (int_range 0 6) (int_range 0 100000)))
    (fun (m, k, seed) ->
      let enc = Encoding.random_constrained_auto ~seed ~m () in
      let st = Random.State.make [| seed; 7 |] in
      let entry = Logger.abstract enc (Signal.random st ~m ~k) in
      let mitm = signal_set (Combinatorial_reconstruct.preimage enc entry) in
      let q =
        Query.make ~answer:(Query.Enumerate { max_solutions = None }) enc entry
      in
      match fst (Plan.run ~engine:`Sat q) with
      | Engine.Enumeration { signals; complete } ->
          complete && signal_set signals = mitm
      | _ -> false)

(* one_hot with m > 62 exercises the wide-key (b > 62) verification
   path: there every timeprint pins its signal uniquely for any k *)
let prop_mitm_wide_b =
  QCheck.Test.make ~name:"MITM wide-b (one_hot m=70) unique preimages"
    ~count:40
    QCheck.(
      make
        ~print:(fun (k, seed) -> Printf.sprintf "k=%d seed=%d" k seed)
        Gen.(pair (int_range 0 6) (int_range 0 100000)))
    (fun (k, seed) ->
      let m = 70 in
      let enc = Encoding.one_hot ~m in
      let st = Random.State.make [| seed; 11 |] in
      let sg = Signal.random st ~m ~k in
      match Combinatorial_reconstruct.preimage enc (Logger.abstract enc sg) with
      | [ s ] -> Signal.changes s = Signal.changes sg
      | _ -> false)

let test_mitm_supported_bounds () =
  let enc = Encoding.one_hot ~m:8 in
  Alcotest.(check bool) "k=7 supported" true (Combinatorial_reconstruct.supported ~k:7);
  Alcotest.(check bool) "k=8 supported" true (Combinatorial_reconstruct.supported ~k:8);
  Alcotest.(check bool) "k=9 unsupported" false (Combinatorial_reconstruct.supported ~k:9);
  Alcotest.(check bool) "feasible k=8 small m" true
    (Combinatorial_reconstruct.feasible enc ~k:8);
  let en = Log_entry.make ~tp:(Bitvec.of_indices ~width:8 [ 0 ]) ~k:9 in
  Alcotest.check_raises "k=9 raises"
    (Invalid_argument "Combinatorial_reconstruct: k > 8 unsupported") (fun () ->
      ignore (Combinatorial_reconstruct.preimage enc en))

(* ------------------------------------------------------------------ *)
(* The k = 7, 8 reach: probes against the resident triple half         *)

let same_preimage enc entry =
  let mitm = Combinatorial_reconstruct.preimage enc entry in
  let linear = Linear_reconstruct.preimage enc entry in
  List.equal Signal.equal mitm linear
  &&
  match Combinatorial_reconstruct.first enc entry with
  | None -> linear = []
  | Some w -> List.exists (Signal.equal w) linear

(* Narrow widths (b = 5..10) give k = 7, 8 preimages of up to hundreds
   of members, so the canonical split has plenty to get wrong; a
   flipped bit asks about another timeprint, whose preimage may be
   empty. *)
let prop_mitm_k78_agrees_with_linear =
  QCheck.Test.make
    ~name:"MITM k in {7, 8} = Linear_reconstruct, clean and one bit flipped"
    ~count:150
    QCheck.(
      make
        ~print:(fun (m, k, b, seed, flip) ->
          Printf.sprintf "m=%d k=%d b=%d seed=%d flip=%b" m k b seed flip)
        Gen.(
          map
            (fun ((m, k, b), (seed, flip)) -> (m, k, b, seed, flip))
            (pair
               (triple (int_range 10 20) (int_range 7 8) (int_range 5 10))
               (pair (int_range 0 100000) bool))))
    (fun (m, k, b, seed, flip) ->
      let enc = Encoding.random_constrained ~depth:2 ~seed ~m ~b () in
      let st = Random.State.make [| seed; 78 |] in
      let entry = Logger.abstract enc (Signal.random st ~m ~k) in
      let entry =
        if flip then Fault.flip_tp entry ~bits:[ Random.State.int st b ]
        else entry
      in
      same_preimage enc entry)

(* b = 70 > 62: keys are word folds, not values. The low half of the
   design carries u_j << 13 in word 0 and the high half u_j in word 1,
   which the fold rotates onto the same key — so swapping j for n + j
   gives nearly every subset key-equal twins that only the candidate
   verification rejects. *)
let test_mitm_wide_k78 () =
  let n = 10 and b = 70 in
  let st = Random.State.make [| 70 |] in
  let us = Array.init n (fun j -> 1 + (j * 23) mod 255) in
  let word v ~at =
    List.filter_map
      (fun i -> if (v lsr i) land 1 = 1 then Some (at + i) else None)
      (List.init 8 Fun.id)
  in
  let ts =
    Array.init (2 * n) (fun i ->
        if i < n then Bitvec.of_indices ~width:b (word us.(i) ~at:13)
        else Bitvec.of_indices ~width:b (word us.(i - n) ~at:62))
  in
  let enc = Encoding.custom ts in
  List.iter
    (fun k ->
      for trial = 0 to 5 do
        let entry = Logger.abstract enc (Signal.random st ~m:(2 * n) ~k) in
        Alcotest.(check bool)
          (Printf.sprintf "k=%d trial %d = linear" k trial)
          true (same_preimage enc entry)
      done)
    [ 7; 8 ]

(* m < 3: the triple half is empty and every k > m has no member *)
let test_mitm_tiny_m () =
  List.iter
    (fun m ->
      let enc =
        Encoding.custom (Array.init m (fun i -> Bitvec.of_int ~width:4 (i + 1)))
      in
      for k = 0 to 8 do
        List.iter
          (fun tp ->
            let entry = Log_entry.make ~tp:(Bitvec.of_int ~width:4 tp) ~k in
            Alcotest.(check bool)
              (Printf.sprintf "m=%d k=%d tp=%d" m k tp)
              true (same_preimage enc entry))
          [ 0; 1; 3 ]
      done)
    [ 1; 2 ]

(* m = 16, b = 8: the triple half's C(16,3) = 560 keys get
   2^(⌈log₂ 560⌉ − 2) = 2^8 directory slots — every key bit — so a
   slot's run is exactly its key's hits and the half holds no keys;
   the pair half (120 entries, 2^5 slots) still scans its keys. *)
let test_mitm_covering_directory () =
  let m = 16 in
  let enc = Encoding.random_constrained ~depth:2 ~seed:16 ~m ~b:8 () in
  let st = Random.State.make [| 8 |] in
  for k = 0 to 8 do
    for trial = 0 to 3 do
      let entry = Logger.abstract enc (Signal.random st ~m ~k) in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d trial %d = linear" k trial)
        true (same_preimage enc entry)
    done
  done

(* A pack's table is rebuilt from the timestamps, never serialized: on
   compile and after a save/load round trip it must pick the same
   witnesses as a fresh table. *)
let test_pack_table_witnesses () =
  let m = 32 in
  let enc = Encoding.random_constrained ~depth:4 ~seed:2019 ~m ~b:11 () in
  let path = Filename.temp_file "tp_pack" ".pack" in
  let packs =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let p = Pack.compile enc in
        Pack.save p path;
        match Pack.load path with
        | Ok loaded -> [ p; loaded ]
        | Error e -> Alcotest.failf "load: %a" Pack.pp_load_error e)
  in
  let fresh = Combinatorial_reconstruct.pair_table enc in
  let st = Random.State.make [| 32 |] in
  for k = 0 to 8 do
    for trial = 0 to 2 do
      let entry = Logger.abstract enc (Signal.random st ~m ~k) in
      let expect = Combinatorial_reconstruct.first ~table:fresh enc entry in
      List.iteri
        (fun i p ->
          Alcotest.(check bool)
            (Printf.sprintf "pack %d k=%d trial %d: same witness" i k trial)
            true
            (Option.equal Signal.equal expect
               (Combinatorial_reconstruct.first ~table:(Pack.table p) enc entry)))
        packs
    done
  done

(* A forced meet at k ≥ 7 is bounded by its probe count, not just by
   the triple cap: C(m, k − 3) probes over 2^23 make it incapable, so
   [Plan.run ~engine:`Mitm] falls through to SAT. *)
let test_forced_meet_bounded () =
  let capable ~m ~k =
    let enc = Encoding.one_hot ~m in
    let q =
      Query.make ~answer:Query.First enc
        (Log_entry.make ~tp:(Bitvec.create m) ~k)
    in
    Engine.mitm.Engine.capable (Engine.context ~rank:m q) q = Ok ()
  in
  (* C(110,4) = 5.9M, C(128,4) = 10.7M; C(60,5) = 5.5M, C(70,5) = 12.1M *)
  Alcotest.(check bool) "k=7 m=110" true (capable ~m:110 ~k:7);
  Alcotest.(check bool) "k=7 m=128" false (capable ~m:128 ~k:7);
  Alcotest.(check bool) "k=8 m=60" true (capable ~m:60 ~k:8);
  Alcotest.(check bool) "k=8 m=70" false (capable ~m:70 ~k:8);
  Alcotest.(check bool) "k=6 m=368 (triple cap)" true (capable ~m:368 ~k:6);
  Alcotest.(check bool) "k=8 m=368" false (capable ~m:368 ~k:8)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "kernels"
    [
      ( "bitvec-kernels",
        qt [ prop_popcount_agrees; prop_parity_and_agrees ] );
      ("transpose", qt [ prop_transpose_agrees ]);
      ("rref-m4ri", qt [ prop_rref_m4ri_agrees; prop_rref_dispatch_agrees ]);
      ( "mitm",
        qt [ prop_mitm_agrees_with_sat; prop_mitm_wide_b ]
        @ [ Alcotest.test_case "supported/feasible bounds" `Quick test_mitm_supported_bounds ] );
      ( "mitm-k78",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 78 |])
            prop_mitm_k78_agrees_with_linear;
          Alcotest.test_case "wide b keeps keys and verification" `Quick
            test_mitm_wide_k78;
          Alcotest.test_case "m < 3, empty halves" `Quick test_mitm_tiny_m;
          Alcotest.test_case "directory covering every key bit" `Quick
            test_mitm_covering_directory;
          Alcotest.test_case "pack table = fresh table witnesses" `Quick
            test_pack_table_witnesses;
          Alcotest.test_case "forced meet bounded at k >= 7" `Quick
            test_forced_meet_bounded;
        ] );
    ]
