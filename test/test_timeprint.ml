(* Tests for the core timeprint library: the Figure 4 didactic example
   reproduced exactly, Galois-insertion laws, SAT-vs-linear-algebra
   reconstruction cross-checks, and property-encoding equivalence. *)

open Tp_bitvec
open Timeprint

let signal = Alcotest.testable Signal.pp Signal.equal
let entry = Alcotest.testable Log_entry.pp Log_entry.equal

(* a planned count query *)
let plan_count ?max_solutions e en =
  match Plan.run (Query.make ~answer:(Query.Count { max_solutions }) e en) with
  | Engine.Count (n, exactness), _ -> (n, exactness)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Figure 4 of the paper: m = 16, b = 8                                *)

let fig4_timestamps =
  Array.map Bitvec.of_string
    [|
      "00010100";
      "00111010";
      "00001111";
      "01000100";
      "00000010";
      "10101110";
      "01100000";
      "11110101";
      "00010111";
      "11100111";
      "10100000";
      "10101000";
      "10011110";
      "10001111";
      "01110000";
      "01101100";
    |]

let fig4_encoding = Encoding.custom fig4_timestamps

(* the actual signal: changes in clock-cycles 4, 5, 10, 11 (1-based) *)
let fig4_signal = Signal.of_changes ~m:16 [ 3; 4; 9; 10 ]

let fig4_entry = Logger.abstract fig4_encoding fig4_signal

let test_fig4_timeprint () =
  Alcotest.check entry "TP = 00000001, k = 4"
    (Log_entry.make ~tp:(Bitvec.of_string "00000001") ~k:4)
    fig4_entry

let test_fig4_alternate_combination () =
  (* TS(1) ⊕ TS(5) ⊕ TS(9) also equals 00000001 (k = 3) *)
  let s = Signal.of_changes ~m:16 [ 0; 4; 8 ] in
  Alcotest.check entry "k=3 alias"
    (Log_entry.make ~tp:(Bitvec.of_string "00000001") ~k:3)
    (Logger.abstract fig4_encoding s)

let test_fig4_256_combinations () =
  Alcotest.(check int) "256 unconstrained preimages" 256
    (Linear_reconstruct.preimage_size_unbounded fig4_encoding fig4_entry)

let test_fig4_8_with_k () =
  let sols = Linear_reconstruct.preimage fig4_encoding fig4_entry in
  Alcotest.(check int) "8 preimages with k = 4" 8 (List.length sols);
  Alcotest.(check bool) "actual signal among them" true
    (List.exists (Signal.equal fig4_signal) sols)

let test_fig4_sat_agrees () =
  let { Sat_reconstruct.signals; complete } =
    Plan.enumerate fig4_encoding fig4_entry
  in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check int) "8 SAT solutions" 8 (List.length signals);
  let lin = List.sort Signal.compare (Linear_reconstruct.preimage fig4_encoding fig4_entry) in
  let sat = List.sort Signal.compare signals in
  List.iter2 (fun a b -> Alcotest.check signal "same" a b) lin sat

let test_fig4_pulse_property_unique () =
  (* "changes always come as 2 consecutive ones" isolates the actual signal *)
  let { Sat_reconstruct.signals; complete } =
    Plan.enumerate ~assume:[ Property.pulse_pairs ] fig4_encoding fig4_entry
  in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check (list signal)) "unique = actual" [ fig4_signal ] signals

let test_fig4_deadline_holds_in_all () =
  (* deadline at i = 8: every k=4 reconstruction changes before cycle 8 *)
  let r =
    Plan.check fig4_encoding fig4_entry (Property.deadline ~count:1 ~before:8)
  in
  Alcotest.(check bool) "holds in all" true (r = `Holds_in_all)

let test_fig4_galois () =
  Alcotest.(check bool) "F ⊆ γ(α(F))" true
    (Galois.insertion_left fig4_encoding [ fig4_signal ]);
  Alcotest.(check bool) "V = α(γ(V))" true
    (Galois.insertion_right fig4_encoding [ fig4_entry ])

(* ------------------------------------------------------------------ *)
(* Signal                                                              *)

let test_signal_changes_roundtrip () =
  let s = Signal.of_changes ~m:20 [ 1; 5; 19 ] in
  Alcotest.(check (list int)) "changes" [ 1; 5; 19 ] (Signal.changes s);
  Alcotest.(check int) "k" 3 (Signal.num_changes s);
  Alcotest.(check int) "m" 20 (Signal.length s)

let test_signal_of_values () =
  (* values 0 0 1 1 0 -> changes at cycles 2 and 4 *)
  let s = Signal.of_values ~initial:false [| false; false; true; true; false |] in
  Alcotest.(check (list int)) "changes" [ 2; 4 ] (Signal.changes s);
  let s2 = Signal.of_values ~initial:true [| false; false; true; true; false |] in
  Alcotest.(check (list int)) "initial high" [ 0; 2; 4 ] (Signal.changes s2)

let test_signal_string_roundtrip () =
  let str = "0001100001100000" in
  Alcotest.(check string) "roundtrip" str (Signal.to_string (Signal.of_string str));
  Alcotest.check signal "fig4 signal" fig4_signal (Signal.of_string str)

let test_signal_delay_change () =
  let s = Signal.of_changes ~m:8 [ 2; 5 ] in
  let d = Signal.delay_change s ~at:2 in
  Alcotest.(check (list int)) "delayed" [ 3; 5 ] (Signal.changes d);
  Alcotest.check_raises "no change there"
    (Invalid_argument "Signal.delay_change: no change at cycle") (fun () ->
      ignore (Signal.delay_change s ~at:1))

let test_signal_random_k () =
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let s = Signal.random st ~m:64 ~k:7 in
    Alcotest.(check int) "k changes" 7 (Signal.num_changes s)
  done

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let test_one_hot () =
  let e = Encoding.one_hot ~m:12 in
  Alcotest.(check int) "b = m" 12 (Encoding.b e);
  Alcotest.(check bool) "fully independent" true (Encoding.verify_li e ~upto:5);
  (* one-hot reconstruction is always unique *)
  let s = Signal.of_changes ~m:12 [ 0; 3; 11 ] in
  let en = Logger.abstract e s in
  Alcotest.(check (list signal)) "unique" [ s ] (Linear_reconstruct.preimage e en)

let test_random_constrained_li4 () =
  let e = Encoding.random_constrained ~m:14 ~b:10 () in
  Alcotest.(check int) "m" 14 (Encoding.m e);
  Alcotest.(check bool) "LI-4 verified" true (Encoding.verify_li e ~upto:4)

let test_incremental_li4 () =
  let e = Encoding.incremental ~m:14 ~b:10 () in
  Alcotest.(check bool) "LI-4 verified" true (Encoding.verify_li e ~upto:4);
  (* deterministic: regenerating gives the same timestamps *)
  let e' = Encoding.incremental ~m:14 ~b:10 () in
  Array.iter2
    (fun a b -> Alcotest.(check bool) "same" true (Bitvec.equal a b))
    (Encoding.timestamps e) (Encoding.timestamps e')

let test_incremental_too_small () =
  Alcotest.(check bool) "raises" true
    (match Encoding.incremental ~m:100 ~b:7 () with
    | exception Failure _ -> true
    | _ -> false)

let test_auto_widths () =
  let e = Encoding.random_constrained_auto ~m:32 () in
  Alcotest.(check bool) "b in sane range" true
    (Encoding.b e >= Encoding.min_b ~m:32 && Encoding.b e <= 32);
  Alcotest.(check bool) "LI-4" true (Encoding.verify_li e ~upto:4)

let test_custom_validation () =
  Alcotest.(check bool) "duplicate rejected" true
    (match Encoding.custom [| Bitvec.of_string "01"; Bitvec.of_string "01" |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "zero rejected" true
    (match Encoding.custom [| Bitvec.of_string "00" |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_bch_encoding () =
  let e = Encoding.bch ~m:15 in
  Alcotest.(check int) "b = 2q" 8 (Encoding.b e);
  Alcotest.(check bool) "LI-4 verified exhaustively" true (Encoding.verify_li e ~upto:4);
  let big = Encoding.bch ~m:1024 in
  Alcotest.(check int) "m=1024 -> b=22" 22 (Encoding.b big);
  (* distinctness across the whole range *)
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun ts ->
      let s = Bitvec.to_string ts in
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen s);
      Hashtbl.add seen s ())
    (Encoding.timestamps big)

let test_min_b () =
  Alcotest.(check int) "m=64" 6 (Encoding.min_b ~m:64);
  Alcotest.(check int) "m=65" 7 (Encoding.min_b ~m:65);
  Alcotest.(check int) "m=2" 1 (Encoding.min_b ~m:2)

(* ------------------------------------------------------------------ *)
(* Logger                                                              *)

let test_logger_streaming_equals_abstract () =
  let e = Encoding.random_constrained ~m:16 ~b:10 () in
  let s = Signal.of_changes ~m:16 [ 2; 3; 8; 9; 15 ] in
  let t = Logger.create e in
  let finished = ref None in
  List.iteri
    (fun i _ ->
      match Logger.step t ~change:(Signal.change_at s i) with
      | Some en -> finished := Some en
      | None -> ())
    (List.init 16 Fun.id);
  match !finished with
  | None -> Alcotest.fail "no entry emitted"
  | Some en -> Alcotest.check entry "streaming = abstract" (Logger.abstract e s) en

let test_logger_multi_trace_cycles () =
  let e = Encoding.random_constrained ~m:8 ~b:6 () in
  let s1 = Signal.of_changes ~m:8 [ 1; 2 ] and s2 = Signal.of_changes ~m:8 [ 0; 7 ] in
  let t = Logger.create e in
  for i = 0 to 7 do
    ignore (Logger.step t ~change:(Signal.change_at s1 i))
  done;
  for i = 0 to 7 do
    ignore (Logger.step t ~change:(Signal.change_at s2 i))
  done;
  Alcotest.(check (list entry)) "two entries"
    [ Logger.abstract e s1; Logger.abstract e s2 ]
    (Logger.completed t)

let test_logger_run_values () =
  let e = Encoding.random_constrained ~m:4 ~b:4 () in
  (* 10 samples: 2 complete trace-cycles, half-finished third dropped *)
  let values = [| true; true; false; false; true; false; true; true; false; false |] in
  let entries = Logger.run_values e values in
  Alcotest.(check int) "two complete" 2 (List.length entries);
  let s1 = Signal.of_values ~initial:false (Array.sub values 0 4) in
  let s2 = Signal.of_values ~initial:values.(3) (Array.sub values 4 4) in
  Alcotest.(check (list entry)) "entries match"
    [ Logger.abstract e s1; Logger.abstract e s2 ]
    entries

let prop_logger_linear =
  (* α̃ is linear in the change vector: TP(s ⊕ t) = TP(s) ⊕ TP(t) *)
  QCheck.Test.make ~name:"timeprint aggregation is linear over F2" ~count:200
    QCheck.(pair (int_bound ((1 lsl 12) - 1)) (int_bound ((1 lsl 12) - 1)))
    (fun (a, b) ->
      let e = Encoding.random_constrained ~m:12 ~b:9 () in
      let sa = Signal.of_bitvec (Bitvec.of_int ~width:12 a) in
      let sb = Signal.of_bitvec (Bitvec.of_int ~width:12 b) in
      let sxor =
        Signal.of_bitvec (Bitvec.logxor (Signal.to_bitvec sa) (Signal.to_bitvec sb))
      in
      Bitvec.equal
        (Log_entry.tp (Logger.abstract e sxor))
        (Bitvec.logxor
           (Log_entry.tp (Logger.abstract e sa))
           (Log_entry.tp (Logger.abstract e sb))))

let test_log_entry_serialize () =
  let en = Log_entry.make ~tp:(Bitvec.of_string "1011001") ~k:5 in
  let wire = Log_entry.serialize ~m:100 en in
  Alcotest.(check int) "7 + 7 bits" 14 (Bitvec.width wire);
  Alcotest.check entry "roundtrip" en (Log_entry.deserialize ~m:100 ~b:7 wire)

(* ------------------------------------------------------------------ *)
(* Design parameters                                                   *)

let test_design_counter_bits () =
  Alcotest.(check int) "m=1000 -> 10 bits (the paper's 5.2.1)" 10
    (Design.counter_bits ~m:1000);
  Alcotest.(check int) "m=16 -> 5" 5 (Design.counter_bits ~m:16)

let test_design_can_rate () =
  (* §5.2.1: b=24, m=1000 at 5 Mbps -> 5 entries/s of 34 bits = 170 bps *)
  let e = Encoding.custom ~depth:4 (Encoding.timestamps (Encoding.random_constrained ~m:8 ~b:24 ())) in
  ignore e;
  let bits = 24 + Design.counter_bits ~m:1000 in
  Alcotest.(check int) "34 bits per trace-cycle" 34 bits;
  Alcotest.(check int) "170 bps" 170 (5 * bits)

let test_design_naive () =
  Alcotest.(check int) "naive m=16 k=4 = 16 bits (Fig. 4)" 16
    (Design.naive_bits ~m:16 ~k:4);
  Alcotest.(check int) "max loggable m=64" 10 (Design.naive_max_changes ~m:64)

(* ------------------------------------------------------------------ *)
(* Property semantics                                                  *)

let sig_of_str = Signal.of_string

let test_property_eval_p2 () =
  let open Property in
  Alcotest.(check bool) "adjacent pair" true (eval p2 (sig_of_str "00110000"));
  Alcotest.(check bool) "isolated" false (eval p2 (sig_of_str "01010101"));
  Alcotest.(check bool) "empty" false (eval p2 (sig_of_str "00000000"))

let test_property_eval_pulse_pairs () =
  let open Property in
  Alcotest.(check bool) "two pairs" true (eval pulse_pairs (sig_of_str "0110011000"));
  Alcotest.(check bool) "no changes" true (eval pulse_pairs (sig_of_str "0000"));
  Alcotest.(check bool) "triple" false (eval pulse_pairs (sig_of_str "0111000"));
  Alcotest.(check bool) "back-to-back pairs" true (eval pulse_pairs (sig_of_str "1111000"));
  Alcotest.(check bool) "lone change" false (eval pulse_pairs (sig_of_str "000100"));
  Alcotest.(check bool) "pair at end" true (eval pulse_pairs (sig_of_str "000011"));
  Alcotest.(check bool) "cut pair at end" false (eval pulse_pairs (sig_of_str "000001"))

let test_property_eval_deadline () =
  let open Property in
  let s = sig_of_str "01010000" in
  Alcotest.(check bool) "2 before 4" true (eval (deadline ~count:2 ~before:4) s);
  Alcotest.(check bool) "not 3 before 4" false (eval (deadline ~count:3 ~before:4) s);
  Alcotest.(check bool) "2 before 2 fails" false (eval (deadline ~count:2 ~before:2) s)

let test_property_eval_window () =
  let open Property in
  let s = sig_of_str "00110000" in
  Alcotest.(check bool) "inside" true (eval (window ~lo:2 ~hi:3) s);
  Alcotest.(check bool) "outside" false (eval (window ~lo:0 ~hi:2) s)

let test_property_eval_pattern () =
  let open Property in
  let pat = sig_of_str "101" in
  let s = sig_of_str "00101000" in
  Alcotest.(check bool) "found at 2" true
    (eval (Pattern_at { pattern = pat; lo = 0; hi = 5 }) s);
  Alcotest.(check bool) "window too early" false
    (eval (Pattern_at { pattern = pat; lo = 0; hi = 1 }) s)

let test_property_eval_delayed_once () =
  let open Property in
  let reference = sig_of_str "00100100" in
  Alcotest.(check bool) "second delayed" true
    (eval (delayed_once reference) (sig_of_str "00100010"));
  Alcotest.(check bool) "first delayed" true
    (eval (delayed_once reference) (sig_of_str "00010100"));
  Alcotest.(check bool) "same is not delayed" false
    (eval (delayed_once reference) reference);
  Alcotest.(check bool) "two delays rejected" false
    (eval (delayed_once reference) (sig_of_str "00010010"))

(* Property encoding agrees with eval: enumerate all models of the
   encoded property over free change variables and compare with the
   brute-force filter of all 2^m signals. *)
let property_encoding_agrees ~m prop =
  let open Tp_sat in
  let run polarity =
    let cnf = Cnf.create () in
    let xvars = Array.init m (fun _ -> Cnf.new_var cnf) in
    (match polarity with
    | `Holds -> Property.assert_holds cnf ~m ~xvar:(fun i -> xvars.(i)) prop
    | `Violated -> Property.assert_violated cnf ~m ~xvar:(fun i -> xvars.(i)) prop);
    let s = Solver.of_cnf cnf in
    let { Allsat.models; complete } =
      Allsat.enumerate s ~project:(Array.to_list xvars)
    in
    assert complete;
    List.sort compare (List.map Array.to_list models)
  in
  let expected keep =
    let out = ref [] in
    for mask = (1 lsl m) - 1 downto 0 do
      let s = Signal.of_bitvec (Bitvec.of_int ~width:m mask) in
      if keep (Property.eval prop s) then
        out := List.init m (fun i -> Signal.change_at s i) :: !out
    done;
    List.sort compare !out
  in
  run `Holds = expected (fun b -> b) && run `Violated = expected not

let gen_property m =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Property.P2;
        return Property.Pulse_pairs;
        (pair (int_range 0 3) (int_range (-2) (m + 2)) >|= fun (count, before) ->
         Property.Deadline { count; before });
        (pair (int_bound (m - 1)) (int_bound (m - 1)) >|= fun (a, b) ->
         Property.Window { lo = min a b; hi = max a b });
        (int_bound (m - 1) >|= fun i -> Property.Change_at i);
        (int_bound (m - 1) >|= fun i -> Property.No_change_at i);
        ( int_bound ((1 lsl min m 4) - 1) >>= fun pat ->
          pair (int_bound (m - 1)) (int_bound (m - 1)) >|= fun (a, b) ->
          Property.Pattern_at
            {
              pattern = Signal.of_bitvec (Bitvec.of_int ~width:(min m 4) (max pat 0));
              lo = min a b;
              hi = max a b;
            } );
        (int_bound ((1 lsl m) - 1) >|= fun r ->
         Property.Delayed_once (Signal.of_bitvec (Bitvec.of_int ~width:m r)));
        (int_range 1 (m - 1) >|= fun n -> Property.Min_separation n);
        (int_range 1 (m - 1) >|= fun n -> Property.Max_separation n);
        (triple (int_bound (m - 1)) (int_bound (m - 1)) (int_range 0 3)
        >|= fun (a, b, n) ->
         Property.At_least_in { lo = min a b; hi = max a b; n });
        (triple (int_bound (m - 1)) (int_bound (m - 1)) (int_range 0 3)
        >|= fun (a, b, n) ->
         Property.At_most_in { lo = min a b; hi = max a b; n });
        ( list_size (int_range 0 2)
            (pair (int_bound (m - 1)) (int_bound (m - 1)))
        >|= fun ws ->
          Property.Allowed (List.map (fun (a, b) -> (min a b, max a b)) ws) );
        (int_bound ((1 lsl m) - 1) >|= fun r ->
         Property.Exact (Signal.of_bitvec (Bitvec.of_int ~width:m r)));
      ]
  in
  let rec formula depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, formula (depth - 1) >|= fun p -> Property.Not p);
          ( 1,
            list_size (int_range 0 3) (formula (depth - 1)) >|= fun ps ->
            Property.And ps );
          ( 1,
            list_size (int_range 0 3) (formula (depth - 1)) >|= fun ps ->
            Property.Or ps );
        ]
  in
  formula 2

let prop_property_encoding =
  let m = 6 in
  QCheck.Test.make ~name:"property encoding = reference semantics" ~count:120
    (QCheck.make ~print:(Format.asprintf "%a" Property.pp) (gen_property m))
    (fun prop -> property_encoding_agrees ~m prop)

(* ------------------------------------------------------------------ *)
(* Reconstruction cross-checks                                         *)

let prop_sat_equals_linear =
  QCheck.Test.make ~name:"SAT reconstruction = linear-algebra preimage" ~count:60
    QCheck.(pair (int_range 0 ((1 lsl 10) - 1)) (int_range 8 10))
    (fun (mask, b) ->
      let m = 10 in
      let e = Encoding.random_constrained ~m ~b ~seed:(mask + b) () in
      let s = Signal.of_bitvec (Bitvec.of_int ~width:m mask) in
      let en = Logger.abstract e s in
      let { Sat_reconstruct.signals; complete } = Plan.enumerate e en in
      complete
      &&
      let sat = List.sort Signal.compare signals in
      let lin = List.sort Signal.compare (Linear_reconstruct.preimage e en) in
      List.length sat = List.length lin
      && List.for_all2 Signal.equal sat lin
      && List.exists (Signal.equal s) sat)

let prop_sat_equals_linear_with_properties =
  QCheck.Test.make
    ~name:"SAT reconstruction under properties = filtered preimage" ~count:40
    QCheck.(triple (int_range 0 ((1 lsl 10) - 1)) (int_range 8 10) (int_range 1 4))
    (fun (mask, b, count) ->
      let m = 10 in
      let e = Encoding.random_constrained ~m ~b ~seed:(mask * 7) () in
      let s = Signal.of_bitvec (Bitvec.of_int ~width:m mask) in
      let en = Logger.abstract e s in
      let assume = [ Property.deadline ~count ~before:6 ] in
      let { Sat_reconstruct.signals; complete } = Plan.enumerate ~assume e en in
      complete
      &&
      let sat = List.sort Signal.compare signals in
      let lin =
        List.sort Signal.compare (Linear_reconstruct.preimage_with e en ~assume)
      in
      List.length sat = List.length lin && List.for_all2 Signal.equal sat lin)

let prop_check_classification =
  QCheck.Test.make ~name:"check matches brute-force classification" ~count:40
    QCheck.(pair (int_range 0 ((1 lsl 9) - 1)) (int_range 1 5))
    (fun (mask, before) ->
      let m = 9 in
      let e = Encoding.random_constrained ~m ~b:7 ~seed:mask () in
      let s = Signal.of_bitvec (Bitvec.of_int ~width:m mask) in
      let en = Logger.abstract e s in
      let prop = Property.deadline ~count:1 ~before in
      let pre = Linear_reconstruct.preimage e en in
      let sat_count = List.length (List.filter (Property.eval prop) pre) in
      let expected =
        if pre = [] then `Vacuous
        else if sat_count = List.length pre then `Holds_in_all
        else if sat_count = 0 then `Violated_in_all
        else `Mixed
      in
      Plan.check e en prop = expected)

let prop_galois_insertion =
  QCheck.Test.make ~name:"Galois insertion laws (Lemma 1)" ~count:60
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 6) (int_bound 255)) (int_range 7 9))
    (fun (masks, b) ->
      let m = 8 in
      let e = Encoding.random_constrained ~m ~b ~seed:(List.length masks) () in
      let signals =
        List.map (fun k -> Signal.of_bitvec (Bitvec.of_int ~width:m k)) masks
      in
      Galois.insertion_left e signals
      && Galois.insertion_right e (Galois.abstract e signals))

let test_unrealizable_entry () =
  (* an entry with k inconsistent with TP must have an empty preimage
     and the SAT path must agree *)
  let e = Encoding.one_hot ~m:6 in
  let en = Log_entry.make ~tp:(Bitvec.of_indices ~width:6 [ 0; 1 ]) ~k:3 in
  Alcotest.(check (list signal)) "empty preimage" []
    (Linear_reconstruct.preimage e en);
  Alcotest.(check bool) "unrealizable" false (Galois.realizable e en);
  match Plan.first e en with
  | `Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_check_vacuous () =
  let e = Encoding.one_hot ~m:6 in
  let en = Log_entry.make ~tp:(Bitvec.of_indices ~width:6 [ 0 ]) ~k:2 in
  Alcotest.(check bool) "vacuous" true
    (Plan.check e en Property.p2 = `Vacuous)

let prop_combinatorial_equals_linear =
  QCheck.Test.make ~count:80
    ~name:"meet-in-the-middle preimage = linear-algebra preimage (k <= 4)"
    QCheck.(pair (int_range 0 4) (int_bound 10_000))
    (fun (k, seed) ->
      let m = 12 in
      let e = Encoding.random_constrained ~m ~b:9 ~seed () in
      let st = Random.State.make [| seed; k |] in
      let s = Signal.random st ~m ~k in
      let en = Logger.abstract e s in
      let comb = Combinatorial_reconstruct.preimage e en in
      let lin = List.sort Signal.compare (Linear_reconstruct.preimage e en) in
      List.length comb = List.length lin && List.for_all2 Signal.equal comb lin)

let prop_li4_low_k_unique =
  (* the LI-4 guarantee: with k <= 2 the reconstruction is unique *)
  QCheck.Test.make ~count:100 ~name:"LI-4 encodings make k <= 2 unambiguous"
    QCheck.(pair (int_range 0 2) (int_bound 10_000))
    (fun (k, seed) ->
      let m = 14 in
      let e = Encoding.random_constrained ~m ~b:10 ~seed () in
      let st = Random.State.make [| seed; k; 5 |] in
      let s = Signal.random st ~m ~k in
      let en = Logger.abstract e s in
      match Combinatorial_reconstruct.preimage e en with
      | [ unique ] -> Signal.equal unique s
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* TCL timing constraints                                               *)

let test_tcl_eval_basics () =
  let m = 12 in
  let s = sig_of_str "010010010000" in
  Alcotest.(check bool) "separation min 2" true
    (Tcl.eval ~m (Tcl.separation ~min:2 ()) s);
  Alcotest.(check bool) "separation min 3" false
    (Tcl.eval ~m (Tcl.separation ~min:3 ()) s);
  Alcotest.(check bool) "separation max 3" true
    (Tcl.eval ~m (Tcl.separation ~max:3 ()) s);
  Alcotest.(check bool) "periodic 1,3,0" true
    (Tcl.eval ~m (Tcl.periodic ~offset:1 ~period:3 ()) s);
  Alcotest.(check bool) "periodic off-phase" false
    (Tcl.eval ~m (Tcl.periodic ~offset:0 ~period:3 ()) s);
  Alcotest.(check bool) "count" true
    (Tcl.eval ~m (Tcl.count_in ~lo:0 ~hi:5 ~min:2 ~max:2 ()) s)

let test_tcl_periodic_jitter_guard () =
  Alcotest.check_raises "2*jitter >= period rejected"
    (Invalid_argument "Tcl.compile: Periodic requires 2*jitter < period")
    (fun () -> ignore (Tcl.compile ~m:8 ~k:2 (Tcl.periodic ~period:4 ~jitter:2 ())))

let gen_tcl m =
  let open QCheck.Gen in
  let sep =
    pair (opt (int_range 0 3)) (opt (int_range 1 (m - 1))) >|= fun (min, max) ->
    Tcl.Separation { min; max }
  in
  let count =
    pair (pair (int_bound (m - 1)) (int_bound (m - 1)))
      (pair (opt (int_range 0 3)) (opt (int_range 0 4)))
    >|= fun ((a, b), (min, max)) ->
    Tcl.Count_in { lo = Stdlib.min a b; hi = Stdlib.max a b; min; max }
  in
  let per =
    triple (int_bound 3) (int_range 3 5) (int_bound 1) >|= fun (offset, period, jitter) ->
    Tcl.Periodic { offset; period; jitter }
  in
  let within =
    list_size (int_range 1 2) (pair (int_bound (m - 1)) (int_bound (m - 1)))
    >|= fun ws -> Tcl.Within (List.map (fun (a, b) -> (Stdlib.min a b, Stdlib.max a b)) ws)
  in
  oneof [ sep; count; per; within ]

let prop_tcl_compile_agrees =
  (* over signals with exactly k changes, the compiled property accepts
     exactly the signals the reference semantics accepts *)
  let m = 7 in
  QCheck.Test.make ~count:150 ~name:"Tcl.compile = Tcl.eval at fixed k"
    QCheck.(
      pair (make ~print:(Format.asprintf "%a" Tcl.pp) (gen_tcl m)) (int_range 0 4))
    (fun (c, k) ->
      let prop = Tcl.compile ~m ~k c in
      let ok = ref true in
      for mask = 0 to (1 lsl m) - 1 do
        let s = Signal.of_bitvec (Bitvec.of_int ~width:m mask) in
        if Signal.num_changes s = k then
          if Property.eval prop s <> Tcl.eval ~m c s then ok := false
      done;
      !ok)

let test_tcl_reconstruction_pruning () =
  (* a periodic constraint isolates the actual periodic signal *)
  let m = 16 in
  let e = Encoding.random_constrained ~m ~b:10 ~seed:3 () in
  let s = Signal.of_changes ~m [ 2; 6; 10; 14 ] in
  let entry = Logger.abstract e s in
  let c = Tcl.periodic ~offset:2 ~period:4 ~jitter:1 () in
  let { Sat_reconstruct.signals; complete } =
    Plan.enumerate ~assume:[ Tcl.compile ~m ~k:(Log_entry.k entry) c ] e entry
  in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check bool) "actual found" true (List.exists (Signal.equal s) signals);
  List.iter
    (fun sol ->
      Alcotest.(check bool) "every solution is periodic" true (Tcl.eval ~m c sol))
    signals

(* ------------------------------------------------------------------ *)
(* Trace database (Figure 3 storage)                                   *)

let test_trace_db_roundtrip () =
  let e = Encoding.random_constrained ~m:16 ~b:10 () in
  let db = Trace_db.create ~capacity:4 e in
  let entries =
    List.init 6 (fun i ->
        Logger.abstract e (Signal.of_changes ~m:16 [ i; i + 4 ]))
  in
  List.iter (Trace_db.append db) entries;
  Alcotest.(check int) "total" 6 (Trace_db.total db);
  Alcotest.(check int) "oldest after wear-out" 2 (Trace_db.oldest db);
  Alcotest.(check bool) "cycle 0 worn out" true (Trace_db.entry db 0 = None);
  Alcotest.(check bool) "cycle 9 not yet" true (Trace_db.entry db 9 = None);
  (match Trace_db.entry db 3 with
  | Some got -> Alcotest.check entry "cycle 3" (List.nth entries 3) got
  | None -> Alcotest.fail "cycle 3 should be retrievable");
  Alcotest.(check int) "window size" 3
    (List.length (Trace_db.window db ~from_cycle:0 ~to_cycle:4));
  Alcotest.(check int) "bits stored" (4 * (10 + 5)) (Trace_db.bits_stored db)

let test_trace_db_time_lookup () =
  let e = Encoding.bch ~m:1000 in
  let db = Trace_db.create ~capacity:100_000 e in
  (* 5 MHz bit clock: trace-cycles of 200 us, as in §5.2.1 *)
  for i = 0 to 20_000 do
    Trace_db.append db
      (Logger.abstract e (Signal.of_changes ~m:1000 [ i mod 1000 ]))
  done;
  match Trace_db.entry_at_time db ~clock_hz:5e6 2.2534 with
  | Some (i, _) -> Alcotest.(check int) "trace-cycle of 2.2534 s" 11267 i
  | None -> Alcotest.fail "entry should exist"

let test_trace_db_time_boundary () =
  let m = 16 in
  let e = Encoding.random_constrained ~m ~b:10 () in
  let db = Trace_db.create ~capacity:8 e in
  let entry0 = Logger.abstract e (Signal.of_changes ~m [ 1 ]) in
  for _ = 1 to 4 do Trace_db.append db entry0 done;
  (* non-finite and overflowing times answer None — int_of_float on
     NaN or 1e300 is unspecified (0 on amd64), which used to alias
     these queries to trace-cycle 0 *)
  let none t = Trace_db.entry_at_time db ~clock_hz:16. t = None in
  Alcotest.(check bool) "nan" true (none Float.nan);
  Alcotest.(check bool) "huge" true (none 1e300);
  Alcotest.(check bool) "inf" true (none Float.infinity);
  Alcotest.(check bool) "negative" true (none (-1.));
  (* a boundary time one ulp short of trace-cycle 2^26: an absolute
     epsilon is smaller than one ulp at that magnitude, so the old
     guard landed in the previous entry; the relative guard recovers
     the boundary index *)
  let i0 = 1 lsl 26 in
  for _ = 1 to i0 - 3 do Trace_db.append db entry0 done;
  (* clock_hz = m: one trace-cycle per second, cycles = time exactly *)
  match
    Trace_db.entry_at_time db ~clock_hz:(float_of_int m)
      (Float.pred (float_of_int i0))
  with
  | Some (i, _) -> Alcotest.(check int) "boundary index" i0 i
  | None -> Alcotest.fail "boundary entry should exist"

let test_first_certified () =
  (* SAT side: finds a signal like first does *)
  let pb = Sat_reconstruct.problem fig4_encoding fig4_entry in
  (match Sat_reconstruct.first_certified pb with
  | `Signal s ->
      Alcotest.(check bool) "a genuine preimage" true
        (Log_entry.equal (Logger.abstract fig4_encoding s) fig4_entry)
  | _ -> Alcotest.fail "expected SAT");
  (* UNSAT side: an unrealizable entry yields a checked certificate *)
  let e = Encoding.one_hot ~m:8 in
  let bad = Log_entry.make ~tp:(Bitvec.of_indices ~width:8 [ 0; 1 ]) ~k:3 in
  match Sat_reconstruct.first_certified (Sat_reconstruct.problem e bad) with
  | `Unsat_certified proof ->
      Alcotest.(check bool) "non-empty certificate" true (String.length proof > 0)
  | `Signal _ -> Alcotest.fail "unrealizable entry reconstructed"
  | `Unknown -> Alcotest.fail "budget exhausted"

let test_trace_buffer_exact_until_overflow () =
  let m = 16 in
  (* room for exactly 6 changes of 4 bits each *)
  let buf = Trace_buffer.create ~capacity_bits:24 ~m in
  Alcotest.(check int) "4 bits per change" 4 (Trace_buffer.bits_per_change buf);
  let s2 = Signal.of_changes ~m [ 1; 2 ] in
  Alcotest.(check bool) "first fits" true (Trace_buffer.record_trace_cycle buf s2);
  Alcotest.(check bool) "second fits" true (Trace_buffer.record_trace_cycle buf s2);
  Alcotest.(check bool) "third fits" true (Trace_buffer.record_trace_cycle buf s2);
  Alcotest.(check bool) "fourth overflows" false
    (Trace_buffer.record_trace_cycle buf s2);
  Alcotest.(check bool) "latched" true (Trace_buffer.overflowed buf);
  Alcotest.(check bool) "nothing after overflow" false
    (Trace_buffer.record_trace_cycle buf (Signal.create m));
  Alcotest.(check int) "captured 3 of 5" 3 (List.length (Trace_buffer.captured buf));
  Alcotest.(check bool) "coverage 0.6" true
    (abs_float (Trace_buffer.coverage buf -. 0.6) < 1e-9)

let test_trace_buffer_vs_trace_db_storage () =
  (* the §1 comparison at the §5.2.1 design point: for the same bursty
     activity, the timeprint store's footprint is constant while the
     precise buffer scales with activity *)
  let m = 1000 in
  let e = Encoding.bch ~m in
  let db = Trace_db.create ~capacity:1000 e in
  let st = Random.State.make [| 1 |] in
  let total_precise = ref 0 in
  for _ = 1 to 100 do
    let k = 50 + Random.State.int st 100 in
    let s = Signal.random st ~m ~k in
    Trace_db.append db (Logger.abstract e s);
    total_precise := !total_precise + Design.naive_bits ~m ~k
  done;
  Alcotest.(check int) "constant timeprint footprint"
    (100 * Design.bits_per_trace_cycle e)
    (Trace_db.bits_stored db);
  Alcotest.(check bool) "precise logging is much larger" true
    (!total_precise > 10 * Trace_db.bits_stored db)

let test_combinatorial_rejects_large_k () =
  let e = Encoding.one_hot ~m:8 in
  let en = Log_entry.make ~tp:(Bitvec.of_indices ~width:8 [ 0 ]) ~k:9 in
  Alcotest.(check bool) "k=7 supported" true (Combinatorial_reconstruct.supported ~k:7);
  Alcotest.(check bool) "k=8 supported" true (Combinatorial_reconstruct.supported ~k:8);
  Alcotest.(check bool) "k=9 unsupported" false (Combinatorial_reconstruct.supported ~k:9);
  Alcotest.check_raises "raises"
    (Invalid_argument "Combinatorial_reconstruct: k > 8 unsupported") (fun () ->
      ignore (Combinatorial_reconstruct.preimage e en))

let test_combinatorial_fig4 () =
  let sols = Combinatorial_reconstruct.preimage fig4_encoding fig4_entry in
  Alcotest.(check int) "8 solutions via MITM" 8 (List.length sols);
  Alcotest.(check (list signal)) "pulse filter isolates the actual"
    [ fig4_signal ]
    (Combinatorial_reconstruct.preimage_with fig4_encoding fig4_entry
       ~assume:[ Property.pulse_pairs ])

let test_max_solutions_cap () =
  let { Sat_reconstruct.signals; complete } =
    Plan.enumerate ~max_solutions:3 fig4_encoding fig4_entry
  in
  Alcotest.(check int) "3 of 8" 3 (List.length signals);
  Alcotest.(check bool) "incomplete" false complete

let test_count_completeness () =
  Alcotest.(check bool) "exact count of 8" true
    (plan_count fig4_encoding fig4_entry = (8, `Exact));
  Alcotest.(check bool) "cap reported as lower bound" true
    (plan_count ~max_solutions:3 fig4_encoding fig4_entry = (3, `Lower_bound))

(* ------------------------------------------------------------------ *)
(* Incremental sessions and batch reconstruction: one solver, same
   answers as the cold path *)

let test_session_first_agrees () =
  let s =
    Sat_reconstruct.Session.create
      (Sat_reconstruct.problem fig4_encoding fig4_entry)
  in
  (match Sat_reconstruct.Session.first s with
  | `Signal sol ->
      Alcotest.check entry "a genuine preimage" fig4_entry
        (Logger.abstract fig4_encoding sol)
  | _ -> Alcotest.fail "expected SAT");
  let st = Sat_reconstruct.Session.last_stats s in
  Alcotest.(check bool) "stats populated" true (st.Tp_sat.Solver.decisions > 0)

let test_session_enumerate_equals_cold () =
  let cold = Plan.enumerate fig4_encoding fig4_entry in
  let s =
    Sat_reconstruct.Session.create
      (Sat_reconstruct.problem fig4_encoding fig4_entry)
  in
  let sorted e = List.sort Signal.compare e.Sat_reconstruct.signals in
  let warm1 = Sat_reconstruct.Session.enumerate s in
  Alcotest.(check bool) "complete" true warm1.complete;
  Alcotest.(check (list signal)) "same preimage" (sorted cold) (sorted warm1);
  (* the blocking clauses were retired with their guard: a repeat
     enumeration on the same session sees the whole preimage again *)
  let warm2 = Sat_reconstruct.Session.enumerate s in
  Alcotest.(check (list signal)) "repeat enumeration intact" (sorted cold)
    (sorted warm2);
  Alcotest.(check bool) "count exact" true
    (Sat_reconstruct.Session.count s = (8, `Exact));
  Alcotest.(check bool) "capped count is a lower bound" true
    (Sat_reconstruct.Session.count ~max_solutions:3 s = (3, `Lower_bound))

let test_session_check_equals_cold () =
  let s =
    Sat_reconstruct.Session.create
      (Sat_reconstruct.problem fig4_encoding fig4_entry)
  in
  let props =
    [
      Property.deadline ~count:1 ~before:8;
      Property.pulse_pairs;
      Property.p2;
      Property.window ~lo:0 ~hi:15;
      (* repeat: hits the cached guarded encoding *)
      Property.deadline ~count:1 ~before:8;
    ]
  in
  List.iter
    (fun p ->
      let cold = Plan.check fig4_encoding fig4_entry p in
      let warm = Sat_reconstruct.Session.check s p in
      Alcotest.(check bool)
        (Format.asprintf "%a agrees" Property.pp p)
        true (cold = warm))
    props;
  (* queries after the property checks still see the unpolluted preimage *)
  Alcotest.(check bool) "count still exact" true
    (Sat_reconstruct.Session.count s = (8, `Exact))

let test_session_vacuous () =
  let e = Encoding.one_hot ~m:6 in
  let bad = Log_entry.make ~tp:(Bitvec.of_indices ~width:6 [ 0; 1 ]) ~k:3 in
  let s = Sat_reconstruct.Session.create (Sat_reconstruct.problem e bad) in
  Alcotest.(check bool) "unsat" true (Sat_reconstruct.Session.first s = `Unsat);
  Alcotest.(check bool) "vacuous check" true
    (Sat_reconstruct.Session.check s Property.p2 = `Vacuous)

let test_batch_equals_cold_firsts () =
  let e = Encoding.one_hot ~m:8 in
  let entries =
    List.map
      (fun changes -> Logger.abstract e (Signal.of_changes ~m:8 changes))
      [ [ 0; 3 ]; [ 1; 2; 5 ]; []; [ 0; 3 ]; [ 7 ] ]
    (* an unrealizable entry: 2 TP bits set but k = 3 *)
    @ [ Log_entry.make ~tp:(Bitvec.of_indices ~width:8 [ 0; 1 ]) ~k:3 ]
  in
  let batched = Sat_reconstruct.batch e entries in
  Alcotest.(check int) "one verdict per entry" (List.length entries)
    (List.length batched);
  List.iter2
    (fun en (v, _, st) ->
      (match (Plan.first e en, v) with
      | `Signal _, `Signal sol ->
          Alcotest.check entry "batch solution abstracts back" en
            (Logger.abstract e sol)
      | `Unsat, `Unsat -> ()
      | _ -> Alcotest.fail "batch verdict differs from cold first");
      Alcotest.(check bool) "per-entry stats sane" true
        (st.Tp_sat.Solver.conflicts >= 0))
    entries batched

let test_batch_with_properties () =
  (* the assumed property constrains every entry of the stream: under
     pulse_pairs the fig4 entry has exactly one reconstruction *)
  let batched =
    Sat_reconstruct.batch ~assume:[ Property.pulse_pairs ] fig4_encoding
      [ fig4_entry ]
  in
  match batched with
  | [ (`Signal s, _, _) ] ->
      Alcotest.check signal "the actual signal" fig4_signal s
  | _ -> Alcotest.fail "expected one SAT verdict"

let test_batch_width_mismatch () =
  let e = Encoding.one_hot ~m:8 in
  let bad = Log_entry.make ~tp:(Bitvec.of_indices ~width:4 [ 0 ]) ~k:1 in
  Alcotest.(check bool) "raises" true
    (match Sat_reconstruct.batch e [ bad ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_session_equals_cold =
  QCheck.Test.make ~name:"session verdicts = cold verdicts" ~count:30
    QCheck.(pair (int_range 0 ((1 lsl 10) - 1)) (int_range 8 10))
    (fun (mask, b) ->
      let m = 10 in
      let e = Encoding.random_constrained ~m ~b ~seed:(mask lxor b) () in
      let s = Signal.of_bitvec (Bitvec.of_int ~width:m mask) in
      let en = Logger.abstract e s in
      let session =
        Sat_reconstruct.Session.create (Sat_reconstruct.problem e en)
      in
      let cold = Plan.enumerate e en in
      let warm = Sat_reconstruct.Session.enumerate session in
      let prop = Property.deadline ~count:1 ~before:5 in
      cold.complete && warm.complete
      && List.sort Signal.compare cold.signals
         = List.sort Signal.compare warm.signals
      && Sat_reconstruct.Session.check session prop = Plan.check e en prop
      && Sat_reconstruct.Session.count session
         = (List.length cold.signals, `Exact))

let prop_batch_equals_cold =
  QCheck.Test.make ~name:"batch verdicts = cold firsts" ~count:15
    QCheck.(list_of_size (QCheck.Gen.int_range 1 6) (int_range 0 ((1 lsl 10) - 1)))
    (fun masks ->
      let m = 10 in
      let e = Encoding.random_constrained ~m ~b:9 ~seed:(List.length masks) () in
      let entries =
        List.map
          (fun mask ->
            Logger.abstract e (Signal.of_bitvec (Bitvec.of_int ~width:m mask)))
          masks
      in
      let batched = Sat_reconstruct.batch e entries in
      List.for_all2
        (fun en (v, _, _) ->
          match v with
          | `Signal sol -> Log_entry.equal en (Logger.abstract e sol)
          | `Unsat | `Unknown -> false)
        entries batched)

(* ------------------------------------------------------------------ *)
(* F₂ presolve and Gauss-engine cross-checks                           *)

let test_presolve_one_hot () =
  (* one-hot timestamps make A the identity: the presolve fixes every
     cycle to its timeprint bit and leaves an empty kernel *)
  let e = Encoding.one_hot ~m:6 in
  let s = Signal.of_bitvec (Bitvec.of_int ~width:6 0b101001) in
  let en = Logger.abstract e s in
  match Presolve.run e en with
  | `Unsat -> Alcotest.fail "one-hot system is consistent"
  | `Reduced r ->
      Alcotest.(check int) "full rank" 6 r.Presolve.stats.rank;
      Alcotest.(check int) "empty kernel" 0 (List.length r.Presolve.rows);
      Alcotest.(check int) "units_true = k" (Log_entry.k en)
        r.Presolve.units_true;
      Array.iteri
        (fun i elim ->
          match elim with
          | Some (Presolve.Fixed v) ->
              Alcotest.(check bool)
                (Printf.sprintf "cycle %d fixed to the signal" i)
                (Signal.change_at s i) v
          | _ -> Alcotest.failf "cycle %d not fixed" i)
        r.Presolve.elim

let test_presolve_rank_refuted () =
  (* ts₀ = {0,1}, ts₁ = {1,2}: rows x₀ = tp₀, x₀⊕x₁ = tp₁, x₁ = tp₂
     are linearly dependent, and tp = {0} makes the augmented system
     inconsistent — the reconstruction is UNSAT with no solver call *)
  let e =
    Encoding.custom
      [|
        Bitvec.of_indices ~width:3 [ 0; 1 ]; Bitvec.of_indices ~width:3 [ 1; 2 ];
      |]
  in
  let en = Log_entry.make ~tp:(Bitvec.of_indices ~width:3 [ 0 ]) ~k:1 in
  (match Presolve.run e en with
  | `Unsat -> ()
  | `Reduced _ -> Alcotest.fail "expected a rank refutation");
  (match Plan.first e en with
  | `Unsat -> ()
  | _ -> Alcotest.fail "first must be UNSAT");
  let { Sat_reconstruct.signals; complete } = Plan.enumerate e en in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check (list signal)) "empty preimage" [] signals;
  (* the materialized (session) path reaches the same verdict *)
  match
    Sat_reconstruct.Session.first
      (Sat_reconstruct.Session.create (Sat_reconstruct.problem e en))
  with
  | `Unsat -> ()
  | _ -> Alcotest.fail "session first must be UNSAT"

let test_batch_gauss_modes_agree () =
  let m = 12 in
  let e = Encoding.random_constrained ~m ~b:10 ~seed:7 () in
  let entries =
    List.map
      (fun mask ->
        Logger.abstract e (Signal.of_bitvec (Bitvec.of_int ~width:m mask)))
      [ 0b000011001100; 0b000000000101; 0b111100001111; 0b000000000000 ]
  in
  let check label verdicts =
    List.iter2
      (fun en (v, _, _) ->
        match v with
        | `Signal w ->
            Alcotest.check entry
              (label ^ ": witness abstracts back")
              en (Logger.abstract e w)
        | `Unsat | `Unknown -> Alcotest.fail (label ^ ": expected a witness"))
      entries verdicts
  in
  check "gauss on" (Sat_reconstruct.batch ~gauss:true e entries);
  check "gauss off" (Sat_reconstruct.batch ~gauss:false e entries)

let prop_gauss_presolve_configs_agree =
  QCheck.Test.make
    ~name:"presolve/gauss configurations agree on the preimage" ~count:40
    QCheck.(pair (int_range 0 ((1 lsl 12) - 1)) (int_range 9 12))
    (fun (mask, b) ->
      let m = 12 in
      let e = Encoding.random_constrained ~m ~b ~seed:(mask lxor (b * 131)) () in
      let s = Signal.of_bitvec (Bitvec.of_int ~width:m mask) in
      let en = Logger.abstract e s in
      let run ~presolve ~gauss =
        let pb = Sat_reconstruct.problem ~presolve ~gauss e en in
        let { Sat_reconstruct.signals; complete } = Sat_reconstruct.enumerate pb in
        (complete, List.sort Signal.compare signals)
      in
      let reference = run ~presolve:false ~gauss:false in
      let agree (complete, sigs) =
        complete
        && List.length sigs = List.length (snd reference)
        && List.for_all2 Signal.equal sigs (snd reference)
      in
      let witness_ok ~presolve ~gauss =
        match Sat_reconstruct.first (Sat_reconstruct.problem ~presolve ~gauss e en) with
        | `Signal w -> Log_entry.equal en (Logger.abstract e w)
        | `Unsat | `Unknown -> false
      in
      agree reference
      && List.exists (Signal.equal s) (snd reference)
      && agree (run ~presolve:true ~gauss:false)
      && agree (run ~presolve:false ~gauss:true)
      && agree (run ~presolve:true ~gauss:true)
      && witness_ok ~presolve:true ~gauss:true
      && witness_ok ~presolve:true ~gauss:false)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "timeprint"
    [
      ( "figure-4",
        [
          Alcotest.test_case "timeprint value" `Quick test_fig4_timeprint;
          Alcotest.test_case "alternate k=3 combination" `Quick test_fig4_alternate_combination;
          Alcotest.test_case "256 unconstrained" `Quick test_fig4_256_combinations;
          Alcotest.test_case "8 with k=4" `Quick test_fig4_8_with_k;
          Alcotest.test_case "SAT agrees with linear algebra" `Quick test_fig4_sat_agrees;
          Alcotest.test_case "pulse property isolates actual" `Quick test_fig4_pulse_property_unique;
          Alcotest.test_case "deadline holds in all" `Quick test_fig4_deadline_holds_in_all;
          Alcotest.test_case "Galois laws" `Quick test_fig4_galois;
        ] );
      ( "signal",
        [
          Alcotest.test_case "changes roundtrip" `Quick test_signal_changes_roundtrip;
          Alcotest.test_case "of_values" `Quick test_signal_of_values;
          Alcotest.test_case "string roundtrip" `Quick test_signal_string_roundtrip;
          Alcotest.test_case "delay_change" `Quick test_signal_delay_change;
          Alcotest.test_case "random has k changes" `Quick test_signal_random_k;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "one-hot" `Quick test_one_hot;
          Alcotest.test_case "random-constrained LI-4" `Quick test_random_constrained_li4;
          Alcotest.test_case "incremental LI-4, deterministic" `Quick test_incremental_li4;
          Alcotest.test_case "incremental width too small" `Quick test_incremental_too_small;
          Alcotest.test_case "auto width" `Quick test_auto_widths;
          Alcotest.test_case "custom validation" `Quick test_custom_validation;
          Alcotest.test_case "BCH construction" `Quick test_bch_encoding;
          Alcotest.test_case "min_b" `Quick test_min_b;
        ] );
      ( "logger",
        [
          Alcotest.test_case "streaming = abstract" `Quick test_logger_streaming_equals_abstract;
          Alcotest.test_case "multi trace-cycles" `Quick test_logger_multi_trace_cycles;
          Alcotest.test_case "run_values" `Quick test_logger_run_values;
          Alcotest.test_case "log entry serialize" `Quick test_log_entry_serialize;
        ] );
      ( "design",
        [
          Alcotest.test_case "counter bits" `Quick test_design_counter_bits;
          Alcotest.test_case "CAN log rate (170 bps)" `Quick test_design_can_rate;
          Alcotest.test_case "naive logging cost" `Quick test_design_naive;
        ] );
      ( "property-eval",
        [
          Alcotest.test_case "P2" `Quick test_property_eval_p2;
          Alcotest.test_case "pulse pairs" `Quick test_property_eval_pulse_pairs;
          Alcotest.test_case "deadline" `Quick test_property_eval_deadline;
          Alcotest.test_case "window" `Quick test_property_eval_window;
          Alcotest.test_case "pattern" `Quick test_property_eval_pattern;
          Alcotest.test_case "delayed once" `Quick test_property_eval_delayed_once;
        ] );
      ( "reconstruction-edge",
        [
          Alcotest.test_case "unrealizable entry" `Quick test_unrealizable_entry;
          Alcotest.test_case "vacuous check" `Quick test_check_vacuous;
          Alcotest.test_case "max_solutions cap" `Quick test_max_solutions_cap;
          Alcotest.test_case "combinatorial rejects k > 4" `Quick test_combinatorial_rejects_large_k;
          Alcotest.test_case "combinatorial fig4" `Quick test_combinatorial_fig4;
          Alcotest.test_case "trace db wear-out" `Quick test_trace_db_roundtrip;
          Alcotest.test_case "trace db time lookup" `Quick test_trace_db_time_lookup;
          Alcotest.test_case "trace db boundary and overflow guards" `Quick
            test_trace_db_time_boundary;
          Alcotest.test_case "certified UNSAT" `Quick test_first_certified;
          Alcotest.test_case "trace buffer overflow" `Quick test_trace_buffer_exact_until_overflow;
          Alcotest.test_case "trace buffer vs db storage" `Quick test_trace_buffer_vs_trace_db_storage;
          Alcotest.test_case "tcl eval basics" `Quick test_tcl_eval_basics;
          Alcotest.test_case "tcl periodic jitter guard" `Quick test_tcl_periodic_jitter_guard;
          Alcotest.test_case "tcl reconstruction pruning" `Quick test_tcl_reconstruction_pruning;
          Alcotest.test_case "count completeness" `Quick test_count_completeness;
        ] );
      ( "presolve-gauss",
        [
          Alcotest.test_case "one-hot fixes every cycle" `Quick
            test_presolve_one_hot;
          Alcotest.test_case "rank refutation" `Quick test_presolve_rank_refuted;
          Alcotest.test_case "batch gauss modes agree" `Quick
            test_batch_gauss_modes_agree;
        ] );
      ( "incremental-session",
        [
          Alcotest.test_case "session first agrees" `Quick test_session_first_agrees;
          Alcotest.test_case "session enumerate = cold" `Quick test_session_enumerate_equals_cold;
          Alcotest.test_case "session check = cold" `Quick test_session_check_equals_cold;
          Alcotest.test_case "session vacuous entry" `Quick test_session_vacuous;
          Alcotest.test_case "batch = cold firsts" `Quick test_batch_equals_cold_firsts;
          Alcotest.test_case "batch with assumed property" `Quick test_batch_with_properties;
          Alcotest.test_case "batch width mismatch" `Quick test_batch_width_mismatch;
        ] );
      ( "properties-qcheck",
        qt
          [
            prop_logger_linear;
            prop_property_encoding;
            prop_sat_equals_linear;
            prop_sat_equals_linear_with_properties;
            prop_check_classification;
            prop_galois_insertion;
            prop_combinatorial_equals_linear;
            prop_li4_low_k_unique;
            prop_tcl_compile_agrees;
            prop_session_equals_cold;
            prop_batch_equals_cold;
            prop_gauss_presolve_configs_agree;
          ] );
    ]
