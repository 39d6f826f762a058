(* Direct unit and property tests for the solver's internal containers
   (Vec, Heap) — exercised indirectly everywhere, pinned down here. *)

open Tp_sat

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let test_vec_push_pop () =
  let v = Vec.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "size" 100 (Vec.size v);
  Alcotest.(check int) "last" 100 (Vec.last v);
  Alcotest.(check int) "pop" 100 (Vec.pop v);
  Alcotest.(check int) "size after pop" 99 (Vec.size v);
  Alcotest.(check int) "get" 50 (Vec.get v 49)

let test_vec_bounds () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set") (fun () ->
      Vec.set v (-1) 0);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () ->
      Vec.clear v;
      ignore (Vec.pop v))

let test_vec_swap_remove () =
  let v = Vec.of_list ~dummy:0 [ 10; 20; 30; 40 ] in
  Vec.swap_remove v 1;
  Alcotest.(check (list int)) "order after swap remove" [ 10; 40; 30 ]
    (Vec.to_list v)

let test_vec_shrink_filter () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4; 5; 6 ] in
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "filtered" [ 2; 4; 6 ] (Vec.to_list v);
  Vec.shrink v 1;
  Alcotest.(check (list int)) "shrunk" [ 2 ] (Vec.to_list v)

let prop_vec_model =
  (* Vec behaves like a list under a random push/pop script *)
  QCheck.Test.make ~count:300 ~name:"Vec = list model"
    QCheck.(list (pair bool small_int))
    (fun script ->
      let v = Vec.create ~dummy:0 () in
      let model = ref [] in
      List.iter
        (fun (is_push, x) ->
          if is_push then begin
            Vec.push v x;
            model := !model @ [ x ]
          end
          else if !model <> [] then begin
            let got = Vec.pop v in
            let expect = List.nth !model (List.length !model - 1) in
            assert (got = expect);
            model := List.filteri (fun i _ -> i < List.length !model - 1) !model
          end)
        script;
      Vec.to_list v = !model)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_extracts_max () =
  let scores = [| 3.; 1.; 4.; 1.5; 9.; 2.; 6. |] in
  let h = Heap.create (Array.length scores) ~score:scores in
  Array.iteri (fun i _ -> Heap.insert h i) scores;
  let order = List.init (Array.length scores) (fun _ -> Heap.remove_max h) in
  let sorted =
    List.sort (fun a b -> Float.compare scores.(b) scores.(a))
      (List.init (Array.length scores) Fun.id)
  in
  Alcotest.(check (list int)) "descending score order" sorted order;
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "remove from empty" Not_found (fun () ->
      ignore (Heap.remove_max h))

let test_heap_update_after_bump () =
  let scores = [| 1.; 2.; 3. |] in
  let h = Heap.create 3 ~score:scores in
  List.iter (Heap.insert h) [ 0; 1; 2 ];
  scores.(0) <- 10.;
  Heap.update h 0;
  Alcotest.(check int) "bumped element first" 0 (Heap.remove_max h)

let test_heap_duplicate_insert () =
  let h = Heap.create 4 ~score:(Array.init 4 float_of_int) in
  Heap.insert h 2;
  Heap.insert h 2;
  Alcotest.(check int) "no duplicates" 1 (Heap.size h);
  Alcotest.(check bool) "mem" true (Heap.mem h 2);
  ignore (Heap.remove_max h);
  Alcotest.(check bool) "gone" false (Heap.mem h 2)

let test_heap_grow () =
  let h = Heap.create 4 ~score:(Array.make 4 0.) in
  Heap.grow h 100;
  Heap.set_score h (Array.init 100 float_of_int);
  for i = 0 to 99 do
    Heap.insert h i
  done;
  Alcotest.(check int) "max of grown heap" 99 (Heap.remove_max h)

let prop_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap drains in score order"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_bound 1000))
    (fun xs ->
      let scores = Array.of_list (List.map float_of_int xs) in
      let h = Heap.create (Array.length scores) ~score:scores in
      Array.iteri (fun i _ -> Heap.insert h i) scores;
      let drained = ref [] in
      while not (Heap.is_empty h) do
        drained := scores.(Heap.remove_max h) :: !drained
      done;
      (* drained is built reversed, so it must be ascending *)
      List.sort Float.compare !drained = !drained)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sat-structures"
    [
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "shrink/filter" `Quick test_vec_shrink_filter;
        ] );
      ( "heap",
        [
          Alcotest.test_case "extracts max" `Quick test_heap_extracts_max;
          Alcotest.test_case "update after bump" `Quick test_heap_update_after_bump;
          Alcotest.test_case "duplicate insert" `Quick test_heap_duplicate_insert;
          Alcotest.test_case "grow" `Quick test_heap_grow;
        ] );
      ("props", qt [ prop_vec_model; prop_heap_sorts ]);
    ]
