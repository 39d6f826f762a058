open Timeprint

type candidate = {
  c_name : string;
  c_scheme : [ `Random | `Incremental ];
  c_seed : int;
  c_depth : int;
  c_m : int;
  c_kmax : int;
  c_naive : int;
  c_options : int list;
}

type property = { p_name : string; p_needs : string list }

type assignment = {
  a_name : string;
  a_b : int option;
  a_rank : int;
  a_decidable : bool;
  a_cost : float;
}

type report = {
  r_budget : int;
  r_naive_total : int;
  r_used : int;
  r_assignments : assignment list;
  r_properties : (string * string list * bool) list;
}

type eval = { e_rank : int; e_cost : float; e_decidable : bool }

let evaluate ~cost_cap cand b =
  match
    match cand.c_scheme with
    | `Random ->
        Encoding.random_constrained ~depth:cand.c_depth ~seed:cand.c_seed
          ~m:cand.c_m ~b ()
    | `Incremental -> Encoding.incremental ~depth:cand.c_depth ~m:cand.c_m ~b ()
  with
  | exception Failure _ -> None (* LI-depth infeasible at this width *)
  | enc ->
      let session = Plan.session enc in
      let rank = Plan.session_rank session in
      let spread =
        List.init cand.c_kmax (fun i -> i * cand.c_m / cand.c_kmax)
      in
      let entry = Logger.abstract enc (Signal.of_changes ~m:cand.c_m spread) in
      let cost =
        Plan.cost_estimate session
          (Query.make
             ~answer:(Query.Enumerate { max_solutions = Some 2 })
             enc entry)
      in
      Some
        {
          e_rank = rank;
          e_cost = cost;
          e_decidable =
            float_of_int rank >= Signal.log2_choose cand.c_m cand.c_kmax
            && cost <= cost_cap;
        }

let select ?(cost_cap = 24.0) ~budget candidates properties =
  if budget < 0 then invalid_arg "Select.select: negative budget";
  let names = List.map (fun c -> c.c_name) candidates in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Select.select: duplicate candidate name";
  List.iter
    (fun c ->
      if c.c_kmax < 0 || c.c_kmax > c.c_m then
        invalid_arg
          (Printf.sprintf "Select.select: channel %s kmax out of range"
             c.c_name))
    candidates;
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          if not (List.mem n names) then
            invalid_arg
              (Printf.sprintf "Select.select: property %s needs unknown channel %s"
                 p.p_name n))
        p.p_needs)
    properties;
  let cand_of n = List.find (fun c -> c.c_name = n) candidates in
  let memo = Hashtbl.create 32 in
  let eval n b =
    match Hashtbl.find_opt memo (n, b) with
    | Some e -> e
    | None ->
        let e = evaluate ~cost_cap (cand_of n) b in
        Hashtbl.replace memo (n, b) e;
        e
  in
  let assigned = Hashtbl.create 8 in
  let current n = Hashtbl.find_opt assigned n in
  let used = ref 0 in
  let decidable_now n =
    match current n with
    | None -> false
    | Some b -> (
        match eval n b with Some e -> e.e_decidable | None -> false)
  in
  (* cheapest upgrade making [n] decidable, never shrinking *)
  let upgrade n =
    let c = cand_of n in
    let floor_b = match current n with Some b -> b | None -> 0 in
    let rec go = function
      | [] -> None
      | b :: rest ->
          if b < floor_b then go rest
          else begin
            match eval n b with
            | Some e when e.e_decidable -> Some (b - floor_b, b)
            | _ -> go rest
          end
    in
    go (List.sort Int.compare c.c_options)
  in
  let plan_property p =
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | n :: rest ->
          if decidable_now n then go acc rest
          else begin
            match upgrade n with
            | None -> None (* no width makes this channel decidable *)
            | Some (delta, b) -> go ((n, delta, b) :: acc) rest
          end
    in
    go [] p.p_needs
  in
  let impossible = Hashtbl.create 4 in
  let satisfied = Hashtbl.create 4 in
  let continue = ref true in
  while !continue do
    let pending =
      List.filter
        (fun p ->
          (not (Hashtbl.mem impossible p.p_name))
          && not (Hashtbl.mem satisfied p.p_name))
        properties
    in
    let plans =
      List.filter_map
        (fun p ->
          match plan_property p with
          | None ->
              Hashtbl.replace impossible p.p_name ();
              None
          | Some ups ->
              let delta =
                List.fold_left (fun acc (_, d, _) -> acc + d) 0 ups
              in
              Some (delta, p.p_name, ups))
        pending
    in
    match
      List.sort
        (fun (d1, n1, _) (d2, n2, _) ->
          match Int.compare d1 d2 with
          | 0 -> String.compare n1 n2
          | c -> c)
        plans
    with
    | [] -> continue := false
    | (delta, pname, ups) :: _ ->
        if !used + delta <= budget then begin
          List.iter (fun (n, _, b) -> Hashtbl.replace assigned n b) ups;
          used := !used + delta;
          Hashtbl.replace satisfied pname ()
        end
        else continue := false (* the cheapest doesn't fit; none will *)
  done;
  (* leftover budget: smallest feasible width for channels still dark *)
  List.iter
    (fun c ->
      if current c.c_name = None then
        let rec go = function
          | [] -> ()
          | b :: rest ->
              if !used + b <= budget && eval c.c_name b <> None then begin
                Hashtbl.replace assigned c.c_name b;
                used := !used + b
              end
              else go rest
        in
        go (List.sort Int.compare c.c_options))
    candidates;
  let assignments =
    List.map
      (fun c ->
        match current c.c_name with
        | None ->
            {
              a_name = c.c_name;
              a_b = None;
              a_rank = 0;
              a_decidable = false;
              a_cost = Float.nan;
            }
        | Some b -> (
            match eval c.c_name b with
            | None ->
                {
                  a_name = c.c_name;
                  a_b = Some b;
                  a_rank = 0;
                  a_decidable = false;
                  a_cost = Float.nan;
                }
            | Some e ->
                {
                  a_name = c.c_name;
                  a_b = Some b;
                  a_rank = e.e_rank;
                  a_decidable = e.e_decidable;
                  a_cost = e.e_cost;
                }))
      candidates
  in
  {
    r_budget = budget;
    r_naive_total = List.fold_left (fun acc c -> acc + c.c_naive) 0 candidates;
    r_used = !used;
    r_assignments = assignments;
    r_properties =
      List.map
        (fun p -> (p.p_name, p.p_needs, List.for_all decidable_now p.p_needs))
        properties;
  }

let report_lines r =
  let header =
    Printf.sprintf "select budget=%d naive=%d used=%d" r.r_budget
      r.r_naive_total r.r_used
  in
  let channel a =
    Printf.sprintf "channel %s b=%s rank=%d decidable=%s cost=%s" a.a_name
      (match a.a_b with Some b -> string_of_int b | None -> "-")
      a.a_rank
      (if a.a_decidable then "yes" else "no")
      (if Float.is_nan a.a_cost then "-" else Printf.sprintf "%.1f" a.a_cost)
  in
  let prop (name, needs, ok) =
    Printf.sprintf "property %s decidable=%s needs=%s" name
      (if ok then "yes" else "no")
      (String.concat "," needs)
  in
  let ok =
    List.length (List.filter (fun (_, _, d) -> d) r.r_properties)
  in
  let footer =
    Printf.sprintf "decidable %d/%d properties under budget %d (naive %d)" ok
      (List.length r.r_properties)
      r.r_budget r.r_naive_total
  in
  (header :: List.map channel r.r_assignments)
  @ List.map prop r.r_properties
  @ [ footer ]
