(* tpsat — the bundled CDCL solver as a standalone tool.

   Reads extended DIMACS (CNF plus Cryptominisat-style `x…` XOR lines,
   the format `timeprint dimacs` emits) from a file or stdin and prints
   a standard s/v answer. With [-models N], further models are produced
   through blocking clauses on the same (incremental) solver; [-stats]
   prints the solver-work delta each query cost as `c` comment lines
   (including the Gauss engine's matrix size and work). [-assume
   "LITS"] solves under DIMACS assumption literals and, on an UNSAT
   answer, reports the final-conflict core.

   The unguarded XOR rows are Gauss–Jordan-presolved before the solver
   sees them — rank-refuted instances answer UNSAT immediately, and
   implied units/equivalences re-enter the formula as unit clauses and
   binary XORs so every DIMACS variable stays reportable in `v` lines.
   [-no-presolve] skips that; [-no-gauss] turns the in-solver Gauss
   engine off (it is otherwise in auto mode); [-no-inprocess] disables
   the between-restart clause-database simplification. *)

let usage =
  "usage: tpsat [-budget N] [-models N] [-assume \"LITS\"] [-stats] \
   [-no-gauss] [-no-presolve] [-no-inprocess] [FILE | -]"

(* Gauss–Jordan-reduce the unguarded XOR rows of [cnf] at the formula
   level. Units and aliases are added back as unit clauses / binary
   XORs (rather than substituted out), so the variable space — and
   hence model printing — is unchanged. *)
let presolve cnf =
  let module C = Tp_sat.Cnf in
  let unguarded, guarded =
    List.partition (fun (x : C.xor_constraint) -> x.guard = None) (C.xors cnf)
  in
  let rows = List.map (fun (x : C.xor_constraint) -> (x.vars, x.parity)) unguarded in
  match Tp_sat.Xor_simp.reduce rows with
  | `Unsat -> `Unsat
  | `Reduced r ->
      let out = C.create () in
      C.ensure_vars out (C.nvars cnf);
      List.iter (C.add_clause out) (C.clauses cnf);
      List.iter
        (fun (v, b) -> C.add_clause out [ Tp_sat.Lit.make v b ])
        r.Tp_sat.Xor_simp.units;
      List.iter
        (fun (x, rep, c) -> C.add_xor out ~vars:[ x; rep ] ~parity:c)
        r.aliases;
      List.iter (fun (vars, parity) -> C.add_xor out ~vars ~parity) r.rows;
      List.iter
        (fun (x : C.xor_constraint) ->
          C.add_xor ?guard:x.guard out ~vars:x.vars ~parity:x.parity)
        guarded;
      `Reduced (out, r)

let () =
  let budget = ref max_int in
  let max_models = ref 1 in
  let assumptions = ref [] in
  let show_stats = ref false in
  let gauss = ref None in
  let use_presolve = ref true in
  let inprocess = ref true in
  let path = ref None in
  let rec parse = function
    | [] -> ()
    | "-budget" :: n :: rest ->
        (match int_of_string_opt n with
        | Some b when b > 0 -> budget := b
        | _ ->
            prerr_endline usage;
            exit 2);
        parse rest
    | "-models" :: n :: rest ->
        (match int_of_string_opt n with
        | Some m when m > 0 -> max_models := m
        | _ ->
            prerr_endline usage;
            exit 2);
        parse rest
    | "-assume" :: lits :: rest ->
        String.split_on_char ' ' lits
        |> List.filter (( <> ) "")
        |> List.iter (fun tok ->
               match int_of_string_opt tok with
               | Some n when n <> 0 ->
                   assumptions := Tp_sat.Lit.of_dimacs n :: !assumptions
               | _ ->
                   prerr_endline usage;
                   exit 2);
        parse rest
    | "-stats" :: rest ->
        show_stats := true;
        parse rest
    | "-no-gauss" :: rest ->
        gauss := Some false;
        parse rest
    | "-no-presolve" :: rest ->
        use_presolve := false;
        parse rest
    | "-no-inprocess" :: rest ->
        inprocess := false;
        parse rest
    | [ p ] -> path := Some p
    | _ ->
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let assumptions = List.rev !assumptions in
  let text =
    match !path with
    | None | Some "-" -> In_channel.input_all stdin
    | Some p -> In_channel.with_open_text p In_channel.input_all
  in
  match Tp_sat.Dimacs.parse_string text with
  | exception Failure e ->
      Printf.eprintf "c parse error: %s\n" e;
      exit 2
  | cnf -> (
      let nvars = Tp_sat.Cnf.nvars cnf in
      let cnf =
        if not !use_presolve then cnf
        else
          match presolve cnf with
          | `Unsat ->
              (* the XOR rows alone are inconsistent over F₂ —
                 unsatisfiable under any assumptions *)
              print_endline "c presolve: XOR system rank-refuted";
              if !show_stats then
                print_endline
                  "c planner: delegated away from SAT search (presolve \
                   answered; conflicts=0 decisions=0 propagations=0)";
              if assumptions <> [] then print_endline "c core:";
              print_endline "s UNSATISFIABLE";
              exit 20
          | `Reduced (out, r) ->
              if !show_stats then
                Printf.printf
                  "c presolve: rank=%d dropped=%d units=%d aliases=%d\n"
                  r.Tp_sat.Xor_simp.rank r.dropped (List.length r.units)
                  (List.length r.aliases);
              out
      in
      let solver = Tp_sat.Solver.of_cnf ?gauss:!gauss cnf in
      Tp_sat.Solver.set_inprocess solver !inprocess;
      let query = ref 0 in
      let solve () =
        let before = Tp_sat.Solver.stats solver in
        let r = Tp_sat.Solver.solve ~conflict_budget:!budget ~assumptions solver in
        incr query;
        if !show_stats then begin
          let a = Tp_sat.Solver.stats solver in
          Printf.printf
            "c query %d: conflicts=%d decisions=%d propagations=%d restarts=%d learnt=%d\n"
            !query
            (a.conflicts - before.conflicts)
            (a.decisions - before.decisions)
            (a.propagations - before.propagations)
            (a.restarts - before.restarts)
            a.learnt;
          Printf.printf
            "c gauss %d: rows=%d elims=%d propagations=%d conflicts=%d\n"
            !query a.gauss_rows a.gauss_elims
            (a.gauss_props - before.gauss_props)
            (a.gauss_conflicts - before.gauss_conflicts);
          Printf.printf
            "c inprocess %d: subsumed=%d strengthened=%d eliminated=%d \
             vivified=%d xors-recovered=%d\n"
            !query
            (a.subsumed - before.subsumed)
            (a.strengthened - before.strengthened)
            (a.eliminated - before.eliminated)
            (a.vivified - before.vivified)
            (a.xors_recovered - before.xors_recovered)
        end;
        r
      in
      let print_model () =
        let buf = Buffer.create 256 in
        Buffer.add_string buf "v";
        for v = 0 to nvars - 1 do
          Buffer.add_string buf
            (Printf.sprintf " %d" (if Tp_sat.Solver.value solver v then v + 1 else -(v + 1)))
        done;
        Buffer.add_string buf " 0";
        print_endline (Buffer.contents buf)
      in
      let print_core () =
        if assumptions <> [] then begin
          let core = Tp_sat.Solver.unsat_core solver in
          print_endline
            ("c core:"
            ^ String.concat ""
                (List.map
                   (fun l -> " " ^ string_of_int (Tp_sat.Lit.to_dimacs l))
                   core))
        end
      in
      match solve () with
      | Unsat ->
          print_core ();
          print_endline "s UNSATISFIABLE";
          exit 20
      | Unknown ->
          print_endline "s UNKNOWN";
          exit 0
      | Sat ->
          print_endline "s SATISFIABLE";
          print_model ();
          (* optional further models via blocking clauses *)
          let rec more found =
            if found < !max_models then begin
              let blocking =
                List.init nvars (fun v ->
                    Tp_sat.Lit.make v (not (Tp_sat.Solver.value solver v)))
              in
              Tp_sat.Solver.add_clause solver blocking;
              match solve () with
              | Sat ->
                  print_model ();
                  more (found + 1)
              | Unsat | Unknown -> ()
            end
          in
          more 1;
          exit 10)
