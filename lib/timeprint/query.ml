open Tp_bitvec

type answer =
  | First
  | Enumerate of { max_solutions : int option }
  | Count of { max_solutions : int option }
  | Check of Property.t
  | Certified
  | Repair of { max_flips : int; k_slack : int }

type t = {
  encoding : Encoding.t;
  entry : Log_entry.t;
  assume : Property.t list;
  conflict_budget : int option;
  answer : answer;
}

let make ?(assume = []) ?conflict_budget ~answer encoding entry =
  if Bitvec.width (Log_entry.tp entry) <> Encoding.b encoding then
    invalid_arg "Query.make: timeprint width <> encoding b";
  (match answer with
  | Repair { max_flips; k_slack } ->
      if max_flips < 0 || k_slack < 0 then
        invalid_arg "Query.make: negative repair budget"
  | Enumerate { max_solutions = Some n } | Count { max_solutions = Some n } ->
      if n < 0 then invalid_arg "Query.make: negative max_solutions"
  | _ -> ());
  { encoding; entry; assume; conflict_budget; answer }

let pp_answer ppf = function
  | First -> Format.pp_print_string ppf "first"
  | Enumerate { max_solutions = None } -> Format.pp_print_string ppf "enumerate"
  | Enumerate { max_solutions = Some n } ->
      Format.fprintf ppf "enumerate[<=%d]" n
  | Count { max_solutions = None } -> Format.pp_print_string ppf "count"
  | Count { max_solutions = Some n } -> Format.fprintf ppf "count[<=%d]" n
  | Check p -> Format.fprintf ppf "check(%a)" Property.pp p
  | Certified -> Format.pp_print_string ppf "certified"
  | Repair { max_flips; k_slack } ->
      Format.fprintf ppf "repair[<=%d flips%s]" max_flips
        (if k_slack = 0 then "" else Format.asprintf ", k±%d" k_slack)
