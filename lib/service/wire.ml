open Timeprint

(* Newline-delimited requests: [verb key=value ...], every value a
   bare token (timeprints are 0/1 strings, names are identifiers).
   Responses: one [ok key=value ... lines=<n>] header followed by
   exactly [n] payload lines, or one [err code=... ...] line. The
   [lines] field is the framing — a client always knows how much to
   read, even while a stream response is still being produced. *)

type request =
  | Load of {
      name : string;
      spec : [ `Encoding of Encoding.t | `Pack_file of string ];
    }
  | Quota of { tenant : string; bits : float }
  | Reconstruct of {
      design : string;
      tenant : string option;
      entry : Log_entry.t;
      answer : Query.answer;
      assume : Property.t list;
      conflict_budget : int option;
      jobs : int option;
      max_solutions : int option;
    }
  | Stream of {
      design : string;
      tenant : string option;
      n : int;
      repair : int;
      jobs : int option;
    }
  | Flow of {
      mode : [ `Reconstruct | `Select ];
      tenant : string option;
      n : int;
      repair : int;
      jobs : int option;
      max_alts : int option;
      budget : int option;
    }
  | Stats
  | Shutdown

let ( let* ) = Result.bind

let fields tokens =
  List.fold_left
    (fun acc tok ->
      let* acc = acc in
      match String.index_opt tok '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" tok)
      | Some i ->
          Ok
            ((String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
            :: acc))
    (Ok []) tokens

let get fs k = List.assoc_opt k fs

let req fs k =
  match get fs k with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %s=" k)

let int_field fs k ~default =
  match get fs k with
  | None -> Ok default
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "%s=%s is not an integer" k v))

let int_opt_field fs k =
  match get fs k with
  | None -> Ok None
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "%s=%s is not an integer" k v))

let pair_field fs k =
  match get fs k with
  | None -> Ok None
  | Some v -> (
      match String.split_on_char ',' v with
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> Ok (Some (a, b))
          | _ -> Error (Printf.sprintf "%s=%s is not INT,INT" k v))
      | _ -> Error (Printf.sprintf "%s=%s is not INT,INT" k v))

let encoding_of_fields fs =
  let* m =
    match get fs "m" with
    | None -> Error "missing m="
    | Some v -> (
        match int_of_string_opt v with
        | Some m when m > 0 -> Ok m
        | _ -> Error (Printf.sprintf "m=%s is not a positive integer" v))
  in
  let* b =
    match get fs "b" with
    | None -> Ok None
    | Some v -> (
        match int_of_string_opt v with
        | Some b when b > 0 -> Ok (Some b)
        | _ -> Error (Printf.sprintf "b=%s is not a positive integer" v))
  in
  let* seed = int_field fs "seed" ~default:0x7155 in
  let* depth = int_field fs "depth" ~default:4 in
  match Option.value (get fs "scheme") ~default:"random" with
  | "one-hot" -> Ok (Encoding.one_hot ~m)
  | "random" ->
      Ok
        (match b with
        | Some b -> Encoding.random_constrained ~depth ~seed ~m ~b ()
        | None -> Encoding.random_constrained_auto ~depth ~seed ~m ())
  | "incremental" ->
      Ok
        (match b with
        | Some b -> Encoding.incremental ~depth ~m ~b ()
        | None -> Encoding.incremental_auto ~depth ~m ())
  | "bch" -> Ok (Encoding.bch ~m)
  | s -> Error (Printf.sprintf "unknown scheme=%s" s)

let entry_of_fields fs =
  let* tp = req fs "tp" in
  let* k =
    match get fs "k" with
    | None -> Error "missing k="
    | Some v -> (
        match int_of_string_opt v with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "k=%s is not an integer" v))
  in
  match Log_entry.make ~tp:(Tp_bitvec.Bitvec.of_string tp) ~k with
  | e -> Ok e
  | exception (Invalid_argument m | Failure m) -> Error m

let assume_of_fields fs =
  let* deadline = pair_field fs "deadline" in
  let* window = pair_field fs "window" in
  Ok
    (List.concat
       [
         (if get fs "p2" = Some "1" then [ Property.p2 ] else []);
         (if get fs "pulse" = Some "1" then [ Property.pulse_pairs ] else []);
         (match deadline with
         | Some (count, before) -> [ Property.deadline ~count ~before ]
         | None -> []);
         (match window with
         | Some (lo, hi) -> [ Property.window ~lo ~hi ]
         | None -> []);
       ])

let tokens line =
  String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")

let count_of v =
  match int_of_string_opt v with Some n when n >= 0 -> Some n | _ -> None

let body_count fs =
  match get fs "n" with
  | None -> Error "missing n="
  | Some v -> (
      match count_of v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "n=%s is not a count" v))

let parse_request line =
  match tokens line with
  | [] -> Error "empty request"
  | verb :: rest -> (
      let* fs = fields rest in
      match verb with
      | "load" -> (
          let* name = req fs "name" in
          match get fs "pack" with
          | Some path -> Ok (Load { name; spec = `Pack_file path })
          | None ->
              let* enc = encoding_of_fields fs in
              Ok (Load { name; spec = `Encoding enc }))
      | "quota" ->
          let* tenant = req fs "tenant" in
          let* bits = req fs "bits" in
          let* bits =
            match float_of_string_opt bits with
            | Some b -> Ok b
            | None -> Error (Printf.sprintf "bits=%s is not a number" bits)
          in
          Ok (Quota { tenant; bits })
      | "reconstruct" ->
          let* design = req fs "design" in
          let* entry = entry_of_fields fs in
          let* assume = assume_of_fields fs in
          let* conflict_budget = int_opt_field fs "budget" in
          let* jobs = int_opt_field fs "jobs" in
          let* max_solutions = int_opt_field fs "max" in
          let* repair = int_field fs "repair" ~default:0 in
          let* k_slack = int_field fs "k_slack" ~default:0 in
          let max_solutions =
            Some (Option.value max_solutions ~default:10)
          in
          let answer =
            if repair > 0 || k_slack > 0 then
              Query.Repair { max_flips = repair; k_slack }
            else if get fs "count" = Some "1" then Query.Count { max_solutions }
            else if get fs "first" = Some "1" then Query.First
            else Query.Enumerate { max_solutions }
          in
          Ok
            (Reconstruct
               {
                 design;
                 tenant = get fs "tenant";
                 entry;
                 answer;
                 assume;
                 conflict_budget;
                 jobs;
                 max_solutions;
               })
      | "stream" ->
          let* design = req fs "design" in
          let* n = body_count fs in
          let* repair = int_field fs "repair" ~default:0 in
          let* jobs = int_opt_field fs "jobs" in
          Ok (Stream { design; tenant = get fs "tenant"; n; repair; jobs })
      | "flow" ->
          let* n = body_count fs in
          let* mode =
            match Option.value (get fs "mode") ~default:"reconstruct" with
            | "reconstruct" -> Ok `Reconstruct
            | "select" -> Ok `Select
            | v -> Error (Printf.sprintf "unknown mode=%s" v)
          in
          let* repair = int_field fs "repair" ~default:0 in
          let* jobs = int_opt_field fs "jobs" in
          let* max_alts = int_opt_field fs "max_alts" in
          let* budget = int_opt_field fs "budget" in
          Ok
            (Flow
               {
                 mode;
                 tenant = get fs "tenant";
                 n;
                 repair;
                 jobs;
                 max_alts;
                 budget;
               })
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | v -> Error (Printf.sprintf "unknown verb %S" v))

(* Read from the [n=] token alone, last one winning as in [fields],
   so that a header rejected for any other field still frames its
   body. *)
let body_lines line =
  match tokens line with
  | ("stream" | "flow") :: rest ->
      List.fold_left
        (fun acc tok ->
          if String.starts_with ~prefix:"n=" tok then
            count_of (String.sub tok 2 (String.length tok - 2))
          else acc)
        None rest
  | _ -> None

(* Stream body lines reuse the CLI log-file syntax: "<tp-bits> <k>". *)
let parse_entry line =
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [ tp; k ] -> (
      match
        Log_entry.make ~tp:(Tp_bitvec.Bitvec.of_string tp)
          ~k:(int_of_string k)
      with
      | e -> Ok e
      | exception (Invalid_argument m | Failure m) -> Error m)
  | _ -> Error (Printf.sprintf "malformed entry line %S" line)

let render_entry e =
  Printf.sprintf "%s %d"
    (Tp_bitvec.Bitvec.to_string (Log_entry.tp e))
    (Log_entry.k e)

let ok_line kvs ~lines =
  String.concat " "
    ("ok" :: List.map (fun (k, v) -> k ^ "=" ^ v) (kvs @ [ ("lines", string_of_int lines) ]))

let err_line err = "err " ^ Service.error_line err

(* Response-header scanner for clients: the [lines=<n>] field says how
   many payload lines follow. *)
let parse_response_header line =
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | "ok" :: rest ->
      let lines =
        List.fold_left
          (fun acc tok ->
            match String.index_opt tok '=' with
            | Some i when String.sub tok 0 i = "lines" ->
                int_of_string_opt
                  (String.sub tok (i + 1) (String.length tok - i - 1))
                |> Option.value ~default:acc
            | _ -> acc)
          0 rest
      in
      `Ok lines
  | "err" :: _ -> `Err
  | _ -> `Garbled
