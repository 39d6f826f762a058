(* In-memory span recorder for the traced replay.

   A span is one call into a layer: name, start, end (monotonic ns),
   the span that caused it and the request it belongs to, plus a
   [work] count (entries the call handled) so per-entry figures divide
   by the work actually done. Spans live in flat growable arrays —
   recording one allocates nothing on the hot path — and are written
   out only when the benchmark ends. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable n : int;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable work : int array;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    work = Array.make cap 0;
  }

let grow t =
  let cap = 2 * Array.length t.start in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name "";
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req 0;
  t.work <- ext t.work 0

(* Open a span now; [parent] is [-1] for a root. Returns its id. *)
let enter t ~req ~parent name =
  if t.n = Array.length t.start then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.name.(id) <- name;
  t.parent.(id) <- parent;
  t.req.(id) <- req;
  t.work.(id) <- 1;
  t.start.(id) <- now ();
  id

let leave t id = t.stop.(id) <- now ()
let set_work t id w = t.work.(id) <- w

let length t = t.n
let name t id = t.name.(id)
let parent t id = t.parent.(id)
let req t id = t.req.(id)
let work t id = t.work.(id)
let duration t id = t.stop.(id) - t.start.(id)

(* Total length of a union of half-open intervals [(lo, hi)]. *)
let union_length intervals =
  let sorted = List.sort compare (List.filter (fun (lo, hi) -> hi > lo) intervals) in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (lo, hi) -> acc + (hi - lo))
    | (lo, hi) :: rest -> (
        match cur with
        | None -> go acc (Some (lo, hi)) rest
        | Some (clo, chi) ->
            if lo <= chi then go acc (Some (clo, max chi hi)) rest
            else go (acc + (chi - clo)) (Some (lo, hi)) rest)
  in
  go 0 None sorted

(* Self time: the span's duration minus the part of its interval that
   its children cover (children clipped to the parent, overlaps
   counted once). *)
let self_time_of ~start ~stop children =
  let clipped =
    List.map (fun (lo, hi) -> (max lo start, min hi stop)) children
  in
  stop - start - union_length clipped

(* Children lists, built once per analysis. *)
let children t =
  let kids = Array.make t.n [] in
  for id = t.n - 1 downto 0 do
    let p = t.parent.(id) in
    if p >= 0 then kids.(p) <- id :: kids.(p)
  done;
  kids

let interval t id = (t.start.(id), t.stop.(id))

let self_time t kids id =
  self_time_of ~start:t.start.(id) ~stop:t.stop.(id)
    (List.map (interval t) kids.(id))

(* Tab-separated dump, one span per line. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\treq\tname\tstart_ns\tend_ns\twork\n";
      for id = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\n" id t.parent.(id)
          t.req.(id) t.name.(id) t.start.(id) t.stop.(id) t.work.(id)
      done)
