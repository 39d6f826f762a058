open Timeprint

(* A result is filed under one string — the timeprint bits, k and the
   query fingerprint — and stamped with the number of stores its
   design's shard had seen before it. A per-shard counter stands in for
   the paper's store, where log entries are "stored until they wear
   out" in a bounded ring: a result wears out once [capacity] newer
   stores have landed on its design, exactly when a [capacity]-slot
   ring would have overwritten its entry — without keeping the entry
   itself, which no lookup reads.

   The result itself is one flat string as well: its store cycle (8
   bytes) and then the marshalled outcome. A flat string holds a
   cached witness in about half the words of the block graph it
   encodes (variant, signal record, word array, slot record), and each
   hit decodes a fresh copy, so no caller can alter a cached answer
   through a returned signal. *)
type slot = string

let slot ~cycle (outcome : Engine.outcome) =
  let b = Buffer.create 64 in
  Buffer.add_int64_le b (Int64.of_int cycle);
  Buffer.add_string b (Marshal.to_string outcome []);
  Buffer.contents b

let slot_cycle (s : slot) = Int64.to_int (String.get_int64_le s 0)
let slot_outcome (s : slot) : Engine.outcome = Marshal.from_string s 8

type shard = {
  sh_m : int;
  sh_b : int;
  mutable sh_total : int; (* stores ever made on this shard *)
  sh_tbl : (string, slot) Hashtbl.t;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

type t = {
  capacity : int;
  mutex : Mutex.t;
  shards : (string, shard) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_capacity = 1024

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Result_cache.create: capacity <= 0";
  {
    capacity;
    mutex = Mutex.create ();
    shards = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* the timeprint is a fixed-width run of '0'/'1' and k a decimal, so
   the first two spaces split the key unambiguously *)
let key entry ~fingerprint =
  String.concat " "
    [
      Tp_bitvec.Bitvec.to_string (Log_entry.tp entry);
      string_of_int (Log_entry.k entry);
      fingerprint;
    ]

(* A shard belongs to one (design, encoding): a design reloaded with a
   different encoding gets a fresh shard (all its cached results are
   answers to a different linear system). *)
let shard_matches sh enc = sh.sh_m = Encoding.m enc && sh.sh_b = Encoding.b enc

(* a result stored as the shard's [cycle]-th store is worn out once
   [capacity] newer ones have landed *)
let worn_out t sh cycle = cycle < sh.sh_total - t.capacity

let shard t ~design enc =
  match Hashtbl.find_opt t.shards design with
  | Some sh when shard_matches sh enc -> sh
  | stale ->
      (match stale with
      | Some sh -> t.evictions <- t.evictions + Hashtbl.length sh.sh_tbl
      | None -> ());
      let sh =
        {
          sh_m = Encoding.m enc;
          sh_b = Encoding.b enc;
          sh_total = 0;
          sh_tbl = Hashtbl.create 64;
        }
      in
      Hashtbl.replace t.shards design sh;
      sh

let lookup t ~design enc entry ~fingerprint =
  locked t (fun () ->
      match Hashtbl.find_opt t.shards design with
      | None ->
          t.misses <- t.misses + 1;
          None
      | Some sh when not (shard_matches sh enc) ->
          t.misses <- t.misses + 1;
          None
      | Some sh -> (
          let k = key entry ~fingerprint in
          match Hashtbl.find_opt sh.sh_tbl k with
          | None ->
              t.misses <- t.misses + 1;
              None
          | Some slot ->
              if worn_out t sh (slot_cycle slot) then begin
                Hashtbl.remove sh.sh_tbl k;
                t.evictions <- t.evictions + 1;
                t.misses <- t.misses + 1;
                None
              end
              else begin
                t.hits <- t.hits + 1;
                Some (slot_outcome slot)
              end))

(* Sweep worn-out keys so the table tracks the last [capacity] stores
   instead of growing without bound; amortized by sweeping only when
   the table outgrows twice that. *)
let sweep t sh =
  if Hashtbl.length sh.sh_tbl > 2 * t.capacity then begin
    let dead =
      Hashtbl.fold
        (fun k slot acc ->
          if worn_out t sh (slot_cycle slot) then k :: acc else acc)
        sh.sh_tbl []
    in
    List.iter (Hashtbl.remove sh.sh_tbl) dead;
    t.evictions <- t.evictions + List.length dead
  end

let store t ~design enc entry ~fingerprint outcome =
  locked t (fun () ->
      let sh = shard t ~design enc in
      Hashtbl.replace sh.sh_tbl (key entry ~fingerprint)
        (slot ~cycle:sh.sh_total outcome);
      sh.sh_total <- sh.sh_total + 1;
      sweep t sh)

let invalidate t ~design =
  locked t (fun () ->
      match Hashtbl.find_opt t.shards design with
      | None -> ()
      | Some sh ->
          t.evictions <- t.evictions + Hashtbl.length sh.sh_tbl;
          Hashtbl.remove t.shards design)

let stats t =
  locked t (fun () ->
      let entries =
        Hashtbl.fold (fun _ sh acc -> acc + Hashtbl.length sh.sh_tbl) t.shards 0
      in
      { hits = t.hits; misses = t.misses; evictions = t.evictions; entries })
