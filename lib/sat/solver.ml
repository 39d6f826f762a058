(* CDCL with two-watched literals, native XOR propagation, 1UIP
   learning, VSIDS, phase saving, Luby restarts, DB reduction, and
   inprocessing between restarts.

   Literal/assignment conventions:
   - literals are [Lit.t] stored as raw ints (MiniSat packing);
   - [assigns.(v)] is -1 (unassigned), 0 (false) or 1 (true);
   - a clause watches [lits.(0)] and [lits.(1)] and sits in the watch
     lists indexed by the *negations* of those literals, so the list
     [watches.(Lit.to_index p)] holds exactly the clauses that must be
     visited when [p] becomes true.

   Clause storage is an {!Arena}: every clause is a header plus a run
   of literal words in one contiguous int array, addressed by integer
   refs. Watch lists are flat [(cref, blocker)] int pairs ({!Ivec}), so
   the propagation loop walks int arrays without pointer chasing, and
   [snapshot]/[clone] reduce to array blits. *)

type xclause = {
  xvars : int array; (* watch positions are indices 0 and 1 *)
  xparity : bool;
  xguard : Lit.t option;
      (* [Some g]: the constraint reads g -> (xvars ⊕ = xparity); a
         false guard switches the row off. The guard variable is not
         watched — a missed propagation through it only delays the
         conflict to the leaf, where the var watches catch it. *)
  mutable xcovered : bool;
      (* absorbed by the Gauss matrix: removed from the watch lists and
         inert until a rebuild resurrects or re-covers it *)
}

type result = Sat | Unsat | Unknown

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  learnt : int;
  restarts : int;
  gauss_rows : int;
  gauss_elims : int;
  gauss_props : int;
  gauss_conflicts : int;
  subsumed : int;
  strengthened : int;
  eliminated : int;
  vivified : int;
  xors_recovered : int;
}

(* Reason encoding: a non-negative int is an arena cref; [no_reason]
   marks decisions and root facts; [array_reason] marks an ephemeral
   literal-array reason (XOR rows, Gauss engine) stored in [ereasons]. *)
let no_reason = -1
let array_reason = -2
let empty_lits : Lit.t array = [||]

type t = {
  mutable nvars : int;
  (* per-variable state, indexed by var *)
  mutable assigns : int array;
  mutable levels : int array;
  mutable reasons : int array;
  mutable ereasons : Lit.t array array;
  mutable activity : float array;
  mutable phase : bool array;
  mutable seen : bool array;
  mutable frozen : bool array; (* never eligible for elimination *)
  mutable elim : bool array; (* currently eliminated by BVE *)
  (* clause DB *)
  mutable arena : Arena.t;
  clauses : Ivec.t; (* crefs of problem clauses *)
  learnts : Ivec.t; (* crefs of learnt clauses *)
  xors : xclause Vec.t;
  (* watch lists *)
  mutable watches : Ivec.t array; (* indexed by lit: (cref, blocker) pairs *)
  mutable xwatches : xclause Vec.t array; (* indexed by var *)
  (* trail *)
  trail : Lit.t Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  (* heuristics *)
  mutable order : Heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  (* status *)
  mutable ok : bool;
  mutable stop : bool Atomic.t;
      (* cooperative cancellation: polled at conflict/restart
         boundaries; replaceable ([share_stop]) so sibling solvers on
         other domains can be interrupted as a group *)
  mutable proof : Buffer.t option;
  mutable model : bool array;
  mutable model_valid : bool;
  mutable last_core : Lit.t list option;
      (* assumption subset blamed by the last [Unsat] answer *)
  (* bounded variable elimination: per eliminated var, the original
     clauses removed with it, most recent elimination first *)
  mutable elim_stack : (int * Lit.t array list) list;
  (* inprocessing *)
  mutable inprocess_on : bool;
  mutable inprocess_interval : int;
  mutable inprocess_next : int; (* conflict count of the next pass *)
  mutable inprocess_rounds : int;
  (* stats *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable restarts_base : int;
      (* [n_restarts] at the start of the current solve call: the
         learnt-DB reduction slack must track restarts of this search,
         not the solver's lifetime, or incremental sessions inflate the
         threshold until reduction never fires *)
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_eliminated : int;
  mutable n_vivified : int;
  mutable n_xors_recovered : int;
  (* LBD computation scratch: distinct decision levels are counted by
     stamping [lbd_marks.(level)] with a fresh generation *)
  mutable lbd_marks : int array;
  mutable lbd_gen : int;
  (* Gauss–Jordan XOR engine *)
  mutable gauss : Gauss.t option;
  mutable gauss_mode : bool option; (* None = auto by row-count threshold *)
  mutable gauss_dirty : bool; (* XOR rows changed since the last build *)
  mutable n_gauss_rows : int;
  mutable n_gauss_elims : int;
  mutable n_gauss_props : int;
  mutable n_gauss_conflicts : int;
}

let dummy_xclause = { xvars = [||]; xparity = false; xguard = None; xcovered = false }

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999

(* auto mode switches the Gauss engine on from this many unguarded rows *)
let gauss_threshold = 4

(* …and back off above this many: Gauss–Jordan over a large system of
   short chained rows (e.g. chunked XOR chains) densifies the matrix,
   and the dense reasons/learnts cost far more than lazy watches save.
   The engine's sweet spot is the natural shape of the reconstruction
   instances: a few dozen long rows. An explicit [gauss:true] bypasses
   the cap. *)
let gauss_auto_max_rows = 128

(* Process-wide default for newly created solvers, so benchmarks and
   agreement tests can compare inprocessing on/off without threading a
   flag through every construction site. Set once up front; solvers
   read it at [create] time only. *)
let inprocess_default = ref true
let set_inprocess_default b = inprocess_default := b
let default_inprocess_interval = 2000

let create ?gauss () =
  {
    nvars = 0;
    assigns = [||];
    levels = [||];
    reasons = [||];
    ereasons = [||];
    activity = [||];
    phase = [||];
    seen = [||];
    frozen = [||];
    elim = [||];
    arena = Arena.create ();
    clauses = Ivec.create ();
    learnts = Ivec.create ();
    xors = Vec.create ~dummy:dummy_xclause ();
    watches = [||];
    xwatches = [||];
    trail = Vec.create ~dummy:(Lit.pos 0) ();
    trail_lim = Vec.create ~dummy:0 ();
    qhead = 0;
    order = Heap.create 16 ~score:[||];
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    stop = Atomic.make false;
    proof = None;
    model = [||];
    model_valid = false;
    last_core = None;
    elim_stack = [];
    inprocess_on = !inprocess_default;
    inprocess_interval = default_inprocess_interval;
    inprocess_next = default_inprocess_interval;
    inprocess_rounds = 0;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    restarts_base = 0;
    n_subsumed = 0;
    n_strengthened = 0;
    n_eliminated = 0;
    n_vivified = 0;
    n_xors_recovered = 0;
    lbd_marks = [||];
    lbd_gen = 0;
    gauss = None;
    gauss_mode = gauss;
    gauss_dirty = false;
    n_gauss_rows = 0;
    n_gauss_elims = 0;
    n_gauss_props = 0;
    n_gauss_conflicts = 0;
  }

let nvars s = s.nvars

let grow_arrays s n =
  let old = Array.length s.assigns in
  if n > old then begin
    let cap = max n (max 16 (2 * old)) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 old;
      b
    in
    s.assigns <- extend s.assigns (-1);
    s.levels <- extend s.levels (-1);
    s.reasons <- extend s.reasons no_reason;
    s.ereasons <- extend s.ereasons empty_lits;
    s.activity <- extend s.activity 0.;
    (* the heap reads [activity] directly: follow the new array *)
    Heap.set_score s.order s.activity;
    s.phase <- extend s.phase false;
    s.seen <- extend s.seen false;
    s.frozen <- extend s.frozen false;
    s.elim <- extend s.elim false;
    (* decision levels range over 0 .. nvars, hence cap + 1 *)
    let lm = Array.make (cap + 1) 0 in
    Array.blit s.lbd_marks 0 lm 0 (Array.length s.lbd_marks);
    s.lbd_marks <- lm;
    let xw = Array.init cap (fun i ->
        if i < old then s.xwatches.(i) else Vec.create ~dummy:dummy_xclause ())
    in
    s.xwatches <- xw;
    let w = Array.init (2 * cap) (fun i ->
        if i < 2 * old then s.watches.(i) else Ivec.create ~capacity:4 ())
    in
    s.watches <- w;
    Heap.grow s.order cap
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  grow_arrays s s.nvars;
  Heap.insert s.order v;
  v

let new_vars s n =
  if n <= 0 then invalid_arg "Solver.new_vars";
  let first = new_var s in
  for _ = 2 to n do
    ignore (new_var s)
  done;
  first

let ensure_vars s n =
  while s.nvars < n do
    ignore (new_var s)
  done

let decision_level s = Vec.size s.trail_lim

(* -1 unassigned / 0 false / 1 true *)
let lit_value s l =
  let a = s.assigns.(Lit.var l) in
  if a < 0 then -1 else if Lit.sign l then a else 1 - a

let enqueue s l reason =
  let v = Lit.var l in
  s.assigns.(v) <- (if Lit.sign l then 1 else 0);
  s.levels.(v) <- decision_level s;
  s.reasons.(v) <- reason;
  s.phase.(v) <- Lit.sign l;
  Vec.push s.trail l

(* enqueue with a literal-array reason (XOR rows, Gauss engine) *)
let enqueue_a s l lits =
  let v = Lit.var l in
  s.ereasons.(v) <- lits;
  enqueue s l array_reason

(* ------------------------------------------------------------------ *)
(* Watches                                                             *)

let watch_clause s cr =
  let a = s.arena in
  let l0 = Arena.lit a cr 0 and l1 = Arena.lit a cr 1 in
  Ivec.push2 s.watches.(Lit.to_index (Lit.negate l0)) cr (Lit.to_index l1);
  Ivec.push2 s.watches.(Lit.to_index (Lit.negate l1)) cr (Lit.to_index l0)

let xor_assigned_parity s xc skip =
  (* XOR of the boolean values of all assigned vars except index [skip] *)
  let p = ref false in
  Array.iteri
    (fun i v -> if i <> skip && s.assigns.(v) >= 0 then p := !p <> (s.assigns.(v) = 1))
    xc.xvars;
  !p

(* Reason / conflict clause materialized from an XOR constraint: the
   propagated literal (if any) plus the falsified current assignments
   of every other variable, plus the guard's negation when the row is
   guarded (unless ¬g is itself the propagated literal). *)
let xor_reason s xc ~propagated =
  let lits = ref [] in
  Array.iter
    (fun v ->
      let is_prop = match propagated with Some l -> Lit.var l = v | None -> false in
      if not is_prop then begin
        assert (s.assigns.(v) >= 0);
        lits := Lit.make v (s.assigns.(v) = 0) :: !lits
      end)
    xc.xvars;
  let lits = match propagated with Some l -> l :: !lits | None -> !lits in
  let lits =
    match xc.xguard with
    | Some g
      when not
             (match propagated with
             | Some l -> Lit.equal l (Lit.negate g)
             | None -> false) ->
        Lit.negate g :: lits
    | _ -> lits
  in
  Array.of_list lits

(* ------------------------------------------------------------------ *)
(* Propagation                                                         *)

type confl = Cref of int | Clits of Lit.t array

exception Conflict of confl

(* Write a surviving (cref, blocker) pair back at [j] and return the
   next write position. Top-level, so it captures nothing: a local
   closure over a [j] ref would box [j] and allocate on every literal
   propagated. *)
let keep_watch wl j cr blk =
  Ivec.set wl j cr;
  Ivec.set wl (j + 1) blk;
  j + 2

let propagate_clauses s p =
  (* p just became true; visit clauses watching ¬p. The list is
     compacted in place (copy-back): surviving pairs slide to the
     front, pairs whose clause found a new watch are dropped. *)
  let a = s.arena in
  let wl = s.watches.(Lit.to_index p) in
  let false_lit = Lit.negate p in
  let i = ref 0 in
  let j = ref 0 in
  try
    while !i < Ivec.size wl do
      let cr = Ivec.get wl !i in
      let blk = Ivec.get wl (!i + 1) in
      i := !i + 2;
      if lit_value s (Lit.of_index blk) = 1 then j := keep_watch wl !j cr blk
        (* blocker satisfied; clause untouched *)
      else begin
        (* normalize: put the false literal at position 1 *)
        if Lit.equal (Arena.lit a cr 0) false_lit then Arena.swap_lits a cr 0 1;
        let l0 = Arena.lit a cr 0 in
        if lit_value s l0 = 1 then
          (* satisfied by the other watch: remember it as the blocker *)
          j := keep_watch wl !j cr (Lit.to_index l0)
        else begin
          (* look for a new literal to watch *)
          let n = Arena.size a cr in
          let found = ref false in
          let k = ref 2 in
          while (not !found) && !k < n do
            let l = Arena.lit a cr !k in
            if lit_value s l <> 0 then begin
              Arena.set_lit a cr !k (Arena.lit a cr 1);
              Arena.set_lit a cr 1 l;
              Ivec.push2 s.watches.(Lit.to_index (Lit.negate l)) cr (Lit.to_index l0);
              found := true
            end
            else incr k
          done;
          if not !found then begin
            j := keep_watch wl !j cr (Lit.to_index l0);
            if lit_value s l0 = 0 then raise (Conflict (Cref cr))
            else begin
              (* unit: propagate lits.(0) *)
              s.n_propagations <- s.n_propagations + 1;
              enqueue s l0 cr
            end
          end
        end
      end
    done;
    Ivec.shrink wl !j
  with Conflict c ->
    (* copy the unvisited tail back before surfacing the conflict *)
    while !i < Ivec.size wl do
      Ivec.set wl !j (Ivec.get wl !i);
      Ivec.set wl (!j + 1) (Ivec.get wl (!i + 1));
      i := !i + 2;
      j := !j + 2
    done;
    Ivec.shrink wl !j;
    raise (Conflict c)

let propagate_xors s v =
  let wl = s.xwatches.(v) in
  let i = ref 0 in
  while !i < Vec.size wl do
    let xc = Vec.get wl !i in
    (* put v at watch position 1 *)
    if xc.xvars.(0) = v then begin
      xc.xvars.(0) <- xc.xvars.(1);
      xc.xvars.(1) <- v
    end;
    let n = Array.length xc.xvars in
    (* find an unassigned replacement at position >= 2 *)
    let found = ref false in
    let j = ref 2 in
    while (not !found) && !j < n do
      if s.assigns.(xc.xvars.(!j)) < 0 then begin
        let w = xc.xvars.(!j) in
        xc.xvars.(!j) <- xc.xvars.(1);
        xc.xvars.(1) <- w;
        Vec.push s.xwatches.(w) xc;
        Vec.swap_remove wl !i;
        found := true
      end
      else incr j
    done;
    if not !found then begin
      (* -1 unassigned / 0 false / 1 true; unguarded rows act as g = 1 *)
      let gval = match xc.xguard with None -> 1 | Some g -> lit_value s g in
      if gval = 0 then incr i (* row switched off: satisfied *)
      else begin
        let other = xc.xvars.(0) in
        if s.assigns.(other) < 0 then begin
          if gval = 1 then begin
            (* unit on [other]: other must make total parity = xparity *)
            let needed = xc.xparity <> xor_assigned_parity s xc 0 in
            let l = Lit.make other needed in
            let reason = xor_reason s xc ~propagated:(Some l) in
            s.n_propagations <- s.n_propagations + 1;
            enqueue_a s l reason
          end
          (* guard and one variable both free: nothing forced yet *)
        end
        else if xor_assigned_parity s xc (-1) <> xc.xparity then begin
          if gval = 1 then
            raise (Conflict (Clits (xor_reason s xc ~propagated:None)))
          else begin
            (* every variable assigned with the wrong parity: the only
               way out is switching the row off *)
            let g = match xc.xguard with Some g -> g | None -> assert false in
            let l = Lit.negate g in
            let reason = xor_reason s xc ~propagated:(Some l) in
            s.n_propagations <- s.n_propagations + 1;
            enqueue_a s l reason
          end
        end;
        incr i
      end
    end
  done

let propagate_gauss s v =
  match s.gauss with
  | None -> ()
  | Some g -> (
      match Gauss.on_assign g v with
      | Gauss.Nothing -> ()
      | Gauss.Confl lits ->
          s.n_gauss_conflicts <- s.n_gauss_conflicts + 1;
          raise (Conflict (Clits lits))
      | Gauss.Props ps ->
          List.iter
            (fun (l, reason) ->
              match lit_value s l with
              | 1 -> () (* another row already forced it *)
              | -1 ->
                  s.n_propagations <- s.n_propagations + 1;
                  s.n_gauss_props <- s.n_gauss_props + 1;
                  enqueue_a s l reason
              | _ ->
                  (* forced both ways by two rows: the reason clause,
                     whose head is now false, is the conflict *)
                  s.n_gauss_conflicts <- s.n_gauss_conflicts + 1;
                  raise (Conflict (Clits reason)))
            ps)

let propagate s =
  try
    while s.qhead < Vec.size s.trail do
      let p = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      propagate_clauses s p;
      propagate_xors s (Lit.var p);
      propagate_gauss s (Lit.var p)
    done;
    None
  with Conflict c -> Some c

(* ------------------------------------------------------------------ *)
(* Backtracking                                                        *)

let cancel_until s level =
  if decision_level s > level then begin
    let bound = Vec.get s.trail_lim level in
    for i = Vec.size s.trail - 1 downto bound do
      let v = Lit.var (Vec.get s.trail i) in
      (* the Gauss counters read the assignment, so unwind them first *)
      (match s.gauss with Some g -> Gauss.on_unassign g v | None -> ());
      s.assigns.(v) <- -1;
      s.reasons.(v) <- no_reason;
      s.ereasons.(v) <- empty_lits;
      s.levels.(v) <- -1;
      if not (Heap.mem s.order v) then Heap.insert s.order v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim level;
    s.qhead <- Vec.size s.trail
  end

(* ------------------------------------------------------------------ *)
(* DRAT proof logging                                                  *)

let proof_line s prefix lits =
  match s.proof with
  | None -> ()
  | Some buf ->
      Buffer.add_string buf prefix;
      List.iter
        (fun l -> Buffer.add_string buf (string_of_int (Lit.to_dimacs l) ^ " "))
        lits;
      Buffer.add_string buf "0\n"

let proof_add s lits = proof_line s "" lits
let proof_delete s lits = proof_line s "d " lits

(* ------------------------------------------------------------------ *)
(* Activity                                                            *)

let rescale_var_activity s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then rescale_var_activity s;
  Heap.update s.order v

let decay_var_activity s = s.var_inc <- s.var_inc *. var_decay

let rescale_clause_activity s =
  let a = s.arena in
  Ivec.iter (fun cr -> Arena.set_activity a cr (Arena.activity a cr *. 1e-20)) s.learnts;
  s.cla_inc <- s.cla_inc *. 1e-20

let bump_clause s cr =
  let a = s.arena in
  Arena.set_activity a cr (Arena.activity a cr +. s.cla_inc);
  if Arena.activity a cr > 1e20 then rescale_clause_activity s

(* The decay multiplies [cla_inc] by 1/0.999 every conflict; on long
   runs it reaches [infinity] (~709k conflicts from 1.0) unless it is
   rescaled here too — bumping alone only rescales when some clause
   activity crosses the bar, which never happens once [cla_inc] is
   already [inf] times a dormant DB. *)
let decay_clause_activity s =
  s.cla_inc <- s.cla_inc *. clause_decay;
  if s.cla_inc > 1e20 then rescale_clause_activity s

(* regression hooks for the overflow fix *)
let debug_decay_clause_activity s n =
  for _ = 1 to n do
    decay_clause_activity s
  done

let debug_cla_inc s = s.cla_inc

(* Literal block distance: number of distinct decision levels among the
   literals (level-0 literals do not count). *)
let compute_lbd s lits =
  s.lbd_gen <- s.lbd_gen + 1;
  let n = ref 0 in
  Array.iter
    (fun l ->
      let lev = s.levels.(Lit.var l) in
      if lev > 0 && s.lbd_marks.(lev) <> s.lbd_gen then begin
        s.lbd_marks.(lev) <- s.lbd_gen;
        incr n
      end)
    lits;
  !n

let compute_lbd_cref s cr =
  let a = s.arena in
  s.lbd_gen <- s.lbd_gen + 1;
  let n = ref 0 in
  for i = 0 to Arena.size a cr - 1 do
    let lev = s.levels.(Lit.var (Arena.lit a cr i)) in
    if lev > 0 && s.lbd_marks.(lev) <> s.lbd_gen then begin
      s.lbd_marks.(lev) <- s.lbd_gen;
      incr n
    end
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP)                                       *)

let analyze s confl =
  let a = s.arena in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref None in
  let index = ref (Vec.size s.trail - 1) in
  let confl = ref confl in
  let continue = ref true in
  let visit q =
    let skip = match !p with Some p -> Lit.equal p q | None -> false in
    let v = Lit.var q in
    if (not skip) && (not s.seen.(v)) && s.levels.(v) > 0 then begin
      s.seen.(v) <- true;
      bump_var s v;
      if s.levels.(v) >= decision_level s then incr counter
      else learnt := q :: !learnt
    end
  in
  while !continue do
    (match !confl with
    | Cref cr ->
        if Arena.learnt a cr then begin
          bump_clause s cr;
          (* glucose: a reason clause seen in conflict analysis gets its
             LBD refreshed; keep the smaller (better) value *)
          let l = compute_lbd_cref s cr in
          if l < Arena.lbd a cr then Arena.set_lbd a cr l
        end;
        for i = 0 to Arena.size a cr - 1 do
          visit (Arena.lit a cr i)
        done
    | Clits lits -> Array.iter visit lits);
    (* pick the next seen literal from the trail *)
    let rec next_seen i =
      if s.seen.(Lit.var (Vec.get s.trail i)) then i else next_seen (i - 1)
    in
    index := next_seen !index;
    let pl = Vec.get s.trail !index in
    decr index;
    p := Some pl;
    s.seen.(Lit.var pl) <- false;
    decr counter;
    if !counter > 0 then begin
      let r = s.reasons.(Lit.var pl) in
      if r >= 0 then confl := Cref r
      else if r = array_reason then confl := Clits s.ereasons.(Lit.var pl)
      else assert false
    end
    else continue := false
  done;
  let uip = match !p with Some p -> Lit.negate p | None -> assert false in
  (* local minimization: drop literals implied by the rest *)
  let seen_lits = uip :: !learnt in
  List.iter (fun l -> s.seen.(Lit.var l) <- true) seen_lits;
  let redundant q =
    let v = Lit.var q in
    let r = s.reasons.(v) in
    let implied l =
      Lit.var l = v || s.seen.(Lit.var l) || s.levels.(Lit.var l) = 0
    in
    if r >= 0 then begin
      let all = ref true in
      let i = ref 0 in
      let n = Arena.size a r in
      while !all && !i < n do
        if not (implied (Arena.lit a r !i)) then all := false;
        incr i
      done;
      !all
    end
    else if r = array_reason then Array.for_all implied s.ereasons.(v)
    else false
  in
  let kept = List.filter (fun q -> not (redundant q)) !learnt in
  List.iter (fun l -> s.seen.(Lit.var l) <- false) seen_lits;
  (* backtrack level: highest level among kept literals *)
  let blevel = List.fold_left (fun acc q -> max acc s.levels.(Lit.var q)) 0 kept in
  (uip :: kept, blevel)

let record_learnt s lits =
  proof_add s lits;
  match lits with
  | [] -> s.ok <- false
  | [ l ] ->
      cancel_until s 0;
      if lit_value s l = -1 then begin
        enqueue s l no_reason;
        if propagate s <> None then begin
          s.ok <- false;
          proof_add s []
        end
      end
      else if lit_value s l = 0 then begin
        s.ok <- false;
        proof_add s []
      end
  | uip :: rest ->
      (* put a literal of the backtrack level in watch position 1 *)
      let arr = Array.of_list (uip :: rest) in
      let max_i = ref 1 in
      for i = 2 to Array.length arr - 1 do
        if s.levels.(Lit.var arr.(i)) > s.levels.(Lit.var arr.(!max_i)) then max_i := i
      done;
      let tmp = arr.(1) in
      arr.(1) <- arr.(!max_i);
      arr.(!max_i) <- tmp;
      let cr = Arena.alloc s.arena ~learnt:true arr in
      Arena.set_lbd s.arena cr (compute_lbd s arr);
      bump_clause s cr;
      Ivec.push s.learnts cr;
      watch_clause s cr;
      enqueue s uip cr

(* ------------------------------------------------------------------ *)
(* Learnt DB reduction and arena compaction                            *)

let locked s cr =
  Arena.size s.arena cr > 0
  &&
  let v = Lit.var (Arena.lit s.arena cr 0) in
  s.reasons.(v) = cr

(* Relocating GC: copy every live clause into a fresh arena (in DB
   order, so allocation order — and with it cache behaviour and any
   future traversal order — is deterministic), then chase the
   forwarding refs left behind from every cref holder: the clause
   vectors, the watch lists, and the trail reasons. *)
let collect s =
  let src = s.arena in
  let dst = Arena.create ~capacity:(max 16 (Arena.words src - Arena.wasted src + 64)) () in
  let mv iv =
    for i = 0 to Ivec.size iv - 1 do
      Ivec.set iv i (Arena.move ~src ~dst (Ivec.get iv i))
    done
  in
  mv s.clauses;
  mv s.learnts;
  Array.iter
    (fun wl ->
      let i = ref 0 in
      while !i < Ivec.size wl do
        Ivec.set wl !i (Arena.forward src (Ivec.get wl !i));
        i := !i + 2
      done)
    s.watches;
  Vec.iter
    (fun l ->
      let v = Lit.var l in
      if s.reasons.(v) >= 0 then s.reasons.(v) <- Arena.forward src s.reasons.(v))
    s.trail;
  s.arena <- dst

let reduce_db s =
  let a = s.arena in
  let n = Ivec.size s.learnts in
  if n > 0 then begin
    let arr = Ivec.to_array s.learnts in
    (* glucose ordering: flush high-LBD clauses first, ties broken by
       low activity; "glue" clauses (LBD <= 2) are kept unconditionally *)
    Array.sort
      (fun c d ->
        let lc = Arena.lbd a c and ld = Arena.lbd a d in
        if lc <> ld then Int.compare ld lc
        else Float.compare (Arena.activity a c) (Arena.activity a d))
      arr;
    let target = n / 2 in
    let removed = ref 0 in
    Array.iter
      (fun cr ->
        if
          !removed < target && Arena.lbd a cr > 2 && (not (locked s cr))
          && Arena.size a cr > 2
        then begin
          proof_delete s (Array.to_list (Arena.lits a cr));
          Arena.delete a cr;
          incr removed
        end)
      arr;
    Ivec.filter_in_place (fun cr -> not (Arena.deleted a cr)) s.learnts;
    Array.iter
      (fun wl -> Ivec.filter_pairs_in_place (fun cr _ -> not (Arena.deleted a cr)) wl)
      s.watches;
    if Arena.wasted s.arena > Arena.words s.arena / 2 then collect s
  end

(* ------------------------------------------------------------------ *)
(* Adding constraints (and restoring BVE-eliminated variables)         *)

(* A new constraint (or an assumption) may reference a variable that
   inprocessing eliminated. Restoration re-adds the original clauses
   that were removed with it — they are equivalent to the resolvents
   plus the variable, and the resolvents are ordinary consequences, so
   leaving those in place is sound. Stored clauses can themselves
   mention variables eliminated later, hence the recursion. *)
let rec restore_var s v =
  if v < Array.length s.elim && s.elim.(v) then begin
    s.elim.(v) <- false;
    let entry = ref [] in
    s.elim_stack <-
      List.filter
        (fun (w, stored) -> if w = v then (entry := stored; false) else true)
        s.elim_stack;
    List.iter
      (fun lits ->
        Array.iter (fun l -> restore_var s (Lit.var l)) lits;
        attach_restored s lits)
      !entry;
    if s.assigns.(v) < 0 && not (Heap.mem s.order v) then Heap.insert s.order v
  end

(* Same normalization as [add_clause], minus the proof lines — BVE is
   disabled under proof logging, so restoration never runs with it. *)
and attach_restored s lits =
  if s.ok then begin
    let lits = List.sort_uniq Lit.compare (Array.to_list lits) in
    if not (List.exists (fun l -> lit_value s l = 1) lits) then begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
          enqueue s l no_reason;
          if propagate s <> None then s.ok <- false
      | _ ->
          let cr = Arena.alloc s.arena ~learnt:false (Array.of_list lits) in
          Ivec.push s.clauses cr;
          watch_clause s cr
    end
  end

let add_clause s lits =
  cancel_until s 0;
  s.model_valid <- false;
  if s.ok then begin
    List.iter (fun l -> ensure_vars s (Lit.var l + 1)) lits;
    List.iter (fun l -> restore_var s (Lit.var l)) lits;
    (* remove duplicates, detect tautologies, drop root-false literals *)
    let lits = List.sort_uniq Lit.compare lits in
    let tautology =
      List.exists (fun l -> List.exists (Lit.equal (Lit.negate l)) lits) lits
      || List.exists (fun l -> lit_value s l = 1) lits
    in
    if not tautology then begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
          enqueue s l no_reason;
          if propagate s <> None then s.ok <- false
      | _ ->
          let cr = Arena.alloc s.arena ~learnt:false (Array.of_list lits) in
          Ivec.push s.clauses cr;
          watch_clause s cr
    end
  end

let add_xor ?guard s ~vars ~parity =
  if s.proof <> None then
    invalid_arg "Solver.add_xor: proof logging is restricted to pure CNF";
  cancel_until s 0;
  s.model_valid <- false;
  if s.ok then begin
    List.iter (fun v -> ensure_vars s (v + 1)) vars;
    (match guard with Some g -> ensure_vars s (Lit.var g + 1) | None -> ());
    List.iter (fun v -> restore_var s v) vars;
    (match guard with Some g -> restore_var s (Lit.var g) | None -> ());
    (* a root-decided guard degenerates to unguarded / vacuous *)
    let guard =
      match guard with Some g when lit_value s g = 1 -> None | g -> g
    in
    let vacuous =
      match guard with Some g -> lit_value s g = 0 | None -> false
    in
    if not vacuous then begin
      (* cancel duplicate vars pairwise; fold root assignments into
         parity (sound under any guard: root facts are global) *)
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun v ->
          if Hashtbl.mem tbl v then Hashtbl.remove tbl v else Hashtbl.add tbl v ())
        vars;
      let vars = List.filter (Hashtbl.mem tbl) (List.sort_uniq Int.compare vars) in
      let parity = ref parity in
      let vars =
        List.filter
          (fun v ->
            if s.assigns.(v) >= 0 then begin
              if s.assigns.(v) = 1 then parity := not !parity;
              false
            end
            else true)
          vars
      in
      match (vars, guard) with
      | [], None -> if !parity then s.ok <- false
      | [], Some g -> if !parity then add_clause s [ Lit.negate g ]
      | [ v ], None ->
          enqueue s (Lit.make v !parity) no_reason;
          if propagate s <> None then s.ok <- false
      | [ v ], Some g -> add_clause s [ Lit.negate g; Lit.make v !parity ]
      | v0 :: v1 :: _, _ ->
          let xc =
            { xvars = Array.of_list vars; xparity = !parity; xguard = guard;
              xcovered = false }
          in
          Vec.push s.xors xc;
          Vec.push s.xwatches.(v0) xc;
          Vec.push s.xwatches.(v1) xc;
          (* only unguarded rows participate in the Gauss matrix *)
          if guard = None then s.gauss_dirty <- true
    end
  end

(* Put a previously Gauss-covered row back on the lazy watch scheme.
   At level 0 its variables may have become assigned while it was off
   the lists, so re-establish the watch invariant by hand: watch two
   unassigned variables, or propagate/refute right away. *)
let resurrect_xor s xc =
  let n = Array.length xc.xvars in
  let w = ref 0 in
  (try
     for j = 0 to n - 1 do
       if s.assigns.(xc.xvars.(j)) < 0 then begin
         let tmp = xc.xvars.(!w) in
         xc.xvars.(!w) <- xc.xvars.(j);
         xc.xvars.(j) <- tmp;
         incr w;
         if !w = 2 then raise Exit
       end
     done
   with Exit -> ());
  if !w >= 2 then begin
    Vec.push s.xwatches.(xc.xvars.(0)) xc;
    Vec.push s.xwatches.(xc.xvars.(1)) xc
  end
  else if !w = 1 then begin
    let needed = xc.xparity <> xor_assigned_parity s xc 0 in
    enqueue s (Lit.make xc.xvars.(0) needed) no_reason
  end
  else if xor_assigned_parity s xc (-1) <> xc.xparity then s.ok <- false

(* (Re)build the Gauss engine from the unguarded XOR rows. Called from
   [solve] at decision level 0 (with propagation complete) whenever
   rows were added or the mode changed. *)
let rebuild_gauss s =
  s.gauss_dirty <- false;
  s.gauss <- None;
  let rows = ref [] and count = ref 0 in
  Vec.iter
    (fun xc ->
      if xc.xguard = None then begin
        incr count;
        rows := (Array.to_list xc.xvars, xc.xparity) :: !rows
      end)
    s.xors;
  let enabled =
    match s.gauss_mode with
    | Some b -> b
    | None -> !count >= gauss_threshold && !count <= gauss_auto_max_rows
  in
  if enabled && !count > 0 then begin
    match Gauss.build ~value:(fun v -> s.assigns.(v)) (List.rev !rows) with
    | `Unsat ->
        s.ok <- false;
        s.n_gauss_rows <- 0;
        s.n_gauss_elims <- !count
    | `Ok { engine; root_units; matrix_rows; eliminated } ->
        s.gauss <- engine;
        s.n_gauss_rows <- matrix_rows;
        s.n_gauss_elims <- eliminated;
        (* every unguarded row is absorbed — matrix rows plus root
           units carry exactly the same solutions *)
        Vec.iter (fun xc -> if xc.xguard = None then xc.xcovered <- true) s.xors;
        Array.iter
          (fun wl -> Vec.filter_in_place (fun xc -> not xc.xcovered) wl)
          s.xwatches;
        List.iter
          (fun l ->
            match lit_value s l with
            | -1 -> enqueue s l no_reason
            | 0 -> s.ok <- false
            | _ -> ())
          root_units
  end
  else begin
    s.n_gauss_rows <- 0;
    s.n_gauss_elims <- 0;
    Vec.iter
      (fun xc ->
        if xc.xcovered then begin
          xc.xcovered <- false;
          if s.ok then resurrect_xor s xc
        end)
      s.xors
  end

let set_gauss s mode =
  if s.gauss_mode <> mode then begin
    s.gauss_mode <- mode;
    s.gauss_dirty <- true
  end

let enable_proof s =
  if Vec.size s.xors > 0 then
    invalid_arg "Solver.enable_proof: instance has XOR constraints";
  if s.proof = None then s.proof <- Some (Buffer.create 4096)

let proof s = match s.proof with Some buf -> Buffer.contents buf | None -> ""

let boost s vars =
  List.iter
    (fun v ->
      if v >= 0 && v < s.nvars then begin
        s.activity.(v) <- s.activity.(v) +. 1.0;
        Heap.update s.order v
      end)
    vars

let freeze s vars =
  List.iter
    (fun v ->
      if v >= 0 then begin
        ensure_vars s (v + 1);
        restore_var s v;
        s.frozen.(v) <- true
      end)
    vars

(* Deterministic per-seed perturbation of phases and branching order,
   for portfolio racing. Seed 0 is the identity so the canonical config
   stays byte-identical to a sequential run. *)
let diversify s ~seed =
  if seed <> 0 then begin
    for v = 0 to s.nvars - 1 do
      let h = (v * 0x9E3779B1) lxor (seed * 0x85EBCA77) in
      let h = (h lxor (h lsr 13)) land max_int in
      if h land 1 = 1 then s.phase.(v) <- not s.phase.(v);
      s.activity.(v) <- s.activity.(v) +. (float_of_int ((h lsr 1) land 0xFFFF) *. 1e-7);
      Heap.update s.order v
    done
  end

let set_inprocess s b = s.inprocess_on <- b

let set_inprocess_interval s n =
  if n < 1 then invalid_arg "Solver.set_inprocess_interval";
  s.inprocess_interval <- n;
  s.inprocess_next <- min s.inprocess_next (s.n_conflicts + n)

let of_cnf ?gauss p =
  let s = create ?gauss () in
  ensure_vars s (Cnf.nvars p);
  List.iter (add_clause s) (Cnf.clauses p);
  List.iter
    (fun { Cnf.vars; parity; guard } -> add_xor ?guard s ~vars ~parity)
    (Cnf.xors p);
  s

(* Load everything of [p] beyond the first [nclauses]/[nxors] entries —
   the session layer grows one Cnf incrementally and flushes deltas. *)
let add_cnf_from s p ~nclauses ~nxors =
  ensure_vars s (Cnf.nvars p);
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
  List.iter (add_clause s) (drop nclauses (Cnf.clauses p));
  List.iter
    (fun { Cnf.vars; parity; guard } -> add_xor ?guard s ~vars ~parity)
    (drop nxors (Cnf.xors p))

(* ------------------------------------------------------------------ *)
(* Inprocessing                                                        *)

(* All passes run at decision level 0 with the clause watch lists
   DETACHED (cleared wholesale at entry) and re-attached afterwards;
   XOR watches and the Gauss engine stay live, so [propagate] inside a
   pass closes over the linear part only. Root-level reasons are never
   read by analysis, so they are dropped at entry.

   Soundness discipline: every transformation is an equivalence (or, for
   BVE, an exact ∃-projection whose originals are restored the moment
   the variable is referenced again), guards are ordinary variables in
   every pass (a guarded clause keeps its ¬g literal through
   subsumption/strengthening, so switching groups on and off later
   still works), and under proof logging only RUP-expressible passes
   (cleanup, subsumption, vivification) run. *)

(* Root-level semantic cleanup, to fixpoint: delete satisfied clauses,
   drop false literals, fold units into the trail, and propagate the
   XOR/Gauss closure of any new root facts. *)
let cleanup_pass s =
  let changed = ref true in
  while !changed && s.ok do
    changed := false;
    let scan iv =
      for idx = 0 to Ivec.size iv - 1 do
        if s.ok then begin
          let cr = Ivec.get iv idx in
          let a = s.arena in
          if not (Arena.deleted a cr) then begin
            let sz = Arena.size a cr in
            let sat = ref false in
            let nfalse = ref 0 in
            for i = 0 to sz - 1 do
              match lit_value s (Arena.lit a cr i) with
              | 1 -> sat := true
              | 0 -> incr nfalse
              | _ -> ()
            done;
            if !sat then begin
              proof_delete s (Array.to_list (Arena.lits a cr));
              Arena.delete a cr;
              changed := true
            end
            else if !nfalse = 0 then begin
              if sz = 0 then begin
                (* a stored empty clause: the formula is UNSAT *)
                s.ok <- false;
                proof_add s []
              end
              else if sz = 1 then begin
                (* a stored unit: fold it into the trail; keep the fact
                   in the proof DB (no delete line) — later RUP steps
                   may hang off it *)
                let l = Arena.lit a cr 0 in
                Arena.delete a cr;
                if lit_value s l = -1 then enqueue s l no_reason;
                changed := true
              end
            end
            else begin
              let old = Array.to_list (Arena.lits a cr) in
              let j = ref 0 in
              for i = 0 to sz - 1 do
                let l = Arena.lit a cr i in
                if lit_value s l <> 0 then begin
                  Arena.set_lit a cr !j l;
                  incr j
                end
              done;
              Arena.shrink_clause a cr !j;
              changed := true;
              if !j = 0 then begin
                s.ok <- false;
                proof_add s []
              end
              else if !j = 1 then begin
                let l = Arena.lit a cr 0 in
                proof_add s [ l ];
                proof_delete s old;
                Arena.delete a cr;
                if lit_value s l = -1 then enqueue s l no_reason
              end
              else begin
                proof_add s (Array.to_list (Arena.lits a cr));
                proof_delete s old
              end
            end
          end
        end
      done
    in
    scan s.clauses;
    scan s.learnts;
    if s.ok && s.qhead < Vec.size s.trail then begin
      (match propagate s with
      | Some _ ->
          s.ok <- false;
          proof_add s []
      | None -> ());
      changed := true
    end
  done

(* Subsumption and self-subsuming resolution over the original clauses
   (occurrence lists + 62-bit variable signatures, SatELite-style).
   [c] subsumes [d] when every literal of [c] occurs in [d]; if exactly
   one occurs negated, resolving removes that literal from [d]. *)
let subsume_pass s =
  let a = s.arena in
  let crs = ref [] in
  Ivec.iter (fun cr -> if not (Arena.deleted a cr) then crs := cr :: !crs) s.clauses;
  let crs = Array.of_list (List.rev !crs) in
  let n = Array.length crs in
  if n > 1 then begin
    let sigs = Array.make n 0 in
    let occ = Array.make (max 1 s.nvars) [] in
    let occn = Array.make (max 1 s.nvars) 0 in
    for ci = 0 to n - 1 do
      let cr = crs.(ci) in
      let sg = ref 0 in
      for i = 0 to Arena.size a cr - 1 do
        let v = Lit.var (Arena.lit a cr i) in
        sg := !sg lor (1 lsl (v mod 62));
        occ.(v) <- ci :: occ.(v);
        occn.(v) <- occn.(v) + 1
      done;
      sigs.(ci) <- !sg
    done;
    let max_subsumer = 10 in
    for ci = 0 to n - 1 do
      let c = crs.(ci) in
      let sz = Arena.size a c in
      if s.ok && (not (Arena.deleted a c)) && sz <= max_subsumer && sz > 0 then begin
        (* walk the occurrence list of c's rarest variable *)
        let best = ref (Lit.var (Arena.lit a c 0)) in
        for i = 1 to sz - 1 do
          let v = Lit.var (Arena.lit a c i) in
          if occn.(v) < occn.(!best) then best := v
        done;
        List.iter
          (fun dj ->
            let d = crs.(dj) in
            if
              dj <> ci
              && (not (Arena.deleted a d))
              && (not (Arena.deleted a c))
              && Arena.size a d >= Arena.size a c
              && sigs.(ci) land lnot sigs.(dj) = 0
            then begin
              (* neg_at: -2 = all found positively, >=0 = position in d
                 of the single negated occurrence, -1 = no match *)
              let neg_at = ref (-2) in
              (try
                 for i = 0 to Arena.size a c - 1 do
                   let l = Arena.lit a c i in
                   let nl = Lit.negate l in
                   let dsz = Arena.size a d in
                   let found = ref false in
                   let k = ref 0 in
                   while (not !found) && !k < dsz do
                     let ld = Arena.lit a d !k in
                     if Lit.equal ld l then found := true
                     else if Lit.equal ld nl then
                       if !neg_at = -2 then begin
                         neg_at := !k;
                         found := true
                       end
                       else begin
                         neg_at := -1;
                         raise Exit
                       end
                     else incr k
                   done;
                   if not !found then begin
                     neg_at := -1;
                     raise Exit
                   end
                 done
               with Exit -> ());
              if !neg_at = -2 then begin
                proof_delete s (Array.to_list (Arena.lits a d));
                Arena.delete a d;
                s.n_subsumed <- s.n_subsumed + 1
              end
              else if !neg_at >= 0 then begin
                let old = Array.to_list (Arena.lits a d) in
                Arena.remove_lit_at a d !neg_at;
                s.n_strengthened <- s.n_strengthened + 1;
                if Arena.size a d = 0 then begin
                  (* a unit resolved against its negation: the empty
                     resolvent refutes the formula *)
                  s.ok <- false;
                  proof_add s []
                end
                else begin
                  proof_add s (Array.to_list (Arena.lits a d));
                  proof_delete s old
                end
              end
            end)
          occ.(!best)
      end
    done
  end

(* One resolvent of two clauses on pivot [v]; [None] on tautology. *)
let resolve_on a v p q =
  let acc = ref [] in
  let addfrom cr =
    for i = 0 to Arena.size a cr - 1 do
      let l = Arena.lit a cr i in
      if Lit.var l <> v then acc := l :: !acc
    done
  in
  addfrom p;
  addfrom q;
  let ls = List.sort_uniq Lit.compare !acc in
  (* packed literal order puts both polarities of a var adjacent *)
  let rec taut = function
    | x :: (y :: _ as tl) -> Lit.var x = Lit.var y || taut tl
    | _ -> false
  in
  if taut ls then None else Some (Array.of_list ls)

(* Bounded variable elimination (NiVER/SatELite): eliminate [v] when
   the non-tautological resolvents don't outnumber the clauses they
   replace. The removed originals go on [elim_stack] for restoration
   and model extension. Not proof-expressible on restoration, so the
   whole pass is gated on proof logging being off. Variables on XOR
   rows (or guards of rows), frozen variables, and assigned variables
   are untouchable. *)
let bve_pass s =
  let a = s.arena in
  let nv = max 1 s.nvars in
  let in_xor = Array.make nv false in
  Vec.iter
    (fun xc ->
      Array.iter (fun v -> in_xor.(v) <- true) xc.xvars;
      match xc.xguard with Some g -> in_xor.(Lit.var g) <- true | None -> ())
    s.xors;
  let occ_pos = Array.make nv [] in
  let occ_neg = Array.make nv [] in
  let register cr =
    for i = 0 to Arena.size a cr - 1 do
      let l = Arena.lit a cr i in
      let v = Lit.var l in
      if Lit.sign l then occ_pos.(v) <- cr :: occ_pos.(v)
      else occ_neg.(v) <- cr :: occ_neg.(v)
    done
  in
  Ivec.iter (fun cr -> if not (Arena.deleted a cr) then register cr) s.clauses;
  let max_occ = 10 in
  let max_res_len = 24 in
  for v = 0 to s.nvars - 1 do
    if
      s.ok && (not s.frozen.(v)) && (not s.elim.(v)) && s.assigns.(v) < 0
      && not in_xor.(v)
    then begin
      let live = List.filter (fun cr -> not (Arena.deleted a cr)) in
      let pos = live occ_pos.(v) and neg = live occ_neg.(v) in
      let np = List.length pos and nn = List.length neg in
      if np <= max_occ && nn <= max_occ then begin
        let limit = np + nn in
        let resolvents = ref [] in
        let count = ref 0 in
        let feasible = ref true in
        (try
           List.iter
             (fun p ->
               List.iter
                 (fun q ->
                   match resolve_on a v p q with
                   | None -> ()
                   | Some lits ->
                       incr count;
                       if Array.length lits > max_res_len || !count > limit
                       then begin
                         feasible := false;
                         raise Exit
                       end;
                       resolvents := lits :: !resolvents)
                 neg)
             pos
         with Exit -> ());
        if !feasible then begin
          let stored = List.map (fun cr -> Arena.lits a cr) (pos @ neg) in
          s.elim_stack <- (v, stored) :: s.elim_stack;
          s.elim.(v) <- true;
          s.n_eliminated <- s.n_eliminated + 1;
          List.iter (fun cr -> Arena.delete a cr) (pos @ neg);
          List.iter
            (fun lits ->
              match Array.length lits with
              | 0 -> s.ok <- false
              | 1 -> (
                  match lit_value s lits.(0) with
                  | -1 -> enqueue s lits.(0) no_reason
                  | 0 -> s.ok <- false
                  | _ -> ())
              | _ ->
                  let cr = Arena.alloc a ~learnt:false lits in
                  Ivec.push s.clauses cr;
                  register cr)
            (List.rev !resolvents)
        end
      end
    end
  done

let popcount x =
  let rec go x n = if x = 0 then n else go (x lsr 1) (n + (x land 1)) in
  go x 0

(* XOR recovery: a variable set {v₁..vₙ} whose 2^(n-1) clauses each
   forbid one odd-weight (or each one even-weight) assignment is
   exactly the constraint v₁⊕…⊕vₙ = c. Detect complete pattern
   buckets among the short original clauses, replace them by native
   rows, and re-reduce the whole unguarded system through
   {!Xor_simp.reduce}. Clause-level equivalence is exact, so guards
   appearing inside the clauses are handled for free (their variable
   just becomes part of the row's variable set — but such buckets are
   never complete, see the counting above). *)
let xor_recover_pass s =
  let a = s.arena in
  let tbl : (int list, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let keys = ref [] in
  Ivec.iter
    (fun cr ->
      if not (Arena.deleted a cr) then begin
        let n = Arena.size a cr in
        if n >= 2 && n <= 5 then begin
          let ls = Array.init n (fun i -> Arena.lit a cr i) in
          Array.sort (fun l m -> Int.compare (Lit.var l) (Lit.var m)) ls;
          let key = Array.to_list (Array.map Lit.var ls) in
          let pat = ref 0 in
          Array.iteri (fun i l -> if not (Lit.sign l) then pat := !pat lor (1 lsl i)) ls;
          let bucket =
            match Hashtbl.find_opt tbl key with
            | Some b -> b
            | None ->
                let b = Hashtbl.create 8 in
                Hashtbl.add tbl key b;
                keys := key :: !keys;
                b
          in
          if not (Hashtbl.mem bucket !pat) then Hashtbl.add bucket !pat cr
        end
      end)
    s.clauses;
  let recovered = ref 0 in
  List.iter
    (fun key ->
      let bucket = Hashtbl.find tbl key in
      let n = List.length key in
      let need = 1 lsl (n - 1) in
      for q = 0 to 1 do
        let pats =
          Hashtbl.fold
            (fun pat cr acc -> if popcount pat land 1 = q then (pat, cr) :: acc else acc)
            bucket []
        in
        if List.length pats = need then begin
          (* forbidding every parity-q assignment ⟺ ⊕key = 1 - q *)
          List.iter (fun (_, cr) -> Arena.delete a cr) pats;
          incr recovered;
          s.n_xors_recovered <- s.n_xors_recovered + 1;
          let xc =
            { xvars = Array.of_list key; xparity = (q = 0); xguard = None;
              xcovered = false }
          in
          Vec.push s.xors xc
          (* no watches yet: the whole XOR watch state is rebuilt below *)
        end
      done)
    (List.rev !keys);
  if !recovered > 0 && s.ok then begin
    (* fold root assignments into the unguarded rows and re-reduce the
       whole system; guarded rows stay as they are *)
    let guarded = ref [] and rows = ref [] in
    Vec.iter
      (fun xc ->
        if xc.xguard = None then begin
          let parity = ref xc.xparity in
          let vars =
            List.filter
              (fun v ->
                if s.assigns.(v) >= 0 then begin
                  if s.assigns.(v) = 1 then parity := not !parity;
                  false
                end
                else true)
              (Array.to_list xc.xvars)
          in
          match vars with
          | [] -> if !parity then s.ok <- false
          | _ -> rows := (vars, !parity) :: !rows
        end
        else guarded := xc :: !guarded)
      s.xors;
    if s.ok then begin
      match Xor_simp.reduce ~extract_aliases:false (List.rev !rows) with
      | `Unsat -> s.ok <- false
      | `Reduced r ->
          (* only the unguarded rows are replaced: the guarded ones
             keep their watches, which propagation left valid at the
             root. Re-attaching them through [resurrect_xor] would
             force a one-free-variable row whatever its guard says. *)
          Vec.clear s.xors;
          Array.iter
            (Vec.filter_in_place (fun xc -> xc.xguard <> None))
            s.xwatches;
          List.iter (Vec.push s.xors) (List.rev !guarded);
          List.iter
            (fun (v, b) ->
              let l = Lit.make v b in
              match lit_value s l with
              | -1 -> enqueue s l no_reason
              | 0 -> s.ok <- false
              | _ -> ())
            r.Xor_simp.units;
          List.iter
            (fun (vars, parity) ->
              let xc =
                { xvars = Array.of_list vars; xparity = parity; xguard = None;
                  xcovered = false }
              in
              Vec.push s.xors xc;
              if s.ok then resurrect_xor s xc)
            r.Xor_simp.rows;
          s.gauss_dirty <- true
    end
  end

let detach_clause s cr =
  let rm l =
    Ivec.filter_pairs_in_place
      (fun c _ -> c <> cr)
      s.watches.(Lit.to_index (Lit.negate l))
  in
  rm (Arena.lit s.arena cr 0);
  rm (Arena.lit s.arena cr 1)

(* Vivification of high-LBD learnts: assert the negations of a clause's
   literals one by one at throwaway decision levels; a propagated
   truth, a conflict, or an implied-false literal each prove a shorter
   (RUP) replacement. Runs with the clause watches ATTACHED — the
   candidate itself is detached first so its own unit propagation
   cannot fire on itself. *)
let vivify_pass s =
  let a = s.arena in
  let budget = ref 100 in
  let idx = ref 0 in
  let total = Ivec.size s.learnts in
  while !idx < total && !budget > 0 && s.ok do
    let cr = Ivec.get s.learnts !idx in
    incr idx;
    if (not (Arena.deleted a cr)) && Arena.size a cr >= 3 && Arena.lbd a cr >= 3
    then begin
      decr budget;
      detach_clause s cr;
      (* earlier vivifications may have grown the root trail: pre-clean
         this clause against the root facts first *)
      let sz0 = Arena.size a cr in
      let sat0 = ref false in
      let j = ref 0 in
      let old = Array.to_list (Arena.lits a cr) in
      for i = 0 to sz0 - 1 do
        let l = Arena.lit a cr i in
        match lit_value s l with
        | 1 -> sat0 := true
        | 0 -> ()
        | _ ->
            Arena.set_lit a cr !j l;
            incr j
      done;
      if !sat0 then begin
        (* restore literal block before deciding: delete needs the old
           lits only for the proof line, which uses [old] *)
        proof_delete s old;
        Arena.delete a cr;
        s.n_vivified <- s.n_vivified + 1
      end
      else begin
        Arena.shrink_clause a cr !j;
        if !j <> sz0 then begin
          proof_add s (Array.to_list (Arena.lits a cr));
          proof_delete s old
        end;
        let sz = Arena.size a cr in
        if sz <= 1 then begin
          (* collapsed to a unit (or empty) under root facts *)
          (if sz = 0 then begin
             s.ok <- false;
             proof_add s []
           end
           else begin
             let l = Arena.lit a cr 0 in
             Arena.delete a cr;
             match lit_value s l with
             | -1 ->
                 enqueue s l no_reason;
                 if propagate s <> None then begin
                   s.ok <- false;
                   proof_add s []
                 end
             | 0 ->
                 s.ok <- false;
                 proof_add s []
             | _ -> ()
           end);
          s.n_vivified <- s.n_vivified + 1
        end
        else begin
          let lits0 = Arena.lits a cr in
          let kept = ref [] in
          let final = ref None in
          (try
             Array.iter
               (fun l ->
                 match lit_value s l with
                 | 1 ->
                     (* implied by the negations asserted so far *)
                     final := Some (List.rev (l :: !kept));
                     raise Exit
                 | 0 ->
                     (* implied false: the literal is redundant *)
                     ()
                 | _ ->
                     Vec.push s.trail_lim (Vec.size s.trail);
                     enqueue s (Lit.negate l) no_reason;
                     (match propagate s with
                     | Some _ ->
                         final := Some (List.rev (l :: !kept));
                         raise Exit
                     | None -> kept := l :: !kept))
               lits0
           with Exit -> ());
          cancel_until s 0;
          let newlits =
            match !final with Some ls -> ls | None -> List.rev !kept
          in
          let nl = List.length newlits in
          if nl < sz then begin
            s.n_vivified <- s.n_vivified + 1;
            proof_add s newlits;
            proof_delete s (Array.to_list lits0);
            match newlits with
            | [] ->
                Arena.delete a cr;
                s.ok <- false
            | [ l ] -> (
                Arena.delete a cr;
                match lit_value s l with
                | -1 ->
                    enqueue s l no_reason;
                    if propagate s <> None then begin
                      s.ok <- false;
                      proof_add s []
                    end
                | 0 ->
                    s.ok <- false;
                    proof_add s []
                | _ -> ())
            | _ ->
                List.iteri (fun i l -> Arena.set_lit a cr i l) newlits;
                Arena.shrink_clause a cr nl;
                watch_clause s cr
          end
          else watch_clause s cr
        end
      end
    end
  done

(* The inprocessing driver. Clause watches are detached for the
   rewriting passes (cleanup / subsume / BVE / XOR recovery), then the
   surviving DB is re-attached, the Gauss engine rebuilt if rows
   changed, and vivification runs against live watches. Finishes with
   a relocating GC so the arena is compact for the search that
   follows. *)
let inprocess_now s =
  if s.ok && decision_level s = 0 && s.qhead = Vec.size s.trail then begin
    s.inprocess_rounds <- s.inprocess_rounds + 1;
    Array.iter Ivec.clear s.watches;
    Vec.iter
      (fun l ->
        let v = Lit.var l in
        s.reasons.(v) <- no_reason;
        s.ereasons.(v) <- empty_lits)
      s.trail;
    cleanup_pass s;
    if s.ok then begin
      subsume_pass s;
      cleanup_pass s
    end;
    (* structure extraction before elimination: recovered rows mark
       their variables as XOR-bound, which keeps BVE from resolving
       away the very clauses that encode parity structure *)
    if s.ok && s.proof = None && Ivec.size s.clauses > 0 then begin
      xor_recover_pass s;
      cleanup_pass s
    end;
    if s.ok && s.proof = None then begin
      bve_pass s;
      cleanup_pass s
    end;
    Ivec.filter_in_place (fun cr -> not (Arena.deleted s.arena cr)) s.clauses;
    Ivec.filter_in_place (fun cr -> not (Arena.deleted s.arena cr)) s.learnts;
    if s.ok then begin
      Ivec.iter (watch_clause s) s.clauses;
      Ivec.iter (watch_clause s) s.learnts;
      if s.gauss_dirty then begin
        rebuild_gauss s;
        if s.ok && propagate s <> None then s.ok <- false
      end;
      if s.ok then vivify_pass s;
      Ivec.filter_in_place (fun cr -> not (Arena.deleted s.arena cr)) s.learnts;
      collect s
    end;
    s.inprocess_next <-
      s.n_conflicts + (s.inprocess_interval * (s.inprocess_rounds + 1))
  end

let simplify s =
  if s.ok && decision_level s = 0 && s.qhead = Vec.size s.trail then
    inprocess_now s

(* ------------------------------------------------------------------ *)
(* Snapshot / clone                                                    *)

(* A frozen image of a root-level solver. The clause DB is the raw
   arena image plus flat watch/cref arrays, so cloning is dominated by
   [Array.blit]; xclauses are still flattened to indices by hand. The
   record is immutable after construction, so one snapshot can be
   cloned concurrently from many domains.

   Fidelity matters more than minimality here: the warm path must be
   byte-identical to a cold re-encode, so the clone reproduces watch
   lists, trail, phases, activities, heap layout, inprocessing
   schedule and stats counters in the exact state (and order) the
   source solver had. Reasons of root literals are deliberately
   dropped — no code path reads the reason of a level-0 variable. *)
type snapshot = {
  sn_nvars : int;
  sn_arena : int array * int * int;
  sn_clauses : int array;
  sn_watches : int array array; (* per lit: flat (cref, blocker) pairs *)
  sn_xors : (int array * bool * Lit.t option * bool) array;
      (* (xvars, parity, guard, covered) *)
  sn_xwatches : int array array; (* per var: xclause indices *)
  sn_assigns : int array;
  sn_levels : int array;
  sn_phase : bool array;
  sn_activity : float array;
  sn_frozen : bool array;
  sn_trail : Lit.t array;
  sn_order : Heap.t;
  sn_var_inc : float;
  sn_cla_inc : float;
  sn_ok : bool;
  sn_gauss_mode : bool option;
  sn_gauss_dirty : bool;
  sn_lbd_gen : int;
  sn_inprocess_on : bool;
  sn_inprocess_interval : int;
  sn_inprocess_next : int;
  sn_inprocess_rounds : int;
  sn_conflicts : int;
  sn_decisions : int;
  sn_propagations : int;
  sn_restarts : int;
  sn_subsumed : int;
  sn_strengthened : int;
  sn_eliminated : int;
  sn_vivified : int;
  sn_xors_recovered : int;
  sn_gauss_rows : int;
  sn_gauss_elims : int;
  sn_gauss_props : int;
  sn_gauss_conflicts : int;
  sn_clones : int Atomic.t;
      (* lifecycle counter: sessions stamped out of this snapshot.
         The only mutable field; atomic so concurrent clones from
         many domains count correctly. *)
}

let snapshot s =
  if decision_level s <> 0 then invalid_arg "Solver.snapshot: not at root level";
  if Ivec.size s.learnts <> 0 then
    invalid_arg "Solver.snapshot: learnt clauses present";
  if s.proof <> None then invalid_arg "Solver.snapshot: proof logging enabled";
  if s.gauss <> None then
    invalid_arg "Solver.snapshot: live Gauss engine (snapshot before solving)";
  if s.qhead <> Vec.size s.trail then
    invalid_arg "Solver.snapshot: propagation incomplete";
  if s.elim_stack <> [] then
    invalid_arg "Solver.snapshot: eliminated variables present (snapshot before solving)";
  let n = s.nvars in
  (* xclauses have no scratch field; resolve indices by physical
     equality (each lives in at most two watch lists) *)
  let nx = Vec.size s.xors in
  let xor_index xc =
    let rec go j =
      if j >= nx then invalid_arg "Solver.snapshot: dangling xwatch"
      else if Vec.get s.xors j == xc then j
      else go (j + 1)
    in
    go 0
  in
  let sn_xwatches =
    Array.init n (fun v ->
        Array.init (Vec.size s.xwatches.(v)) (fun j ->
            xor_index (Vec.get s.xwatches.(v) j)))
  in
  let sn_xors =
    Array.init nx (fun i ->
        let xc = Vec.get s.xors i in
        (Array.copy xc.xvars, xc.xparity, xc.xguard, xc.xcovered))
  in
  let sub a = Array.sub a 0 n in
  let sn_activity = sub s.activity in
  {
    sn_nvars = n;
    sn_arena = Arena.raw s.arena;
    sn_clauses = Ivec.to_array s.clauses;
    sn_watches = Array.init (2 * n) (fun li -> Ivec.to_array s.watches.(li));
    sn_xors;
    sn_xwatches;
    sn_assigns = sub s.assigns;
    sn_levels = sub s.levels;
    sn_phase = sub s.phase;
    sn_activity;
    sn_frozen = sub s.frozen;
    sn_trail = Array.init (Vec.size s.trail) (Vec.get s.trail);
    sn_order = Heap.copy s.order ~score:sn_activity;
    sn_var_inc = s.var_inc;
    sn_cla_inc = s.cla_inc;
    sn_ok = s.ok;
    sn_gauss_mode = s.gauss_mode;
    sn_gauss_dirty = s.gauss_dirty;
    sn_lbd_gen = s.lbd_gen;
    sn_inprocess_on = s.inprocess_on;
    sn_inprocess_interval = s.inprocess_interval;
    sn_inprocess_next = s.inprocess_next;
    sn_inprocess_rounds = s.inprocess_rounds;
    sn_conflicts = s.n_conflicts;
    sn_decisions = s.n_decisions;
    sn_propagations = s.n_propagations;
    sn_restarts = s.n_restarts;
    sn_subsumed = s.n_subsumed;
    sn_strengthened = s.n_strengthened;
    sn_eliminated = s.n_eliminated;
    sn_vivified = s.n_vivified;
    sn_xors_recovered = s.n_xors_recovered;
    sn_gauss_rows = s.n_gauss_rows;
    sn_gauss_elims = s.n_gauss_elims;
    sn_gauss_props = s.n_gauss_props;
    sn_gauss_conflicts = s.n_gauss_conflicts;
    sn_clones = Atomic.make 0;
  }

let clones snap = Atomic.get snap.sn_clones

let clone snap =
  Atomic.incr snap.sn_clones;
  let s = create () in
  s.gauss_mode <- snap.sn_gauss_mode;
  let n = snap.sn_nvars in
  grow_arrays s n;
  s.nvars <- n;
  let blit src dst = Array.blit src 0 dst 0 n in
  blit snap.sn_assigns s.assigns;
  blit snap.sn_levels s.levels;
  blit snap.sn_phase s.phase;
  blit snap.sn_activity s.activity;
  blit snap.sn_frozen s.frozen;
  s.arena <- Arena.of_raw snap.sn_arena;
  Array.iter (Ivec.push s.clauses) snap.sn_clauses;
  for li = 0 to (2 * n) - 1 do
    Array.iter (Ivec.push s.watches.(li)) snap.sn_watches.(li)
  done;
  let xors =
    Array.map
      (fun (xvars, xparity, xguard, xcovered) ->
        { xvars = Array.copy xvars; xparity; xguard; xcovered })
      snap.sn_xors
  in
  Array.iter (Vec.push s.xors) xors;
  for v = 0 to n - 1 do
    Array.iter (fun xi -> Vec.push s.xwatches.(v) xors.(xi)) snap.sn_xwatches.(v)
  done;
  Array.iter (Vec.push s.trail) snap.sn_trail;
  s.qhead <- Vec.size s.trail;
  s.order <- Heap.copy snap.sn_order ~score:s.activity;
  s.var_inc <- snap.sn_var_inc;
  s.cla_inc <- snap.sn_cla_inc;
  s.ok <- snap.sn_ok;
  s.gauss_dirty <- snap.sn_gauss_dirty;
  s.lbd_gen <- snap.sn_lbd_gen;
  s.inprocess_on <- snap.sn_inprocess_on;
  s.inprocess_interval <- snap.sn_inprocess_interval;
  s.inprocess_next <- snap.sn_inprocess_next;
  s.inprocess_rounds <- snap.sn_inprocess_rounds;
  s.n_conflicts <- snap.sn_conflicts;
  s.n_decisions <- snap.sn_decisions;
  s.n_propagations <- snap.sn_propagations;
  s.n_restarts <- snap.sn_restarts;
  s.n_subsumed <- snap.sn_subsumed;
  s.n_strengthened <- snap.sn_strengthened;
  s.n_eliminated <- snap.sn_eliminated;
  s.n_vivified <- snap.sn_vivified;
  s.n_xors_recovered <- snap.sn_xors_recovered;
  s.n_gauss_rows <- snap.sn_gauss_rows;
  s.n_gauss_elims <- snap.sn_gauss_elims;
  s.n_gauss_props <- snap.sn_gauss_props;
  s.n_gauss_conflicts <- snap.sn_gauss_conflicts;
  s

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

let luby y x =
  (* Finite subsequences of the Luby sequence: 1,1,2,1,1,2,4,… *)
  let rec go size seq x =
    if size - 1 = x then (seq, x)
    else if x >= size / 2 then go (size / 2) (seq - 1) (x - (size / 2))
    else go (size / 2) (seq - 1) x
  in
  let rec find size seq = if size >= x + 1 then (size, seq) else find ((2 * size) + 1) (seq + 1) in
  let size, seq = find 1 0 in
  let seq, _ = go size seq x in
  y ** float_of_int seq

let pick_branch_var s =
  let rec go () =
    if Heap.is_empty s.order then None
    else
      let v = Heap.remove_max s.order in
      if s.assigns.(v) < 0 && not s.elim.(v) then Some v else go ()
  in
  go ()

(* Extend a model of the post-BVE formula to the eliminated variables:
   most recent elimination first, a variable is true exactly when some
   stored clause with a positive occurrence has every other literal
   false (i.e. only v can satisfy it); false is safe otherwise. *)
let extend_model s =
  List.iter
    (fun (v, stored) ->
      let lit_true l =
        let b = s.model.(Lit.var l) in
        if Lit.sign l then b else not b
      in
      let forced =
        List.exists
          (fun lits ->
            Array.exists (fun l -> Lit.var l = v && Lit.sign l) lits
            && Array.for_all (fun l -> Lit.var l = v || not (lit_true l)) lits)
          stored
      in
      s.model.(v) <- forced)
    s.elim_stack

(* Final-conflict analysis (MiniSat's analyzeFinal): [p] is an
   assumption found false under the earlier assumption levels. Walk the
   trail above the first decision and collect the assumption decisions
   the implication of ¬p rests on; together with [p] they form a subset
   A' of the assumptions such that F ∧ A' is unsatisfiable. *)
let analyze_final s p =
  let v0 = Lit.var p in
  if s.levels.(v0) <= 0 then [ p ]
  else begin
    let core = ref [ p ] in
    s.seen.(v0) <- true;
    let bound = if Vec.size s.trail_lim = 0 then 0 else Vec.get s.trail_lim 0 in
    for i = Vec.size s.trail - 1 downto bound do
      let q = Vec.get s.trail i in
      let v = Lit.var q in
      if s.seen.(v) then begin
        let mark l =
          let w = Lit.var l in
          if w <> v && s.levels.(w) > 0 then s.seen.(w) <- true
        in
        let r = s.reasons.(v) in
        if r = no_reason then
          (* an assumption decision; [q] is that assumption literal *)
          core := q :: !core
        else if r >= 0 then
          for i = 0 to Arena.size s.arena r - 1 do
            mark (Arena.lit s.arena r i)
          done
        else Array.iter mark s.ereasons.(v);
        s.seen.(v) <- false
      end
    done;
    !core
  end

let search s ~assumptions ~max_conflicts =
  let conflicts = ref 0 in
  let result = ref None in
  while !result = None do
    match propagate s with
    | Some _ when Atomic.get s.stop ->
        (* conflict boundary: the cheapest point that is still hit
           regularly on hard instances *)
        cancel_until s 0;
        result := Some Unknown
    | Some confl ->
        s.n_conflicts <- s.n_conflicts + 1;
        incr conflicts;
        if decision_level s = 0 then begin
          s.ok <- false;
          proof_add s [];
          result := Some Unsat
        end
        else begin
          let learnt, blevel = analyze s confl in
          cancel_until s blevel;
          record_learnt s learnt;
          if not s.ok then result := Some Unsat;
          decay_var_activity s;
          decay_clause_activity s
        end
    | None ->
        if !conflicts >= max_conflicts then begin
          cancel_until s 0;
          result := Some Unknown
        end
        else begin
          if
            Ivec.size s.learnts - Vec.size s.trail
            > 4000 + (300 * (s.n_restarts - s.restarts_base))
          then reduce_db s;
          let dl = decision_level s in
          if dl < Array.length assumptions then begin
            (* next assumption: decided before any free variable and
               never learned over *)
            let p = assumptions.(dl) in
            match lit_value s p with
            | 1 ->
                (* already implied: open a dummy level so the indices
                   of trail_lim keep tracking assumption ranks *)
                Vec.push s.trail_lim (Vec.size s.trail)
            | 0 ->
                s.last_core <- Some (analyze_final s p);
                cancel_until s 0;
                result := Some Unsat
            | _ ->
                s.n_decisions <- s.n_decisions + 1;
                Vec.push s.trail_lim (Vec.size s.trail);
                enqueue s p no_reason
          end
          else
            match pick_branch_var s with
            | None ->
                (* complete assignment: a model *)
                s.model <- Array.init s.nvars (fun v -> s.assigns.(v) = 1);
                extend_model s;
                s.model_valid <- true;
                result := Some Sat
            | Some v ->
                s.n_decisions <- s.n_decisions + 1;
                Vec.push s.trail_lim (Vec.size s.trail);
                enqueue s (Lit.make v s.phase.(v)) no_reason
        end
  done;
  match !result with Some r -> r | None -> assert false

let solve ?(conflict_budget = max_int) ?(assumptions = []) s =
  s.model_valid <- false;
  s.last_core <- None;
  s.restarts_base <- s.n_restarts;
  List.iter (fun l -> ensure_vars s (Lit.var l + 1)) assumptions;
  cancel_until s 0;
  (* assumption variables must survive inprocessing untouched: restore
     them if already eliminated, and pin them for future passes *)
  List.iter
    (fun l ->
      let v = Lit.var l in
      restore_var s v;
      s.frozen.(v) <- true)
    assumptions;
  let assumptions = Array.of_list assumptions in
  let r =
    if not s.ok then begin
      (* the root contradiction was found by unit propagation over the
         input, so the empty clause is RUP outright *)
      proof_add s [];
      Unsat
    end
    else begin
      if s.gauss_dirty then rebuild_gauss s;
      if not s.ok then begin
        proof_add s [];
        Unsat
      end
      else if propagate s <> None then begin
        s.ok <- false;
        proof_add s [];
        Unsat
      end
      else begin
        let budget_left = ref conflict_budget in
        let rec loop i =
          if !budget_left <= 0 || Atomic.get s.stop then Unknown
          else begin
            let max_conflicts =
              min !budget_left (int_of_float (luby 2.0 i *. 100.0))
            in
            match search s ~assumptions ~max_conflicts with
            | Unknown ->
                budget_left := !budget_left - max_conflicts;
                s.n_restarts <- s.n_restarts + 1;
                if
                  s.inprocess_on
                  && s.n_conflicts >= s.inprocess_next
                  && !budget_left > 0
                  && not (Atomic.get s.stop)
                then begin
                  inprocess_now s;
                  if not s.ok then begin
                    proof_add s [];
                    Unsat
                  end
                  else loop (i + 1)
                end
                else loop (i + 1)
            | r -> r
          end
        in
        loop 0
      end
    end
  in
  (* leave the solver at the root so the next query (or constraint)
     starts clean; the model was already captured *)
  cancel_until s 0;
  (if r = Unsat && s.last_core = None then
     (* unsatisfiable independently of the assumptions *)
     s.last_core <- Some []);
  r

let interrupt s = Atomic.set s.stop true
let interrupted s = Atomic.get s.stop
let clear_interrupt s = Atomic.set s.stop false
let share_stop s flag = s.stop <- flag

let unsat_core s =
  match s.last_core with
  | Some core -> core
  | None -> failwith "Solver.unsat_core: last solve did not return Unsat"

let value s v =
  if not s.model_valid then failwith "Solver.value: no model available";
  if v < 0 || v >= s.nvars then invalid_arg "Solver.value";
  s.model.(v)

let model s =
  if not s.model_valid then failwith "Solver.model: no model available";
  Array.copy s.model

let ok s = s.ok

let stats s =
  {
    conflicts = s.n_conflicts;
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    learnt = Ivec.size s.learnts;
    restarts = s.n_restarts;
    gauss_rows = s.n_gauss_rows;
    gauss_elims = s.n_gauss_elims;
    gauss_props = s.n_gauss_props;
    gauss_conflicts = s.n_gauss_conflicts;
    subsumed = s.n_subsumed;
    strengthened = s.n_strengthened;
    eliminated = s.n_eliminated;
    vivified = s.n_vivified;
    xors_recovered = s.n_xors_recovered;
  }

let zero_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learnt = 0;
    restarts = 0;
    gauss_rows = 0;
    gauss_elims = 0;
    gauss_props = 0;
    gauss_conflicts = 0;
    subsumed = 0;
    strengthened = 0;
    eliminated = 0;
    vivified = 0;
    xors_recovered = 0;
  }

(* Counters combine with [op]; the gauges [learnt], [gauss_rows] and
   [gauss_elims] describe the solver's state, so they come from [b]. *)
let combine_stats op a b =
  {
    conflicts = op b.conflicts a.conflicts;
    decisions = op b.decisions a.decisions;
    propagations = op b.propagations a.propagations;
    learnt = b.learnt;
    restarts = op b.restarts a.restarts;
    gauss_rows = b.gauss_rows;
    gauss_elims = b.gauss_elims;
    gauss_props = op b.gauss_props a.gauss_props;
    gauss_conflicts = op b.gauss_conflicts a.gauss_conflicts;
    subsumed = op b.subsumed a.subsumed;
    strengthened = op b.strengthened a.strengthened;
    eliminated = op b.eliminated a.eliminated;
    vivified = op b.vivified a.vivified;
    xors_recovered = op b.xors_recovered a.xors_recovered;
  }

let stats_diff ~before ~after = combine_stats ( - ) before after
let stats_add a b = combine_stats ( + ) a b
