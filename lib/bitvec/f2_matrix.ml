type t = { nrows : int; ncols : int; data : Bitvec.t array (* one per row *) }

let make ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "F2_matrix.make";
  { nrows = rows; ncols = cols; data = Array.init rows (fun _ -> Bitvec.create cols) }

let rows m = m.nrows
let cols m = m.ncols

let check m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "F2_matrix: index out of range"

let get m i j =
  check m i j;
  Bitvec.get m.data.(i) j

let set m i j b =
  check m i j;
  Bitvec.set m.data.(i) j b

let row m i =
  if i < 0 || i >= m.nrows then invalid_arg "F2_matrix.row";
  Bitvec.copy m.data.(i)

let of_rows rs =
  if Array.length rs = 0 then invalid_arg "F2_matrix.of_rows: empty";
  let w = Bitvec.width rs.(0) in
  Array.iter
    (fun r -> if Bitvec.width r <> w then invalid_arg "F2_matrix.of_rows: ragged")
    rs;
  { nrows = Array.length rs; ncols = w; data = Array.map Bitvec.copy rs }

let of_columns ~rows:nr cs =
  if Array.length cs = 0 then invalid_arg "F2_matrix.of_columns: empty";
  let m = make ~rows:nr ~cols:(Array.length cs) in
  Array.iteri
    (fun j c ->
      if Bitvec.width c <> nr then invalid_arg "F2_matrix.of_columns: bad width";
      Bitvec.iter_set (fun i -> set m i j true) c)
    cs;
  m

let column m j =
  if j < 0 || j >= m.ncols then invalid_arg "F2_matrix.column";
  let c = Bitvec.create m.nrows in
  for i = 0 to m.nrows - 1 do
    if Bitvec.get m.data.(i) j then Bitvec.set c i true
  done;
  c

let transpose_naive m =
  let t = make ~rows:m.ncols ~cols:m.nrows in
  for i = 0 to m.nrows - 1 do
    Bitvec.iter_set (fun j -> set t j i true) m.data.(i)
  done;
  t

(* ---- Word-level kernel helpers -------------------------------------- *)

let bpw = Bitvec.bits_per_word

(* [get_window row ~pos ~len] reads [len <= 62] consecutive bits
   starting at bit [pos] as an int (bit [i] of the result is bit
   [pos + i] of the row; bits past the row width read as 0). Touches at
   most two payload words. *)
let get_window row ~pos ~len =
  let len = min len (Bitvec.width row - pos) in
  if len <= 0 then 0
  else begin
    let w = pos / bpw and o = pos mod bpw in
    let lo = Bitvec.get_word row w lsr o in
    let x =
      if o + len <= bpw then lo
      else lo lor (Bitvec.get_word row (w + 1) lsl (bpw - o))
    in
    x land ((1 lsl len) - 1)
  end

(* OR a window of at most 32 bits into [row] at bit [pos]. The caller
   guarantees every set bit of [x] lands inside the row width. *)
let or_window row ~pos x =
  let w = pos / bpw and o = pos mod bpw in
  Bitvec.set_word row w (Bitvec.get_word row w lor (x lsl o));
  if o > 0 then begin
    let hi = x lsr (bpw - o) in
    if hi <> 0 then Bitvec.set_word row (w + 1) (Bitvec.get_word row (w + 1) lor hi)
  end

(* Hacker's Delight in-place 32×32 bit transpose. With our LSB-first
   column convention the recursion transposes about the anti-diagonal,
   so callers feed rows in reverse order and read columns in reverse
   order, which nets out to the main-diagonal transpose. *)
let transpose32 a =
  let j = ref 16 and m = ref 0xFFFF in
  while !j <> 0 do
    let k = ref 0 in
    while !k < 32 do
      let t = (a.(!k) lxor (a.(!k + !j) lsr !j)) land !m in
      a.(!k) <- a.(!k) lxor t;
      a.(!k + !j) <- a.(!k + !j) lxor (t lsl !j);
      k := (!k + !j + 1) land lnot !j
    done;
    j := !j lsr 1;
    m := !m lxor (!m lsl !j)
  done

(* Blocked transpose over 32×32 tiles: gather 32-bit windows of 32
   source rows, transpose the tile in registers, scatter the resulting
   columns. One pass per tile instead of one [set] per set bit. *)
let transpose m =
  let t = make ~rows:m.ncols ~cols:m.nrows in
  let tile = Array.make 32 0 in
  let bi = ref 0 in
  while !bi < m.nrows do
    let rows_here = min 32 (m.nrows - !bi) in
    let bj = ref 0 in
    while !bj < m.ncols do
      let cols_here = min 32 (m.ncols - !bj) in
      for i = 0 to 31 do
        tile.(31 - i) <-
          if i < rows_here then
            get_window m.data.(!bi + i) ~pos:!bj ~len:cols_here
          else 0
      done;
      transpose32 tile;
      for j = 0 to cols_here - 1 do
        let x = tile.(31 - j) in
        if x <> 0 then or_window t.data.(!bj + j) ~pos:!bi x
      done;
      bj := !bj + 32
    done;
    bi := !bi + 32
  done;
  t

let mul_vec m x =
  if Bitvec.width x <> m.ncols then invalid_arg "F2_matrix.mul_vec: width";
  let r = Bitvec.create m.nrows in
  for i = 0 to m.nrows - 1 do
    (* row · x = parity of popcount of the AND *)
    if Bitvec.parity_and m.data.(i) x = 1 then Bitvec.set r i true
  done;
  r

(* ---- Incremental row operations ------------------------------------ *)

let swap_rows m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.nrows then
    invalid_arg "F2_matrix.swap_rows";
  if i <> j then begin
    let tmp = m.data.(i) in
    m.data.(i) <- m.data.(j);
    m.data.(j) <- tmp
  end

let xor_rows m ~src ~dst =
  if src < 0 || src >= m.nrows || dst < 0 || dst >= m.nrows then
    invalid_arg "F2_matrix.xor_rows";
  if src = dst then invalid_arg "F2_matrix.xor_rows: src = dst";
  Bitvec.xor_in_place m.data.(dst) m.data.(src)

(* Gauss–Jordan on a raw row array (destructive), returning the list of
   (pivot_row, pivot_col) in elimination order. Only the first [cols]
   columns are eligible as pivots, so an augmented system [A | b] can be
   reduced by passing rows of width [cols + extra]. After the call every
   pivot column has a single 1 (full reduction, not just echelon). *)
let rref_rows_naive rows_arr ~cols:ncols =
  let nrows = Array.length rows_arr in
  let pivots = ref [] in
  let r = ref 0 in
  (try
     for c = 0 to ncols - 1 do
       if !r >= nrows then raise Exit;
       (* find a pivot in column c at row >= !r *)
       let p = ref (-1) in
       (try
          for i = !r to nrows - 1 do
            if Bitvec.get rows_arr.(i) c then begin
              p := i;
              raise Exit
            end
          done
        with Exit -> ());
       if !p >= 0 then begin
         let tmp = rows_arr.(!r) in
         rows_arr.(!r) <- rows_arr.(!p);
         rows_arr.(!p) <- tmp;
         for i = 0 to nrows - 1 do
           if i <> !r && Bitvec.get rows_arr.(i) c then
             Bitvec.xor_in_place rows_arr.(i) rows_arr.(!r)
         done;
         pivots := (!r, c) :: !pivots;
         incr r
       end
     done
   with Exit -> ());
  List.rev !pivots

(* Method-of-Four-Russians RREF, byte-identical to [rref_rows_naive].

   Columns are processed in blocks of κ = clamp(lg nrows, 2, 8). Per
   block:

   A. Pivot selection runs the Jordan recurrence on κ-bit *windows*
      only (full rows are swapped but never XORed), choosing exactly
      the pivots the naive sweep would: a window bit equals the
      evolving full-row bit at that column by induction.
   B. The s pivot rows are materialized to their final reduced state
      by replaying the naive steps restricted to the pivot subsystem —
      closed under the recurrence because an elimination source is
      always a pivot row.
   C. A Gray-code table of all 2^s pivot-row combinations is built in
      flat preallocated scratch, one row-XOR per entry.
   D. Every other row R is finished in one table lookup: its final
      state is R_start ⊕ Σ_t R_start[c_t]·P_t^final, where R_start is
      the row at block start and P_t^final the final pivot rows. (The
      naive sweep produces final = R_start ⊕ V with V in the pivot
      span; matching the pivot-column bits — P_t^final is the identity
      on them — pins V's coefficients to R_start[c_t].)

   Identity with the naive sweep holds per block, hence globally, for
   any κ. All rows must share one width (≥ cols; extra columns ride
   along unreduced, as in the naive version). *)
let rref_rows_m4ri rows_arr ~cols:ncols =
  let nrows = Array.length rows_arr in
  if nrows = 0 then []
  else begin
    let nwords = Bitvec.word_count rows_arr.(0) in
    let kappa =
      let rec lg n acc = if n <= 1 then acc else lg (n lsr 1) (acc + 1) in
      max 2 (min 8 (lg nrows 0))
    in
    let win = Array.make nrows 0 in
    let table = Array.make ((1 lsl kappa) * nwords) 0 in
    let pcols = Array.make kappa 0 in
    let pivots = ref [] in
    let r = ref 0 in
    let c0 = ref 0 in
    while !c0 < ncols && !r < nrows do
      let len = min kappa (ncols - !c0) in
      let r0 = !r in
      (* Window reads hoist the word/offset split out of the per-row
         loops: one div/mod per block, not per row. The second word
         exists whenever it is read — bit [c0 + len - 1 < ncols <=
         width] lives in it. *)
      let wblk = !c0 / bpw and oblk = !c0 mod bpw in
      let lenmask = (1 lsl len) - 1 in
      let spill = oblk + len > bpw in
      let read_win row =
        let words = Bitvec.unsafe_words row in
        let lo = Array.unsafe_get words wblk lsr oblk in
        (if spill then
           lo lor (Array.unsafe_get words (wblk + 1) lsl (bpw - oblk))
         else lo)
        land lenmask
      in
      (* Phase A: select pivots on the window view. Windows are only
         consulted at and below the cursor, so rows above [r0] are
         skipped. *)
      for i = r0 to nrows - 1 do
        win.(i) <- read_win rows_arr.(i)
      done;
      let s = ref 0 in
      for j = 0 to len - 1 do
        if !r < nrows then begin
          let p = ref (-1) in
          (try
             for i = !r to nrows - 1 do
               if (win.(i) lsr j) land 1 = 1 then begin
                 p := i;
                 raise Exit
               end
             done
           with Exit -> ());
          if !p >= 0 then begin
            if !p <> !r then begin
              let tmp = rows_arr.(!r) in
              rows_arr.(!r) <- rows_arr.(!p);
              rows_arr.(!p) <- tmp;
              let tw = win.(!r) in
              win.(!r) <- win.(!p);
              win.(!p) <- tw
            end;
            let wr = win.(!r) in
            for i = r0 to nrows - 1 do
              if i <> !r && (win.(i) lsr j) land 1 = 1 then
                win.(i) <- win.(i) lxor wr
            done;
            pcols.(!s) <- j;
            pivots := (!r, !c0 + j) :: !pivots;
            incr s;
            incr r
          end
        end
      done;
      let s = !s in
      if s > 0 then begin
        (* Phase B: reduce the pivot rows against each other. *)
        for t = 0 to s - 1 do
          let c = !c0 + pcols.(t) in
          for u = 0 to s - 1 do
            if u <> t && Bitvec.get rows_arr.(r0 + u) c then
              Bitvec.xor_in_place rows_arr.(r0 + u) rows_arr.(r0 + t)
          done
        done;
        (* Phase C: Gray-code table of the 2^s pivot combinations.
           Raw-word loops: table rows are XORs of already-masked rows,
           so the width invariant is preserved without re-masking. *)
        for w = 0 to nwords - 1 do
          table.(w) <- 0
        done;
        let prev = ref 0 in
        for i = 1 to (1 lsl s) - 1 do
          let g = i lxor (i lsr 1) in
          let t = ref 0 in
          while (i lsr !t) land 1 = 0 do
            incr t
          done;
          let src = Bitvec.unsafe_words rows_arr.(r0 + !t) in
          let pbase = !prev * nwords and gbase = g * nwords in
          for w = 0 to nwords - 1 do
            Array.unsafe_set table (gbase + w)
              (Array.unsafe_get table (pbase + w)
              lxor Array.unsafe_get src w)
          done;
          prev := g
        done;
        (* Phase D: finish every non-pivot row with one table XOR,
           indexed by its start-of-block window (full rows outside the
           pivot band are untouched since block start, so re-extracting
           gives R_start). When the block's pivots landed on its first
           s columns — the usual dense case — the table index is the
           window's low bits and the compression loop is skipped. *)
        let dense = ref true in
        for t = 0 to s - 1 do
          if pcols.(t) <> t then dense := false
        done;
        let dense = !dense and smask = (1 lsl s) - 1 in
        for i = 0 to nrows - 1 do
          if i < r0 || i >= r0 + s then begin
            let w = read_win rows_arr.(i) in
            if w <> 0 then begin
              let idx =
                if dense then w land smask
                else begin
                  let idx = ref 0 in
                  for t = 0 to s - 1 do
                    idx := !idx lor (((w lsr pcols.(t)) land 1) lsl t)
                  done;
                  !idx
                end
              in
              if idx <> 0 then begin
                let base = idx * nwords in
                let row = Bitvec.unsafe_words rows_arr.(i) in
                for wd = 0 to nwords - 1 do
                  Array.unsafe_set row wd
                    (Array.unsafe_get row wd
                    lxor Array.unsafe_get table (base + wd))
                done
              end
            end
          end
        done
      end;
      c0 := !c0 + len
    done;
    List.rev !pivots
  end

(* ---- Kernel dispatch ------------------------------------------------- *)

(* Below this the Gray-table setup costs more than it saves. *)
let m4ri_threshold = 24

let rref_rows rows_arr ~cols =
  if Array.length rows_arr >= m4ri_threshold && cols >= m4ri_threshold then
    rref_rows_m4ri rows_arr ~cols
  else rref_rows_naive rows_arr ~cols

let eliminate rows_arr ncols = rref_rows rows_arr ~cols:ncols

let rref m = rref_rows m.data ~cols:m.ncols

let rank m =
  let rs = Array.map Bitvec.copy m.data in
  List.length (eliminate rs m.ncols)

(* Reduce the augmented system [A | b]; shared by solve / nullspace. *)
let reduced_augmented m b =
  if Bitvec.width b <> m.nrows then invalid_arg "F2_matrix: rhs width";
  let aug =
    Array.init m.nrows (fun i ->
        Bitvec.append m.data.(i) (Bitvec.of_indices ~width:1 (if Bitvec.get b i then [ 0 ] else [])))
  in
  let pivots = eliminate aug m.ncols in
  (aug, pivots)

let solve m b =
  let aug, pivots = reduced_augmented m b in
  (* Inconsistent iff some reduced row is 0 … 0 | 1. *)
  let inconsistent =
    Array.exists
      (fun r ->
        Bitvec.get r m.ncols
        && Bitvec.popcount (Bitvec.extract r ~pos:0 ~len:m.ncols) = 0)
      aug
  in
  if inconsistent then None
  else begin
    let x = Bitvec.create m.ncols in
    List.iter
      (fun (r, c) -> if Bitvec.get aug.(r) m.ncols then Bitvec.set x c true)
      pivots;
    Some x
  end

let nullspace m =
  let rs = Array.map Bitvec.copy m.data in
  let pivots = eliminate rs m.ncols in
  let pivot_cols = List.map snd pivots in
  let is_pivot c = List.mem c pivot_cols in
  let free_cols =
    List.filter (fun c -> not (is_pivot c)) (List.init m.ncols Fun.id)
  in
  let basis_for f =
    let v = Bitvec.create m.ncols in
    Bitvec.set v f true;
    List.iter
      (fun (r, c) -> if Bitvec.get rs.(r) f then Bitvec.set v c true)
      pivots;
    v
  in
  List.map basis_for free_cols

let solve_all ?max_solutions m b =
  match solve m b with
  | None -> []
  | Some x0 ->
      let basis = Array.of_list (nullspace m) in
      let dim = Array.length basis in
      let cap = match max_solutions with Some c -> c | None -> max_int in
      if dim >= 62 then invalid_arg "F2_matrix.solve_all: nullspace too large";
      let out = ref [] and count = ref 0 in
      (try
         for mask = 0 to (1 lsl dim) - 1 do
           if !count >= cap then raise Exit;
           let x = Bitvec.copy x0 in
           for j = 0 to dim - 1 do
             if (mask lsr j) land 1 = 1 then Bitvec.xor_in_place x basis.(j)
           done;
           out := x :: !out;
           incr count
         done
       with Exit -> ());
      List.rev !out

let solve_all_with_weight ?max_solutions m b ~weight =
  match solve m b with
  | None -> []
  | Some x0 ->
      let basis = Array.of_list (nullspace m) in
      let dim = Array.length basis in
      let cap = match max_solutions with Some c -> c | None -> max_int in
      if dim >= 62 then
        invalid_arg "F2_matrix.solve_all_with_weight: nullspace too large";
      let out = ref [] and count = ref 0 in
      (try
         for mask = 0 to (1 lsl dim) - 1 do
           if !count >= cap then raise Exit;
           let x = Bitvec.copy x0 in
           for j = 0 to dim - 1 do
             if (mask lsr j) land 1 = 1 then Bitvec.xor_in_place x basis.(j)
           done;
           if Bitvec.popcount x = weight then begin
             out := x :: !out;
             incr count
           end
         done
       with Exit -> ());
      List.rev !out

let independent = function
  | [] -> true
  | vs -> rank (of_rows (Array.of_list vs)) = List.length vs

let pp ppf m =
  for i = 0 to m.nrows - 1 do
    Format.fprintf ppf "%a@." Bitvec.pp m.data.(i)
  done

let equal a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  && Array.for_all2 Bitvec.equal a.data b.data

(* ---- Binary (de)serialization --------------------------------------- *)

let to_buffer buf m =
  Buffer.add_int64_le buf (Int64.of_int m.nrows);
  Buffer.add_int64_le buf (Int64.of_int m.ncols);
  Array.iter (fun r -> Bitvec.to_buffer buf r) m.data

let read_fail msg = failwith ("F2_matrix.read: " ^ msg)

let read bytes ~pos =
  let len = Bytes.length bytes in
  if pos < 0 || pos + 16 > len then read_fail "truncated header";
  let r64 = Bytes.get_int64_le bytes pos in
  let c64 = Bytes.get_int64_le bytes (pos + 8) in
  let dim_max = Int64.of_int (1 lsl 30) in
  if Int64.compare r64 1L < 0 || Int64.compare r64 dim_max > 0 then
    read_fail "row count out of range";
  if Int64.compare c64 1L < 0 || Int64.compare c64 dim_max > 0 then
    read_fail "column count out of range";
  let nrows = Int64.to_int r64 and ncols = Int64.to_int c64 in
  let cursor = ref (pos + 16) in
  let data =
    Array.init nrows (fun _ ->
        let r, next = Bitvec.read bytes ~pos:!cursor in
        if Bitvec.width r <> ncols then read_fail "row width mismatch";
        cursor := next;
        r)
  in
  ({ nrows; ncols; data }, !cursor)
