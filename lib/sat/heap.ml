type t = {
  mutable heap : int array; (* heap.(i) = element at heap position i *)
  mutable pos : int array; (* pos.(x) = heap position of x, or -1 *)
  mutable len : int;
  mutable score : float array;
      (* read directly, not through a closure: a [float array] load
         compares unboxed, a closure result is boxed on every call *)
}

let create n ~score =
  { heap = Array.make (max n 1) (-1); pos = Array.make (max n 1) (-1); len = 0; score }

let set_score h score = h.score <- score

let grow h n =
  let old = Array.length h.pos in
  if n > old then begin
    let heap = Array.make n (-1) and pos = Array.make n (-1) in
    Array.blit h.heap 0 heap 0 h.len;
    Array.blit h.pos 0 pos 0 old;
    h.heap <- heap;
    h.pos <- pos
  end

let is_empty h = h.len = 0
let size h = h.len
let mem h x = x < Array.length h.pos && h.pos.(x) >= 0

let swap h i j =
  let xi = h.heap.(i) and xj = h.heap.(j) in
  h.heap.(i) <- xj;
  h.heap.(j) <- xi;
  h.pos.(xj) <- i;
  h.pos.(xi) <- j

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.score.(h.heap.(i)) > h.score.(h.heap.(parent)) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < h.len && h.score.(h.heap.(l)) > h.score.(h.heap.(!best)) then best := l;
  if r < h.len && h.score.(h.heap.(r)) > h.score.(h.heap.(!best)) then best := r;
  if !best <> i then begin
    swap h i !best;
    sift_down h !best
  end

let insert h x =
  if x >= Array.length h.pos then grow h (x + 1);
  if h.pos.(x) < 0 then begin
    h.heap.(h.len) <- x;
    h.pos.(x) <- h.len;
    h.len <- h.len + 1;
    sift_up h (h.len - 1)
  end

let update h x =
  if mem h x then begin
    sift_up h h.pos.(x);
    sift_down h h.pos.(x)
  end

let remove_max h =
  if h.len = 0 then raise Not_found;
  let x = h.heap.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.heap.(0) <- h.heap.(h.len);
    h.pos.(h.heap.(0)) <- 0
  end;
  h.pos.(x) <- -1;
  h.heap.(h.len) <- -1;
  if h.len > 0 then sift_down h 0;
  x

let copy h ~score =
  { heap = Array.copy h.heap; pos = Array.copy h.pos; len = h.len; score }

let rebuild h xs =
  for i = 0 to h.len - 1 do
    h.pos.(h.heap.(i)) <- -1;
    h.heap.(i) <- -1
  done;
  h.len <- 0;
  List.iter (insert h) xs
