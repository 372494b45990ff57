(* Test oracle: the polymorphic binary heap the repo used before
   [Cisp_graph.Iheap] replaced it everywhere (same sift code).  The
   tie-order property in test_graph.ml and the packet-sim replay in
   test_sim_replay.ml compare against it: [Iheap] must pop tied keys in
   exactly this order. *)

type 'a t = { mutable keys : float array; mutable vals : 'a option array; mutable size : int }

let create () = { keys = Array.make 64 0.0; vals = Array.make 64 None; size = 0 }
let length h = h.size

let grow h =
  let cap = Array.length h.keys in
  let keys = Array.make (cap * 2) 0.0 in
  let vals = Array.make (cap * 2) None in
  Array.blit h.keys 0 keys 0 cap;
  Array.blit h.vals 0 vals 0 cap;
  h.keys <- keys;
  h.vals <- vals

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.keys.(i) < h.keys.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.size && h.keys.(l) < h.keys.(i) then l else i in
  let smallest = if r < h.size && h.keys.(r) < h.keys.(smallest) then r else smallest in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let push h key v =
  if h.size = Array.length h.keys then grow h;
  h.keys.(h.size) <- key;
  h.vals.(h.size) <- Some v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let key = h.keys.(0) and v = h.vals.(0) in
    h.size <- h.size - 1;
    h.keys.(0) <- h.keys.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    h.vals.(h.size) <- None;
    if h.size > 0 then sift_down h 0;
    Option.map (fun v -> (key, v)) v
  end

let peek h =
  if h.size = 0 then None else Option.map (fun v -> (h.keys.(0), v)) h.vals.(0)
