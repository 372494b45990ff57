module Coord = Cisp_geo.Coord

(* ~0.0036 degrees: about 400 m in latitude. *)
let quantum = 276.0

let[@inline] quantize v = Float.round (v *. quantum)

(* The cell's representative point.  The cached value must be a pure
   function of the cell — never of whichever query happened to touch
   the cell first — or parallel sweeps would make LOS verdicts depend
   on domain scheduling. *)
let snap p =
  Coord.make
    ~lat:(quantize (Coord.lat p) /. quantum)
    ~lon:(quantize (Coord.lon p) /. quantum)

(* The center of cell (qi, qj), with the latitude clamped to the pole. *)
let[@inline] cell_center qi qj =
  Coord.make
    ~lat:(Float.min 90.0 (Float.max (-90.0) (float_of_int qi /. quantum)))
    ~lon:(float_of_int qj /. quantum)

(* Cell keys pack the two quantized indices into one immediate int:
   |lat| <= 90 and |lon| <= 180 times [quantum] fit well inside the
   19/20-bit fields, and every key is non-negative. *)
let pack qi qj = ((qi + 0x40000) lsl 20) lor (qj + 0x80000)

(* A sentinel no real cell key can take. *)
let no_cell = -1

(* A full-scenario LOS sweep touches millions of surface cells: 2^20
   slots (16 MB per domain) keep a tile-ordered sweep's working set
   resident. *)
let bits = 20
let mask = (1 lsl bits) - 1

(* Hit and miss counts of one cache on one domain, in a slot of the
   cache's own: two words that outlive the cache per domain, where a
   memo would be 16 MB.  Only that domain writes them; [stats] reads
   them cross-domain as monotone approximations. *)
type counts = { mutable hits : int; mutable misses : int }

type t = {
  dem : Dem.t;
  id : int;
  counts : counts Cisp_util.Scratch.t;
  reg_lock : Mutex.t;
  all_counts : counts list ref; (* under [reg_lock]; for [stats] *)
}

(* One domain's memo: a direct-mapped cache of [1 lsl bits] slots held
   in two unboxed arrays.  Fixed-size by design — probing, filling and
   evicting are single array accesses, there is no growth or rehash,
   and the hit path allocates nothing.  Each memo is reached only
   through its domain's [Cisp_util.Scratch] slot, so lookups take no
   lock and dirty no shared cache line.

   A domain has one memo for the whole process, whichever caches it
   serves: it belongs to the cache that last looked up through it
   ([owner], a cache id) and counts into that cache's [counts] for
   this domain.  A claim by another cache empties its keys, so a
   cached height is always the current owner's.  A memo per cache
   would be reachable from its domain's local storage for as long as
   the domain lives, long after the cache itself is dropped. *)
type memo = {
  keys : int array; (* [no_cell] marks an empty slot *)
  vals : Float.Array.t;
  mutable owner : int;
  mutable counts : counts;
}

let next_id = Atomic.make 0

let memo =
  Cisp_util.Scratch.create (fun () ->
      {
        keys = Array.make (1 lsl bits) no_cell;
        vals = Float.Array.create (1 lsl bits);
        owner = -1;
        counts = { hits = 0; misses = 0 };
      })

(* Fibonacci-style multiplicative mix, keeping the product's high bits
   (the well-mixed ones) so nearby cell keys spread over the slot
   space. *)
let[@inline] mix key = (key * 0x2545F4914F6CDD1D) land max_int

let[@inline] slot_of key = (mix key lsr 42) land mask

let create dem =
  let reg_lock = Mutex.create () in
  let all_counts = ref [] in
  let counts =
    Cisp_util.Scratch.create (fun () ->
        let c = { hits = 0; misses = 0 } in
        Mutex.protect reg_lock (fun () -> all_counts := c :: !all_counts);
        c)
  in
  { dem; id = Atomic.fetch_and_add next_id 1; counts; reg_lock; all_counts }

(* This domain's memo, claimed for [t] — emptied if another cache
   owned it.  Runs once per batch, not per sample. *)
let[@cisp.alloc_ok "claim path: once per change of owner on a domain"] claim t (m : memo) =
  Array.fill m.keys 0 (Array.length m.keys) no_cell;
  m.owner <- t.id;
  m.counts <- Cisp_util.Scratch.get t.counts

let[@inline] memo_for t =
  let m = Cisp_util.Scratch.get memo in
  if m.owner <> t.id then claim t m;
  m

let dem t = t.dem

(* Memo miss: evaluate the surface at the cell's own center — pure in
   (DEM, cell), identical whichever domain computes it — and plant it
   in the slot, evicting whatever cell held it. *)
let[@cisp.alloc_ok "miss path: the DEM evaluation itself"] miss dem (m : memo) slot key qi qj =
  let v = Dem.surface_m dem (cell_center qi qj) in
  m.counts.misses <- m.counts.misses + 1;
  Array.unsafe_set m.keys slot key;
  Float.Array.unsafe_set m.vals slot v;
  v

(* The hit path is the zero-alloc contract: quantize, pack, probe,
   read — int and floatarray arithmetic only.  The [@cisp.alloc_ok]
   on [miss] scopes the contract to hits. *)
let[@inline] [@cisp.zero_alloc] lookup dem (m : memo) ~lat ~lon =
  let qi = int_of_float (quantize lat) in
  let qj = int_of_float (quantize lon) in
  let key = pack qi qj in
  let slot = slot_of key in
  if Array.unsafe_get m.keys slot = key then begin
    m.counts.hits <- m.counts.hits + 1;
    Float.Array.unsafe_get m.vals slot
  end
  else miss dem m slot key qi qj

let surface_m t p =
  lookup t.dem (memo_for t) ~lat:(Coord.lat p) ~lon:(Coord.lon p)

(* Ground heights are read once per LOS endpoint, not per sample:
   evaluated directly, never memoized. *)
let elevation_m t p =
  Dem.elevation_m t.dem
    (cell_center (int_of_float (quantize (Coord.lat p))) (int_of_float (quantize (Coord.lon p))))

let[@cisp.zero_alloc] surface_samples t ~lats ~lons ~out ~lo ~hi =
  if
    lo < 0 || hi >= Float.Array.length lats
    || hi >= Float.Array.length lons
    || hi >= Float.Array.length out
  then invalid_arg "Dem_cache.surface_samples: index range outside buffers";
  let dem = t.dem in
  let m = memo_for t in
  let counts = m.counts in
  (* The probe is {!lookup} with the store sunk into each branch.
     Calling [lookup] and storing its result would box the hit value:
     the [if] join with [miss]'s (boxed) return value forces the hit
     branch to materialize its float, one minor-heap block per sample
     (measured in the generated assembly).  Writing [out] inside the
     branch keeps the hit path a floatarray-to-floatarray move. *)
  for i = lo to hi do
    let lat = Float.Array.get lats i and lon = Float.Array.get lons i in
    let qi = int_of_float (quantize lat) in
    let qj = int_of_float (quantize lon) in
    let key = pack qi qj in
    let slot = slot_of key in
    if Array.unsafe_get m.keys slot = key then begin
      counts.hits <- counts.hits + 1;
      Float.Array.unsafe_set out i (Float.Array.unsafe_get m.vals slot)
    end
    else Float.Array.unsafe_set out i (miss dem m slot key qi qj)
  done

let stats t =
  let all = Mutex.protect t.reg_lock (fun () -> !(t.all_counts)) in
  List.fold_left (fun (h, m) c -> (h + c.hits, m + c.misses)) (0, 0) all
