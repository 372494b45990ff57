(** Quantized memoization layer over a {!Dem}.

    Line-of-sight screening samples millions of surface heights, most
    of them in dense tower clusters where paths overlap heavily.  This
    cache snaps queries to a ~400 m grid and memoizes surface heights
    per grid cell, trading negligible accuracy (the synthetic DEM's
    features are tens of km wide) for an order of magnitude in
    throughput.

    Each pool domain keeps one direct-mapped memo (fixed-size unboxed
    arrays) in domain-local storage for the whole process, so a lookup
    takes no lock, allocates nothing on a hit and touches no shared
    cache line.  The memo serves the cache that last looked up through
    it on that domain: the first lookup by another cache empties it,
    so a dropped cache leaves no memo behind.  A miss — a new cell,
    one evicted by a colliding cell, or one emptied by a change of
    owner — evaluates the DEM again.  Every value is a pure function of (DEM, cell),
    evaluated at the cell's own center, so every height the cache
    returns is bit-identical at any pool width and in any query
    order. *)

type t

val create : Dem.t -> t

val dem : t -> Dem.t

val snap : Cisp_geo.Coord.t -> Cisp_geo.Coord.t
(** Center of the ~400 m cell containing the point: the position at
    which cached heights are evaluated.  Exposed for the cell-center
    purity tests. *)

val surface_m : t -> Cisp_geo.Coord.t -> float
(** Memoized [Dem.surface_m], evaluated at the center of the cell
    containing the point — a pure function of the cell, so results
    never depend on query order (or on which pool domain queried the
    cell first). *)

val elevation_m : t -> Cisp_geo.Coord.t -> float
(** Ground elevation (no clutter) at the cell center.  Not memoized:
    LOS sweeps read it once per endpoint, not per sample. *)

val surface_samples :
  t -> lats:floatarray -> lons:floatarray -> out:floatarray -> lo:int -> hi:int -> unit
(** [surface_samples t ~lats ~lons ~out ~lo ~hi] writes the
    {!surface_m} height of the point ([lats.(i)], [lons.(i)]) into
    [out.(i)] for [lo <= i <= hi].  One domain-local-storage access
    and bounds check for the whole batch: the profile-sampling hot
    path of {!Cisp_rf.Los}.  Raises [Invalid_argument] if the index
    range falls outside any buffer. *)

val stats : t -> int * int
(** (hits, misses) of this cache's {!surface_m} and
    {!surface_samples} lookups, summed over all domains — for tests
    and tuning.  A cell first seen by two domains is a miss in each,
    and so is a cell looked up again after another cache took the
    domain's memo over.  Totals are exact for a quiescent cache:
    hits + misses = lookups. *)
