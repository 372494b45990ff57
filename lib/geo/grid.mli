(** Spatial hash index over geographic points.

    Buckets points into fixed-size degree cells so that
    "all points within [radius] km of here" queries — the inner loop of
    tower-pair feasibility testing — run in time proportional to the
    local density instead of the registry size.  Query windows wrap
    across the +/-180 antimeridian, so clusters straddling it see each
    other.  Cell keys are packed ints (no per-probe allocation), and
    each cell is a flat array.  The index is built once and never
    changes. *)

type 'a t

val create : cell_deg:float -> (Coord.t * 'a) array -> 'a t
(** [create ~cell_deg points] indexes [points] in square cells of
    [cell_deg] degrees on a side.  Raises [Invalid_argument] if
    [cell_deg < 0.001] (packed cell keys need bounded indices). *)

val iter_nearby : 'a t -> Coord.t -> radius_km:float -> (Coord.t -> 'a -> unit) -> unit
(** [iter_nearby t p ~radius_km f] calls [f] on every stored point
    within [radius_km] great-circle distance of [p], allocating
    nothing itself.

    Visit order is part of the contract (hop-graph adjacency order,
    hence shortest-path tie-breaks, depends on it).  Cells are visited
    row by row in ascending latitude index.  Within a row they go by
    ascending longitude index over the query's column range; a window
    crossing the antimeridian is two ranges, the one holding [p]
    first, then the wrapped one (a window that would meet itself
    around the globe is one range over every column).  Within a cell,
    points come in reverse order of their position in the array given
    to {!create}. *)

val cell_of : 'a t -> Coord.t -> int * int
(** Integer (latitude, longitude) cell indices of a point. *)
