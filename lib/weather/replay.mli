(** The interval replay shared by {!Year} and {!Scenarios}.

    Both replay a sequence of independent intervals against one fixed
    topology: each interval yields an outage set (which built links
    are down), and each outage set determines that interval's result
    row.  Most intervals repeat an outage set seen before — in a
    year of storms, nearly every interval has none at all — so the
    replay evaluates each distinct set once:

    + a [parallel_for] over the intervals computes every interval's
      outage set, each interval writing only its own slots;
    + {!group} numbers the distinct sets sequentially, in order of
      first occurrence;
    + a [parallel_for] over the distinct sets computes one row each.

    Interval [i]'s row is then its set's row.  A row is a pure
    function of its outage set, so the result equals evaluating every
    interval on its own, bit for bit, at any pool width.  Everything
    that depends only on the topology — the hop geometry of each built
    link — is computed once per run by {!built_links}. *)

val node_position : Cisp_towers.Hops.t -> int -> Cisp_geo.Coord.t
(** Position of a hop-graph node: site coordinate for [node < n_sites],
    tower position otherwise. *)

type link =
  | Hop_path of { path : Cisp_towers.Hops.link; geometry : Failure.link_geometry }
      (** a built link with hop data: its tower path and the geometry
          of its hops *)
  | Site_midpoint of Cisp_geo.Coord.t
      (** a link of a synthetic instance, without hop data: one 60 km
          hop at the site-to-site midpoint *)

val built_links : hops:Cisp_towers.Hops.t -> Cisp_design.Inputs.t -> (int * int) array -> link array
(** The replay form of each built link, in the given order. *)

val link_failed : params:Failure.params -> Rainfield.t -> link -> bool
(** Whether the link fails under the field: {!Failure.geometry_failed}
    for a hop path, {!Failure.hop_failed} at the midpoint's rain rate
    over 60 km for a synthetic link. *)

val failed_links : bool array -> int
(** The number of failed links in an outage set. *)

val group : bool array array -> int array * bool array array
(** [group sets] numbers the distinct outage sets of [sets] (one per
    interval) in order of first occurrence: [(set_of, distinct)] with
    [distinct.(set_of.(i))] equal to [sets.(i)] for every interval
    [i]. *)
