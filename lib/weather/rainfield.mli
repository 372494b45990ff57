(** Synthetic precipitation fields (substitute for NASA TRMM/GPM data,
    paper §6.1).

    Each 30-minute interval gets a deterministic set of storm cells:
    Gaussian rain blobs with realistic radii (tens of km) and peak
    rates (up to ~100 mm/h for convective cores).  Storm frequency
    and intensity follow a coarse seasonal and regional climatology:
    summer convection is more intense, winter systems are wider and
    weaker, and a per-region wetness map concentrates events (e.g.
    over the US southeast). *)

type storm = {
  center : Cisp_geo.Coord.t;
  radius_km : float;
  peak_mm_h : float;
}

type t = { day : int; storms : storm list }

type climate = {
  bbox : Cisp_geo.Coord.bbox;
  mean_storms_per_interval : float;
  wetness : Cisp_geo.Coord.t -> float;
      (** relative storm likelihood at a location, ~1 average *)
}

val us_climate : climate
val eu_climate : climate
val uniform_climate : Cisp_geo.Coord.bbox -> climate

val sample : ?seed:int -> climate -> day:int -> t
(** The field for (an arbitrary 30-minute interval of) [day] in
    [0, 365). *)

val rain_at : t -> Cisp_geo.Coord.t -> float
(** Rain rate in mm/h (max over overlapping cells). *)

val near : t -> mm_h:float -> center:Cisp_geo.Coord.t -> radius_km:float -> t
(** The storms of the field that may rain more than [mm_h] ([>= 0])
    somewhere within [radius_km] of [center], one distance per storm.
    At every point [p] in that disc, [rain_at (near t ...) p] and
    [rain_at t p] are equal, bit for bit, whenever either exceeds
    [mm_h], and both are at most [mm_h] otherwise.  No storms left
    means the whole disc is dry. *)

val hurricane : center:Cisp_geo.Coord.t -> t
(** A stationary, intense, wide system (for the §2 Hurricane-Sandy
    style stress test). *)
