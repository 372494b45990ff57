(** Rain-induced link failures (paper §6.1).

    "If attenuation exceeds a threshold that would degrade bandwidth,
    we conservatively consider a link to have failed."  A hop's
    threshold is its clear-air fade margin (longer hops have less
    margin); a link fails when any of its hops does. *)

type params = {
  f_ghz : float;
  polarization : Cisp_rf.Attenuation.polarization;
  margin_floor_db : float;     (** minimum credible margin *)
  margin_cap_db : float;       (** cap (regulators limit TX power) *)
}

val default_params : params

val hop_margin_db : ?params:params -> d_km:float -> unit -> float

val hop_failed : ?params:params -> rain_mm_h:float -> d_km:float -> unit -> bool
(** Binary failure of a single hop under uniform rain. *)

type link_geometry = {
  hop_km : float array;                (** length of each hop, in path order *)
  hop_mid : Cisp_geo.Coord.t array;    (** midpoint of each hop of positive length *)
  center : Cisp_geo.Coord.t;
  reach_km : float;
      (** every midpoint of a positive-length hop lies within
          [reach_km] of [center] *)
}
(** The rain-facing geometry of a link's physical hops, in
    [Hops.hops_of_link] order: a pure function of the link and its
    node positions, computed once per run and tested against every
    interval's rain field. *)

val link_geometry :
  node_position:(int -> Cisp_geo.Coord.t) -> Cisp_towers.Hops.link -> link_geometry

val geometry_failed : params:params -> Rainfield.t -> link_geometry -> bool
(** Whether a link fails under the field: walks its hops in order,
    and a hop fails when it has positive length, its midpoint sees
    more than 0.05 mm/h, and {!hop_failed} holds at that rate.  A
    zero-length hop never fails.  Each midpoint's rain is sampled
    from the storms {!Rainfield.near} keeps for the disc of [reach_km]
    around [center], which decides every hop as the whole field
    would; when it keeps none, no hop is sampled. *)

val hop_loss_probability : ?params:params -> rain_mm_h:float -> d_km:float -> unit -> float
(** Smooth packet-loss model for the §2 HFT-relay study: negligible
    below margin, saturating above (a logistic in the attenuation
    margin deficit), plus a small multipath-fading floor. *)
