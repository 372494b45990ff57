module Attenuation = Cisp_rf.Attenuation
module Link_budget = Cisp_rf.Link_budget
module Hops = Cisp_towers.Hops

type params = {
  f_ghz : float;
  polarization : Attenuation.polarization;
  margin_floor_db : float;
  margin_cap_db : float;
}

let default_params =
  { f_ghz = 11.0; polarization = Attenuation.Horizontal; margin_floor_db = 10.0; margin_cap_db = 38.0 }

let hop_margin_db ?(params = default_params) ~d_km () =
  let m = Link_budget.fade_margin_db ~f_ghz:params.f_ghz ~d_km:(Float.max 1.0 d_km) () in
  Float.min params.margin_cap_db (Float.max params.margin_floor_db m)

let attenuation ?(params = default_params) ~rain_mm_h ~d_km () =
  Attenuation.path_attenuation_db ~f_ghz:params.f_ghz params.polarization ~rain_mm_h ~d_km

let hop_failed ?(params = default_params) ~rain_mm_h ~d_km () =
  attenuation ~params ~rain_mm_h ~d_km () > hop_margin_db ~params ~d_km ()

type link_geometry = {
  hop_km : float array;
  hop_mid : Cisp_geo.Coord.t array;
  center : Cisp_geo.Coord.t;
  reach_km : float;
}

let link_geometry ~node_position (link : Hops.link) =
  let hops = Array.of_list (Hops.hops_of_link link) in
  let ends = Array.map (fun (u, v) -> (node_position u, node_position v)) hops in
  let hop_km = Array.map (fun (pu, pv) -> Cisp_geo.Geodesy.distance_km pu pv) ends in
  (* A zero-length hop (degenerate co-located endpoints) has no path
     for rain to attenuate and no well-defined midpoint to sample — it
     can never fail, and its slot holds an endpoint that is never
     read. *)
  let wet = List.filter (fun h -> hop_km.(h) > 0.0) (List.init (Array.length hops) Fun.id) in
  let hop_mid =
    Array.mapi
      (fun h (pu, pv) -> if hop_km.(h) > 0.0 then Cisp_geo.Geodesy.midpoint pu pv else pu)
      ends
  in
  (* A circle around every midpoint that can be sampled: when no storm
     rains on it, no hop of the link can fail. *)
  let center =
    match (wet, List.rev wet) with
    | first :: _, last :: _ -> Cisp_geo.Geodesy.midpoint hop_mid.(first) hop_mid.(last)
    | [], _ | _, [] -> node_position link.Hops.src
  in
  let reach_km =
    List.fold_left
      (fun acc h -> Float.max acc (Cisp_geo.Geodesy.distance_km center hop_mid.(h)))
      0.0 wet
  in
  { hop_km; hop_mid; center; reach_km }

(* Rain at or below this never fails a hop. *)
let dry_mm_h = 0.05

(* Hops in order; per hop: positive length, then a wet midpoint, then
   the attenuation test. *)
let rec hops_failed params field g h =
  h < Array.length g.hop_km
  && ((let d = g.hop_km.(h) in
       d > 0.0
       &&
       let rain = Rainfield.rain_at field g.hop_mid.(h) in
       rain > dry_mm_h && hop_failed ~params ~rain_mm_h:rain ~d_km:d ())
     || hops_failed params field g (h + 1))

(* Only the storms that can rain harder than [dry_mm_h] on the link
   decide whether a hop fails, and a link that none reaches is dry:
   one distance per storm settles that before any hop is sampled. *)
let geometry_failed ~params field g =
  let near = Rainfield.near field ~mm_h:dry_mm_h ~center:g.center ~radius_km:g.reach_km in
  (match near.Rainfield.storms with [] -> false | _ :: _ -> true) && hops_failed params near g 0

let hop_loss_probability ?(params = default_params) ~rain_mm_h ~d_km () =
  let margin = hop_margin_db ~params ~d_km () in
  let att = attenuation ~params ~rain_mm_h ~d_km () in
  let deficit = att -. margin in
  (* Fading floor ~0.1%; a logistic ramp turns a margin deficit into
     rising loss, saturating at full outage. *)
  let floor = 0.0007 in
  let ramp = 1.0 /. (1.0 +. exp (-.deficit /. 2.5)) in
  Float.min 1.0 (floor +. (ramp *. (1.0 -. floor)))
