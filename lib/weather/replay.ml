module Hops = Cisp_towers.Hops
module Inputs = Cisp_design.Inputs
module Geodesy = Cisp_geo.Geodesy

let node_position (hops : Hops.t) node =
  if node < hops.Hops.n_sites then hops.Hops.sites.(node).Cisp_data.City.coord
  else hops.Hops.towers.(node - hops.Hops.n_sites).Cisp_towers.Tower.position

type link =
  | Hop_path of { path : Hops.link; geometry : Failure.link_geometry }
  | Site_midpoint of Cisp_geo.Coord.t

let built_links ~hops (inputs : Inputs.t) built =
  let node_position = node_position hops in
  Array.map
    (fun (i, j) ->
      match inputs.Inputs.mw_links.(i).(j) with
      | Some path -> Hop_path { path; geometry = Failure.link_geometry ~node_position path }
      | None ->
        Site_midpoint
          (Geodesy.midpoint inputs.Inputs.sites.(i).Cisp_data.City.coord
             inputs.Inputs.sites.(j).Cisp_data.City.coord))
    built

let link_failed ~params field = function
  | Hop_path { geometry; _ } -> Failure.geometry_failed ~params field geometry
  | Site_midpoint mid ->
    Failure.hop_failed ~params ~rain_mm_h:(Rainfield.rain_at field mid) ~d_km:60.0 ()

(* An outage set as a hashable key: one byte per built link.  Hashing
   a string reads every byte, where the polymorphic hash of a
   [bool array] stops after its first few elements. *)
let key fails = String.init (Array.length fails) (fun b -> if fails.(b) then '1' else '0')

let failed_links fails = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 fails

let group sets =
  let ids = Hashtbl.create 16 in
  let distinct = ref [] in
  let set_of =
    Array.map
      (fun fails ->
        let k = key fails in
        match Hashtbl.find_opt ids k with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.replace ids k id;
          distinct := fails :: !distinct;
          id)
      sets
  in
  (set_of, Array.of_list (List.rev !distinct))
