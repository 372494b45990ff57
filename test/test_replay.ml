(* Oracles for the weather replay.  [Year.run] and [Scenarios.run]
   evaluate each distinct outage set once, from per-run link geometry,
   and [Routing] finds disjoint routes on the shared multigraph with
   consumed edges filtered out.  The oracles below are the direct
   algorithms they replace: every interval evaluated from scratch,
   link geometry recomputed per test, and each disjoint round run on a
   private copy of the multigraph pruned of its consumed edges
   ([Prune.successive]).  The replay must equal them bit for bit. *)

open Cisp_weather
module Hops = Cisp_towers.Hops
module Inputs = Cisp_design.Inputs
module Topology = Cisp_design.Topology
module Routing = Cisp_sim.Routing
module Graph = Cisp_graph.Graph
module Geodesy = Cisp_geo.Geodesy

let bits = Int64.bits_of_float

(* ---------- oracle: link failure, geometry recomputed per test ---------- *)

let node_position (hops : Hops.t) node =
  if node < hops.Hops.n_sites then hops.Hops.sites.(node).Cisp_data.City.coord
  else hops.Hops.towers.(node - hops.Hops.n_sites).Cisp_towers.Tower.position

let oracle_link_failed ~params ~pos field (link : Hops.link) =
  List.exists
    (fun (u, v) ->
      let pu = pos u and pv = pos v in
      let d = Geodesy.distance_km pu pv in
      d > 0.0
      &&
      let rain = Rainfield.rain_at field (Geodesy.midpoint pu pv) in
      rain > 0.05 && Failure.hop_failed ~params ~rain_mm_h:rain ~d_km:d ())
    (Hops.hops_of_link link)

let site_midpoint (inputs : Inputs.t) (i, j) =
  Geodesy.midpoint inputs.Inputs.sites.(i).Cisp_data.City.coord
    inputs.Inputs.sites.(j).Cisp_data.City.coord

let oracle_fails_in_field ~params ~pos inputs field (ij, link) =
  match link with
  | Some l -> oracle_link_failed ~params ~pos field l
  | None ->
    Failure.hop_failed ~params
      ~rain_mm_h:(Rainfield.rain_at field (site_midpoint inputs ij))
      ~d_km:60.0 ()

let count_failed outages =
  Array.fold_left (Array.fold_left (fun acc f -> if f then acc + 1 else acc)) 0 outages

let built_with_links (inputs : Inputs.t) built =
  Array.map (fun (i, j) -> ((i, j), inputs.Inputs.mw_links.(i).(j))) built

(* ---------- oracle: the weather year, one fold from scratch per interval ---------- *)

let oracle_year ~seed ~intervals ~climate ~hops (inputs : Inputs.t) (topo : Topology.t) =
  let n = Inputs.n_sites inputs in
  let base = Topology.fiber_baseline inputs in
  let links = built_with_links inputs (Array.of_list topo.Topology.built) in
  let pairs = ref [] in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      if inputs.traffic.(s).(t) +. inputs.traffic.(t).(s) > 0.0 && inputs.geodesic_km.(s).(t) > 0.0
      then pairs := (s, t) :: !pairs
    done
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  let pos = node_position hops in
  let params = Failure.default_params in
  let outages = Array.make intervals [||] in
  let samples =
    Array.init intervals (fun interval ->
        let field = Rainfield.sample ~seed climate ~day:(interval * 365 / intervals) in
        let fails = Array.map (oracle_fails_in_field ~params ~pos inputs field) links in
        outages.(interval) <- fails;
        let d = ref base in
        Array.iteri
          (fun b (ij, _) -> if not fails.(b) then d := Topology.distances_incremental inputs !d ij)
          links;
        Array.map (fun (s, t) -> !d.(s).(t) /. inputs.geodesic_km.(s).(t)) pairs)
  in
  let failed = count_failed outages in
  let per_pair =
    Array.mapi
      (fun k (s, t) ->
        let xs = Array.init intervals (fun interval -> samples.(interval).(k)) in
        let sorted = Array.copy xs in
        Array.sort Float.compare sorted;
        {
          Year.best = sorted.(0);
          median = Cisp_util.Stats.percentile xs 50.0;
          p99 = Cisp_util.Stats.percentile xs 99.0;
          worst = sorted.(intervals - 1);
          fiber = base.(s).(t) /. inputs.geodesic_km.(s).(t);
        })
      pairs
  in
  ( { Year.intervals; mean_failed_links = float_of_int failed /. float_of_int intervals; per_pair },
    outages )

let year_bits (r : Year.result) =
  ( r.Year.intervals,
    bits r.Year.mean_failed_links,
    Array.map
      (fun p -> List.map bits [ p.Year.best; p.median; p.p99; p.worst; p.fiber ])
      r.Year.per_pair )

(* ---------- oracle: disjoint routes on pruned copies ---------- *)

let medium_tables (m : Routing.network_model) =
  let n = Inputs.n_sites m.Routing.inputs in
  let mw = Array.make_matrix n n infinity and fib = Array.make_matrix n n infinity in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let mk = m.inputs.Inputs.mw_km.(i).(j) and fk = m.inputs.Inputs.fiber_km.(i).(j) in
      if Topology.is_built m.Routing.topology i j && mk < fk then begin
        mw.(i).(j) <- mk;
        mw.(j).(i) <- mk
      end;
      if fk < infinity then begin
        fib.(i).(j) <- fk;
        fib.(j).(i) <- fk
      end
    done
  done;
  (mw, fib)

let oracle_disjoint_routes ~k ~src ~dst base n ~mw ~fib =
  let killed = Hashtbl.create 16 in
  let acc = ref [] in
  let consume (_, path) =
    let nodes = Array.of_list path in
    let hops = Array.length nodes - 1 in
    let media = Array.make hops Routing.Fiber in
    let lat = ref 0.0 in
    for h = 0 to hops - 1 do
      let i = min nodes.(h) nodes.(h + 1) and j = max nodes.(h) nodes.(h + 1) in
      if mw.(i).(j) < infinity && not (Hashtbl.mem killed (2 * ((i * n) + j))) then begin
        media.(h) <- Routing.Mw;
        lat := !lat +. mw.(i).(j)
      end
      else lat := !lat +. fib.(i).(j)
    done;
    acc := { Routing.nodes; media; latency_km = !lat } :: !acc;
    Array.iteri
      (fun h medium ->
        let pid = (min nodes.(h) nodes.(h + 1) * n) + max nodes.(h) nodes.(h + 1) in
        Hashtbl.replace killed
          (match medium with Routing.Mw -> 2 * pid | Routing.Fiber -> (2 * pid) + 1)
          ())
      media
  in
  let keep (e : Graph.edge) = not (Hashtbl.mem killed e.Graph.tag) in
  ignore (Prune.successive base ~src ~dst ~k ~consume ~keep);
  Array.of_list (List.rev !acc)

let oracle_disjoint_table (m : Routing.network_model) scheme ~demands_gbps =
  let k =
    match scheme with
    | Routing.K_disjoint_split k | Routing.K_disjoint_failover k -> k
    | _ -> invalid_arg "oracle_disjoint_table: not a disjoint scheme"
  in
  let n = Inputs.n_sites m.Routing.inputs in
  let mw, fib = medium_tables m in
  let base = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let pid = (i * n) + j in
      if mw.(i).(j) < infinity then Graph.add_undirected ~tag:(2 * pid) base i j mw.(i).(j);
      if fib.(i).(j) < infinity then Graph.add_undirected ~tag:((2 * pid) + 1) base i j fib.(i).(j)
    done
  done;
  let table = Hashtbl.create 64 in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if t <> s && demands_gbps.(s).(t) > 0.0 then begin
        let routes = oracle_disjoint_routes ~k ~src:s ~dst:t base n ~mw ~fib in
        if Array.length routes > 0 then begin
          let split =
            match scheme with
            | Routing.K_disjoint_split _ ->
              let inv = Array.map (fun p -> 1.0 /. Float.max 1e-9 p.Routing.latency_km) routes in
              let total = Array.fold_left ( +. ) 0.0 inv in
              Array.map (fun w -> w /. total) inv
            | _ -> Array.init (Array.length routes) (fun i -> if i = 0 then 1.0 else 0.0)
          in
          Hashtbl.replace table (s, t) { Routing.routes; split }
        end
      end
    done
  done;
  table

(* A table as sorted, comparable data: floats as bits. *)
let table_bits table =
  Cisp_util.Tbl.sorted_bindings table
  |> List.map (fun (key, mp) ->
         ( key,
           Array.map
             (fun p ->
               ( p.Routing.nodes,
                 Array.map (function Routing.Mw -> 0 | Routing.Fiber -> 1) p.Routing.media,
                 bits p.Routing.latency_km ))
             mp.Routing.routes,
           Array.map bits mp.Routing.split ))

(* ---------- oracle: the scenario suite, every interval from scratch ---------- *)

let oracle_failures ~seed ~params ~pos ~hops (inputs : Inputs.t) ~links spec iv =
  match spec with
  | Scenarios.Uniform_rain { mm_h } ->
    Array.map
      (fun (_, link) ->
        match link with
        | Some l ->
          List.exists
            (fun (u, v) ->
              let d = Geodesy.distance_km (pos u) (pos v) in
              d > 0.0 && Failure.hop_failed ~params ~rain_mm_h:mm_h ~d_km:d ())
            (Hops.hops_of_link l)
        | None -> Failure.hop_failed ~params ~rain_mm_h:mm_h ~d_km:60.0 ())
      links
  | Scenarios.Rain_replay { climate; intervals } ->
    let field = Rainfield.sample ~seed climate ~day:(iv * 365 / intervals) in
    Array.map (oracle_fails_in_field ~params ~pos inputs field) links
  | Scenarios.Hurricane { center; track_bearing_deg; step_km; _ } ->
    let eye =
      Geodesy.destination center ~bearing_deg:track_bearing_deg
        ~distance_km:(step_km *. float_of_int iv)
    in
    Array.map (oracle_fails_in_field ~params ~pos inputs (Rainfield.hurricane ~center:eye)) links
  | Scenarios.Correlated_towers { blobs; radius_km; _ } ->
    let rng = Cisp_util.Rng.create (seed + (iv * 7919)) in
    let n_towers = Array.length hops.Hops.towers in
    let centers =
      Array.init blobs (fun _ ->
          if n_towers > 0 then
            hops.Hops.towers.(Cisp_util.Rng.int rng n_towers).Cisp_towers.Tower.position
          else
            inputs.Inputs.sites.(Cisp_util.Rng.int rng (Array.length inputs.Inputs.sites))
              .Cisp_data.City.coord)
    in
    let hit p = Array.exists (fun c -> Geodesy.distance_km c p <= radius_km) centers in
    Array.map
      (fun (ij, link) ->
        match link with
        | Some l -> List.exists (fun v -> v >= hops.Hops.n_sites && hit (pos v)) l.Hops.node_path
        | None -> hit (site_midpoint inputs ij))
      links

let spec_intervals = function
  | Scenarios.Uniform_rain _ -> 1
  | Scenarios.Rain_replay { intervals; _ }
  | Scenarios.Hurricane { intervals; _ }
  | Scenarios.Correlated_towers { intervals; _ } ->
    intervals

let oracle_scenario ~seed ~schemes ~hops ~(model : Routing.network_model) ~demands_gbps spec =
  let params = Failure.default_params in
  let intervals = spec_intervals spec in
  let inputs = model.Routing.inputs in
  let n = Inputs.n_sites inputs in
  let built = Array.of_list model.Routing.topology.Topology.built in
  let links = built_with_links inputs built in
  let pos = node_position hops in
  let commodities = ref [] in
  for s = n - 1 downto 0 do
    for t = n - 1 downto 0 do
      if s <> t && demands_gbps.(s).(t) > 0.0 && inputs.Inputs.geodesic_km.(s).(t) > 0.0 then
        commodities := (s, t) :: !commodities
    done
  done;
  let commodities = Array.of_list !commodities in
  let tables =
    List.map
      (fun (_, sch) ->
        match sch with
        | Routing.K_disjoint_split _ | Routing.K_disjoint_failover _ ->
          Some (oracle_disjoint_table model sch ~demands_gbps)
        | _ -> None)
      schemes
  in
  let outages =
    Array.init intervals (oracle_failures ~seed ~params ~pos ~hops inputs ~links spec)
  in
  (* stretch.(iv).(si).(c), nan = unavailable *)
  let built_idx = Hashtbl.create 16 in
  Array.iteri
    (fun b (i, j) ->
      Hashtbl.replace built_idx (i, j) b;
      Hashtbl.replace built_idx (j, i) b)
    built;
  let stretch =
    Array.map
      (fun fails ->
        let mw_ok i j =
          match Hashtbl.find_opt built_idx (i, j) with Some b -> not fails.(b) | None -> true
        in
        List.map2
          (fun (_, sch) table ->
            let recompute = lazy (Routing.paths ~mw_ok model sch ~demands_gbps) in
            Array.map
              (fun (s, t) ->
                let g = inputs.Inputs.geodesic_km.(s).(t) in
                match table with
                | Some table -> (
                  match Hashtbl.find_opt table (s, t) with
                  | None -> Float.nan
                  | Some mp ->
                    let survivors = Routing.select_routes mp ~mw_ok in
                    if Array.length survivors = 0 then Float.nan
                    else
                      Array.fold_left
                        (fun acc (r, w) -> acc +. (w *. r.Routing.latency_km))
                        0.0 survivors
                      /. g)
                | None -> (
                  match Hashtbl.find_opt (Lazy.force recompute) (s, t) with
                  | None -> Float.nan
                  | Some route -> Routing.route_latency_km model ~mw_ok route /. g))
              commodities)
          schemes tables
        |> Array.of_list)
      outages
  in
  let failed = count_failed outages in
  let summaries =
    List.mapi
      (fun si (label, _) ->
        let avail_w = ref 0.0 and total_w = ref 0.0 and stretch_w = ref 0.0 in
        let observed = ref [] in
        Array.iteri
          (fun c (s, t) ->
            let w = demands_gbps.(s).(t) in
            for iv = 0 to intervals - 1 do
              total_w := !total_w +. w;
              let x = stretch.(iv).(si).(c) in
              if not (Float.is_nan x) then begin
                avail_w := !avail_w +. w;
                stretch_w := !stretch_w +. (w *. x);
                observed := x :: !observed
              end
            done)
          commodities;
        let observed = Array.of_list !observed in
        let none = Array.length observed = 0 in
        {
          Scenarios.scheme = label;
          availability = (if !total_w > 0.0 then !avail_w /. !total_w else 0.0);
          mean_stretch = (if !avail_w > 0.0 then !stretch_w /. !avail_w else Float.nan);
          p99_stretch = (if none then Float.nan else Cisp_util.Stats.percentile observed 99.0);
          worst_stretch = (if none then Float.nan else snd (Cisp_util.Stats.min_max observed));
        })
      schemes
  in
  ( {
      Scenarios.name = Scenarios.spec_name spec;
      intervals;
      mean_failed_links = float_of_int failed /. float_of_int intervals;
      schemes = summaries;
    },
    outages )

let scenario_bits (r : Scenarios.result) =
  ( r.Scenarios.name,
    r.Scenarios.intervals,
    bits r.Scenarios.mean_failed_links,
    List.map
      (fun s ->
        ( s.Scenarios.scheme,
          List.map bits
            [ s.Scenarios.availability; s.mean_stretch; s.p99_stretch; s.worst_stretch ] ))
      r.Scenarios.schemes )

(* ---------- fixture: the 8-site Europe design ---------- *)

module Scenario = Cisp_design.Scenario

let europe =
  lazy
    (let a = Scenario.artifacts ~config:{ Scenario.europe_config with Scenario.n_sites = Some 8 } () in
     let inputs = Scenario.population_inputs a in
     let topo = Cisp_util.Pool.with_default_jobs 1 (fun () -> Scenario.design inputs ~budget:120) in
     let model =
       { Routing.inputs; topology = topo; mw_gbps = (fun _ -> 10.0); fiber_gbps = 100.0 }
     in
     let demands = Cisp_traffic.Matrix.scale_to_gbps inputs.Inputs.traffic ~aggregate_gbps:10.0 in
     (a.Scenario.hops, model, demands))

let uniform_climate (inputs : Inputs.t) =
  Rainfield.uniform_climate
    (Cisp_geo.Coord.expand_bbox
       (Cisp_geo.Coord.bbox_of_points
          (Array.to_list (Array.map (fun c -> c.Cisp_data.City.coord) inputs.Inputs.sites)))
       ~margin_deg:1.0)

(* How an instance's outage sets repeat: every set empty, some set
   repeated, or all sets distinct (a set may be in both of the last
   two only if there is one interval). *)
let all_empty outages = Array.for_all (Array.for_all not) outages

let distinct outages =
  List.length (List.sort_uniq compare (Array.to_list (Array.map Array.to_list outages)))

let test_year_matches_oracle () =
  let hops, model, _ = Lazy.force europe in
  let inputs = model.Routing.inputs and topo = model.Routing.topology in
  let shapes = ref [] in
  List.iter
    (fun (label, climate, intervals, seed) ->
      let expected, outages = oracle_year ~seed ~intervals ~climate ~hops inputs topo in
      shapes := (all_empty outages, distinct outages, intervals) :: !shapes;
      List.iter
        (fun jobs ->
          let r =
            Cisp_util.Pool.with_default_jobs jobs (fun () ->
                Year.run ~seed ~intervals ~climate ~hops inputs topo)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: year equals the per-interval fold, jobs=%d" label jobs)
            true
            (year_bits expected = year_bits r))
        [ 1; 2 ])
    [
      ("uniform climate", uniform_climate inputs, 48, 99);
      ("europe climate", Rainfield.eu_climate, 36, 5);
      ("dry seed", Rainfield.eu_climate, 4, 99);
    ];
  Alcotest.(check bool) "an instance repeats an outage set" true
    (List.exists (fun (_, d, iv) -> d < iv) !shapes);
  Alcotest.(check bool) "an instance has a failed link" true
    (List.exists (fun (empty, _, _) -> not empty) !shapes)

let test_disjoint_tables_match_oracle () =
  let _, model, demands = Lazy.force europe in
  List.iter
    (fun k ->
      let schemes = [ Routing.K_disjoint_failover k; Routing.K_disjoint_split k ] in
      let shared = Routing.disjoint_tables model (Routing.Shortest_path :: schemes) ~demands_gbps:demands in
      Alcotest.(check bool) (Printf.sprintf "k=%d: no table for shortest path" k) true
        (List.hd shared = None);
      List.iter2
        (fun scheme table ->
          let expected = table_bits (oracle_disjoint_table model scheme ~demands_gbps:demands) in
          match table with
          | Some t ->
            Alcotest.(check bool)
              (Printf.sprintf "k=%d: shared table equals pruned copies" k)
              true
              (expected = table_bits t)
          | None -> Alcotest.fail "missing disjoint table")
        schemes (List.tl shared))
    [ 1; 2; 3; 5 ]

let scenario_specs inputs =
  let eye = inputs.Inputs.sites.(0).Cisp_data.City.coord in
  [
    Scenarios.Uniform_rain { mm_h = 110.0 };
    Scenarios.Rain_replay { climate = uniform_climate inputs; intervals = 12 };
    Scenarios.Rain_replay { climate = Rainfield.eu_climate; intervals = 4 };
    Scenarios.Hurricane { center = eye; track_bearing_deg = 40.0; step_km = 60.0; intervals = 6 };
    Scenarios.Correlated_towers { blobs = 2; radius_km = 150.0; intervals = 8 };
    Scenarios.Correlated_towers { blobs = 1; radius_km = 0.0; intervals = 3 };
    Scenarios.Correlated_towers { blobs = 3; radius_km = 250.0; intervals = 4 };
  ]

let test_scenarios_match_oracle () =
  let hops, model, demands = Lazy.force europe in
  let schemes = Scenarios.default_schemes ~k:3 in
  let shapes =
    List.map
      (fun spec ->
        let expected, outages =
          oracle_scenario ~seed:99 ~schemes ~hops ~model ~demands_gbps:demands spec
        in
        List.iter
          (fun jobs ->
            let r =
              Cisp_util.Pool.with_default_jobs jobs (fun () ->
                  Scenarios.run ~schemes ~hops ~model ~demands_gbps:demands spec)
            in
            let label = Scenarios.spec_name spec in
            Alcotest.(check string)
              (Printf.sprintf "%s: frontier row equals the oracle, jobs=%d" label jobs)
              (Scenarios.frontier_csv [ expected ])
              (Scenarios.frontier_csv [ r ]);
            Alcotest.(check bool)
              (Printf.sprintf "%s: result bitwise equals the oracle, jobs=%d" label jobs)
              true
              (scenario_bits expected = scenario_bits r))
          [ 1; 2 ];
        (all_empty outages, distinct outages, Array.length outages))
      (scenario_specs model.Routing.inputs)
  in
  Alcotest.(check bool) "a multi-interval instance has only empty outage sets" true
    (List.exists (fun (empty, _, iv) -> empty && iv > 1) shapes);
  Alcotest.(check bool) "an instance repeats a non-empty outage set" true
    (List.exists (fun (empty, d, iv) -> (not empty) && d < iv) shapes);
  Alcotest.(check bool) "an instance has all outage sets distinct" true
    (List.exists (fun (_, d, iv) -> iv > 1 && d = iv) shapes)

(* ---------- property: generated valid specs ---------- *)

let spec_gen (inputs : Inputs.t) =
  let open QCheck.Gen in
  let n = Array.length inputs.Inputs.sites in
  let intervals = int_range 1 5 in
  let site = map (fun i -> inputs.Inputs.sites.(i).Cisp_data.City.coord) (int_bound (n - 1)) in
  frequency
    [
      (1, map (fun mm_h -> Scenarios.Uniform_rain { mm_h }) (float_range 0.0 400.0));
      ( 1,
        map2
          (fun wet intervals ->
            let climate = if wet then uniform_climate inputs else Rainfield.eu_climate in
            Scenarios.Rain_replay { climate; intervals })
          bool intervals );
      ( 2,
        map4
          (fun center track_bearing_deg step_km intervals ->
            Scenarios.Hurricane { center; track_bearing_deg; step_km; intervals })
          site (float_range (-360.0) 360.0) (float_range (-50.0) 200.0) intervals );
      ( 2,
        map3
          (fun blobs radius_km intervals ->
            Scenarios.Correlated_towers { blobs; radius_km; intervals })
          (int_range 1 4) (float_range 0.0 300.0) intervals );
    ]

let prop_valid_specs =
  lazy
    (let hops, model, demands = Lazy.force europe in
     let gen =
       QCheck.Gen.(triple (spec_gen model.Routing.inputs) (int_bound 1000) (int_range 1 3))
     in
     QCheck.Test.make ~count:24 ~name:"valid specs: invariants hold and the replay equals the oracle"
       (QCheck.make gen) (fun (spec, seed, k) ->
         let schemes = Scenarios.default_schemes ~k in
         let r = Scenarios.run ~seed ~schemes ~hops ~model ~demands_gbps:demands spec in
         let expected, _ = oracle_scenario ~seed ~schemes ~hops ~model ~demands_gbps:demands spec in
         let stretch_ok x = Float.is_nan x || (Float.is_finite x && x >= 1.0 -. 1e-9) in
         r.Scenarios.mean_failed_links >= 0.0
         && List.for_all
              (fun s ->
                s.Scenarios.availability >= 0.0
                && s.Scenarios.availability <= 1.0
                && stretch_ok s.Scenarios.mean_stretch
                && stretch_ok s.Scenarios.p99_stretch
                && stretch_ok s.Scenarios.worst_stretch)
              r.Scenarios.schemes
         && scenario_bits r = scenario_bits expected))

(* ---------- properties: the storms near a link decide it as the whole field ---------- *)

let in_us lat_u lon_u =
  Cisp_geo.Coord.make ~lat:(25.0 +. (24.0 *. lat_u)) ~lon:(-125.0 +. (59.0 *. lon_u))

let fraction = QCheck.Gen.float_range 0.0 1.0

let prop_near_rain =
  QCheck.Test.make ~count:500 ~name:"near storms give every rate above the threshold"
    (QCheck.make
       QCheck.Gen.(
         quad (pair (int_bound 10_000) (int_range 0 364)) (pair fraction fraction)
           (float_range 0.0 600.0) (pair fraction fraction)))
    (fun ((seed, day), (lat_u, lon_u), radius_km, (bearing_u, dist_u)) ->
      let field = Rainfield.sample ~seed Rainfield.us_climate ~day in
      let center = in_us lat_u lon_u in
      let p =
        Geodesy.destination center ~bearing_deg:(360.0 *. bearing_u)
          ~distance_km:(radius_km *. dist_u)
      in
      let near = Rainfield.near field ~mm_h:0.05 ~center ~radius_km in
      let all = Rainfield.rain_at field p and kept = Rainfield.rain_at near p in
      if all > 0.05 || kept > 0.05 then bits all = bits kept else all <= 0.05 && kept <= 0.05)

(* A random tower path: hops of 0-90 km (about one in five of zero
   length), under either a sampled storm field or a hurricane whose
   eye sits within 250 km of one of the path's towers. *)
let link_gen =
  QCheck.Gen.(
    quad (pair fraction fraction)
      (list_size (int_range 1 8) (pair (float_range 0.0 360.0) (float_range (-20.0) 90.0)))
      (pair (int_bound 10_000) (int_range 0 364))
      (pair bool (triple fraction fraction fraction)))

let prop_geometry_failed =
  QCheck.Test.make ~count:500 ~name:"per-run geometry decides a link as the direct walk"
    (QCheck.make link_gen)
    (fun ((lat_u, lon_u), steps, (seed, day), (hurricane, (eye_at, eye_b, eye_d))) ->
      let start = in_us lat_u lon_u in
      let nodes =
        List.fold_left
          (fun acc (bearing_deg, km) ->
            let last = List.hd acc in
            (if km <= 0.0 then last else Geodesy.destination last ~bearing_deg ~distance_km:km)
            :: acc)
          [ start ] steps
        |> List.rev |> Array.of_list
      in
      let m = Array.length nodes in
      let link =
        { Hops.src = 0; dst = m - 1; distance_km = 0.0; geodesic_km = 0.0;
          node_path = List.init m Fun.id; tower_count = m - 2 }
      in
      let field =
        if hurricane then
          let tower = nodes.(min (m - 1) (int_of_float (eye_at *. float_of_int m))) in
          Rainfield.hurricane
            ~center:(Geodesy.destination tower ~bearing_deg:(360.0 *. eye_b)
                       ~distance_km:(250.0 *. eye_d))
        else Rainfield.sample ~seed Rainfield.us_climate ~day
      in
      let params = Failure.default_params in
      let node_position v = nodes.(v) in
      Failure.geometry_failed ~params field (Failure.link_geometry ~node_position link)
      = oracle_link_failed ~params ~pos:node_position field link)

let test_near_rain_property () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 15 |]) prop_near_rain

let test_geometry_property () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 16 |]) prop_geometry_failed

let test_valid_specs_property () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 2026 |]) (Lazy.force prop_valid_specs)

let suites =
  [
    ( "weather.replay",
      [
        Alcotest.test_case "near storms keep every wet rate" `Quick test_near_rain_property;
        Alcotest.test_case "link geometry equals the direct walk" `Quick test_geometry_property;
        Alcotest.test_case "year equals per-interval fold" `Slow test_year_matches_oracle;
        Alcotest.test_case "disjoint tables equal pruned copies" `Slow
          test_disjoint_tables_match_oracle;
        Alcotest.test_case "scenarios equal per-interval oracle" `Slow test_scenarios_match_oracle;
        Alcotest.test_case "valid specs property" `Slow test_valid_specs_property;
      ] );
  ]
