module Inputs = Cisp_design.Inputs
module Topology = Cisp_design.Topology

type pair_summary = { best : float; median : float; p99 : float; worst : float; fiber : float }

type result = {
  intervals : int;
  mean_failed_links : float;
  per_pair : pair_summary array;
}

let run ?(seed = 99) ?(intervals = 365) ~climate ~hops (inputs : Inputs.t) (topo : Topology.t) =
  if intervals < 1 then
    invalid_arg (Printf.sprintf "Year.run: intervals must be >= 1 (got %d)" intervals);
  Cisp_util.Telemetry.with_span "weather.year" (fun () ->
  let n = Inputs.n_sites inputs in
  let base = Topology.fiber_baseline inputs in
  let built = Array.of_list topo.Topology.built in
  let links = Replay.built_links ~hops inputs built in
  let pairs = ref [] in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      if inputs.traffic.(s).(t) +. inputs.traffic.(t).(s) > 0.0 && inputs.geodesic_km.(s).(t) > 0.0
      then pairs := (s, t) :: !pairs
    done
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  let np = Array.length pairs in
  let params = Failure.default_params in
  (* Each interval's rain field is a pure function of (seed, day) —
     its own RNG stream.  An outage set's row holds every pair's
     stretch over the surviving links, folded in built order from the
     fiber baseline.  Rows are interval-major, one array each: a
     pair-major matrix would have parallel rows writing adjacent
     floats of every pair's column, false-sharing its cache lines
     across all domains. *)
  let sets = Array.make intervals [||] in
  let failed_per_interval = Array.make intervals 0 in
  (* A single interval costs a rain-field sample plus one rain test
     per hop — batch a few per claim of the pool's chunk counter. *)
  let outage_chunk = 4 in
  Cisp_util.Pool.parallel_for ~min_chunk:outage_chunk (Cisp_util.Pool.get ()) ~n:intervals
    (fun interval ->
      let day = interval * 365 / intervals in
      let field = Rainfield.sample ~seed climate ~day in
      let fails = Array.map (Replay.link_failed ~params field) links in
      failed_per_interval.(interval) <- Replay.failed_links fails;
      sets.(interval) <- fails);
  let set_of, distinct = Replay.group sets in
  let rows = Array.make (Array.length distinct) [||] in
  (* A row costs one O(n^2) metric update per surviving link: worth a
     claim of its own. *)
  Cisp_util.Pool.parallel_for (Cisp_util.Pool.get ()) ~n:(Array.length distinct) (fun id ->
      let fails = distinct.(id) in
      let d = ref base in
      Array.iteri
        (fun b ij -> if not fails.(b) then d := Topology.distances_incremental inputs !d ij)
        built;
      let dm = !d in
      let row = Array.make np 0.0 in
      Array.iteri (fun k (s, t) -> row.(k) <- dm.(s).(t) /. inputs.geodesic_km.(s).(t)) pairs;
      rows.(id) <- row);
  let samples = Array.map (fun id -> rows.(id)) set_of in
  let failed_total = Array.fold_left ( + ) 0 failed_per_interval in
  if Cisp_util.Telemetry.enabled () then begin
    Cisp_util.Telemetry.add "weather.intervals" intervals;
    Cisp_util.Telemetry.add "weather.outage_sets" (Array.length distinct);
    Array.iter
      (fun c -> Cisp_util.Telemetry.observe "weather.failed_links" (float_of_int c))
      failed_per_interval
  end;
  let per_pair =
    Array.mapi
      (fun k (s, t) ->
        (* Gather pair [k]'s samples in interval order — the same
           multiset, in the same order, the pair-major layout held. *)
        let xs = Array.init intervals (fun interval -> samples.(interval).(k)) in
        let sorted = Array.copy xs in
        Array.sort Float.compare sorted;
        {
          best = sorted.(0);
          median = Cisp_util.Stats.percentile xs 50.0;
          p99 = Cisp_util.Stats.percentile xs 99.0;
          worst = sorted.(intervals - 1);
          fiber = base.(s).(t) /. inputs.geodesic_km.(s).(t);
        })
      pairs
  in
  {
    intervals;
    mean_failed_links = float_of_int failed_total /. float_of_int intervals;
    per_pair;
  })

let stretch_cdfs r =
  let cdf f = Cisp_util.Stats.cdf (Array.map f r.per_pair) in
  [
    ("best", cdf (fun p -> p.best));
    ("median", cdf (fun p -> p.median));
    ("p99", cdf (fun p -> p.p99));
    ("worst", cdf (fun p -> p.worst));
    ("fiber", cdf (fun p -> p.fiber));
  ]
