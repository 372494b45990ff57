(* Pipeline benchmark: the workload runner.

   Runs one workload of the cISP pipeline through the library's public
   entry points, in the order cisp_cli calls them, and writes one JSON
   record holding every timing, allocation figure and output that
   run.py needs to check the run and derive its metrics.  Each call
   into a layer is timed from here and wrapped in a
   [bench.<layer>.<call>] telemetry span; nothing inside lib/ is
   changed.  See README.md for the workloads and the metrics.

   Usage: pipeline.exe --workload W --seed N --seconds S --out FILE
            [--trace FILE] *)

open Cisp
module Telemetry = Util.Telemetry
module Scenario = Design.Scenario
module Inputs = Design.Inputs
module Topology = Design.Topology
module Capacity = Design.Capacity

(* ---------- JSON output ---------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* Floats print with 17 significant digits, which read back bit for
   bit, and always with a point or exponent, so that JSON readers keep
   them floats; NaN and infinities use the tokens Python's json
   reads. *)
let rec emit b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f when Float.is_nan f -> Buffer.add_string b "NaN"
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.bprintf b "%.1f" f
  | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | Num f -> Buffer.add_string b (if f > 0.0 then "Infinity" else "-Infinity")
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit b (Str k);
        Buffer.add_char b ':';
        emit b v)
      kvs;
    Buffer.add_char b '}'

(* ---------- measurement ---------- *)

(* One timed call into a layer, with the allocation it caused. *)
type call = { name : string; wall_s : float; minor_words : float; major_gcs : int }

let calls : call list ref = ref []

let timed layer call f =
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Unix.gettimeofday () in
  let r = Telemetry.with_span (Printf.sprintf "bench.%s.%s" layer call) f in
  let t1 = Unix.gettimeofday () in
  calls :=
    {
      name = layer ^ "." ^ call;
      wall_s = t1 -. t0;
      minor_words = Gc.minor_words () -. w0;
      major_gcs = (Gc.quick_stat ()).Gc.major_collections - m0;
    }
    :: !calls;
  r

(* One operation of the closed loop: its wall time, the outputs run.py
   checks, and side figures (cache statistics) that are not checked.
   An exception is recorded as the operation's error and the run goes
   on. *)
type op = {
  op : string;
  op_wall_s : float;
  outputs : (string * json) list;
  stats : (string * json) list;
  error : string option;
}

let ops : op list ref = ref []

let run_op name f =
  let t0 = Unix.gettimeofday () in
  let record outputs stats error =
    ops := { op = name; op_wall_s = Unix.gettimeofday () -. t0; outputs; stats; error } :: !ops
  in
  match f () with
  | v, outputs, stats ->
    record outputs stats None;
    Some v
  | exception e ->
    record [] [] (Some (Printexc.to_string e));
    None

(* A fixed, non-allocating integer loop: its time tracks the host's
   speed at the moment, so a noisy host shows up as noisy. *)
let calibrate () =
  let t0 = Unix.gettimeofday () in
  let x = ref 0x2545F491 in
  for _ = 1 to 100_000_000 do
    x := ((!x * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF
  done;
  ignore (Sys.opaque_identity !x);
  Unix.gettimeofday () -. t0

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' status)
  | exception Sys_error _ -> 0.0

(* ---------- workloads ---------- *)

type region = Us | Europe

type config = {
  region : region;
  sites : int;
  budget : int;
  range_km : float;
  gbps : float;
  setup_reps : int;  (* set-ups per run; setup_s is their median *)
}

let design_us = { region = Us; sites = 30; budget = 900; range_km = 100.0; gbps = 100.0; setup_reps = 15 }

let design_eu = { design_us with region = Europe; budget = 27 * 30; range_km = 60.0 }

(* The top-30 US design at 60 km: cheap enough to build several times
   per run, so set-up time is a median too. *)
let operate_us = { design_us with range_km = 60.0; setup_reps = 3 }

(* Every component seed is its repository default plus the workload
   seed, so seed 0 reproduces cisp_cli's output exactly. *)
type seeds = { dem : int; towers : int; weather : int; perturb : int }

let seeds_of s = { dem = 42 + s; towers = 7 + s; weather = 99 + s; perturb = 31 + s }

type generated = {
  cache : Terrain.Dem_cache.t;
  sites : Data.City.t list;
  towers : Towers.Tower.t list;
  fiber : Fiber.Conduit.t;
  traffic : Traffic.Matrix.t;
}

(* Input generation: the DEM handle and a fresh cache, the synthetic
   tower registry with culling, fiber conduits and the traffic
   matrix. *)
let generate cfg seeds =
  let dem =
    timed "terrain" "dem" (fun () ->
        Terrain.Dem.create ~seed:seeds.dem
          (match cfg.region with Us -> Terrain.Dem.Us_continental | Europe -> Terrain.Dem.Europe))
  in
  let cache = timed "terrain" "dem_cache" (fun () -> Terrain.Dem_cache.create dem) in
  let centers =
    match cfg.region with
    | Us -> Data.Sites.us_population_centers ()
    | Europe -> Data.Sites.eu_population_centers ()
  in
  let sites =
    List.filteri (fun i _ -> i < cfg.sites) (List.sort Data.City.compare_population_desc centers)
  in
  let towers =
    timed "towers" "synth" (fun () ->
        Towers.Synth.generate
          ~config:{ Towers.Synth.default_config with seed = seeds.towers }
          ~dem ~sites ())
  in
  let towers = timed "towers" "culling" (fun () -> Towers.Culling.apply towers) in
  let fiber =
    timed "fiber" "conduit" (fun () ->
        match cfg.region with
        | Us -> Fiber.Conduit.build ~sites ()
        | Europe -> Fiber.Conduit.build ~mode:(Fiber.Conduit.Assumed 1.93) ~sites ())
  in
  let traffic =
    timed "traffic" "matrix" (fun () -> Traffic.Matrix.population_product (Array.of_list sites))
  in
  ({ cache; sites; towers; fiber; traffic }, [ ("towers_kept", Int (List.length towers)) ], [])

type designed = {
  hops : Towers.Hops.t;
  inputs : Inputs.t;
  topo : Topology.t;
  plan : Capacity.plan;
}

(* The design pipeline: hop engineering, the site link matrix, the
   topology heuristic, capacity and its cost. *)
let design cfg g =
  let hop_config =
    {
      Towers.Hops.default_config with
      los_params = { Rf.Los.default_params with max_range_km = cfg.range_km };
      height_fraction = 1.0;
    }
  in
  let hops =
    timed "towers" "hops_build" (fun () ->
        Towers.Hops.build ~config:hop_config ~cache:g.cache ~sites:g.sites ~towers:g.towers ())
  in
  let inputs =
    timed "graph" "all_links" (fun () -> Inputs.of_hops ~hops ~fiber:g.fiber ~traffic:g.traffic)
  in
  let topo = timed "design" "heuristic" (fun () -> Scenario.design inputs ~budget:cfg.budget) in
  let plan, cost_per_gb =
    timed "design" "capacity" (fun () ->
        let spare = Capacity.spare_from_registry hops in
        let plan =
          Capacity.plan ~spare_series_at_hop:spare inputs topo ~aggregate_gbps:cfg.gbps
        in
        (plan, Capacity.cost_per_gb Design.Cost.default plan ~aggregate_gbps:cfg.gbps))
  in
  let hits, misses = Terrain.Dem_cache.stats g.cache in
  ( { hops; inputs; topo; plan },
    [
      ("budget", Int cfg.budget);
      ("links", Int (List.length topo.Topology.built));
      ("towers", Int topo.Topology.cost);
      ("stretch", Num (Topology.stretch_of topo));
      ("cost_per_gb", Num cost_per_gb);
      ("feasible_hops", Int hops.Towers.Hops.feasible_hops);
    ],
    [ ("cache_hits", Int hits); ("cache_misses", Int misses) ] )

let climate = Weather.Rainfield.us_climate

let weather_year seeds d =
  let r =
    timed "weather" "year" (fun () ->
        Weather.Year.run ~seed:seeds.weather ~intervals:365 ~climate ~hops:d.hops d.inputs d.topo)
  in
  let med f = Util.Stats.median (Array.map f r.Weather.Year.per_pair) in
  ( (),
    [
      ("intervals", Int r.Weather.Year.intervals);
      ("median_best", Num (med (fun p -> p.Weather.Year.best)));
      ("median_median", Num (med (fun p -> p.Weather.Year.median)));
      ("median_p99", Num (med (fun p -> p.Weather.Year.p99)));
      ("median_worst", Num (med (fun p -> p.Weather.Year.worst)));
      ("median_fiber", Num (med (fun p -> p.Weather.Year.fiber)));
    ],
    [ ("mean_failed_links", Num r.Weather.Year.mean_failed_links) ] )

(* The designed network as the simulator and the scenario engine see
   it, with the population demand scaled to the design load. *)
let network_model cfg d =
  ( {
      Sim.Routing.inputs = d.inputs;
      topology = d.topo;
      mw_gbps = Sim.Builder.provisioned_mw_gbps d.plan;
      fiber_gbps = Sim.Builder.default_config.Sim.Builder.fiber_gbps;
    },
    Traffic.Matrix.scale_to_gbps d.inputs.Inputs.traffic ~aggregate_gbps:cfg.gbps )

(* The scenario suite as cisp_cli runs it, with the hurricane aimed at
   the middle of the deployment. *)
let scenarios cfg seeds d =
  let model, demands = network_model cfg d in
  let sites = d.inputs.Inputs.sites in
  let mean f =
    Array.fold_left (fun acc c -> acc +. f c.Data.City.coord) 0.0 sites
    /. float_of_int (Array.length sites)
  in
  let hurricane_center =
    Geo.Coord.make ~lat:(mean (fun c -> c.Geo.Coord.lat)) ~lon:(mean (fun c -> c.Geo.Coord.lon))
  in
  let suite = Weather.Scenarios.standard_suite ~intervals:32 ~climate ~hurricane_center () in
  let schemes = Weather.Scenarios.default_schemes ~k:3 in
  let results =
    List.map
      (fun spec ->
        timed "weather" ("scenario." ^ Weather.Scenarios.spec_name spec) (fun () ->
            Weather.Scenarios.run ~seed:seeds.weather ~schemes ~hops:d.hops ~model
              ~demands_gbps:demands spec))
      suite
  in
  ((), [ ("frontier_csv", Str (Weather.Scenarios.frontier_csv results)) ], [])

(* Simulated seconds of UDP traffic per packet simulation; the engine
   then drains for another 0.2 s as in the Fig 5 bench. *)
let sim_stop_s = 0.010

(* Packet-level simulation at the design load over the population
   matrix perturbed at gamma = 0.3 (paper Fig 5), shortest-path
   routing, open-loop Poisson UDP sources. *)
let packet_sim cfg seeds d =
  let model, _ = network_model cfg d in
  let demands =
    Traffic.Matrix.scale_to_gbps
      (Traffic.Perturb.population d.inputs.Inputs.sites ~gamma:0.3 ~seed:seeds.perturb)
      ~aggregate_gbps:cfg.gbps
  in
  let paths =
    timed "sim" "routing" (fun () ->
        Sim.Routing.paths model Sim.Routing.Shortest_path ~demands_gbps:demands)
  in
  let eng = Sim.Engine.create () in
  let net =
    timed "sim" "build" (fun () ->
        Sim.Builder.build eng d.inputs d.topo ~mw_gbps:model.Sim.Routing.mw_gbps)
  in
  timed "sim" "run" (fun () ->
      Sim.Udp.poisson_commodities net ~paths ~demands_gbps:demands ~packet_bytes:500 ~start:0.0
        ~stop:sim_stop_s;
      Sim.Engine.run eng ~until:(sim_stop_s +. 0.2);
      Sim.Net.flush_telemetry net);
  let sent, delivered, dropped =
    List.fold_left
      (fun (s, dl, dr) (_, f) -> (s + f.Sim.Net.sent, dl + f.Sim.Net.delivered, dr + f.Sim.Net.dropped))
      (0, 0, 0) (Sim.Net.all_flow_stats net)
  in
  ( (),
    [
      ("sent", Int sent);
      ("delivered", Int delivered);
      ("dropped", Int dropped);
      ("mean_delay_ms", Num (Sim.Net.mean_delay_ms net));
      ("loss_rate", Num (Sim.Net.loss_rate net));
    ],
    [ ("events", Int (Sim.Engine.events_processed eng)) ] )

(* ---------- runs ---------- *)

(* A workload is its set-up and one cycle of timed operations on what
   the set-up built.  Design workloads set up the generated inputs and
   time one cold design; operate-us sets up a whole design and times
   the weather year, the scenario suite and a packet simulation on
   it. *)
type workload = {
  cfg : config;
  setup : seeds -> (unit -> unit) option;
      (* runs one set-up op; returns the cycle to time, if it succeeded *)
  cold : bool;  (* a cycle consumes its set-up's fresh cache *)
}

let design_workload cfg =
  {
    cfg;
    setup =
      (fun seeds ->
        Option.map
          (fun g () -> ignore (run_op "design" (fun () -> design cfg g)))
          (run_op "setup" (fun () -> generate cfg seeds)));
    cold = true;
  }

let operate_workload cfg =
  {
    cfg;
    setup =
      (fun seeds ->
        let built =
          run_op "setup" (fun () ->
              let g, _, _ = generate cfg seeds in
              design cfg g)
        in
        Option.map
          (fun d () ->
            ignore (run_op "year" (fun () -> weather_year seeds d));
            ignore (run_op "scenarios" (fun () -> scenarios cfg seeds d));
            ignore (run_op "sim" (fun () -> packet_sim cfg seeds d)))
          built);
    cold = false;
  }

let workloads =
  [
    ("design-us", design_workload design_us);
    ("design-eu", design_workload design_eu);
    ("operate-us", operate_workload operate_us);
  ]

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A timed step's wall and CPU seconds.  At pool width 1 the program
   runs on one thread, so its CPU time is its wall time less the time
   the hypervisor gave the vCPU to other guests (steal), which on
   shared hosts reaches a third of a run.  Each step starts from a
   collected heap, so that neither its time nor the peak memory depends
   on how much garbage the steps before it left behind; the collection
   is not timed. *)
type timing = { wall : float; cpu : float }

let time_it f =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () and c0 = cpu_now () in
  f ();
  { wall = Unix.gettimeofday () -. t0; cpu = cpu_now () -. c0 }

(* An untraced run: [setup_reps] set-ups, then cycles until [seconds]
   of timed work (at least one).  Each later cycle of a cold workload
   gets a set-up of its own. *)
let measure w seeds ~seconds =
  let setup_s = ref [] and cycle_s = ref [] in
  let setup () =
    let cycle = ref None in
    setup_s := time_it (fun () -> cycle := w.setup seeds) :: !setup_s;
    !cycle
  in
  let last = ref None in
  for _ = 1 to w.cfg.setup_reps do
    match setup () with Some c -> last := Some c | None -> ()
  done;
  let spent = ref 0.0 in
  let rec loop cycle =
    match cycle with
    | None -> ()
    | Some c ->
      let dt = time_it c in
      cycle_s := dt :: !cycle_s;
      spent := !spent +. dt.wall;
      if !spent < seconds then loop (if w.cold then setup () else cycle)
  in
  loop !last;
  (List.rev !setup_s, List.rev !cycle_s)

(* One set-up and one cycle, run inside [wrap]. *)
let one_pass w seeds ~wrap = time_it (fun () -> wrap (fun () -> Option.iter (fun c -> c ()) (w.setup seeds)))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let out = ref "" and trace = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--out", Arg.Set_string out, "FILE record");
      ("--trace", Arg.Set_string trace, "FILE trace the run into FILE");
    ]
    (fun a -> raise (Arg.Bad a))
    "pipeline.exe --workload W --seed N --seconds S --out FILE [--trace FILE]";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ !workload)
  in
  if !out = "" then invalid_arg "--out is required";
  Util.Pool.set_default_jobs 1;
  let seeds = seeds_of !seed in
  let calib0 = calibrate () in
  let timing =
    if !trace = "" then
      let setup_s, cycle_s = measure w seeds ~seconds:!seconds in
      let series name f xs = (name, Arr (List.map (fun x -> Num (f x)) xs)) in
      [
        series "setup_cpu_s" (fun t -> t.cpu) setup_s;
        series "setup_wall_s" (fun t -> t.wall) setup_s;
        series "cycle_cpu_s" (fun t -> t.cpu) cycle_s;
        series "cycle_wall_s" (fun t -> t.wall) cycle_s;
      ]
    else begin
      (* The same set-up and cycle twice: first traced, inside one root
         span, for the per-layer figures; then untraced, for the
         tracing overhead. *)
      Telemetry.enable_trace !trace;
      let traced = one_pass w seeds ~wrap:(Telemetry.with_span "bench.run") in
      Telemetry.write_trace ();
      let traced_calls = !calls in
      let figures =
        [
          ( "counters",
            Obj
              (List.map
                 (fun c -> (c, Int (Telemetry.counter c)))
                 [ "hops.los_tests"; "hops.feasible_hops"; "ch.shortcuts"; "apsp.sources"; "sim.events" ]) );
          ( "spans",
            Obj (List.map (fun s -> (s, Num (Telemetry.span_total_s s))) [ "hops.tower_los"; "ch.build" ]) );
        ]
      in
      Telemetry.reset ();
      let untraced = one_pass w seeds ~wrap:(fun f -> f ()) in
      calls := traced_calls;
      ("untraced_cpu_s", Num untraced.cpu) :: ("traced_cpu_s", Num traced.cpu) :: figures
    end
  in
  let calib1 = calibrate () in
  let gc = Gc.quick_stat () in
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let op_json o =
    Obj
      [
        ("op", Str o.op);
        ("wall_s", Num o.op_wall_s);
        ("outputs", Obj o.outputs);
        ("stats", Obj o.stats);
        ("error", match o.error with Some e -> Str e | None -> Str "");
      ]
  in
  let call_json c =
    Obj
      [
        ("name", Str c.name);
        ("wall_s", Num c.wall_s);
        ("minor_words", Num c.minor_words);
        ("major_gcs", Int c.major_gcs);
      ]
  in
  let record =
    Obj
      ([
         ("workload", Str !workload);
         ("seed", Int !seed);
         ("jobs", Int (Util.Pool.default_jobs ()));
         ("ocaml", Str Sys.ocaml_version);
         ("calib_s", Arr [ Num calib0; Num calib1 ]);
         ("ops", Arr (List.rev_map op_json !ops));
         ("calls", Arr (List.rev_map call_json !calls));
         ("peak_rss_mb", Num (peak_rss_mb ()));
         ("top_heap_mb", Num (float_of_int gc.Gc.top_heap_words *. word_mb));
       ]
      @ timing)
  in
  let b = Buffer.create 65536 in
  emit b record;
  Out_channel.with_open_text !out (fun oc -> Buffer.output_buffer oc b)
