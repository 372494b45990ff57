open Cisp_terrain

let coord = Cisp_geo.Coord.make
let check_float eps = Alcotest.(check (float eps))

(* ---------- Noise ---------- *)

let test_noise_deterministic () =
  let a = Noise.value ~seed:1 3.7 (-2.2) in
  let b = Noise.value ~seed:1 3.7 (-2.2) in
  check_float 0.0 "same inputs same output" a b

let test_noise_seed_sensitivity () =
  let a = Noise.value ~seed:1 3.7 2.2 in
  let b = Noise.value ~seed:2 3.7 2.2 in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

let test_noise_range () =
  let rng = Cisp_util.Rng.create 5 in
  for _ = 1 to 2000 do
    let x = Cisp_util.Rng.uniform rng (-50.0) 50.0 in
    let y = Cisp_util.Rng.uniform rng (-50.0) 50.0 in
    let v = Noise.value ~seed:3 x y in
    Alcotest.(check bool) "in [-1,1]" true (v >= -1.0 && v <= 1.0);
    let f = Noise.fbm ~seed:3 ~octaves:5 ~lacunarity:2.0 ~gain:0.5 x y in
    Alcotest.(check bool) "fbm bounded" true (f >= -1.2 && f <= 1.2);
    let r = Noise.ridged ~seed:3 ~octaves:4 x y in
    Alcotest.(check bool) "ridged in [0,1]" true (r >= 0.0 && r <= 1.0)
  done

let test_noise_continuity () =
  (* Small input change -> small output change. *)
  let a = Noise.value ~seed:7 10.0 10.0 in
  let b = Noise.value ~seed:7 10.0001 10.0 in
  Alcotest.(check bool) "continuous" true (Float.abs (a -. b) < 0.01)

let test_fbm_matches_value_spec () =
  (* [Noise.fbm] hand-inlines the lattice hash and bilinear blend for
     speed; [Noise.value] remains the single-octave specification.
     The two must agree bit-for-bit. *)
  let spec ~seed ~octaves ~lacunarity ~gain x y =
    let rec loop i freq amp sum norm =
      if i >= octaves then sum /. norm
      else begin
        let v = Noise.value ~seed:(seed + i) (x *. freq) (y *. freq) in
        loop (i + 1) (freq *. lacunarity) (amp *. gain) (sum +. (amp *. v)) (norm +. amp)
      end
    in
    loop 0 1.0 1.0 0.0 0.0
  in
  let rng = Cisp_util.Rng.create 21 in
  for _ = 1 to 500 do
    let x = Cisp_util.Rng.uniform rng (-400.0) 400.0 in
    let y = Cisp_util.Rng.uniform rng (-200.0) 200.0 in
    let octaves = 1 + Cisp_util.Rng.int rng 6 in
    let fast = Noise.fbm ~seed:9 ~octaves ~lacunarity:2.1 ~gain:0.5 x y in
    let slow = spec ~seed:9 ~octaves ~lacunarity:2.1 ~gain:0.5 x y in
    Alcotest.(check int64)
      (Printf.sprintf "fbm(%g, %g) octaves=%d" x y octaves)
      (Int64.bits_of_float slow) (Int64.bits_of_float fast)
  done

(* ---------- Dem ---------- *)

let us = Dem.create Dem.Us_continental

let test_dem_deterministic () =
  let p = coord ~lat:39.0 ~lon:(-98.0) in
  let dem2 = Dem.create Dem.Us_continental in
  check_float 0.0 "same seed same elevation" (Dem.elevation_m us p) (Dem.elevation_m dem2 p)

let test_dem_nonnegative () =
  let rng = Cisp_util.Rng.create 6 in
  for _ = 1 to 500 do
    let p =
      coord
        ~lat:(Cisp_util.Rng.uniform rng 25.0 49.0)
        ~lon:(Cisp_util.Rng.uniform rng (-124.0) (-67.0))
    in
    Alcotest.(check bool) "elevation >= 0" true (Dem.elevation_m us p >= 0.0);
    Alcotest.(check bool) "clutter >= 0" true (Dem.clutter_m us p >= 0.0);
    Alcotest.(check bool) "surface >= elevation" true
      (Dem.surface_m us p >= Dem.elevation_m us p)
  done

let test_dem_mountains_higher_than_plains () =
  let rockies = coord ~lat:39.5 ~lon:(-106.5) in
  let kansas = coord ~lat:38.5 ~lon:(-98.0) in
  let e_r = Dem.elevation_m us rockies and e_k = Dem.elevation_m us kansas in
  Alcotest.(check bool)
    (Printf.sprintf "rockies (%.0f) > kansas (%.0f)" e_r e_k)
    true (e_r > e_k +. 500.0)

let test_dem_west_ramp () =
  let denver = coord ~lat:39.74 ~lon:(-104.98) in
  let stlouis = coord ~lat:38.63 ~lon:(-90.20) in
  Alcotest.(check bool) "denver above st louis" true
    (Dem.elevation_m us denver > Dem.elevation_m us stlouis +. 400.0)

let test_dem_profile () =
  let a = coord ~lat:39.0 ~lon:(-100.0) and b = coord ~lat:39.0 ~lon:(-99.0) in
  let prof = Dem.profile us a b ~step_km:1.0 in
  Alcotest.(check bool) "enough samples" true (Array.length prof >= 80);
  let d0, _ = prof.(0) in
  let dn, _ = prof.(Array.length prof - 1) in
  check_float 1e-6 "starts at 0" 0.0 d0;
  check_float 0.5 "ends at distance" (Cisp_geo.Geodesy.distance_km a b) dn;
  (* distances strictly increasing *)
  let mono = ref true in
  for i = 0 to Array.length prof - 2 do
    if fst prof.(i) >= fst prof.(i + 1) then mono := false
  done;
  Alcotest.(check bool) "monotone distances" true !mono

let test_dem_ruggedness () =
  let rockies = coord ~lat:39.5 ~lon:(-106.5) in
  let kansas = coord ~lat:38.5 ~lon:(-98.0) in
  Alcotest.(check bool) "rockies more rugged" true
    (Dem.ruggedness us rockies > 3.0 *. Dem.ruggedness us kansas)

let test_dem_flat_region () =
  let flat = Dem.create ~seed:9 Dem.Flat in
  let rng = Cisp_util.Rng.create 10 in
  for _ = 1 to 200 do
    let p =
      coord
        ~lat:(Cisp_util.Rng.uniform rng 30.0 45.0)
        ~lon:(Cisp_util.Rng.uniform rng (-110.0) (-80.0))
    in
    let e = Dem.elevation_m flat p in
    Alcotest.(check bool) "flat stays low" true (e >= 0.0 && e < 300.0)
  done

(* ---------- Dem_cache ---------- *)

let test_cache_consistency () =
  let cache = Dem_cache.create us in
  let p = coord ~lat:40.0 ~lon:(-95.0) in
  let v1 = Dem_cache.surface_m cache p in
  let v2 = Dem_cache.surface_m cache p in
  check_float 0.0 "stable across queries" v1 v2;
  let hits, misses = Dem_cache.stats cache in
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "one miss" 1 misses

let test_cache_accuracy () =
  (* Cached value equals the DEM within the quantization cell's relief. *)
  let cache = Dem_cache.create us in
  let rng = Cisp_util.Rng.create 11 in
  for _ = 1 to 200 do
    let p =
      coord
        ~lat:(Cisp_util.Rng.uniform rng 30.0 45.0)
        ~lon:(Cisp_util.Rng.uniform rng (-110.0) (-80.0))
    in
    let cached = Dem_cache.surface_m cache p in
    let exact = Dem.surface_m us p in
    Alcotest.(check bool) "within 60m" true (Float.abs (cached -. exact) < 60.0)
  done

let test_cache_ground_vs_surface () =
  let cache = Dem_cache.create us in
  let p = coord ~lat:41.0 ~lon:(-93.0) in
  Alcotest.(check bool) "surface >= ground" true
    (Dem_cache.surface_m cache p >= Dem_cache.elevation_m cache p)

let random_point rng =
  coord
    ~lat:(Cisp_util.Rng.uniform rng 30.0 45.0)
    ~lon:(Cisp_util.Rng.uniform rng (-110.0) (-80.0))

let test_cache_hit_miss_counters () =
  let cache = Dem_cache.create us in
  (* 0.1 degrees apart >> the ~0.0036 degree cell, so all distinct. *)
  let pts = List.init 50 (fun i -> coord ~lat:(32.0 +. (0.1 *. float_of_int i)) ~lon:(-101.3)) in
  List.iter (fun p -> ignore (Dem_cache.surface_m cache p)) pts;
  Alcotest.(check (pair int int)) "first pass all misses" (0, 50) (Dem_cache.stats cache);
  List.iter (fun p -> ignore (Dem_cache.surface_m cache p)) pts;
  Alcotest.(check (pair int int)) "second pass all hits" (50, 50) (Dem_cache.stats cache);
  (* A different raw query landing in an already-computed cell is a hit. *)
  ignore (Dem_cache.surface_m cache (coord ~lat:32.0001 ~lon:(-101.3001)));
  Alcotest.(check (pair int int)) "same cell, different point" (51, 50) (Dem_cache.stats cache)

let test_cache_cell_center_purity () =
  (* Every value the cache returns is the DEM evaluated at the cell's
     own center ([snap]), never at the query point that happened to
     touch the cell first. *)
  let cache = Dem_cache.create us in
  let rng = Cisp_util.Rng.create 32 in
  for _ = 1 to 200 do
    let p = random_point rng in
    let c = Dem_cache.snap p in
    Alcotest.(check int64) "surface = surface at cell center"
      (Int64.bits_of_float (Dem.surface_m us c))
      (Int64.bits_of_float (Dem_cache.surface_m cache p));
    Alcotest.(check int64) "ground = elevation at cell center"
      (Int64.bits_of_float (Dem.elevation_m us c))
      (Int64.bits_of_float (Dem_cache.elevation_m cache p))
  done

(* Bitwise: the cache returned the DEM's surface at the cell center. *)
let check_cell_value msg p v =
  Alcotest.(check int64) msg
    (Int64.bits_of_float (Dem.surface_m us (Dem_cache.snap p)))
    (Int64.bits_of_float v)

let test_cache_order_independence () =
  (* Returned heights are a pure function of the cell — query order
     must not matter. *)
  let rng = Cisp_util.Rng.create 33 in
  let pts = List.init 300 (fun _ -> random_point rng) in
  let fill order =
    let cache = Dem_cache.create us in
    List.map (fun p -> Int64.bits_of_float (Dem_cache.surface_m cache p)) order
  in
  Alcotest.(check (list int64)) "forward and reverse fills agree" (fill pts)
    (List.rev (fill (List.rev pts)))

let parallel_point i =
  let f = float_of_int (i mod 1900) /. 1900.0 in
  coord ~lat:(30.0 +. (15.0 *. f)) ~lon:(-110.0 +. (30.0 *. Float.rem (f *. 37.0) 1.0))

let test_cache_width_invariance () =
  (* The determinism claim at the cache level: a parallel sweep returns
     the cell-center height for every query at any domain count, and
     the summed stats account for every query.  Each width gets a
     fresh cache; slight overlap between indices makes domains miss on
     common cells. *)
  let n = 2000 in
  List.iter
    (fun jobs ->
      let pool = Cisp_util.Pool.create ~jobs in
      Fun.protect
        ~finally:(fun () -> Cisp_util.Pool.shutdown pool)
        (fun () ->
          let cache = Dem_cache.create us in
          let surface = Float.Array.create n and ground = Float.Array.create n in
          Cisp_util.Pool.parallel_for pool ~n (fun i ->
              let p = parallel_point i in
              Float.Array.set surface i (Dem_cache.surface_m cache p);
              Float.Array.set ground i (Dem_cache.elevation_m cache p));
          for i = 0 to n - 1 do
            let p = parallel_point i in
            check_cell_value (Printf.sprintf "surface at cell center, jobs=%d" jobs) p
              (Float.Array.get surface i);
            Alcotest.(check int64)
              (Printf.sprintf "ground at cell center, jobs=%d" jobs)
              (Int64.bits_of_float (Dem.elevation_m us (Dem_cache.snap p)))
              (Int64.bits_of_float (Float.Array.get ground i))
          done;
          let hits, misses = Dem_cache.stats cache in
          Alcotest.(check int) (Printf.sprintf "stats cover every query, jobs=%d" jobs) n
            (hits + misses)))
    [ 1; 2; 8 ]

(* The memo's slot function, restated: [slot_collision] searches for
   two cells that share a slot, and its miss counts fail if this copy
   drifts from lib/terrain/dem_cache.ml. *)
let memo_slot qi qj =
  let key = ((qi + 0x40000) lsl 20) lor (qj + 0x80000) in
  (((key * 0x2545F4914F6CDD1D) land max_int) lsr 42) land ((1 lsl 20) - 1)

let test_cache_slot_collision () =
  (* Two cells in one direct-mapped slot evict each other: queried
     alternately, every lookup misses, and each still returns its own
     cell-center value — never the other cell's. *)
  let qi0 = 40 * 276 and qj0 = -95 * 276 in
  let target = memo_slot qi0 qj0 in
  let rec search qi qj =
    if qi >= qi0 + 2048 then Alcotest.fail "no colliding cell in the search box"
    else if qj >= qj0 + 2048 then search (qi + 1) qj0
    else if (qi <> qi0 || qj <> qj0) && memo_slot qi qj = target then (qi, qj)
    else search qi (qj + 1)
  in
  let qi1, qj1 = search qi0 (qj0 + 1) in
  let center qi qj = coord ~lat:(float_of_int qi /. 276.0) ~lon:(float_of_int qj /. 276.0) in
  let a = center qi0 qj0 and b = center qi1 qj1 in
  Alcotest.(check bool) "the two cells' heights differ" false
    (Float.equal (Dem.surface_m us a) (Dem.surface_m us b));
  let cache = Dem_cache.create us in
  for round = 1 to 2 do
    check_cell_value (Printf.sprintf "first cell, round %d" round) a (Dem_cache.surface_m cache a);
    check_cell_value (Printf.sprintf "second cell, round %d" round) b (Dem_cache.surface_m cache b);
    Alcotest.(check (pair int int))
      (Printf.sprintf "round %d all misses" round)
      (0, 2 * round) (Dem_cache.stats cache)
  done

let test_cache_alternating_owners () =
  (* Two caches over different DEMs share this domain's memo, taking
     it over in turn: each lookup returns its own DEM's cell-center
     height, never the other cache's, and each cache's stats count
     exactly its own lookups. *)
  let other = Dem.create ~seed:11 Dem.Us_continental in
  let a = Dem_cache.create us and b = Dem_cache.create other in
  let p = coord ~lat:39.5 ~lon:(-105.2) in
  Alcotest.(check bool) "the two DEMs differ at the cell" false
    (Float.equal (Dem.surface_m us (Dem_cache.snap p)) (Dem.surface_m other (Dem_cache.snap p)));
  for round = 1 to 3 do
    check_cell_value (Printf.sprintf "first cache, round %d" round) p (Dem_cache.surface_m a p);
    Alcotest.(check int64)
      (Printf.sprintf "second cache, round %d" round)
      (Int64.bits_of_float (Dem.surface_m other (Dem_cache.snap p)))
      (Int64.bits_of_float (Dem_cache.surface_m b p))
  done;
  (* Every takeover empties the memo, so every lookup above missed. *)
  Alcotest.(check (pair int int)) "first cache's stats" (0, 3) (Dem_cache.stats a);
  Alcotest.(check (pair int int)) "second cache's stats" (0, 3) (Dem_cache.stats b);
  ignore (Dem_cache.surface_m b p);
  Alcotest.(check (pair int int)) "owner's repeat lookup hits" (1, 3) (Dem_cache.stats b)

let test_cache_dropped_memo () =
  (* A domain has one memo whichever caches it serves: four caches
     created, used once and dropped in turn grow the live heap by at
     most one memo (the first use on a domain that has none yet), not
     one memo per cache.  Each memo's keys are an int array and its
     heights a floatarray, 2^20 slots each. *)
  let memo_words = 2 * (1 lsl 20) in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let use_one_cache i =
    let cache = Dem_cache.create us in
    ignore (Dem_cache.surface_m cache (coord ~lat:(30.0 +. float_of_int i) ~lon:(-100.0)))
  in
  let before = live_words () in
  for i = 1 to 4 do
    use_one_cache i
  done;
  let grown = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew %d words; one memo is %d" grown memo_words)
    true
    (grown <= memo_words + (memo_words / 2))

let test_cache_telemetry_stress () =
  (* 8 domains race their memos' miss paths while hammering telemetry:
     counter totals stay exact, cache stats stay coherent (every query
     lands in hits or misses), and every returned height matches a
     sequential fill bit for bit. *)
  let n = 4096 in
  let sweep jobs =
    Cisp_util.Telemetry.reset ();
    Cisp_util.Telemetry.enable_metrics ();
    Fun.protect ~finally:Cisp_util.Telemetry.reset (fun () ->
        let pool = Cisp_util.Pool.create ~jobs in
        Fun.protect
          ~finally:(fun () -> Cisp_util.Pool.shutdown pool)
          (fun () ->
            let cache = Dem_cache.create us in
            let heights = Array.make n 0L in
            Cisp_util.Pool.parallel_for pool ~n (fun i ->
                let f = float_of_int (i mod 997) /. 997.0 in
                let lat = 30.0 +. (15.0 *. f) in
                let lon = -110.0 +. (30.0 *. Float.rem (f *. 37.0) 1.0) in
                heights.(i) <- Int64.bits_of_float (Dem_cache.surface_m cache (coord ~lat ~lon));
                Cisp_util.Telemetry.incr "stress.queries";
                Cisp_util.Telemetry.observe "stress.lat_deg" lat);
            let hits, misses = Dem_cache.stats cache in
            ( hits + misses,
              Cisp_util.Telemetry.counter "stress.queries",
              Array.length (Cisp_util.Telemetry.samples "stress.lat_deg"),
              heights )))
  in
  let q1, c1, s1, h1 = sweep 1 in
  let q8, c8, s8, h8 = sweep 8 in
  Alcotest.(check int) "sequential stats cover every query" n q1;
  Alcotest.(check int) "parallel stats cover every query" n q8;
  Alcotest.(check int) "counter exact at jobs=1" n c1;
  Alcotest.(check int) "counter exact at jobs=8" n c8;
  Alcotest.(check int) "every observation lands at jobs=1" n s1;
  Alcotest.(check int) "every observation lands at jobs=8" n s8;
  Alcotest.(check bool) "heights bit-identical to sequential" true (h1 = h8)

let suites =
  [
    ( "terrain.noise",
      [
        Alcotest.test_case "deterministic" `Quick test_noise_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_noise_seed_sensitivity;
        Alcotest.test_case "range" `Quick test_noise_range;
        Alcotest.test_case "continuity" `Quick test_noise_continuity;
        Alcotest.test_case "fbm matches value spec" `Quick test_fbm_matches_value_spec;
      ] );
    ( "terrain.dem",
      [
        Alcotest.test_case "deterministic" `Quick test_dem_deterministic;
        Alcotest.test_case "nonnegative" `Quick test_dem_nonnegative;
        Alcotest.test_case "mountains higher" `Quick test_dem_mountains_higher_than_plains;
        Alcotest.test_case "west ramp" `Quick test_dem_west_ramp;
        Alcotest.test_case "profile" `Quick test_dem_profile;
        Alcotest.test_case "ruggedness" `Quick test_dem_ruggedness;
        Alcotest.test_case "flat region" `Quick test_dem_flat_region;
      ] );
    ( "terrain.cache",
      [
        Alcotest.test_case "consistency" `Quick test_cache_consistency;
        Alcotest.test_case "accuracy" `Quick test_cache_accuracy;
        Alcotest.test_case "ground vs surface" `Quick test_cache_ground_vs_surface;
        Alcotest.test_case "hit/miss counters" `Quick test_cache_hit_miss_counters;
        Alcotest.test_case "cell-center purity" `Quick test_cache_cell_center_purity;
        Alcotest.test_case "order independence" `Quick test_cache_order_independence;
        Alcotest.test_case "width invariance" `Slow test_cache_width_invariance;
        Alcotest.test_case "slot collision" `Quick test_cache_slot_collision;
        Alcotest.test_case "alternating owners" `Quick test_cache_alternating_owners;
        Alcotest.test_case "dropped caches free their memo" `Quick
          test_cache_dropped_memo;
        Alcotest.test_case "telemetry stress at jobs 8" `Slow
          test_cache_telemetry_stress;
      ] );
  ]
