open Cisp_graph

let check_float eps = Alcotest.(check (float eps))

(* ---------- Iheap ---------- *)

let drain_keys h =
  let rec go acc =
    if Iheap.length h = 0 then List.rev acc
    else begin
      let k = Iheap.min_key h in
      ignore (Iheap.pop_min h);
      go (k :: acc)
    end
  in
  go []

let test_heap_order () =
  let h = Iheap.create () in
  List.iter (fun k -> Iheap.push h k (int_of_float k)) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (drain_keys h)

(* [min_key] is the peek: it reads the smallest key without popping.
   Draining with [pop_min] empties the heap. *)
let test_heap_peek_clear () =
  let h = Iheap.create () in
  Iheap.push h 2.0 20;
  Iheap.push h 1.0 10;
  check_float 0.0 "peek key" 1.0 (Iheap.min_key h);
  Alcotest.(check int) "length after peek" 2 (Iheap.length h);
  Alcotest.(check int) "min payload" 10 (Iheap.pop_min h);
  Alcotest.(check int) "next payload" 20 (Iheap.pop_min h);
  Alcotest.(check int) "empty" 0 (Iheap.length h);
  Alcotest.check_raises "min_key on empty" (Invalid_argument "Iheap.min_key: empty heap")
    (fun () -> ignore (Iheap.min_key h));
  Alcotest.check_raises "pop_min on empty" (Invalid_argument "Iheap.pop_min: empty heap")
    (fun () -> ignore (Iheap.pop_min h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_range 0.0 1000.0))
    (fun keys ->
      let h = Iheap.create () in
      List.iter (fun k -> Iheap.push h k 0) keys;
      drain_keys h = List.sort Float.compare keys)

(* [Iheap] against the sift code of the heap it replaced
   ({!Ref_heap}): interleaved pushes (Some key) and pops (None), keys
   drawn from four values so most pops break a tie.  Payloads number the pushes, so a
   differing tie order shows as a differing payload. *)
let prop_iheap_matches_reference =
  QCheck.Test.make ~name:"iheap pops ties like the reference heap" ~count:500
    QCheck.(list (option (map float_of_int (int_range 0 3))))
    (fun ops ->
      let a = Iheap.create () and b = Ref_heap.create () in
      let pushed = ref 0 in
      let same = ref true in
      let pop_both () =
        match Ref_heap.pop b with
        | None -> if Iheap.length a <> 0 then same := false
        | Some (k, v) ->
          if Iheap.length a = 0 then same := false
          else begin
            let k' = Iheap.min_key a in
            let v' = Iheap.pop_min a in
            if not (Float.equal k k' && v = v') then same := false
          end
      in
      List.iter
        (function
          | Some k ->
            Iheap.push a k !pushed;
            Ref_heap.push b k !pushed;
            incr pushed
          | None -> pop_both ())
        ops;
      while !same && (Iheap.length a > 0 || Ref_heap.length b > 0) do
        pop_both ()
      done;
      !same)

(* ---------- Graph / Dijkstra ---------- *)

(*   0 --1-- 1 --1-- 2
     |               |
     +------10-------+   *)
let diamond () =
  let g = Graph.create 3 in
  Graph.add_undirected g 0 1 1.0;
  Graph.add_undirected g 1 2 1.0;
  Graph.add_undirected g 0 2 10.0;
  g

let test_dijkstra_basic () =
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  check_float 1e-9 "dist 0->2" 2.0 r.dist.(2);
  Alcotest.(check (list int)) "path" [ 0; 1; 2 ] (Dijkstra.path r ~dst:2)

let test_dijkstra_unreachable () =
  let g = Graph.create 3 in
  Graph.add_undirected g 0 1 1.0;
  let r = Dijkstra.run g ~src:0 in
  Alcotest.(check bool) "unreachable" true (r.dist.(2) = infinity);
  Alcotest.(check (list int)) "no path" [] (Dijkstra.path r ~dst:2);
  Alcotest.(check bool) "route none" true (Dijkstra.route r ~dst:2 = None);
  Alcotest.(check bool) "shortest_path none" true (Dijkstra.shortest_path g ~src:0 ~dst:2 = None)

let test_dijkstra_early_exit () =
  let g = diamond () in
  match Dijkstra.shortest_path g ~src:0 ~dst:2 with
  | Some (d, path) ->
    check_float 1e-9 "dist" 2.0 d;
    Alcotest.(check (list int)) "path" [ 0; 1; 2 ] path
  | None -> Alcotest.fail "expected path"

let test_all_pairs () =
  let g = diamond () in
  let d = Dijkstra.all_pairs g in
  check_float 1e-9 "0->2" 2.0 d.(0).(2);
  check_float 1e-9 "2->0" 2.0 d.(2).(0);
  check_float 1e-9 "diag" 0.0 d.(1).(1)

(* Rejecting the edges into node 1 reroutes over the long edge, on the
   filtered search and on a pruned copy alike. *)
let test_graph_remove_edges () =
  let g = diamond () in
  let keep (e : Graph.edge) = e.Graph.dst <> 1 in
  (match Dijkstra.shortest_path_filtered g ~keep ~src:0 ~dst:2 with
  | Some (d, path) ->
    check_float 1e-9 "reroutes over long edge" 10.0 d;
    Alcotest.(check (list int)) "direct path" [ 0; 2 ] path
  | None -> Alcotest.fail "expected path");
  let r = Dijkstra.run (Prune.prune g keep) ~src:0 in
  check_float 1e-9 "pruned copy agrees" 10.0 r.dist.(2)

let test_graph_tags () =
  let g = Graph.create 2 in
  Graph.add_edge ~tag:42 g 0 1 1.0;
  match Graph.succ g 0 with
  | [ e ] -> Alcotest.(check int) "tag" 42 e.Graph.tag
  | _ -> Alcotest.fail "expected one edge"

(* Random graph: dijkstra distance <= length of any sampled random walk. *)
let prop_dijkstra_lower_bound =
  QCheck.Test.make ~name:"dijkstra is a lower bound over random walks" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Cisp_util.Rng.create seed in
      let n = 12 in
      let g = Graph.create n in
      for _ = 1 to 30 do
        let u = Cisp_util.Rng.int rng n and v = Cisp_util.Rng.int rng n in
        if u <> v then Graph.add_undirected g u v (Cisp_util.Rng.uniform rng 1.0 10.0)
      done;
      let r = Dijkstra.run g ~src:0 in
      (* random walk from 0 of up to 8 steps *)
      let rec walk u len steps =
        if steps = 0 then true
        else begin
          match Graph.succ g u with
          | [] -> true
          | edges ->
            let e = List.nth edges (Cisp_util.Rng.int rng (List.length edges)) in
            let len = len +. e.Graph.weight in
            r.dist.(e.Graph.dst) <= len +. 1e-9 && walk e.Graph.dst len (steps - 1)
        end
      in
      walk 0 0.0 8)

(* [shortest_path_filtered] against [shortest_path] on a pruned copy,
   bit for bit, to every destination.  Directed edges with integer
   weights in [1, 4] make ties common, so equal paths also pin the tie
   order.  [keep] rejects by tag (the disjoint route tables' policy) or
   by destination node (Fig 4b's consumed towers). *)
let prop_filtered_equals_pruned =
  QCheck.Test.make ~name:"filtered search equals dijkstra on a pruned copy" ~count:300
    QCheck.(pair small_int bool)
    (fun (seed, by_node) ->
      let rng = Cisp_util.Rng.create seed in
      let n = 10 and tags = 8 in
      let g = Graph.create n in
      for _ = 1 to 36 do
        let u = Cisp_util.Rng.int rng n and v = Cisp_util.Rng.int rng n in
        if u <> v then
          Graph.add_edge ~tag:(Cisp_util.Rng.int rng tags) g u v
            (float_of_int (1 + Cisp_util.Rng.int rng 4))
      done;
      let rejected = Array.init (if by_node then n else tags) (fun _ -> Cisp_util.Rng.int rng 4 = 0) in
      let keep (e : Graph.edge) = not rejected.(if by_node then e.Graph.dst else e.Graph.tag) in
      let pruned = Prune.prune g keep in
      let src = seed mod n in
      let bits = Option.map (fun (d, path) -> (Int64.bits_of_float d, path)) in
      List.for_all
        (fun dst ->
          bits (Dijkstra.shortest_path_filtered g ~keep ~src ~dst)
          = bits (Dijkstra.shortest_path pruned ~src ~dst))
        (List.init n Fun.id))

(* ---------- successive disjoint paths on the filtered search ---------- *)

(* The successive-paths loop both library callers run (Fig 4b and the
   disjoint route tables): each round reports the shortest path over
   the edges [keep] accepts, then [consume]s it, after which [keep]
   may reject more. *)
let successive g ~src ~dst ~k ~consume ~keep =
  let rec loop remaining acc =
    if remaining = 0 then List.rev acc
    else
      match Dijkstra.shortest_path_filtered g ~keep ~src ~dst with
      | None -> List.rev acc
      | Some found ->
        consume found;
        loop (remaining - 1) (found :: acc)
  in
  loop k []

(* The paper's Fig 4b greedy: each round consumes every unprotected
   interior node of its path, and no later round may enter one. *)
let node_disjoint ?(protected = fun _ -> false) g ~src ~dst ~k =
  let used = Bytes.make (Graph.node_count g) '\000' in
  let consume (_, path) =
    List.iter
      (fun v -> if v <> src && v <> dst && not (protected v) then Bytes.set used v '\001')
      path
  in
  successive g ~src ~dst ~k ~consume ~keep:(fun e -> Bytes.get used e.Graph.dst = '\000')

(* Two parallel 2-hop routes, plus (when [direct]) one expensive
   direct edge. *)
let two_routes ~direct =
  let g = Graph.create 6 in
  Graph.add_undirected g 0 1 1.0;
  Graph.add_undirected g 1 5 1.0;
  Graph.add_undirected g 0 2 2.0;
  Graph.add_undirected g 2 5 2.0;
  if direct then Graph.add_undirected g 0 5 10.0;
  g

let test_disjoint_successive () =
  let ds = List.map fst (node_disjoint (two_routes ~direct:true) ~src:0 ~dst:5 ~k:3) in
  Alcotest.(check (list (float 1e-9))) "lengths grow" [ 2.0; 4.0; 10.0 ] ds;
  let ds = List.map fst (node_disjoint (two_routes ~direct:false) ~src:0 ~dst:5 ~k:5) in
  Alcotest.(check (list (float 1e-9))) "stops when unreachable" [ 2.0; 4.0 ] ds

let test_disjoint_protected () =
  let g = Graph.create 4 in
  Graph.add_undirected g 0 1 1.0;
  Graph.add_undirected g 1 3 1.0;
  Graph.add_undirected g 0 2 5.0;
  Graph.add_undirected g 2 3 5.0;
  (* protecting node 1 keeps the cheap route available forever *)
  let rounds = node_disjoint g ~src:0 ~dst:3 ~k:3 ~protected:(fun v -> v = 1) in
  Alcotest.(check int) "all rounds available" 3 (List.length rounds);
  List.iter (fun (d, _) -> check_float 1e-9 "always cheap" 2.0 d) rounds

let adjacency g =
  List.init (Graph.node_count g) (fun u ->
      List.map (fun (e : Graph.edge) -> (e.dst, e.weight, e.tag)) (Graph.succ g u))

let test_disjoint_preserves_input () =
  let g = diamond () in
  let before = adjacency g in
  ignore (node_disjoint g ~src:0 ~dst:2 ~k:3);
  Alcotest.(check bool) "input untouched" true (adjacency g = before)

let suites =
  [
    ( "graph.heap",
      [
        Alcotest.test_case "pop order" `Quick test_heap_order;
        Alcotest.test_case "peek and clear" `Quick test_heap_peek_clear;
        QCheck_alcotest.to_alcotest prop_heap_sorts;
        QCheck_alcotest.to_alcotest prop_iheap_matches_reference;
      ] );
    ( "graph.dijkstra",
      [
        Alcotest.test_case "basic" `Quick test_dijkstra_basic;
        Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
        Alcotest.test_case "early exit" `Quick test_dijkstra_early_exit;
        Alcotest.test_case "all pairs" `Quick test_all_pairs;
        Alcotest.test_case "remove edges" `Quick test_graph_remove_edges;
        Alcotest.test_case "edge tags" `Quick test_graph_tags;
        QCheck_alcotest.to_alcotest prop_dijkstra_lower_bound;
        QCheck_alcotest.to_alcotest prop_filtered_equals_pruned;
      ] );
    ( "graph.disjoint",
      [
        Alcotest.test_case "successive removal" `Quick test_disjoint_successive;
        Alcotest.test_case "protected nodes" `Quick test_disjoint_protected;
        Alcotest.test_case "input preserved" `Quick test_disjoint_preserves_input;
      ] );
  ]

(* ---------- deeper properties ---------- *)

(* Every edge is tagged with its unordered node pair, so consuming a
   tag consumes all parallel edges between the pair at once — the
   route tables tag their multigraph the same way. *)
let pair_tag n u v = (min u v * n) + max u v

let random_graph seed ~n ~edges =
  let rng = Cisp_util.Rng.create seed in
  let g = Graph.create n in
  for _ = 1 to edges do
    let u = Cisp_util.Rng.int rng n and v = Cisp_util.Rng.int rng n in
    if u <> v then
      Graph.add_undirected ~tag:(pair_tag n u v) g u v (Cisp_util.Rng.uniform rng 1.0 10.0)
  done;
  g

let prop_disjoint_lengths_nondecreasing =
  QCheck.Test.make ~name:"successive disjoint paths never get shorter" ~count:100
    QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 2000) ~n:10 ~edges:24 in
      let rounds = node_disjoint g ~src:0 ~dst:9 ~k:6 in
      let ds = List.map fst rounds in
      List.sort Float.compare ds = ds)

let is_simple p = List.length p = List.length (List.sort_uniq compare p)

let interior p =
  match p with [] | [ _ ] -> [] | _ :: rest -> List.filter ((<>) (List.nth p (List.length p - 1))) rest

let prop_disjoint_paths_simple =
  QCheck.Test.make ~name:"successive disjoint paths are simple" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 4000) ~n:10 ~edges:24 in
      let rounds = node_disjoint g ~src:0 ~dst:9 ~k:6 in
      List.for_all (fun (_, p) -> is_simple p) rounds)

let prop_disjoint_interiors_disjoint =
  QCheck.Test.make ~name:"successive paths share no interior node" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 5000) ~n:10 ~edges:24 in
      let rounds = node_disjoint g ~src:0 ~dst:9 ~k:6 in
      let interiors = List.map (fun (_, p) -> interior p) rounds in
      let rec pairwise = function
        | [] -> true
        | i :: rest ->
          List.for_all (fun j -> List.for_all (fun v -> not (List.mem v j)) i) rest
          && pairwise rest
      in
      pairwise interiors)

let deep_suite =
  ( "graph.properties",
    [
      QCheck_alcotest.to_alcotest prop_disjoint_lengths_nondecreasing;
      QCheck_alcotest.to_alcotest prop_disjoint_paths_simple;
      QCheck_alcotest.to_alcotest prop_disjoint_interiors_disjoint;
    ] )

(* ---------- edge- and node-disjoint modes ---------- *)

type disjointness = Edge_disjoint | Node_disjoint

(* Successive disjoint paths over a pair-tagged graph.  [Edge_disjoint]
   consumes the node pairs each path used; [Node_disjoint] also its
   interior nodes, so a degenerate direct [src]-[dst] edge is consumed
   too. *)
let k_disjoint ?(disjointness = Edge_disjoint) g ~src ~dst ~k =
  let n = Graph.node_count g in
  let pairs = Bytes.make (n * n) '\000' and nodes = Bytes.make n '\000' in
  let rec consume_pairs = function
    | u :: (v :: _ as rest) ->
      Bytes.set pairs (pair_tag n u v) '\001';
      consume_pairs rest
    | _ -> ()
  in
  let consume (_, path) =
    consume_pairs path;
    match disjointness with
    | Edge_disjoint -> ()
    | Node_disjoint ->
      List.iter (fun v -> if v <> src && v <> dst then Bytes.set nodes v '\001') path
  in
  let keep (e : Graph.edge) =
    Bytes.get pairs e.Graph.tag = '\000' && Bytes.get nodes e.Graph.dst = '\000'
  in
  successive g ~src ~dst ~k ~consume ~keep

(* src 0, dst 4: a 2-hop primary through node 1, an edge-disjoint
   detour that reuses node 1 over fresh edges, and an expensive direct
   edge.  Distinguishes the two disjointness modes. *)
let multipath_graph () =
  let g = Graph.create 5 in
  let add u v w = Graph.add_undirected ~tag:(pair_tag 5 u v) g u v w in
  add 0 1 1.0;
  add 1 4 1.0;
  add 0 2 1.0;
  add 2 1 0.5;
  add 1 3 0.5;
  add 3 4 1.0;
  add 0 4 10.0;
  g

let test_multipath_edge_disjoint () =
  let g = multipath_graph () in
  let paths = k_disjoint g ~src:0 ~dst:4 ~k:5 in
  Alcotest.(check (list (float 1e-9))) "edge-disjoint lengths" [ 2.0; 3.0; 10.0 ]
    (List.map fst paths);
  match paths with
  | (_, p1) :: (_, p2) :: _ ->
    Alcotest.(check (list int)) "primary" [ 0; 1; 4 ] p1;
    Alcotest.(check (list int)) "detour reuses node 1" [ 0; 2; 1; 3; 4 ] p2
  | _ -> Alcotest.fail "expected 3 paths"

let test_multipath_node_disjoint () =
  let g = multipath_graph () in
  let paths = k_disjoint ~disjointness:Node_disjoint g ~src:0 ~dst:4 ~k:5 in
  Alcotest.(check (list (float 1e-9))) "node-disjoint lengths" [ 2.0; 10.0 ]
    (List.map fst paths)

let undirected_pairs p =
  List.map (fun (u, v) -> (min u v, max u v))
    (let rec pairs = function u :: (v :: _ as rest) -> (u, v) :: pairs rest | _ -> [] in
     pairs p)

let prop_multipath_edge_disjointness =
  QCheck.Test.make ~name:"k_disjoint paths share no undirected edge" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 7000) ~n:10 ~edges:26 in
      let paths = k_disjoint g ~src:0 ~dst:9 ~k:5 in
      let rec pairwise = function
        | [] -> true
        | (_, p) :: rest ->
          let mine = undirected_pairs p in
          List.for_all
            (fun (_, q) ->
              List.for_all (fun e -> not (List.mem e (undirected_pairs q))) mine)
            rest
          && pairwise rest
      in
      pairwise paths)

let prop_multipath_primary_is_shortest =
  QCheck.Test.make ~name:"k_disjoint primary equals dijkstra" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 8000) ~n:10 ~edges:22 in
      match (k_disjoint g ~src:0 ~dst:9 ~k:3, Dijkstra.shortest_path g ~src:0 ~dst:9) with
      | [], None -> true
      | (d, _) :: _, Some (d', _) -> Float.abs (d -. d') < 1e-9
      | _ -> false)

let prop_multipath_simple_and_monotone =
  QCheck.Test.make ~name:"k_disjoint paths are simple with monotone lengths" ~count:100
    QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 9000) ~n:10 ~edges:24 in
      let paths = k_disjoint g ~src:0 ~dst:9 ~k:5 in
      let ds = List.map fst paths in
      List.for_all (fun (_, p) -> is_simple p) paths && List.sort Float.compare ds = ds)

let multipath_suite =
  ( "graph.multipath",
    [
      Alcotest.test_case "edge-disjoint modes" `Quick test_multipath_edge_disjoint;
      Alcotest.test_case "node-disjoint modes" `Quick test_multipath_node_disjoint;
      QCheck_alcotest.to_alcotest prop_multipath_edge_disjointness;
      QCheck_alcotest.to_alcotest prop_multipath_primary_is_shortest;
      QCheck_alcotest.to_alcotest prop_multipath_simple_and_monotone;
    ] )

let suites = suites @ [ deep_suite; multipath_suite ]
