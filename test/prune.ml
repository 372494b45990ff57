(* Test oracle: searches on pruned copies, the direct algorithm that
   [Cisp_graph.Dijkstra.shortest_path_filtered] replaces.  The graph
   property in test_graph.ml and the disjoint-table oracle in
   test_replay.ml compare the filtered searches against these. *)

module Graph = Cisp_graph.Graph

(* A copy of [g] holding only the edges [keep] accepts.  [Graph.succ]
   lists a node's edges newest first, so re-adding the survivors
   oldest first gives the copy the same adjacency order. *)
let prune g keep =
  let n = Graph.node_count g in
  let copy = Graph.create n in
  for u = 0 to n - 1 do
    List.iter
      (fun (e : Graph.edge) ->
        if keep e then Graph.add_edge ~tag:e.Graph.tag copy u e.Graph.dst e.Graph.weight)
      (List.rev (Graph.succ g u))
  done;
  copy

(* Up to [k] successive shortest paths: each round runs Dijkstra on a
   working copy, hands the path to [consume], then prunes the copy of
   every edge [keep] now rejects.  Stops early when [dst] becomes
   unreachable. *)
let successive g ~src ~dst ~k ~consume ~keep =
  let rec loop work remaining acc =
    if remaining = 0 then List.rev acc
    else
      match Cisp_graph.Dijkstra.shortest_path work ~src ~dst with
      | None -> List.rev acc
      | Some found ->
        consume found;
        loop (prune work keep) (remaining - 1) (found :: acc)
  in
  loop g k []
