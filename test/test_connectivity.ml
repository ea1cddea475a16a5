module Graph = Pr_graph.Graph
module Conn = Pr_graph.Connectivity

let test_components () =
  let g = Graph.unweighted ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let labels, count = Conn.components g in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check bool) "0 and 2 together" true (labels.(0) = labels.(2));
  Alcotest.(check bool) "0 and 3 apart" true (labels.(0) <> labels.(3));
  Alcotest.(check bool) "5 alone" true (labels.(5) <> labels.(3));
  Alcotest.(check bool) "not connected" false (Conn.is_connected g);
  Alcotest.(check bool) "same component" true (Conn.same_component g 0 2)

let test_component_labels_ordered () =
  let g = Graph.unweighted ~n:4 [ (2, 3) ] in
  let labels, _ = Conn.components g in
  Alcotest.(check int) "node 0 gets label 0" 0 labels.(0);
  Alcotest.(check int) "node 1 gets label 1" 1 labels.(1);
  Alcotest.(check int) "nodes 2,3 get label 2" 2 labels.(2)

let test_bridges_path () =
  let g = Graph.unweighted ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (list (pair int int))) "all edges are bridges"
    [ (0, 1); (1, 2); (2, 3) ]
    (Conn.bridges g)

let test_bridges_cycle () =
  let g = Graph.unweighted ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check (list (pair int int))) "cycle has none" [] (Conn.bridges g);
  Alcotest.(check bool) "2-edge-connected" true (Conn.is_two_edge_connected g)

let test_bridge_between_cycles () =
  (* Two triangles joined by the bridge 2-3. *)
  let g =
    Graph.unweighted ~n:6
      [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ]
  in
  Alcotest.(check (list (pair int int))) "just the joint" [ (2, 3) ] (Conn.bridges g);
  Alcotest.(check (list int)) "cut vertices" [ 2; 3 ] (Conn.articulation_points g);
  Alcotest.(check bool) "not 2-edge-connected" false (Conn.is_two_edge_connected g);
  Alcotest.(check bool) "not biconnected" false (Conn.is_biconnected g)

let test_articulation_star () =
  let g = Graph.unweighted ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check (list int)) "hub is the cut vertex" [ 0 ] (Conn.articulation_points g)

let test_biconnected_cycle () =
  let g = Graph.unweighted ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  Alcotest.(check (list int)) "no cut vertices" [] (Conn.articulation_points g);
  Alcotest.(check bool) "biconnected" true (Conn.is_biconnected g)

let test_connected_without () =
  let g = Graph.unweighted ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check bool) "one removal fine" true (Conn.connected_without g [ (0, 1) ]);
  Alcotest.(check bool) "two removals split" false
    (Conn.connected_without g [ (0, 1); (2, 3) ])

let brute_force_bridges g =
  (* A bridge increases the component count when removed (the graph itself
     may already be disconnected). *)
  let _, base = Conn.components g in
  Graph.fold_edges
    (fun i (e : Graph.edge) acc ->
      let _, without = Conn.components ~blocked:(fun j -> j = i) g in
      if without > base then (e.u, e.v) :: acc else acc)
    g []
  |> List.sort compare

let qcheck_bridges_match_brute_force =
  QCheck.Test.make ~name:"bridges = edges whose removal disconnects" ~count:80
    QCheck.(pair (int_bound 1_000_000) (Helpers.int_range 4 12))
    (fun (seed, n) ->
      (* A sparse random graph likely to contain bridges. *)
      let rng = Pr_util.Rng.create ~seed in
      let g = (Pr_topo.Generate.gnm rng ~n ~m:(n + 2)).Pr_topo.Topology.graph in
      Conn.bridges g = brute_force_bridges g)

let qcheck_two_connected_generator =
  QCheck.Test.make ~name:"Generate.two_connected is 2-edge-connected" ~count:80
    (Helpers.arb_two_connected ())
    Conn.is_two_edge_connected

let suite =
  [
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "component label order" `Quick test_component_labels_ordered;
    Alcotest.test_case "bridges of a path" `Quick test_bridges_path;
    Alcotest.test_case "bridges of a cycle" `Quick test_bridges_cycle;
    Alcotest.test_case "bridge between cycles" `Quick test_bridge_between_cycles;
    Alcotest.test_case "articulation of a star" `Quick test_articulation_star;
    Alcotest.test_case "biconnected cycle" `Quick test_biconnected_cycle;
    Alcotest.test_case "connected_without" `Quick test_connected_without;
    QCheck_alcotest.to_alcotest qcheck_bridges_match_brute_force;
    QCheck_alcotest.to_alcotest qcheck_two_connected_generator;
  ]
