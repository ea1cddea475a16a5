module Graph = Pr_graph.Graph
module Planar = Pr_embed.Planar
module Faces = Pr_embed.Faces
module Surface = Pr_embed.Surface

let genus_zero msg g =
  match Planar.embed g with
  | None -> Alcotest.failf "%s: reported non-planar" msg
  | Some rotation ->
      let faces = Faces.compute rotation in
      Alcotest.(check bool) (msg ^ ": valid embedding") true
        (Pr_embed.Validate.is_valid faces);
      if Pr_graph.Connectivity.is_connected g then
        Alcotest.(check int) (msg ^ ": genus 0") 0 (Surface.genus faces)

let non_planar msg g =
  Alcotest.(check bool) (msg ^ ": rejected") false (Planar.is_planar g)

let k4 () = Graph.unweighted ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]

let k5 () =
  let edges = ref [] in
  for u = 0 to 4 do
    for v = u + 1 to 4 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.unweighted ~n:5 !edges

let k33 () =
  let edges = List.concat_map (fun u -> List.map (fun v -> (u, v)) [ 3; 4; 5 ]) [ 0; 1; 2 ] in
  Graph.unweighted ~n:6 edges

let test_planar_classics () =
  genus_zero "K4" (k4 ());
  genus_zero "fig1" (Pr_topo.Example.topology ()).Pr_topo.Topology.graph;
  genus_zero "abilene" (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph;
  genus_zero "wheel" (Pr_topo.Generate.wheel 9).Pr_topo.Topology.graph;
  genus_zero "grid" (Pr_topo.Generate.grid ~rows:4 ~cols:5).Pr_topo.Topology.graph;
  genus_zero "ring" (Pr_topo.Generate.ring 12).Pr_topo.Topology.graph

let test_non_planar_classics () =
  non_planar "K5" (k5 ());
  non_planar "K3,3" (k33 ());
  non_planar "petersen" (Pr_topo.Generate.petersen ()).Pr_topo.Topology.graph;
  non_planar "K6"
    (let edges = ref [] in
     for u = 0 to 5 do
       for v = u + 1 to 5 do
         edges := (u, v) :: !edges
       done
     done;
     Graph.unweighted ~n:6 !edges)

let test_trees_and_bridges () =
  genus_zero "path" (Graph.unweighted ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]);
  genus_zero "star" (Graph.unweighted ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ]);
  (* Two triangles joined by a bridge: three blocks. *)
  genus_zero "bridged triangles"
    (Graph.unweighted ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ])

let test_small_graphs () =
  genus_zero "single node" (Graph.unweighted ~n:1 []);
  genus_zero "single edge" (Graph.unweighted ~n:2 [ (0, 1) ]);
  genus_zero "triangle" (Graph.unweighted ~n:3 [ (0, 1); (1, 2); (0, 2) ])

let test_disconnected () =
  genus_zero "two triangles apart"
    (Graph.unweighted ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ])

let test_embed_exn () =
  (match Planar.embed_exn (k4 ()) with
  | _ -> ());
  match Planar.embed_exn (k5 ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "K5 embedded?!"

let test_planar_embedding_is_pr_safe () =
  (* 2-edge-connected planar: the certified embedding has no curved edges,
     restoring the paper's single-failure guarantee exactly. *)
  List.iter
    (fun (msg, g) ->
      match Planar.embed g with
      | None -> Alcotest.failf "%s: reported non-planar" msg
      | Some rotation ->
          Alcotest.(check bool) (msg ^ ": PR-safe") true
            (Pr_embed.Validate.is_pr_safe (Faces.compute rotation)))
    [
      ("abilene", (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph);
      ("grid", (Pr_topo.Generate.grid ~rows:4 ~cols:4).Pr_topo.Topology.graph);
      ("wheel", (Pr_topo.Generate.wheel 10).Pr_topo.Topology.graph);
    ]

let arb_apollonian =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "apollonian seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 1_000_000) (int_range 4 40))

let qcheck_apollonian_planar =
  QCheck.Test.make ~name:"random Apollonian networks embed with genus 0" ~count:80
    arb_apollonian
    (fun (seed, n) ->
      let g =
        (Pr_topo.Generate.apollonian (Pr_util.Rng.create ~seed) ~n)
          .Pr_topo.Topology.graph
      in
      match Planar.embed g with
      | None -> false
      | Some rotation ->
          let faces = Faces.compute rotation in
          Pr_embed.Validate.is_valid faces && Surface.genus faces = 0)

let qcheck_maximal_planar_plus_edge_rejected =
  QCheck.Test.make
    ~name:"adding any edge to a maximal planar graph breaks planarity" ~count:60
    arb_apollonian
    (fun (seed, n) ->
      let rng = Pr_util.Rng.create ~seed in
      let g = (Pr_topo.Generate.apollonian rng ~n).Pr_topo.Topology.graph in
      (* Find a non-adjacent pair (exists whenever m < n(n-1)/2). *)
      let missing = ref None in
      for u = 0 to Graph.n g - 1 do
        for v = u + 1 to Graph.n g - 1 do
          if !missing = None && not (Graph.has_edge g u v) then missing := Some (u, v)
        done
      done;
      match !missing with
      | None -> true (* complete graph: K4 at n=4 has no missing edge *)
      | Some (u, v) ->
          let edges =
            Graph.fold_edges (fun _ (e : Graph.edge) acc -> (e.u, e.v, e.w) :: acc) g []
          in
          let augmented = Graph.create ~n:(Graph.n g) ((u, v, 1.0) :: edges) in
          not (Planar.is_planar augmented))

let qcheck_blocks_partition_edges =
  QCheck.Test.make ~name:"blocks partition the edge set" ~count:100
    QCheck.(pair (int_bound 1_000_000) (Helpers.int_range 4 14))
    (fun (seed, n) ->
      let rng = Pr_util.Rng.create ~seed in
      let m = min (n + 3) (n * (n - 1) / 2) in
      let g = (Pr_topo.Generate.gnm rng ~n ~m).Pr_topo.Topology.graph in
      let blocks = Pr_graph.Connectivity.blocks g in
      let all = List.concat blocks |> List.sort compare in
      let expected =
        Graph.fold_edges (fun _ (e : Graph.edge) acc -> (e.u, e.v) :: acc) g []
        |> List.sort compare
      in
      all = expected)

let qcheck_bridges_are_singleton_blocks =
  QCheck.Test.make ~name:"bridges appear as singleton blocks" ~count:80
    QCheck.(pair (int_bound 1_000_000) (Helpers.int_range 4 14))
    (fun (seed, n) ->
      let rng = Pr_util.Rng.create ~seed in
      let g = (Pr_topo.Generate.gnm rng ~n ~m:(n + 2)).Pr_topo.Topology.graph in
      let singletons =
        Pr_graph.Connectivity.blocks g
        |> List.filter_map (function [ e ] -> Some e | _ -> None)
        |> List.sort compare
      in
      singletons = Pr_graph.Connectivity.bridges g)

let suite =
  [
    Alcotest.test_case "planar classics" `Quick test_planar_classics;
    Alcotest.test_case "non-planar classics" `Quick test_non_planar_classics;
    Alcotest.test_case "trees and bridges" `Quick test_trees_and_bridges;
    Alcotest.test_case "small graphs" `Quick test_small_graphs;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "embed_exn" `Quick test_embed_exn;
    Alcotest.test_case "certified embedding is PR-safe" `Quick
      test_planar_embedding_is_pr_safe;
    QCheck_alcotest.to_alcotest qcheck_apollonian_planar;
    QCheck_alcotest.to_alcotest qcheck_maximal_planar_plus_edge_rejected;
    QCheck_alcotest.to_alcotest qcheck_blocks_partition_edges;
    QCheck_alcotest.to_alcotest qcheck_bridges_are_singleton_blocks;
  ]
