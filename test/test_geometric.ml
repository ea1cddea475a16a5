module Graph = Pr_graph.Graph
module Geometric = Pr_embed.Geometric
module Faces = Pr_embed.Faces
module Surface = Pr_embed.Surface

let test_square_planar () =
  let g = Graph.unweighted ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  let coords = [| (0.0, 0.0); (1.0, 0.0); (1.0, 1.0); (0.0, 1.0) |] in
  let faces = Faces.compute (Geometric.of_coords g coords) in
  Alcotest.(check int) "planar" 0 (Surface.genus faces);
  Alcotest.(check int) "three faces" 3 (Faces.count faces)

let test_counter_clockwise_order () =
  (* Node 0 at origin, neighbours east (1), north (2), west (3): the
     counter-clockwise order by bearing is east, north, west. *)
  let g = Graph.unweighted ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let coords = [| (0.0, 0.0); (1.0, 0.0); (0.0, 1.0); (-1.0, 0.0) |] in
  let rot = Geometric.of_coords g coords in
  Alcotest.(check (array int)) "ccw order" [| 1; 2; 3 |] (Pr_embed.Rotation.order rot 0)

let test_abilene_planar () =
  let topo = Pr_topo.Abilene.topology () in
  let faces = Faces.compute (Geometric.of_topology topo) in
  Alcotest.(check int) "abilene drawn planar" 0 (Surface.genus faces);
  Alcotest.(check bool) "and PR-safe" true (Pr_embed.Validate.is_pr_safe faces)

let test_coincident_coords_rejected () =
  let g = Graph.unweighted ~n:2 [ (0, 1) ] in
  match Geometric.of_coords g [| (1.0, 1.0); (1.0, 1.0) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "coincident adjacent coords accepted"

let test_length_mismatch_rejected () =
  let g = Graph.unweighted ~n:2 [ (0, 1) ] in
  match Geometric.of_coords g [| (0.0, 0.0) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

let qcheck_grid_geometric_planar =
  QCheck.Test.make ~name:"grids embed planar geometrically" ~count:20
    QCheck.(pair (Helpers.int_range 2 6) (Helpers.int_range 2 6))
    (fun (rows, cols) ->
      let _, rot = Helpers.grid_with_rotation ~rows ~cols in
      Surface.genus (Faces.compute rot) = 0)

let suite =
  [
    Alcotest.test_case "square planar" `Quick test_square_planar;
    Alcotest.test_case "counter-clockwise order" `Quick test_counter_clockwise_order;
    Alcotest.test_case "abilene planar and PR-safe" `Quick test_abilene_planar;
    Alcotest.test_case "coincident coords rejected" `Quick test_coincident_coords_rejected;
    Alcotest.test_case "length mismatch rejected" `Quick test_length_mismatch_rejected;
    QCheck_alcotest.to_alcotest qcheck_grid_geometric_planar;
  ]
