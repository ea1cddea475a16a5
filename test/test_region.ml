(* Structural validation of the paper's §5.1 claim: cycle following with
   no termination condition walks the boundary of the region obtained by
   joining all cells with failed links on their boundary. *)

module Graph = Pr_graph.Graph
module Faces = Pr_embed.Faces
module Region = Pr_core.Region
module Failure = Pr_core.Failure

let fig1 () =
  let topo = Pr_topo.Example.topology () in
  let rotation = Pr_embed.Rotation.of_orders topo.graph Pr_topo.Example.rotation_orders in
  (topo.Pr_topo.Topology.graph, Faces.compute rotation, Pr_core.Cycle_table.build rotation)

let test_join_single_failure () =
  let g, faces, _ = fig1 () in
  (* Failing D-E joins its two faces (c1 and c2); the other two cells stay
     separate: 3 regions out of 4 faces. *)
  let failures = Failure.of_list g [ (Pr_topo.Example.d, Pr_topo.Example.e) ] in
  let regions = Region.join faces failures in
  Alcotest.(check int) "three regions" 3 regions.Region.count;
  let r_de =
    Region.region_of_arc faces regions ~tail:Pr_topo.Example.d ~head:Pr_topo.Example.e
  in
  let r_ed =
    Region.region_of_arc faces regions ~tail:Pr_topo.Example.e ~head:Pr_topo.Example.d
  in
  Alcotest.(check int) "both sides of the failed link joined" r_de r_ed

let test_join_no_failures () =
  let g, faces, _ = fig1 () in
  let regions = Region.join faces (Failure.none g) in
  Alcotest.(check int) "every face its own region" (Faces.count faces)
    regions.Region.count

let test_boundary_walk_fig1 () =
  (* The walkthrough of Figure 1(b), §5.1: the packet's route is the
     boundary of c1 joined with c2. *)
  let g, _, cycles = fig1 () in
  let d = Pr_topo.Example.d and e = Pr_topo.Example.e in
  let b = Pr_topo.Example.b and c = Pr_topo.Example.c and f = Pr_topo.Example.f in
  let failures = Failure.of_list g [ (d, e) ] in
  let walk = Region.boundary_walk ~cycles ~failures ~start:(d, b) in
  Alcotest.(check (list (pair int int))) "boundary of c1 (+) c2"
    [ (d, b); (b, c); (c, e); (e, f); (f, d) ]
    walk

let test_walk_avoids_failures () =
  let g, _, cycles = fig1 () in
  let failures =
    Failure.of_list g
      [ (Pr_topo.Example.d, Pr_topo.Example.e); (Pr_topo.Example.b, Pr_topo.Example.c) ]
  in
  let walk =
    Region.boundary_walk ~cycles ~failures ~start:(Pr_topo.Example.d, Pr_topo.Example.b)
  in
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "live arc" true (Failure.link_up failures u v))
    walk

let test_walk_start_validation () =
  let g, _, cycles = fig1 () in
  let failures = Failure.of_list g [ (Pr_topo.Example.d, Pr_topo.Example.e) ] in
  (match
     Region.boundary_walk ~cycles ~failures
       ~start:(Pr_topo.Example.d, Pr_topo.Example.e)
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "failed start accepted");
  match
    Region.boundary_walk ~cycles ~failures ~start:(Pr_topo.Example.a, Pr_topo.Example.f)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-link start accepted"

let test_pr_route_is_walk_prefix () =
  (* The cycle-following segment of the PR route in Figure 1(b) is a
     prefix of the region boundary walk. *)
  let g, _, cycles = fig1 () in
  let d = Pr_topo.Example.d and b = Pr_topo.Example.b in
  let failures = Failure.of_list g [ (d, Pr_topo.Example.e) ] in
  let routing = Pr_core.Routing.build g in
  let trace =
    Pr_core.Forward.run ~routing ~cycles ~failures ~src:Pr_topo.Example.a
      ~dst:Pr_topo.Example.f ()
  in
  (* PR route: A B D B C E F; cycle following covers D->B,B->C,C->E. *)
  let walk = Region.boundary_walk ~cycles ~failures ~start:(d, b) in
  let rec arcs_of = function
    | x :: (y :: _ as rest) -> (x, y) :: arcs_of rest
    | [ _ ] | [] -> []
  in
  let route_arcs = arcs_of trace.Pr_core.Forward.path in
  (* drop the shortest-path prefix A->B, B->D *)
  let cycle_part = List.filteri (fun i _ -> i >= 2 && i < 5) route_arcs in
  let walk_prefix = List.filteri (fun i _ -> i < 3) walk in
  Alcotest.(check (list (pair int int))) "prefix property" walk_prefix cycle_part

(* §5.1 as a property: on a planar embedding, the boundary walks partition
   the live arcs of every joined region. *)
let qcheck_walks_partition_region_arcs =
  QCheck.Test.make
    ~name:"boundary walks partition each region's live arcs (planar)" ~count:60
    QCheck.(triple (int_bound 1_000_000) (Helpers.int_range 3 5) (Helpers.int_range 1 5))
    (fun (seed, side, k) ->
      let topo = Pr_topo.Generate.grid ~rows:side ~cols:side in
      let g = topo.Pr_topo.Topology.graph in
      let rotation = Pr_embed.Geometric.of_topology topo in
      let faces = Faces.compute rotation in
      let cycles = Pr_core.Cycle_table.build rotation in
      let rng = Pr_util.Rng.create ~seed in
      let k = min k (Graph.m g - 1) in
      let scenario =
        List.map
          (fun i ->
            let e = Graph.edge g i in
            (e.Graph.u, e.Graph.v))
          (Pr_util.Rng.sample_without_replacement rng ~k ~n:(Graph.m g))
      in
      let failures = Failure.of_list g scenario in
      let regions = Region.join faces failures in
      let ok = ref true in
      for region = 0 to regions.Region.count - 1 do
        let live = Region.live_arcs_of_region faces regions failures ~region in
        (* Decompose into orbits of the boundary-walk map. *)
        let seen = Hashtbl.create 32 in
        List.iter
          (fun arc ->
            if not (Hashtbl.mem seen arc) then begin
              let walk = Region.boundary_walk ~cycles ~failures ~start:arc in
              List.iter
                (fun a ->
                  if Hashtbl.mem seen a then ok := false (* orbits must not overlap *)
                  else Hashtbl.replace seen a ();
                  (* every walk arc must belong to this region's live set *)
                  if not (List.mem a live) then ok := false)
                walk
            end)
          live;
        if Hashtbl.length seen <> List.length live then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "join, single failure" `Quick test_join_single_failure;
    Alcotest.test_case "join, no failures" `Quick test_join_no_failures;
    Alcotest.test_case "boundary walk (fig 1b)" `Quick test_boundary_walk_fig1;
    Alcotest.test_case "walk avoids failures" `Quick test_walk_avoids_failures;
    Alcotest.test_case "walk start validation" `Quick test_walk_start_validation;
    Alcotest.test_case "PR route prefixes the walk" `Quick test_pr_route_is_walk_prefix;
    QCheck_alcotest.to_alcotest qcheck_walks_partition_region_arcs;
  ]
