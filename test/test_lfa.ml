module Graph = Pr_graph.Graph
module Lfa = Pr_baselines.Lfa
module Failure = Pr_core.Failure
module Routing = Pr_core.Routing

let test_ring_coverage_antipodal_only () =
  (* On an even unit-weight ring the reverse neighbour is loop-free only
     for the antipodal destination (strict inequality fails elsewhere):
     exactly 1 of each node's 5 destinations is covered. *)
  let g = Graph.unweighted ~n:6 (List.init 6 (fun i -> (i, (i + 1) mod 6))) in
  let routing = Routing.build g in
  Alcotest.(check (float 1e-9)) "coverage 1/5" 0.2 (Lfa.coverage routing)

let test_dense_graph_covered () =
  let g = (Pr_topo.Generate.complete 5).Pr_topo.Topology.graph in
  let routing = Routing.build g in
  Alcotest.(check (float 1e-9)) "K5 fully covered" 1.0 (Lfa.coverage routing)

let test_alternates_shape () =
  let g = (Pr_topo.Generate.complete 4).Pr_topo.Topology.graph in
  let routing = Routing.build g in
  (match Lfa.alternates_for routing ~node:0 ~dst:1 with
  | Some { Lfa.primary; alternate } ->
      Alcotest.(check int) "primary is direct" 1 primary;
      Alcotest.(check bool) "has an alternate" true (alternate <> None)
  | None -> Alcotest.fail "expected alternates");
  Alcotest.(check bool) "none at destination" true
    (Lfa.alternates_for routing ~node:1 ~dst:1 = None)

let test_repair_delivers () =
  let g = (Pr_topo.Generate.complete 4).Pr_topo.Topology.graph in
  let routing = Routing.build g in
  let failures = Failure.of_list g [ (0, 1) ] in
  let trace = Lfa.run routing ~failures ~src:0 ~dst:1 () in
  Alcotest.(check bool) "delivered via LFA" true (trace.Lfa.outcome = Lfa.Delivered);
  Alcotest.(check int) "two hops" 2 (Pr_graph.Paths.hops trace.Lfa.path)

let test_uncovered_drops () =
  let g = Graph.unweighted ~n:6 (List.init 6 (fun i -> (i, (i + 1) mod 6))) in
  let routing = Routing.build g in
  let failures = Failure.of_list g [ (0, 1) ] in
  let trace = Lfa.run routing ~failures ~src:0 ~dst:1 () in
  Alcotest.(check bool) "dropped without LFA" true (trace.Lfa.outcome = Lfa.Dropped)

(* A TTL below 0 never reaches the expiry test, so it is refused before
   the walk; Géant 2 -> 0 with these three links failed loops to expiry
   under the default TTL.  TTL 0 expires at the source. *)
let test_ttl_bounds () =
  let g = (Pr_topo.Geant.topology ()).Pr_topo.Topology.graph in
  let routing = Routing.build g in
  let failures = Failure.of_list g [ (2, 27); (4, 16); (12, 18) ] in
  let looping = Lfa.run routing ~failures ~src:2 ~dst:0 () in
  Alcotest.(check bool) "the pair loops to expiry" true
    (looping.Lfa.outcome = Lfa.Ttl_exceeded);
  (match Lfa.run ~ttl:(-1) routing ~failures ~src:2 ~dst:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative TTL accepted");
  let expired = Lfa.run ~ttl:0 routing ~failures ~src:2 ~dst:0 () in
  Alcotest.(check bool) "TTL 0 expires" true
    (expired.Lfa.outcome = Lfa.Ttl_exceeded);
  Alcotest.(check (list int)) "at the source" [ 2 ] expired.Lfa.path

let test_coverage_between_zero_and_one () =
  List.iter
    (fun topo ->
      let routing = Routing.build topo.Pr_topo.Topology.graph in
      let c = Lfa.coverage routing in
      Alcotest.(check bool)
        (topo.Pr_topo.Topology.name ^ " coverage in [0,1]")
        true
        (c >= 0.0 && c <= 1.0);
      (* The motivating gap: none of the paper's maps reach full
         single-failure coverage with LFA. *)
      Alcotest.(check bool)
        (topo.Pr_topo.Topology.name ^ " not fully covered")
        true (c < 1.0))
    (Pr_topo.Zoo.paper_evaluation ())

let qcheck_single_failure_never_loops =
  (* RFC 5286: with symmetric weights, repairing a single link failure via
     a loop-free alternate cannot loop. *)
  QCheck.Test.make ~name:"LFA repair of a single failure never loops" ~count:80
    QCheck.(pair (int_bound 1_000_000) (Helpers.arb_two_connected ()))
    (fun (seed, g) ->
      let rng = Pr_util.Rng.create ~seed in
      let e = Graph.edge g (Pr_util.Rng.int rng (Graph.m g)) in
      let failures = Failure.of_list g [ (e.Graph.u, e.Graph.v) ] in
      let routing = Routing.build g in
      List.for_all
        (fun (src, dst) ->
          let trace = Lfa.run routing ~failures ~src ~dst () in
          trace.Lfa.outcome <> Lfa.Ttl_exceeded)
        (Helpers.all_pairs g))

let suite =
  [
    Alcotest.test_case "ring coverage is antipodal only" `Quick
      test_ring_coverage_antipodal_only;
    Alcotest.test_case "dense graph covered" `Quick test_dense_graph_covered;
    Alcotest.test_case "alternates shape" `Quick test_alternates_shape;
    Alcotest.test_case "repair delivers" `Quick test_repair_delivers;
    Alcotest.test_case "uncovered drops" `Quick test_uncovered_drops;
    Alcotest.test_case "coverage on paper maps" `Quick test_coverage_between_zero_and_one;
    Alcotest.test_case "negative TTL refused, TTL 0 expires" `Quick
      test_ttl_bounds;
    QCheck_alcotest.to_alcotest qcheck_single_failure_never_loops;
  ]
