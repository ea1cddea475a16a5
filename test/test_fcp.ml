module Graph = Pr_graph.Graph
module Fcp = Pr_baselines.Fcp
module Failure = Pr_core.Failure
module Routing = Pr_core.Routing

let square () = Graph.unweighted ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ]

let test_no_failures () =
  let g = square () in
  let trace = Fcp.run g ~failures:(Failure.none g) ~src:0 ~dst:2 () in
  Alcotest.(check bool) "delivered" true (trace.Fcp.outcome = Fcp.Delivered);
  Alcotest.(check int) "one initial SPF" 1 trace.Fcp.recomputations;
  Alcotest.(check (list (pair int int))) "nothing carried" [] trace.Fcp.carried

let test_learns_failures () =
  let g = square () in
  let failures = Failure.of_list g [ (0, 1) ] in
  let trace = Fcp.run g ~failures ~src:0 ~dst:1 () in
  Alcotest.(check bool) "delivered" true (trace.Fcp.outcome = Fcp.Delivered);
  Alcotest.(check (list (pair int int))) "carries the failure" [ (0, 1) ] trace.Fcp.carried;
  Alcotest.(check int) "recomputed once more" 2 trace.Fcp.recomputations;
  Alcotest.(check (list int)) "detour" [ 0; 3; 2; 1 ] trace.Fcp.path

let test_disconnected () =
  let g = square () in
  let failures = Failure.of_list g [ (0, 1); (3, 0) ] in
  let trace = Fcp.run g ~failures ~src:0 ~dst:2 () in
  Alcotest.(check bool) "reports disconnection" true (trace.Fcp.outcome = Fcp.Disconnected)

let test_header_bits () =
  let g = (Pr_topo.Geant.topology ()).Pr_topo.Topology.graph in
  Alcotest.(check int) "6 bits to name one of 53 links" 6 (Fcp.bits_per_failure g);
  let failures = Failure.none g in
  let trace = Fcp.run g ~failures ~src:0 ~dst:1 () in
  Alcotest.(check int) "no failures, no bits" 0 (Fcp.header_bits g trace)

(* A TTL below 0 never reaches the expiry test, so it is refused before
   the walk.  TTL 0 expires at the source. *)
let test_ttl_bounds () =
  let g = square () in
  let failures = Failure.of_list g [ (0, 1) ] in
  (match Fcp.run ~ttl:(-1) g ~failures ~src:0 ~dst:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative TTL accepted");
  let trace = Fcp.run ~ttl:0 g ~failures ~src:0 ~dst:1 () in
  Alcotest.(check bool) "TTL 0 expires" true
    (trace.Fcp.outcome = Fcp.Ttl_exceeded);
  Alcotest.(check (list int)) "at the source" [ 0 ] trace.Fcp.path

let qcheck_delivers_when_connected =
  QCheck.Test.make ~name:"FCP delivers whenever src and dst stay connected"
    ~count:80
    QCheck.(triple (int_bound 1_000_000) (Helpers.arb_two_connected ()) (Helpers.int_range 1 5))
    (fun (seed, g, k) ->
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
      List.for_all
        (fun (src, dst) ->
          let trace = Fcp.run g ~failures ~src ~dst () in
          if Failure.pair_connected failures src dst then
            trace.Fcp.outcome = Fcp.Delivered
          else trace.Fcp.outcome = Fcp.Disconnected)
        (Helpers.all_pairs g))

let qcheck_carried_subset_of_failures =
  QCheck.Test.make ~name:"FCP carries only real failures" ~count:80
    QCheck.(pair (int_bound 1_000_000) (Helpers.arb_two_connected ()))
    (fun (seed, g) ->
      let rng = Pr_util.Rng.create ~seed in
      let e = Graph.edge g (Pr_util.Rng.int rng (Graph.m g)) in
      let scenario = [ (e.Graph.u, e.Graph.v) ] in
      let failures = Failure.of_list g scenario in
      List.for_all
        (fun (src, dst) ->
          let trace = Fcp.run g ~failures ~src ~dst () in
          List.for_all (fun f -> List.mem f scenario) trace.Fcp.carried)
        (Helpers.all_pairs g))

let qcheck_stretch_at_least_reconvergence =
  QCheck.Test.make ~name:"FCP stretch >= post-convergence stretch" ~count:60
    QCheck.(pair (int_bound 1_000_000) (Helpers.arb_two_connected ()))
    (fun (seed, g) ->
      let rng = Pr_util.Rng.create ~seed in
      let e = Graph.edge g (Pr_util.Rng.int rng (Graph.m g)) in
      let failures = Failure.of_list g [ (e.Graph.u, e.Graph.v) ] in
      let routing = Routing.build g in
      List.for_all
        (fun (src, dst) ->
          let trace = Fcp.run g ~failures ~src ~dst () in
          trace.Fcp.outcome <> Fcp.Delivered
          || Fcp.stretch ~routing ~trace ~src ~dst +. 1e-9
             >= Pr_baselines.Reconvergence.stretch ~routing ~failures ~src ~dst)
        (Helpers.all_pairs g))

let suite =
  [
    Alcotest.test_case "no failures" `Quick test_no_failures;
    Alcotest.test_case "learns failures" `Quick test_learns_failures;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "header bits" `Quick test_header_bits;
    Alcotest.test_case "negative TTL refused, TTL 0 expires" `Quick
      test_ttl_bounds;
    QCheck_alcotest.to_alcotest qcheck_delivers_when_connected;
    QCheck_alcotest.to_alcotest qcheck_carried_subset_of_failures;
    QCheck_alcotest.to_alcotest qcheck_stretch_at_least_reconvergence;
  ]
