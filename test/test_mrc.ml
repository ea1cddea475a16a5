module Graph = Pr_graph.Graph
module Mrc = Pr_baselines.Mrc
module Failure = Pr_core.Failure

let abilene () = (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph

let build_exn g =
  match Mrc.build g with
  | Some t -> t
  | None -> Alcotest.fail "MRC build failed on a 2-edge-connected graph"

let test_build_covers_every_link () =
  let g = abilene () in
  let t = build_exn g in
  Alcotest.(check bool) "at least one configuration" true (Mrc.configurations t >= 1);
  Graph.iter_edges
    (fun _ (e : Graph.edge) ->
      let c = Mrc.isolating_configuration t e.u e.v in
      Alcotest.(check bool) "every link isolated somewhere" true
        (c >= 1 && c <= Mrc.configurations t))
    g

let test_build_rejects_bridges () =
  let g = Graph.unweighted ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "bridge graph rejected" true (Mrc.build g = None)

let test_header_bits () =
  let t = build_exn (abilene ()) in
  Alcotest.(check bool) "a few bits" true
    (Mrc.header_bits t >= 1 && Mrc.header_bits t <= 4)

let test_single_failure_coverage () =
  (* MRC's design goal: every single link failure is covered. *)
  let g = abilene () in
  let t = build_exn g in
  let routing = Pr_core.Routing.build g in
  List.iter
    (fun scenario ->
      let failures = Failure.of_list g scenario in
      List.iter
        (fun (src, dst) ->
          let trace = Mrc.run t ~failures ~src ~dst () in
          if trace.Mrc.outcome <> Mrc.Delivered then
            Alcotest.failf "MRC lost %d->%d" src dst;
          Alcotest.(check bool) "stretch >= 1" true
            (Mrc.stretch ~routing ~trace ~src ~dst >= 1.0 -. 1e-9))
        (Pr_core.Scenario.connected_affected_pairs routing failures))
    (Pr_core.Scenario.single_links g)

let test_no_failure_uses_normal_routing () =
  let g = abilene () in
  let t = build_exn g in
  let routing = Pr_core.Routing.build g in
  let trace = Mrc.run t ~failures:(Failure.none g) ~src:0 ~dst:10 () in
  Alcotest.(check bool) "delivered" true (trace.Mrc.outcome = Mrc.Delivered);
  Alcotest.(check (option int)) "no switch" None trace.Mrc.switched_to;
  Alcotest.(check (option (list int))) "shortest path"
    (Pr_core.Routing.shortest_path routing ~src:0 ~dst:10)
    (Some trace.Mrc.path)

let test_second_failure_uncovered () =
  (* A failure in the backup configuration drops the packet: construct one
     by failing a primary link and a link of its isolating config's
     detour. *)
  let g = abilene () in
  let t = build_exn g in
  let routing = Pr_core.Routing.build g in
  let dropped = ref false in
  List.iter
    (fun scenario ->
      let failures = Failure.of_list g scenario in
      List.iter
        (fun (src, dst) ->
          let trace = Mrc.run t ~failures ~src ~dst () in
          if trace.Mrc.outcome = Mrc.Dropped then dropped := true)
        (Pr_core.Scenario.connected_affected_pairs routing failures))
    (Pr_core.Scenario.random_multi (Pr_util.Rng.create ~seed:8) g ~k:3 ~samples:30);
  Alcotest.(check bool) "some triple-failure case drops" true !dropped

(* A TTL below 0 never reaches the expiry test, so it is refused before
   the walk.  TTL 0 expires at the source. *)
let test_ttl_bounds () =
  let g = abilene () in
  let t = build_exn g in
  let failures = Failure.none g in
  (match Mrc.run ~ttl:(-1) t ~failures ~src:0 ~dst:10 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative TTL accepted");
  let trace = Mrc.run ~ttl:0 t ~failures ~src:0 ~dst:10 () in
  Alcotest.(check bool) "TTL 0 expires" true
    (trace.Mrc.outcome = Mrc.Ttl_exceeded);
  Alcotest.(check (list int)) "at the source" [ 0 ] trace.Mrc.path

let qcheck_single_failure_on_random_graphs =
  QCheck.Test.make ~name:"MRC covers single failures on 2-connected graphs"
    ~count:40
    (Helpers.arb_two_connected ~max_n:10 ())
    (fun g ->
      match Mrc.build g with
      | None -> QCheck.assume_fail ()
      | Some t ->
          let routing = Pr_core.Routing.build g in
          List.for_all
            (fun scenario ->
              let failures = Failure.of_list g scenario in
              List.for_all
                (fun (src, dst) ->
                  (Mrc.run t ~failures ~src ~dst ()).Mrc.outcome = Mrc.Delivered)
                (Pr_core.Scenario.connected_affected_pairs routing failures))
            (Pr_core.Scenario.single_links g))

let suite =
  [
    Alcotest.test_case "build covers every link" `Quick test_build_covers_every_link;
    Alcotest.test_case "bridges rejected" `Quick test_build_rejects_bridges;
    Alcotest.test_case "header bits" `Quick test_header_bits;
    Alcotest.test_case "single-failure coverage" `Quick test_single_failure_coverage;
    Alcotest.test_case "no failure = normal routing" `Quick test_no_failure_uses_normal_routing;
    Alcotest.test_case "second failure uncovered" `Quick test_second_failure_uncovered;
    Alcotest.test_case "negative TTL refused, TTL 0 expires" `Quick
      test_ttl_bounds;
    QCheck_alcotest.to_alcotest qcheck_single_failure_on_random_graphs;
  ]
