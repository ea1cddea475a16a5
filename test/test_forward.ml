(* Protocol-level properties of the PR forwarding engine, beyond the paper
   walkthroughs of test_paper_example.ml.

   The central empirical findings this suite pins down:
   - on a genus-0 (planar) embedding, PR delivers every packet whose
     source and destination remain connected, for ANY failure set;
   - on any embedding without curved edges, PR covers every single link
     failure of a 2-edge-connected graph;
   - with a curved edge (both arcs of a link on one face), even a single
     failure can loop — the Teleglobe NWK-PAR regression. *)

module Graph = Pr_graph.Graph
module Forward = Pr_core.Forward
module Routing = Pr_core.Routing
module Failure = Pr_core.Failure
module Cycle_table = Pr_core.Cycle_table

let build (topo : Pr_topo.Topology.t) rotation =
  (Routing.build topo.graph, Cycle_table.build rotation)

let grid_setup rows cols =
  let topo, rot = Helpers.grid_with_rotation ~rows ~cols in
  let routing, cycles = build topo rot in
  (topo.Pr_topo.Topology.graph, routing, cycles)

let run ?termination ?ttl (routing, cycles) failures ~src ~dst =
  Forward.run ?termination ?ttl ~routing ~cycles ~failures ~src ~dst ()

let test_no_failure_is_shortest_path () =
  let g, routing, cycles = grid_setup 3 3 in
  List.iter
    (fun (src, dst) ->
      let trace = run (routing, cycles) (Failure.none g) ~src ~dst in
      Alcotest.(check bool) "delivered" true (trace.Forward.outcome = Forward.Delivered);
      Alcotest.(check (option (list int))) "exact shortest path"
        (Routing.shortest_path routing ~src ~dst)
        (Some trace.Forward.path);
      Alcotest.(check int) "no episodes" 0 trace.Forward.pr_episodes)
    (Helpers.all_pairs g)

let test_invalid_args () =
  let g, routing, cycles = grid_setup 2 2 in
  (match run (routing, cycles) (Failure.none g) ~src:0 ~dst:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "src = dst accepted");
  (match run (routing, cycles) (Failure.none g) ~src:0 ~dst:99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range accepted");
  (* The walk ends when its TTL reaches exactly 0, so a negative TTL
     would never end a looping walk. *)
  (match run ~ttl:(-1) (routing, cycles) (Failure.none g) ~src:0 ~dst:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative TTL accepted (run)");
  (match
     Forward.run_guarded ~ttl:(-1) ~routing ~cycles ~failures:(Failure.none g)
       ~src:0 ~dst:3 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative TTL accepted (run_guarded)");
  (* TTL 0 stays valid: the packet expires at its source. *)
  let trace = run ~ttl:0 (routing, cycles) (Failure.none g) ~src:0 ~dst:3 in
  Alcotest.(check bool) "TTL 0 expires" true
    (trace.Forward.outcome = Forward.Ttl_exceeded);
  Alcotest.(check (list int)) "at the source" [ 0 ] trace.Forward.path

let test_ttl_respected () =
  let g, routing, cycles = grid_setup 3 3 in
  let trace = run ~ttl:1 (routing, cycles) (Failure.none g) ~src:0 ~dst:8 in
  Alcotest.(check bool) "dies at ttl" true (trace.Forward.outcome = Forward.Ttl_exceeded);
  Alcotest.(check int) "walked exactly one hop" 1
    (Pr_graph.Paths.hops trace.Forward.path)

let test_isolated_source_drops () =
  let g = Graph.unweighted ~n:3 [ (0, 1); (1, 2); ] in
  let topo = Pr_topo.Topology.of_graph ~name:"path" g in
  let routing, cycles = build topo (Pr_embed.Rotation.adjacency g) in
  let failures = Failure.of_list g [ (0, 1) ] in
  let trace = run (routing, cycles) failures ~src:0 ~dst:2 in
  Alcotest.(check bool) "no live interface" true
    (trace.Forward.outcome = Forward.Dropped_no_interface)

let test_disconnected_pair_does_not_deliver () =
  (* PR has no way to learn the destination is unreachable: the packet
     wanders until TTL — the documented behaviour. *)
  let g, routing, cycles = grid_setup 3 3 in
  (* Cut node 8 (corner) off: links 5-8 and 7-8. *)
  let failures = Failure.of_list g [ (5, 8); (7, 8) ] in
  let trace = run (routing, cycles) failures ~src:0 ~dst:8 in
  Alcotest.(check bool) "not delivered" true
    (trace.Forward.outcome <> Forward.Delivered)

let test_single_failure_walkthrough_stats () =
  let g, routing, cycles = grid_setup 3 3 in
  let failures = Failure.of_list g [ (0, 1) ] in
  let trace = run (routing, cycles) failures ~src:0 ~dst:1 in
  Alcotest.(check bool) "delivered" true (trace.Forward.outcome = Forward.Delivered);
  Alcotest.(check int) "one episode" 1 trace.Forward.pr_episodes;
  Alcotest.(check bool) "header saw the discriminator" true
    (trace.Forward.max_header.Pr_core.Header.dd >= 1);
  Alcotest.(check bool) "stretch at least 1" true
    (Forward.stretch ~routing ~trace ~src:0 ~dst:1 >= 1.0)

let test_curved_edge_single_failure_loops () =
  (* Regression: Teleglobe's geographic drawing makes NWK-PAR curved; a
     single failure of that link loops under both terminations. *)
  let topo = Pr_topo.Teleglobe.topology () in
  let routing, cycles = build topo (Pr_embed.Geometric.of_topology topo) in
  let nwk = Pr_topo.Topology.node_id topo "NWK"
  and par = Pr_topo.Topology.node_id topo "PAR"
  and nyc = Pr_topo.Topology.node_id topo "NYC" in
  let failures = Failure.of_list topo.graph [ (nwk, par) ] in
  let trace =
    Forward.run ~routing ~cycles ~failures ~src:nyc ~dst:par ()
  in
  Alcotest.(check bool) "loops (documented limitation)" true
    (trace.Forward.outcome = Forward.Ttl_exceeded)

let all_single_failures_delivered g routing cycles ~termination =
  List.for_all
    (fun scenario ->
      let failures = Failure.of_list g scenario in
      List.for_all
        (fun (src, dst) ->
          let trace =
            Forward.run ~termination ~routing ~cycles ~failures ~src ~dst ()
          in
          trace.Forward.outcome = Forward.Delivered)
        (Pr_core.Scenario.connected_affected_pairs routing failures))
    (Pr_core.Scenario.single_links g)

let test_single_failure_full_coverage_grid () =
  let g, routing, cycles = grid_setup 4 4 in
  Alcotest.(check bool) "DD termination" true
    (all_single_failures_delivered g routing cycles
       ~termination:Forward.Distance_discriminator);
  Alcotest.(check bool) "simple termination" true
    (all_single_failures_delivered g routing cycles ~termination:Forward.Simple)

let test_single_failure_full_coverage_abilene () =
  let topo = Pr_topo.Abilene.topology () in
  let routing, cycles = build topo (Pr_embed.Geometric.of_topology topo) in
  Alcotest.(check bool) "abilene covered" true
    (all_single_failures_delivered topo.graph routing cycles
       ~termination:Forward.Distance_discriminator)

(* The genus-0 multi-failure guarantee, as a property test over grids with
   random failure sets that keep the pair connected. *)
let qcheck_planar_multi_failure_delivery =
  QCheck.Test.make
    ~name:"planar embedding: every connected pair survives any failure set"
    ~count:60
    QCheck.(
      triple (int_bound 1_000_000) (Helpers.int_range 3 5) (Helpers.int_range 1 6))
    (fun (seed, side, k) ->
      let topo, rot = Helpers.grid_with_rotation ~rows:side ~cols:side in
      let g = topo.Pr_topo.Topology.graph in
      let routing, cycles = build topo rot in
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
          let trace =
            Forward.run ~routing ~cycles ~failures ~src ~dst ()
          in
          trace.Forward.outcome = Forward.Delivered
          && Forward.stretch ~routing ~trace ~src ~dst >= 1.0)
        (Pr_core.Scenario.connected_affected_pairs routing failures))

(* PR can never beat the post-convergence optimum. *)
let qcheck_stretch_lower_bounded_by_reconvergence =
  QCheck.Test.make ~name:"PR stretch >= reconvergence stretch" ~count:60
    QCheck.(pair (int_bound 1_000_000) (Helpers.int_range 3 5))
    (fun (seed, side) ->
      let topo, rot = Helpers.grid_with_rotation ~rows:side ~cols:side in
      let g = topo.Pr_topo.Topology.graph in
      let routing, cycles = build topo rot in
      let rng = Pr_util.Rng.create ~seed in
      let e = Graph.edge g (Pr_util.Rng.int rng (Graph.m g)) in
      let failures = Failure.of_list g [ (e.Graph.u, e.Graph.v) ] in
      List.for_all
        (fun (src, dst) ->
          let trace = Forward.run ~routing ~cycles ~failures ~src ~dst () in
          trace.Forward.outcome <> Forward.Delivered
          || Forward.stretch ~routing ~trace ~src ~dst +. 1e-9
             >= Pr_baselines.Reconvergence.stretch ~routing ~failures ~src ~dst)
        (Pr_core.Scenario.connected_affected_pairs routing failures))

(* §5.3's termination argument: successive PR episodes start with strictly
   smaller discriminators, so the intercalated routing/cycle-following
   process converges. *)
let qcheck_episode_dds_strictly_decrease =
  QCheck.Test.make ~name:"episode DDs strictly decrease (planar)" ~count:60
    QCheck.(triple (int_bound 1_000_000) (Helpers.int_range 3 5) (Helpers.int_range 1 6))
    (fun (seed, side, k) ->
      let topo, rot = Helpers.grid_with_rotation ~rows:side ~cols:side in
      let g = topo.Pr_topo.Topology.graph in
      let routing, cycles = build topo rot in
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
          let trace = Forward.run ~routing ~cycles ~failures ~src ~dst () in
          let rec decreasing = function
            | (_, a) :: ((_, b) :: _ as rest) -> b < a && decreasing rest
            | [ _ ] | [] -> true
          in
          List.length trace.Forward.episodes = trace.Forward.pr_episodes
          && decreasing trace.Forward.episodes)
        (Pr_core.Scenario.connected_affected_pairs routing failures))

let qcheck_quantise_identity_for_hops =
  (* The hop discriminator is already integral: header-faithful mode must
     trace identical paths. *)
  QCheck.Test.make ~name:"quantised DD is the identity for hop counts" ~count:40
    QCheck.(pair (int_bound 1_000_000) (Helpers.int_range 3 5))
    (fun (seed, side) ->
      let topo, rot = Helpers.grid_with_rotation ~rows:side ~cols:side in
      let g = topo.Pr_topo.Topology.graph in
      let routing, cycles = build topo rot in
      let rng = Pr_util.Rng.create ~seed in
      let k = min 3 (Graph.m g - 1) in
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
          let a = Forward.run ~routing ~cycles ~failures ~src ~dst () in
          let b = Forward.run ~quantise:true ~routing ~cycles ~failures ~src ~dst () in
          a.Forward.path = b.Forward.path && a.Forward.outcome = b.Forward.outcome)
        (Pr_core.Scenario.connected_affected_pairs routing failures))

(* --- the graceful-degradation ladder --- *)

let test_ladder_step_matches_step () =
  (* With the true link state as the view, no DD bound and no guard,
     ladder_step reproduces step decision-for-decision. *)
  let g, routing, cycles = grid_setup 3 3 in
  let failures = Failure.of_list g [ (0, 1); (4, 5) ] in
  List.iter
    (fun (src, dst) ->
      let a =
        Forward.step ~routing ~cycles ~failures ~dst ~node:src
          ~arrived_from:None ~header:Forward.fresh_header ()
      in
      let b =
        Forward.ladder_step ~routing ~cycles
          ~link_up:(fun w -> Failure.link_up failures src w)
          ~dst ~node:src ~arrived_from:None ~header:Forward.fresh_header ()
      in
      match (a, b) with
      | ( Forward.Transmit { next; header; episode_started; failure_hits; _ },
          Forward.Forwarded
            {
              next = next';
              header = header';
              episode_started = started';
              failure_hits = hits';
              degradations;
              _;
            } ) ->
          Alcotest.(check int) "same next hop" next next';
          Alcotest.(check bool) "same header" true (header = header');
          Alcotest.(check bool) "same episode flag" episode_started started';
          Alcotest.(check int) "same failure hits" failure_hits hits';
          Alcotest.(check (list string)) "no degradations" []
            (List.map Forward.degradation_name degradations)
      | _ -> Alcotest.fail "step and ladder_step disagreed")
    (Helpers.all_pairs g)

let test_ladder_stuck_maps_to_reasoned_drop () =
  let g = Graph.unweighted ~n:3 [ (0, 1); (1, 2) ] in
  let topo = Pr_topo.Topology.of_graph ~name:"path" g in
  let routing, cycles = build topo (Pr_embed.Rotation.adjacency g) in
  let failures = Failure.of_list g [ (0, 1) ] in
  (match
     Forward.step ~routing ~cycles ~failures ~dst:2 ~node:0 ~arrived_from:None
       ~header:Forward.fresh_header ()
   with
  | Forward.Stuck { outcome = Forward.Dropped_no_interface; _ } -> ()
  | _ -> Alcotest.fail "step should be stuck");
  match
    Forward.ladder_step ~routing ~cycles
      ~link_up:(fun w -> Failure.link_up failures 0 w)
      ~dst:2 ~node:0 ~arrived_from:None ~header:Forward.fresh_header ()
  with
  | Forward.Degraded_drop { reason = Forward.Interfaces_down; _ } -> ()
  | _ -> Alcotest.fail "ladder should drop with Interfaces_down"

let test_ladder_missing_continuation () =
  let g, routing, cycles = grid_setup 3 3 in
  let header = { Forward.pr_bit = true; dd_value = 3.0 } in
  (* Node 8 is not a neighbour of node 0: the seed step raises, the
     ladder degrades deterministically. *)
  (match
     Forward.step ~routing ~cycles ~failures:(Failure.none g) ~dst:8 ~node:0
       ~arrived_from:(Some 8) ~header ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "strict step accepted a missing rotation entry");
  (* Rung 1: primary believed up — resume plain routing, PR state gone. *)
  (match
     Forward.ladder_step ~routing ~cycles ~link_up:(fun _ -> true) ~dst:8
       ~node:0 ~arrived_from:(Some 8) ~header ()
   with
  | Forward.Forwarded { header = h; degradations; _ } ->
      Alcotest.(check bool) "pr bit cleared" false h.Forward.pr_bit;
      Alcotest.(check (list string)) "plain resume" []
        (List.map Forward.degradation_name degradations)
  | _ -> Alcotest.fail "expected a routed resume");
  (* Rung 2: primary believed down — fresh complementary episode. *)
  let primary =
    match Pr_core.Routing.next_hop routing ~node:0 ~dst:8 with
    | Some w -> w
    | None -> Alcotest.fail "grid is connected"
  in
  (match
     Forward.ladder_step ~routing ~cycles
       ~link_up:(fun w -> w <> primary)
       ~dst:8 ~node:0 ~arrived_from:(Some 8) ~header ()
   with
  | Forward.Forwarded { header = h; episode_started; degradations; _ } ->
      Alcotest.(check bool) "fresh episode" true
        (h.Forward.pr_bit && episode_started);
      Alcotest.(check bool) "retry noted" true
        (List.mem Forward.Retry_complementary degradations)
  | _ -> Alcotest.fail "expected a complementary retry");
  (* Rung 4: everything believed down — an accounted drop. *)
  match
    Forward.ladder_step ~routing ~cycles ~link_up:(fun _ -> false) ~dst:8
      ~node:0 ~arrived_from:(Some 8) ~header ()
  with
  | Forward.Degraded_drop { reason = Forward.Continuation_lost; _ } -> ()
  | _ -> Alcotest.fail "expected a Continuation_lost drop"

let test_ladder_budget_guard () =
  let _g, routing, cycles = grid_setup 3 3 in
  let header = { Forward.pr_bit = true; dd_value = 3.0 } in
  (* Plenty of budget: normal cycle following, header untouched. *)
  (match
     Forward.ladder_step ~hops_left:100 ~budget_guard:4 ~routing ~cycles
       ~link_up:(fun _ -> true) ~dst:8 ~node:4 ~arrived_from:(Some 1) ~header ()
   with
  | Forward.Forwarded { next; header = h; _ } ->
      Alcotest.(check int) "cycle continuation" (Cycle_table.cycle_next cycles ~node:4 ~from_:1) next;
      Alcotest.(check bool) "header carried unchanged" true (h = header)
  | _ -> Alcotest.fail "expected cycle following");
  (* Guard fires: stop cycle following, resume routing. *)
  (match
     Forward.ladder_step ~hops_left:2 ~budget_guard:4 ~routing ~cycles
       ~link_up:(fun _ -> true) ~dst:8 ~node:4 ~arrived_from:(Some 1) ~header ()
   with
  | Forward.Forwarded { header = h; _ } ->
      Alcotest.(check bool) "pr bit cleared by the guard" false h.Forward.pr_bit
  | _ -> Alcotest.fail "expected a routed resume");
  (* Guard fires with every interface believed down: accounted drop. *)
  match
    Forward.ladder_step ~hops_left:2 ~budget_guard:4 ~routing ~cycles
      ~link_up:(fun _ -> false) ~dst:8 ~node:4 ~arrived_from:(Some 1) ~header ()
  with
  | Forward.Degraded_drop { reason = Forward.Budget_exhausted; _ } -> ()
  | _ -> Alcotest.fail "expected a Budget_exhausted drop"

let test_ladder_lfa_rescue () =
  (* A square with a viable loop-free alternate at node 0 towards 2:
     primary 0-1-2 (cost 2), alternate 3 with dist(3,2) = 1.5 < 3. *)
  let g = Graph.create ~n:4 [ (0, 1, 1.0); (1, 2, 1.0); (0, 3, 1.0); (2, 3, 1.5) ] in
  let topo = Pr_topo.Topology.of_graph ~name:"square" g in
  let routing, cycles = build topo (Pr_embed.Rotation.adjacency g) in
  let header = { Forward.pr_bit = true; dd_value = 2.0 } in
  match
    Forward.ladder_step ~hops_left:1 ~budget_guard:2 ~routing ~cycles
      ~link_up:(fun w -> w <> 1)
      ~dst:2 ~node:0 ~arrived_from:(Some 3) ~header ()
  with
  | Forward.Forwarded { next; header = h; degradations; _ } ->
      Alcotest.(check int) "handed to the alternate" 3 next;
      Alcotest.(check bool) "pr state discarded" false h.Forward.pr_bit;
      Alcotest.(check bool) "rescue noted" true
        (List.mem Forward.Lfa_rescue degradations)
  | _ -> Alcotest.fail "expected an LFA rescue"

let test_ladder_dd_saturation () =
  let _g, routing, cycles = grid_setup 3 3 in
  let primary =
    match Pr_core.Routing.next_hop routing ~node:0 ~dst:8 with
    | Some w -> w
    | None -> Alcotest.fail "grid is connected"
  in
  (* One DD bit can carry at most 1; the local discriminator at a corner
     towards the opposite corner is 4 hops — the write must clamp. *)
  match
    Forward.ladder_step ~dd_bits:1 ~routing ~cycles
      ~link_up:(fun w -> w <> primary)
      ~dst:8 ~node:0 ~arrived_from:None ~header:Forward.fresh_header ()
  with
  | Forward.Forwarded { header = h; episode_started; degradations; _ } ->
      Alcotest.(check bool) "episode started" true
        (episode_started && h.Forward.pr_bit);
      Alcotest.(check bool) "dd clamped to the header max" true
        (h.Forward.dd_value <= 1.0);
      Alcotest.(check bool) "saturation noted" true
        (List.mem Forward.Dd_saturated degradations)
  | _ -> Alcotest.fail "expected a saturated episode start"

(* --- the shortcut rung on the reference walk --- *)

module Seen = Pr_core.Seen
module Trace = Pr_telemetry.Trace

let shortcut_setup topo =
  let rotation = Pr_embed.Geometric.of_topology topo in
  let routing, cycles = build topo rotation in
  let g = topo.Pr_topo.Topology.graph in
  let plan = Seen.plan ~nodes:(Graph.n g) ~width:16 in
  (g, routing, cycles, plan)

let single_failure_sweep g routing visit =
  List.iter
    (fun scenario ->
      let failures = Failure.of_list g scenario in
      List.iter
        (fun (src, dst) -> visit failures ~src ~dst)
        (Pr_core.Scenario.connected_affected_pairs routing failures))
    (Pr_core.Scenario.single_links g)

(* Under one failed link the rung is a pure improvement: arming it
   never loses a walk the DD argument delivered, and a granted delivered
   walk is never costlier than the ungranted one.  A grant puts the
   packet at a node closer to [dst] than the one that met the failure,
   so its primary path avoids that link.  With more failures the path
   can meet another one and start a longer episode (test_fastpath's
   second-episode case), so the claim is about single failures.  Locked
   over the single-failure sweep of both paper topologies.

   The improvement can change a verdict: under [Geometric] Géant's
   sweep has walks that loop with DD termination alone, and arming the
   rung turns some of those loops into deliveries.  Never the reverse,
   and no walk changes between dropped and anything else.  The loops
   broken are golden: none on Abilene, whose walks never loop. *)
let test_shortcut_pure_improvement () =
  let broken topo =
    let g, routing, cycles, plan = shortcut_setup topo in
    let n = ref 0 in
    single_failure_sweep g routing (fun failures ~src ~dst ->
        let base = Forward.run ~routing ~cycles ~failures ~src ~dst () in
        let armed =
          Forward.run ~shortcut:plan ~routing ~cycles ~failures ~src ~dst ()
        in
        Alcotest.(check int) "hint off counts nothing" 0 base.Forward.shortcuts;
        match (base.Forward.outcome, armed.Forward.outcome) with
        | Forward.Delivered, Forward.Delivered ->
            let s = Forward.stretch ~routing ~trace:armed ~src ~dst
            and s0 = Forward.stretch ~routing ~trace:base ~src ~dst in
            if s > s0 +. 1e-9 then
              Alcotest.failf "shortcut stretched %d->%d on %s: %.6f > %.6f" src
                dst topo.Pr_topo.Topology.name s s0
        | Forward.Ttl_exceeded, Forward.Delivered -> incr n
        | b, a ->
            if a <> b then
              Alcotest.failf "arming the rung changed %d->%d's verdict on %s"
                src dst topo.Pr_topo.Topology.name);
    !n
  in
  Alcotest.(check int) "abilene loops broken" 0
    (broken (Pr_topo.Abilene.topology ()));
  Alcotest.(check int) "geant loops broken" 41
    (broken (Pr_topo.Geant.topology ()))

(* Every grant the counter reports is a [Trace.Shortcut] event and vice
   versa; the sweep totals are golden.  Abilene's zero is a
   topology-scale fact worth locking: its walks DD-terminate before any
   deja-vu, so the rung stays silent — not a bug. *)
let shortcut_grants topo =
  let g, routing, cycles, plan = shortcut_setup topo in
  let total = ref 0 in
  single_failure_sweep g routing (fun failures ~src ~dst ->
      let ring = Trace.Ring.create () in
      let armed =
        Forward.run ~shortcut:plan
          ~trace:(Trace.Ring.sink ring)
          ~routing ~cycles ~failures ~src ~dst ()
      in
      let fired =
        List.length
          (List.filter
             (function Trace.Shortcut _ -> true | _ -> false)
             (Trace.Ring.events ring))
      in
      Alcotest.(check int) "trace events agree with the counter"
        armed.Forward.shortcuts fired;
      total := !total + armed.Forward.shortcuts);
  !total

let test_shortcut_grant_accounting () =
  Alcotest.(check int) "abilene grants" 0
    (shortcut_grants (Pr_topo.Abilene.topology ()));
  Alcotest.(check int) "geant grants" 139
    (shortcut_grants (Pr_topo.Geant.topology ()))

(* The rung only arms under Distance_discriminator: with Simple
   termination the armed walk must be the unarmed walk, field for
   field. *)
let test_shortcut_simple_termination_noop () =
  let g, routing, cycles, plan = shortcut_setup (Pr_topo.Abilene.topology ()) in
  single_failure_sweep g routing (fun failures ~src ~dst ->
      let base =
        Forward.run ~termination:Forward.Simple ~routing ~cycles ~failures ~src
          ~dst ()
      in
      let armed =
        Forward.run ~termination:Forward.Simple ~shortcut:plan ~routing ~cycles
          ~failures ~src ~dst ()
      in
      Alcotest.(check int) "no grants under simple termination" 0
        armed.Forward.shortcuts;
      Alcotest.(check bool) "identical trace" true (armed = base))

(* The rung-free walk written against {!Forward.step} alone, with the
   walk-level seen-hint discipline: an independent referee for the ladder
   walk, which {!Forward.run} itself is a call of. *)
let step_walk ~plan ~routing ~cycles ~failures ~src ~dst =
  let seen = Seen.create plan in
  let rec walk x arrived_from header ~ttl path episodes hits shortcuts =
    let finish outcome hits =
      let max_dd =
        List.fold_left (fun m (_, d) -> Float.max m d) 0.0 episodes
      in
      {
        Forward.outcome;
        path = List.rev path;
        pr_episodes = List.length episodes;
        failure_hits = hits;
        max_header =
          {
            Pr_core.Header.pr = episodes <> [];
            dd = Routing.quantise_dd routing max_dd;
          };
        episodes = List.rev episodes;
        shortcuts;
      }
    in
    if x = dst then finish Forward.Delivered hits
    else if ttl = 0 then finish Forward.Ttl_exceeded hits
    else
      match
        Forward.step ~shortcut:(Seen.query seen) ~routing ~cycles ~failures
          ~dst ~node:x ~arrived_from ~header ()
      with
      | Forward.Stuck { outcome; failure_hits } ->
          finish outcome (hits + failure_hits)
      | Forward.Transmit
          { next; header; episode_started; failure_hits; shortcut } ->
          if header.Forward.pr_bit then Seen.insert seen x else Seen.reset seen;
          walk next (Some x) header ~ttl:(ttl - 1) (next :: path)
            (if episode_started then (x, header.Forward.dd_value) :: episodes
             else episodes)
            (hits + failure_hits)
            (if shortcut then shortcuts + 1 else shortcuts)
  in
  walk src None Forward.fresh_header
    ~ttl:(Forward.default_ttl (Routing.graph routing))
    [ src ] [] 0 0

(* Clean traffic through the guarded ladder with the rung armed keeps
   the strict walk's full trace — grants included — and never invents a
   fault. *)
let test_shortcut_guarded_clean_traffic () =
  List.iter
    (fun topo ->
      let g, routing, cycles, plan = shortcut_setup topo in
      single_failure_sweep g routing (fun failures ~src ~dst ->
          let strict = step_walk ~plan ~routing ~cycles ~failures ~src ~dst in
          let guarded =
            Forward.run_guarded ~shortcut:plan ~routing ~cycles ~failures ~src
              ~dst ()
          in
          Alcotest.(check bool) "guarded trace is the strict trace" true
            (guarded.Forward.trace = strict);
          Alcotest.(check bool) "no fault on clean traffic" true
            (guarded.Forward.fault = None)))
    [ Pr_topo.Abilene.topology (); Pr_topo.Geant.topology () ]

let suite =
  [
    Alcotest.test_case "no failure = shortest path" `Quick test_no_failure_is_shortest_path;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    Alcotest.test_case "ttl respected" `Quick test_ttl_respected;
    Alcotest.test_case "isolated source drops" `Quick test_isolated_source_drops;
    Alcotest.test_case "disconnected pair" `Quick test_disconnected_pair_does_not_deliver;
    Alcotest.test_case "single failure stats" `Quick test_single_failure_walkthrough_stats;
    Alcotest.test_case "curved edge loops (regression)" `Quick
      test_curved_edge_single_failure_loops;
    Alcotest.test_case "grid single-failure coverage" `Quick
      test_single_failure_full_coverage_grid;
    Alcotest.test_case "abilene single-failure coverage" `Quick
      test_single_failure_full_coverage_abilene;
    Alcotest.test_case "ladder matches step on the truth" `Quick
      test_ladder_step_matches_step;
    Alcotest.test_case "ladder drop carries a reason" `Quick
      test_ladder_stuck_maps_to_reasoned_drop;
    Alcotest.test_case "ladder: missing continuation" `Quick
      test_ladder_missing_continuation;
    Alcotest.test_case "ladder: budget guard" `Quick test_ladder_budget_guard;
    Alcotest.test_case "ladder: LFA rescue" `Quick test_ladder_lfa_rescue;
    Alcotest.test_case "ladder: DD saturation" `Quick test_ladder_dd_saturation;
    Alcotest.test_case "shortcut: pure improvement (paper topologies)" `Slow
      test_shortcut_pure_improvement;
    Alcotest.test_case "shortcut: grant accounting (golden)" `Slow
      test_shortcut_grant_accounting;
    Alcotest.test_case "shortcut: simple termination no-op" `Quick
      test_shortcut_simple_termination_noop;
    Alcotest.test_case "shortcut: guarded clean traffic" `Slow
      test_shortcut_guarded_clean_traffic;
    QCheck_alcotest.to_alcotest qcheck_planar_multi_failure_delivery;
    QCheck_alcotest.to_alcotest qcheck_stretch_lower_bounded_by_reconvergence;
    QCheck_alcotest.to_alcotest qcheck_episode_dds_strictly_decrease;
    QCheck_alcotest.to_alcotest qcheck_quantise_identity_for_hops;
  ]
