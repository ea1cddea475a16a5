(* The telemetry layer pinned to both data planes.

   - Flight recorder: the reference walk and the compiled kernel (traced
     run_one and traced forward_into alike) emit structurally equal
     hop-event sequences on the Abilene all-pairs single-failure sweep
     (events carry no timestamps, so this is plain [=]), and so do
     ladder walks on a router's own view (Abilene, Géant), with equal
     verdicts, probes and link loads.
   - Probes: the reference sweep and the batch kernel feed identical
     histograms through the shared probe record, and the Domain-parallel
     driver preserves them at any domain count.  Every feeder's
     histograms sum to its own counts: deliveries for stretch, walked
     packets for hops and depth.
   - Zero-cost off switch: attaching the null sink or detaching the
     probe never changes a verdict, a trace, or a counter bit. *)

module Graph = Pr_graph.Graph
module Routing = Pr_core.Routing
module Cycle_table = Pr_core.Cycle_table
module Failure = Pr_core.Failure
module Forward = Pr_core.Forward
module Rng = Pr_util.Rng
module Fib = Pr_fastpath.Fib
module Kernel = Pr_fastpath.Kernel
module Parallel = Pr_fastpath.Parallel
module Engine = Pr_sim.Engine
module Metrics = Pr_sim.Metrics
module Detector = Pr_sim.Detector
module Workload = Pr_sim.Workload
module Trace = Pr_telemetry.Trace
module Probe = Pr_telemetry.Probe

let abilene () =
  let topo = Pr_topo.Abilene.topology () in
  (topo, Pr_embed.Geometric.of_topology topo)

let compile g rotation =
  let routing = Routing.build g in
  let cycles = Cycle_table.build rotation in
  (routing, cycles, Fib.of_tables_exn routing cycles)

(* As in the fastpath suite: a (graph, rotation) fully determined by a
   seed triple. *)
let random_instance (seed, n, extra) =
  let g =
    (Pr_topo.Generate.two_connected (Rng.create ~seed) ~n ~extra)
      .Pr_topo.Topology.graph
  in
  (g, Pr_embed.Rotation.adjacency g)

let random_failures rng g ~k =
  let k = min k (Graph.m g - 1) in
  Failure.of_list g
    (List.map
       (fun i ->
         let e = Graph.edge g i in
         (e.Graph.u, e.Graph.v))
       (Rng.sample_without_replacement rng ~k ~n:(Graph.m g)))

(* ---- flight recorder: identical event sequences across backends ---- *)

let test_event_differential_abilene () =
  let topo, rotation = abilene () in
  let g = topo.Pr_topo.Topology.graph in
  let routing, cycles, fib = compile g rotation in
  let kernel = Kernel.create fib in
  let ref_ring = Trace.Ring.create () in
  let krn_ring = Trace.Ring.create () in
  let compared = ref 0 in
  List.iter
    (fun termination ->
      List.iter
        (fun scenario ->
          let failures = Failure.of_list g scenario in
          Kernel.set_failures kernel failures;
          for src = 0 to Graph.n g - 1 do
            for dst = 0 to Graph.n g - 1 do
              if src <> dst && Failure.pair_connected failures src dst then begin
                Trace.Ring.clear ref_ring;
                ignore
                  (Forward.run ~termination ~trace:(Trace.Ring.sink ref_ring)
                     ~routing ~cycles ~failures ~src ~dst ());
                let expect = Trace.Ring.events ref_ring in
                if expect = [] then
                  Alcotest.failf "empty trace %d->%d" src dst;
                (* Both kernel entry points run the one compiled walk, so
                   a traced batch walk emits every event too. *)
                List.iter
                  (fun (entry, walk) ->
                    Trace.Ring.clear krn_ring;
                    Kernel.set_trace kernel (Trace.Ring.sink krn_ring);
                    walk ();
                    Kernel.set_trace kernel Trace.null;
                    let got = Trace.Ring.events krn_ring in
                    if expect <> got then
                      Alcotest.failf
                        "%s event sequence mismatch %d->%d:\n-- reference\n%s\n-- compiled\n%s"
                        entry src dst (Trace.render expect) (Trace.render got))
                  [
                    ( "run_one",
                      fun () ->
                        ignore (Kernel.run_one ~termination kernel ~src ~dst) );
                    ( "forward_into",
                      fun () ->
                        Kernel.forward_into ~termination kernel
                          (Kernel.fresh_counters ()) ~src ~dst );
                  ];
                incr compared
              end
            done
          done)
        (Pr_core.Scenario.single_links g))
    [ Forward.Distance_discriminator; Forward.Simple ];
  (* Abilene is 2-edge-connected: no pair is ever skipped. *)
  Alcotest.(check int) "pairs compared" (2 * Graph.m g * (Graph.n g * (Graph.n g - 1)))
    !compared

(* ---- the same differential over ladder walks on a router's own view ---- *)

(* Per edge index [i]: link [i] failed but believed up (its packets die
   on the wire), link [i+1] failed and believed down, link [i+2] live
   but believed down (the ladder runs on a live link).  The DD field is
   one bit short of the topology's budget and the TTL short under the
   hop-budget guard, so the saturation and budget rungs fire too.  Both
   backends walk every ordered pair under both terminations with trace,
   probe and link load attached. *)
let check_ladder_view_differential topo rotation =
  let g = topo.Pr_topo.Topology.graph in
  let routing, cycles, fib = compile g rotation in
  let kernel = Kernel.create fib in
  let m = Graph.m g in
  let dd_bits = Routing.dd_bits routing - 1 in
  let ttl = Graph.n g and budget_guard = Graph.n g / 2 in
  let ref_ring = Trace.Ring.create () and krn_ring = Trace.Ring.create () in
  let ref_probe = Probe.create () and krn_probe = Probe.create () in
  let ref_ll = Pr_obs.Linkload.create g and krn_ll = Pr_obs.Linkload.create g in
  Kernel.set_trace kernel (Trace.Ring.sink krn_ring);
  Kernel.set_probe kernel (Some krn_probe);
  Kernel.set_linkload kernel (Some krn_ll);
  let divergences = ref 0 and saturations = ref 0 and budget_rungs = ref 0 in
  for i = 0 to m - 1 do
    let edge k = Graph.edge g ((i + k) mod m) in
    let stale = edge 0 and down = edge 1 and suspect = edge 2 in
    let failures =
      Failure.of_list g [ (stale.Graph.u, stale.Graph.v); (down.u, down.v) ]
    in
    let view ~node ~other =
      not
        (List.exists
           (fun (e : Graph.edge) ->
             (e.u = node && e.v = other) || (e.v = node && e.u = other))
           [ down; suspect ])
    in
    Kernel.set_failures kernel failures;
    Kernel.fill_view kernel view;
    List.iter
      (fun termination ->
        List.iter
          (fun (src, dst) ->
            Trace.Ring.clear ref_ring;
            Trace.Ring.clear krn_ring;
            let expect =
              Forward.run_guarded ~termination ~dd_bits ~budget_guard ~ttl
                ~view ~trace:(Trace.Ring.sink ref_ring) ~probe:ref_probe
                ~linkload:ref_ll ~routing ~cycles ~failures ~src ~dst ()
            in
            let got =
              Kernel.run_one ~termination ~dd_bits ~budget_guard ~ttl kernel
                ~src ~dst
            in
            let events = Trace.Ring.events ref_ring in
            if events <> Trace.Ring.events krn_ring then
              Alcotest.failf
                "%s edge %d: event sequence mismatch %d->%d:\n-- reference\n%s\n-- compiled\n%s"
                topo.Pr_topo.Topology.name i src dst (Trace.render events)
                (Trace.render (Trace.Ring.events krn_ring));
            if
              expect.Forward.trace.Forward.outcome <> got.Kernel.outcome
              || Option.map Forward.drop_reason_name expect.Forward.drop
                 <> Option.map Kernel.reason_name got.Kernel.reason
              || expect.Forward.degradations <> got.Kernel.degradations
            then
              Alcotest.failf
                "%s edge %d: outcome, drop reason or degradations differ %d->%d"
                topo.Pr_topo.Topology.name i src dst;
            List.iter
              (function
                | Trace.Divergence _ -> incr divergences
                | Trace.Dd_saturated _ | Trace.Dd_refused _ -> incr saturations
                | Trace.Rung { reason = "budget-exhausted"; _ } ->
                    incr budget_rungs
                | _ -> ())
              events)
          (Helpers.all_pairs g))
      [ Forward.Distance_discriminator; Forward.Simple ]
  done;
  Kernel.set_trace kernel Trace.null;
  Kernel.set_probe kernel None;
  Kernel.set_linkload kernel None;
  Alcotest.(check bool) "probe parity" true
    (Probe.equal_counts ref_probe krn_probe);
  Alcotest.(check bool) "link-load parity" true
    (Pr_obs.Linkload.equal ref_ll krn_ll);
  List.iter
    (fun (what, count) ->
      if count = 0 then
        Alcotest.failf "%s: the sweep exercised no %s"
          topo.Pr_topo.Topology.name what)
    [
      ("stale-view wire death", !divergences);
      ("DD saturation", !saturations);
      ("budget rung", !budget_rungs);
    ]

let test_event_differential_ladder_views () =
  List.iter
    (fun topo ->
      check_ladder_view_differential topo (Pr_embed.Geometric.of_topology topo))
    [ Pr_topo.Abilene.topology (); Pr_topo.Geant.topology () ]

(* ---- probes: reference sweep = kernel sweep, at any domain count ---- *)

(* The reference side of the bench sweep, with the walk's own counts of
   deliveries and walked packets: a disconnected pair is not walked. *)
let reference_sweep_probe routing cycles items =
  let probe = Probe.create () in
  let delivered = ref 0 and walked = ref 0 in
  Array.iter
    (fun (item : Parallel.item) ->
      Array.iter
        (fun (src, dst) ->
          if Failure.pair_connected item.Parallel.failures src dst then begin
            incr walked;
            let trace =
              Forward.run ~probe ~routing ~cycles
                ~failures:item.Parallel.failures ~src ~dst ()
            in
            if trace.Forward.outcome = Forward.Delivered then incr delivered
          end)
        item.Parallel.pairs)
    items;
  (probe, !delivered, !walked)

(* The kernel's totals come from its own counters; [run_probed] on one
   domain is {!Kernel.forward_into} over the items in order. *)
let check_kernel_totals what probe (c : Kernel.counters) =
  Helpers.check_probe_totals what probe ~delivered:c.delivered
    ~walked:(c.injected - c.unreachable)

let test_probe_parity_sweep () =
  let topo, rotation = abilene () in
  let g = topo.Pr_topo.Topology.graph in
  let routing, cycles, fib = compile g rotation in
  let items = Parallel.all_pairs_single_failures fib in
  let expect, delivered, walked = reference_sweep_probe routing cycles items in
  Helpers.check_probe_totals "reference walk" expect ~delivered ~walked;
  let counters1, probe1 = Parallel.run_probed ~domains:1 ~seed:3 fib items in
  check_kernel_totals "1 domain" probe1 counters1;
  Alcotest.(check bool) "kernel probe = reference probe" true
    (Probe.equal_counts expect probe1);
  List.iter
    (fun domains ->
      let counters, probe = Parallel.run_probed ~domains ~seed:3 fib items in
      check_kernel_totals (Printf.sprintf "%d domains" domains) probe counters;
      Alcotest.(check bool)
        (Printf.sprintf "probe bit-identical at %d domains" domains)
        true
        (Probe.equal_counts probe1 probe);
      Alcotest.(check bool) "counters unchanged by the probe" true
        (Kernel.equal_counters counters1 counters))
    [ 2; 3; 4 ];
  if probe1.Probe.depth_hist.(0) = walked then
    Alcotest.fail "single-failure sweep recorded no PR episodes"

(* ---- the off switch costs nothing and changes nothing ---- *)

let qcheck_noop_sink_invariance =
  QCheck.Test.make
    ~name:"null sink and detached probe leave verdicts and counters bit-identical"
    ~count:40
    QCheck.(
      pair
        (triple (int_bound 1_000_000) (Helpers.int_range 4 10) (int_bound 12))
        (Helpers.int_range 0 5))
    (fun (params, k) ->
      let g, rotation = random_instance params in
      let seed, _, _ = params in
      let routing, cycles, fib = compile g rotation in
      let failures = random_failures (Rng.create ~seed:(seed + 13)) g ~k in
      let kernel = Kernel.create fib in
      Kernel.set_failures kernel failures;
      let ring = Trace.Ring.create () in
      let probe = Probe.create () in
      let plain = Kernel.fresh_counters () in
      let probed = Kernel.fresh_counters () in
      for src = 0 to Graph.n g - 1 do
        for dst = 0 to Graph.n g - 1 do
          if src <> dst && Failure.pair_connected failures src dst then begin
            (* run_one: attaching a sink must not move the result. *)
            let quiet = Kernel.run_one kernel ~src ~dst in
            Trace.Ring.clear ring;
            Kernel.set_trace kernel (Trace.Ring.sink ring);
            let traced = Kernel.run_one kernel ~src ~dst in
            Kernel.set_trace kernel Trace.null;
            if quiet <> traced then
              QCheck.Test.fail_reportf "run_one moved under a sink %d->%d" src
                dst;
            (* Forward.run: same, for the reference walk. *)
            let quiet_ref =
              Forward.run ~routing ~cycles ~failures ~src ~dst ()
            in
            let traced_ref =
              Forward.run ~trace:(Trace.Ring.sink ring) ~probe
                ~routing ~cycles ~failures ~src ~dst ()
            in
            if quiet_ref <> traced_ref then
              QCheck.Test.fail_reportf "Forward.run moved under telemetry %d->%d"
                src dst;
            (* forward_into: the probe must not move a counter bit. *)
            Kernel.set_probe kernel None;
            Kernel.forward_into kernel plain ~src ~dst;
            Kernel.set_probe kernel (Some probe);
            Kernel.forward_into kernel probed ~src ~dst;
            Kernel.set_probe kernel None
          end
        done
      done;
      if not (Kernel.equal_counters plain probed) then
        QCheck.Test.fail_report "probe-on counters diverged";
      true)

(* ---- the engine's probe totals ---- *)

let engine_probe topo rotation ~detection ~backend =
  let g = topo.Pr_topo.Topology.graph in
  let rng = Rng.create ~seed:9 in
  let link_events =
    Workload.failure_process (Rng.copy rng) g ~mtbf:60.0 ~mttr:8.0
      ~horizon:40.0
  in
  let injections =
    Workload.poisson_flows (Rng.copy rng) g ~rate:25.0 ~horizon:40.0
  in
  let probe = Probe.create () in
  let outcome =
    Engine.run_exn ?detection ~backend ~probe
      {
        Engine.topology = topo;
        rotation;
        scheme = Engine.Pr_scheme { termination = Forward.Distance_discriminator };
      }
      ~link_events ~injections
  in
  (outcome, probe)

let test_probe_totals_engine () =
  let topo, rotation = abilene () in
  List.iter
    (fun detection ->
      let a, pa = engine_probe topo rotation ~detection ~backend:`Reference in
      let b, pb = engine_probe topo rotation ~detection ~backend:`Compiled in
      Helpers.check_probe_metrics "reference engine" pa a.Engine.metrics;
      Helpers.check_probe_metrics "compiled engine" pb b.Engine.metrics;
      Alcotest.(check bool) "probes agree across backends" true
        (Probe.equal_counts pa pb))
    [
      None;
      Some Detector.ideal;
      Some { Detector.default with budget_guard = 6; false_positive_rate = 0.05 };
    ]

(* ---- the trace ring ---- *)

let test_ring_overflow () =
  let ring = Trace.Ring.create ~capacity:4 () in
  let sink = Trace.Ring.sink ring in
  let ev i = Trace.Hop { node = i; next = i + 1; pr = false; dd = 0.0 } in
  for i = 0 to 5 do
    if Trace.enabled sink then Trace.emit sink (ev i)
  done;
  Alcotest.(check int) "length" 4 (Trace.Ring.length ring);
  Alcotest.(check int) "dropped" 2 (Trace.Ring.dropped ring);
  Alcotest.(check bool) "keeps the head of the walk" true
    (Trace.Ring.events ring = [ ev 0; ev 1; ev 2; ev 3 ]);
  Trace.Ring.clear ring;
  Alcotest.(check int) "cleared" 0 (Trace.Ring.length ring);
  Alcotest.(check int) "cleared dropped" 0 (Trace.Ring.dropped ring);
  Alcotest.(check bool) "null sink disabled" false (Trace.enabled Trace.null)

let suite =
  [
    Alcotest.test_case "event differential: abilene single failures" `Quick
      test_event_differential_abilene;
    Alcotest.test_case "event differential: ladder walks on views" `Quick
      test_event_differential_ladder_views;
    Alcotest.test_case "probe parity: reference = kernel = parallel" `Quick
      test_probe_parity_sweep;
    Alcotest.test_case "probe totals track the engine" `Slow
      test_probe_totals_engine;
    Alcotest.test_case "ring capture overflow accounting" `Quick
      test_ring_overflow;
    QCheck_alcotest.to_alcotest qcheck_noop_sink_invariance;
  ]
