module Modelcheck = Pr_exp.Modelcheck
module Failure = Pr_core.Failure

let fig1_setup () =
  let topo = Pr_topo.Example.topology () in
  let rotation =
    Pr_embed.Rotation.of_orders topo.graph Pr_topo.Example.rotation_orders
  in
  ( topo.Pr_topo.Topology.graph,
    Pr_core.Routing.build topo.Pr_topo.Topology.graph,
    Pr_core.Cycle_table.build rotation )

let test_fig1_verdicts () =
  let g, routing, cycles = fig1_setup () in
  let a = Pr_topo.Example.a and f = Pr_topo.Example.f in
  let v failures_list termination =
    Modelcheck.verdict ~termination ~routing ~cycles
      ~failures:(Failure.of_list g failures_list) ~src:a ~dst:f ()
  in
  Alcotest.(check bool) "fig 1(b) delivers in 6 hops" true
    (v [ (Pr_topo.Example.d, Pr_topo.Example.e) ]
       Pr_core.Forward.Distance_discriminator
    = Modelcheck.Delivers 6);
  Alcotest.(check bool) "fig 1(c) delivers in 7 hops" true
    (v [ (Pr_topo.Example.d, Pr_topo.Example.e); (Pr_topo.Example.b, Pr_topo.Example.c) ]
       Pr_core.Forward.Distance_discriminator
    = Modelcheck.Delivers 7);
  (* The simple termination loops on fig 1(c): exact detection, no TTL. *)
  match
    v [ (Pr_topo.Example.d, Pr_topo.Example.e); (Pr_topo.Example.b, Pr_topo.Example.c) ]
      Pr_core.Forward.Simple
  with
  | Modelcheck.Loops _ -> ()
  | Modelcheck.Delivers _ | Modelcheck.Drops -> Alcotest.fail "expected a loop"

let qcheck_differential_random_rotations =
  (* The state-space walker and the TTL-bounded engine must agree on every
     outcome, including the pathological random-rotation cases. *)
  QCheck.Test.make ~name:"exact verdicts agree with the forwarding engine"
    ~count:80
    QCheck.(
      quad (int_bound 1_000_000) (Helpers.arb_two_connected ~max_n:9 ())
        (Helpers.int_range 1 4) bool)
    (fun (seed, g, k, simple) ->
      let rng = Pr_util.Rng.create ~seed in
      let rotation = Pr_embed.Rotation.random rng g in
      let routing = Pr_core.Routing.build g in
      let cycles = Pr_core.Cycle_table.build rotation in
      let k = min k (Pr_graph.Graph.m g - 1) in
      let scenario =
        List.map
          (fun i ->
            let e = Pr_graph.Graph.edge g i in
            (e.Pr_graph.Graph.u, e.Pr_graph.Graph.v))
          (Pr_util.Rng.sample_without_replacement rng ~k ~n:(Pr_graph.Graph.m g))
      in
      let failures = Failure.of_list g scenario in
      let termination =
        if simple then Pr_core.Forward.Simple
        else Pr_core.Forward.Distance_discriminator
      in
      List.for_all
        (fun (src, dst) ->
          Modelcheck.agrees_with_engine ~termination ~routing ~cycles ~failures
            ~src ~dst ())
        (Helpers.all_pairs g))

let suite =
  [
    Alcotest.test_case "fig 1 verdicts" `Quick test_fig1_verdicts;
    QCheck_alcotest.to_alcotest qcheck_differential_random_rotations;
  ]
