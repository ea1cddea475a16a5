(* The compiled fast path pinned to the reference data plane.

   Three layers of differential coverage:
   - the FIB compiler round-trips every Routing / Cycle_table /
     Discriminator entry (decompilation = the reference tables);
   - the batch kernel's verdicts are identical to Forward.run (global
     truth) and to the ladder_step walk of the simulation engine's
     detection path (arbitrary per-router views), over random topologies,
     failure sets and views;
   - the Domain-parallel driver is bit-deterministic in the domain count,
     with golden-pinned summaries for Abilene and Géant. *)

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

let build_tables ?kind g rotation =
  (Routing.build ?kind g, Cycle_table.build rotation)

let compile ?kind g rotation =
  let routing, cycles = build_tables ?kind g rotation in
  (routing, cycles, Fib.of_tables_exn routing cycles)

let named_topologies () =
  List.map
    (fun topo -> (topo, Pr_embed.Geometric.of_topology topo))
    [
      Pr_topo.Abilene.topology ();
      Pr_topo.Teleglobe.topology ();
      Pr_topo.Geant.topology ();
    ]

(* A (graph, rotation) fully determined by a seed triple, as in
   Helpers.gen_two_connected. *)
let random_instance (seed, n, extra) =
  let g =
    (Pr_topo.Generate.two_connected (Rng.create ~seed) ~n ~extra)
      .Pr_topo.Topology.graph
  in
  (g, Pr_embed.Rotation.adjacency g)

(* The same instance with every link re-weighted from [seed]: weights in
   [0.25, 4.25), mostly fractional, so weighted discriminators exercise
   the ceiling quantiser. *)
let reweighted_instance (seed, n, extra) =
  let g, _ = random_instance (seed, n, extra) in
  let rng = Rng.create ~seed:(seed + 1) in
  let g =
    Graph.create ~n:(Graph.n g)
      (Array.to_list (Graph.edges g)
      |> List.map (fun (e : Graph.edge) ->
             (e.Graph.u, e.Graph.v, 0.25 +. Rng.float rng 4.0)))
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

(* ---- FIB compiler: decompilation round-trip ---- *)

(* The port planes at any port width: every real slot's twin points
   back to its node, padded cells read -1, and [port_of] is the graph's
   port for every pair, non-neighbours included. *)
let check_ports g fib =
  let n = Graph.n g and ports = Fib.ports fib in
  let port_node = Fib.raw_port_node fib and twin = Fib.raw_twin fib in
  for x = 0 to n - 1 do
    for p = 0 to ports - 1 do
      let s = (x * ports) + p in
      if p < Graph.degree g x then begin
        let w = port_node.(s) and back = twin.(s) in
        Alcotest.(check bool) "twin below the far end's degree" true
          (back >= 0 && back < Graph.degree g w);
        Alcotest.(check int) "twin points back" x
          port_node.((w * ports) + back)
      end
      else begin
        Alcotest.(check int) "padded port_node" (-1) port_node.(s);
        Alcotest.(check int) "padded twin" (-1) twin.(s)
      end
    done;
    for w = 0 to n - 1 do
      Alcotest.(check int) "port_of = Graph.port" (Graph.port g x w)
        (Fib.port_of fib ~node:x ~neighbour:w)
    done
  done

let check_roundtrip kind g rotation =
  let routing, cycles, fib = compile ~kind g rotation in
  let n = Graph.n g in
  check_ports g fib;
  Alcotest.(check int) "n" n (Fib.n fib);
  Alcotest.(check int) "dd bits" (Routing.dd_bits routing) (Fib.dd_bits fib);
  for node = 0 to n - 1 do
    Alcotest.(check int) "degree" (Graph.degree g node) (Fib.degree fib node);
    (* Ports are the neighbour indices; port_of/neighbour_of invert. *)
    Array.iteri
      (fun port w ->
        Alcotest.(check int) "neighbour_of" w
          (Fib.neighbour_of fib ~node ~port);
        Alcotest.(check int) "port_of" port
          (Fib.port_of fib ~node ~neighbour:w);
        Alcotest.(check int) "slot"
          ((node * Fib.ports fib) + port)
          (Fib.slot fib ~node ~other:w))
      (Graph.neighbours g node);
    for port = Graph.degree g node to Fib.ports fib - 1 do
      Alcotest.(check int) "padded port" (-1) (Fib.neighbour_of fib ~node ~port)
    done;
    (* Cycle table rows: Fib.entries is port-ordered, the reference is
       rotation-ordered — sort both by the incoming neighbour. *)
    let by_incoming =
      List.sort (fun (a : Cycle_table.entry) b -> compare a.incoming b.incoming)
    in
    let expect = by_incoming (Cycle_table.entries cycles node) in
    let got = by_incoming (Fib.entries fib node) in
    Alcotest.(check int) "entry count" (List.length expect) (List.length got);
    List.iter2
      (fun (a : Cycle_table.entry) (b : Cycle_table.entry) ->
        Alcotest.(check int) "incoming" a.incoming b.incoming;
        Alcotest.(check int) "cycle following" a.cycle_following
          b.cycle_following;
        Alcotest.(check int) "complementary" a.complementary b.complementary)
      expect got;
    Array.iter
      (fun w ->
        Alcotest.(check int) "cycle_next"
          (Cycle_table.cycle_next cycles ~node ~from_:w)
          (Fib.cycle_next fib ~node ~from_:w);
        Alcotest.(check int) "complement_for_failed"
          (Cycle_table.complement_for_failed cycles ~node ~failed:w)
          (Fib.complement_for_failed fib ~node ~failed:w))
      (Graph.neighbours g node);
    for dst = 0 to n - 1 do
      Alcotest.(check (option int)) "next_hop"
        (Routing.next_hop routing ~node ~dst)
        (Fib.next_hop fib ~node ~dst);
      Alcotest.(check (float 0.0)) "disc"
        (Routing.disc routing ~node ~dst)
        (Fib.disc fib ~node ~dst);
      Alcotest.(check int) "disc_q"
        (Routing.quantise_dd routing (Routing.disc routing ~node ~dst))
        (Fib.disc_q fib ~node ~dst);
      (* The quantiser itself, spelled out: identity for hops, ceiling
         for weighted costs. *)
      let d = Fib.disc fib ~node ~dst in
      Alcotest.(check int) "disc_q rounding"
        (match kind with
        | Pr_core.Discriminator.Hops -> int_of_float d
        | Pr_core.Discriminator.Weighted -> int_of_float (Float.ceil d))
        (Fib.disc_q fib ~node ~dst);
      Alcotest.(check (float 0.0)) "distance"
        (Routing.distance routing ~node ~dst)
        (Fib.distance fib ~node ~dst)
    done
  done;
  List.iter
    (fun v ->
      Alcotest.(check int) "quantise_dd"
        (Routing.quantise_dd routing v)
        (Fib.quantise_dd fib v))
    [ 0.0; 0.4; 1.0; 2.3; 7.5; 15.9 ]

let test_roundtrip_named () =
  List.iter
    (fun (topo, rotation) ->
      List.iter
        (fun kind -> check_roundtrip kind topo.Pr_topo.Topology.graph rotation)
        [ Pr_core.Discriminator.Hops; Pr_core.Discriminator.Weighted ])
    (named_topologies ())

let qcheck_roundtrip_random =
  QCheck.Test.make ~name:"FIB image round-trips the reference tables"
    ~count:30
    QCheck.(triple (int_bound 1_000_000) (Helpers.int_range 4 12) (int_bound 12))
    (fun params ->
      let g, rotation = random_instance params in
      check_roundtrip Pr_core.Discriminator.Hops g rotation;
      let g, rotation = reweighted_instance params in
      check_roundtrip Pr_core.Discriminator.Weighted g rotation;
      true)

let qcheck_ports_random =
  QCheck.Test.make ~name:"FIB twins and ports hold at any port width"
    ~count:30
    QCheck.(
      quad (int_bound 1_000_000) (Helpers.int_range 4 12) (int_bound 12)
        (Helpers.int_range 1 4))
    (fun (seed, n, extra, pad) ->
      let g, rotation = random_instance (seed, n, extra) in
      let routing, cycles = build_tables g rotation in
      List.iter
        (fun ports -> check_ports g (Fib.of_tables_exn ~ports routing cycles))
        [ Graph.max_degree g; Graph.max_degree g + pad ];
      true)

let test_compile_errors () =
  let topo, rotation = Helpers.grid_with_rotation ~rows:3 ~cols:3 in
  let routing, cycles = build_tables topo.Pr_topo.Topology.graph rotation in
  (* The grid's interior node has degree 4: a 3-port image is a typed
     error, never an assert. *)
  (match Fib.of_tables ~ports:3 routing cycles with
  | Error (Fib.Port_overflow { degree; ports; _ }) ->
      Alcotest.(check int) "overflowing degree" 4 degree;
      Alcotest.(check int) "image width" 3 ports
  | Error (Fib.Graph_mismatch _) -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "port overflow accepted");
  (match Fib.of_tables_exn ~ports:3 routing cycles with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_tables_exn did not raise");
  let other, other_rot = Helpers.grid_with_rotation ~rows:2 ~cols:2 in
  let _, other_cycles = build_tables other.Pr_topo.Topology.graph other_rot in
  match Fib.of_tables routing other_cycles with
  | Error (Fib.Graph_mismatch (Fib.Node_count { routing = rn; cycles = cn }))
    ->
      (* The mismatch carries its locus: the 3x3 grid vs the 2x2 grid. *)
      Alcotest.(check int) "routing graph nodes" 9 rn;
      Alcotest.(check int) "cycle graph nodes" 4 cn
  | Error (Fib.Graph_mismatch (Fib.Edge _)) ->
      Alcotest.fail "expected a node-count mismatch"
  | Error (Fib.Port_overflow _) -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "mismatched tables accepted"

(* ---- differential: kernel vs Forward.run (global truth) ---- *)

let traces_equal (a : Forward.trace) (b : Forward.trace) = a = b

let check_truth_differential g rotation failures =
  let _, _, fib = compile g rotation in
  let kernel = Kernel.create fib in
  Kernel.set_failures kernel failures;
  List.iter
    (fun termination ->
      List.iter
        (fun quantise ->
          let routing, cycles = build_tables g rotation in
          List.iter
            (fun (src, dst) ->
              let expect =
                Forward.run ~termination ~quantise ~routing ~cycles ~failures
                  ~src ~dst ()
              in
              let r = Kernel.run_one ~termination ~quantise kernel ~src ~dst in
              if not (traces_equal expect (Kernel.to_trace kernel r)) then
                Alcotest.failf "trace mismatch %d->%d" src dst;
              if r.Kernel.degradations <> [] then
                Alcotest.failf "unexpected degradation %d->%d" src dst;
              (match (r.Kernel.outcome, r.Kernel.reason) with
              | Forward.Delivered, Some _ | Forward.Ttl_exceeded, Some _ ->
                  Alcotest.failf "reason on a non-drop %d->%d" src dst
              | (Forward.Dropped_no_interface | Forward.Dropped_unreachable), None
                ->
                  Alcotest.failf "drop without reason %d->%d" src dst
              | _ -> ());
              if
                expect.Forward.outcome = Forward.Delivered
                && not
                     (Helpers.close r.Kernel.cost
                        (Forward.path_cost g expect))
              then Alcotest.failf "cost mismatch %d->%d" src dst)
            (Helpers.all_pairs g))
        [ false; true ])
    [ Forward.Distance_discriminator; Forward.Simple ]

let test_truth_differential_named () =
  List.iter
    (fun (topo, rotation) ->
      let g = topo.Pr_topo.Topology.graph in
      (* Every single-link failure of the real topologies. *)
      List.iter
        (fun scenario ->
          check_truth_differential g rotation (Failure.of_list g scenario))
        (Pr_core.Scenario.single_links g))
    [
      (Pr_topo.Abilene.topology (),
       Pr_embed.Geometric.of_topology (Pr_topo.Abilene.topology ()));
    ]

let qcheck_truth_differential =
  QCheck.Test.make
    ~name:"kernel = Forward.run on random graphs and failure sets" ~count:60
    QCheck.(
      pair
        (triple (int_bound 1_000_000) (Helpers.int_range 4 10) (int_bound 12))
        (Helpers.int_range 0 5))
    (fun (params, k) ->
      let g, rotation = random_instance params in
      let seed, _, _ = params in
      let failures = random_failures (Rng.create ~seed:(seed + 1)) g ~k in
      check_truth_differential g rotation failures;
      true)

(* ---- differential: kernel vs the engine's ladder walk (views) ---- *)

(* A ladder walk over an arbitrary belief plane and the wire truth,
   written against Forward.ladder_step alone: a referee for the kernel
   that shares no walk code with Forward.run_guarded. *)
let reference_ladder_walk ~routing ~cycles ~g ~termination ?dd_bits
    ~budget_guard ~view ~truth_up ~src ~dst () =
  let pr_episodes = ref 0 in
  let failure_hits = ref 0 in
  let max_dd = ref 0.0 in
  let episodes = ref [] in
  let degr_rev = ref [] in
  let finish outcome ~reason acc =
    ( {
        Forward.outcome;
        path = List.rev acc;
        pr_episodes = !pr_episodes;
        failure_hits = !failure_hits;
        max_header =
          {
            Pr_core.Header.pr = !pr_episodes > 0;
            dd = Routing.quantise_dd routing !max_dd;
          };
        episodes = List.rev !episodes;
        shortcuts = 0;
      },
      reason,
      List.rev !degr_rev )
  in
  let rec walk x arrived_from (header : Forward.hop_header) ~ttl acc =
    if x = dst then finish Forward.Delivered ~reason:None acc
    else if ttl = 0 then finish Forward.Ttl_exceeded ~reason:None acc
    else
      match
        Forward.ladder_step ~termination ?dd_bits ~hops_left:ttl ~budget_guard
          ~routing ~cycles ~link_up:(view x) ~dst ~node:x ~arrived_from ~header
          ()
      with
      | Forward.Degraded_drop { reason; failure_hits = hits; degradations } ->
          failure_hits := !failure_hits + hits;
          degr_rev := List.rev_append degradations !degr_rev;
          let outcome =
            match reason with
            | Forward.No_route -> Forward.Dropped_unreachable
            | Forward.Interfaces_down | Forward.Continuation_lost
            | Forward.Budget_exhausted | Forward.Stale_view ->
                Forward.Dropped_no_interface
          in
          finish outcome ~reason:(Some (Forward.drop_reason_name reason)) acc
      | Forward.Forwarded
          { next; header; episode_started; failure_hits = hits; degradations; _ }
        ->
          failure_hits := !failure_hits + hits;
          degr_rev := List.rev_append degradations !degr_rev;
          if episode_started then begin
            incr pr_episodes;
            episodes := (x, header.Forward.dd_value) :: !episodes;
            if header.Forward.dd_value > !max_dd then
              max_dd := header.Forward.dd_value
          end;
          if truth_up x next then
            walk next (Some x) header ~ttl:(ttl - 1) (next :: acc)
          else
            finish Forward.Dropped_no_interface ~reason:(Some "stale-view")
              (next :: acc)
  in
  walk src None Forward.fresh_header ~ttl:(Forward.default_ttl g) [ src ]

(* Returns the number of LFA rescues the walks made. *)
let check_view_differential ?kind g rotation ~seed ~k ~budget_guard =
  let routing, cycles, fib = compile ?kind g rotation in
  let n = Graph.n g in
  let rng = Rng.create ~seed in
  let failures = random_failures rng g ~k in
  (* A belief plane: the truth with independent per-endpoint flips, so
     views can be stale in both directions and asymmetric. *)
  let belief = Array.make (n * n) true in
  Graph.iter_edges
    (fun _ (e : Graph.edge) ->
      let truth = Failure.link_up failures e.u e.v in
      belief.((e.u * n) + e.v) <-
        (if Rng.float rng 1.0 < 0.2 then not truth else truth);
      belief.((e.v * n) + e.u) <-
        (if Rng.float rng 1.0 < 0.2 then not truth else truth))
    g;
  let view x other = belief.((x * n) + other) in
  let truth_up x other = Failure.link_up failures x other in
  let dd_bits = Routing.dd_bits routing in
  let kernel = Kernel.create fib in
  Kernel.set_failures kernel failures;
  Kernel.fill_view kernel (fun ~node ~other -> view node other);
  let rescues = ref 0 in
  List.iter
    (fun termination ->
      List.iter
        (fun (src, dst) ->
          let expect_trace, expect_reason, expect_degr =
            reference_ladder_walk ~routing ~cycles ~g ~termination ~dd_bits
              ~budget_guard ~view ~truth_up ~src ~dst ()
          in
          let r =
            Kernel.run_one ~termination ~dd_bits ~budget_guard kernel ~src ~dst
          in
          if not (traces_equal expect_trace (Kernel.to_trace kernel r)) then
            Alcotest.failf "ladder trace mismatch %d->%d" src dst;
          Alcotest.(check (option string))
            (Printf.sprintf "reason %d->%d" src dst)
            expect_reason
            (Option.map Kernel.reason_name r.Kernel.reason);
          Alcotest.(check (list string))
            (Printf.sprintf "degradations %d->%d" src dst)
            (List.map Forward.degradation_name expect_degr)
            (List.map Forward.degradation_name r.Kernel.degradations);
          List.iter
            (fun d -> if d = Forward.Lfa_rescue then incr rescues)
            r.Kernel.degradations)
        (Helpers.all_pairs g))
    [ Forward.Distance_discriminator; Forward.Simple ];
  !rescues

let qcheck_view_differential =
  QCheck.Test.make
    ~name:"kernel = engine ladder walk under random stale views" ~count:60
    QCheck.(
      triple
        (triple (int_bound 1_000_000) (Helpers.int_range 4 10) (int_bound 12))
        (Helpers.int_range 0 5) (Helpers.int_range 0 6))
    (fun (params, k, budget_guard) ->
      let seed, _, _ = params in
      let g, rotation = random_instance params in
      ignore
        (check_view_differential g rotation ~seed:(seed + 7) ~k ~budget_guard
          : int);
      (* Fractional weights, so [port_weight] can decide a rescue. *)
      let g, rotation = reweighted_instance params in
      ignore
        (check_view_differential ~kind:Pr_core.Discriminator.Weighted g
           rotation ~seed:(seed + 7) ~k ~budget_guard
          : int);
      true)

let test_view_differential_abilene () =
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let rescues =
    List.fold_left
      (fun acc seed ->
        acc
        + check_view_differential topo.Pr_topo.Topology.graph rotation ~seed
            ~k:2 ~budget_guard:6)
      0 [ 1; 2; 3 ]
  in
  (* The wall must keep reaching the last rung. *)
  if rescues = 0 then Alcotest.fail "no walk reached the LFA rung"

(* The LFA rung by hand on Géant.  At node 0 towards 7 the primary is 6,
   and the two cheapest loop-free alternates, 3 and 5, tie on cost +
   distance: the rung takes the smaller port, neighbour 3.  With 0-3
   administratively down it takes 5.  The expectation is RFC 5286's
   inequality over the image's live links, read off its planes. *)
let lfa_alternates fib ~node ~dst =
  let primary = Fib.next_hop fib ~node ~dst in
  List.init (Fib.degree fib node) (fun port -> Fib.neighbour_of fib ~node ~port)
  |> List.filter_map (fun w ->
         let cost = Fib.eff_weight fib ~u:node ~v:w in
         let dist_w = Fib.distance fib ~node:w ~dst in
         if
           Some w <> primary
           && Fib.link_live fib ~u:node ~v:w
           && dist_w < cost +. Fib.distance fib ~node ~dst
         then Some (cost +. dist_w, w)
         else None)
  |> List.sort compare

(* The neighbour the rung hands the packet to when [node]'s primary link
   fails under an exhausted budget guard. *)
let lfa_rescuer fib ~node ~dst =
  let kernel = Kernel.create fib in
  let primary = Option.get (Fib.next_hop fib ~node ~dst) in
  Kernel.set_failures kernel (Failure.of_list (Fib.graph fib) [ (node, primary) ]);
  let r =
    Kernel.run_one ~ttl:64 ~budget_guard:64
      ~header:{ Forward.pr_bit = true; dd_value = 0.0 }
      kernel ~src:node ~dst
  in
  Alcotest.(check bool) "delivered" true (r.Kernel.outcome = Forward.Delivered);
  Alcotest.(check (list string)) "one LFA rescue" [ "lfa-rescue" ]
    (List.map Forward.degradation_name r.Kernel.degradations);
  List.nth r.Kernel.path 1

let test_lfa_rung_geant_tie () =
  let topo = Pr_topo.Geant.topology () in
  let _, _, fib =
    compile topo.Pr_topo.Topology.graph (Pr_embed.Geometric.of_topology topo)
  in
  let node = 0 and dst = 7 in
  Alcotest.(check (option int)) "primary" (Some 6) (Fib.next_hop fib ~node ~dst);
  (match lfa_alternates fib ~node ~dst with
  | (k3, 3) :: (k5, 5) :: _ ->
      Alcotest.(check (float 0.0)) "3 and 5 tie" k3 k5
  | _ -> Alcotest.fail "expected alternates 3 and 5 first");
  Alcotest.(check int) "tie to the smaller port" 3 (lfa_rescuer fib ~node ~dst);
  let next, _ =
    Fib.Delta.apply_exn fib
      [ { Fib.Delta.u = node; v = 3; change = Fib.Delta.Down } ]
  in
  Alcotest.(check (option int)) "primary kept" (Some 6)
    (Fib.next_hop next ~node ~dst);
  (match lfa_alternates next ~node ~dst with
  | (_, 5) :: _ -> ()
  | _ -> Alcotest.fail "expected alternate 5 first once 0-3 is down");
  Alcotest.(check int) "the other alternate" 5 (lfa_rescuer next ~node ~dst)

let test_kernel_invalid_args () =
  let topo = Pr_topo.Abilene.topology () in
  let g = topo.Pr_topo.Topology.graph in
  let _, _, fib = compile g (Pr_embed.Geometric.of_topology topo) in
  let kernel = Kernel.create fib in
  Kernel.set_failures kernel (Failure.none g);
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" what
  in
  rejects "src = dst" (fun () -> ignore (Kernel.run_one kernel ~src:0 ~dst:0));
  rejects "out of range" (fun () -> ignore (Kernel.run_one kernel ~src:0 ~dst:99));
  (* The walk ends when its TTL reaches exactly 0, so a negative TTL
     would never end a looping walk. *)
  let c = Kernel.fresh_counters () in
  rejects "negative TTL (run_one)" (fun () ->
      ignore (Kernel.run_one ~ttl:(-1) kernel ~src:0 ~dst:5));
  rejects "negative TTL (forward_into)" (fun () ->
      Kernel.forward_into ~ttl:(-1) kernel c ~src:0 ~dst:5);
  (* Refused before any walk, even by a batch with no packet to walk. *)
  rejects "negative TTL (Parallel.run)" (fun () ->
      ignore
        (Parallel.run
           ~config:{ Parallel.default_config with ttl = Some (-1) }
           ~seed:1 fib
           [| { Parallel.failures = Failure.none g; pairs = [||] } |]));
  Alcotest.(check bool) "a rejected walk accounts nothing" true
    (Kernel.equal_counters c (Kernel.fresh_counters ()));
  (* TTL 0 stays valid: the packet expires at its source. *)
  let r = Kernel.run_one ~ttl:0 kernel ~src:0 ~dst:5 in
  Alcotest.(check bool) "TTL 0 expires" true
    (r.Kernel.outcome = Forward.Ttl_exceeded);
  Alcotest.(check (list int)) "at the source" [ 0 ] r.Kernel.path

(* ---- forward_into is run_one without the trace ---- *)

(* [forward_into] over [pairs] accounts what [run_one]'s results add up
   to.  [run_one] captures every hop, so it walks every loop in full;
   [forward_into] fast-forwards a loop when no guard is set.  Returns the
   expected counters. *)
let check_forward_into_matches_run_one ?termination ?quantise ?dd_bits
    ~budget_guard kernel pairs =
  let fib = Kernel.fib kernel in
  let got = Kernel.fresh_counters () in
  let expect = Kernel.fresh_counters () in
  List.iter
    (fun (src, dst) ->
      Kernel.forward_into ?termination ?quantise ?dd_bits ~budget_guard kernel
        got ~src ~dst;
      let r =
        Kernel.run_one ?termination ?quantise ?dd_bits ~budget_guard kernel
          ~src ~dst
      in
      expect.Kernel.injected <- expect.Kernel.injected + 1;
      (match r.Kernel.outcome with
      | Forward.Delivered ->
          expect.Kernel.delivered <- expect.Kernel.delivered + 1;
          let stretch = r.Kernel.cost /. Fib.distance fib ~node:src ~dst in
          expect.Kernel.stretch_sum <- expect.Kernel.stretch_sum +. stretch;
          if stretch > expect.Kernel.worst_stretch then
            expect.Kernel.worst_stretch <- stretch
      | Forward.Ttl_exceeded -> expect.Kernel.looped <- expect.Kernel.looped + 1
      | Forward.Dropped_no_interface | Forward.Dropped_unreachable
      | Forward.Dropped_corrupt ->
          expect.Kernel.dropped <- expect.Kernel.dropped + 1);
      (match r.Kernel.reason with
      | None -> ()
      | Some reason ->
          let i = Kernel.reason_index reason in
          expect.Kernel.drops_by_reason.(i) <-
            expect.Kernel.drops_by_reason.(i) + 1);
      List.iter
        (fun d ->
          match d with
          | Forward.Retry_complementary ->
              expect.Kernel.complementary_retries <-
                expect.Kernel.complementary_retries + 1
          | Forward.Lfa_rescue ->
              expect.Kernel.lfa_rescues <- expect.Kernel.lfa_rescues + 1
          | Forward.Dd_saturated ->
              expect.Kernel.dd_saturations <- expect.Kernel.dd_saturations + 1)
        r.Kernel.degradations;
      expect.Kernel.pr_episodes <-
        expect.Kernel.pr_episodes + r.Kernel.pr_episodes;
      expect.Kernel.shortcut_exits <-
        expect.Kernel.shortcut_exits + r.Kernel.shortcuts;
      expect.Kernel.failure_hits <-
        expect.Kernel.failure_hits + r.Kernel.failure_hits)
    pairs;
  Alcotest.(check bool) "counters identical" true
    (Kernel.equal_counters got expect);
  expect

(* A non-planar map as bench/e2e draws its synthetic workloads:
   Barabási–Albert (k = 3) or Waxman on [n] nodes, embedded from the
   nodes' coordinates, so some failures make packets loop. *)
let geometric_instance ~ba ~seed ~n =
  let rng = Rng.create ~seed in
  let topo =
    if ba then Pr_topo.Generate.barabasi_albert rng ~n ~k:3
    else
      Pr_topo.Generate.waxman rng ~n
        ~alpha:(Float.min 1.0 (50.0 /. float_of_int n))
        ~beta:0.15
  in
  compile topo.Pr_topo.Topology.graph (Pr_embed.Geometric.of_topology topo)

(* BA n = 60 from seed 1 with its link 27-59 failed, under which the
   packet 44 -> 27 loops. *)
let looping_instance () =
  let _, _, fib = geometric_instance ~ba:true ~seed:1 ~n:60 in
  (fib, Failure.of_list (Fib.graph fib) [ (27, 59) ])

(* A small random core (2-connected, with a random rotation, so often of
   high genus) and a path of 70 nodes hung off its node 0.  A packet from
   the far end of the path spends the fast-forward's 64-hop warm-up on
   the way in, so the skip meets the core's short loops, and the rungs and
   grants around them, from their first hop. *)
let tailed_instance (seed, n, extra) =
  let rng = Rng.create ~seed in
  let core =
    (Pr_topo.Generate.two_connected rng ~n ~extra).Pr_topo.Topology.graph
  in
  let tail = 70 in
  let path =
    List.init tail (fun i -> ((if i = 0 then 0 else n + i - 1), n + i, 1.0))
  in
  let g =
    Graph.create ~n:(n + tail)
      (List.map
         (fun (e : Graph.edge) -> (e.u, e.v, e.w))
         (Array.to_list (Graph.edges core))
      @ path)
  in
  let _, _, fib = compile g (Pr_embed.Rotation.random rng g) in
  (core, fib, rng)

(* A copy of [fib] that shares no array with it, so its cells can be
   damaged. *)
let private_copy fib =
  match Fib.Codec.decode ~base:fib (Fib.Codec.encode fib) with
  | Ok image -> image
  | Error msg -> Alcotest.fail msg

(* [check_forward_into_matches_run_one] over every pair of [fib] under
   [failures]; returns the counters. *)
let all_pairs_match ?dd_bits ~budget_guard fib failures =
  let kernel = Kernel.create fib in
  Kernel.set_failures kernel failures;
  check_forward_into_matches_run_one ?dd_bits ~budget_guard kernel
    (Helpers.all_pairs (Fib.graph fib))

let test_forward_into_matches_run_one () =
  (* Abilene under a stale view and a budget guard: every drop class is
     reachable, and no walk fast-forwards. *)
  let topo = Pr_topo.Abilene.topology () in
  let g = topo.Pr_topo.Topology.graph in
  let _, _, fib = compile g (Pr_embed.Geometric.of_topology topo) in
  let kernel = Kernel.create fib in
  let e = Graph.edge g 0 in
  Kernel.set_failures kernel (Failure.of_list g [ (e.Graph.u, e.Graph.v) ]);
  Kernel.set_believed kernel ~node:e.Graph.u ~other:e.Graph.v ~up:true;
  ignore
    (check_forward_into_matches_run_one ~dd_bits:(Fib.dd_bits fib)
       ~budget_guard:6 kernel (Helpers.all_pairs g)
      : Kernel.counters);
  (* A non-planar map with no budget guard: forward_into fast-forwards
     the loops. *)
  let fib, failures = looping_instance () in
  let c = all_pairs_match ~budget_guard:0 fib failures in
  if c.Kernel.looped = 0 then Alcotest.fail "no walk looped";
  (* Under a 1-bit DD bound, loops whose every period saturates the DD
     and retries the complementary cycle, as 6 -> 15 does here. *)
  let _, _, fib = geometric_instance ~ba:false ~seed:1 ~n:47 in
  let c =
    all_pairs_match ~dd_bits:1 ~budget_guard:0 fib
      (Failure.of_list (Fib.graph fib) [ (29, 30); (13, 43) ])
  in
  if c.Kernel.looped = 0 || c.Kernel.complementary_retries = 0 then
    Alcotest.fail "no walk looped through the retry rung";
  (* The LFA rung inside a loop.  On an intact image it cannot fire
     there: with no budget guard the ladder tries it only after the
     complementary rotation, which visits every port, found them all
     down.  Here a damaged cycle column, whose cell for 24's port to 7
     names that port again, leaves 24's other ports unvisited when 7-24
     fails, so every period of the loop 23 -> 10 takes the rung. *)
  let _, _, fib = geometric_instance ~ba:false ~seed:87 ~n:29 in
  let image = private_copy fib in
  let slot = Fib.slot image ~node:24 ~other:7 in
  (Fib.raw_cycle_col image).(slot) <- slot mod Fib.ports image;
  let c =
    all_pairs_match ~dd_bits:1 ~budget_guard:0 image
      (Failure.of_list (Fib.graph image) [ (10, 26); (7, 24) ])
  in
  if c.Kernel.looped = 0 || c.Kernel.lfa_rescues = 0 then
    Alcotest.fail "no walk looped through the LFA rung";
  (* The hint bits are part of the state.  On this core, 77 -> 4 meets
     an earlier state again with more hint bits set, and takes a grant
     the earlier pass did not: a key without the hint would skip periods
     the walk never makes. *)
  let _, fib, _ = tailed_instance (131, 8, 5) in
  let kernel = Kernel.create fib in
  Kernel.set_failures kernel
    (Failure.of_list (Fib.graph fib) [ (0, 2); (0, 3) ]);
  Kernel.set_shortcut kernel (Some 16);
  let c =
    check_forward_into_matches_run_one ~budget_guard:0 kernel [ (77, 4) ]
  in
  if c.Kernel.shortcut_exits <> 1 then Alcotest.fail "expected one grant";
  (* Shortcut grants inside a loop.  On an intact image a grant cannot
     recur: the walk routes on from it, and every later episode starts
     from a smaller DD.  Damaged next-hop cells at 0 and 1 towards 4 lead
     the routed walk back into the failure, so 74 -> 4 takes a grant in
     every period. *)
  let _, fib, _ = tailed_instance (1032, 5, 3) in
  let image = private_copy fib in
  List.iter
    (fun (x, w) ->
      (Fib.raw_next_hop_port image).(4).(x) <-
        Fib.port_of image ~node:x ~neighbour:w)
    [ (0, 1); (1, 2) ];
  let kernel = Kernel.create image in
  Kernel.set_failures kernel (Failure.of_list (Fib.graph image) [ (0, 2) ]);
  Kernel.set_shortcut kernel (Some 4);
  let c =
    check_forward_into_matches_run_one ~budget_guard:0 kernel [ (74, 4) ]
  in
  if c.Kernel.looped = 0 || c.Kernel.shortcut_exits < 2 then
    Alcotest.fail "no walk looped through the shortcut rung"

(* ---- engine backends ---- *)

let backend_outcome topo rotation scheme ~detection ~backend =
  let g = topo.Pr_topo.Topology.graph in
  let rng = Rng.create ~seed:9 in
  let link_events =
    Workload.failure_process (Rng.copy rng) g ~mtbf:60.0 ~mttr:8.0
      ~horizon:40.0
  in
  let injections =
    Workload.poisson_flows (Rng.copy rng) g ~rate:25.0 ~horizon:40.0
  in
  Engine.run_exn ?detection ~backend
    { Engine.topology = topo; rotation; scheme }
    ~link_events ~injections

let test_engine_backend_equality () =
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let detections =
    [
      None;
      Some Detector.ideal;
      Some { Detector.default with budget_guard = 6; false_positive_rate = 0.05 };
    ]
  in
  let schemes =
    [
      Engine.Pr_scheme { termination = Forward.Distance_discriminator };
      Engine.Pr_scheme { termination = Forward.Simple };
      Engine.Lfa_scheme;
      Engine.Reconvergence_scheme { convergence_delay = 2.0 };
    ]
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun detection ->
          let a = backend_outcome topo rotation scheme ~detection ~backend:`Reference in
          let b = backend_outcome topo rotation scheme ~detection ~backend:`Compiled in
          Alcotest.(check string)
            (Printf.sprintf "metrics identical (%s)" (Engine.scheme_name scheme))
            (Format.asprintf "%a" Metrics.pp a.Engine.metrics)
            (Format.asprintf "%a" Metrics.pp b.Engine.metrics);
          Alcotest.(check bool) "full outcome identical" true (a = b))
        detections)
    schemes

let test_chaos_backend_equality () =
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let module Campaign = Pr_chaos.Campaign in
  let config backend =
    { (Campaign.default_config topo rotation ~seed:42) with
      Campaign.rate = 10.0;
      shrink = false;
      backend;
    }
  in
  match (Campaign.run (config `Reference), Campaign.run (config `Compiled)) with
  | Ok a, Ok b ->
      Alcotest.(check string) "identical chaos verdicts"
        (Campaign.report (config `Reference) a)
        (Campaign.report (config `Compiled) b)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* ---- domain-parallel determinism ---- *)

let sweep_counters ?prepare ~config ~seed ~domains fib =
  let items = Parallel.all_pairs_single_failures fib in
  Parallel.run ~domains ~config ?prepare ~seed fib items

let flip_prepare fib kernel ~rng _item =
  Graph.iter_edges
    (fun _ (e : Graph.edge) ->
      if Rng.float rng 1.0 < 0.15 then
        Kernel.set_believed kernel ~node:e.Graph.u ~other:e.Graph.v ~up:false;
      if Rng.float rng 1.0 < 0.15 then
        Kernel.set_believed kernel ~node:e.Graph.v ~other:e.Graph.u ~up:false)
    (Fib.graph fib)

let test_parallel_determinism () =
  List.iter
    (fun (topo, rotation) ->
      let g = topo.Pr_topo.Topology.graph in
      let _, _, fib = compile g rotation in
      let configs =
        [
          (Parallel.default_config, None);
          ( Parallel.ladder_config ~dd_bits:(Fib.dd_bits fib) ~budget_guard:6,
            Some (flip_prepare fib) );
        ]
      in
      List.iter
        (fun (config, prepare) ->
          let base = sweep_counters ?prepare ~config ~seed:11 ~domains:1 fib in
          List.iter
            (fun domains ->
              let c = sweep_counters ?prepare ~config ~seed:11 ~domains fib in
              Alcotest.(check bool)
                (Printf.sprintf "bit-identical at %d domains" domains)
                true
                (Kernel.equal_counters base c))
            [ 2; 4 ])
        configs)
    [
      (Pr_topo.Abilene.topology (),
       Pr_embed.Geometric.of_topology (Pr_topo.Abilene.topology ()));
      (Pr_topo.Geant.topology (),
       Pr_embed.Geometric.of_topology (Pr_topo.Geant.topology ()));
    ]

let test_parallel_seed_sensitivity () =
  (* The prepare hook consumes its per-item stream: different seeds must
     actually change the perturbed summaries. *)
  let topo = Pr_topo.Abilene.topology () in
  let _, _, fib =
    compile topo.Pr_topo.Topology.graph (Pr_embed.Geometric.of_topology topo)
  in
  let config =
    Parallel.ladder_config ~dd_bits:(Fib.dd_bits fib) ~budget_guard:6
  in
  let a =
    sweep_counters ~prepare:(flip_prepare fib) ~config ~seed:11 ~domains:2 fib
  in
  let b =
    sweep_counters ~prepare:(flip_prepare fib) ~config ~seed:12 ~domains:2 fib
  in
  Alcotest.(check bool) "seeds differentiate" false (Kernel.equal_counters a b)

let golden_summary (c : Kernel.counters) =
  Printf.sprintf "inj=%d del=%d drop=%d loop=%d unreach=%d stretch=%.9f worst=%.9f"
    c.Kernel.injected c.Kernel.delivered c.Kernel.dropped c.Kernel.looped
    c.Kernel.unreachable c.Kernel.stretch_sum c.Kernel.worst_stretch

let test_parallel_golden_pins () =
  (* Golden summaries for fixed seeds: any change to the kernel, the FIB
     compiler or the parallel merge that shifts a verdict or a float
     summation order shows up here. *)
  List.iter
    (fun (topo, expect) ->
      let rotation = Pr_embed.Geometric.of_topology topo in
      let _, _, fib = compile topo.Pr_topo.Topology.graph rotation in
      let config =
        Parallel.ladder_config ~dd_bits:(Fib.dd_bits fib) ~budget_guard:6
      in
      let c =
        sweep_counters ~prepare:(flip_prepare fib) ~config ~seed:42 ~domains:4
          fib
      in
      Alcotest.(check string)
        (topo.Pr_topo.Topology.name ^ " golden")
        expect (golden_summary c))
    [
      ( Pr_topo.Abilene.topology (),
        "inj=1540 del=1158 drop=190 loop=192 unreach=0 stretch=8340.116666667 \
         worst=387.000000000" );
      ( Pr_topo.Geant.topology (),
        "inj=59466 del=46636 drop=5266 loop=7564 unreach=0 \
         stretch=7768785.316666666 worst=3866.000000000" );
    ]

(* ---- Parallel: reachability, failure loading, allocation ---- *)

(* The reachability oracle: the surviving graph's component labels by a
   stack DFS over the failure set's own graph, probing [Failure.link_up]
   per arc — the labelling [Parallel] used before it read the image's
   port planes. *)
let oracle_component_labels failures =
  let g = Failure.graph failures in
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let stack = Stack.create () in
  for root = 0 to n - 1 do
    if label.(root) < 0 then begin
      label.(root) <- root;
      Stack.push root stack;
      while not (Stack.is_empty stack) do
        let x = Stack.pop stack in
        Array.iter
          (fun w ->
            if label.(w) < 0 && Failure.link_up failures x w then begin
              label.(w) <- root;
              Stack.push w stack
            end)
          (Graph.neighbours g x)
      done
    end
  done;
  label

(* [Parallel.run] spelled out: the same per-item streams, set-up order
   and per-item slots merged in item order, with the oracle deciding
   reachability.  Each item gets a fresh kernel, so no buffer, plane or
   setting outlives it here. *)
let oracle_run ?prepare ~config ~seed fib (items : Parallel.item array) =
  let master = Rng.create ~seed in
  let streams = Array.map (fun _ -> Rng.split master) items in
  let total = Kernel.fresh_counters () in
  Array.iteri
    (fun i (item : Parallel.item) ->
      let kernel = Kernel.create fib in
      let slot = Kernel.fresh_counters () in
      Kernel.set_failures kernel item.failures;
      Kernel.set_shortcut kernel config.Parallel.shortcut;
      Option.iter (fun f -> f kernel ~rng:streams.(i) item) prepare;
      let label = oracle_component_labels item.failures in
      Array.iter
        (fun (src, dst) ->
          if label.(src) <> label.(dst) then Kernel.record_unreachable slot
          else
            Kernel.forward_into ~termination:config.termination
              ~quantise:config.quantise ?dd_bits:config.dd_bits
              ~budget_guard:config.budget_guard ?ttl:config.ttl kernel slot
              ~src ~dst)
        item.pairs;
      Kernel.add_counters ~into:total slot)
    items;
  total

(* A random small graph that need not be 2-connected: a 2-connected core,
   then a pendant path hung off it by a bridge, and a second component
   that a coin either leaves apart or joins by one more bridge. *)
let gen_bridged_graph =
  QCheck.Gen.(
    map
      (fun (seed, n, extra, (tail, join)) ->
        let rng = Rng.create ~seed in
        let core =
          (Pr_topo.Generate.two_connected rng ~n ~extra).Pr_topo.Topology.graph
        in
        let side =
          (Pr_topo.Generate.two_connected rng ~n:3 ~extra:0)
            .Pr_topo.Topology.graph
        in
        let edges g shift =
          Array.to_list
            (Array.map
               (fun (e : Graph.edge) -> (e.u + shift, e.v + shift, e.w))
               (Graph.edges g))
        in
        let path =
          List.init tail (fun i ->
              ((if i = 0 then Rng.int rng n else n + i - 1), n + i, 1.0))
        in
        let s = n + tail in
        let bridge = if join then [ (Rng.int rng n, s, 2.0) ] else [] in
        Graph.create ~n:(s + 3) (edges core 0 @ path @ edges side s @ bridge))
      (quad (int_bound 1_000_000) (int_range 4 8) (int_bound 6)
         (pair (int_range 1 3) bool)))

(* Items over [g]: 0-4 random failed links or one or two failed nodes,
   then the cases the bridge table answers — no failed link, one bridge
   and one non-bridge — each with a handful of random pairs.  The
   failure sets are over [over] (default [g]), a graph structurally equal
   to [g] that may number its edges otherwise. *)
let random_items ?(over : Graph.t option) rng g =
  let n = Graph.n g in
  let over = Option.value over ~default:g in
  let pairs () =
    Array.init 12 (fun _ ->
        let src = Rng.int rng n in
        (src, (src + 1 + Rng.int rng (n - 1)) mod n))
  in
  let drawn =
    Array.init 6 (fun _ ->
        let failures =
          if Rng.int rng 4 = 0 then
            Failure.of_nodes over
              (List.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng n))
          else
            Failure.of_list over
              (List.map
                 (fun i ->
                   let e = Graph.edge g i in
                   (e.Graph.u, e.Graph.v))
                 (Rng.sample_without_replacement rng
                    ~k:(min (Rng.int rng 5) (Graph.m g))
                    ~n:(Graph.m g)))
        in
        { Parallel.failures; pairs = pairs () })
  in
  let bridges = Pr_graph.Connectivity.bridges g in
  let others =
    List.filter
      (fun (e : Graph.edge) -> not (List.mem (e.u, e.v) bridges))
      (Array.to_list (Graph.edges g))
  in
  let one links = { Parallel.failures = Failure.of_list over links; pairs = pairs () } in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  Array.concat
    [
      drawn;
      [| one [] |];
      (if bridges = [] then [||] else [| one [ pick bridges ] |]);
      (match others with
      | [] -> [||]
      | _ ->
          let e = pick others in
          [| one [ (e.u, e.v) ] |]);
    ]

(* [g] with its edge list reversed: structurally equal, every link
   numbered otherwise. *)
let reversed_edges g =
  Graph.create ~n:(Graph.n g)
    (List.rev_map
       (fun (e : Graph.edge) -> (e.u, e.v, e.w))
       (Array.to_list (Graph.edges g)))

let qcheck_reachability_oracle =
  QCheck.Test.make
    ~name:"parallel reachability matches the labelling oracle" ~count:60
    QCheck.(
      pair (make ~print:Helpers.graph_print gen_bridged_graph) (int_bound 1_000_000))
    (fun (g, seed) ->
      let rng = Rng.create ~seed in
      let _, _, fib = compile g (Pr_embed.Rotation.adjacency g) in
      let e = Graph.edge g (Rng.int rng (Graph.m g)) in
      let delta, _ =
        Fib.Delta.apply_exn fib
          [ { Fib.Delta.u = e.Graph.u; v = e.Graph.v; change = Fib.Delta.Down } ]
      in
      let items = random_items rng g in
      let renumbered = random_items ~over:(reversed_edges g) rng g in
      let config =
        { Parallel.default_config with ttl = Some ((4 * Graph.n g) + 8) }
      in
      List.for_all
        (fun image ->
          List.for_all
            (fun (items, prepare) ->
              let got = Parallel.run ?prepare ~config ~seed:5 image items in
              let expect = oracle_run ?prepare ~config ~seed:5 image items in
              Kernel.equal_counters got expect)
            [
              (items, None);
              (items, Some (flip_prepare image));
              (renumbered, None);
            ])
        [ fib; delta ])

(* Abilene twice: as listed, and with its edge list reversed, so the two
   structurally equal graphs number every link differently. *)
let abilene_both_orders () =
  let topo = Pr_topo.Abilene.topology () in
  let g = topo.Pr_topo.Topology.graph in
  let reversed = reversed_edges g in
  let _, _, fib = compile g (Pr_embed.Geometric.of_topology topo) in
  (g, reversed, fib)

let link_states kernel g =
  List.concat_map
    (fun (e : Graph.edge) ->
      [
        Kernel.believed_up kernel ~node:e.u ~other:e.v;
        Kernel.believed_up kernel ~node:e.v ~other:e.u;
      ])
    (Array.to_list (Graph.edges g))

let test_reordered_believed_up () =
  let g, reversed, fib = abilene_both_orders () in
  let kernel = Kernel.create fib in
  Graph.iter_edges
    (fun _ (e : Graph.edge) ->
      Kernel.set_failures kernel (Failure.of_list g [ (e.u, e.v) ]);
      let expect = link_states kernel g in
      Kernel.set_failures kernel (Failure.of_list reversed [ (e.u, e.v) ]);
      Alcotest.(check (list bool))
        (Printf.sprintf "link %d-%d fails the same link" e.u e.v)
        expect (link_states kernel g))
    g

let test_reordered_parallel () =
  let g, reversed, fib = abilene_both_orders () in
  let over graph =
    Array.map
      (fun (e : Graph.edge) ->
        {
          Parallel.failures = Failure.of_list graph [ (e.u, e.v) ];
          pairs = Array.of_list (Helpers.all_pairs g);
        })
      (Graph.edges g)
  in
  let a = Parallel.run ~seed:3 fib (over g) in
  let b = Parallel.run ~seed:3 fib (over reversed) in
  Alcotest.(check string) "same counters" (golden_summary a) (golden_summary b);
  Alcotest.(check bool) "bit-identical" true (Kernel.equal_counters a b)

let test_reordered_combine () =
  let g, reversed, _ = abilene_both_orders () in
  let a = Graph.edge g 0 and b = Graph.edge g (Graph.m g - 1) in
  let union =
    Failure.combine
      (Failure.of_list g [ (a.u, a.v) ])
      (Failure.of_list reversed [ (b.u, b.v) ])
  in
  Alcotest.(check (list (pair int int)))
    "union of the endpoints"
    (List.sort compare [ (a.u, a.v); (b.u, b.v) ])
    (Failure.edges union)

let check_oracle what expect got =
  Alcotest.(check string) what (golden_summary expect) (golden_summary got);
  Alcotest.(check bool) (what ^ ": bit-identical") true
    (Kernel.equal_counters expect got)

(* Abilene's renumbered failure sets through the reachability oracle:
   no failed link, every single link (each a non-bridge, so the bridge
   table answers) and every two links (labelled), all over the reversed
   graph, so each lookup goes by endpoints. *)
let test_reordered_oracle () =
  let g, reversed, fib = abilene_both_orders () in
  let links = Array.to_list (Graph.edges g) in
  let pairs = Array.of_list (Helpers.all_pairs g) in
  let item l = { Parallel.failures = Failure.of_list reversed l; pairs } in
  let singles = List.map (fun (e : Graph.edge) -> [ (e.u, e.v) ]) links in
  let doubles =
    List.concat_map
      (fun (a : Graph.edge) ->
        List.filter_map
          (fun (b : Graph.edge) ->
            if compare (a.u, a.v) (b.u, b.v) < 0 then
              Some [ (a.u, a.v); (b.u, b.v) ]
            else None)
          links)
      links
  in
  let items = Array.of_list (List.map item (([] :: singles) @ doubles)) in
  let config = Parallel.default_config in
  check_oracle "renumbered sets"
    (oracle_run ~config ~seed:3 fib items)
    (Parallel.run ~config ~seed:3 fib items)

(* ---- Parallel: resident buffers ---- *)

(* Géant's image and one Down edit of it, with items of one or two failed
   links and random pairs. *)
let resident_inputs () =
  let topo = Pr_topo.Geant.topology () in
  let g = topo.Pr_topo.Topology.graph in
  let _, _, fib = compile g (Pr_embed.Geometric.of_topology topo) in
  let e = Graph.edge g 7 in
  let delta, _ =
    Fib.Delta.apply_exn fib
      [ { Fib.Delta.u = e.Graph.u; v = e.Graph.v; change = Fib.Delta.Down } ]
  in
  (g, fib, delta)

let resident_items ~seed g =
  let rng = Rng.create ~seed in
  let n = Graph.n g in
  Array.init 8 (fun _ ->
      {
        Parallel.failures = random_failures rng g ~k:(1 + Rng.int rng 2);
        pairs =
          Array.init 40 (fun _ ->
              let src = Rng.int rng n in
              (src, (src + 1 + Rng.int rng (n - 1)) mod n));
      })

(* (a) What one call's [prepare] arms — guard mode, a trace sink and
   believed-down ports — is gone in the next call, on the same image and
   on another of its lineage: the counters are a fresh kernel's and the
   old sink hears nothing. *)
let test_resident_settings_reset () =
  let g, fib, delta = resident_inputs () in
  let items = resident_items ~seed:3 g in
  let config = Parallel.default_config in
  let events = ref 0 in
  let arm kernel ~rng item =
    Kernel.set_guard kernel true;
    Kernel.set_trace kernel (Pr_telemetry.Trace.Emit (fun _ -> incr events));
    flip_prepare fib kernel ~rng item
  in
  check_oracle "armed call"
    (oracle_run ~prepare:arm ~config ~seed:5 fib items)
    (Parallel.run ~prepare:arm ~config ~seed:5 fib items);
  Alcotest.(check bool) "the armed call was traced" true (!events > 0);
  let heard = !events in
  List.iter
    (fun (what, image) ->
      check_oracle what
        (oracle_run ~config ~seed:5 image items)
        (Parallel.run ~config ~seed:5 image items))
    [ ("plain call, same image", fib); ("plain call, delta image", delta) ];
  Alcotest.(check int) "the stale sink heard nothing" heard !events

(* (b) A call nested in [prepare] runs on buffers of its own: neither it
   nor the call around it sees the other's failures or labels. *)
let test_resident_nested_call () =
  let g, fib, _ = resident_inputs () in
  let outer = resident_items ~seed:3 g and inner = resident_items ~seed:4 g in
  let config = Parallel.default_config in
  let nested = ref [] in
  let prepare _kernel ~rng:_ _item =
    nested := Parallel.run ~config ~seed:6 fib inner :: !nested
  in
  check_oracle "outer call"
    (oracle_run ~config ~seed:5 fib outer)
    (Parallel.run ~prepare ~config ~seed:5 fib outer);
  let expect = oracle_run ~config ~seed:6 fib inner in
  Alcotest.(check int) "one nested call per item" (Array.length outer)
    (List.length !nested);
  List.iter (check_oracle "nested call" expect) !nested

(* Bytes one call allocates; [Gc.allocated_bytes]'s own boxing cancels. *)
let allocated_bytes f =
  let a0 = Gc.allocated_bytes () in
  let a1 = Gc.allocated_bytes () in
  let r = f () in
  let a2 = Gc.allocated_bytes () in
  (a2 -. a1 -. (a1 -. a0), r)

(* (c) A call that raises gives its buffers back: the next call is a
   fresh kernel's, and allocates exactly what a call on resident buffers
   did before (a call on fresh ones allocates the planes too). *)
let test_resident_after_raise () =
  let g, fib, _ = resident_inputs () in
  let items = resident_items ~seed:3 g in
  let config = Parallel.default_config in
  ignore (Parallel.run ~config ~seed:5 fib items);
  let warm, _ = allocated_bytes (fun () -> Parallel.run ~config ~seed:5 fib items) in
  let bad =
    Array.mapi
      (fun i (it : Parallel.item) ->
        if i = 3 then { it with pairs = Array.append it.pairs [| (2, 2) |] }
        else it)
      items
  in
  (match Parallel.run ~config ~seed:5 fib bad with
  | _ -> Alcotest.fail "src = dst was accepted"
  | exception Invalid_argument _ -> ());
  let after, c = allocated_bytes (fun () -> Parallel.run ~config ~seed:5 fib items) in
  check_oracle "call after the raise" (oracle_run ~config ~seed:5 fib items) c;
  Alcotest.(check (float 0.0)) "allocates as a warm call" warm after

(* A [Weak] pointer to [fib]'s image, compiled and forwarded on here and
   dropped on return. *)
let forwarded_image g rotation items =
  let _, _, fib = compile g rotation in
  let w = Weak.create 1 in
  Weak.set w 0 (Some fib);
  ignore (Parallel.run ~seed:5 fib items);
  w
[@@inline never]

(* (d) Once a call returns, nothing it leaves behind pins its image. *)
let test_resident_pins_no_image () =
  let topo = Pr_topo.Geant.topology () in
  let g = topo.Pr_topo.Topology.graph in
  let w =
    forwarded_image g (Pr_embed.Geometric.of_topology topo)
      (resident_items ~seed:3 g)
  in
  Gc.full_major ();
  Alcotest.(check bool) "the image was collected" true (Weak.get w 0 = None)

(* (e) Calls alternating between two sizes of image re-size the buffers
   and stay a fresh kernel's. *)
let test_resident_alternating_sizes () =
  let image topo =
    let g = topo.Pr_topo.Topology.graph in
    let _, _, fib = compile g (Pr_embed.Geometric.of_topology topo) in
    (fib, resident_items ~seed:(Graph.n g) g)
  in
  let abilene = image (Pr_topo.Abilene.topology ())
  and geant = image (Pr_topo.Geant.topology ()) in
  let config = Parallel.default_config in
  List.iter
    (fun (what, (fib, items)) ->
      check_oracle what
        (oracle_run ~config ~seed:5 fib items)
        (Parallel.run ~config ~seed:5 fib items))
    [
      ("abilene", abilene); ("geant", geant); ("abilene again", abilene);
      ("geant again", geant);
    ]

(* [rebind] within a lineage reuses the image's planes, the degree plane
   included: it allocates nothing. *)
let test_rebind_allocates_nothing () =
  let _, fib, delta = resident_inputs () in
  let kernel = Kernel.create fib in
  Kernel.rebind kernel delta;
  let bytes, () = allocated_bytes (fun () -> Kernel.rebind kernel fib) in
  Alcotest.(check (float 0.0)) "rebind to the base" 0.0 bytes;
  let bytes, () = allocated_bytes (fun () -> Kernel.rebind kernel delta) in
  Alcotest.(check (float 0.0)) "rebind to the edit" 0.0 bytes

(* ---- the bridge table ---- *)

let bridge_indices g =
  List.sort compare
    (List.map
       (fun (u, v) -> Graph.edge_index g u v)
       (Pr_graph.Connectivity.bridges g))

(* The table is the base graph's, through a codec round trip and edits
   of any link, a bridge included; [is_bridge] reads it by endpoints. *)
let qcheck_bridge_table =
  QCheck.Test.make ~name:"the bridge table survives codec and deltas"
    ~count:40
    QCheck.(
      pair (make ~print:Helpers.graph_print gen_bridged_graph) (int_bound 1_000_000))
    (fun (g, seed) ->
      let rng = Rng.create ~seed in
      let _, _, fib = compile g (Pr_embed.Rotation.adjacency g) in
      let e = Graph.edge g (Rng.int rng (Graph.m g)) in
      let down, _ =
        Fib.Delta.apply_exn fib
          [ { Fib.Delta.u = e.Graph.u; v = e.Graph.v; change = Fib.Delta.Down } ]
      in
      let reweighted, _ =
        Fib.Delta.apply_exn down
          [ { Fib.Delta.u = e.Graph.u; v = e.Graph.v; change = Fib.Delta.Weight 7.0 } ]
      in
      let decoded =
        match Fib.Codec.decode ~base:fib (Fib.Codec.encode reweighted) with
        | Ok t -> t
        | Error m -> QCheck.Test.fail_report m
      in
      let expect = bridge_indices g in
      let bridges = Pr_graph.Connectivity.bridges g in
      List.for_all
        (fun image ->
          Array.to_list (Fib.raw_bridges image) = expect
          && Fib.connected image = Pr_graph.Connectivity.is_connected g
          && Graph.fold_edges
               (fun _ (e : Graph.edge) ok ->
                 ok
                 && Fib.is_bridge image ~u:e.v ~v:e.u
                    = List.mem (e.u, e.v) bridges)
               g true)
        [ fib; down; reweighted; decoded ]
      && Fib.equal decoded reweighted
      && Fib.raw_bridges decoded != Fib.raw_bridges fib)

(* Whether the primary path from [src] to [dst] crosses a link
   [failures] has down. *)
let crosses_failure routing failures ~src ~dst =
  let rec crosses = function
    | a :: (b :: _ as rest) ->
        (not (Failure.link_up failures a b)) || crosses rest
    | _ -> false
  in
  match Routing.shortest_path routing ~src ~dst with
  | Some path -> crosses path
  | None -> false

(* 2-3-link failures injecting only the pairs they cut: pairs whose
   primary path crosses a failed link and whose ends stay connected. *)
let cut_pair_items ~seed ~scenarios routing =
  let g = Routing.graph routing in
  let rng = Rng.create ~seed in
  Array.init scenarios (fun _ ->
      let failures = random_failures rng g ~k:(2 + Rng.int rng 2) in
      let pairs =
        List.filter
          (fun (src, dst) ->
            Failure.pair_connected failures src dst
            && crosses_failure routing failures ~src ~dst)
          (Helpers.all_pairs g)
      in
      { Parallel.failures; pairs = Array.of_list pairs })

(* Minor words one call allocates.  Deterministic for a given build. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. w0, r)

(* Géant on its planar [Recommend] embedding, the benchmark's image: the
   paper's single-failure sweep, and a call whose every packet recycles. *)
let alloc_inputs () =
  let topo = Pr_topo.Geant.topology () in
  let routing, _, fib =
    compile topo.Pr_topo.Topology.graph (Pr_embed.Recommend.rotation topo)
  in
  ( fib,
    [
      ("geant sweep", Parallel.all_pairs_single_failures fib);
      ("geant cut pairs", cut_pair_items ~seed:42 ~scenarios:40 routing);
    ] )

(* The plain call allocates at most 5 words per packet.  A probed call
   allocates at most the residue probe.mli states on top of it: 2 words
   per delivery, and one probe slot per item plus the merge target.  A
   slot is the probe record and its three histograms, 38 words, plus its
   cell in the call's slot array and the [Some] that hands it to the
   kernel: 41.2-41.3 words measured, so the bound is 42.  A first call
   allocates this domain's resident buffers, so one runs untimed. *)
let test_parallel_alloc () =
  let fib, inputs = alloc_inputs () in
  List.iter
    (fun (name, items) ->
      ignore (Parallel.run ~seed:42 fib items);
      let plain, (c : Kernel.counters) =
        minor_words (fun () -> Parallel.run ~seed:42 fib items)
      in
      let probed, _ =
        minor_words (fun () -> Parallel.run_probed ~seed:42 fib items)
      in
      let packets = float_of_int c.injected in
      if plain /. packets > 5.0 then
        Alcotest.failf "%s: %.2f minor words/packet (bound 5)" name
          (plain /. packets);
      let residue =
        float_of_int ((2 * c.delivered) + (42 * (Array.length items + 1)))
      in
      if probed -. plain > residue then
        Alcotest.failf
          "%s: probed call allocates %.0f words over plain, residue bound %.0f"
          name (probed -. plain) residue)
    inputs

(* ---- differential: the shortcut rung ---- *)

module Trace = Pr_telemetry.Trace
module Probe = Pr_telemetry.Probe
module Seen = Pr_core.Seen

type shortcut_ctx = {
  sc_g : Graph.t;
  sc_routing : Routing.t;
  sc_cycles : Cycle_table.t;
  sc_kernel : Kernel.t;
  sc_plan : Seen.plan;
  sc_width : int;
}

let shortcut_ctx ?(width = Fib.default_sc_width) topo =
  let g = topo.Pr_topo.Topology.graph in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let routing, cycles, fib = compile g rotation in
  {
    sc_g = g;
    sc_routing = routing;
    sc_cycles = cycles;
    sc_kernel = Kernel.create fib;
    sc_plan = Seen.plan ~nodes:(Graph.n g) ~width;
    sc_width = width;
  }

(* What the DD argument proves about one pair's armed walk, given its
   events and the DD-only walk [base].  The two walks share every hop up
   to the armed walk's first grant, at [x]; with no grant they are one
   walk.  An armed walk that sets no PR bit after that grant routes from
   [x] on shortest paths, so it delivers at the shared prefix's cost plus
   [distance x dst], and a delivered DD-only walk, which pays the prefix
   plus some path from [x], costs no less.  Nothing bounds an armed walk
   whose grant leads onto another failed link: its next episode can tour
   further than the DD-only walk. *)
let check_grant_bound ~g ~routing ~events ~src ~dst (armed : Forward.trace)
    (base : Forward.trace) =
  let rec first_grant hops = function
    | [] -> None
    | Trace.Shortcut { node; _ } :: rest -> Some (hops, node, rest)
    | Trace.Hop _ :: rest -> first_grant (hops + 1) rest
    | _ :: rest -> first_grant hops rest
  in
  match first_grant 0 events with
  | None ->
      if not (traces_equal armed base) then
        Alcotest.failf "walks differ with no grant %d->%d" src dst
  | Some (hops, x, after) ->
      let upto path = List.filteri (fun i _ -> i <= hops) path in
      let prefix = upto armed.Forward.path in
      if upto base.Forward.path <> prefix || List.nth prefix hops <> x then
        Alcotest.failf "walks part before the first grant %d->%d" src dst;
      let recycles =
        List.exists (function Trace.Hop { pr; _ } -> pr | _ -> false) after
      in
      if not recycles then begin
        let bound =
          Pr_graph.Paths.cost g prefix +. Routing.distance routing ~node:x ~dst
        in
        if
          armed.Forward.outcome <> Forward.Delivered
          || not (Helpers.close (Forward.path_cost g armed) bound)
        then
          Alcotest.failf "granted walk %d->%d is not prefix + distance %.6f"
            src dst bound;
        if
          base.Forward.outcome = Forward.Delivered
          && Forward.path_cost g base < bound -. 1e-9
        then
          Alcotest.failf "DD-only walk %d->%d beats prefix + distance %.6f"
            src dst bound
      end

(* One scenario through both backends with the hint armed and disarmed,
   under both termination schemes: verdicts, fault classes, Trace event
   sequences and Probe histograms must agree pairwise, and every armed
   walk meets {!check_grant_bound} against the DD-only one. *)
let check_shortcut_differential ctx failures =
  let { sc_g = g; sc_routing = routing; sc_cycles = cycles; sc_kernel = kernel;
        sc_plan = plan; sc_width = width } = ctx in
  Kernel.set_failures kernel failures;
  let ref_ring = Trace.Ring.create () in
  let krn_ring = Trace.Ring.create () in
  List.iter
    (fun termination ->
      List.iter
        (fun armed ->
          Kernel.set_shortcut kernel (if armed then Some width else None);
          let shortcut = if armed then Some plan else None in
          let probe_ref = Probe.create () and probe_krn = Probe.create () in
          let counters = Kernel.fresh_counters () in
          List.iter
            (fun (src, dst) ->
              Trace.Ring.clear ref_ring;
              Trace.Ring.clear krn_ring;
              let expect =
                Forward.run ~termination ?shortcut ~probe:probe_ref
                  ~trace:(Trace.Ring.sink ref_ring) ~routing ~cycles ~failures
                  ~src ~dst ()
              in
              Kernel.set_trace kernel (Trace.Ring.sink krn_ring);
              let r = Kernel.run_one ~termination kernel ~src ~dst in
              Kernel.set_trace kernel Trace.null;
              if not (traces_equal expect (Kernel.to_trace kernel r)) then
                Alcotest.failf "shortcut verdict mismatch %d->%d (armed %b)"
                  src dst armed;
              if Trace.Ring.events ref_ring <> Trace.Ring.events krn_ring then
                Alcotest.failf "shortcut event mismatch %d->%d (armed %b)" src
                  dst armed;
              Kernel.set_probe kernel (Some probe_krn);
              Kernel.forward_into ~termination kernel counters ~src ~dst;
              Kernel.set_probe kernel None;
              if armed then
                check_grant_bound ~g ~routing
                  ~events:(Trace.Ring.events ref_ring) ~src ~dst expect
                  (Forward.run ~termination ~routing ~cycles ~failures ~src
                     ~dst ()))
            (Helpers.all_pairs g);
          if not (Probe.equal_counts probe_ref probe_krn) then
            Alcotest.failf "probe histograms diverged (armed %b)" armed)
        [ false; true ])
    [ Forward.Distance_discriminator; Forward.Simple ]

let test_shortcut_differential_single () =
  List.iter
    (fun topo ->
      let ctx = shortcut_ctx topo in
      List.iter
        (fun scenario ->
          check_shortcut_differential ctx
            (Failure.of_list ctx.sc_g scenario))
        (Pr_core.Scenario.single_links ctx.sc_g))
    [ Pr_topo.Abilene.topology (); Pr_topo.Geant.topology () ]

let test_shortcut_differential_dual () =
  List.iter
    (fun (topo, samples) ->
      let ctx = shortcut_ctx topo in
      let rng = Rng.create ~seed:1234 in
      for _ = 1 to samples do
        check_shortcut_differential ctx (random_failures rng ctx.sc_g ~k:2)
      done)
    [ (Pr_topo.Abilene.topology (), 20); (Pr_topo.Geant.topology (), 6) ]

(* One draw of the random shortcut property: the instance, its failure
   set and a hint of [width] bits. *)
let random_shortcut_case params ~k ~width =
  let g, rotation = random_instance params in
  let seed, _, _ = params in
  let routing, cycles, fib = compile g rotation in
  ( {
      sc_g = g;
      sc_routing = routing;
      sc_cycles = cycles;
      sc_kernel = Kernel.create fib;
      sc_plan = Seen.plan ~nodes:(Graph.n g) ~width;
      sc_width = width;
    },
    random_failures (Rng.create ~seed:(seed + 3)) g ~k )

(* The draw on which a grant leads onto a second failed link.  Both walks
   run 4 -> 9 -> 7 -> 1 -> 0 -> 5 -> 1 in the episode for the failed 4-7
   link.  At 1 the grant is sound (local DD 2 < header DD 3, primary up),
   but the primary path 1 -> 2 meets the failed 2-3 link and a second
   episode (DD 1) tours back through 4 before it delivers, at stretch
   20/3.  The DD-only walk stays on the cycle to 7 and delivers at 3. *)
let test_shortcut_second_episode () =
  let ctx, failures = random_shortcut_case (252604, 10, 5) ~k:4 ~width:10 in
  Alcotest.(check (list (pair int int)))
    "failed links"
    [ (2, 3); (4, 5); (4, 7); (7, 8) ]
    (Failure.edges failures);
  let walk ?shortcut () =
    Forward.run ?shortcut ~routing:ctx.sc_routing ~cycles:ctx.sc_cycles
      ~failures ~src:4 ~dst:3 ()
  in
  let armed = walk ~shortcut:ctx.sc_plan () and base = walk () in
  Alcotest.(check (list int)) "armed walk"
    [ 4; 9; 7; 1; 0; 5; 1; 2; 9; 4; 9; 7; 1; 0; 5; 1; 7; 6; 8; 6; 3 ]
    armed.Forward.path;
  Alcotest.(check int) "one grant" 1 armed.Forward.shortcuts;
  Alcotest.(check (list int)) "DD-only walk"
    [ 4; 9; 7; 1; 0; 5; 1; 7; 6; 3 ]
    base.Forward.path;
  check_shortcut_differential ctx failures

let qcheck_shortcut_differential =
  QCheck.Test.make
    ~name:"shortcut differential holds on random graphs and failure sets"
    ~count:25
    QCheck.(
      pair
        (triple (int_bound 1_000_000) (Helpers.int_range 4 10) (int_bound 12))
        (pair (Helpers.int_range 0 4) (Helpers.int_range 2 24)))
    (fun (params, (k, width)) ->
      let ctx, failures = random_shortcut_case params ~k ~width in
      check_shortcut_differential ctx failures;
      true)

let test_shortcut_golden_exits () =
  (* Grant counts on the paper topologies' all-pairs single-failure
     sweep, pinned, plus domain-count bit-determinism with the rung
     armed.  Abilene's walks all DD-terminate before any deja-vu — a
     topology-scale fact worth locking, not a bug. *)
  List.iter
    (fun (topo, expect) ->
      let rotation = Pr_embed.Geometric.of_topology topo in
      let _, _, fib = compile topo.Pr_topo.Topology.graph rotation in
      let config = { Parallel.default_config with Parallel.shortcut = Some 16 } in
      let items = Parallel.all_pairs_single_failures fib in
      let c = Parallel.run ~domains:2 ~config ~seed:42 fib items in
      Alcotest.(check int)
        (topo.Pr_topo.Topology.name ^ " shortcut exits")
        expect c.Kernel.shortcut_exits;
      let c4 = Parallel.run ~domains:4 ~config ~seed:42 fib items in
      Alcotest.(check bool) "bit-identical at 4 domains" true
        (Kernel.equal_counters c c4))
    [
      (Pr_topo.Abilene.topology (), 0);
      (Pr_topo.Geant.topology (), 139);
      (Pr_topo.Teleglobe.topology (), 92);
    ]

(* ---- loop fast-forward ---- *)

(* [count] items of 1-3 random failed links, each with up to [pairs]
   random pairs whose primary path crosses a failed link: the packets
   that recycle and, on a non-planar map, may loop. *)
let crossing_items rng routing ~count ~pairs =
  let g = Routing.graph routing in
  let n = Graph.n g in
  Array.init count (fun _ ->
      let failures = random_failures rng g ~k:(1 + Rng.int rng 3) in
      let picked = ref [] and left = ref pairs in
      for _ = 1 to 40 * pairs do
        if !left > 0 then begin
          let src = Rng.int rng n in
          let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
          if crosses_failure routing failures ~src ~dst then begin
            picked := (src, dst) :: !picked;
            decr left
          end
        end
      done;
      { Parallel.failures; pairs = Array.of_list (List.rev !picked) })

(* The plain call fast-forwards loops; the link-loaded and probed calls
   walk every hop.  All three must count the same, under every walk
   setting a batch can take, at every TTL.  A 1-bit DD bound saturates
   at once, so the ladder's retry and saturation counts also move inside
   loops that skip. *)
let qcheck_skip_matches_full_walks =
  QCheck.Test.make
    ~name:"loop fast-forward: run = run_loaded = run_probed on loopy maps"
    ~count:40
    QCheck.(
      triple
        (triple (int_bound 1_000_000) bool (Helpers.int_range 40 150))
        (triple (int_bound 2) bool bool)
        (quad (int_bound 2) bool bool bool))
    (fun ((seed, ba, n), (sc_case, simple, quantise), (dd_case, guard, flip, two)) ->
      let routing, _, fib = geometric_instance ~ba ~seed ~n in
      let rng = Rng.create ~seed:(seed + 1) in
      let items = crossing_items rng routing ~count:3 ~pairs:20 in
      let prepare = if flip then Some (flip_prepare fib) else None in
      let domains = if two then 2 else 1 in
      List.for_all
        (fun ttl ->
          let config =
            {
              Parallel.termination =
                (if simple then Forward.Simple
                 else Forward.Distance_discriminator);
              quantise;
              dd_bits = List.nth [ None; Some 1; Some (Fib.dd_bits fib) ] dd_case;
              budget_guard = (if guard then 6 else 0);
              ttl;
              shortcut = List.nth [ None; Some 4; Some 16 ] sc_case;
            }
          in
          let plain = Parallel.run ~domains ~config ?prepare ~seed fib items in
          let loaded, _ =
            Parallel.run_loaded ~domains ~config ?prepare ~seed fib items
          in
          let probed, _ =
            Parallel.run_probed ~domains ~config ?prepare ~seed fib items
          in
          Kernel.equal_counters plain loaded
          && Kernel.equal_counters plain probed)
        [
          Some 0;
          Some 1;
          Some (Rng.int rng ((3 * n) + 1));
          Some ((16 * n) + 64);
          None;
        ])

(* One fixed draw of the property, whose loops are pinned so the
   property cannot pass by drawing no loop at all. *)
let test_skip_pinned () =
  let routing, _, fib = geometric_instance ~ba:false ~seed:7 ~n:100 in
  let items =
    crossing_items (Rng.create ~seed:8) routing ~count:3 ~pairs:20
  in
  List.iter
    (fun (config, looped) ->
      let plain = Parallel.run ~config ~seed:42 fib items in
      let loaded, _ = Parallel.run_loaded ~domains:2 ~config ~seed:42 fib items in
      let probed, _ = Parallel.run_probed ~config ~seed:42 fib items in
      Alcotest.(check int) "looped" looped plain.Kernel.looped;
      Alcotest.(check bool) "link-loaded counters" true
        (Kernel.equal_counters plain loaded);
      Alcotest.(check bool) "probed counters" true
        (Kernel.equal_counters plain probed))
    [
      (Parallel.default_config, 6);
      ( { Parallel.default_config with shortcut = Some 16; quantise = true },
        6 );
      ({ Parallel.default_config with termination = Forward.Simple }, 4);
    ]

(* Every walk from the far end of the path into the core, one by one
   against the capture's full walk: each shortcut width and DD bound, and
   a budget guard, which must turn the skip off. *)
let qcheck_skip_tailed =
  QCheck.Test.make
    ~name:"loop fast-forward: forward_into = run_one behind a long path"
    ~count:150
    QCheck.(
      pair
        (triple (int_bound 1_000_000) (Helpers.int_range 4 12) (int_bound 8))
        (triple (Helpers.int_range 1 3) bool bool))
    (fun (((_, n, _) as params), (k, simple, quantise)) ->
      let core, fib, rng = tailed_instance params in
      let g = Fib.graph fib in
      let kernel = Kernel.create fib in
      (* Core links only: a failed path link would cut the far end off. *)
      Kernel.set_failures kernel
        (Failure.of_list g (Failure.edges (random_failures rng core ~k)));
      let far = Graph.n g - 1 in
      let pairs = List.init n (fun dst -> (far, dst)) in
      let termination =
        if simple then Forward.Simple else Forward.Distance_discriminator
      in
      List.iter
        (fun (width, dd_bits, budget_guard) ->
          Kernel.set_shortcut kernel width;
          ignore
            (check_forward_into_matches_run_one ~termination ~quantise
               ?dd_bits ~budget_guard kernel pairs
              : Kernel.counters))
        [
          (None, None, 0);
          (Some 4, None, 0);
          (Some 16, None, 0);
          (None, Some 1, 0);
          (Some 16, Some 1, 0);
          (None, Some 1, 6);
        ];
      true)

(* A TTL no full walk could spend: the fast-forward ends the loop in a
   few periods. *)
let test_skip_huge_ttl () =
  let fib, failures = looping_instance () in
  let kernel = Kernel.create fib in
  Kernel.set_failures kernel failures;
  let r = Kernel.run_one kernel ~src:44 ~dst:27 in
  Alcotest.(check bool) "the full walk loops" true
    (r.Kernel.outcome = Forward.Ttl_exceeded);
  let c = Kernel.fresh_counters () in
  Kernel.forward_into ~ttl:(1 lsl 40) kernel c ~src:44 ~dst:27;
  Alcotest.(check int) "looped" 1 c.Kernel.looped;
  Alcotest.(check int) "one episode, as in the full walk" r.Kernel.pr_episodes
    c.Kernel.pr_episodes

let suite =
  [
    Alcotest.test_case "round-trip: named topologies" `Quick
      test_roundtrip_named;
    Alcotest.test_case "typed compile errors" `Quick test_compile_errors;
    Alcotest.test_case "truth differential: abilene single failures" `Quick
      test_truth_differential_named;
    Alcotest.test_case "view differential: abilene" `Quick
      test_view_differential_abilene;
    Alcotest.test_case "LFA rung: Géant tie and admin-down alternate" `Quick
      test_lfa_rung_geant_tie;
    Alcotest.test_case "kernel argument validation" `Quick
      test_kernel_invalid_args;
    Alcotest.test_case "forward_into = run_one" `Quick
      test_forward_into_matches_run_one;
    Alcotest.test_case "engine backends agree" `Slow
      test_engine_backend_equality;
    Alcotest.test_case "chaos backends agree" `Slow test_chaos_backend_equality;
    Alcotest.test_case "parallel determinism in domain count" `Quick
      test_parallel_determinism;
    Alcotest.test_case "parallel seed sensitivity" `Quick
      test_parallel_seed_sensitivity;
    Alcotest.test_case "parallel golden pins" `Quick test_parallel_golden_pins;
    Alcotest.test_case "reordered graph: set_failures fails the same links"
      `Quick test_reordered_believed_up;
    Alcotest.test_case "reordered graph: parallel counters agree" `Quick
      test_reordered_parallel;
    Alcotest.test_case "reordered graph: combine by endpoints" `Quick
      test_reordered_combine;
    Alcotest.test_case "reordered graph: the reachability oracle" `Quick
      test_reordered_oracle;
    Alcotest.test_case "resident buffers: prepare's settings reset" `Quick
      test_resident_settings_reset;
    Alcotest.test_case "resident buffers: a nested call" `Quick
      test_resident_nested_call;
    Alcotest.test_case "resident buffers: released on a raise" `Quick
      test_resident_after_raise;
    Alcotest.test_case "resident buffers: no image pinned" `Quick
      test_resident_pins_no_image;
    Alcotest.test_case "resident buffers: alternating image sizes" `Quick
      test_resident_alternating_sizes;
    Alcotest.test_case "rebind allocates nothing" `Quick
      test_rebind_allocates_nothing;
    Alcotest.test_case "parallel minor words per packet" `Quick
      test_parallel_alloc;
    Alcotest.test_case "shortcut differential: single failures" `Slow
      test_shortcut_differential_single;
    Alcotest.test_case "shortcut differential: dual failures" `Quick
      test_shortcut_differential_dual;
    Alcotest.test_case "shortcut: a grant meets a second failure" `Quick
      test_shortcut_second_episode;
    Alcotest.test_case "shortcut golden exits + domain determinism" `Quick
      test_shortcut_golden_exits;
    Alcotest.test_case "loop fast-forward: pinned loops" `Quick
      test_skip_pinned;
    Alcotest.test_case "loop fast-forward: TTL 2^40" `Quick test_skip_huge_ttl;
    QCheck_alcotest.to_alcotest qcheck_roundtrip_random;
    QCheck_alcotest.to_alcotest qcheck_ports_random;
    QCheck_alcotest.to_alcotest qcheck_truth_differential;
    QCheck_alcotest.to_alcotest qcheck_view_differential;
    QCheck_alcotest.to_alcotest qcheck_shortcut_differential;
    QCheck_alcotest.to_alcotest qcheck_reachability_oracle;
    QCheck_alcotest.to_alcotest qcheck_bridge_table;
    QCheck_alcotest.to_alcotest qcheck_skip_matches_full_walks;
    QCheck_alcotest.to_alcotest qcheck_skip_tailed;
  ]
