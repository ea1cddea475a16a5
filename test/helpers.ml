(* Shared test utilities: seeded random graph generators wrapped as qcheck
   arbitraries, and brute-force reference algorithms to check the real
   implementations against. *)

module Graph = Pr_graph.Graph

let graph_print g =
  Format.asprintf "%a" Graph.pp g

(* [QCheck.int_range lo hi] whose shrinker stays in [lo, hi]: QCheck's own
   shrinks towards 0, below [lo], so a failing property would be
   reported on an input its generators reject. *)
let int_range lo hi =
  QCheck.make ~print:string_of_int
    ~shrink:(fun x -> QCheck.Iter.map (( + ) lo) (QCheck.Shrink.int (x - lo)))
    (QCheck.Gen.int_range lo hi)

(* A random 2-connected unweighted graph, fully determined by (seed, n,
   extra) so failures shrink and reproduce. *)
let gen_two_connected ~max_n =
  QCheck.Gen.(
    map
      (fun (seed, n, extra) ->
        (Pr_topo.Generate.two_connected (Pr_util.Rng.create ~seed) ~n ~extra)
          .Pr_topo.Topology.graph)
      (triple (int_bound 1_000_000) (int_range 4 max_n) (int_bound 12)))

let arb_two_connected ?(max_n = 14) () =
  QCheck.make ~print:graph_print (gen_two_connected ~max_n)

(* Random connected weighted graph: 2-connected skeleton with random
   weights in [1, 10]. *)
let gen_weighted_connected ~max_n =
  QCheck.Gen.(
    map
      (fun (seed, n, extra) ->
        let rng = Pr_util.Rng.create ~seed in
        let skeleton =
          (Pr_topo.Generate.two_connected rng ~n ~extra).Pr_topo.Topology.graph
        in
        let edges =
          Graph.fold_edges
            (fun _ (e : Graph.edge) acc ->
              (e.u, e.v, 1.0 +. Pr_util.Rng.float rng 9.0) :: acc)
            skeleton []
        in
        Graph.create ~n:(Graph.n skeleton) edges)
      (triple (int_bound 1_000_000) (int_range 4 max_n) (int_bound 12)))

let arb_weighted_connected ?(max_n = 12) () =
  QCheck.make ~print:graph_print (gen_weighted_connected ~max_n)

(* Brute-force all-pairs shortest distances (Floyd–Warshall). *)
let floyd_warshall g =
  let n = Graph.n g in
  let dist = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    dist.(v).(v) <- 0.0
  done;
  Graph.iter_edges
    (fun _ (e : Graph.edge) ->
      if e.w < dist.(e.u).(e.v) then begin
        dist.(e.u).(e.v) <- e.w;
        dist.(e.v).(e.u) <- e.w
      end)
    g;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = dist.(i).(k) +. dist.(k).(j) in
        if via < dist.(i).(j) then dist.(i).(j) <- via
      done
    done
  done;
  dist

(* All (src, dst) pairs of a graph, src <> dst. *)
let all_pairs g =
  let n = Graph.n g in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst -> if src <> dst then Some (src, dst) else None)
        (List.init n Fun.id))
    (List.init n Fun.id)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* A deterministic planar rotation for grids: geometric from coordinates. *)
let grid_with_rotation ~rows ~cols =
  let topo = Pr_topo.Generate.grid ~rows ~cols in
  (topo, Pr_embed.Geometric.of_topology topo)

(* A probe against its walker's own counts: the stretch histogram sums
   to the deliveries, the hops and depth histograms to the walked
   packets (injected minus unreachable).  A walker that drops one of its
   probe feeds fails here. *)
let check_probe_totals what (p : Pr_telemetry.Probe.t) ~delivered ~walked =
  let sum = Array.fold_left ( + ) 0 in
  Alcotest.(check int) (what ^ ": stretch histogram = delivered") delivered
    (sum p.stretch_hist);
  Alcotest.(check int) (what ^ ": hops histogram = walked") walked
    (sum p.hops_hist);
  Alcotest.(check int) (what ^ ": depth histogram = walked") walked
    (sum p.depth_hist)

(* The same, for an engine's metrics. *)
let check_probe_metrics what probe (m : Pr_sim.Metrics.t) =
  check_probe_totals what probe ~delivered:m.delivered
    ~walked:(m.injected - m.unreachable)
