module Graph = Pr_graph.Graph
module Routing = Pr_core.Routing

let test_basic () =
  let g = (Pr_topo.Example.topology ()).Pr_topo.Topology.graph in
  let r = Routing.build g in
  Alcotest.(check (option int)) "next hop" (Some 1)
    (Routing.next_hop r ~node:0 ~dst:5);
  Alcotest.(check (option int)) "at destination" None
    (Routing.next_hop r ~node:5 ~dst:5);
  Alcotest.(check (float 0.0)) "distance A-F" 4.0 (Routing.distance r ~node:0 ~dst:5);
  Alcotest.(check int) "hops A-F" 4 (Routing.hops r ~node:0 ~dst:5);
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 3; 4; 5 ])
    (Routing.shortest_path r ~src:0 ~dst:5)

let test_kinds () =
  let g = Graph.create ~n:3 [ (0, 1, 5.0); (1, 2, 5.0) ] in
  let hop_r = Routing.build ~kind:Pr_core.Discriminator.Hops g in
  let w_r = Routing.build ~kind:Pr_core.Discriminator.Weighted g in
  Alcotest.(check (float 0.0)) "hop discriminator" 2.0 (Routing.disc hop_r ~node:0 ~dst:2);
  Alcotest.(check (float 0.0)) "weighted discriminator" 10.0 (Routing.disc w_r ~node:0 ~dst:2)

let test_quantise () =
  let g = Graph.create ~n:2 [ (0, 1, 2.3) ] in
  let hop_r = Routing.build g in
  Alcotest.(check int) "hops identity" 3 (Routing.quantise_dd hop_r 3.0);
  let w_r = Routing.build ~kind:Pr_core.Discriminator.Weighted g in
  Alcotest.(check int) "weighted ceiling" 3 (Routing.quantise_dd w_r 2.3)

let test_memory_entries () =
  let g = (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph in
  Alcotest.(check int) "n(n-1)" 110 (Routing.memory_entries (Routing.build g))

let hop_diameter trees =
  Array.fold_left
    (fun acc tree ->
      let acc = ref acc in
      for v = 0 to Array.length tree.Pr_graph.Dijkstra.dist - 1 do
        if Pr_graph.Dijkstra.reachable tree v then
          acc := max !acc (Pr_graph.Dijkstra.hop_count tree v)
      done;
      !acc)
    0 trees

(* Hubs, highest degree first, each losing every link but its first (so
   it stays reachable), until the blocked hop diameter exceeds the full
   one: the shortcuts the hubs offered are gone. *)
let blocking_hubs g =
  let full = Pr_graph.Dijkstra.diameter_hops g in
  let hubs = List.init (Graph.n g) Fun.id in
  let hubs =
    List.stable_sort (fun a b -> compare (Graph.degree g b) (Graph.degree g a)) hubs
  in
  let rec grow links = function
    | [] -> Alcotest.fail "no hub blocking widens the diameter"
    | hub :: rest ->
        let links =
          List.map (Graph.edge_index g hub)
            (List.tl (Array.to_list (Graph.neighbours g hub)))
          @ links
        in
        let blocked i = List.mem i links in
        let trees = Pr_graph.Dijkstra.all_roots ~blocked g in
        if hop_diameter trees > full then (blocked, trees) else grow links rest
  in
  grow [] hubs

(* The DD budget is computed once at build: from the trees [build]
   holds, and from the full graph for [build_blocked], whose budget does
   not shrink — or grow — with the blocked links.  Every case must equal
   [Discriminator.bits_needed] over the full graph. *)
let test_dd_bits () =
  let g = (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph in
  Alcotest.(check int) "abilene dd bits" 3 (Routing.dd_bits (Routing.build g));
  let graphs =
    [
      ("abilene", g);
      ("geant", (Pr_topo.Geant.topology ()).Pr_topo.Topology.graph);
      ("teleglobe", (Pr_topo.Teleglobe.topology ()).Pr_topo.Topology.graph);
      ( "ba200",
        (Pr_topo.Generate.barabasi_albert (Pr_util.Rng.create ~seed:1) ~n:200
           ~k:3)
          .Pr_topo.Topology.graph );
    ]
  in
  (* Teeth: on at least one map the blocked trees alone would ask for a
     wider budget than the full graph's. *)
  let grows = ref false in
  List.iter
    (fun (name, g) ->
      let blocked, blocked_trees = blocking_hubs g in
      if
        Pr_core.Discriminator.bits_of_trees Pr_core.Discriminator.Hops
          blocked_trees
        > Pr_core.Discriminator.bits_needed Pr_core.Discriminator.Hops g
      then grows := true;
      List.iter
        (fun kind ->
          let case label r =
            Alcotest.(check int)
              (Printf.sprintf "%s %s %s" name label
                 (Pr_core.Discriminator.to_string kind))
              (Pr_core.Discriminator.bits_needed kind g)
              (Routing.dd_bits r)
          in
          case "build" (Routing.build ~kind g);
          case "build_blocked" (Routing.build_blocked ~kind g ~blocked))
        [ Pr_core.Discriminator.Hops; Pr_core.Discriminator.Weighted ])
    graphs;
  Alcotest.(check bool) "some blocked view would widen the budget" true !grows

let qcheck_next_hop_chain_terminates =
  QCheck.Test.make ~name:"routing chains reach every destination" ~count:60
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let r = Routing.build g in
      List.for_all
        (fun (src, dst) ->
          let rec walk x steps =
            if x = dst then true
            else if steps > Graph.n g then false
            else
              match Routing.next_hop r ~node:x ~dst with
              | None -> false
              | Some w -> walk w (steps + 1)
          in
          walk src 0)
        (Helpers.all_pairs g))

let qcheck_shortest_path_cost_matches =
  QCheck.Test.make ~name:"shortest_path cost equals distance" ~count:60
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let r = Routing.build g in
      List.for_all
        (fun (src, dst) ->
          match Routing.shortest_path r ~src ~dst with
          | None -> false
          | Some path ->
              Helpers.close ~eps:1e-6
                (Pr_graph.Paths.cost g path)
                (Routing.distance r ~node:src ~dst))
        (Helpers.all_pairs g))

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "discriminator kinds" `Quick test_kinds;
    Alcotest.test_case "quantise" `Quick test_quantise;
    Alcotest.test_case "memory entries" `Quick test_memory_entries;
    Alcotest.test_case "dd bits" `Quick test_dd_bits;
    QCheck_alcotest.to_alcotest qcheck_next_hop_chain_terminates;
    QCheck_alcotest.to_alcotest qcheck_shortest_path_cost_matches;
  ]
