module Graph = Pr_graph.Graph

let triangle () = Graph.create ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 4.0) ]

let test_create_counts () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check (float 0.0)) "total weight" 7.0 (Graph.total_weight g)

let invalid msg thunk =
  match thunk () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let test_create_validation () =
  invalid "self loop" (fun () -> Graph.create ~n:2 [ (0, 0, 1.0) ]);
  invalid "duplicate" (fun () -> Graph.create ~n:2 [ (0, 1, 1.0); (1, 0, 2.0) ]);
  invalid "out of range" (fun () -> Graph.create ~n:2 [ (0, 2, 1.0) ]);
  invalid "negative endpoint" (fun () -> Graph.create ~n:2 [ (-1, 1, 1.0) ]);
  invalid "zero weight" (fun () -> Graph.create ~n:2 [ (0, 1, 0.0) ]);
  invalid "negative weight" (fun () -> Graph.create ~n:2 [ (0, 1, -1.0) ]);
  invalid "nan weight" (fun () -> Graph.create ~n:2 [ (0, 1, Float.nan) ]);
  invalid "infinite weight" (fun () -> Graph.create ~n:2 [ (0, 1, infinity) ])

let test_neighbours_sorted () =
  let g = Graph.unweighted ~n:5 [ (3, 0); (3, 4); (3, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 4 |] (Graph.neighbours g 3);
  Alcotest.(check int) "degree" 3 (Graph.degree g 3);
  Alcotest.(check int) "max degree" 3 (Graph.max_degree g);
  Alcotest.(check (array int)) "leaf" [| 3 |] (Graph.neighbours g 0)

let test_edge_lookup () =
  let g = triangle () in
  Alcotest.(check bool) "has 0-1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "has 1-0" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "no 1-1" false (Graph.has_edge g 1 1);
  Alcotest.(check (float 0.0)) "weight symmetric" (Graph.weight g 1 2) (Graph.weight g 2 1);
  Alcotest.(check int) "edge_index symmetric" (Graph.edge_index g 0 2) (Graph.edge_index g 2 0);
  Alcotest.check_raises "weight of non-edge" Not_found (fun () ->
      let g2 = Graph.unweighted ~n:3 [ (0, 1) ] in
      ignore (Graph.weight g2 0 2));
  (* An out-of-range endpoint is no link, even where [u * n + v] would
     name one: on the path 0-1-2-3, 0*4+6 = 1*4+2 and -1*4+5 = 0*4+1. *)
  let path = Graph.unweighted ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  List.iter
    (fun (u, v) ->
      let what = Printf.sprintf "(%d,%d)" u v in
      Alcotest.(check bool) ("no edge " ^ what) false (Graph.has_edge path u v);
      Alcotest.check_raises ("edge_index " ^ what) Not_found (fun () ->
          ignore (Graph.edge_index path u v));
      Alcotest.check_raises ("weight " ^ what) Not_found (fun () ->
          ignore (Graph.weight path u v)))
    [ (0, 6); (-1, 5); (6, 0); (4, 0) ];
  let failed = Pr_core.Failure.of_list path [ (1, 2) ] in
  Alcotest.check_raises "is_failed out of range" Not_found (fun () ->
      ignore (Pr_core.Failure.is_failed failed 0 6))

let test_edges_canonical () =
  let g = Graph.create ~n:3 [ (2, 0, 1.5) ] in
  let e = Graph.edge g 0 in
  Alcotest.(check int) "u < v" 0 e.Graph.u;
  Alcotest.(check int) "v" 2 e.Graph.v;
  Alcotest.(check (float 0.0)) "w" 1.5 e.Graph.w

let test_without_edges () =
  let g = triangle () in
  let g' = Graph.without_edges g [ (1, 0) ] in
  Alcotest.(check int) "one fewer edge" 2 (Graph.m g');
  Alcotest.(check bool) "edge gone" false (Graph.has_edge g' 0 1);
  Alcotest.(check bool) "others kept" true (Graph.has_edge g' 1 2);
  invalid "removing non-edge" (fun () -> Graph.without_edges g' [ (0, 1) ])

let test_induced () =
  let g = Graph.unweighted ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let sub, mapping = Graph.induced g [ 0; 1; 2 ] in
  Alcotest.(check int) "3 nodes" 3 (Graph.n sub);
  Alcotest.(check int) "2 edges survive" 2 (Graph.m sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2 |] mapping

let test_equal_structure () =
  let a = triangle () and b = triangle () in
  Alcotest.(check bool) "equal" true (Graph.equal_structure a b);
  let c = Graph.create ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 5.0) ] in
  Alcotest.(check bool) "weight differs" false (Graph.equal_structure a c)

let test_fold_iter_edges () =
  let g = triangle () in
  let indices = Graph.fold_edges (fun i _ acc -> i :: acc) g [] in
  Alcotest.(check (list int)) "indices in order" [ 2; 1; 0 ] indices;
  let count = ref 0 in
  Graph.iter_edges (fun _ _ -> incr count) g;
  Alcotest.(check int) "iterated" 3 !count

let test_empty_graph () =
  let g = Graph.create ~n:0 [] in
  Alcotest.(check int) "no nodes" 0 (Graph.n g);
  Alcotest.(check int) "no edges" 0 (Graph.m g)

let qcheck_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2m" ~count:100
    (Helpers.arb_two_connected ())
    (fun g ->
      let sum = ref 0 in
      for v = 0 to Graph.n g - 1 do
        sum := !sum + Graph.degree g v
      done;
      !sum = 2 * Graph.m g)

(* Every edge's index round-trips through [edge_index] both ways, and
   every slot of every row names its link's edge index and weight. *)
let qcheck_edge_index_roundtrip =
  QCheck.Test.make ~name:"edge / edge_index round-trip" ~count:100
    (Helpers.arb_weighted_connected ~max_n:14 ())
    (fun g ->
      Graph.fold_edges
        (fun i (e : Graph.edge) acc ->
          acc && Graph.edge_index g e.u e.v = i && Graph.edge_index g e.v e.u = i)
        g true
      && List.for_all
           (fun v ->
             let row = Graph.neighbours g v in
             let weights = Graph.slot_weights g v and edges = Graph.slot_edges g v in
             Array.length weights = Array.length row
             && Array.length edges = Array.length row
             && Array.for_all Fun.id
                  (Array.mapi
                     (fun p w ->
                       let e = Graph.edge g edges.(p) in
                       ((e.u, e.v) = (v, w) || (e.u, e.v) = (w, v))
                       && edges.(p) = Graph.edge_index g v w
                       && weights.(p) = e.w
                       && weights.(p) = Graph.weight g v w)
                     row))
           (List.init (Graph.n g) Fun.id))

(* [Graph.port] inverts [neighbours] at every node, answers -1 for every
   non-neighbour (the node itself included) and rejects an out-of-range
   node. *)
let check_port g =
  for v = 0 to Graph.n g - 1 do
    let row = Graph.neighbours g v in
    for w = 0 to Graph.n g - 1 do
      let expect =
        match Array.find_index (Int.equal w) row with
        | Some p -> p
        | None -> -1
      in
      if Graph.port g v w <> expect then
        Alcotest.failf "port %d %d = %d, want %d" v w (Graph.port g v w) expect
    done
  done;
  invalid "negative node" (fun () -> Graph.port g (-1) 0);
  invalid "node past the end" (fun () -> Graph.port g (Graph.n g) 0)

let test_port () =
  check_port (triangle ());
  check_port (Graph.unweighted ~n:5 [ (3, 0); (3, 4); (3, 1) ]);
  check_port (Pr_topo.Geant.topology ()).Pr_topo.Topology.graph;
  Alcotest.(check int) "not a node" (-1) (Graph.port (triangle ()) 0 7)

let suite =
  [
    Alcotest.test_case "create counts" `Quick test_create_counts;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "neighbours sorted" `Quick test_neighbours_sorted;
    Alcotest.test_case "edge lookup" `Quick test_edge_lookup;
    Alcotest.test_case "edges canonical" `Quick test_edges_canonical;
    Alcotest.test_case "without_edges" `Quick test_without_edges;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "equal_structure" `Quick test_equal_structure;
    Alcotest.test_case "fold and iter" `Quick test_fold_iter_edges;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "port" `Quick test_port;
    QCheck_alcotest.to_alcotest qcheck_degree_sum;
    QCheck_alcotest.to_alcotest qcheck_edge_index_roundtrip;
  ]
