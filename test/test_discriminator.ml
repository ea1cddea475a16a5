module Graph = Pr_graph.Graph
module Discriminator = Pr_core.Discriminator
module Dijkstra = Pr_graph.Dijkstra

let weighted_path () =
  Graph.create ~n:4 [ (0, 1, 2.5); (1, 2, 2.5); (2, 3, 2.5) ]

let test_values () =
  let g = weighted_path () in
  let tree = Dijkstra.tree g ~root:3 in
  Alcotest.(check (float 0.0)) "hops" 3.0 (Discriminator.value Discriminator.Hops tree 0);
  Alcotest.(check (float 0.0)) "weighted" 7.5
    (Discriminator.value Discriminator.Weighted tree 0);
  Alcotest.(check (float 0.0)) "at root" 0.0 (Discriminator.value Discriminator.Hops tree 3)

let test_unreachable () =
  let g = Graph.unweighted ~n:3 [ (0, 1) ] in
  let tree = Dijkstra.tree g ~root:0 in
  Alcotest.(check bool) "hops infinite" true
    (Discriminator.value Discriminator.Hops tree 2 = infinity);
  Alcotest.(check bool) "weighted infinite" true
    (Discriminator.value Discriminator.Weighted tree 2 = infinity)

(* [int_of_float infinity] is unspecified, so an unreachable DD has an
   explicit quantised value, 0 under both kinds; and a compiled cell,
   which keeps only that and the distance, still reads infinity. *)
let test_unreachable_cells () =
  let g = Graph.unweighted ~n:3 [ (0, 1) ] in
  let tree = Dijkstra.tree g ~root:0 in
  List.iter
    (fun kind ->
      let name = Discriminator.to_string kind in
      Alcotest.(check int) (name ^ ": infinity quantises to 0") 0
        (Discriminator.quantise kind infinity);
      let col = Array.make 3 (-1) in
      Discriminator.column kind tree col;
      Alcotest.(check (array int)) (name ^ ": column") [| 0; 1; 0 |] col;
      Alcotest.(check bool) (name ^ ": unreachable cell reads infinity") true
        (Discriminator.of_cell kind ~dist:tree.Dijkstra.dist.(2) ~q:col.(2)
        = infinity);
      Alcotest.(check (float 0.0)) (name ^ ": reachable cell reads its value")
        (Discriminator.value kind tree 1)
        (Discriminator.of_cell kind ~dist:tree.Dijkstra.dist.(1) ~q:col.(1)))
    [ Discriminator.Hops; Discriminator.Weighted ];
  Alcotest.(check (float 0.0)) "weighted cell reads its distance" 7.5
    (Discriminator.of_cell Discriminator.Weighted ~dist:7.5 ~q:8)

let test_bits_needed () =
  (* diameter 3 hops: values 0..3 need 2 bits. *)
  let g = Graph.unweighted ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "2 bits for diameter 3" 2
    (Discriminator.bits_needed Discriminator.Hops g);
  (* Abilene: diameter 5 -> 3 bits (2^3 = 8 > 5). *)
  let abilene = (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph in
  Alcotest.(check int) "abilene 3 bits" 3
    (Discriminator.bits_needed Discriminator.Hops abilene)

let test_to_string () =
  Alcotest.(check string) "hops" "hops" (Discriminator.to_string Discriminator.Hops);
  Alcotest.(check string) "weighted" "weighted"
    (Discriminator.to_string Discriminator.Weighted)

let qcheck_strictly_decreasing_along_path =
  (* The defining property (§4.3): the discriminator strictly decreases
     along the shortest path towards the destination. *)
  QCheck.Test.make ~name:"discriminator strictly decreases towards the root"
    ~count:80
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let ok = ref true in
      Array.iter
        (fun tree ->
          for v = 0 to Graph.n g - 1 do
            match Dijkstra.next_hop tree v with
            | None -> ()
            | Some w ->
                List.iter
                  (fun kind ->
                    if
                      Discriminator.value kind tree w
                      >= Discriminator.value kind tree v
                    then ok := false)
                  [ Discriminator.Hops; Discriminator.Weighted ]
          done)
        (Dijkstra.all_roots g);
      !ok)

let suite =
  [
    Alcotest.test_case "values" `Quick test_values;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "unreachable cells quantise to 0" `Quick
      test_unreachable_cells;
    Alcotest.test_case "bits needed" `Quick test_bits_needed;
    Alcotest.test_case "to_string" `Quick test_to_string;
    QCheck_alcotest.to_alcotest qcheck_strictly_decreasing_along_path;
  ]
