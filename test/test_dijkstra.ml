module Graph = Pr_graph.Graph
module Dijkstra = Pr_graph.Dijkstra

let diamond () =
  (* 0-1-3 and 0-2-3, with 0-1 cheaper. *)
  Graph.create ~n:4 [ (0, 1, 1.0); (0, 2, 2.0); (1, 3, 1.0); (2, 3, 1.0) ]

let test_distances () =
  let t = Dijkstra.tree (diamond ()) ~root:3 in
  Alcotest.(check (float 0.0)) "root" 0.0 (Dijkstra.distance t 3);
  Alcotest.(check (float 0.0)) "via 1" 2.0 (Dijkstra.distance t 0);
  Alcotest.(check (float 0.0)) "node 1" 1.0 (Dijkstra.distance t 1);
  Alcotest.(check int) "hops from 0" 2 (Dijkstra.hop_count t 0)

let test_next_hop () =
  let t = Dijkstra.tree (diamond ()) ~root:3 in
  Alcotest.(check (option int)) "0 goes via 1" (Some 1) (Dijkstra.next_hop t 0);
  Alcotest.(check (option int)) "1 goes direct" (Some 3) (Dijkstra.next_hop t 1);
  Alcotest.(check (option int)) "root has none" None (Dijkstra.next_hop t 3)

let test_path () =
  let t = Dijkstra.tree (diamond ()) ~root:3 in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 3 ]) (Dijkstra.path_to_root t 0)

let test_unreachable () =
  let g = Graph.unweighted ~n:4 [ (0, 1); (2, 3) ] in
  let t = Dijkstra.tree g ~root:0 in
  Alcotest.(check bool) "2 unreachable" false (Dijkstra.reachable t 2);
  Alcotest.(check (option int)) "no next hop" None (Dijkstra.next_hop t 2);
  Alcotest.(check (option (list int))) "no path" None (Dijkstra.path_to_root t 2);
  Alcotest.(check bool) "infinite distance" true (Dijkstra.distance t 2 = infinity)

let test_tie_break_smallest_parent () =
  (* Two equal-cost routes 0-1-3 and 0-2-3: parent of 3 must be 1. *)
  let g = Graph.unweighted ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let t = Dijkstra.tree g ~root:0 in
  Alcotest.(check (option int)) "deterministic tie" (Some 1) (Dijkstra.next_hop t 3)

let test_blocked () =
  let g = diamond () in
  let blocked i =
    let e = Graph.edge g i in
    e.Graph.u = 0 && e.Graph.v = 1
  in
  let t = Dijkstra.tree ~blocked g ~root:3 in
  Alcotest.(check (float 0.0)) "detour" 3.0 (Dijkstra.distance t 0);
  Alcotest.(check (option int)) "via 2 now" (Some 2) (Dijkstra.next_hop t 0)

let test_diameter () =
  let path = Graph.unweighted ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  Alcotest.(check int) "path graph hops" 4 (Dijkstra.diameter_hops path);
  Alcotest.(check (float 0.0)) "path graph weight" 4.0 (Dijkstra.diameter_weight path);
  let single = Graph.create ~n:1 [] in
  Alcotest.(check int) "singleton diameter" 0 (Dijkstra.diameter_hops single)

let test_root_out_of_range () =
  Alcotest.check_raises "bad root"
    (Invalid_argument "Dijkstra.tree: root out of range") (fun () ->
      ignore (Dijkstra.tree (diamond ()) ~root:7))

let qcheck_matches_floyd_warshall =
  QCheck.Test.make ~name:"dijkstra matches Floyd-Warshall" ~count:80
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let reference = Helpers.floyd_warshall g in
      let trees = Dijkstra.all_roots g in
      List.for_all
        (fun (src, dst) ->
          Helpers.close ~eps:1e-6 (Dijkstra.distance trees.(dst) src) reference.(src).(dst))
        (Helpers.all_pairs g))

let qcheck_next_hop_walk_reaches_root =
  QCheck.Test.make ~name:"next-hop walk reaches the root with the tree cost"
    ~count:80
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let trees = Dijkstra.all_roots g in
      List.for_all
        (fun (src, dst) ->
          let t = trees.(dst) in
          let rec walk x cost steps =
            if steps > Graph.n g then false
            else if x = dst then Helpers.close ~eps:1e-6 cost (Dijkstra.distance t src)
            else
              match Dijkstra.next_hop t x with
              | None -> false
              | Some w -> walk w (cost +. Graph.weight g x w) (steps + 1)
          in
          walk src 0.0 0)
        (Helpers.all_pairs g))

let qcheck_hops_consistent =
  QCheck.Test.make ~name:"hop counts equal next-hop chain length" ~count:60
    (Helpers.arb_weighted_connected ())
    (fun g ->
      let trees = Dijkstra.all_roots g in
      List.for_all
        (fun (src, dst) ->
          let t = trees.(dst) in
          match Dijkstra.path_to_root t src with
          | None -> false
          | Some path -> List.length path - 1 = Dijkstra.hop_count t src)
        (Helpers.all_pairs g))

(* Connected graphs whose weights come from {0.5, 1, 2}: every path cost
   is an exact sum, so equal-cost paths tie exactly and often.  About one
   link in four is blocked, which leaves some nodes unreachable. *)
let arb_weighted weights =
  let gen =
    QCheck.Gen.(
      map
        (fun (seed, n, extra) ->
          let rng = Pr_util.Rng.create ~seed in
          let skeleton =
            (Pr_topo.Generate.two_connected rng ~n ~extra).Pr_topo.Topology.graph
          in
          let g =
            Graph.create ~n
              (Graph.fold_edges
                 (fun _ (e : Graph.edge) acc ->
                   (e.u, e.v, Pr_util.Rng.pick rng weights) :: acc)
                 skeleton [])
          in
          (g, Array.init (Graph.m g) (fun _ -> Pr_util.Rng.int rng 4 = 0)))
        (triple (int_bound 1_000_000) (int_range 4 16) (int_bound 24)))
  in
  let print (g, blocked) =
    let cut = List.filter (fun i -> blocked.(i)) (List.init (Graph.m g) Fun.id) in
    Printf.sprintf "%s\nblocked edges: %s" (Helpers.graph_print g)
      (String.concat " " (List.map string_of_int cut))
  in
  QCheck.make ~print gen

let arb_ties = arb_weighted [| 0.5; 1.0; 2.0 |]

(* Every tree against an oracle over the unblocked links: Floyd-Warshall
   distances bit for bit, the smallest-id tight neighbour as parent, one
   hop more than the parent, and (infinity, -1, max_int) where the root
   cannot be reached.  [spf], whose calls share one queue, solves the
   roots of the unblocked graph in reverse and must match [all_roots]
   cell for cell. *)
let qcheck_tie_break_oracle =
  QCheck.Test.make ~name:"tie-break oracle under exact ties and blocked links"
    ~count:200 arb_ties (fun (g, blocked) ->
      let n = Graph.n g in
      let open_ =
        Graph.fold_edges
          (fun i (e : Graph.edge) acc -> if blocked.(i) then acc else (e.u, e.v, e.w) :: acc)
          g []
      in
      let reference = Helpers.floyd_warshall (Graph.create ~n open_) in
      let trees = Dijkstra.all_roots ~blocked:(Array.get blocked) g in
      let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let check root (t : Dijkstra.tree) v =
        let d = reference.(v).(root) in
        let fail what =
          QCheck.Test.fail_reportf "root %d node %d: %s (dist %g parent %d hops %d)" root
            v what t.dist.(v) t.parent.(v) t.hops.(v)
        in
        if not (same_bits t.dist.(v) d) then fail (Printf.sprintf "distance, want %g" d)
        else if d = infinity then begin
          if t.parent.(v) <> -1 || t.hops.(v) <> max_int then fail "unreachable"
        end
        else if v = root then begin
          if t.parent.(v) <> root || t.hops.(v) <> 0 then fail "root"
        end
        else begin
          let nbrs = Graph.neighbours g v and edges = Graph.slot_edges g v in
          let tight = ref (-1) in
          Array.iteri
            (fun s u ->
              if !tight < 0 && (not blocked.(edges.(s)))
                 && reference.(u).(root) +. Graph.weight g u v = d
              then tight := u)
            nbrs;
          if t.parent.(v) <> !tight then fail (Printf.sprintf "parent, want %d" !tight)
          else if t.hops.(v) <> t.hops.(t.parent.(v)) + 1 then fail "hops"
        end
      in
      Array.iteri
        (fun root t ->
          for v = 0 to n - 1 do
            check root t v
          done)
        trees;
      let solve = Dijkstra.spf g and unblocked = Dijkstra.all_roots g in
      for root = n - 1 downto 0 do
        let t = solve root and want = unblocked.(root) in
        if t.root <> root || t.dist <> want.dist || t.parent <> want.parent
           || t.hops <> want.hops
        then QCheck.Test.fail_reportf "spf root %d differs from all_roots" root
      done;
      true)

(* Weights from {1, 1e-17}: once a path costs 1, a tiny link adds nothing
   ([1. +. 1e-17 = 1.]), so a tight neighbour can share a node's distance
   and settle after it, and the parent is not always the smallest-id tight
   neighbour.  What still holds: the parent is a tight open neighbour, no
   open neighbour offers less, and the hop count follows the parent. *)
let qcheck_absorbed_weights =
  QCheck.Test.make ~name:"absorbed weights: a tight parent, no shorter neighbour"
    ~count:200 (arb_weighted [| 1.0; 1e-17 |]) (fun (g, blocked) ->
      let n = Graph.n g in
      let trees = Dijkstra.all_roots ~blocked:(Array.get blocked) g in
      let holds root (t : Dijkstra.tree) v =
        let d = t.dist.(v) and p = t.parent.(v) in
        if d = infinity then p = -1 && t.hops.(v) = max_int
        else if v = root then d = 0.0 && p = root && t.hops.(v) = 0
        else begin
          let weights = Graph.slot_weights g v and edges = Graph.slot_edges g v in
          let tight = ref false and shorter = ref false in
          Array.iteri
            (fun s u ->
              if not blocked.(edges.(s)) then begin
                let c = t.dist.(u) +. weights.(s) in
                if c < d then shorter := true;
                if u = p && c = d then tight := true
              end)
            (Graph.neighbours g v);
          !tight && (not !shorter) && t.hops.(v) = t.hops.(p) + 1
        end
      in
      Array.iteri
        (fun root t ->
          for v = 0 to n - 1 do
            if not (holds root t v) then
              QCheck.Test.fail_reportf "root %d node %d: dist %g parent %d hops %d" root v
                t.dist.(v) t.parent.(v) t.hops.(v)
          done)
        trees;
      true)

let suite =
  [
    Alcotest.test_case "distances" `Quick test_distances;
    Alcotest.test_case "next hops" `Quick test_next_hop;
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "deterministic tie-break" `Quick test_tie_break_smallest_parent;
    Alcotest.test_case "blocked edges" `Quick test_blocked;
    Alcotest.test_case "diameter" `Quick test_diameter;
    Alcotest.test_case "root validation" `Quick test_root_out_of_range;
    QCheck_alcotest.to_alcotest qcheck_matches_floyd_warshall;
    QCheck_alcotest.to_alcotest qcheck_next_hop_walk_reaches_root;
    QCheck_alcotest.to_alcotest qcheck_hops_consistent;
    QCheck_alcotest.to_alcotest qcheck_tie_break_oracle;
    QCheck_alcotest.to_alcotest qcheck_absorbed_weights;
  ]
