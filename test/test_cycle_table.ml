module Graph = Pr_graph.Graph
module Rotation = Pr_embed.Rotation
module Cycle_table = Pr_core.Cycle_table

let k4_table () =
  let g = Graph.unweighted ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  (g, Cycle_table.build (Rotation.adjacency g))

let test_entry_count () =
  let g, t = k4_table () in
  for v = 0 to 3 do
    Alcotest.(check int) "one entry per interface" (Graph.degree g v)
      (List.length (Cycle_table.entries t v))
  done

let test_complement_is_cf_squared () =
  (* The complementary column equals cycle following applied twice — the
     construction derived from the paper's Table 1. *)
  let _, t = k4_table () in
  List.iter
    (fun (e : Cycle_table.entry) ->
      Alcotest.(check int) "comp = cf o cf" e.complementary
        (Cycle_table.cycle_next t ~node:0 ~from_:e.cycle_following))
    (Cycle_table.entries t 0)

let test_complement_for_failed () =
  let _, t = k4_table () in
  (* Failing outgoing interface z: the complementary cycle starts at
     next(z). *)
  Alcotest.(check int) "rotation successor" 2
    (Cycle_table.complement_for_failed t ~node:0 ~failed:1)

(* A missing entry is [None], never another arc's entry: on the square
   0-1-2-3, node 0 has no entry for the non-neighbour 2, for itself, or
   for an out-of-range node (the position key of [(0, 4)] is that of
   node 1's entry for neighbour 0). *)
let test_cycle_next_opt () =
  let g = Graph.unweighted ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let t = Cycle_table.build (Rotation.adjacency g) in
  Alcotest.(check (option int)) "an entry"
    (Some (Cycle_table.cycle_next t ~node:0 ~from_:1))
    (Cycle_table.cycle_next_opt t ~node:0 ~from_:1);
  List.iter
    (fun (node, from_) ->
      Alcotest.(check (option int))
        (Printf.sprintf "no entry at %d from %d" node from_)
        None
        (Cycle_table.cycle_next_opt t ~node ~from_))
    [ (0, 2); (0, 0); (0, 4); (0, -1); (4, 0); (-1, 0) ]

let test_memory_entries () =
  let g, t = k4_table () in
  Alcotest.(check int) "2m entries network-wide" (2 * Graph.m g)
    (Cycle_table.memory_entries t)

let qcheck_cf_column_is_permutation =
  (* The paper notes the forwarding table is a permutation over the output
     interfaces. *)
  QCheck.Test.make ~name:"cycle-following column is a permutation" ~count:100
    QCheck.(pair (int_bound 1_000_000) (Helpers.arb_two_connected ()))
    (fun (seed, g) ->
      let t = Cycle_table.build (Rotation.random (Pr_util.Rng.create ~seed) g) in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        let entries = Cycle_table.entries t v in
        let incoming = List.map (fun (e : Cycle_table.entry) -> e.incoming) entries in
        let outgoing =
          List.map (fun (e : Cycle_table.entry) -> e.cycle_following) entries
        in
        if List.sort compare incoming <> List.sort compare outgoing then ok := false
      done;
      !ok)

let qcheck_consistent_with_rotation =
  QCheck.Test.make ~name:"table agrees with the rotation system" ~count:100
    QCheck.(pair (int_bound 1_000_000) (Helpers.arb_two_connected ()))
    (fun (seed, g) ->
      let rot = Rotation.random (Pr_util.Rng.create ~seed) g in
      let t = Cycle_table.build rot in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        Array.iter
          (fun u ->
            if Cycle_table.cycle_next t ~node:v ~from_:u <> Rotation.next rot v u then
              ok := false)
          (Graph.neighbours g v)
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "entry count" `Quick test_entry_count;
    Alcotest.test_case "complement = cf^2" `Quick test_complement_is_cf_squared;
    Alcotest.test_case "complement for failed" `Quick test_complement_for_failed;
    Alcotest.test_case "missing entries are None" `Quick test_cycle_next_opt;
    Alcotest.test_case "memory entries" `Quick test_memory_entries;
    QCheck_alcotest.to_alcotest qcheck_cf_column_is_permutation;
    QCheck_alcotest.to_alcotest qcheck_consistent_with_rotation;
  ]
