module Graph = Pr_graph.Graph
module Dijkstra = Pr_graph.Dijkstra

type outcome = Delivered | Disconnected | Ttl_exceeded

type trace = {
  outcome : outcome;
  path : int list;
  recomputations : int;
  carried : (int * int) list;
}

let run ?ttl g ~failures ~src ~dst () =
  let n = Graph.n g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Fcp.run: node out of range";
  if src = dst then invalid_arg "Fcp.run: src = dst";
  (* Between two failure learnings the packet follows one consistent tree
     (at most n hops); at most m failures can be learned. *)
  let ttl = match ttl with Some t -> t | None -> ((Graph.m g + 1) * n) + 16 in
  if ttl < 0 then invalid_arg (Printf.sprintf "Fcp.run: negative TTL %d" ttl);
  let known = Pr_util.Bitset.create (Graph.m g) in
  let recomputations = ref 0 in
  let compute_tree () =
    incr recomputations;
    Dijkstra.tree ~blocked:(Pr_util.Bitset.mem known) g ~root:dst
  in
  let tree = ref (compute_tree ()) in
  let rec step x ~ttl acc =
    if x = dst then finish Delivered acc
    else if ttl = 0 then finish Ttl_exceeded acc
    else begin
      match Dijkstra.next_hop !tree x with
      | None -> finish Disconnected acc
      | Some w ->
          if Pr_core.Failure.link_up failures x w then
            step w ~ttl:(ttl - 1) (w :: acc)
          else begin
            (* Learn the failure, recompute, retry at the same node. *)
            Pr_util.Bitset.add known (Graph.edge_index g x w);
            tree := compute_tree ();
            step x ~ttl:(ttl - 1) acc
          end
    end
  and finish outcome acc =
    let carried =
      Pr_util.Bitset.fold
        (fun i acc ->
          let e = Graph.edge g i in
          (e.u, e.v) :: acc)
        known []
      |> List.sort compare
    in
    { outcome; path = List.rev acc; recomputations = !recomputations; carried }
  in
  step src ~ttl [ src ]

let path_cost g trace = Pr_graph.Paths.cost g trace.path

let stretch ~routing ~trace ~src ~dst =
  match trace.outcome with
  | Delivered ->
      path_cost (Pr_core.Routing.graph routing) trace
      /. Pr_core.Routing.distance routing ~node:src ~dst
  | Disconnected | Ttl_exceeded -> infinity

let bits_per_failure g =
  let count = Graph.m g in
  let rec loop b capacity = if capacity >= count then b else loop (b + 1) (2 * capacity) in
  if count <= 1 then 1 else loop 0 1

let header_bits g trace = List.length trace.carried * bits_per_failure g
