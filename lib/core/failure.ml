module Graph = Pr_graph.Graph

type t = { g : Graph.t; failed : Pr_util.Bitset.t }

let none g = { g; failed = Pr_util.Bitset.create (Graph.m g) }

let of_list g pairs =
  let failed = Pr_util.Bitset.create (Graph.m g) in
  List.iter
    (fun (u, v) ->
      if not (Graph.has_edge g u v) then
        invalid_arg (Printf.sprintf "Failure.of_list: (%d,%d) is not a link" u v);
      Pr_util.Bitset.add failed (Graph.edge_index g u v))
    pairs;
  { g; failed }

let of_nodes g nodes =
  let failed = Pr_util.Bitset.create (Graph.m g) in
  List.iter
    (fun v ->
      if v < 0 || v >= Graph.n g then
        invalid_arg "Failure.of_nodes: node out of range";
      Array.iter
        (fun u -> Pr_util.Bitset.add failed (Graph.edge_index g v u))
        (Graph.neighbours g v))
    nodes;
  { g; failed }

let iter f t =
  Pr_util.Bitset.iter
    (fun i ->
      let e = Graph.edge t.g i in
      f e.u e.v)
    t.failed

(* [b]'s links go in by their endpoints: a structurally equal graph may
   number its edges in another order. *)
let combine a b =
  if not (Graph.equal_structure a.g b.g) then
    invalid_arg "Failure.combine: different graphs";
  let failed = Pr_util.Bitset.create (Graph.m a.g) in
  Pr_util.Bitset.iter (Pr_util.Bitset.add failed) a.failed;
  iter (fun u v -> Pr_util.Bitset.add failed (Graph.edge_index a.g u v)) b;
  { g = a.g; failed }

let graph t = t.g

let is_failed_index t i = Pr_util.Bitset.mem t.failed i

let is_failed t u v = is_failed_index t (Graph.edge_index t.g u v)

let link_up t u v = not (is_failed t u v)

let edges t =
  Pr_util.Bitset.fold
    (fun i acc ->
      let e = Graph.edge t.g i in
      (e.u, e.v) :: acc)
    t.failed []
  |> List.sort compare

let count t = Pr_util.Bitset.cardinal t.failed

let survives_connected t =
  Pr_graph.Connectivity.is_connected ~blocked:(is_failed_index t) t.g

let pair_connected t a b =
  let hops = Pr_graph.Traversal.bfs_hops ~blocked:(is_failed_index t) t.g ~source:a in
  hops.(b) < max_int

let pp ppf t =
  Format.fprintf ppf "@[<h>failures {%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (u, v) -> Format.fprintf ppf "%d-%d" u v))
    (edges t)
