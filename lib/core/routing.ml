module Graph = Pr_graph.Graph
module Dijkstra = Pr_graph.Dijkstra

type t = {
  g : Graph.t;
  kind : Discriminator.kind;
  trees : Dijkstra.tree array; (* index = destination *)
  dd_bits : int;
}

let build ?(kind = Discriminator.Hops) g =
  Pr_telemetry.Span.timed "routing.build" @@ fun () ->
  let trees = Dijkstra.all_roots g in
  { g; kind; trees; dd_bits = Discriminator.bits_of_trees kind trees }

let build_blocked ?(kind = Discriminator.Hops) g ~blocked =
  Pr_telemetry.Span.timed "routing.build" @@ fun () ->
  let trees = Dijkstra.all_roots ~blocked g in
  { g; kind; trees; dd_bits = Discriminator.bits_needed kind g }

let graph t = t.g

let kind t = t.kind

let tree t dst =
  if dst < 0 || dst >= Graph.n t.g then invalid_arg "Routing: destination out of range";
  t.trees.(dst)

let next_hop t ~node ~dst = Dijkstra.next_hop (tree t dst) node

let disc t ~node ~dst = Discriminator.value t.kind (tree t dst) node

let distance t ~node ~dst = Dijkstra.distance (tree t dst) node

let hops t ~node ~dst = Dijkstra.hop_count (tree t dst) node

let shortest_path t ~src ~dst = Dijkstra.path_to_root (tree t dst) src

let dd_bits t = t.dd_bits

let quantise_dd t v = Discriminator.quantise t.kind v

let memory_entries t =
  let n = Graph.n t.g in
  n * (n - 1)
