type kind = Hops | Weighted

let value kind tree v =
  match kind with
  | Hops ->
      let h = Pr_graph.Dijkstra.hop_count tree v in
      if h = max_int then infinity else float_of_int h
  | Weighted -> Pr_graph.Dijkstra.distance tree v

let quantise kind v =
  match kind with
  | Hops -> int_of_float v
  | Weighted -> int_of_float (Float.ceil v)

let bits_for_range max_value =
  (* Smallest b with 2^b > max_value, i.e. values 0..max_value encodable. *)
  let rec loop b capacity =
    if capacity > max_value then b else loop (b + 1) (2 * capacity)
  in
  loop 0 1

let bits_of_trees kind trees =
  let widest = ref 0.0 in
  Array.iter
    (fun tree ->
      for v = 0 to Array.length tree.Pr_graph.Dijkstra.dist - 1 do
        if Pr_graph.Dijkstra.reachable tree v then
          widest := Float.max !widest (value kind tree v)
      done)
    trees;
  bits_for_range (quantise kind !widest)

let bits_needed kind g = bits_of_trees kind (Pr_graph.Dijkstra.all_roots g)

let to_string = function Hops -> "hops" | Weighted -> "weighted"
