module Dijkstra = Pr_graph.Dijkstra

type kind = Hops | Weighted

(* The DD rule.  Inlined in this module, so its float stays unboxed. *)
let[@inline] value kind (tree : Dijkstra.tree) v =
  match kind with
  | Hops ->
      let h = tree.hops.(v) in
      if h = max_int then infinity else float_of_int h
  | Weighted -> tree.dist.(v)

let[@inline] quantise kind v =
  match kind with
  | Hops -> int_of_float v
  | Weighted -> int_of_float (Float.ceil v)

let column kind (tree : Dijkstra.tree) ~disc ~disc_q ~first ~stride =
  for x = 0 to Array.length tree.dist - 1 do
    let v = value kind tree x in
    let i = first + (x * stride) in
    disc.(i) <- v;
    disc_q.(i) <- quantise kind v
  done

let bits_for_range max_value =
  (* Smallest b with 2^b > max_value, i.e. values 0..max_value encodable. *)
  let rec loop b capacity =
    if capacity > max_value then b else loop (b + 1) (2 * capacity)
  in
  loop 0 1

let bits_of_trees kind trees =
  let widest = ref 0.0 in
  for t = 0 to Array.length trees - 1 do
    let tree : Dijkstra.tree = trees.(t) in
    for v = 0 to Array.length tree.dist - 1 do
      if tree.dist.(v) < infinity then begin
        let d = value kind tree v in
        if d > !widest then widest := d
      end
    done
  done;
  bits_for_range (quantise kind !widest)

let bits_needed kind g = bits_of_trees kind (Dijkstra.all_roots g)

let to_string = function Hops -> "hops" | Weighted -> "weighted"
