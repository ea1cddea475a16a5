module Dijkstra = Pr_graph.Dijkstra

type kind = Hops | Weighted

(* The DD rule, of a node [dist] and [hops] hops from the root.  Inlined
   in this module, so its float stays unboxed. *)
let[@inline] of_path kind ~dist ~hops =
  match kind with
  | Hops -> if hops = max_int then infinity else float_of_int hops
  | Weighted -> dist

let[@inline] value kind (tree : Dijkstra.tree) v =
  of_path kind ~dist:tree.dist.(v) ~hops:tree.hops.(v)

let[@inline] quantise kind v =
  match kind with
  | Hops -> int_of_float v
  | Weighted -> int_of_float (Float.ceil v)

let[@inline] cell kind ~disc ~disc_q i ~dist ~hops =
  let v = of_path kind ~dist ~hops in
  disc.(i) <- v;
  disc_q.(i) <- quantise kind v

let column kind (tree : Dijkstra.tree) ~disc ~disc_q ~first ~stride =
  for x = 0 to Array.length tree.dist - 1 do
    cell kind ~disc ~disc_q (first + (x * stride)) ~dist:tree.dist.(x)
      ~hops:tree.hops.(x)
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
