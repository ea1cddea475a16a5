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

(* [int_of_float infinity] is unspecified; an unreachable DD reads 0. *)
let[@inline] quantise kind v =
  if v = infinity then 0
  else
    match kind with
    | Hops -> int_of_float v
    | Weighted -> int_of_float (Float.ceil v)

let[@inline] of_cell kind ~dist ~q =
  match kind with
  | Hops -> if dist = infinity then infinity else float_of_int q
  | Weighted -> dist

(* [quantise kind (of_path kind ~dist ~hops)], the float left out: a
   float joined from [infinity] would be boxed. *)
let[@inline] cell kind disc_q i ~dist ~hops =
  disc_q.(i) <-
    (match kind with
    | Hops -> if hops = max_int then 0 else hops
    | Weighted -> quantise kind dist)

let column kind (tree : Dijkstra.tree) disc_q =
  for x = 0 to Array.length tree.dist - 1 do
    cell kind disc_q x ~dist:tree.dist.(x) ~hops:tree.hops.(x)
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
