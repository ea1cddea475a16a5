type edge = { u : int; v : int; w : float }

(* Three rows per node, slot for slot: the neighbours in increasing id
   order (slot p is port p), the weight of the link to each and its edge
   index.  An edge lookup is a binary search of [adj] plus a slot read. *)
type t = {
  n : int;
  edge_array : edge array;
  adj : int array array;
  slot_w : float array array;
  slot_e : int array array;
}

(* [w]'s slot in a sorted row, -1 when absent.  A top-level loop, so a
   lookup allocates no closure. *)
let rec search_in row w lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = Array.unsafe_get row mid in
    if x = w then mid
    else if x < w then search_in row w (mid + 1) hi
    else search_in row w lo mid

let search row w = search_in row w 0 (Array.length row)

let create ~n edge_list =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  let seen = Hashtbl.create (2 * List.length edge_list) in
  let canonical =
    List.map
      (fun (u, v, w) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg
            (Printf.sprintf "Graph.create: endpoint out of range (%d,%d)" u v);
        if u = v then invalid_arg "Graph.create: self loop";
        if not (Float.is_finite w) || w <= 0.0 then
          invalid_arg "Graph.create: weights must be finite and positive";
        let u, v = if u < v then (u, v) else (v, u) in
        if Hashtbl.mem seen (u, v) then
          invalid_arg (Printf.sprintf "Graph.create: duplicate edge (%d,%d)" u v);
        Hashtbl.replace seen (u, v) ();
        { u; v; w })
      edge_list
  in
  let edge_array = Array.of_list canonical in
  let degree = Array.make n 0 in
  Array.iter
    (fun e ->
      degree.(e.u) <- degree.(e.u) + 1;
      degree.(e.v) <- degree.(e.v) + 1)
    edge_array;
  let adj = Array.init n (fun i -> Array.make degree.(i) (-1)) in
  let fill = Array.make n 0 in
  Array.iter
    (fun e ->
      adj.(e.u).(fill.(e.u)) <- e.v;
      fill.(e.u) <- fill.(e.u) + 1;
      adj.(e.v).(fill.(e.v)) <- e.u;
      fill.(e.v) <- fill.(e.v) + 1)
    edge_array;
  Array.iter (fun row -> Array.sort compare row) adj;
  let slot_w = Array.map (fun row -> Array.make (Array.length row) 0.0) adj in
  let slot_e = Array.map (fun row -> Array.make (Array.length row) (-1)) adj in
  Array.iteri
    (fun i e ->
      let pu = search adj.(e.u) e.v and pv = search adj.(e.v) e.u in
      slot_w.(e.u).(pu) <- e.w;
      slot_e.(e.u).(pu) <- i;
      slot_w.(e.v).(pv) <- e.w;
      slot_e.(e.v).(pv) <- i)
    edge_array;
  { n; edge_array; adj; slot_w; slot_e }

let unweighted ~n pairs = create ~n (List.map (fun (u, v) -> (u, v, 1.0)) pairs)

let n t = t.n

let m t = Array.length t.edge_array

let neighbours t v =
  if v < 0 || v >= t.n then invalid_arg "Graph.neighbours: node out of range";
  t.adj.(v)

let degree t v = Array.length (neighbours t v)

let port t v w = search (neighbours t v) w

let slot_weights t v =
  if v < 0 || v >= t.n then invalid_arg "Graph.slot_weights: node out of range";
  t.slot_w.(v)

let slot_edges t v =
  if v < 0 || v >= t.n then invalid_arg "Graph.slot_edges: node out of range";
  t.slot_e.(v)

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    best := max !best (degree t v)
  done;
  !best

(* [v]'s slot at [u]; -1 when they are not adjacent, either of them out
   of range included. *)
let slot t u v = if u < 0 || u >= t.n then -1 else search t.adj.(u) v

let has_edge t u v = slot t u v >= 0

let edge_index t u v =
  let p = slot t u v in
  if p < 0 then raise Not_found;
  t.slot_e.(u).(p)

let edge t i = t.edge_array.(i)

let weight t u v =
  let p = slot t u v in
  if p < 0 then raise Not_found;
  t.slot_w.(u).(p)

let edges t = t.edge_array

let fold_edges f t init =
  let acc = ref init in
  Array.iteri (fun i e -> acc := f i e !acc) t.edge_array;
  !acc

let iter_edges f t = Array.iteri f t.edge_array

let total_weight t = Array.fold_left (fun acc e -> acc +. e.w) 0.0 t.edge_array

let without_edges t removals =
  let removed = Hashtbl.create (2 * List.length removals) in
  List.iter
    (fun (u, v) ->
      if not (has_edge t u v) then
        invalid_arg (Printf.sprintf "Graph.without_edges: no edge (%d,%d)" u v);
      Hashtbl.replace removed (edge_index t u v) ())
    removals;
  let kept =
    fold_edges
      (fun i e acc -> if Hashtbl.mem removed i then acc else (e.u, e.v, e.w) :: acc)
      t []
  in
  create ~n:t.n (List.rev kept)

let induced t nodes =
  let nodes = List.sort_uniq compare nodes in
  List.iter
    (fun v ->
      if v < 0 || v >= t.n then invalid_arg "Graph.induced: node out of range")
    nodes;
  let mapping = Array.of_list nodes in
  let back = Hashtbl.create (2 * Array.length mapping) in
  Array.iteri (fun fresh original -> Hashtbl.replace back original fresh) mapping;
  let kept =
    fold_edges
      (fun _ e acc ->
        match (Hashtbl.find_opt back e.u, Hashtbl.find_opt back e.v) with
        | Some u', Some v' -> (u', v', e.w) :: acc
        | _ -> acc)
      t []
  in
  (create ~n:(Array.length mapping) (List.rev kept), mapping)

let equal_structure a b =
  a == b
  || n a = n b
     && m a = m b
     && fold_edges
          (fun _ e acc ->
            acc
            &&
            let p = slot b e.u e.v in
            p >= 0 && b.slot_w.(e.u).(p) = e.w)
          a true

let pp ppf t =
  Format.fprintf ppf "@[<v>graph n=%d m=%d" t.n (m t);
  iter_edges (fun _ e -> Format.fprintf ppf "@,  %d -- %d  w=%g" e.u e.v e.w) t;
  Format.fprintf ppf "@]"
