let components ?blocked g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) = -1 then begin
      let hops = Traversal.bfs_hops ?blocked g ~source:v in
      Array.iteri (fun w h -> if h < max_int then label.(w) <- !count) hops;
      incr count
    end
  done;
  (label, !count)

let is_connected ?blocked g =
  let _, count = components ?blocked g in
  count <= 1

let same_component ?blocked g a b =
  let label, _ = components ?blocked g in
  label.(a) = label.(b)

let connected_without g removals =
  let removed = Hashtbl.create (2 * List.length removals) in
  List.iter
    (fun (u, v) -> Hashtbl.replace removed (Graph.edge_index g u v) ())
    removals;
  let uf = Pr_util.Union_find.create (Graph.n g) in
  Graph.iter_edges
    (fun i e ->
      if not (Hashtbl.mem removed i) then ignore (Pr_util.Union_find.union uf e.u e.v))
    g;
  Pr_util.Union_find.count uf <= 1

(* Iterative Tarjan lowlink computation shared by bridges and articulation
   points.  The traversal is iterative to survive large random graphs in
   property tests without stack overflows. *)
type lowlink = {
  disc : int array;
  low : int array;
  parent_edge : int array; (* edge index used to enter the node, -1 at roots *)
}

let lowlinks g =
  let n = Graph.n g in
  let disc = Array.make n (-1) in
  let low = Array.make n max_int in
  let parent_edge = Array.make n (-1) in
  let time = ref 0 in
  let on_finish = ref (fun ~child:_ ~parent:_ -> ()) in
  let visit_root root children_of_root =
    (* Explicit stack of (node, neighbour cursor). *)
    let stack = Stack.create () in
    disc.(root) <- !time;
    low.(root) <- !time;
    incr time;
    Stack.push (root, ref 0) stack;
    while not (Stack.is_empty stack) do
      let v, cursor = Stack.top stack in
      let nbrs = Graph.neighbours g v in
      if !cursor < Array.length nbrs then begin
        let w = nbrs.(!cursor) and via = (Graph.slot_edges g v).(!cursor) in
        incr cursor;
        if disc.(w) = -1 then begin
          parent_edge.(w) <- via;
          disc.(w) <- !time;
          low.(w) <- !time;
          incr time;
          if v = root then incr children_of_root;
          Stack.push (w, ref 0) stack
        end
        else if via <> parent_edge.(v) then low.(v) <- min low.(v) disc.(w)
      end
      else begin
        ignore (Stack.pop stack);
        if not (Stack.is_empty stack) then begin
          let p, _ = Stack.top stack in
          low.(p) <- min low.(p) low.(v);
          !on_finish ~child:v ~parent:p
        end
      end
    done
  in
  let run ~finish =
    on_finish := finish;
    Array.fill disc 0 n (-1);
    Array.fill low 0 n max_int;
    Array.fill parent_edge 0 n (-1);
    time := 0;
    let roots = ref [] in
    for v = 0 to n - 1 do
      if disc.(v) = -1 then begin
        let children = ref 0 in
        visit_root v children;
        roots := (v, !children) :: !roots
      end
    done;
    !roots
  in
  ({ disc; low; parent_edge }, run)

let bridges g =
  let state, run = lowlinks g in
  let found = ref [] in
  let finish ~child ~parent =
    if state.low.(child) > state.disc.(parent) then begin
      let u, v = if parent < child then (parent, child) else (child, parent) in
      found := (u, v) :: !found
    end
  in
  let _ = run ~finish in
  List.sort compare !found

let articulation_points g =
  let state, run = lowlinks g in
  let cut = Array.make (Graph.n g) false in
  let finish ~child ~parent =
    if state.low.(child) >= state.disc.(parent) then cut.(parent) <- true
  in
  let roots = run ~finish in
  (* Root rule: a DFS root is an articulation point iff it has >= 2 DFS
     children. The finish rule above may have marked it spuriously. *)
  List.iter (fun (root, children) -> cut.(root) <- children >= 2) roots;
  let out = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if cut.(v) then out := v :: !out
  done;
  !out

let blocks g =
  (* Hopcroft–Tarjan: DFS with an edge stack; when a child's lowlink
     reaches its parent's discovery time, pop the edges of one block. *)
  let n = Graph.n g in
  let disc = Array.make n (-1) in
  let low = Array.make n max_int in
  let parent_edge = Array.make n (-1) in
  let time = ref 0 in
  let edge_stack = Stack.create () in
  let out = ref [] in
  let canon u v = if u < v then (u, v) else (v, u) in
  let pop_block ~until =
    let block = ref [] in
    let continue = ref true in
    while !continue && not (Stack.is_empty edge_stack) do
      let e = Stack.pop edge_stack in
      block := e :: !block;
      if e = until then continue := false
    done;
    out := List.sort compare !block :: !out
  in
  let rec visit v =
    disc.(v) <- !time;
    low.(v) <- !time;
    incr time;
    let edges = Graph.slot_edges g v in
    Array.iteri
      (fun s w ->
        let via = edges.(s) in
        if disc.(w) = -1 then begin
          parent_edge.(w) <- via;
          Stack.push (canon v w) edge_stack;
          visit w;
          low.(v) <- min low.(v) low.(w);
          if low.(w) >= disc.(v) then pop_block ~until:(canon v w)
        end
        else if via <> parent_edge.(v) && disc.(w) < disc.(v) then begin
          (* Back edge, recorded once (towards the ancestor). *)
          Stack.push (canon v w) edge_stack;
          low.(v) <- min low.(v) disc.(w)
        end)
      (Graph.neighbours g v)
  in
  for v = 0 to n - 1 do
    if disc.(v) = -1 then visit v
  done;
  List.sort compare !out

let is_two_edge_connected g =
  Graph.n g >= 2 && is_connected g && bridges g = []

let is_biconnected g =
  Graph.n g >= 3 && is_connected g && articulation_points g = []
