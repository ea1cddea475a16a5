let bfs ?(blocked = fun _ -> false) g ~source ~visit =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Traversal.bfs: source out of range";
  let hops = Array.make n max_int in
  let queue = Queue.create () in
  hops.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    visit v;
    let edges = Graph.slot_edges g v in
    let expand s w =
      if hops.(w) = max_int && not (blocked edges.(s)) then begin
        hops.(w) <- hops.(v) + 1;
        Queue.add w queue
      end
    in
    Array.iteri expand (Graph.neighbours g v)
  done;
  hops

let bfs_hops ?blocked g ~source = bfs ?blocked g ~source ~visit:ignore

let bfs_order ?blocked g ~source =
  let order = ref [] in
  let _ = bfs ?blocked g ~source ~visit:(fun v -> order := v :: !order) in
  List.rev !order

let dfs_preorder g ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Traversal.dfs_preorder";
  let seen = Array.make n false in
  let order = ref [] in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      order := v :: !order;
      Array.iter visit (Graph.neighbours g v)
    end
  in
  visit source;
  List.rev !order

let reachable_set ?blocked g ~source =
  let hops = bfs_hops ?blocked g ~source in
  let set = Pr_util.Bitset.create (Graph.n g) in
  Array.iteri (fun v h -> if h < max_int then Pr_util.Bitset.add set v) hops;
  set
