type tree = {
  root : int;
  dist : float array;
  parent : int array;
  hops : int array;
}

(* The queue is an indexed binary min-heap over flat arrays: [heap] holds
   the queued nodes, ordered by their [key], and [pos] every node's slot
   in it, or one of the two states below.  Both arrays are scratch, shared
   by every root of one [all_roots] or [spf]. *)
let unseen = -1

let settled = -2

(* Move the node at heap slot [i] up to its place. *)
let sift_up heap pos (key : float array) i =
  let v = heap.(i) in
  let kv = key.(v) in
  let i = ref i in
  while
    !i > 0
    &&
    let u = heap.((!i - 1) / 2) in
    kv < key.(u)
  do
    let p = (!i - 1) / 2 in
    let u = heap.(p) in
    heap.(!i) <- u;
    pos.(u) <- !i;
    i := p
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

(* Move the node at heap slot [i] down to its place in a heap of [size]. *)
let sift_down heap pos (key : float array) size i =
  let v = heap.(i) in
  let kv = key.(v) in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= size then sinking := false
    else begin
      let c =
        if l + 1 < size && key.(heap.(l + 1)) < key.(heap.(l)) then l + 1 else l
      in
      let u = heap.(c) in
      if key.(u) < kv then begin
        heap.(!i) <- u;
        pos.(u) <- !i;
        i := c
      end
      else sinking := false
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let push heap pos key size v =
  heap.(size) <- v;
  sift_up heap pos key size;
  size + 1

let decrease heap pos key v = sift_up heap pos key pos.(v)

let pop heap pos key size =
  let v = heap.(0) in
  pos.(v) <- settled;
  let size = size - 1 in
  if size > 0 then begin
    heap.(0) <- heap.(size);
    sift_down heap pos key size 0
  end;
  v

(* Solve [t.root] into [t]'s arrays, which must read (infinity, -1,
   max_int) at every node, with [heap] and [pos] as the queue. *)
let solve blocked g heap pos t =
  let n = Graph.n g and { root; dist; parent; hops } = t in
  if root < 0 || root >= n then invalid_arg "Dijkstra.tree: root out of range";
  Array.fill pos 0 n unseen;
  dist.(root) <- 0.0;
  parent.(root) <- root;
  hops.(root) <- 0;
  let size = ref (push heap pos dist 0 root) in
  while !size > 0 do
    let v = pop heap pos dist !size in
    decr size;
    let dv = dist.(v) and hv = hops.(v) + 1 in
    let nbrs = Graph.neighbours g v in
    let weights = Graph.slot_weights g v and edges = Graph.slot_edges g v in
    for s = 0 to Array.length nbrs - 1 do
      let w = nbrs.(s) in
      let at = pos.(w) in
      if at <> settled
         && match blocked with None -> true | Some b -> not (b edges.(s))
      then begin
        let c = dv +. weights.(s) in
        if c < dist.(w) then begin
          dist.(w) <- c;
          parent.(w) <- v;
          hops.(w) <- hv;
          if at = unseen then size := push heap pos dist !size w
          else sift_up heap pos dist at
        end
        else if c = dist.(w) && v < parent.(w) then begin
          (* Deterministic tie-break: among equal-cost predecessors pick
             the smallest id.  When no weight is lost to rounding in a
             path sum, every one of them settles before [w], so the choice
             does not depend on the pop order; the heap needs no update. *)
          parent.(w) <- v;
          hops.(w) <- hv
        end
      end
    done
  done

let queue n = (Array.make n 0, Array.make n unseen)

let fresh n root =
  {
    root;
    dist = Array.make n infinity;
    parent = Array.make n (-1);
    hops = Array.make n max_int;
  }

let tree ?blocked g ~root =
  let n = Graph.n g in
  let heap, pos = queue n and t = fresh n root in
  solve blocked g heap pos t;
  t

let all_roots ?blocked g =
  let n = Graph.n g in
  let heap, pos = queue n in
  Array.init n (fun root ->
      let t = fresh n root in
      solve blocked g heap pos t;
      t)

let spf g =
  let n = Graph.n g in
  let heap, pos = queue n in
  fun root ->
    let t = fresh n root in
    solve None g heap pos t;
    t

let reachable t v = t.dist.(v) < infinity

let next_hop t v =
  if v = t.root || not (reachable t v) then None else Some t.parent.(v)

let distance t v = t.dist.(v)

let hop_count t v = t.hops.(v)

let path_to_root t v =
  if not (reachable t v) then None
  else begin
    let rec walk v acc =
      if v = t.root then List.rev (v :: acc) else walk t.parent.(v) (v :: acc)
    in
    Some (walk v [])
  end

let diameter_fold f init g =
  let trees = all_roots g in
  Array.fold_left
    (fun acc t ->
      let acc = ref acc in
      for v = 0 to Graph.n g - 1 do
        if reachable t v then acc := f !acc t v
      done;
      !acc)
    init trees

let diameter_hops g = diameter_fold (fun acc t v -> max acc t.hops.(v)) 0 g

let diameter_weight g = diameter_fold (fun acc t v -> Float.max acc t.dist.(v)) 0.0 g
