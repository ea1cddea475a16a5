module Graph = Pr_graph.Graph
module Dijkstra = Pr_graph.Dijkstra

type t = {
  g : Graph.t;
  config_of_edge : int array;          (* edge index -> configuration (1-based) *)
  trees : Dijkstra.tree array array;   (* configuration -> per-destination trees;
                                          index 0 = normal routing *)
}

let build ?(max_configurations = 8) g =
  if not (Pr_graph.Connectivity.is_two_edge_connected g) then None
  else begin
    let m = Graph.m g in
    let config_of_edge = Array.make m 0 in
    (* Greedy: put each link into the first configuration whose isolated
       set still leaves the graph connected after adding it. *)
    let members = Array.make (max_configurations + 1) [] in
    let fits c i =
      Pr_graph.Connectivity.connected_without g
        (List.map
           (fun j ->
             let e = Graph.edge g j in
             (e.Graph.u, e.Graph.v))
           (i :: members.(c)))
    in
    let ok = ref true in
    for i = 0 to m - 1 do
      if !ok then begin
        let rec place c =
          if c > max_configurations then false
          else if fits c i then begin
            members.(c) <- i :: members.(c);
            config_of_edge.(i) <- c;
            true
          end
          else place (c + 1)
        in
        if not (place 1) then ok := false
      end
    done;
    if not !ok then None
    else begin
      let used =
        Array.fold_left (fun acc c -> max acc c) 0 config_of_edge
      in
      let trees =
        Array.init (used + 1) (fun c ->
            let blocked i = c > 0 && config_of_edge.(i) = c in
            Dijkstra.all_roots ~blocked g)
      in
      Some { g; config_of_edge; trees }
    end
  end

let configurations t = Array.length t.trees - 1

let isolating_configuration t u v = t.config_of_edge.(Graph.edge_index t.g u v)

let header_bits t =
  let states = configurations t + 1 in
  let rec bits b capacity = if capacity >= states then b else bits (b + 1) (2 * capacity) in
  bits 0 1

type outcome = Delivered | Dropped | Ttl_exceeded

type trace = { outcome : outcome; path : int list; switched_to : int option }

let run ?ttl t ~failures ~src ~dst () =
  let n = Graph.n t.g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Mrc.run: node out of range";
  if src = dst then invalid_arg "Mrc.run: src = dst";
  let ttl = match ttl with Some v -> v | None -> (4 * n) + 16 in
  if ttl < 0 then invalid_arg (Printf.sprintf "Mrc.run: negative TTL %d" ttl);
  let rec walk x config ~ttl acc =
    if x = dst then
      {
        outcome = Delivered;
        path = List.rev acc;
        switched_to = (if config = 0 then None else Some config);
      }
    else if ttl = 0 then
      { outcome = Ttl_exceeded; path = List.rev acc; switched_to = Some config }
    else begin
      match Dijkstra.next_hop t.trees.(config).(dst) x with
      | None -> { outcome = Dropped; path = List.rev acc; switched_to = Some config }
      | Some w ->
          if Pr_core.Failure.link_up failures x w then
            walk w config ~ttl:(ttl - 1) (w :: acc)
          else if config = 0 then
            (* First failure: switch to the configuration isolating it. *)
            walk x (isolating_configuration t x w) ~ttl:(ttl - 1) acc
          else
            (* Second distinct failure: not covered. *)
            { outcome = Dropped; path = List.rev acc; switched_to = Some config }
    end
  in
  walk src 0 ~ttl [ src ]

let stretch ~routing ~trace ~src ~dst =
  match trace.outcome with
  | Delivered ->
      Pr_graph.Paths.cost (Pr_core.Routing.graph routing) trace.path
      /. Pr_core.Routing.distance routing ~node:src ~dst
  | Dropped | Ttl_exceeded -> infinity
