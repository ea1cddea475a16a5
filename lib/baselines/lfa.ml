module Graph = Pr_graph.Graph
module Routing = Pr_core.Routing

type alternates = { primary : int; alternate : int option }

let alternates_for routing ~node ~dst =
  match Routing.next_hop routing ~node ~dst with
  | None -> None
  | Some primary ->
      let g = Routing.graph routing in
      let dist v = Routing.distance routing ~node:v ~dst in
      let dist_to_node w = Graph.weight g node w in
      let loop_free w =
        (* RFC 5286 basic inequality: D(w,d) < D(w,x) + D(x,d).  With
           symmetric weights D(w,x) is the link cost for a neighbour. *)
        w <> primary && dist w < dist_to_node w +. dist node
      in
      let best =
        Array.fold_left
          (fun acc w ->
            if loop_free w then
              match acc with
              | Some best when dist_to_node best +. dist best <= dist_to_node w +. dist w ->
                  acc
              | _ -> Some w
            else acc)
          None (Graph.neighbours g node)
      in
      Some { primary; alternate = best }

let coverage routing =
  let g = Routing.graph routing in
  let n = Graph.n g in
  let covered = ref 0 and total = ref 0 in
  for node = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if node <> dst then begin
        match alternates_for routing ~node ~dst with
        | None -> ()
        | Some { alternate; _ } ->
            incr total;
            if alternate <> None then incr covered
      end
    done
  done;
  if !total = 0 then 0.0 else float_of_int !covered /. float_of_int !total

type outcome = Delivered | Dropped | Ttl_exceeded

type trace = { outcome : outcome; path : int list }

let run ?ttl routing ~failures ~src ~dst () =
  let g = Routing.graph routing in
  let n = Graph.n g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Lfa.run: node out of range";
  if src = dst then invalid_arg "Lfa.run: src = dst";
  let ttl = match ttl with Some t -> t | None -> (4 * n) + 16 in
  if ttl < 0 then invalid_arg (Printf.sprintf "Lfa.run: negative TTL %d" ttl);
  let rec step x ~ttl acc =
    if x = dst then { outcome = Delivered; path = List.rev acc }
    else if ttl = 0 then { outcome = Ttl_exceeded; path = List.rev acc }
    else begin
      match alternates_for routing ~node:x ~dst with
      | None -> { outcome = Dropped; path = List.rev acc }
      | Some { primary; alternate } ->
          if Pr_core.Failure.link_up failures x primary then
            step primary ~ttl:(ttl - 1) (primary :: acc)
          else begin
            match alternate with
            | Some w when Pr_core.Failure.link_up failures x w ->
                step w ~ttl:(ttl - 1) (w :: acc)
            | Some _ | None -> { outcome = Dropped; path = List.rev acc }
          end
    end
  in
  step src ~ttl [ src ]

let stretch ~routing ~trace ~src ~dst =
  match trace.outcome with
  | Delivered ->
      Pr_graph.Paths.cost (Routing.graph routing) trace.path
      /. Routing.distance routing ~node:src ~dst
  | Dropped | Ttl_exceeded -> infinity
