module Rotation = Pr_embed.Rotation

type entry = { incoming : int; cycle_following : int; complementary : int }

type t = { rot : Rotation.t }

let build rot = { rot }

let rotation t = t.rot

let graph t = Rotation.graph t.rot

let cycle_next t ~node ~from_ = Rotation.next t.rot node from_

(* One rotation lookup, as in {!cycle_next}, on every cycle-following hop
   of the reference walk.  [Rotation.next] rejects a non-neighbour; an
   out-of-range [from_] could alias another node's entry. *)
let cycle_next_opt t ~node ~from_ =
  if from_ < 0 || from_ >= Pr_graph.Graph.n (graph t) then None
  else
    match Rotation.next t.rot node from_ with
    | w -> Some w
    | exception Invalid_argument _ -> None

let complement_for_failed t ~node ~failed = Rotation.next t.rot node failed

let entries t node =
  Rotation.order t.rot node
  |> Array.to_list
  |> List.map (fun incoming ->
         let cycle_following = cycle_next t ~node ~from_:incoming in
         {
           incoming;
           cycle_following;
           complementary = cycle_next t ~node ~from_:cycle_following;
         })

let memory_entries t = 2 * Pr_graph.Graph.m (graph t)
