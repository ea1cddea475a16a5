(* Workload definitions and their input generators.

   Each workload is one network instance plus the traffic and the
   control-plane edits run over it.  The network and the edit script are
   fixed per workload: Géant is a real map, and the synthetic graphs are
   drawn once from a constant seed, so per-router state, set-up cost and
   edit cost measure the same instance on every run.  [--seed] draws the
   traffic: the failure scenarios (or, where every link fails in turn,
   their order), the injected pairs, and the order of both.  The program
   under test only ever receives the generated items.

   Every call of a pool carries a fixed number of packets whatever the
   seed, so the heap the inputs occupy, and the work one round does, do
   not move with the seed. *)

module Rng = Pr_util.Rng
module Graph = Pr_graph.Graph
module Topology = Pr_topo.Topology
module Generate = Pr_topo.Generate
module Failure = Pr_core.Failure
module Routing = Pr_core.Routing
module Parallel = Pr_fastpath.Parallel
module Fib = Pr_fastpath.Fib

type call = Parallel.item array
type embedding = Recommend | Geometric

type t = {
  name : string;
  why : string;
  topology : unit -> Topology.t;
  embedding : embedding;
  builds_per_round : int;  (** timed set-ups per round; [setup_s] is their median *)
  min_rounds : int;  (** rounds run even when the measured time is over *)
  pool : Rng.t -> Routing.t -> call array;
      (** the forwarding calls; every round runs each of them once *)
  script_links : int;  (** links in the edit script, each taken Down then Up *)
  calls_per_edit : int;
      (** pool calls forwarded on the freshly published image after each
          edit; the calls left over run on the base image after the edits *)
  shared_calls : int;  (** pool calls merged into the traced run's fixed leg *)
}

(* The synthetic instances and the edit scripts are drawn from this seed,
   never from [--seed]. *)
let instance_seed = 1

let ordered_pairs n =
  Array.init (n * (n - 1)) (fun k ->
      let src = k / (n - 1) and r = k mod (n - 1) in
      (src, if r < src then r else r + 1))

let failure_of_links g links =
  Failure.of_list g
    (List.map
       (fun i ->
         let e = Graph.edge g i in
         (e.Graph.u, e.Graph.v))
       links)

(* Component label of every node once the scenario's links are down. *)
let components failures =
  let g = Failure.graph failures in
  let label = Array.make (Graph.n g) (-1) in
  for root = 0 to Graph.n g - 1 do
    if label.(root) < 0 then begin
      label.(root) <- root;
      let stack = Stack.create () in
      Stack.push root stack;
      while not (Stack.is_empty stack) do
        let x = Stack.pop stack in
        Array.iter
          (fun w ->
            if label.(w) < 0 && Failure.link_up failures x w then begin
              label.(w) <- root;
              Stack.push w stack
            end)
          (Graph.neighbours g x)
      done
    end
  done;
  label

(* Every single-link failure against every ordered pair: the paper's
   sweep.  Each call is the whole sweep in its own seeded order; most
   packets never meet the failure. *)
let sweep ~calls rng routing =
  let g = Routing.graph routing in
  Array.init calls (fun _ ->
      let pairs = ordered_pairs (Graph.n g) in
      Rng.shuffle rng pairs;
      let order = Array.init (Graph.m g) Fun.id in
      Rng.shuffle rng order;
      Array.map (fun i -> { Parallel.failures = failure_of_links g [ i ]; pairs }) order)

(* Scenarios of 1-3 simultaneous link failures, each injecting only the
   pairs whose primary path crosses a failed link and that stay connected:
   every packet enters PR mode.  Scenarios fill a call up to exactly
   [packets] packets; the last one is cut short. *)
let recycle ~calls ~packets rng routing =
  let g = Routing.graph routing in
  let m = Graph.m g in
  let pairs = ordered_pairs (Graph.n g) in
  let users = Array.make m [] in
  Array.iteri
    (fun k (src, dst) ->
      match Routing.shortest_path routing ~src ~dst with
      | None -> ()
      | Some path ->
          let rec hops = function
            | a :: (b :: _ as rest) ->
                let e = Graph.edge_index g a b in
                users.(e) <- k :: users.(e);
                hops rest
            | _ -> ()
          in
          hops path)
    pairs;
  let scenario () =
    let failed = Rng.sample_without_replacement rng ~k:(1 + Rng.int rng 3) ~n:m in
    let failures = failure_of_links g failed in
    let label = components failures in
    let cut = List.sort_uniq compare (List.concat_map (fun i -> users.(i)) failed) in
    ( failures,
      List.filter_map
        (fun k ->
          let ((src, dst) as p) = pairs.(k) in
          if label.(src) = label.(dst) then Some p else None)
        cut )
  in
  Array.init calls (fun _ ->
      let rec fill left acc =
        if left = 0 then Array.of_list (List.rev acc)
        else
          match scenario () with
          | _, [] -> fill left acc
          | failures, cut ->
              let pairs = Array.of_list (List.filteri (fun i _ -> i < left) cut) in
              fill (left - Array.length pairs) ({ Parallel.failures; pairs } :: acc)
      in
      fill packets [])

(* [k] ordered pairs whose primary path crosses link [e]: pick a
   direction u -> v of the link, a destination d that u reaches through v,
   and a source among the nodes whose path to d runs through u. *)
let crossing ~k rng routing e =
  let nodes = List.init (Graph.n (Routing.graph routing)) Fun.id in
  let { Graph.u = a; v = b; _ } = Graph.edge (Routing.graph routing) e in
  let next x d = Routing.next_hop routing ~node:x ~dst:d in
  List.init k (fun _ ->
      let u, v = if Rng.bool rng then (a, b) else (b, a) in
      match List.filter (fun d -> next u d = Some v) nodes with
      | [] -> None
      | dsts ->
          let d = Rng.pick rng (Array.of_list dsts) in
          let rec through x =
            x = u || (x <> d && match next x d with Some y -> through y | None -> false)
          in
          Some (Rng.pick rng (Array.of_list (List.filter through nodes)), d))
  |> List.filter_map Fun.id

(* Single-link failures over a seeded permutation of the links, [links] to
   a call.  Each carries [pairs] ordered pairs: [cut] of them cross the
   failed link, the rest are random.  With [calls] large enough every link
   fails once per round, so which links fail does not depend on the seed;
   the crossing pairs make recycling, and the loops of the non-planar
   embeddings, frequent enough that their counts are steady from seed to
   seed. *)
let spread ~calls ~links ~pairs ~cut rng routing =
  let g = Routing.graph routing in
  let n = Graph.n g and m = Graph.m g in
  let order = Array.init m Fun.id in
  Rng.shuffle rng order;
  let calls = min calls ((m + links - 1) / links) in
  Array.init calls (fun c ->
      Array.init
        (min links (m - (c * links)))
        (fun j ->
          let e = order.((c * links) + j) in
          let cut = Array.of_list (crossing ~k:cut rng routing e) in
          let random =
            Array.init (pairs - Array.length cut) (fun _ ->
                let src = Rng.int rng n in
                (src, (src + 1 + Rng.int rng (n - 1)) mod n))
          in
          { Parallel.failures = failure_of_links g [ e ]; pairs = Array.append cut random }))

(* [links] distinct links of the instance, each taken administratively
   Down and then Up again, so a pass of the script ends where it began. *)
let edit_script g ~links =
  let rng = Rng.create ~seed:instance_seed in
  Rng.sample_without_replacement rng ~k:(min links (Graph.m g)) ~n:(Graph.m g)
  |> List.concat_map (fun i ->
         let e = Graph.edge g i in
         Fib.Delta.
           [ { u = e.Graph.u; v = e.Graph.v; change = Down };
             { u = e.Graph.u; v = e.Graph.v; change = Up } ])

let barabasi_albert n () =
  Generate.barabasi_albert (Rng.create ~seed:instance_seed) ~n ~k:3

(* Degree-stabilised as in the scale campaign: alpha 0.05 scaled by 1000/n
   keeps the mean degree flat across sizes (alpha 0.1 at n = 500). *)
let waxman n () =
  let alpha = Float.min 1.0 (0.05 *. 1000.0 /. float_of_int n) in
  Generate.waxman (Rng.create ~seed:instance_seed) ~n ~alpha ~beta:0.15

(* Round sizes: a Géant round takes ~0.1-0.4 s, so the ~10 s of a run
   hold dozens of rounds; a round of the synthetic graphs takes seconds
   (one set-up is ~1.7 s on BA, one recompile ~1.2 s), so [min_rounds]
   sets their length.  Every timing is a median over rounds, which keeps
   second-long slowdowns of a shared machine out of the figures. *)
let all ~smoke =
  let s full small = if smoke then small else full in
  [
    {
      name = "geant-steady";
      why =
        "Geant, every single-link failure against every pair: the \
         fault-free fast path of a genus-0 map, where no packet may be lost";
      topology = Pr_topo.Geant.topology;
      embedding = Recommend;
      builds_per_round = s 8 1;
      min_rounds = s 3 1;
      pool = sweep ~calls:(s 100 2);
      script_links = s 5 2;
      calls_per_edit = 0;
      shared_calls = s 10 1;
    };
    {
      name = "geant-recycle";
      why =
        "Geant, 1-3 simultaneous failures injecting only the pairs they cut: \
         every packet recycles, and small calls expose per-call cost";
      topology = Pr_topo.Geant.topology;
      embedding = Recommend;
      builds_per_round = s 8 1;
      min_rounds = s 3 1;
      pool = recycle ~calls:(s 200 4) ~packets:(s 2500 200);
      script_links = s 5 2;
      calls_per_edit = 0;
      shared_calls = s 100 2;
    };
    {
      name = "ba-scale";
      why =
        "Barabasi-Albert n=1000 with the geometric embedding: control-plane \
         cost at 1k nodes, large images, non-planar loops";
      topology = barabasi_albert (s 1000 100);
      embedding = Geometric;
      builds_per_round = 1;
      min_rounds = s 5 1;
      pool = spread ~calls:(s 300 4) ~links:10 ~pairs:(s 200 20) ~cut:2;
      script_links = 1;
      calls_per_edit = 0;
      shared_calls = s 50 2;
    };
    {
      name = "waxman-churn";
      why =
        "Waxman n=500: link edits recompiled and published while forwarding \
         runs on the current image; retained images show in heap";
      topology = waxman (s 500 60);
      embedding = Geometric;
      builds_per_round = 1;
      min_rounds = s 4 1;
      pool = spread ~calls:(s 100 4) ~links:(s 21 10) ~pairs:(s 100 20) ~cut:4;
      script_links = s 5 2;
      calls_per_edit = s 10 1;
      shared_calls = s 50 2;
    };
  ]
