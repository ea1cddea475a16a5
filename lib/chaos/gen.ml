module Graph = Pr_graph.Graph
module Workload = Pr_sim.Workload
module Rng = Pr_util.Rng

type kind =
  | Srlg
  | Regional
  | Node_crash
  | Cascade
  | Flap_storm
  | Blip
  | Swap_storm
  | Corrupt_storm

(* Later generators are appended last so the shared-rng draw order of the
   earlier ones — and with it every existing seeded campaign — is
   unchanged. *)
let all =
  [ Srlg; Regional; Node_crash; Cascade; Flap_storm; Blip; Swap_storm;
    Corrupt_storm ]

let name = function
  | Srlg -> "srlg"
  | Regional -> "regional"
  | Node_crash -> "crash"
  | Cascade -> "cascade"
  | Flap_storm -> "flap"
  | Blip -> "blip"
  | Swap_storm -> "swap"
  | Corrupt_storm -> "corrupt"

let of_name s =
  match List.find_opt (fun k -> name k = s) all with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown generator %S (expected one of: %s)" s
           (String.concat ", " (List.map name all)))

let canon u v = if u < v then (u, v) else (v, u)

let normalise events =
  let events =
    List.stable_sort
      (fun (a : Workload.link_event) (b : Workload.link_event) ->
        Float.compare a.time b.time)
      events
  in
  let state = Hashtbl.create 16 in
  List.filter
    (fun (e : Workload.link_event) ->
      let key = canon e.u e.v in
      let up_now = Option.value ~default:true (Hashtbl.find_opt state key) in
      if e.up = up_now then false
      else begin
        Hashtbl.replace state key e.up;
        true
      end)
    events

let down_event time (e : Graph.edge) =
  { Workload.time; u = e.u; v = e.v; up = false }

let up_event time (e : Graph.edge) =
  { Workload.time; u = e.u; v = e.v; up = true }

let srlg rng (topo : Pr_topo.Topology.t) ~horizon ?(groups = 3)
    ?mtbf ?mttr () =
  if horizon <= 0.0 then invalid_arg "Gen.srlg: horizon must be positive";
  let mtbf = Option.value ~default:(horizon /. 2.0) mtbf in
  let mttr = Option.value ~default:(horizon /. 10.0) mttr in
  let g = topo.Pr_topo.Topology.graph in
  let m = Graph.m g in
  let idx = Array.init m Fun.id in
  Rng.shuffle rng idx;
  let groups = max 1 (min groups m) in
  let members = Array.make groups [] in
  Array.iteri (fun i e -> members.(i mod groups) <- e :: members.(i mod groups)) idx;
  let events = ref [] in
  Array.iter
    (fun links ->
      let links = List.sort compare links in
      let rec cycle t =
        let down_at = t +. Workload.exponential rng ~mean:mtbf in
        if down_at <= horizon then begin
          List.iter
            (fun i -> events := down_event down_at (Graph.edge g i) :: !events)
            links;
          (* Repair crews restore the group's members one by one. *)
          let latest =
            List.fold_left
              (fun acc i ->
                let up_at = down_at +. Workload.exponential rng ~mean:mttr in
                if up_at <= horizon then
                  events := up_event up_at (Graph.edge g i) :: !events;
                Float.max acc up_at)
              down_at links
          in
          cycle latest
        end
      in
      cycle 0.0)
    members;
  normalise !events

let bbox_diagonal (topo : Pr_topo.Topology.t) =
  let coords = topo.Pr_topo.Topology.coords in
  let xs = Array.map fst coords and ys = Array.map snd coords in
  let spread a =
    Array.fold_left Float.max neg_infinity a
    -. Array.fold_left Float.min infinity a
  in
  let dx = spread xs and dy = spread ys in
  Float.max 1e-9 (Float.hypot dx dy)

let regional rng (topo : Pr_topo.Topology.t) ~horizon ?(outages = 2)
    ?(radius = 0.35) () =
  if horizon <= 0.0 then invalid_arg "Gen.regional: horizon must be positive";
  let g = topo.Pr_topo.Topology.graph in
  let coords = topo.Pr_topo.Topology.coords in
  let reach = radius *. bbox_diagonal topo in
  let events = ref [] in
  for _ = 1 to outages do
    let centre = Rng.int rng (Graph.n g) in
    let cx, cy = coords.(centre) in
    let inside v =
      let x, y = coords.(v) in
      Float.hypot (x -. cx) (y -. cy) <= reach
    in
    let start = Rng.float rng (0.8 *. horizon) in
    let repair = start +. ((0.05 +. Rng.float rng 0.15) *. horizon) in
    Graph.iter_edges
      (fun _ (e : Graph.edge) ->
        if inside e.u || inside e.v then begin
          events := down_event start e :: !events;
          let up_at = repair +. Rng.float rng (0.05 *. horizon) in
          if up_at <= horizon then events := up_event up_at e :: !events
        end)
      g
  done;
  normalise !events

let node_crash rng (topo : Pr_topo.Topology.t) ~horizon ?(crashes = 3)
    ?mttr () =
  if horizon <= 0.0 then invalid_arg "Gen.node_crash: horizon must be positive";
  let mttr = Option.value ~default:(horizon /. 8.0) mttr in
  let g = topo.Pr_topo.Topology.graph in
  let events = ref [] in
  for _ = 1 to crashes do
    let v = Rng.int rng (Graph.n g) in
    let at = Rng.float rng (0.9 *. horizon) in
    let back = at +. Workload.exponential rng ~mean:mttr in
    Array.iter
      (fun w ->
        let e = Graph.edge g (Graph.edge_index g v w) in
        events := down_event at e :: !events;
        if back <= horizon then events := up_event back e :: !events)
      (Graph.neighbours g v)
  done;
  normalise !events

let cascade rng (topo : Pr_topo.Topology.t) ~horizon ?(seeds = 1)
    ?(spread = 0.5) ?(hop_delay = 0.5) ?mttr () =
  if horizon <= 0.0 then invalid_arg "Gen.cascade: horizon must be positive";
  let mttr = Option.value ~default:(horizon /. 5.0) mttr in
  let g = topo.Pr_topo.Topology.graph in
  let events = ref [] in
  for _ = 1 to seeds do
    let seed_edge = Rng.int rng (Graph.m g) in
    let t0 = Rng.float rng (0.5 *. horizon) in
    let visited = Hashtbl.create 16 in
    Hashtbl.replace visited seed_edge ();
    let failed = ref [] in
    (* Breadth-first spread over the line graph: an overloaded link pulls
       down links sharing an endpoint with it. *)
    let queue = Queue.create () in
    Queue.add (seed_edge, t0) queue;
    while not (Queue.is_empty queue) do
      let i, t = Queue.pop queue in
      if t <= horizon then begin
        events := down_event t (Graph.edge g i) :: !events;
        failed := (i, t) :: !failed;
        let e = Graph.edge g i in
        List.iter
          (fun endpoint ->
            Array.iter
              (fun w ->
                let j = Graph.edge_index g endpoint w in
                if not (Hashtbl.mem visited j) && Rng.float rng 1.0 < spread
                then begin
                  Hashtbl.replace visited j ();
                  Queue.add (j, t +. (hop_delay *. (0.5 +. Rng.float rng 1.0))) queue
                end)
              (Graph.neighbours g endpoint))
          [ e.u; e.v ]
      end
    done;
    let settle =
      List.fold_left (fun acc (_, t) -> Float.max acc t) t0 !failed
    in
    List.iter
      (fun (i, _) ->
        let up_at = settle +. Workload.exponential rng ~mean:mttr in
        if up_at <= horizon then events := up_event up_at (Graph.edge g i) :: !events)
      (List.rev !failed)
  done;
  normalise !events

let flap_storm rng (topo : Pr_topo.Topology.t) ~horizon ?(links = 2)
    ?(period = 1.0) ?(duty_down = 0.4) () =
  if horizon <= 0.0 then invalid_arg "Gen.flap_storm: horizon must be positive";
  if period <= 0.0 then invalid_arg "Gen.flap_storm: period must be positive";
  let g = topo.Pr_topo.Topology.graph in
  let links = max 1 (min links (Graph.m g)) in
  let chosen = Rng.sample_without_replacement rng ~k:links ~n:(Graph.m g) in
  let events = ref [] in
  List.iter
    (fun i ->
      let e = Graph.edge g i in
      let offset = Rng.float rng (0.2 *. horizon) in
      let flaps =
        max 1 (int_of_float (Float.round ((0.8 *. horizon) /. period)))
      in
      let storm =
        Workload.flapping_link rng ~u:e.u ~v:e.v ~period ~duty_down ~flaps
      in
      List.iter
        (fun (ev : Workload.link_event) ->
          let time = ev.time +. offset in
          if time <= horizon then events := { ev with time } :: !events)
        storm)
    chosen;
  normalise !events

let blip rng (topo : Pr_topo.Topology.t) ~horizon ?(blips = 4) ?(width = 0.02)
    () =
  if horizon <= 0.0 then invalid_arg "Gen.blip: horizon must be positive";
  if width <= 0.0 then invalid_arg "Gen.blip: width must be positive";
  let g = topo.Pr_topo.Topology.graph in
  let events = ref [] in
  (* Down/up pairs far shorter than any realistic detection delay: a
     perfect-knowledge router reacts to every one, an imperfect detector
     should miss most of them entirely. *)
  for _ = 1 to blips do
    let e = Graph.edge g (Rng.int rng (Graph.m g)) in
    let at = Rng.float rng (0.95 *. horizon) in
    let back = at +. (width *. (0.5 +. Rng.float rng 1.0)) in
    events := down_event at e :: !events;
    if back <= horizon then events := up_event back e :: !events
  done;
  normalise !events

let swap_storm rng (topo : Pr_topo.Topology.t) ~horizon ?(links = 3)
    ?(cycles = 2) ?(dwell = 2.0) () =
  if horizon <= 0.0 then invalid_arg "Gen.swap_storm: horizon must be positive";
  if dwell <= 0.0 then invalid_arg "Gen.swap_storm: dwell must be positive";
  let g = topo.Pr_topo.Topology.graph in
  let links = max 1 (min links (Graph.m g)) in
  let chosen = Rng.sample_without_replacement rng ~k:links ~n:(Graph.m g) in
  let events = ref [] in
  (* Every transition dwells well past a control plane's reconciliation
     delay, so each one matures into a published epoch instead of the
     vacuous (flapped-back) swaps that blips and flap storms produce —
     the maximum-churn workload for the hot-swap path. *)
  List.iter
    (fun i ->
      let e = Graph.edge g i in
      let t = ref (Rng.float rng (0.2 *. horizon)) in
      for _ = 1 to cycles do
        let down_at = !t in
        let up_at = down_at +. dwell +. Rng.float rng dwell in
        if down_at <= horizon then events := down_event down_at e :: !events;
        if up_at <= horizon then events := up_event up_at e :: !events;
        t := up_at +. dwell +. Rng.float rng dwell
      done)
    chosen;
  normalise !events

(* ---- corruption storms ----

   Unlike every generator above, a corruption storm does not damage
   links — it damages {e state}: bytes in flight (the encoded
   [1 + dd_bits] header field), cells of a compiled FIB image, reads
   against a superseded epoch, and the control plane's own process
   (crash points between apply and publish).  So its output is a list of
   corruption descriptors, not link events, and the corruption campaign
   ({!Corrupt}) — not the timed simulator — executes them. *)

type corruption =
  | Flip_field of { src : int; dst : int; field : int }
      (* bit-damaged encoded header field, decoded by both backends *)
  | Raw_header of { src : int; dst : int; dd : float }
      (* in-flight PR-marked header with a raw, possibly impossible DD *)
  | Claim_from of { src : int; dst : int; from_ : int }
      (* claimed previous hop, possibly not a neighbour of [src] *)
  | Cell_damage of { table : string; slot : int; value : int }
      (* one damaged cell of a scratch FIB image (compiled backend) *)
  | Stale_read of { src : int; dst : int }
      (* forward on a pinned superseded epoch *)
  | Crash_point of { after_batch : int }
      (* kill the control plane between Delta apply and Swap publish *)

let corruption_name = function
  | Flip_field _ -> "flip-field"
  | Raw_header _ -> "raw-header"
  | Claim_from _ -> "claim-from"
  | Cell_damage _ -> "cell-damage"
  | Stale_read _ -> "stale-read"
  | Crash_point _ -> "crash-point"

let describe_corruption = function
  | Flip_field { src; dst; field } ->
      Printf.sprintf "flip-field %d -> %d field %d" src dst field
  | Raw_header { src; dst; dd } ->
      Printf.sprintf "raw-header %d -> %d dd %h" src dst dd
  | Claim_from { src; dst; from_ } ->
      Printf.sprintf "claim-from %d -> %d from %d" src dst from_
  | Cell_damage { table; slot; value } ->
      Printf.sprintf "cell-damage %s[%d] <- %d" table slot value
  | Stale_read { src; dst } -> Printf.sprintf "stale-read %d -> %d" src dst
  | Crash_point { after_batch } ->
      Printf.sprintf "crash-point after batch %d" after_batch

(* The kernel's index-bearing tables, by the names {!Corrupt} resolves. *)
let damage_tables = [| "port_node"; "twin"; "next_hop_port"; "cycle_col" |]

let corrupt_storm rng (topo : Pr_topo.Topology.t) ?(events = 64) () =
  let n = Graph.n topo.Pr_topo.Topology.graph in
  if n < 2 then invalid_arg "Gen.corrupt_storm: need at least two nodes";
  let pair () =
    let src = Rng.int rng n in
    (src, (src + 1 + Rng.int rng (n - 1)) mod n)
  in
  List.init events (fun _ ->
      match Rng.int rng 6 with
      | 0 ->
          let src, dst = pair () in
          (* Low fields decode (possibly to a PR-marked header with junk
             DD bits); high and negative ones must come back as the
             bad-field fault, never an exception. *)
          let field =
            let raw = Rng.int rng (1 lsl 16) in
            if Rng.int rng 4 = 0 then -raw - 1 else raw
          in
          Flip_field { src; dst; field }
      | 1 ->
          let src, dst = pair () in
          let dd =
            match Rng.int rng 5 with
            | 0 -> Float.nan
            | 1 -> Float.infinity
            | 2 -> -1.0 -. Rng.float rng 100.0
            | 3 -> 1e9 +. Rng.float rng 1e9
            | _ -> Rng.float rng 8.0
          in
          Raw_header { src; dst; dd }
      | 2 ->
          let src, dst = pair () in
          Claim_from { src; dst; from_ = Rng.int rng (n + 2) - 1 }
      | 3 ->
          let table =
            damage_tables.(Rng.int rng (Array.length damage_tables))
          in
          let value =
            match Rng.int rng 4 with
            | 0 -> -2
            | 1 -> max_int / 2
            | 2 -> n + Rng.int rng (8 * n)
            | _ -> Rng.int rng (2 * n)
          in
          Cell_damage { table; slot = Rng.int rng 1_000_000; value }
      | 4 ->
          let src, dst = pair () in
          Stale_read { src; dst }
      | _ -> Crash_point { after_batch = Rng.int rng 6 })

let generate rng topo ~horizon ~mix =
  let events =
    List.concat_map
      (fun kind ->
        match kind with
        | Srlg -> srlg rng topo ~horizon ()
        | Regional -> regional rng topo ~horizon ()
        | Node_crash -> node_crash rng topo ~horizon ()
        | Cascade -> cascade rng topo ~horizon ()
        | Flap_storm -> flap_storm rng topo ~horizon ()
        | Blip -> blip rng topo ~horizon ()
        | Swap_storm -> swap_storm rng topo ~horizon ()
        (* Corruption is not a link-event stream; {!corrupt_storm} feeds
           the corruption campaign instead. *)
        | Corrupt_storm -> [])
      mix
  in
  normalise events
