module Graph = Pr_graph.Graph
module Forward = Pr_core.Forward

type config = {
  topology : Pr_topo.Topology.t;
  rotation : Pr_embed.Rotation.t;
  termination : Pr_core.Forward.termination;
  latency : float;
  ttl : int;
  detection : Detector.config option;
  control : Engine.control option;
}

let default_config (topology : Pr_topo.Topology.t) rotation =
  {
    topology;
    rotation;
    termination = Pr_core.Forward.Distance_discriminator;
    latency = 0.1;
    ttl = Forward.default_ttl topology.graph;
    detection = None;
    control = None;
  }

type packet = {
  id : int;
  src : int;
  dst : int;
  at : int;
  arrived_from : int option;
  header : Forward.hop_header;
  hops : int;
  cost : float;
  episodes : int;         (** PR episodes started so far — probe depth *)
  was_deliverable : bool; (** dst reachable at injection time *)
}

type event =
  | Link of Workload.link_event
  | Arrive of packet
  | Swap of { u : int; v : int }

type outcome = {
  metrics : Metrics.t;
  finished_at : float;
  max_hops : int;
  epochs : int;
}

type hop = {
  id : int;
  time : float;
  node : int;
  src : int;
  dst : int;
  arrived_from : int option;
  header : Pr_core.Forward.hop_header;
  sent : (int * Pr_core.Forward.hop_header) option;
  ttl_exceeded : bool;
}

type observer = {
  on_link : time:float -> u:int -> v:int -> up:bool -> changed:bool -> unit;
  on_hop : net:Netstate.t -> hop -> unit;
}

let run ?observer ?probe ?linkload ?series config ~link_events ~injections =
  let g = config.topology.Pr_topo.Topology.graph in
  (match Engine.validate_workload g ~link_events ~injections with
  | Ok () -> ()
  | Error e -> invalid_arg ("Timed.run: " ^ Engine.describe_workload_error e));
  let routing = Pr_core.Routing.build g in
  let cycles = Pr_core.Cycle_table.build config.rotation in
  let net = Netstate.create g in
  let det = Option.map (fun c -> Detector.create c g) config.detection in
  (* The live control plane (no compiled backend here: a reconciliation
     is one [Routing.build_blocked] rebuild).  With [control = None] the
     admin plane stays all-live, [cur_routing] stays the base tables and
     every mask below is the identity — seed behaviour. *)
  let admin = Array.make (Graph.m g) true in
  let admin_link_up u v = admin.(Graph.edge_index g u v) in
  let cur_routing = ref routing in
  let admin_failures = ref None in
  let epochs = ref 0 in
  let effective_failures () =
    match !admin_failures with
    | None -> Netstate.failures net
    | Some af -> Pr_core.Failure.combine (Netstate.failures net) af
  in
  let effective_up x w = Netstate.is_up net x w && admin_link_up x w in
  (* DD bit budget is a function of the full graph and never shrinks. *)
  let dd_bits = Pr_core.Routing.dd_bits routing in
  let metrics = Metrics.create () in
  let queue = Event.create () in
  let finished_at = ref 0.0 in
  let max_hops = ref 0 in
  List.iter
    (fun (e : Workload.link_event) -> Event.schedule queue ~time:e.time (Link e))
    link_events;
  List.iteri
    (fun id ({ time; src; dst } : Workload.injection) ->
      Event.schedule queue ~time
        (Arrive
           {
             id;
             src;
             dst;
             at = src;
             arrived_from = None;
             header = Forward.fresh_header;
             hops = 0;
             cost = 0.0;
             episodes = 0;
             was_deliverable = true (* fixed up at processing time *);
           }))
    injections;
  (* Hops happen at their own times here, so load is recorded straight
     into the run table and the hop-time window — no per-packet scratch
     (the engine's frozen-snapshot shortcut does not apply). *)
  let record_hop_load time ~node ~next ~cls =
    (match linkload with
    | None -> ()
    | Some ll -> Pr_obs.Linkload.record_next ll ~node ~next ~cls);
    match series with
    | None -> ()
    | Some se ->
        Pr_obs.Linkload.record_next (Pr_obs.Series.load_at se ~time) ~node
          ~next ~cls
  in
  let series_verdict time v =
    match series with
    | None -> ()
    | Some se -> Pr_obs.Series.record_verdict se ~time v
  in
  (* The probe takes a finished packet's hops and re-cycle depth, and a
     delivery's stretch; [metrics] keeps the verdicts.  As in the
     untimed engine, a packet charged to [unreachable] reaches no
     probe. *)
  let probe_finish (p : packet) ~verdict =
    match (probe, verdict) with
    | None, _ -> ()
    | Some pr, `Delivered stretch ->
        Pr_telemetry.Probe.record_delivery pr ~stretch ~hops:p.hops
          ~depth:p.episodes
    | Some pr, `Lost ->
        Pr_telemetry.Probe.record_drop pr ~hops:p.hops ~depth:p.episodes
  in
  let observe_hop time (p : packet) ~sent ~ttl_exceeded =
    match observer with
    | None -> ()
    | Some o ->
        o.on_hop ~net
          {
            id = p.id;
            time;
            node = p.at;
            src = p.src;
            dst = p.dst;
            arrived_from = p.arrived_from;
            header = p.header;
            sent;
            ttl_exceeded;
          }
  in
  let account_lost ?reason (p : packet) ~looped ~time =
    (* A packet that could never have been delivered is charged to
       [unreachable]; a deliverable one that died is a protocol loss.
       The series mirrors the same ordering. *)
    if not p.was_deliverable then begin
      Metrics.record_unreachable metrics;
      series_verdict time `Unreachable
    end
    else if looped then begin
      Metrics.record_loop metrics;
      probe_finish p ~verdict:`Lost;
      series_verdict time `Looped
    end
    else begin
      Metrics.record_drop ?reason metrics;
      probe_finish p ~verdict:`Lost;
      series_verdict time `Dropped
    end
  in
  let handle_arrival time (p : packet) =
    let p =
      if p.hops = 0 then
        {
          p with
          was_deliverable =
            Pr_core.Failure.pair_connected (effective_failures ()) p.src p.dst;
        }
      else p
    in
    if p.at = p.dst then begin
      if p.hops > !max_hops then max_hops := p.hops;
      let stretch =
        p.cost /. Pr_core.Routing.distance !cur_routing ~node:p.src ~dst:p.dst
      in
      Metrics.record_delivery metrics ~stretch;
      probe_finish p ~verdict:(`Delivered stretch);
      series_verdict time `Delivered;
      observe_hop time p ~sent:None ~ttl_exceeded:false
    end
    else if p.hops >= config.ttl then begin
      account_lost p ~looped:true ~time;
      observe_hop time p ~sent:None ~ttl_exceeded:true
    end
    else begin
      let send next header ~started =
        observe_hop time p ~sent:(Some (next, header)) ~ttl_exceeded:false;
        Event.schedule queue ~time:(time +. config.latency)
          (Arrive
             {
               p with
               at = next;
               arrived_from = Some p.at;
               header;
               hops = p.hops + 1;
               cost = p.cost +. Graph.weight g p.at next;
               episodes = (p.episodes + if started then 1 else 0);
             })
      in
      match det with
      | None -> (
          match
            Forward.step ~termination:config.termination ~routing:!cur_routing
              ~cycles ~failures:(effective_failures ()) ~dst:p.dst ~node:p.at
              ~arrived_from:p.arrived_from ~header:p.header ()
          with
          | Forward.Stuck _ ->
              account_lost p ~looped:false ~time;
              observe_hop time p ~sent:None ~ttl_exceeded:false
          | Forward.Transmit { next; header; episode_started; _ } ->
              (* Strict [step] never takes a ladder rung: the header on
                 the wire classes the hop. *)
              record_hop_load time ~node:p.at ~next
                ~cls:
                  (if header.Forward.pr_bit then Pr_obs.Linkload.cls_recycled
                   else Pr_obs.Linkload.cls_shortest);
              send next header ~started:episode_started)
      | Some d -> (
          (* The router decides on its own beliefs at arrival time; a
             packet sent into a link wrongly believed up dies on the
             wire. *)
          match
            Forward.ladder_step ~termination:config.termination ~dd_bits
              ~hops_left:(config.ttl - p.hops)
              ~budget_guard:(Detector.config d).Detector.budget_guard
              ~routing:!cur_routing ~cycles
              ~link_up:(fun w ->
                Detector.local_view d ~now:time ~node:p.at w
                && admin_link_up p.at w)
              ~dst:p.dst ~node:p.at ~arrived_from:p.arrived_from
              ~header:p.header ()
          with
          | Forward.Degraded_drop { reason; degradations; _ } ->
              Metrics.record_degradations metrics degradations;
              account_lost p ~looped:false ~time
                ~reason:(Metrics.reason_of_forward reason);
              observe_hop time p ~sent:None ~ttl_exceeded:false
          | Forward.Forwarded { next; header; episode_started; degradations; _ }
            ->
              Metrics.record_degradations metrics degradations;
              (* Counted on the wire, before any stale-view death; a
                 rescue rung outranks the PR bit it left behind. *)
              record_hop_load time ~node:p.at ~next
                ~cls:
                  (if
                     List.exists
                       (function
                         | Forward.Retry_complementary | Forward.Lfa_rescue ->
                             true
                         | Forward.Dd_saturated -> false)
                       degradations
                   then Pr_obs.Linkload.cls_rescue
                   else if header.Forward.pr_bit then
                     Pr_obs.Linkload.cls_recycled
                   else Pr_obs.Linkload.cls_shortest);
              if effective_up p.at next then
                send next header ~started:episode_started
              else begin
                (* The fatal hop counts — hops and episode follow the
                   engine's ladder-walk convention. *)
                account_lost
                  {
                    p with
                    hops = p.hops + 1;
                    episodes = (p.episodes + if episode_started then 1 else 0);
                  }
                  ~looped:false ~time ~reason:Metrics.Stale_view;
                observe_hop time p ~sent:None ~ttl_exceeded:false
              end)
    end
  in
  (* The reconciliation mirrors {!Engine}'s: vacuous if the link flapped
     back within the delay, otherwise one routing rebuild per epoch. *)
  let handle_swap u v =
    let idx = Graph.edge_index g u v in
    let up_now = Netstate.is_up net u v in
    if admin.(idx) <> up_now then begin
      admin.(idx) <- up_now;
      incr epochs;
      let down =
        List.rev
          (Graph.fold_edges
             (fun i (e : Graph.edge) acc ->
               if admin.(i) then acc else (e.u, e.v) :: acc)
             g [])
      in
      admin_failures :=
        (if down = [] then None else Some (Pr_core.Failure.of_list g down));
      cur_routing :=
        Pr_core.Routing.build_blocked ~kind:(Pr_core.Routing.kind routing) g
          ~blocked:(fun i -> not admin.(i))
    end
  in
  let rec drain () =
    match Event.next queue with
    | None -> ()
    | Some (time, ev) ->
        finished_at := time;
        (match ev with
        | Link e ->
            let changed = Netstate.set_link net e.u e.v ~up:e.up in
            (match det with
            | Some d -> Detector.observe d ~time ~u:e.u ~v:e.v ~up:e.up
            | None -> ());
            (match series with
            | None -> ()
            | Some se ->
                if changed then Pr_obs.Series.record_link_transition se ~time;
                if Option.is_some det then
                  Pr_obs.Series.record_belief_churn se ~time 2);
            (match config.control with
            | Some c when changed ->
                Event.schedule queue ~time:(time +. c.Engine.delay)
                  (Swap { u = e.u; v = e.v })
            | Some _ | None -> ());
            (match observer with
            | None -> ()
            | Some o -> o.on_link ~time ~u:e.u ~v:e.v ~up:e.up ~changed)
        | Arrive p -> handle_arrival time p
        | Swap { u; v } -> handle_swap u v);
        drain ()
  in
  drain ();
  {
    metrics;
    finished_at = !finished_at;
    max_hops = !max_hops;
    epochs = !epochs;
  }
