module Graph = Pr_graph.Graph
module Dijkstra = Pr_graph.Dijkstra
module Forward = Pr_core.Forward
module Probe = Pr_telemetry.Probe

type scheme =
  | Pr_scheme of { termination : Pr_core.Forward.termination }
  | Lfa_scheme
  | Reconvergence_scheme of { convergence_delay : float }
  | Reconvergence_jittered of {
      min_delay : float;
      max_delay : float;
      seed : int;
    }

type config = {
  topology : Pr_topo.Topology.t;
  rotation : Pr_embed.Rotation.t;
  scheme : scheme;
}

type control = { delay : float }

let default_control = { delay = 0.5 }

type swap_info = {
  epoch : int;
  link : int * int;
  admin_up : bool;
  admin_down : (int * int) list;
}

type backend = [ `Reference | `Compiled ]

let backend_name = function `Reference -> "reference" | `Compiled -> "compiled"

let metrics_reason = function
  | Pr_fastpath.Kernel.No_route -> Metrics.No_route
  | Pr_fastpath.Kernel.Interfaces_down -> Metrics.Interfaces_down
  | Pr_fastpath.Kernel.Continuation_lost -> Metrics.Continuation_lost
  | Pr_fastpath.Kernel.Budget_exhausted -> Metrics.Budget_exhausted
  | Pr_fastpath.Kernel.Stale_view -> Metrics.Stale_view
  | Pr_fastpath.Kernel.Corrupt -> Metrics.Corrupt

type outcome = {
  metrics : Metrics.t;
  spf_runs : int;
  link_transitions : int;
  epochs : int;
  finished_at : float;
}

type workload_error =
  | Bad_link_events of Flap.violation
  | Not_a_link of { index : int; u : int; v : int }
  | Bad_injection_time of { index : int; time : float }
  | Unsorted_injections of { index : int; prev : float; time : float }
  | Bad_endpoints of { index : int; src : int; dst : int }

let describe_workload_error = function
  | Bad_link_events v -> "link events: " ^ Flap.describe_violation v
  | Not_a_link { index; u; v } ->
      Printf.sprintf "link event %d: %d-%d is not a link of the topology"
        index u v
  | Bad_injection_time { index; time } ->
      Printf.sprintf "injection %d: bad timestamp %g (must be finite and >= 0)"
        index time
  | Unsorted_injections { index; prev; time } ->
      Printf.sprintf
        "injection %d: time %g precedes previous injection at %g (stream must be time-sorted)"
        index time prev
  | Bad_endpoints { index; src; dst } ->
      Printf.sprintf
        "injection %d: bad endpoints %d -> %d (nodes must be distinct and in range)"
        index src dst

let validate_workload g ~link_events ~injections =
  let ( let* ) = Result.bind in
  let* () =
    Result.map_error
      (fun v -> Bad_link_events v)
      (Flap.validate_events link_events)
  in
  let* () =
    List.fold_left
      (fun acc (e : Workload.link_event) ->
        let* index = acc in
        if Graph.has_edge g e.u e.v then Ok (index + 1)
        else Error (Not_a_link { index; u = e.u; v = e.v }))
      (Ok 0) link_events
    |> Result.map ignore
  in
  let n = Graph.n g in
  List.fold_left
    (fun acc (i : Workload.injection) ->
      let* index, prev = acc in
      if not (Float.is_finite i.time) || i.time < 0.0 then
        Error (Bad_injection_time { index; time = i.time })
      else if i.time < prev then
        Error (Unsorted_injections { index; prev; time = i.time })
      else if i.src < 0 || i.src >= n || i.dst < 0 || i.dst >= n || i.src = i.dst
      then Error (Bad_endpoints { index; src = i.src; dst = i.dst })
      else Ok (index + 1, i.time))
    (Ok (0, 0.0))
    injections
  |> Result.map ignore

type packet_verdict =
  | Delivered of { stretch : float }
  | Dropped
  | Looped
  | Unreachable

type observer = {
  on_link : time:float -> u:int -> v:int -> up:bool -> changed:bool -> unit;
  on_swap : time:float -> swap_info -> unit;
  on_packet :
    time:float ->
    src:int ->
    dst:int ->
    failures:Pr_core.Failure.t ->
    quiesced:bool ->
    verdict:packet_verdict ->
    trace:Pr_core.Forward.trace option ->
    unit;
}

let scheme_name = function
  | Pr_scheme { termination = Pr_core.Forward.Distance_discriminator } -> "pr"
  | Pr_scheme { termination = Pr_core.Forward.Simple } -> "pr-simple"
  | Lfa_scheme -> "lfa"
  | Reconvergence_scheme _ -> "reconvergence"
  | Reconvergence_jittered _ -> "reconv-jitter"

type event =
  | Link of Workload.link_event
  | Packet of Workload.injection
  | Converge
  | Swap of { u : int; v : int }

let run ?observer ?detection ?(backend = `Reference) ?control ?probe ?linkload
    ?series config ~link_events ~injections =
  let g = config.topology.Pr_topo.Topology.graph in
  match validate_workload g ~link_events ~injections with
  | Error e -> Error e
  | Ok () ->
  let routing = Pr_core.Routing.build g in
  let cycles = Pr_core.Cycle_table.build config.rotation in
  (* The compiled fast path covers PR forwarding only; the other schemes
     have no table image to compile and always run the reference walks. *)
  let base_fib =
    lazy (Pr_fastpath.Fib.of_tables_exn routing cycles)
  in
  let kernel = lazy (Pr_fastpath.Kernel.create (Lazy.force base_fib)) in
  let swap_store = lazy (Pr_fastpath.Swap.create (Lazy.force base_fib)) in
  let use_compiled = backend = `Compiled in
  (* The live control plane (PR scheme only): [control.delay] after an
     operational transition the control plane reconciles the link's
     administrative state — an incremental recompile plus an epoch swap,
     never a stop-the-world rebuild.  The other schemes model their own
     convergence and ignore [control]. *)
  let control =
    match config.scheme with Pr_scheme _ -> control | _ -> None
  in
  (* Administrative liveness by base edge index; all-live = the seed
     regime.  [cur_routing] is the reference backend's recompiled tables
     (and both backends' stretch denominator); the compiled backend
     carries the same state in its image lineage. *)
  let admin = Array.make (Graph.m g) true in
  let admin_link_up u v = admin.(Graph.edge_index g u v) in
  let cur_routing = ref routing in
  let admin_failures = ref None in
  let epochs = ref 0 in
  (* The epoch the engine's kernel currently forwards on, pinned in the
     swap store so superseded images retire exactly when the engine
     moves off them. *)
  let pinned_epoch = ref None in
  let net = Netstate.create g in
  let det = Option.map (fun cfg -> Detector.create cfg g) detection in
  (* Reconvergence only starts once the failure (or repair) is detected. *)
  let detect_lag ~up =
    match detection with
    | None -> 0.0
    | Some c -> if up then c.Detector.up_delay else c.Detector.down_delay
  in
  let metrics = Metrics.create () in
  (* Link-load accounting.  Each PR-scheme walk feeds one scratch table
     (the same hooks both backends use — Forward.run_guarded's
     [?linkload] and the kernel's [set_linkload]); the scratch is then
     merged into the run-level table and/or the injection-time window of
     the series and reset.  The walks of the other schemes compute costs,
     not wire occupancy, so only the PR scheme feeds load. *)
  let obs_scratch =
    match (linkload, series) with
    | None, None -> None
    | _ -> Some (Pr_obs.Linkload.create g)
  in
  let flush_load ~time =
    match obs_scratch with
    | None -> ()
    | Some s ->
        (match linkload with
        | None -> ()
        | Some ll -> Pr_obs.Linkload.merge ~into:ll s);
        (match series with
        | None -> ()
        | Some se ->
            Pr_obs.Linkload.merge ~into:(Pr_obs.Series.load_at se ~time) s);
        Pr_obs.Linkload.reset s
  in
  let spf_runs = ref 0 in
  let link_transitions = ref 0 in
  let finished_at = ref 0.0 in
  let queue = Event.create () in
  List.iter (fun (e : Workload.link_event) -> Event.schedule queue ~time:e.time (Link e)) link_events;
  List.iter (fun (i : Workload.injection) -> Event.schedule queue ~time:i.time (Packet i)) injections;
  (* Reconvergence state: the trees packets are currently forwarded on. *)
  let full_spf () =
    incr spf_runs;
    Dijkstra.all_roots ~blocked:(fun i -> Pr_core.Failure.is_failed_index (Netstate.failures net) i) g
  in
  let stale_trees = ref (Dijkstra.all_roots g) in
  (* Jittered model: routers one epoch behind forward on [old_trees]. *)
  let old_trees = ref !stale_trees in
  let new_trees = ref !stale_trees in
  let deadlines = Array.make (Graph.n g) 0.0 in
  let jitter_rng =
    match config.scheme with
    | Reconvergence_jittered { seed; _ } -> Pr_util.Rng.create ~seed
    | Pr_scheme _ | Lfa_scheme | Reconvergence_scheme _ ->
        Pr_util.Rng.create ~seed:0
  in
  let baseline_distance ~src ~dst = Pr_core.Routing.distance routing ~node:src ~dst in
  (* Forward one packet on stale trees over the *actual* link states: drops
     at the first failed link, loops cannot arise within one consistent
     tree. *)
  let forward_stale ~src ~dst =
    let tree = !stale_trees.(dst) in
    let rec walk x cost =
      if x = dst then Some cost
      else
        match Dijkstra.next_hop tree x with
        | None -> None
        | Some w ->
            if Netstate.is_up net x w then walk w (cost +. Graph.weight g x w)
            else None
    in
    walk src 0.0
  in
  (* Forwarding across routers with inconsistent views: each hop consults
     the table of the router it is at, so two-node micro-loops can form;
     the TTL converts them into losses. *)
  let forward_jittered ~now ~src ~dst =
    let rec walk x cost ttl =
      if x = dst then Some cost
      else if ttl = 0 then None
      else
        let trees = if now >= deadlines.(x) then !new_trees else !old_trees in
        match Dijkstra.next_hop trees.(dst) x with
        | None -> None
        | Some w ->
            if Netstate.is_up net x w then
              walk w (cost +. Graph.weight g x w) (ttl - 1)
            else None
    in
    walk src 0.0 (4 * Graph.n g)
  in
  (* LFA under per-router beliefs: the seed {!Pr_baselines.Lfa.run} walk,
     with the up-checks asked of the deciding router's detector and a
     truth check on the wire. *)
  let forward_detected_lfa d ~now ~src ~dst =
    let rec walk x cost ttl =
      if x = dst then `Delivered cost
      else if ttl = 0 then `Looped
      else
        match Pr_baselines.Lfa.alternates_for routing ~node:x ~dst with
        | None -> `Dropped Metrics.No_route
        | Some { Pr_baselines.Lfa.primary; alternate } ->
            let believes w = Detector.believes_up d ~now ~node:x ~other:w in
            let chosen =
              if believes primary then Some primary
              else
                match alternate with
                | Some w when believes w -> Some w
                | Some _ | None -> None
            in
            (match chosen with
            | None -> `Dropped Metrics.No_alternate
            | Some w ->
                if Netstate.is_up net x w then
                  walk w (cost +. Graph.weight g x w) (ttl - 1)
                else `Dropped Metrics.Stale_view)
    in
    walk src 0.0 ((4 * Graph.n g) + 16)
  in
  let notify ~time ~src ~dst ~failures ~quiesced ~verdict ~trace =
    (* Every packet ends here exactly once, whatever the scheme — the
       one place the series can count verdicts without per-scheme
       plumbing. *)
    (match series with
    | None -> ()
    | Some se ->
        Pr_obs.Series.record_verdict se ~time
          (match verdict with
          | Delivered _ -> `Delivered
          | Looped -> `Looped
          | Dropped -> `Dropped
          | Unreachable -> `Unreachable));
    match observer with
    | None -> ()
    | Some o -> o.on_packet ~time ~src ~dst ~failures ~quiesced ~verdict ~trace
  in
  (* Feed one walked PR-scheme packet to the probe.  Hops are path
     length − 1 — the TTL-derived count of both reference and compiled
     walks (a stale-view wire death keeps its failed hop on the path in
     both). *)
  let probe_record ~(trace : Forward.trace) ~verdict =
    match probe with
    | None -> ()
    | Some p -> (
        let hops = List.length trace.Forward.path - 1 in
        let depth = trace.Forward.pr_episodes in
        match verdict with
        | Delivered { stretch } -> Probe.record_delivery p ~stretch ~hops ~depth
        | Looped | Dropped -> Probe.record_drop p ~hops ~depth
        | Unreachable -> ())
  in
  let handle_packet ({ src; dst; time } : Workload.injection) =
    let failures =
      (* A link usable by forwarding is operationally up {e and}
         administratively live; with control off this is the wire. *)
      match !admin_failures with
      | None -> Netstate.failures net
      | Some af -> Pr_core.Failure.combine (Netstate.failures net) af
    in
    let quiesced =
      match det with
      | None -> true
      | Some d -> Detector.quiescent d ~now:time ~net
    in
    let notify = notify ~quiesced in
    if not (Pr_core.Failure.pair_connected failures src dst) then begin
      (* No scheme can deliver across a partition; PR packets would wander
         until the IP TTL kills them, others drop at the failure. *)
      Metrics.record_unreachable metrics;
      notify ~time ~src ~dst ~failures ~verdict:Unreachable ~trace:None
    end
    else
    match config.scheme with
    | Pr_scheme { termination } ->
        (* Under detection each router decides on its own beliefs, and
           knows its administratively removed interfaces whatever its
           detector says, as the kernel's admin plane does. *)
        let view, dd_bits, budget_guard =
          match det with
          | None -> (None, None, 0)
          | Some d ->
              ( Some
                  (fun ~node ~other ->
                    Detector.believes_up d ~now:time ~node ~other
                    && admin_link_up node other),
                Some (Pr_core.Routing.dd_bits routing),
                (Detector.config d).Detector.budget_guard )
        in
        let trace, reason, degradations =
          if use_compiled then begin
            let k = Lazy.force kernel in
            Pr_fastpath.Kernel.set_failures k failures;
            Pr_fastpath.Kernel.set_linkload k obs_scratch;
            Option.iter (Pr_fastpath.Kernel.fill_view k) view;
            let r =
              Pr_fastpath.Kernel.run_one ~termination ?dd_bits ~budget_guard k
                ~src ~dst
            in
            ( Pr_fastpath.Kernel.to_trace k r,
              Option.map metrics_reason r.Pr_fastpath.Kernel.reason,
              r.Pr_fastpath.Kernel.degradations )
          end
          else
            let r =
              Forward.run_guarded ~termination ?dd_bits ~budget_guard
                ?linkload:obs_scratch ?view ~routing:!cur_routing ~cycles
                ~failures ~src ~dst ()
            in
            ( r.Forward.trace,
              Option.map Metrics.reason_of_forward r.Forward.drop,
              r.Forward.degradations )
        in
        (* Without detection PR drops stay unclassified, as the metrics
           of the truth-view engine always were. *)
        let reason = if Option.is_none det then None else reason in
        Metrics.record_degradations metrics degradations;
        let verdict =
          match trace.outcome with
          | Pr_core.Forward.Delivered ->
              let stretch =
                Pr_core.Forward.stretch ~routing:!cur_routing ~trace ~src ~dst
              in
              Metrics.record_delivery metrics ~stretch;
              Delivered { stretch }
          | Pr_core.Forward.Ttl_exceeded ->
              Metrics.record_loop metrics;
              Looped
          | Pr_core.Forward.Dropped_no_interface
          | Pr_core.Forward.Dropped_unreachable ->
              Metrics.record_drop ?reason metrics;
              Dropped
          | Pr_core.Forward.Dropped_corrupt ->
              Metrics.record_drop ~reason:Metrics.Corrupt metrics;
              Dropped
        in
        probe_record ~trace ~verdict;
        flush_load ~time;
        notify ~time ~src ~dst ~failures ~verdict ~trace:(Some trace)
    | Lfa_scheme -> (
        match det with
        | None ->
            let trace = Pr_baselines.Lfa.run routing ~failures ~src ~dst () in
            let verdict =
              match trace.outcome with
              | Pr_baselines.Lfa.Delivered ->
                  let stretch = Pr_baselines.Lfa.stretch ~routing ~trace ~src ~dst in
                  Metrics.record_delivery metrics ~stretch;
                  Delivered { stretch }
              | Pr_baselines.Lfa.Dropped ->
                  Metrics.record_drop metrics;
                  Dropped
              | Pr_baselines.Lfa.Ttl_exceeded ->
                  Metrics.record_loop metrics;
                  Looped
            in
            notify ~time ~src ~dst ~failures ~verdict ~trace:None
        | Some d ->
            let verdict =
              match forward_detected_lfa d ~now:time ~src ~dst with
              | `Delivered cost ->
                  let stretch = cost /. baseline_distance ~src ~dst in
                  Metrics.record_delivery metrics ~stretch;
                  Delivered { stretch }
              | `Looped ->
                  Metrics.record_loop metrics;
                  Looped
              | `Dropped reason ->
                  Metrics.record_drop ~reason metrics;
                  Dropped
            in
            notify ~time ~src ~dst ~failures ~verdict ~trace:None)
    | Reconvergence_scheme _ ->
        let verdict =
          match forward_stale ~src ~dst with
          | Some cost ->
              let stretch = cost /. baseline_distance ~src ~dst in
              Metrics.record_delivery metrics ~stretch;
              Delivered { stretch }
          | None ->
              Metrics.record_drop metrics;
              Dropped
        in
        notify ~time ~src ~dst ~failures ~verdict ~trace:None
    | Reconvergence_jittered _ ->
        let verdict =
          match forward_jittered ~now:time ~src ~dst with
          | Some cost ->
              let stretch = cost /. baseline_distance ~src ~dst in
              Metrics.record_delivery metrics ~stretch;
              Delivered { stretch }
          | None ->
              Metrics.record_drop metrics;
              Dropped
        in
        notify ~time ~src ~dst ~failures ~verdict ~trace:None
  in
  (* The control plane reconciles one link's administrative state with
     the operational truth it has now learned.  If the link flapped back
     before the delay elapsed the swap is vacuous and publishes no epoch
     — the image lineage only ever carries real changes. *)
  let handle_swap time u v =
    let idx = Graph.edge_index g u v in
    let up_now = Netstate.is_up net u v in
    if admin.(idx) <> up_now then begin
      admin.(idx) <- up_now;
      incr epochs;
      (* One incremental recompile per epoch, whichever backend runs the
         packets — the SPF ledger stays backend-invariant. *)
      incr spf_runs;
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
          ~blocked:(fun i -> not admin.(i));
      (if use_compiled then begin
         let store = Lazy.force swap_store in
         let edit =
           {
             Pr_fastpath.Fib.Delta.u;
             v;
             change =
               (if up_now then Pr_fastpath.Fib.Delta.Up
                else Pr_fastpath.Fib.Delta.Down);
           }
         in
         let next, _stats =
           Pr_fastpath.Fib.Delta.apply_exn
             (Pr_fastpath.Swap.current store)
             [ edit ]
         in
         ignore (Pr_fastpath.Swap.publish store next : int);
         (match !pinned_epoch with
         | Some e -> Pr_fastpath.Swap.unpin store ~epoch:e
         | None -> ());
         let e, image = Pr_fastpath.Swap.pin store in
         pinned_epoch := Some e;
         Pr_fastpath.Kernel.rebind (Lazy.force kernel) image
       end);
      match observer with
      | None -> ()
      | Some o ->
          o.on_swap ~time
            {
              epoch = !epochs;
              link = (u, v);
              admin_up = up_now;
              admin_down = down;
            }
    end
  in
  let handle_link time (e : Workload.link_event) =
    let changed = Netstate.set_link net e.u e.v ~up:e.up in
    (* Every event is churn the detectors see, redundant or not. *)
    (match det with
    | Some d -> Detector.observe d ~time ~u:e.u ~v:e.v ~up:e.up
    | None -> ());
    (match series with
    | None -> ()
    | Some se ->
        if changed then Pr_obs.Series.record_link_transition se ~time;
        (* Two per-endpoint beliefs are driven by every observed event,
           redundant or not — the series' churn measure. *)
        if Option.is_some det then Pr_obs.Series.record_belief_churn se ~time 2);
    if changed then begin
      incr link_transitions;
      let lag = detect_lag ~up:e.up in
      match config.scheme with
      | Reconvergence_scheme { convergence_delay } ->
          Event.schedule queue ~time:(time +. lag +. convergence_delay) Converge
      | Reconvergence_jittered { min_delay; max_delay; _ } ->
          (* Routers at most one epoch behind: the previous converged view
             becomes the stale one, the post-event view is computed now and
             adopted by each router at its own jittered deadline. *)
          old_trees := !new_trees;
          new_trees := full_spf ();
          Array.iteri
            (fun r _ ->
              deadlines.(r) <-
                time +. lag +. min_delay
                +. Pr_util.Rng.float jitter_rng (Float.max 1e-9 (max_delay -. min_delay)))
            deadlines
      | Pr_scheme _ ->
          (match control with
          | Some c ->
              Event.schedule queue
                ~time:(time +. detect_lag ~up:e.up +. c.delay)
                (Swap { u = e.u; v = e.v })
          | None -> ())
      | Lfa_scheme -> ()
    end;
    match observer with
    | None -> ()
    | Some o -> o.on_link ~time ~u:e.u ~v:e.v ~up:e.up ~changed
  in
  let rec drain () =
    match Event.next queue with
    | None -> ()
    | Some (time, ev) ->
        finished_at := time;
        (match ev with
        | Link e -> handle_link time e
        | Packet i -> handle_packet i
        | Converge -> stale_trees := full_spf ()
        | Swap { u; v } -> handle_swap time u v);
        drain ()
  in
  (match config.scheme with
  | Reconvergence_scheme _ | Reconvergence_jittered _ ->
      incr spf_runs (* initial table computation *)
  | Pr_scheme _ | Lfa_scheme -> ());
  drain ();
  Ok
    {
      metrics;
      spf_runs = !spf_runs;
      link_transitions = !link_transitions;
      epochs = !epochs;
      finished_at = !finished_at;
    }

let run_exn ?observer ?detection ?backend ?control ?probe ?linkload ?series
    config ~link_events ~injections =
  match
    run ?observer ?detection ?backend ?control ?probe ?linkload ?series config
      ~link_events ~injections
  with
  | Ok outcome -> outcome
  | Error e -> invalid_arg ("Engine.run: " ^ describe_workload_error e)
