module Engine = Pr_sim.Engine
module Workload = Pr_sim.Workload
module Metrics = Pr_sim.Metrics

type config = {
  topology : Pr_topo.Topology.t;
  rotation : Pr_embed.Rotation.t;
  seed : int;
  horizon : float;
  rate : float;
  mix : Gen.kind list;
  hold_down : float;
  detection : Pr_sim.Detector.config option;
  control : Engine.control option;
  schemes : Engine.scheme list;
  shrink : bool;
  backend : Engine.backend;
  timeline : float option;
}

let default_config topology rotation ~seed =
  {
    topology;
    rotation;
    seed;
    horizon = 60.0;
    rate = 20.0;
    mix = Gen.all;
    hold_down = 0.0;
    detection = None;
    control = None;
    schemes =
      [
        Engine.Pr_scheme { termination = Pr_core.Forward.Distance_discriminator };
        Engine.Lfa_scheme;
        Engine.Reconvergence_scheme { convergence_delay = 5.0 };
      ];
    shrink = true;
    backend = `Reference;
    timeline = None;
  }

type scheme_result = {
  scheme : Engine.scheme;
  outcome : Engine.outcome;
  monitor : Monitor.t;
  shrunk : Scenario.t option;
  series : Pr_obs.Series.t option;
}

type t = {
  link_events : Workload.link_event list;
  raw_events : Workload.link_event list;
  injections : Workload.injection list;
  results : scheme_result list;
}

let termination_of = function
  | Engine.Pr_scheme { termination } -> termination
  | Engine.Lfa_scheme | Engine.Reconvergence_scheme _
  | Engine.Reconvergence_jittered _ ->
      Pr_core.Forward.Distance_discriminator

let run config =
  if config.horizon <= 0.0 then Error "horizon must be positive"
  else if config.rate <= 0.0 then Error "rate must be positive"
  else if config.hold_down < 0.0 then Error "hold-down must be non-negative"
  else begin
    let g = config.topology.Pr_topo.Topology.graph in
    let rng = Pr_util.Rng.create ~seed:config.seed in
    let raw_events =
      Gen.generate (Pr_util.Rng.copy rng) config.topology
        ~horizon:config.horizon ~mix:config.mix
    in
    let link_events =
      if config.hold_down > 0.0 then
        Pr_sim.Flap.apply_hold_down raw_events ~hold_down:config.hold_down
      else raw_events
    in
    let injections =
      Workload.poisson_flows (Pr_util.Rng.copy rng) g ~rate:config.rate
        ~horizon:config.horizon
    in
    let routing = Pr_core.Routing.build g in
    let cycles = Pr_core.Cycle_table.build config.rotation in
    let run_scheme scheme =
      let monitor =
        Monitor.create ?detection:config.detection
          ~control:(config.control <> None)
          ~routing ~cycles
          ~termination:(termination_of scheme) ()
      in
      let series =
        Option.map (fun width -> Pr_obs.Series.create ~width g) config.timeline
      in
      match
        Engine.run
          ~observer:(Monitor.engine_observer monitor)
          ?detection:config.detection ?control:config.control
          ~backend:config.backend ?series
          { Engine.topology = config.topology; rotation = config.rotation; scheme }
          ~link_events ~injections
      with
      | Error e -> Error (Engine.describe_workload_error e)
      | Ok outcome ->
          let shrunk =
            (* Scenario files (format v1) do not record a detection or a
               control config, so a shrunk artifact would not replay the
               violation; shrinking stays truth-knowledge-only. *)
            if config.shrink && config.detection = None
               && config.control = None
               && Monitor.total monitor > 0
            then
              Some
                (Shrink.minimise
                   (Scenario.make
                      ~name:
                        (Printf.sprintf "%s-%s-seed%d"
                           config.topology.Pr_topo.Topology.name
                           (Engine.scheme_name scheme) config.seed)
                      ~topology:config.topology ~rotation:config.rotation
                      ~scheme ~hold_down:config.hold_down
                      ~link_events:raw_events ~injections))
            else None
          in
          Ok { scheme; outcome; monitor; shrunk; series }
    in
    let rec run_all acc = function
      | [] -> Ok (List.rev acc)
      | scheme :: rest -> (
          match run_scheme scheme with
          | Ok r -> run_all (r :: acc) rest
          | Error _ as e -> e)
    in
    match run_all [] config.schemes with
    | Error e -> Error e
    | Ok results -> Ok { link_events; raw_events; injections; results }
  end

let report config t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "chaos campaign: %s, seed %d, horizon %g, mix [%s], hold-down %g%s\n"
    config.topology.Pr_topo.Topology.name config.seed config.horizon
    (String.concat "," (List.map Gen.name config.mix))
    config.hold_down
    ((match config.detection with
     | None -> ""
     | Some c ->
         Printf.sprintf ", detection (down %g, up %g, jitter %g)"
           c.Pr_sim.Detector.down_delay c.Pr_sim.Detector.up_delay
           c.Pr_sim.Detector.jitter)
    ^
    match config.control with
    | None -> ""
    | Some c ->
        Printf.sprintf ", control (delay %g)" c.Engine.delay);
  Printf.bprintf buf
    "  %d link events (%d before hold-down), %d packet injections\n\n"
    (List.length t.link_events)
    (List.length t.raw_events)
    (List.length t.injections);
  List.iter
    (fun r ->
      let m = r.outcome.Engine.metrics in
      Printf.bprintf buf
        "%-14s delivered %d/%d  dropped %d  looped %d  unreachable %d  violations %d\n"
        (Engine.scheme_name r.scheme) m.Metrics.delivered m.Metrics.injected
        m.Metrics.dropped m.Metrics.looped m.Metrics.unreachable
        (Monitor.total r.monitor);
      if Monitor.excused r.monitor > 0 then
        Printf.bprintf buf "    excused    %d (detection not quiesced)\n"
          (Monitor.excused r.monitor);
      if r.outcome.Engine.epochs > 0 then
        Printf.bprintf buf "    epochs     %d (control-plane swaps)\n"
          r.outcome.Engine.epochs;
      List.iter
        (fun name ->
          let c = Monitor.count r.monitor name in
          if c > 0 then Printf.bprintf buf "    %-10s %d\n" name c)
        Monitor.monitor_names;
      (match r.shrunk with
      | Some s ->
          Printf.bprintf buf
            "    shrunk to %d link events, %d injection(s)\n"
            (List.length s.Scenario.link_events)
            (List.length s.Scenario.injections)
      | None -> ());
      match r.series with
      | Some se -> Buffer.add_string buf (Pr_obs.Series.render se)
      | None -> ())
    t.results;
  Buffer.contents buf
