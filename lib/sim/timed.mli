(** Packet-level simulation with per-hop latency.

    Unlike {!Engine} (which traces a packet's whole path against a frozen
    failure snapshot), packets here move one hop per event and take
    [latency] time units per link, so link state can change {e while a
    packet is in flight}.  This is exactly the regime of the paper's §7
    flapping discussion: a PR packet that saw a link down can meet the
    same link up again while still cycle following, and the DD invariant
    that guarantees termination no longer holds.  The mitigation the paper
    proposes — hold down the up-transition until the link has been stable —
    is {!Flap.apply_hold_down}; this module lets you measure both sides.

    Each router runs {!Pr_core.Forward.step} on the link state at the
    moment the packet arrives. *)

type config = {
  topology : Pr_topo.Topology.t;
  rotation : Pr_embed.Rotation.t;
  termination : Pr_core.Forward.termination;
  latency : float;      (** per-hop transmission time *)
  ttl : int;            (** hop budget per packet *)
  detection : Detector.config option;
      (** [None]: every router sees the true link state at arrival time
          (the seed behaviour).  [Some]: each hop decides on the arrival
          router's {!Detector} beliefs through
          {!Pr_core.Forward.ladder_step} — DD bounded by the topology's
          bit budget, the detector's [budget_guard] armed against the
          remaining TTL — and a packet sent into a link wrongly believed
          up is lost on the wire ([Stale_view] in the {!Metrics}
          breakdown). *)
  control : Engine.control option;
      (** live control plane ({!Engine.control}).  [control.delay] time
          units after each link transition the administrative state is
          reconciled — here one {!Pr_core.Routing.build_blocked} rebuild
          per published epoch (this simulator has no compiled backend) —
          and forwarding continues on the new tables mid-flight.  A link
          that flaps back within the delay yields a vacuous swap.
          Administratively removed links count as failed for forwarding,
          deliverability and stretch. *)
}

val default_config : Pr_topo.Topology.t -> Pr_embed.Rotation.t -> config
(** DD termination, latency 0.1, TTL {!Pr_core.Forward.default_ttl}, no
    detection. *)

type outcome = {
  metrics : Metrics.t;
  finished_at : float;
  max_hops : int;         (** longest hop count of any delivered packet *)
  epochs : int;           (** control-plane swaps published; 0 without
                              a {!config.control} *)
}

(** {2 Observation}

    The per-hop hook is what makes the §7 hazard observable: a monitor can
    record which links a cycle-following packet saw down and flag the
    moment it meets one of them up again.  Observation has no effect on
    the simulation. *)

type hop = {
  id : int;                   (** injection index, stable per packet *)
  time : float;
  node : int;                 (** router making the decision *)
  src : int;
  dst : int;
  arrived_from : int option;
  header : Pr_core.Forward.hop_header;  (** header on arrival at [node] *)
  sent : (int * Pr_core.Forward.hop_header) option;
      (** next hop and the header written on the wire; [None] when the
          packet was delivered at [node], dropped, or hit the TTL *)
  ttl_exceeded : bool;
}

type observer = {
  on_link : time:float -> u:int -> v:int -> up:bool -> changed:bool -> unit;
  on_hop : net:Netstate.t -> hop -> unit;
      (** [net] is the live link state at decision time; read-only use *)
}

val run :
  ?observer:observer ->
  ?probe:Pr_telemetry.Probe.t ->
  ?linkload:Pr_obs.Linkload.t ->
  ?series:Pr_obs.Series.t ->
  config ->
  link_events:Workload.link_event list ->
  injections:Workload.injection list ->
  outcome
(** Packets injected while their destination is unreachable count as
    [unreachable] only if they also fail to arrive; a repair mid-flight
    can still save them.

    [probe] takes every finished packet's hop count and re-cycle depth,
    and each delivery's stretch; a packet charged to [unreachable]
    reaches no probe.  So its histograms sum to the outcome's delivered
    and injected-minus-unreachable counts (pinned by the observability
    suite).

    [linkload] counts every transmission (classed exactly as the
    engines class theirs) against its directed link; [series]
    additionally buckets hops, verdicts, link transitions and
    detector-belief churn into the window of the simulated time they
    happen at — per-hop times here, not injection times, so a long
    detour smears across the windows it actually occupies.

    Raises [Invalid_argument] (via {!Engine.validate_workload}) on
    malformed workloads: unsorted streams, bad timestamps, events on
    non-edges, out-of-range or self-addressed injections. *)
