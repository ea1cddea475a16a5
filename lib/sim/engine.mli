(** Discrete-event simulation of a routed network under failures.

    The engine replays a time-ordered workload of link events and packet
    injections against one forwarding scheme and accounts outcomes.  The
    same workload can be replayed against each scheme for an
    apples-to-apples comparison — this is how the repository quantifies the
    paper's motivation ("more than a quarter of a million packets lost per
    second of downtime" under reconvergence, none under PR).

    Schemes:
    - {!Pr_scheme}: PR forwarding off the failure-free tables plus cycle
      following; reacts instantly and locally to adjacent link state.
    - {!Lfa_scheme}: loop-free alternates off the failure-free tables.
    - {!Reconvergence_scheme}: global SPF recomputation completes
      [convergence_delay] time units after each topology change; in the
      window, packets are forwarded on stale trees and die at failed links
      (the drops the paper wants to eliminate).
    - {!Reconvergence_jittered}: each router converges independently at a
      uniform time in [min_delay, max_delay] after the change, so packets
      can cross routers with inconsistent views and micro-loop — the
      harsher (and more realistic) reconvergence model. *)

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
  rotation : Pr_embed.Rotation.t; (** used by {!Pr_scheme} *)
  scheme : scheme;
}

type control = { delay : float }
(** The live control plane (PR scheme only).  [delay] time units after a
    link's operational transition is detected, the control plane
    reconciles the link's administrative state: an exact incremental FIB
    repair ({!Pr_fastpath.Fib.Delta.apply}) and an epoch-ordered hot swap
    ({!Pr_fastpath.Swap}) on the compiled backend, a
    {!Pr_core.Routing.build_blocked} rebuild on the reference backend —
    both backends stay verdict-identical.  In the window before the swap
    the data plane re-cycles exactly as the paper prescribes; after it,
    routing avoids the link without any stop-the-world rebuild.  A link
    that flaps back within the window yields a vacuous swap and no
    epoch. *)

val default_control : control
(** [delay = 0.5]. *)

type swap_info = {
  epoch : int;          (** 1-based epoch this swap published *)
  link : int * int;     (** the reconciled link, canonical orientation *)
  admin_up : bool;      (** its administrative state after the swap *)
  admin_down : (int * int) list;
      (** all administratively down links after the swap, in base edge
          order *)
}

type backend = [ `Reference | `Compiled ]
(** Which data plane executes {!Pr_scheme} forwarding: the reference
    walk ({!Pr_core.Forward.run_guarded}), or the compiled FIB image and
    batch kernel of {!Pr_fastpath}.  Both
    produce identical verdicts, traces and metrics — pinned by the
    differential suite.  Schemes other than {!Pr_scheme} have no compiled
    form and ignore the choice. *)

val backend_name : backend -> string

type outcome = {
  metrics : Metrics.t;
  spf_runs : int;
      (** full-table SPF recomputations performed, control-plane
          recompiles included — backend-invariant *)
  link_transitions : int;
  epochs : int;
      (** control-plane swaps published ({!control}); 0 without one *)
  finished_at : float;   (** time of the last processed event *)
}

(** {2 Workload validation}

    A workload can be malformed in ways that would previously crash the
    engine mid-replay ([Not_found] on a non-edge, [Invalid_argument] deep
    inside the forwarding walk) or silently misbehave (unsorted
    streams).  {!run} validates up front and returns a structured error
    instead. *)

type workload_error =
  | Bad_link_events of Flap.violation
      (** unsorted, bad timestamps (see {!Flap.validate_events}) *)
  | Not_a_link of { index : int; u : int; v : int }
      (** link event on a pair that is not an edge of the topology *)
  | Bad_injection_time of { index : int; time : float }
  | Unsorted_injections of { index : int; prev : float; time : float }
  | Bad_endpoints of { index : int; src : int; dst : int }
      (** out-of-range node or [src = dst] *)

val describe_workload_error : workload_error -> string

val validate_workload :
  Pr_graph.Graph.t ->
  link_events:Workload.link_event list ->
  injections:Workload.injection list ->
  (unit, workload_error) result
(** The check {!run} performs; exposed so callers (the chaos layer, the
    timed simulator) can share it. *)

(** {2 Observation}

    An observer sees every processed event with full context — the failure
    set frozen at injection time and, for PR schemes, the whole forwarding
    trace.  This is the hook the chaos layer's online invariant monitors
    attach to; it has no effect on the simulation itself. *)

type packet_verdict =
  | Delivered of { stretch : float }
  | Dropped       (** died at a failed link / no live interface *)
  | Looped        (** TTL exhausted *)
  | Unreachable   (** destination disconnected at injection time *)

type observer = {
  on_link : time:float -> u:int -> v:int -> up:bool -> changed:bool -> unit;
      (** every link event, after it is applied; [changed] is false for
          redundant transitions *)
  on_swap : time:float -> swap_info -> unit;
      (** every control-plane swap, after the new tables are live; never
          called without a {!control} config.  The zero-loss-across-swap
          monitor hangs off this. *)
  on_packet :
    time:float ->
    src:int ->
    dst:int ->
    failures:Pr_core.Failure.t ->
    quiesced:bool ->
    verdict:packet_verdict ->
    trace:Pr_core.Forward.trace option ->
    unit;
      (** every injection; [failures] is the link state frozen at injection
          time, [trace] is the full PR trace under {!Pr_scheme} (and [None]
          for the other schemes).  [quiesced] is whether every detector
          belief matched the truth at injection time ({!Detector.quiescent});
          always [true] without a detection config.  The chaos monitors
          weaken the delivery invariant to quiesced injections. *)
}

val run :
  ?observer:observer ->
  ?detection:Detector.config ->
  ?backend:backend ->
  ?control:control ->
  ?probe:Pr_telemetry.Probe.t ->
  ?linkload:Pr_obs.Linkload.t ->
  ?series:Pr_obs.Series.t ->
  config ->
  link_events:Workload.link_event list ->
  injections:Workload.injection list ->
  (outcome, workload_error) result
(** Replays both streams merged in time order.  [backend] (default
    [`Reference]) selects the {!Pr_scheme} data plane.  Each stream must be
    time-sorted with finite non-negative timestamps, link events must name
    edges of the topology and injections distinct in-range nodes;
    violations are reported as [Error] without running anything.

    With [detection], routers no longer see the global truth: each
    forwarding decision consults the deciding router's {!Detector} belief.
    Under {!Pr_scheme} the reference backend walks
    {!Pr_core.Forward.run_guarded} with that belief as its [view] (plus
    the router's administratively removed interfaces, which it knows
    whatever its detector says), the DD bounded by the topology's bit
    budget and the detector's [budget_guard] armed; the compiled backend
    loads the same belief into the kernel's view plane.  A packet sent
    into a link its sender wrongly believed up is lost on the wire — a
    [Stale_view] drop in the {!Metrics} breakdown.  Without detection PR
    drops stay unclassified.
    Under {!Lfa_scheme} the seed walk runs on beliefs with the same
    on-wire truth check.  The reconvergence schemes start their
    convergence timers only after the detection delay.  With
    [Detector.ideal] every scheme reproduces its seed verdicts exactly —
    pinned by the differential tests.

    With [control], the control plane goes live mid-run (PR scheme only;
    the other schemes model their own convergence and ignore it): each
    detected link transition schedules a reconciliation [control.delay]
    later that incrementally recompiles the tables and hot-swaps them
    under the running data plane — see {!control}.  [outcome.epochs]
    counts the published swaps and [outcome.spf_runs] the recompiles,
    identically on both backends.

    [probe] (PR schemes only; the other schemes leave it untouched)
    records every injection's verdict, stretch, hop count, re-cycle
    depth and degradations into the given {!Pr_telemetry.Probe.t}, the
    same way on both backends; no decision latency is clocked, so its
    latency histograms stay empty.  {!Metrics.of_probes} on the probe
    reproduces the outcome's metrics for PR-only workloads — pinned by
    the telemetry suite.

    [linkload] (PR schemes only — the other schemes' walks compute
    costs, not wire occupancy) accumulates one count per transmission
    against its directed link, fed through the same backend hooks as
    everywhere else ({!Pr_core.Forward.run_guarded}'s [?linkload], the
    kernel's [set_linkload]) so reference and compiled runs produce
    equal tables.
    [series] buckets each packet's verdict (every scheme) and its hops
    (PR schemes) into the injection-time window, plus link transitions
    and detector-belief churn at their event times — the replayable
    hotspot timeline. *)

val run_exn :
  ?observer:observer ->
  ?detection:Detector.config ->
  ?backend:backend ->
  ?control:control ->
  ?probe:Pr_telemetry.Probe.t ->
  ?linkload:Pr_obs.Linkload.t ->
  ?series:Pr_obs.Series.t ->
  config ->
  link_events:Workload.link_event list ->
  injections:Workload.injection list ->
  outcome
(** {!run}, raising [Invalid_argument] with the described error instead —
    for callers whose workloads are correct by construction. *)

val scheme_name : scheme -> string
