(** Correlated fault generators for chaos campaigns.

    {!Pr_sim.Workload.failure_process} fails links independently; real
    outages are correlated — links share conduits (SRLGs), regions lose
    power, routers crash taking every interface with them, overload
    cascades along the topology, and misbehaving interfaces flap in
    storms.  Fast-failover schemes that survive independent failures break
    under exactly this structure (Foerster et al., "On the Price of
    Locality in Static Fast Rerouting"; Bankhamer et al., "Local Fast
    Rerouting with Low Congestion"), so these are the workloads a
    robustness claim has to face.

    Every generator is deterministic in the supplied {!Pr_util.Rng.t} and
    emits a raw, possibly overlapping event stream; {!normalise} merges
    streams into the sorted, per-link-alternating form the simulators and
    {!Pr_sim.Flap} require. *)

type kind =
  | Srlg        (** shared-risk link groups fail and repair together *)
  | Regional    (** geographic outages from the topology's coordinates *)
  | Node_crash  (** router crash-and-recover: every incident link at once
                    ({!Pr_core.Failure.of_nodes} lifted to timed events) *)
  | Cascade     (** a seed failure spreads along adjacent links *)
  | Flap_storm  (** a handful of links oscillating rapidly (paper §7) *)
  | Blip        (** sub-detection-delay down/up blips a perfect-knowledge
                    router reacts to and a {!Pr_sim.Detector} should miss *)
  | Swap_storm  (** long-dwell down/up cycles that each outlive a control
                    plane's reconciliation delay — maximum epoch churn for
                    the {!Pr_sim.Engine} hot-swap path *)
  | Corrupt_storm
                (** state damage rather than link damage: header bit-flips,
                    FIB-cell junk, stale-epoch reads and control-plane
                    crash points.  Emits no link events — {!corrupt_storm}
                    produces the descriptors and the corruption campaign
                    ({!Corrupt}) executes them. *)

val all : kind list
(** In declaration order.  Later generators are appended last so seeded
    streams produced by the earlier ones are unchanged from before they
    existed. *)

val name : kind -> string

val of_name : string -> (kind, string) result

val normalise :
  Pr_sim.Workload.link_event list -> Pr_sim.Workload.link_event list
(** Stable-sorts by time and drops events that do not change their link's
    state (initially up).  The result satisfies
    [Flap.validate_events ~require_alternation:true]. *)

val srlg :
  Pr_util.Rng.t ->
  Pr_topo.Topology.t ->
  horizon:float ->
  ?groups:int ->
  ?mtbf:float ->
  ?mttr:float ->
  unit ->
  Pr_sim.Workload.link_event list
(** Partitions the links uniformly into [groups] (default 3) shared-risk
    groups; each group follows an alternating renewal process (means
    [mtbf], [mttr]) and fails as a unit, with per-link staggered repair. *)

val regional :
  Pr_util.Rng.t ->
  Pr_topo.Topology.t ->
  horizon:float ->
  ?outages:int ->
  ?radius:float ->
  unit ->
  Pr_sim.Workload.link_event list
(** [outages] (default 2) events, each centred on a random node: every
    link with an endpoint within [radius] (default 0.35, as a fraction of
    the coordinate bounding-box diagonal) of the centre goes down
    together and repairs staggered. *)

val node_crash :
  Pr_util.Rng.t ->
  Pr_topo.Topology.t ->
  horizon:float ->
  ?crashes:int ->
  ?mttr:float ->
  unit ->
  Pr_sim.Workload.link_event list
(** [crashes] (default 3) router crashes: all incident links fail at the
    same instant and return together when the router reboots. *)

val cascade :
  Pr_util.Rng.t ->
  Pr_topo.Topology.t ->
  horizon:float ->
  ?seeds:int ->
  ?spread:float ->
  ?hop_delay:float ->
  ?mttr:float ->
  unit ->
  Pr_sim.Workload.link_event list
(** [seeds] (default 1) initial failures, each spreading to links sharing
    an endpoint with probability [spread] (default 0.5) after roughly
    [hop_delay] (default 0.5) time units per hop; the whole cascade then
    repairs staggered. *)

val flap_storm :
  Pr_util.Rng.t ->
  Pr_topo.Topology.t ->
  horizon:float ->
  ?links:int ->
  ?period:float ->
  ?duty_down:float ->
  unit ->
  Pr_sim.Workload.link_event list
(** [links] (default 2) distinct links flapping with the given [period]
    (default 1.0) and duty cycle, at random start offsets.  Choose
    [period] below a deployment's hold-down to test that damping respects
    the storm (suppresses it), or above it to defeat the hold-down and
    expose the §7 in-flight hazard. *)

val blip :
  Pr_util.Rng.t ->
  Pr_topo.Topology.t ->
  horizon:float ->
  ?blips:int ->
  ?width:float ->
  unit ->
  Pr_sim.Workload.link_event list
(** [blips] (default 4) isolated down/up pairs on random links, each
    lasting on the order of [width] (default 0.02) time units — well under
    any realistic detection delay, so an imperfect detector misses them
    while the seed engines (instant knowledge) react to every one. *)

val swap_storm :
  Pr_util.Rng.t ->
  Pr_topo.Topology.t ->
  horizon:float ->
  ?links:int ->
  ?cycles:int ->
  ?dwell:float ->
  unit ->
  Pr_sim.Workload.link_event list
(** [links] (default 3) distinct links each making [cycles] (default 2)
    down/up round trips, every state held for at least [dwell] (default
    2.0) time units.  With [dwell] above the control plane's
    reconciliation delay every transition matures into a published epoch
    (no vacuous swaps) — the swap-storm workload behind the
    zero-loss-across-updates campaign. *)

(** {2 Corruption storms}

    Damage to {e state} instead of links: these descriptors name the bad
    byte, the damaged FIB cell, the stale epoch read or the crash point —
    and the corruption campaign ({!Corrupt}), not the timed simulator,
    executes them against the guarded backends. *)

type corruption =
  | Flip_field of { src : int; dst : int; field : int }
      (** a bit-damaged encoded [1 + dd_bits] header field; both backends
          decode it through {!Pr_core.Forward.inject_of_field} *)
  | Raw_header of { src : int; dst : int; dd : float }
      (** an in-flight PR-marked header carrying a raw, possibly
          impossible DD value *)
  | Claim_from of { src : int; dst : int; from_ : int }
      (** a claimed previous hop, possibly not a neighbour of [src] (or
          not a node at all) *)
  | Cell_damage of { table : string; slot : int; value : int }
      (** one damaged cell of a scratch FIB image — [table] is a
          {!damage_tables} name, [slot] is reduced modulo the table's
          cell count (a next-hop cell is numbered [node * n + dst]),
          compiled backend only *)
  | Stale_read of { src : int; dst : int }
      (** a forward on a pinned, superseded epoch *)
  | Crash_point of { after_batch : int }
      (** kill the control plane after {!Pr_fastpath.Fib.Delta} applied
          batch [after_batch] but before {!Pr_fastpath.Swap} published
          it *)

val corruption_name : corruption -> string
(** Stable kebab-case class name. *)

val describe_corruption : corruption -> string
(** One-line description including the locus. *)

val damage_tables : string array
(** The kernel's index-bearing FIB tables eligible for {!Cell_damage}. *)

val corrupt_storm :
  Pr_util.Rng.t -> Pr_topo.Topology.t -> ?events:int -> unit -> corruption list
(** [events] (default 64) descriptors drawn uniformly across the six
    corruption classes, deterministic in the rng. *)

val generate :
  Pr_util.Rng.t ->
  Pr_topo.Topology.t ->
  horizon:float ->
  mix:kind list ->
  Pr_sim.Workload.link_event list
(** Runs every generator in [mix] (in order, sharing the generator state)
    with its defaults and returns the merged, normalised stream.
    {!Corrupt_storm} contributes no link events — draw its descriptors
    with {!corrupt_storm}. *)
