(** Allocation-free counters and fixed-bucket histograms for the
    forwarding engines.

    A probe is a flat record of mutable ints plus preallocated int and
    float arrays — feeding it never allocates, so it can ride the
    compiled kernel's hot loop ({!Pr_fastpath.Kernel.forward_into}) as
    well as the reference walk ({!Pr_core.Forward.run_guarded}).  Both
    backends feed the same record through the same calls, so probe counts
    are comparable verdict-for-verdict across backends (latency
    histograms excepted — they measure wall time).

    {b Residue.}  What a probe still costs the minor heap lies outside
    the feed calls.  Attached to the compiled kernel, without flambda:
    - 2 words per delivery: the boxed [~stretch] crossing the library
      boundary into {!record_delivery};
    - 9 words per clocked slow-path decision (one in {!lat_sample}): the
      two boxed {!now_ns} reads and the boxed [~ns];
    - under [Pr_fastpath.Parallel.run_probed], one probe slot per item
      and the merge target, ~280 words each with its merge.
    Over a plain run that is +2.5 words per packet on Géant's planar
    single-failure sweep, +5.3 on Abilene's (whose items carry 132
    pairs each, so the slots weigh more) and +7.5 on a Géant call whose
    every packet recycles; test/test_fastpath.ml bounds it term by
    term.

    Per-rung latencies are measured with the monotonic clock
    ({!now_ns}).  The compiled kernel reads it {e only} around slow-path
    decisions (a failure encountered, a ladder rung, a drop), and only
    for one decision in {!lat_sample} — its fault-free hops never touch
    the clock, which is what keeps probe-on overhead inside the CI
    budget.  The reference walk times every decision; it is not on any
    overhead budget.

    Arming [~sketch:true] at {!create} additionally carries streaming
    {!Sketch} quantile estimators (p50/p90/p99 of stretch, hops and
    slow-path latency) — bounded space per probe, for campaigns too
    large to keep sample lists.  The packet-rate series (stretch, hops)
    are decimated one observation in [sketch_sample]: a full P² marker
    update per packet per bank is what the ≤1.10× sketch-armed CI
    budget cannot absorb on short-walk topologies, and the estimates do
    not need every packet.  Sampled observations are {e staged} in a
    bounded buffer and fold into the P² banks lazily (on read, on
    serialization, on buffer overflow); {!merge} replays a still-staged
    source into the target as one raw stream, so a sharded sweep's
    merged sketch sees the same sequential stream a single-probe sweep
    would — the regime P² converges in — instead of compounding
    per-shard marker bias.  The fixed-bucket histograms remain the
    exact full-population reference; the telemetry suite differentially
    checks the (decimated) sketches against them. *)

type series = {
  bank : Sketch.t array;  (** per {!sketch_qs} P² sketches *)
  buf : float array;  (** staging buffer for raw sampled observations *)
  mutable staged : int;  (** observations held in [buf] *)
  mutable spilled : int;  (** prefix of [buf] already fed to [bank] *)
}
(** One quantile series.  Invariant: [bank] holds [buf.(0 .. spilled-1)]
    plus any observations fed after the buffer overflowed; the accessors
    below fold outstanding staging before exposing the bank. *)

type sketches = {
  sample : int;
      (** decimation period for the packet-rate series (see
          {!create}) *)
  mutable stretch_tick : int;  (** countdown to the next stretch feed *)
  mutable hops_tick : int;     (** countdown to the next hops feed *)
  mutable lat_tick : int;      (** countdown to the next latency feed *)
  stretch : series;  (** fed one delivery in [sample] *)
  hops : series;     (** fed one walk in [sample] *)
  lat : series;
      (** fed one {!record_latency} in [sample] (on top of the
          {!lat_sample} decimation of the clock reads themselves —
          loop-flooded walks file hundreds of latencies per packet,
          which past the staging buffer would pay full marker updates
          each) *)
}

type t = {
  lat_sample : int;
      (** clock-sampling period for slow-path latency (see {!lat_sample}) *)
  sketch : sketches option;  (** present iff created with [~sketch:true] *)
  (* verdict counters — the {!Pr_sim.Metrics} fields, derivable back via
     [Pr_sim.Metrics.of_probes] *)
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable looped : int;
  mutable unreachable : int;
  stretch_acc : float array;
      (** delivered stretch: its sum, then its maximum.  A float array
          rather than two float fields, so a write never boxes; read it
          through {!stretch_sum} and {!worst_stretch} *)
  drops_by_reason : int array;  (** indexed as {!reason_names} *)
  mutable complementary_retries : int;
  mutable lfa_rescues : int;
  mutable dd_saturations : int;
  mutable shortcut_exits : int;
  mutable pr_episodes : int;
  mutable failure_hits : int;
  (* fixed-bucket histograms *)
  stretch_hist : int array;  (** delivered stretch, {!stretch_edges} *)
  hops_hist : int array;     (** hops walked per packet, {!hops_edges} *)
  depth_hist : int array;
      (** re-cycle depth: PR episodes per packet (last bucket: deeper) *)
  rung_latency : int array array;
      (** [rung_latency.(cls).(b)]: slow-path decision latencies in
          log2-ns buckets, per {!class_names} class *)
}

val create : ?lat_sample:int -> ?sketch:bool -> ?sketch_sample:int -> unit -> t
(** [lat_sample] defaults to {!default_lat_sample}; see {!lat_sample}
    for the clock-cost tradeoff ([Invalid_argument] if [< 1]).
    [sketch] (default off) arms the streaming quantile sketches;
    [sketch_sample] (default {!default_sketch_sample}, [Invalid_argument]
    if [< 1]) is their packet-rate decimation period — the first
    observation of each period feeds the banks, so even short runs
    populate them, and per-probe countdowns make sharded sweeps
    bit-identical under any item partition.  [1] feeds every packet;
    the sketch-armed overhead gate is budgeted for the default. *)

val stretch_sum : t -> float
(** Sum of delivered stretch. *)

val worst_stretch : t -> float
(** Largest delivered stretch, [0.0] before the first delivery. *)

(** {2 Layout} *)

val reason_names : string array
(** Drop-reason slot names, in {!Pr_sim.Metrics.all_reasons} order:
    no-route, interfaces-down, no-alternate, continuation-lost,
    budget-exhausted, stale-view, unclassified, corrupt. *)

val reason_no_route : int
val reason_interfaces_down : int
val reason_no_alternate : int
val reason_continuation_lost : int
val reason_budget_exhausted : int
val reason_stale_view : int
val reason_unclassified : int
val reason_corrupt : int

val class_names : string array
(** Latency classes, by what the decision did: [routed] (plain forward
    off the slow path), [cycle] (cycle following continued), [episode]
    (PR episode started), [retry] (ladder restarted an episode), [lfa]
    (handed to a loop-free alternate), [drop], [shortcut] (deja-vu
    shortcut cleared the PR bit and resumed routing). *)

val cls_routed : int
val cls_cycle : int
val cls_episode : int
val cls_retry : int
val cls_lfa : int
val cls_drop : int
val cls_shortcut : int

val stretch_edges : float array
(** Bucket upper bounds; the last bucket of [stretch_hist] is overflow. *)

val hops_edges : int array
(** Bucket upper bounds; the last bucket of [hops_hist] is overflow. *)

val max_depth : int
(** [depth_hist] has [max_depth + 2] buckets: 0, 1, …, [max_depth],
    deeper. *)

(** {2 Feeding} *)

val record_delivery : t -> stretch:float -> hops:int -> depth:int -> unit

val record_loop : t -> hops:int -> depth:int -> unit

val record_drop : t -> reason:int -> hops:int -> depth:int -> unit

val record_unreachable : t -> unit

val record_retry : t -> unit

val record_lfa : t -> unit

val record_dd_saturation : t -> unit

val record_shortcut : t -> unit
(** One deja-vu shortcut exit (the walk left PR mode through the
    shortcut rung rather than a failure-encounter DD comparison). *)

val record_episode : t -> unit

val add_failure_hits : t -> int -> unit

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds. *)

val default_lat_sample : int
(** 16 — the default clock-sampling period. *)

val default_sketch_sample : int
(** 8 — the default packet-rate sketch decimation period. *)

val lat_sample : t -> int
(** The compiled kernel samples one slow-path decision latency in
    [lat_sample] ({!default_lat_sample} unless overridden at
    {!create}): two clock reads per decision would otherwise dominate
    probe-on cost on failure-heavy sweeps.  The histograms keep their
    shape; only their mass is scaled.  The tradeoff: a smaller period
    reads the clock more often — at 1, every slow-path decision pays
    two monotonic-clock reads (~20–50 ns each), which on loop-heavy
    sweeps can exceed the decision itself and blow the ≤1.10× probe
    budget; a larger period thins the latency histograms (and the
    latency sketches) of short campaigns.  The countdown itself is
    consumer state (the kernel keeps it on its own hot scratch), not
    part of this record. *)

val sketch_qs : float array
(** The quantiles every armed sketch bank tracks: 0.5, 0.9, 0.99. *)

val sketched : t -> bool

val stretch_sketch : t -> Sketch.t array option
(** Per-{!sketch_qs} stretch sketches when armed.  Folds any staged
    observations into the bank first (as do the other accessors and
    {!to_json}), so the returned sketches reflect everything fed so
    far. *)

val hops_sketch : t -> Sketch.t array option

val latency_sketch : t -> Sketch.t array option

val record_latency : t -> cls:int -> ns:int64 -> unit
(** File one slow-path decision of class [cls] that took [ns]. *)

(** {2 Aggregation} *)

val merge : into:t -> t -> unit
(** Field-wise sums (max for worst stretch).  Float addition order
    matters — merge in a deterministic order for bit-identical sums.
    Sketch series replay the source's staged observations into the
    target's banks as one raw stream (marker-state merging only for
    what a source fed after overflowing its staging buffer); merging an
    armed probe with an unarmed one raises [Invalid_argument] (mixed
    arming in one campaign is a configuration bug, not a sum). *)

val equal_counts : t -> t -> bool
(** Structural equality of everything except the latency histograms
    (which measure wall time and are never comparable across runs);
    floats compared by bit pattern. *)

val to_json : t -> string
(** One multi-line JSON object: counters, histograms with their bucket
    edges, latency histograms in log2-ns buckets. *)
