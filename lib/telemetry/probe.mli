(** Allocation-free per-packet distributions for the forwarding engines.

    A probe holds what no walker already counts: the fixed-bucket
    histograms of delivered stretch, hops walked and re-cycle depth (PR
    episodes per packet), plus optional streaming quantile sketches of
    stretch and hops.  Verdicts, drop reasons, ladder rungs, episodes and
    failure hits are the walker's own counts ({!Pr_fastpath.Kernel}'s
    counters, {!Pr_sim.Metrics}); a probe does not copy them.

    Feeding a probe never allocates, so it can ride the compiled
    kernel's walk ({!Pr_fastpath.Kernel.forward_into}) as well as the
    reference walk ({!Pr_core.Forward.run_guarded}).  Both feed the same
    two calls at the same verdicts, so their probes are equal
    ({!equal_counts}) walk for walk.  A packet the walker finds
    unreachable is never walked and never fed: each histogram of hops
    and depth sums to the walker's injected minus unreachable count, and
    the stretch histogram to its delivered count.

    {b Residue.}  What a probe costs the minor heap lies outside the
    feed calls.  Attached to the compiled kernel, without flambda:
    - 2 words per delivery: the boxed [~stretch] crossing the library
      boundary into {!record_delivery};
    - under [Pr_fastpath.Parallel.run_probed], one probe slot per item
      and the merge target, created and merged per call;
      test/test_fastpath.ml bounds both terms.

    Arming [~sketch:true] at {!create} additionally carries streaming
    {!Sketch} quantile estimators (p50/p90/p99 of stretch and hops) —
    bounded space per probe, for campaigns too large to keep sample
    lists.  Both series are decimated one observation in
    {!default_sketch_sample}: a full P² marker update per packet per
    bank is what the ≤1.10× sketch-armed CI budget cannot absorb on
    short-walk topologies, and the estimates do not need every packet.
    Sampled observations are {e staged} in a bounded buffer and fold
    into the P² banks lazily (on read, on serialization, on buffer
    overflow); {!merge} replays a still-staged source into the target as
    one raw stream, so a sharded sweep's merged sketch sees the same
    sequential stream a single-probe sweep would — the regime P²
    converges in — instead of compounding per-shard marker bias.  The
    fixed-bucket histograms remain the exact full-population reference;
    the scale suite differentially checks the (decimated) sketches
    against them. *)

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
  mutable stretch_tick : int;  (** countdown to the next stretch feed *)
  mutable hops_tick : int;     (** countdown to the next hops feed *)
  stretch : series;  (** fed one delivery in {!default_sketch_sample} *)
  hops : series;     (** fed one walk in {!default_sketch_sample} *)
}

type t = {
  sketch : sketches option;  (** present iff created with [~sketch:true] *)
  stretch_hist : int array;  (** delivered stretch, {!stretch_edges} *)
  hops_hist : int array;     (** hops walked per packet, {!hops_edges} *)
  depth_hist : int array;
      (** re-cycle depth: PR episodes per packet (last bucket: deeper) *)
}

val create : ?sketch:bool -> unit -> t
(** [sketch] (default off) arms the streaming quantile sketches.  The
    first observation of each decimation period feeds the banks, so even
    short runs populate them, and per-probe countdowns make sharded
    sweeps bit-identical under any item partition. *)

(** {2 Layout} *)

val stretch_edges : float array
(** Bucket upper bounds; the last bucket of [stretch_hist] is overflow. *)

val hops_edges : int array
(** Bucket upper bounds; the last bucket of [hops_hist] is overflow. *)

val max_depth : int
(** [depth_hist] has [max_depth + 2] buckets: 0, 1, …, [max_depth],
    deeper. *)

(** {2 Feeding} *)

val record_delivery : t -> stretch:float -> hops:int -> depth:int -> unit
(** A delivered walk: its stretch, hops and re-cycle depth. *)

val record_drop : t -> hops:int -> depth:int -> unit
(** A walk that ended undelivered, dropped or looped to TTL expiry: its
    hops and re-cycle depth.  The probe does not tell the two apart;
    the walker's counts do. *)

val default_sketch_sample : int
(** 8 — the sketch series' decimation period. *)

val sketch_qs : float array
(** The quantiles every armed sketch bank tracks: 0.5, 0.9, 0.99. *)

val stretch_sketch : t -> Sketch.t array option
(** Per-{!sketch_qs} stretch sketches when armed.  Folds any staged
    observations into the bank first (as do {!hops_sketch} and
    {!to_json}), so the returned sketches reflect everything fed so
    far. *)

val hops_sketch : t -> Sketch.t array option

(** {2 Aggregation} *)

val merge : into:t -> t -> unit
(** Bucket-wise sums.  Sketch series replay the source's staged
    observations into the target's banks as one raw stream (marker-state
    merging only for what a source fed after overflowing its staging
    buffer), so merge in a deterministic order for bit-identical
    sketches; merging an armed probe with an unarmed one raises
    [Invalid_argument] (mixed arming in one campaign is a configuration
    bug, not a sum). *)

val equal_counts : t -> t -> bool
(** Equality of the three histograms. *)

val to_json : t -> string
(** One multi-line JSON object: the histograms with their bucket edges,
    and the sketch banks when armed. *)
