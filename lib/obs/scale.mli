(** The scale observatory: synthetic-topology campaigns at ISP size.

    A campaign runs the whole pipeline — generate, embed, route, build
    the cycle table, compile the FIB, publish it through a {!Swap}
    store, and push a sampled failure workload through the compiled
    kernel — once per (family, size) case, under a single
    {!Pr_telemetry.Span} recorder.  Each case yields one span root
    (named [scale.<family>.<n>]) whose children are the pipeline
    stages, plus a flat {!result} of the numbers the regression
    tracker keys on: per-stage wall time, exact image bytes per router
    ({!Pr_fastpath.Fib.footprint}), forwarding throughput, and the
    streaming p50/p90/p99 stretch and hop quantiles carried by
    sketch-armed probes.

    Three forwarding legs run per case over the identical item array:

    - {b plain}: {!Pr_fastpath.Parallel.run}, no probe — the
      throughput number ([ns_per_packet]);
    - {b probe}: {!Pr_fastpath.Parallel.run_probed} with the default
      histogram-only probe — the sketch-off baseline;
    - {b sketch}: the same with sketch-armed probes — quantiles, and
      the sketch-on leg of [sketch_overhead].

    The three legs take turns on {!Report.time_best_ns}, each call
    under its own [forward.<leg>] span, so a descheduled stretch hits
    them alike and can't fake a regression; the probe legs must agree
    on every verdict count ({!Pr_telemetry.Probe.equal_counts}) or the
    campaign raises — sketches are passive and may never change an
    outcome.

    Workloads are sampled, not exhaustive: [scenarios] single failed
    links and [pairs] ordered (src, dst) pairs, drawn from the
    campaign seed, the same pair set under every scenario.  Waxman
    cases self-scale the connection probability ([alpha * 1000 / n],
    capped at 1) so mean degree stays roughly constant as [n] grows;
    disconnected pairs are accounted unreachable, as everywhere
    else. *)

type family = Ba | Waxman

val family_name : family -> string
(** ["ba"] or ["waxman"]. *)

val family_of_string : string -> family option

type result = {
  family : string;
  n : int;
  m : int;  (** generated edge count *)
  scenarios : int;
  pairs : int;
  packets : int;  (** [scenarios * pairs], per leg *)
  gen_ms : float;
  embed_ms : float;
  routing_ms : float;
  cycles_ms : float;
  fib_compile_ms : float;
  swap_publish_ms : float;
  image_bytes : int;  (** {!Pr_fastpath.Fib.footprint} payload bytes *)
  bytes_per_router : float;
  linkload_bytes : int;  (** one {!Pr_obs.Linkload} table over this graph *)
  ns_per_packet : float;  (** plain leg, best per-call time *)
  sketch_off_ns : float;  (** probe leg, ns/packet *)
  sketch_on_ns : float;  (** sketch-armed leg, ns/packet *)
  sketch_overhead : float;  (** [sketch_on_ns /. sketch_off_ns] *)
  delivered : int;
  dropped : int;
  looped : int;
  unreachable : int;
  stretch_q : float array;  (** sketch estimates at {!Pr_telemetry.Probe.sketch_qs} *)
  hops_q : float array;
  span_coverage : float;  (** {!Pr_telemetry.Span.coverage} of the case root *)
  span : Pr_telemetry.Span.node;  (** the case's span tree *)
}

type campaign = {
  seed : int;
  domains : int;
  results : result list;  (** in run order: families outer, sizes inner *)
  overhead_ratio : float;
      (** campaign-wide armed overhead — total sketch-leg over total
          probe-leg time (duration-weighted across cases; per-row
          quotients of few-hundred-ms legs are noise on a busy box) —
          the tracker's norm and CI's <= 1.10 gate *)
  span_coverage_min : float;
      (** worst [span_coverage] — the >= 0.95 accounting gate *)
}

val run :
  ?domains:int ->
  ?scenarios:int ->
  ?pairs:int ->
  ?ba_k:int ->
  ?waxman_alpha:float ->
  ?waxman_beta:float ->
  families:family list ->
  sizes:int list ->
  seed:int ->
  unit ->
  campaign
(** Run the campaign.  Defaults: [domains = 1], [scenarios = 4],
    [pairs = 20000] (capped at the case's ordered-pair count),
    [ba_k = 3], [waxman_alpha = 0.05] (the value at
    n = 1000 before self-scaling), [waxman_beta = 0.15].  Raises
    [Invalid_argument] on an empty [families]/[sizes] or
    non-positive knobs. *)

val render : campaign -> string
(** Human-readable table plus the per-case span trees. *)

val to_json : campaign -> string
(** The BENCH_scale.json payload: [{"suite": "scale", "seed": …,
    "overhead_ratio": …, "span_coverage_min": …, "results": […]}] —
    [overhead_ratio] is what {!Report.load_bench} reads as the
    history norm. *)

val spans_schema : string
(** The SPANS artifact schema tag, ["pr.spans/1"]. *)

val spans_json : campaign -> string
(** The per-case span forest as a schema-versioned, pretty-printed
    JSON object ([{"schema": "pr.spans/1", "suite": "scale", "seed":
    …, "domains": …, "roots": […]}]) — written beside the bench
    payload as SPANS_scale.json. *)
