(** Campaign rollups over the observability layer.

    Two independent halves share this module because both are what
    [prcli] renders from committed artifacts and fresh runs:

    - {b sweeps}: the all-pairs single-failure workload pushed through
      all three data planes — reference walk, compiled kernel,
      domain-parallel batch — each feeding its own {!Pr_obs.Linkload} table.
      The tables must come out {e identical}; the report renders the
      hottest links with their shortest-path / recycled / rescue split
      and the per-scenario max-link-load CCDF next to the delivered
      stretch CCDF (the paper's Figure-2 axis, now with its spatial
      complement).
    - {b bench artifacts}: the committed [BENCH_*.json] artifacts parsed
      back ({!Pr_util.Json}), plus a fresh measurement of the fastpath
      suite's {e normalised per-packet time} — compiled-sweep ns/packet
      over reference-sweep ns/packet — which divides machine speed out,
      so a historical artifact from another machine is still a usable
      baseline.  {!Pr_report.History} folds both into its series. *)

(** {2 The observed sweep} *)

type sweep = {
  topology : Pr_topo.Topology.t;
  scenarios : int;             (** one per failed link *)
  packets : int;               (** walked or accounted per backend *)
  domains : int;               (** of the parallel run *)
  reference : Pr_obs.Linkload.t;
  compiled : Pr_obs.Linkload.t;
  parallel : Pr_obs.Linkload.t;
  loads_agree : bool;          (** all three tables structurally equal *)
  counters_agree : bool;       (** compiled vs parallel verdict counters *)
  counters : Pr_fastpath.Kernel.counters;  (** the parallel run's *)
  scenario_max : float list;
      (** per-scenario maximum directed-link load, sweep order *)
  stretches : float list;      (** delivered stretches, sweep order *)
  shortcut : int option;       (** hint width the sweep was run with *)
  dd_stretches : float list;
      (** delivered stretches of a shortcut-disarmed reference pass over
          the same walks — the DD-only baseline the comparison renders;
          [[]] when [shortcut] is [None] *)
  footprint : Pr_fastpath.Fib.footprint;
      (** exact payload bytes of the compiled image, per plane *)
  linkload_bytes : int;
      (** payload bytes of one {!Pr_obs.Linkload} table over this graph *)
}

val sweep :
  ?domains:int -> ?shortcut:int -> Pr_topo.Topology.t -> Pr_embed.Rotation.t ->
  sweep
(** Run the sweep on all three backends (parallel with [domains],
    default 2) and collect the tables.  A disconnected pair is accounted
    unreachable without walking on {e every} backend — the compiled
    batch already does this, and parity demands the reference walk agree
    on what counts as load.  [shortcut] arms the deja-vu shortcut rung
    at that hint width on all three backends ({!Pr_core.Forward.run}'s
    [?shortcut], {!Pr_fastpath.Kernel.set_shortcut}, the parallel
    config) and additionally collects the DD-only stretch baseline. *)

val agree : sweep -> bool
(** [loads_agree && counters_agree]. *)

val render : ?top:int -> sweep -> string
(** Human-readable rollup: backend-equality verdict, the [top] (default
    5) hottest directed links with class split, the max-link-load CCDF
    and the stretch CCDF. *)

val to_json : ?top:int -> sweep -> string

(** {2 Bench artifacts} *)

type bench_entry = {
  file : string;
  suite : string;   (** "fastpath", "probe", "linkload", "swap", … *)
  norm : float;
      (** the suite's normalised cost: compiled/reference per-packet
          ratio for fastpath, the on/off overhead ratio for probe and
          linkload, the incremental-repair/full-recompile time ratio
          for swap *)
  detail : string;  (** one line of context for rendering *)
}

val load_bench : string -> (bench_entry, string) result
(** Parse one [BENCH_*.json] artifact. *)

val scan_bench : dir:string -> bench_entry list * string list
(** Every [BENCH_*.json] under [dir] (sorted by name), parsed; second
    component is the parse failures, one message each. *)

(** {2 The leg timer} *)

val time_best_ns : (unit -> 'a) array -> (float * 'a) array
(** [time_best_ns legs] times legs that are already built, so their
    set-up stays outside the timed region, and returns each leg's best
    per-call time in ns and the result of its last call, for the
    caller's referee.  Each leg is called once to warm it, and that
    call's time sizes the leg's batches to about 2 ms of calls.  The
    legs then take turns, one batch each, on the monotonic clock, until
    every leg has spent at least 100 ms in at least 7 batches; the best
    per-call time is the fastest batch's mean.  A leg's exception
    propagates.  Every overhead gate in [prcli bench], the
    {!Pr_report.Scale} legs and {!measure_norm} are timed here. *)

val measure_norm : Pr_topo.Topology.t -> Pr_embed.Rotation.t -> float
(** Time the compiled and reference all-pairs single-failure sweeps
    together on {!time_best_ns} and return compiled/reference per-packet
    time — the fastpath [norm], measured now. *)

(** {2 Compile-cost attribution} *)

type compile_profile = {
  compile : Pr_telemetry.Span.node;  (** the recorded [fib.compile] span *)
  planes : Pr_telemetry.Span.node list;
      (** its per-plane children: the structural [fib.compile.ports],
          [.cycles] and [.bridges], then the fill's [.routes] *)
  costs : (int * int64) list;
      (** sampled (dst, wall ns) route-column costs, destination
          order — {!Pr_fastpath.Fib.last_compile_costs} *)
  cost_q : (float * float) array;
      (** (q, ns) over the samples at {!Pr_telemetry.Probe.sketch_qs} *)
  top : (int * int64) list;  (** costliest sampled destinations, worst first *)
}

val profile_compile :
  ?top:int -> Pr_topo.Topology.t -> Pr_embed.Rotation.t -> compile_profile
(** Compile the topology's FIB image once under a fresh span recorder
    and attribute where the time went: per-plane sub-spans plus the
    sampled per-destination cost histogram.  [top] (default 5) bounds
    the costliest-destination list.  The hotspot table behind [prcli
    report --compile] — the target map for compile optimization. *)

val render_compile : compile_profile -> string
(** Human-readable hotspot table. *)

val compile_to_json : compile_profile -> string
(** [{"schema": "pr.compile/1", "compile_ms": …, "planes": […],
    "cost_quantiles": […], "top": […]}]. *)
