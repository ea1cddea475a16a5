(** Domain-parallel batch simulation over a shared FIB image.

    Work is an array of {!item}s — one frozen failure scenario plus the
    (src, dst) pairs to push through it.  Items are dealt round-robin to
    [domains] workers ({!Stdlib.Domain.spawn}); each worker owns a private
    {!Kernel} over the shared immutable image, on its domain's resident
    buffers ({!Kernel.with_resident}), so no locking is needed.

    {b Determinism.}  Results are bit-identical regardless of [domains]:

    - per-item {!Pr_util.Rng} streams are split from the master seed
      {e sequentially before} any domain starts, so item [i] sees the
      same stream whether one domain runs everything or eight share it;
    - each item accumulates into its own counter slot, and slots are
      merged in item-index order after the join barrier, fixing the
      float-summation order.

    The determinism suite pins [domains = 1, 2, 4] to byte-identical
    summaries. *)

type item = {
  failures : Pr_core.Failure.t;
  pairs : (int * int) array;  (** ordered (src, dst), src <> dst *)
}

type config = {
  termination : Pr_core.Forward.termination;
  quantise : bool;
  dd_bits : int option;
  budget_guard : int;
  ttl : int option;
  shortcut : int option;
      (** deja-vu shortcut-rung hint width ({!Kernel.set_shortcut});
          armed identically on every domain's kernel, so summaries stay
          bit-identical across domain counts *)
}

val default_config : config
(** Reference-engine defaults: DD termination, no quantisation, unbounded
    DD, guard off, default TTL, shortcut disarmed. *)

val ladder_config : dd_bits:int -> budget_guard:int -> config
(** The PR2 ladder regime of {!Pr_core.Forward.ladder_step}. *)

val all_pairs_single_failures : Fib.t -> item array
(** One item per edge of the image's graph — that edge failed, all
    ordered (src, dst) pairs injected.  The paper's §5-style single-link
    sweep, and the bench workload. *)

val run :
  ?domains:int ->
  ?config:config ->
  ?prepare:(Kernel.t -> rng:Pr_util.Rng.t -> item -> unit) ->
  seed:int ->
  Fib.t ->
  item array ->
  Kernel.counters
(** Run every item and return the merged counters.  [domains] defaults
    to 1 (inline, no spawn).  [prepare] runs once per item after
    {!Kernel.set_failures}, with the item's private stream — use it to
    perturb the kernel's view plane (imperfect detection) deterministically.
    The kernel it is passed is valid only during its item: the next item
    reloads its planes, and once the call returns its buffers serve the
    next call.  Pairs whose endpoints the scenario disconnects are
    accounted unreachable without walking.  Raises [Invalid_argument] if
    [domains < 1].

    {b Cost.}  A call pays for its packets, not for a kernel.  Per call
    and domain: one {!Kernel.with_resident}, a kernel record on the
    domain's resident buffers plus one paint of its three port planes
    ([n * ports] bytes each); the buffers themselves are allocated only
    when the image's [n] or [ports] differ from the last call's, and on
    every call of a spawned domain.  Per item: {!Kernel.set_failures},
    O(k) in its k failed links and the previous item's, and
    {!Kernel.components}.  On a connected base graph an item with no
    failed link or one that is not a bridge parts no pair, so the image's
    bridge table answers and nothing is labelled; any other item takes
    one breadth-first labelling over the image's [degree]/[port_node]
    planes — array reads only, no hashtable probe — and a label test per
    pair.  The labelling cuts the failure set's links and nothing else:
    it ignores administrative state, so a link an edit took down still
    joins its ends there, and a pair only such a link joins is walked,
    not counted unreachable.  Per packet: the walk, which allocates
    nothing but the counters' boxed stretch sum; a looping packet costs
    about [64 + 3λ] hops for a loop of [λ] hops, whatever the TTL, as
    {!Kernel.forward_into} fast-forwards its loop — the instrumented
    calls below walk every hop.  Raises [Invalid_argument] on a negative
    [config.ttl]. *)

val run_probed :
  ?domains:int ->
  ?config:config ->
  ?prepare:(Kernel.t -> rng:Pr_util.Rng.t -> item -> unit) ->
  ?create_probe:(unit -> Pr_telemetry.Probe.t) ->
  seed:int ->
  Fib.t ->
  item array ->
  Kernel.counters * Pr_telemetry.Probe.t
(** {!run} with a {!Pr_telemetry.Probe.t} attached to every walk.  One
    probe slot per item, merged in item-index order after the join
    barrier, so every histogram is bit-identical regardless of
    [domains].  An unreachable pair is never walked, so it reaches no
    probe.  [create_probe] (default [Probe.create ()]) builds every
    per-item slot and the merge target: pass
    [fun () -> Probe.create ~sketch:true ()] to carry streaming
    quantile sketches through the batch — sketch merges happen in the
    same item-index order, so the merged sketch state is bit-identical
    across domain counts too. *)

val run_swapped :
  ?domains:int ->
  ?config:config ->
  ?prepare:(Kernel.t -> rng:Pr_util.Rng.t -> item -> unit) ->
  seed:int ->
  schedule:(int * Fib.t) list ->
  Fib.t ->
  item array ->
  Kernel.counters * Swap.stats
(** {!run} across a control-plane edit schedule: [schedule] lists
    [(first_item, image)] pairs — strictly increasing indices into
    [items] — and image [k] is published (via a {!Swap} store seeded
    with [fib]) just before item [first_item] is admitted.  Each item
    pins the epoch current at its own admission and its worker rebinds
    to that image before forwarding, so the image an item runs on is a
    pure function of the item index: verdicts are bit-identical
    regardless of [domains] {e and} of wall-clock swap timing, which the
    determinism suite pins at domains 1/2/4.  Superseded images drain —
    their pins are released once the batch has been forwarded — and the
    returned {!Swap.stats} lets callers assert the store ended
    {!Swap.quiescent}.  Raises [Invalid_argument] on an unsorted or
    out-of-range schedule. *)

val run_loaded :
  ?domains:int ->
  ?config:config ->
  ?prepare:(Kernel.t -> rng:Pr_util.Rng.t -> item -> unit) ->
  seed:int ->
  Fib.t ->
  item array ->
  Kernel.counters * Pr_obs.Linkload.t
(** {!run} with a {!Pr_obs.Linkload.t} attached to every walk: the
    merged per-directed-link load table of the whole batch.  One table
    per {e domain} (not per item — integer sums are partition-invariant,
    unlike the float-bearing counters), merged in domain order after the
    join barrier, so the table is bit-identical regardless of [domains]
    and the single-domain case pays no merge at all. *)
