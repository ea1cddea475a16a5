(** The PR forwarding engine: conventional routing plus cycle following
    (paper §4.2–4.3).

    {!step} is one router's forwarding decision — the code a line card
    would run — and {!ladder_step} the same decision with the
    graceful-degradation ladder armed.  {!run_guarded} is the one
    reference walk: it chains {!ladder_step} from source to verdict under
    a frozen failure set, optionally on each router's own view of its
    links.  {!run} is that walk on the true link state with no rung armed
    — the paper's protocol.  The timed simulator ({!Pr_sim.Timed}) chains
    the same decisions across time-varying link state instead.

    Per-hop behaviour at node [x]:

    - PR bit clear: forward to the routing-table next hop.  If that link is
      down, set the PR bit, write the local distance discriminator into the
      DD bits, and forward along the complementary cycle of the failed
      interface (the first live interface in rotation order after it).
    - PR bit set, arrived from [y]: forward to [next_x y] (cycle
      following).  If that link is down, apply the termination condition:
      {!Simple} clears the PR bit and resumes routing; {!Distance_discriminator}
      compares the local discriminator with the DD bits — smaller means
      clear-and-resume, otherwise keep cycle following along the
      complementary cycle of the newly failed interface. *)

type termination =
  | Simple
      (** §4.2: any failure encountered during cycle following ends the
          episode.  Guaranteed only for single link failures. *)
  | Distance_discriminator
      (** §4.3: the DD termination condition; covers any failure
          combination that keeps source and destination connected (on a
          genus-0 embedding — see EXPERIMENTS.md). *)

type outcome =
  | Delivered
  | Dropped_no_interface
      (** every interface of some node on the route was down *)
  | Dropped_unreachable
      (** the routing table had no entry (destination unreachable even
          before failures) *)
  | Ttl_exceeded
      (** forwarding loop: the protocol failed to terminate within the hop
          budget *)
  | Dropped_corrupt
      (** guard-mode only: the packet carried corrupted header state or hit
          damaged forwarding state, detected and dropped with a {!fault}
          locus instead of raising.  Never produced by {!step}/{!run}. *)

type hop_header = { pr_bit : bool; dd_value : float }
(** The in-flight header state: the PR bit plus the DD bits (kept as the
    discriminator value; see [quantise] for the integer-rounded mode). *)

val fresh_header : hop_header
(** PR clear. *)

type step_result =
  | Transmit of {
      next : int;
      header : hop_header;      (** header on the wire after this router *)
      episode_started : bool;   (** this router set the PR bit *)
      failure_hits : int;       (** failed-link encounters at this router *)
      shortcut : bool;
          (** this router cleared the PR bit through the shortcut rung
              (deja-vu detected, proactive §4.3 comparison granted) *)
    }
  | Stuck of { outcome : outcome; failure_hits : int }
      (** [outcome] is never [Delivered] or [Ttl_exceeded] *)

val step :
  ?termination:termination ->
  ?quantise:bool ->
  ?trace:Pr_telemetry.Trace.sink ->
  ?shortcut:(int -> bool) ->
  routing:Routing.t ->
  cycles:Cycle_table.t ->
  failures:Failure.t ->
  dst:int ->
  node:int ->
  arrived_from:int option ->
  header:hop_header ->
  unit ->
  step_result
(** One router's decision for a packet addressed to [dst] (with
    [node <> dst]) that arrived from [arrived_from] ([None] at the
    source).

    [trace] (default {!Pr_telemetry.Trace.null}) receives the
    decision-level events (PR set, DD compare, complementary-cycle
    entry…).  The null sink compiles to zero work: no event is even
    constructed.  Emission points mirror [Pr_fastpath.Kernel.decide]
    line for line, so the two backends produce structurally equal event
    sequences.

    [shortcut] (default: off) is the walk's deja-vu query ({!Seen.query}
    over the walk's seen-node hint).  During cycle following with a
    {e live} continuation, a deja-vu hit makes the router run the §4.3
    comparison proactively: if the local discriminator beats the header
    DD (the comparison is sound — not both saturated) and the primary
    next hop is up, the PR bit is cleared and the packet resumes plain
    routing with a fresh header — the {b shortcut rung}.  Any decline
    leaves the walk exactly as without the hint, so false positives can
    only cost a lookup, never a misroute, and delivery remains
    guaranteed by the unchanged DD argument (the shortcut clear
    satisfies the same strict-decrease invariant as a failure-encounter
    clear).  Only armed under {!Distance_discriminator}. *)

(** {2 The graceful-degradation ladder}

    {!step} assumes the PR machinery itself never fails: rotation entries
    always resolve, DD values always fit the header, the hop budget is
    plentiful.  {!ladder_step} is the same forwarding decision made against
    an arbitrary local link-state view with those assumptions withdrawn.
    When the PR continuation is unusable it degrades {e deterministically}:
    resume plain routing if the primary is believed up, else restart a
    complementary episode with a fresh local DD, else hand the packet to a
    believed-up loop-free alternate (RFC 5286 basic inequality), else an
    accounted drop carrying its reason.  With no DD bound, no budget guard
    and the true link state as the view, {!ladder_step} reproduces {!step}
    verdict-for-verdict — the differential the simulator tests pin. *)

type degradation =
  | Retry_complementary
      (** a fresh complementary episode was started from the ladder *)
  | Lfa_rescue
      (** the packet was handed to a loop-free alternate, PR state
          discarded *)
  | Dd_saturated
      (** a DD value was clamped to the header maximum, or a saturated
          comparison was refused *)

type drop_reason =
  | No_route       (** no routing entry — destination unreachable even
                       without failures *)
  | Interfaces_down  (** every interface of the router believed down *)
  | Continuation_lost
      (** the PR continuation was unusable (missing rotation entry or
          saturated DD comparison) and no ladder rung could take the
          packet *)
  | Budget_exhausted
      (** the hop-budget guard fired mid-episode and no ladder rung could
          take the packet *)
  | Stale_view
      (** the router sent the packet into a link it believed up but that
          was down: lost on the wire.  Only a walk on a [view] that
          disagrees with the truth ({!run_guarded}) ends this way; the
          decision itself never returns it *)

type ladder_result =
  | Forwarded of {
      next : int;
      header : hop_header;
      episode_started : bool;
      failure_hits : int;
      degradations : degradation list;  (** in the order they occurred *)
      shortcut : bool;  (** the shortcut rung forwarded this packet *)
    }
  | Degraded_drop of {
      reason : drop_reason;
      failure_hits : int;
      degradations : degradation list;
    }

val ladder_step :
  ?termination:termination ->
  ?quantise:bool ->
  ?dd_bits:int ->
  ?hops_left:int ->
  ?budget_guard:int ->
  ?trace:Pr_telemetry.Trace.sink ->
  ?shortcut:(int -> bool) ->
  routing:Routing.t ->
  cycles:Cycle_table.t ->
  link_up:(int -> bool) ->
  dst:int ->
  node:int ->
  arrived_from:int option ->
  header:hop_header ->
  unit ->
  ladder_result
(** One router's decision under its own link-state view [link_up] (one
    call per neighbour of [node]).

    [dd_bits] bounds what the DD field can carry: values quantising above
    [Header.max_dd ~dd_bits] are clamped (noting {!Dd_saturated}), and a
    §4.3 comparison in which both discriminators sit at the clamp is
    refused as unsound — the packet takes the ladder instead.  Omitted:
    unbounded, byte-compatible with {!step}.

    [budget_guard] (default 0 = off) arms the hop-budget rung: a PR-marked
    packet with [hops_left <= budget_guard] stops cycle following and takes
    the ladder (without the complementary rung) rather than burning its
    last hops looping.

    A missing rotation entry ([arrived_from] not a neighbour of [node])
    takes the ladder as {!Continuation_lost} instead of raising. *)

val degradation_name : degradation -> string

val drop_reason_name : drop_reason -> string

(** {2 Fault taxonomy (guard mode)}

    The corruption classes a guarded walk detects and accounts.  Each
    carries its locus, in the style of [Pr_fastpath.Fib]'s typed delta
    errors; {!describe_fault} renders it for operators. *)

type fault =
  | Bad_field of { field : int }
      (** the encoded [1 + dd_bits] wire field does not decode *)
  | Impossible_dd of { node : int; dd : float }
      (** a DD value no discriminator could have produced: negative,
          non-finite, or above the header maximum *)
  | Not_neighbour of { node : int; from_ : int }
      (** the claimed previous hop is not a neighbour of the node *)
  | Corrupt_cell of { node : int; cell : string }
      (** a FIB cell read produced an out-of-range value ([cell] names the
          damaged table; compiled backend only) *)
  | Walk_blowup of { hops : int }
      (** a corrupt-seeded walk was still live when the hop budget ran
          out *)

val fault_name : fault -> string
(** Stable kebab-case class name: ["bad-field"], ["impossible-dd"],
    ["not-neighbour"], ["corrupt-cell"], ["walk-blowup"]. *)

val describe_fault : fault -> string
(** One-line description including the locus. *)

type trace = {
  outcome : outcome;
  path : int list;        (** nodes visited, starting at the source *)
  pr_episodes : int;      (** how many times the PR bit was set *)
  failure_hits : int;     (** failed-link encounters, including repeats *)
  max_header : Header.t;  (** header with the largest DD carried *)
  episodes : (int * float) list;
      (** one entry per PR episode, oldest first: the router that set the
          PR bit and the DD it wrote.  §5.3's termination argument says
          these DD values strictly decrease — property-tested on planar
          embeddings. *)
  shortcuts : int;
      (** walks the shortcut rung granted: PR cleared on deja-vu without
          a failure encounter.  Always 0 with the hint off. *)
}

val default_ttl : Pr_graph.Graph.t -> int
(** Hop budget generous enough for any terminating execution:
    2 m (n + 2) + n + 16. *)

val run :
  ?termination:termination ->
  ?ttl:int ->
  ?quantise:bool ->
  ?trace:Pr_telemetry.Trace.sink ->
  ?probe:Pr_telemetry.Probe.t ->
  ?linkload:Pr_obs.Linkload.t ->
  ?shortcut:Seen.plan ->
  routing:Routing.t ->
  cycles:Cycle_table.t ->
  failures:Failure.t ->
  src:int ->
  dst:int ->
  unit ->
  trace
(** [(run_guarded ... ()).trace]: the reference walk on the true link
    state, no DD bound, no hop-budget guard and a fresh header — the
    paper's protocol, where no ladder rung fires (a missing rotation
    entry, possible only when [routing] and [cycles] are built over
    different graphs, still takes the ladder).  Default termination:
    {!Distance_discriminator}; default TTL: {!default_ttl}.  [quantise]
    (default false) makes the walk header-faithful: DD values are
    rounded through {!Routing.quantise_dd} before being written and
    compared, exactly as the integer DD bits would carry them.  A no-op
    for the hop discriminator.  Raises [Invalid_argument] if
    [src = dst], either is out of range, or [ttl] is negative.  The sinks
    and [shortcut] are {!run_guarded}'s. *)

type guarded = {
  trace : trace;
  fault : fault option;
      (** [Some _] iff [trace.outcome = Dropped_corrupt] *)
  drop : drop_reason option;
      (** [Some _] iff a ladder drop or a stale-view wire death ended the
          walk *)
  degradations : degradation list;
      (** every rung taken across the walk, oldest first *)
}
(** Verdict of a {!run_guarded} walk. *)

val inject_of_field : dd_bits:int -> int -> (hop_header, fault) result
(** Decode a wire field into injectable header state, converting an
    undecodable field into the {!Bad_field} fault.  Both backends share
    this decode, so corrupted wire bytes yield identical verdicts. *)

val run_guarded :
  ?termination:termination ->
  ?ttl:int ->
  ?quantise:bool ->
  ?dd_bits:int ->
  ?budget_guard:int ->
  ?header:hop_header ->
  ?arrived_from:int ->
  ?trace:Pr_telemetry.Trace.sink ->
  ?probe:Pr_telemetry.Probe.t ->
  ?linkload:Pr_obs.Linkload.t ->
  ?shortcut:Seen.plan ->
  ?view:(node:int -> other:int -> bool) ->
  routing:Routing.t ->
  cycles:Cycle_table.t ->
  failures:Failure.t ->
  src:int ->
  dst:int ->
  unit ->
  guarded
(** The reference walk: {!ladder_step} chained from [src] to a verdict,
    the one walk loop every reference caller runs and the referee of
    [Pr_fastpath.Kernel.run_one].  [dd_bits] and [budget_guard] arm the
    ladder as in {!ladder_step}; with neither, the true link state as
    the view and a fresh header it is the paper's protocol ({!run}).

    [view] (default: the truth) is each router's belief about its links,
    asked once per interface the decision looks at; [failures] stays the
    truth on the wire.  The wire rule is the kernel's: a hop into a link
    the view believes up but [failures] has down ends the walk as
    {!Dropped_no_interface} with drop {!Stale_view}, the failed hop kept
    on the path.

    [header]/[arrived_from] (default: fresh, none) inject
    possibly-corrupted in-flight state at the source.  Entry guards run
    in the kernel's order — an impossible DD (non-finite, negative, or
    above [Header.max_dd ~dd_bits]) and then a claimed previous hop that
    is not a neighbour of [src] — and convert the fault into an
    accounted {!Dropped_corrupt} verdict.  A walk seeded with injected
    state converts TTL expiry into {!Walk_blowup}.  Raises
    [Invalid_argument] only on caller errors ([src = dst], out-of-range
    nodes, a negative [ttl]: the walk ends when its TTL reaches exactly
    0, and TTL 0 expires at the source).

    The sinks follow the kernel, one rule each:
    - [trace] receives each decision's events, one [Hop] per
      transmission, then the verdict: [Deliver], [Expire], or a [Drop]
      named by the drop reason ({!drop_reason_name}).  A wire death is
      [Divergence] then [Drop "stale-view"] at the far end; a corrupt
      verdict (entry fault or seeded expiry) is [Drop "corrupt"] with no
      [Expire].  Hop counts are TTL-derived.
    - [probe] takes the walk's hop count and re-cycle depth at its
      verdict, and a delivery's stretch.  The verdict, degradations,
      episodes, shortcuts and failure hits are this walk's result, not
      the probe's.
    - [linkload] counts every transmission against its directed link on
      the wire, before any stale-view death, classed rescue (a
      complementary retry or LFA rescue) > shortcut > recycled (PR bit
      set) > shortest.

    [shortcut] arms the shortcut rung with a {!Seen.plan}: the walk
    keeps a seen-node hint, inserting each node it departs in PR mode
    and resetting whenever the PR bit clears, and hands {!ladder_step}
    the deja-vu query.  Same plan, same insertions — the compiled kernel
    mirrors this walk-level discipline bit for bit. *)

val path_cost : Pr_graph.Graph.t -> trace -> float
(** Weighted cost of the traversed walk. *)

val stretch : routing:Routing.t -> trace:trace -> src:int -> dst:int -> float
(** Paper §6 definition: traversed cost over the failure-free shortest
    path cost.  [infinity] when the trace did not deliver. *)
