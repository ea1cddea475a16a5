(** The batch forwarding kernel: {!Pr_core.Forward.decide}-equivalent
    logic over a compiled {!Fib} image.

    One kernel = one image plus mutable scratch (port-state bytes, per-hop
    registers).  There is one compiled walk.  {!forward_into} runs it
    from source to verdict with array reads and integer arithmetic only:
    no allocation, no hashing, no closures.  {!run_one} runs the same
    walk with capture armed — path, episodes and degradations appended
    to buffers on the kernel, the verdict read back from a scratch
    {!counters} — and shapes the {!result} lists the differential tests
    and the simulation engine's compiled backend consume.  Every sink
    (trace, link load, capture) is fed behind one test on the fault-free
    hop, so attaching none costs nothing.

    Two port-state planes are kept:

    - the {b view}: what the deciding router believes, fed to the ladder
      exactly like [link_up] in {!Pr_core.Forward.ladder_step};
    - the {b truth}: the wire.  A packet sent into a link its sender
      wrongly believed up dies there (the engine's stale-view drop).

    With [view = truth], no DD bound and no budget guard, the kernel
    reproduces {!Pr_core.Forward.run} verdict-for-verdict; with a view,
    bound and guard it reproduces {!Pr_core.Forward.run_guarded} on the
    same view — the walk of {!Pr_sim.Engine}'s detection path.  Both
    equalities are pinned by the differential suites (test/test_fastpath.ml,
    test/test_telemetry.ml).

    A kernel is single-domain state: share the {!Fib} image, give each
    domain its own kernel.

    {b Buffers.}  What a kernel writes besides its walk registers lives in
    one buffer set: the view, truth and administrative planes ([n * ports]
    bytes each, 222 KB at BA n = 1000), the list of port slots the last
    {!set_failures} cut, and the two n-int arrays of {!components}.
    {!create} allocates a fresh set.  {!with_resident} instead lends a
    call this domain's resident set, which outlives the call: it is
    re-allocated only when a call's image has another [n] or [ports], and
    it references no image, so it pins none.  Everything a call can set
    — the trace sink, guard mode, probe, link load, shortcut rung and the
    walk registers — stays on the per-call kernel record, so a kernel on
    resident buffers, painted from its image on entry, cannot be told
    apart from a fresh one.

    {b O(k) failure loading.}  {!set_failures} keeps the slots it cut on
    the buffers' cut list, and the next call restores only those before
    cutting its own: O(k) in the k failed links.  Once {!fill_view},
    {!fill_truth}, {!set_believed} or {!rebind} has written a plane, the
    next {!set_failures} repaints both planes from the administrative one
    in full instead, two blits of [n * ports] bytes.

    {b Loop fast-forward.}  The walk is deterministic, so a packet whose
    state at a slow-path decision repeats is in a loop it can only leave
    by TTL expiry.  That state is the node, the arrival port, the PR bit,
    the carried DD and the shortcut hint bits and latch: the port planes
    do not change during a walk, and the TTL is read only to end it.
    After 64 hops a walk looks for such a repeat with Brent's cycle
    detection (checkpoints at power-of-two decision counts); on finding
    one [λ] hops apart it jumps every whole period that fits in its TTL,
    adds their failure hits, episodes, ladder rungs and shortcut exits,
    and walks the last part period to the ordinary expiry.  Verdicts and
    counters equal the full walk's bit for bit, at any TTL; a looping walk
    costs about [64 + 3λ] hops instead of its TTL.  Only integers are
    carried over: the cost of a walk is read only when it delivers, and a
    looping walk never does.

    The skip is off for a walk that something watches hop by hop — a
    trace sink, a link-load table or {!run_one}'s capture — since each
    must see every period.  It is off under a probe too: a probe's hops
    and depth would survive the skip, but no referee checks that yet.
    It is also off under a budget guard,
    whose routed-resume rung reads the TTL and can turn a loop into a
    delivery whose cost sums every hop.  Both are read at the walk's
    first decision past 64 hops, when {!run_one} has armed its capture.
    The fault-free routed hop is untouched; a walk pays one store, and a
    slow-path decision one compare against the walk's gate, until 64 hops
    are used.

    {b The administrative plane.}  Every image carries administrative
    link state ({!Fib.link_live}); the kernel masks it into both port
    planes, so the ladder can never forward into an administratively
    down link even though the compiled cycle column (base structure, a
    deployment constant) still names its port.  Base images
    are all-live and the mask is the identity — seed behaviour is
    unchanged. *)

type t

val create : Fib.t -> t
(** A kernel on [fib] with no failures loaded, on freshly allocated
    buffers: both port planes start as the image's administrative plane.
    It shares the image's arrays, the degree plane included. *)

val with_resident : Fib.t -> (t -> 'a) -> 'a
(** [with_resident fib f] is [f k] for a kernel [k] on [fib] built as
    {!create} builds one, but on this domain's resident buffers, which
    [k] holds until [f] returns or raises.  A call made while they are
    held, such as one nested in [f], gets fresh buffers.  [k] is valid
    only while [f] runs: the next call repaints its buffers.  Costs the
    per-call kernel record plus one paint of the three planes, O(n *
    ports) bytes and O(m) reads of the image's link state, and no buffer
    allocation once the domain has buffers of the image's size. *)

val fib : t -> Fib.t

val rebind : t -> Fib.t -> unit
(** Point the kernel at another image of the same base topology — the
    control-plane swap.  All image arrays and the administrative plane
    are reloaded; the port-state planes stay conservative until the next
    {!set_failures}/{!fill_view}/{!fill_truth} (links the new image
    administratively removed go down immediately, links it restored stay
    down until reloaded), so a packet walk never observes a torn state.
    Allocates nothing when the new image's graph is the old one's, as in
    a {!Fib.Delta} lineage.  Raises [Invalid_argument] if the image is
    over a different base topology. *)

(** {2 Port state} *)

val set_failures : t -> Pr_core.Failure.t -> unit
(** Load a frozen failure set into {e both} truth and view (the
    global-truth regime): both planes return to the admin plane, then the
    two port slots of each failed link are cleared and kept, sorted, on
    the cut list.  Links are read by their endpoints
    ({!Pr_core.Failure.iter}), never by edge index, so the failure set may
    be over any graph structurally equal to the image's
    ([Invalid_argument] otherwise), whatever its edge order.  Costs O(k)
    in the k failed links and the previous call's: only the slots that
    call cut are restored, unless a plane was written since by
    {!fill_view}, {!fill_truth}, {!set_believed} or {!rebind}, which
    makes this call repaint both planes in full (two blits of [n * ports]
    bytes).  Over the image's own graph the structure check is a
    physical equality. *)

val fill_view : t -> (node:int -> other:int -> bool) -> unit
(** Overwrite the view plane from a per-router belief function (e.g.
    {!Pr_sim.Detector.believes_up}).  Truth is untouched. *)

val fill_truth : t -> (node:int -> other:int -> bool) -> unit

val set_believed : t -> node:int -> other:int -> up:bool -> unit
(** Flip one endpoint's belief about one adjacent link.  Raises
    [Invalid_argument] if [other] is not a neighbour of [node]. *)

val believed_up : t -> node:int -> other:int -> bool

val components : t -> int array option
(** Which pairs the loaded failure set parts: [Some label], where
    [label.(x)] is the smallest node of [x]'s component in the image's
    base graph minus the links the last {!set_failures} cut, or [None]
    when that set parts no pair — the base graph is connected
    ({!Fib.connected}) and the set is empty or one link that is not a
    bridge ({!Fib.is_bridge}).  Administrative state is ignored: a link
    an edit took down still joins its ends, exactly as the failure set's
    own graph would.  [None] costs O(1) and a bridge lookup; [Some] one
    BFS over the image's [degree]/[port_node] planes, reading the sorted
    cut list only at a port into an end of a failed link.  The array is
    the kernel's buffer, overwritten by the next call. *)

(** {2 Guard mode} *)

val set_guard : t -> bool -> unit
(** Toggle bounds-checked forwarding (default off).  Guard mode validates
    every FIB-cell read whose value is used as an index — next-hop and
    cycle columns, the port-node map and the twin plane a hop reads its
    arrival port from, including the port-node cells the LFA rung reads
    to index the distance column — and converts
    an out-of-range value into an accounted
    {!Pr_core.Forward.Dropped_corrupt} verdict with a
    {!Pr_core.Forward.Corrupt_cell} locus instead of an unsafe read.  A
    corrupt-seeded {!run_one} walk (injected header state) additionally
    converts TTL expiry into {!Pr_core.Forward.Walk_blowup}.  On clean
    traffic guard mode is verdict-identical to guard-off; its cost — one
    predictable branch per check site — is benched by [prcli bench
    --guard] and CI-gated at ≤1.10×. *)

val guarded : t -> bool

(** {2 The shortcut rung} *)

val set_shortcut : t -> int option -> unit
(** Arm (or, with [None], disarm) the deja-vu shortcut rung under a hint
    budget of [width] bits, mirroring [Forward.run ~shortcut] exactly:
    the walk inserts every PR-mode departure into a bounded seen-node
    hint ({!Pr_core.Seen}, per-node masks taken from the image's
    compiled shortcut plane when the widths agree), and a hit at a
    cycle-following hop whose continuation is live triggers a proactive
    §4.3 DD check — granted, the packet clears PR and resumes primary
    routing; declined (including any guard-suspicious next-hop cell:
    degrade-to-no-op, never a fault), the walk is bit-identical to an
    unarmed kernel.  Only armed under
    {!Pr_core.Forward.Distance_discriminator} termination.  Raises
    [Invalid_argument] via {!Pr_core.Seen.plan} if [width] is out of
    range. *)

val shortcut_width : t -> int option
(** The armed hint budget, [None] when disarmed. *)

(** {2 Telemetry} *)

val set_trace : t -> Pr_telemetry.Trace.sink -> unit
(** Attach an event sink.  Decision-level events are emitted from the
    kernel's [decide] at points mirroring {!Pr_core.Forward.decide} line
    for line, and the walk adds the walk-level events (one [Hop] per
    transmission, the [Deliver]/[Expire]/[Drop] verdict, and a
    [Divergence] before a stale-view wire death) — so a traced
    {!run_one} or {!forward_into} and a traced {!Pr_core.Forward.run}
    produce structurally equal event sequences.  The default
    {!Pr_telemetry.Trace.null} sink costs nothing: no event is ever
    constructed. *)

val set_probe : t -> Pr_telemetry.Probe.t option -> unit
(** Attach a probe fed by every walk ({!forward_into} and {!run_one}) at
    its verdict: hops, re-cycle depth and a delivery's stretch.  The
    verdict counts stay in the walk's {!counters}.  The fault-free fast
    path is untouched: probe-on cost is one feed per packet. *)

val set_linkload : t -> Pr_obs.Linkload.t option -> unit
(** Attach a link-load table fed by every walk: one count per
    transmission against the directed link it used, classed
    shortest-path / recycled / rescue exactly as the reference walks
    class theirs (see {!Pr_obs.Linkload}).  Unlike the probe, the
    fault-free fast path must feed it too — every hop is load — so its
    cost rides the hot loop: one unsafe array bump per hop behind the
    armed-sink test, kept inside the CI overhead budget.  Transmissions
    are counted before any stale-view wire death.  Raises
    [Invalid_argument] if the table's dimensions do not match the
    image's graph. *)

(** {2 One packet, traced} *)

type reason =
  | No_route
  | Interfaces_down
  | Continuation_lost
  | Budget_exhausted
  | Stale_view
      (** died on the wire: the sender's view said up, the truth said
          down — only possible when view and truth differ *)
  | Corrupt
      (** guard mode detected corrupted header or FIB state; the fault
          locus is in {!result}'s [fault] field *)

val reason_name : reason -> string

type result = {
  outcome : Pr_core.Forward.outcome;
  reason : reason option;  (** [Some] iff the packet was dropped *)
  path : int list;         (** nodes visited, starting at the source *)
  pr_episodes : int;
  failure_hits : int;
  max_dd : float;
  episodes : (int * float) list;
  degradations : Pr_core.Forward.degradation list;  (** oldest first *)
  cost : float;            (** weighted cost of the traversed walk *)
  fault : Pr_core.Forward.fault option;
      (** [Some] iff [outcome = Dropped_corrupt] *)
  shortcuts : int;         (** shortcut grants taken ({!set_shortcut}) *)
}

val run_one :
  ?termination:Pr_core.Forward.termination ->
  ?quantise:bool ->
  ?dd_bits:int ->
  ?budget_guard:int ->
  ?ttl:int ->
  ?header:Pr_core.Forward.hop_header ->
  ?arrived_from:int ->
  t ->
  src:int ->
  dst:int ->
  result
(** Walk one packet under the current port state.  Defaults mirror the
    reference engines: {!Pr_core.Forward.Distance_discriminator}, no
    quantisation, unbounded DD, guard off, TTL
    {!Pr_core.Forward.default_ttl}.  Raises [Invalid_argument] if
    [src = dst], either is out of range, or [ttl] is negative (a walk ends
    when its TTL reaches exactly 0; TTL 0 expires at the source).  The
    capture walks every hop: a loop is never fast-forwarded here.

    [header]/[arrived_from] inject possibly-corrupted in-flight state at
    the source — the corruption-campaign entry point, mirroring
    {!Pr_core.Forward.run_guarded}.  Entry guards (impossible DD, then a
    previous hop that is not a neighbour of [src]) convert bad injected
    state into an accounted {!Pr_core.Forward.Dropped_corrupt} verdict,
    and an injected walk converts TTL expiry into
    {!Pr_core.Forward.Walk_blowup}; both apply regardless of
    {!set_guard}, which additionally arms the FIB-cell checks. *)

val to_trace : t -> result -> Pr_core.Forward.trace
(** Shape a result as the seed trace record ({!Pr_core.Forward.run}'s
    output), quantising [max_dd] exactly as the reference does. *)

(** {2 Batches} *)

type counters = {
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable looped : int;
  mutable unreachable : int;
  mutable stretch_sum : float;
  mutable worst_stretch : float;
  drops_by_reason : int array;  (** indexed by {!reason_index} *)
  mutable complementary_retries : int;
  mutable lfa_rescues : int;
  mutable dd_saturations : int;
  mutable shortcut_exits : int;
  mutable pr_episodes : int;
  mutable failure_hits : int;
}

val reason_index : reason -> int

val all_reasons : reason list

val fresh_counters : unit -> counters

val add_counters : into:counters -> counters -> unit
(** Accumulate [c] into [into] (field-wise sums, max for worst stretch).
    Addition order matters for the float sums — merge in a deterministic
    order to keep summaries bit-identical. *)

val equal_counters : counters -> counters -> bool
(** Exact equality, floats compared by bit pattern. *)

val forward_into :
  ?termination:Pr_core.Forward.termination ->
  ?quantise:bool ->
  ?dd_bits:int ->
  ?budget_guard:int ->
  ?ttl:int ->
  t ->
  counters ->
  src:int ->
  dst:int ->
  unit
(** {!run_one} without capture: walk the packet and account the verdict
    straight into [counters], fast-forwarding a loop when nothing watches
    the walk and no budget guard is set (see {i Loop fast-forward}
    above).  It allocates only the boxed
    [stretch_sum] of a delivery (2 words), plus the residue
    {!Pr_telemetry.Probe} states when a probe is attached; a trace sink
    allocates its events.  Delivered
    stretch is [walk cost / SPF distance], the engine's definition.
    Raises [Invalid_argument] as {!run_one} does, before accounting
    anything. *)

val record_unreachable : counters -> unit
(** Account a packet whose endpoints the caller found disconnected
    ({!components}); a walk never tests connectivity. *)
