(** Constant-space streaming quantile estimation (the P² algorithm of
    Jain & Chlamtac, 1985).

    One sketch tracks one quantile [q] with five markers — five heights
    and five positions, ~13 words total — whatever the stream length:
    the state that lets {!Pr_telemetry.Probe} carry p50/p90/p99 stretch
    and hops through multi-million-packet campaigns without the
    unbounded sample lists an exact quantile would need.  {!observe} is
    allocation-free.

    Until five observations arrive the sketch holds the raw values and
    {!quantile} interpolates them exactly; from the sixth observation on
    the markers move by the P² parabolic rule and {!quantile} is an
    estimate.  The sketch additionally counts ties at the exact min and
    max: P² assumes a continuous distribution and converges very slowly
    when most of the mass is one repeated value (path stretch is exactly
    1.0 for most packets), so when the quantile index lands inside an
    extreme tie block {!quantile} answers with that exact value instead
    of the marker estimate.  The fixed-bucket histograms stay the exact
    reference: the telemetry suite checks sketch quantiles land within
    one bucket of the histogram answer on the paper topologies.

    {b Determinism.}  Every operation is a pure function of the
    observation sequence, and {!merge} is a pure function of the two
    states (weighted marker interpolation — not equivalent to observing
    the concatenated stream, but deterministic).  The parallel driver
    merges per-item sketches in item-index order, so the merged state is
    bit-identical across domain counts; {!equal} compares by float bit
    pattern to pin exactly that. *)

type t

val create : q:float -> t
(** Track the [q]-quantile, [0 < q < 1].  Raises [Invalid_argument]
    otherwise. *)

val create_log : q:float -> t
(** Like {!create}, but the markers live in [log2] of the observations
    and {!quantile}, {!min_value} and {!max_value} transform back.  P²
    interpolates linearly between markers, which diverges on
    heavy-tailed positive data spanning orders of magnitude (hop counts
    under re-cycling run from 1 to thousands); in log space the
    interpolation error is relative — the same rationale as the
    log-spaced histogram buckets.  Observations must be strictly
    positive.  A log-domain sketch only merges with another log-domain
    sketch. *)

val log_domain : t -> bool

val q : t -> float

val count : t -> int
(** Observations seen (including those absorbed through {!merge}). *)

val observe : t -> float -> unit
(** Feed one observation.  Allocation-free.  Non-finite values raise
    [Invalid_argument] — a sketch poisoned by a NaN would silently
    corrupt every later estimate.  Log-domain sketches additionally
    reject non-positive values. *)

val observe_bank : t array -> float -> unit
(** Feed one observation to every sketch in the array, which must share
    a domain (the first element's is used).  Equivalent to calling
    {!observe} on each, but validates and transforms once for the whole
    bank — the packet-rate entry point for a p50/p90/p99 bank, where
    per-sketch calls would box the value and take the log2 once per
    quantile. *)

val quantile : t -> float
(** Current estimate; [nan] when the sketch is empty.  Exact while
    fewer than five observations have been seen. *)

val min_value : t -> float
(** Smallest observation seen; [nan] when empty. *)

val max_value : t -> float
(** Largest observation seen; [nan] when empty. *)

val merge : into:t -> t -> unit
(** Absorb [src] into [into] ([Invalid_argument] if their [q]s differ).
    If either side holds fewer than five raw observations they are
    replayed exactly; two full sketches combine by pooled-CDF
    inversion: each side's markers define a piecewise-linear rank
    function, the pooled rank is their sum, and the merged interior
    markers are read off where the pooled rank crosses the P² target
    positions (exact min/max, summed tie counts).  Count-weighted
    height averaging — the obvious alternative — is badly biased when
    the tail mass is concentrated in one shard.  Still a marker-level
    approximation: {!Pr_telemetry.Probe} avoids it entirely for
    buffered shards by replaying raw observations, reaching this path
    only for shards past its staging capacity.  Deterministic, so a
    fixed merge order gives bit-identical results at any domain
    count. *)

val equal : t -> t -> bool
(** Bitwise state equality (floats by bit pattern) — the determinism
    suite's referee. *)

val copy : t -> t

val to_json : t -> string
(** [{"q":…,"count":…,"estimate":…,"min":…,"max":…,"min_ties":…,
    "max_ties":…}] on one line. *)
