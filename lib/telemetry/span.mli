(** Hierarchical phase timing for the offline pipeline.

    A recorder accumulates a forest of {!node}s — one per
    [enter]/[leave] (or {!timed_on}) pair, nested by call structure.
    Each node carries monotonic wall time plus the {!Gc.quick_stat}
    deltas over its extent: minor and major words allocated, and the
    change in [heap_words] (a cheap live-heap proxy: the major heap's
    reserved size, which grows when a phase's survivors force
    expansion but never shrinks back inside a phase).

    {b The ambient recorder and the hot-path guard.}  Library stages
    (topology generation, routing, FIB compilation, swap publication,
    batch forwarding) call {!timed} with no recorder in hand.  When
    none is installed — the default, and the state of every per-packet
    benchmark — {!timed} is one atomic load and a tail call: no
    allocation, no clock read, no [Gc] stat.  Installing a recorder
    ({!install}) turns those same call sites into span nodes, but only
    on the installing domain: a worker domain running {!timed} under
    someone else's recorder takes the disabled path, so the compiled
    kernel's domain-parallel sweeps never contend on (or corrupt) the
    single-owner span stack.  Per-packet code must still never call
    {!timed} — the guard makes an idle call site cheap, not free.

    Spans are exception-safe: {!timed_on} closes its node on the way
    out of a raise, so a failing pipeline still renders the phases it
    completed. *)

type node = {
  name : string;
  wall_ns : int64;
  minor_words : float;  (** minor-heap words allocated during the span *)
  major_words : float;  (** major-heap words allocated during the span *)
  heap_delta_words : int;
      (** change in [Gc.quick_stat.heap_words] across the span *)
  children : node list;  (** completed sub-spans, in completion order *)
}

type t

val create : unit -> t
(** A recorder owned by the calling domain.  Only the owner's
    {!timed}/{!enter} calls record into it. *)

val reset : t -> unit
(** Drop all completed roots and any open frames. *)

val enter : t -> string -> unit
(** Open a span.  Must be balanced by {!leave}; prefer {!timed_on}. *)

val leave : t -> unit
(** Close the innermost open span, filing its node under its parent
    (or as a root).  Raises [Invalid_argument] if no span is open. *)

val timed_on : t -> string -> (unit -> 'a) -> 'a
(** [timed_on t name f] runs [f] inside a span named [name];
    exception-safe. *)

val roots : t -> node list
(** Completed top-level spans, in completion order.  Open (unbalanced)
    frames are not included. *)

val install : t -> unit
(** Make [t] the ambient recorder that {!timed} feeds (on [t]'s owner
    domain only).  Replaces any previous installation. *)

val uninstall : unit -> unit
(** Remove the ambient recorder; {!timed} reverts to the disabled
    (allocation-free) path everywhere. *)

val timed : string -> (unit -> 'a) -> 'a
(** The library-side instrumentation hook: record a span on the
    ambient recorder if one is installed and owned by this domain,
    else just run [f]. *)

val recording : unit -> bool
(** Whether an ambient recorder is installed and owned by this domain
    — the guard instrumented stages use before doing span-only work
    (e.g. the FIB compiler's sampled per-destination cost clocks). *)

val now : unit -> int64
(** The monotonic clock spans read, in nanoseconds.  Exported for the
    repo's other wall-time readings (the FIB compiler's cost samples,
    the overhead gates' leg timer), so there is one clock. *)

(** {2 Stage observer} — how a progress sink learns where the pipeline
    is.  Fires only on the ambient owner-domain [timed] path: never on
    worker domains, never when no recorder is installed. *)

type event =
  | Enter of string  (** an ambient span just opened *)
  | Leave of string  (** that span closed *)

val set_observer : (event -> unit) option -> unit
(** Install (or clear) the stage observer.  At most one; used by
    {!Flight.Progress}. *)

val coverage : node -> float
(** Fraction of a node's wall time accounted for by its direct
    children (1.0 for a leaf of zero width).  The scale campaign's
    "span tree accounts for >= 95% of end-to-end wall time" gate is
    [coverage] of each campaign root. *)

val find : node -> string -> node option
(** First node named [name] in a pre-order walk of the subtree. *)

val wall_ms : node -> float

val render : node list -> string
(** Indented tree: wall ms, percent of parent, minor/major Mwords and
    heap delta per node. *)

val to_json : ?pretty:bool -> node list -> string
(** JSON array of nested span objects ([name], [wall_ns],
    [minor_words], [major_words], [heap_delta_words], [coverage],
    [children]).  [~pretty:true] indents one node object per line
    (the committed SPANS artifacts); default is the compact
    single-line form. *)

val of_json : Pr_util.Json.t -> node list
(** Parse a forest emitted by {!to_json} back into nodes.  [coverage]
    is derived, not stored, and is ignored on input.  Raises
    [Invalid_argument] on shape mismatch. *)
