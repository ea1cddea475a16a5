(** Compiled FIB images: the data plane's tables as flat arrays.

    {!Pr_core.Routing} and {!Pr_core.Cycle_table} are built for clarity —
    destination-rooted SPF trees behind hashtable-backed rotation lookups.
    A {e FIB image} flattens everything one forwarding decision reads into
    contiguous [int]/[float] arrays indexed by [node * width + port] (or
    [node * n + dst]), so the batch kernel ({!Kernel}) runs the full
    {!Pr_core.Forward.decide} ladder with array reads only — no hashing,
    no allocation, no pointer chasing.

    {b Port numbering.}  The ports of node [x] are the indices into
    [Graph.neighbours g x] — neighbour ids in increasing order, so port
    assignment is deterministic and identical to the iteration order of
    the reference implementation.  Every per-port array row is padded to
    the image's {!ports} width with [-1] sentinels; [-1] likewise encodes
    "no entry" ([no next hop], [unreachable]).

    An image is immutable once built and safe to share across domains.

    {b The image lifecycle.}  [of_tables] compiles the {e base image}
    from the failure-free tables.  Control-plane edits (administrative
    link up/down, weight changes) go through {!Delta}, which repairs only
    the route cells the edits move and returns a {e new} image, every
    other cell byte-equal to its parent's — the base structure (port
    numbering, the cycle column, DD bit budget) never changes, so any two
    images in one lineage are interchangeable under a running {!Kernel}
    via [Kernel.rebind].
    Epoch-ordered publication of successive images is {!Swap}'s job. *)

type t

type mismatch =
  | Node_count of { routing : int; cycles : int }
      (** the two graphs have different node counts *)
  | Edge of { u : int; v : int }
      (** first link (canonical orientation) the two graphs disagree on:
          present in only one of them, or present with different
          weights *)

type error =
  | Port_overflow of { node : int; degree : int; ports : int }
      (** a node's degree exceeds the image's port width *)
  | Graph_mismatch of mismatch
      (** routing and cycle tables were built over different graphs; the
          payload names the first offending node count or link *)

val describe_error : error -> string

val of_tables :
  ?ports:int -> Pr_core.Routing.t -> Pr_core.Cycle_table.t -> (t, error) result
(** Compile an image from the reference tables.  [ports] is the port
    width (default: the graph's maximum degree); a node with more
    neighbours than [ports] is a typed {!Port_overflow} error, never an
    assertion.  The tables must be built over the same graph.

    Only the structure (ports, cycle column, shortcut masks, an all-live
    admin state) is laid out here; the route columns come from the
    per-destination fill {!Delta.recompile} also compiles with, run over
    [Routing.tree] for every destination.  Sub-spans:
    [fib.compile.ports], [.cycles], [.routes]. *)

val of_tables_exn :
  ?ports:int -> Pr_core.Routing.t -> Pr_core.Cycle_table.t -> t
(** [Invalid_argument] with {!describe_error} on error. *)

(** {2 Image geometry} *)

val graph : t -> Pr_graph.Graph.t

val n : t -> int

val ports : t -> int
(** Port width: every node's per-port rows span this many slots. *)

val degree : t -> int -> int

val dd_bits : t -> int
(** The topology's DD bit budget, copied from {!Pr_core.Routing.dd_bits}. *)

val default_sc_width : int
(** Hint-bit budget the shortcut plane is compiled under (16). *)

val sc_width : t -> int
(** Effective width of the compiled shortcut plane: the node count for
    exact plans ([n <= default_sc_width]), {!default_sc_width} for Bloom
    plans — i.e. [(Pr_core.Seen.plan ~nodes:n
    ~width:default_sc_width).width]. *)

val quantise_dd : t -> float -> int
(** [Pr_core.Discriminator.quantise] under the image's discriminator
    kind — the rounding of the compiled [disc_q] column. *)

type plane = {
  plane : string;  (** field name, e.g. ["node_port"] *)
  words : int;     (** payload cells (all planes are one-word cells) *)
  bytes : int;     (** [words * Sys.word_size / 8] *)
}

type footprint = {
  planes : plane list;  (** one entry per table plane, layout order *)
  total_bytes : int;    (** sum of the planes' [bytes] *)
  bytes_per_router : float;  (** [total_bytes / n] — the paper's
                                 bounded-state-per-router claim, priced *)
}

val footprint : t -> footprint
(** Exact payload bytes per table plane of a compiled image.  Array
    headers (one word per plane) are excluded; the shortcut-hint plane
    appears as [sc_mask] (one word per node at {!sc_width} effective
    bits). *)

val footprint_json : footprint -> string
(** One-line JSON object: [total_bytes], [bytes_per_router], [planes]. *)

val last_compile_costs : unit -> (int * int64) list
(** Sampled per-destination compile costs — (dst, wall ns) for the
    route columns of every k-th destination, its SPF run included under
    {!Delta.recompile} — from the most recent full compile ({!of_tables}
    or {!Delta.recompile}; {!Delta.apply} files none) under an installed
    {!Pr_telemetry.Span} recorder on this domain, in destination order.
    Span-gated: plain compiles pay nothing and leave the list alone.
    Feeds [prcli report --compile]. *)

(** {2 Administrative state}

    Each image carries the administrative link state its rows were
    compiled against: per base edge, whether the link is
    administratively live and its effective weight.  The base image is
    all-live at base weights; {!Delta} edits produce images with other
    states.  An administratively down link keeps its port (structure is
    a deployment constant) and is masked by the kernel's admin plane at
    forwarding time. *)

val link_live : t -> u:int -> v:int -> bool
(** Raises [Not_found] if [u]-[v] is not a base link. *)

val eff_weight : t -> u:int -> v:int -> float
(** Effective weight the image was compiled with.  Raises [Not_found] if
    [u]-[v] is not a base link. *)

val admin_down : t -> (int * int) list
(** Administratively down links, canonical orientation, in base edge
    order. *)

val equal : t -> t -> bool
(** Bitwise equality of every compiled array (floats compared by their
    IEEE bit patterns), the geometry and the administrative state — the
    referee the differential harness uses to pin incremental repairs
    byte-equal to full recompiles. *)

(** {2 Decompilation}

    The image can be read back entry-by-entry; the property tests
    round-trip every {!Pr_core.Routing} / {!Pr_core.Cycle_table} /
    {!Pr_core.Discriminator} entry through these. *)

val port_of : t -> node:int -> neighbour:int -> int
(** Port index of a neighbour at [node]; [-1] if not adjacent. *)

val neighbour_of : t -> node:int -> port:int -> int
(** Node id behind a port; [-1] for a padded slot. *)

val next_hop : t -> node:int -> dst:int -> int option
(** Next-hop node id, as {!Pr_core.Routing.next_hop}. *)

val disc : t -> node:int -> dst:int -> float
(** Raw discriminator value, as {!Pr_core.Routing.disc}. *)

val disc_q : t -> node:int -> dst:int -> int
(** Quantised discriminator, as [Routing.quantise_dd (Routing.disc ...)]. *)

val distance : t -> node:int -> dst:int -> float
(** Shortest-path cost, as {!Pr_core.Routing.distance}. *)

val cycle_next : t -> node:int -> from_:int -> int
(** Cycle-following column by node ids, as
    {!Pr_core.Cycle_table.cycle_next}.  Raises [Invalid_argument] if
    [from_] is not a neighbour. *)

val complement_for_failed : t -> node:int -> failed:int -> int
(** Complementary-cycle column by node ids, as
    {!Pr_core.Cycle_table.complement_for_failed}. *)

val entries : t -> int -> Pr_core.Cycle_table.entry list
(** Decompiled cycle-table rows of a node, shaped like
    {!Pr_core.Cycle_table.entries} but ordered by incoming neighbour id
    (port order) rather than rotation order. *)

(** {2 Raw layout (read-only)}

    Exposed for the kernel and for tests that pin the array shapes; see
    DESIGN.md "Compiled FIB images" for the layout contract.  Callers
    must not mutate. *)

val slot : t -> node:int -> other:int -> int
(** Index, in every [n*ports] plane, of [node]'s port to [other]: the
    one place that knows the slot layout of a link's end.  Raises
    [Invalid_argument] if either node is out of range or [other] is not
    a neighbour of [node]. *)

val raw_port_node : t -> int array
(** [n*ports]: port -> node id, [-1] pad *)

val raw_port_weight : t -> float array
(** [n*ports]: port -> link weight *)

val raw_node_port : t -> int array
(** [n*n]: neighbour id -> port, [-1] *)

val raw_next_hop_port : t -> int array
(** [n*n]: (node,dst) -> port, [-1] *)

val raw_disc : t -> float array
(** [n*n]: raw discriminator *)

val raw_disc_q : t -> int array
(** [n*n]: quantised discriminator *)

val raw_distance : t -> float array
(** [n*n]: SPF distance *)

val raw_cycle_col : t -> int array
(** [n*ports]: in-port -> cycle-following out-port; indexed by a failed
    port instead, the first port of its complementary cycle *)

val raw_sc_mask : t -> int array
(** [n]: each node's seen-hint contribution under the image's shortcut
    plane ({!Pr_core.Seen.mask_of} of the compiled plan) *)

val raw_live : t -> bool array
(** [m]: administrative liveness by base edge index *)

(** {2 The checkpoint codec}

    A self-checking textual serialisation of a full image — the
    {!Journal}'s checkpoint payload and the chaos campaign's deep-copy
    mechanism (a decoded image shares {e no} array with any other, unlike
    {!Delta.recompile}'s structural sharing, so its cells can be damaged
    in place without touching the original). *)

module Codec : sig
  val encode : t -> string
  (** Every array of the image, geometry header first, floats as the hex
      of their IEEE bit patterns (so decoding is bit-exact), ending in an
      FNV-1a checksum line.  [decode ~base (encode t)] satisfies
      [equal t] for any image of [base]'s lineage. *)

  val decode : base:t -> string -> (t, string) result
  (** Rebuild an image from {!encode} output.  [base] supplies the graph
      and geometry the blob must match (an image only makes sense over
      its base topology); every array is freshly allocated from the blob.
      [Error] with a one-line message on bad magic, geometry mismatch,
      checksum failure, or a truncated / unparsable row — never an
      exception. *)
end

(** {2 The delta overlay: incremental repair}

    A batch of administrative edits against an image's current state
    yields the next image of the lineage.  {!Delta.apply} is an exact
    repair of the parent's own columns, the dynamic shortest-path-tree
    update of Ramalingam and Reps (1996) and Narváez, Siu and Tzeng
    (2000).  It copies the four route planes once per batch; then, per
    destination, it re-solves the union of the parent-tree subtrees
    hanging under every removed or lengthened link that destination's tree
    uses, seeded from their live neighbours outside that union, and seeds
    each endpoint an added or shortened link improves, strictly or by a
    tie to a smaller id.  One decrease pass over the effective graph, on
    Dijkstra's queue and its smallest-id tie-break, settles the seeds; hop
    counts follow parents.  Only the cells of the nodes it settles or cuts
    off are written; no effective graph and no trees are built.

    The result is byte-equal to {!Delta.recompile} of the same
    administrative state under Dijkstra's own tie-break condition: no
    link weight is lost to rounding in a path sum (see
    {!Pr_graph.Dijkstra}).  Tests, [prcli swap] and the chaos
    crash-recovery campaign referee exactly this.

    The DD bit budget ([dd_bits]) is a header-format deployment
    constant: it stays the base image's whatever the edits do, exactly
    as deployed PR routers cannot renegotiate header width on a link
    flap. *)

module Delta : sig
  type change =
    | Down       (** administratively remove the link from SPF and LFA *)
    | Up         (** restore it at its current effective weight *)
    | Weight of float  (** set the effective weight *)

  type edit = { u : int; v : int; change : change }

  type error =
    | Not_a_node of { node : int; n : int }
    | Unknown_link of { u : int; v : int }
        (** not a link of the base topology (canonical orientation) *)
    | Duplicate_edit of { u : int; v : int }
        (** one batch edits the same link twice *)
    | Bad_weight of { u : int; v : int; weight : float }
        (** non-finite or non-positive weight *)
    | Redundant_edit of { u : int; v : int; what : string }
        (** the edit would not change the administrative state (down on a
            down link, up on a live one, a weight it already has) *)

  val describe_error : error -> string

  type stats = {
    edits : int;   (** batch size *)
    dirty : int;   (** destinations repaired: those where the batch cut a
                       tree link or improved an endpoint *)
    full : bool;   (** always [false]: {!apply} never recompiles in full.
                       Kept because the end-to-end benchmark reads it
                       (its [delta.full_fallbacks] count). *)
  }

  val describe_stats : stats -> string

  val apply : t -> edit list -> (t * stats, error) result
  (** Apply one batch atomically: validation errors leave no trace, and
      the returned image is the batch's effective topology, repaired as
      above.  The parent image is never mutated.  Measured against a
      full recompile on a BA n = 1000 image, a batch that takes the
      hub's 74 links down costs under half of one (DESIGN.md §6e). *)

  val apply_exn : t -> edit list -> t * stats
  (** [Invalid_argument] with {!describe_error} on error. *)

  val recompile : t -> t
  (** Full recompile of the image's current effective topology — an SPF
      of every destination over a rebuilt effective graph, through
      {!of_tables}' fill, none of [t]'s route cells read.  The referee:
      [recompile t] is byte-equal to [t] whenever {!apply} is sound; the
      differential suite pins exactly this.  Files [fib.compile.routes]
      and {!last_compile_costs}. *)
end
