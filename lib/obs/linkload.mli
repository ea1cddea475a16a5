(** Per-directed-link load accounting.

    A link-load table is the spatial complement to
    {!Pr_telemetry.Probe}'s per-packet view: one row per directed link
    [(node, port)], counting every transmission placed on that link,
    split by what the deciding router was doing:

    - {b shortest-path}: plain routed forwarding (PR bit clear) —
      including a ladder routed-resume, where the packet re-enters plain
      routing;
    - {b recycled}: PR-mode forwarding — an episode start or cycle
      following (PR bit set on the wire) that no ladder rung forced;
    - {b rescue}: a hop forwarded because a graceful-degradation rung
      fired (complementary retry or LFA hand-off);
    - {b shortcut}: the first routed hop after a deja-vu shortcut
      cleared the PR bit mid-cycle (the shortcut rung).

    The layout matches the compiled FIB image: a flat array indexed
    [node * ports + port], where a port is the index of the next hop in
    [Graph.neighbours] (increasing id) order — identical numbering to
    {!Pr_fastpath.Fib}, so the kernel records with the port it already
    holds and the reference walks record through {!port_of}.  Feeding is
    allocation-free (mutable preallocated arrays, same plane discipline
    as {!Pr_telemetry.Probe}); counters are plain ints, so merging
    per-domain tables in any fixed order is bit-identical.

    A transmission is counted when the packet is placed on the wire,
    {e before} any stale-view wire death: the link carried the packet
    either way, and both backends agree on the accounting point. *)

type t

val create : Pr_graph.Graph.t -> t
(** All counters zero.  Port width is the graph's maximum degree. *)

val n : t -> int

val ports : t -> int

(** {2 Hop classes} *)

val cls_shortest : int

val cls_recycled : int

val cls_rescue : int

val cls_shortcut : int

val class_names : string array
(** ["shortest-path"; "recycled"; "rescue"; "shortcut"], indexed by
    class. *)

(** {2 Feeding} *)

val record : t -> node:int -> port:int -> cls:int -> unit
(** Count one transmission from [node] out of [port].  Allocation-free;
    indices are not checked — callers pass a port below [node]'s
    degree and a class below 4. *)

val port_of : t -> node:int -> next:int -> int
(** Port of neighbour [next] at [node], or [-1] if not adjacent:
    {!Pr_graph.Graph.port} on the table's graph, a binary search of
    [node]'s neighbour row (the compiled kernel records by port and
    never calls this). *)

val record_next : t -> node:int -> next:int -> cls:int -> unit
(** {!record} through {!port_of}; ignores non-adjacent pairs. *)

val footprint_bytes : t -> int
(** Exact payload bytes of the counters ([n * ports * 4] one-word
    cells, header excluded) — the table's only array; ports are read
    through the graph — the per-table line of the scale observatory's
    memory accounting. *)

val raw_counts : t -> int array
(** The counters array itself, laid out [(node * ports + port) * 4 +
    cls].  Exposed for the compiled kernel's hot loop, which bumps a
    slot with local array arithmetic instead of paying a cross-module
    call per hop (the difference is measurable on cycle-heavy sweeps).
    Treat it as a write-only feeding window; read through the
    accessors. *)

(** {2 Aggregation} *)

val reset : t -> unit

val merge : into:t -> t -> unit
(** Slot-wise integer sums.  Raises [Invalid_argument] on dimension
    mismatch. *)

val equal : t -> t -> bool
(** Same dimensions and identical counts in every slot. *)

(** {2 Reading} *)

val get : t -> node:int -> port:int -> cls:int -> int

val load : t -> node:int -> port:int -> int
(** Total over the four classes. *)

val total : t -> int

val class_total : t -> cls:int -> int

val max_load : t -> int
(** Largest {!load} over all directed links; 0 on an empty table. *)

val iter : t -> (node:int -> next:int -> counts:int array -> unit) -> unit
(** Visit every real directed link in [(node, port)] order.  [counts] is
    a scratch array of the four class counts, reused between calls. *)

val top : t -> k:int -> (int * int * int * int * int * int) list
(** The [k] hottest directed links as [(node, next, shortest, recycled,
    rescue, shortcut)], by total load descending, ties broken by
    [(node, port)] ascending. *)

val to_json : t -> string
(** [{"n": .., "ports": .., "total": .., "links": [{"from", "to",
    "shortest", "recycled", "rescue", "shortcut"}, ..]}] over links with
    non-zero load. *)
