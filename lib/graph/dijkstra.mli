(** Single-source shortest paths with deterministic tie-breaking.

    Routing in the paper is destination-rooted: [tree g ~root:d] yields, for
    every node [v], the next hop from [v] towards [d] ([parent]), the path
    cost ([dist]) and the hop count along the chosen shortest path ([hops]).
    Because edge weights are symmetric, the tree rooted at the destination
    gives each node's forwarding entry for that destination, exactly like an
    OSPF/IS-IS SPF run.

    Ties are broken towards the smaller parent id so that the forwarding
    tables — and therefore every experiment — are reproducible.  When no
    link weight is lost to rounding in a path sum, every equal-cost
    predecessor of a node has a smaller distance and settles before it, so
    the chosen parent does not depend on the queue's pop order.  A weight
    below half an ulp of the path cost it is added to ([d +. w = d]) breaks
    this: the parent is then still a tight neighbour, but not always the
    smallest-id one. *)

type tree = private {
  root : int;
  dist : float array;   (** [dist.(v)] = cost from [v] to [root]; [infinity] if unreachable *)
  parent : int array;   (** next hop from [v] towards [root]; [root] at the root; [-1] if unreachable *)
  hops : int array;     (** hop count of the chosen shortest path; [max_int] if unreachable *)
}

val tree : ?blocked:(int -> bool) -> Graph.t -> root:int -> tree
(** [blocked i] hides edge index [i] (used to model failed links without
    rebuilding the graph).  The queue is an indexed binary heap over flat
    arrays: relaxing an arc reads the graph's slot rows and allocates
    nothing. *)

val all_roots : ?blocked:(int -> bool) -> Graph.t -> tree array
(** One tree per root; index = root id.  The roots share one queue, so a
    tree costs only its own three arrays. *)

val spf : Graph.t -> int -> tree
(** [spf g root] is [tree g ~root]; the calls of one [spf g] share one
    queue, as the roots of [all_roots] do.  A FIB recompile solves its
    dirty destinations this way.  One [spf g] must not be called from two
    domains at once. *)

val reachable : tree -> int -> bool

val next_hop : tree -> int -> int option
(** Next hop towards the root, [None] at the root itself or if unreachable. *)

val distance : tree -> int -> float

val hop_count : tree -> int -> int

val path_to_root : tree -> int -> int list option
(** Node sequence [v; ...; root], [None] if unreachable. *)

val diameter_hops : Graph.t -> int
(** Maximum over connected pairs of the hop count of the chosen shortest
    paths.  0 for graphs with no connected pair. *)

val diameter_weight : Graph.t -> float
