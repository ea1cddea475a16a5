(** Undirected, simple, positively-weighted graphs with dense integer nodes.

    This is the substrate every other library builds on: nodes are
    [0 .. n-1], edges are unordered pairs with a strictly positive weight.
    The structure is immutable once created; "removing" edges (to model
    failures) produces a view through {!val:Failureable} helpers in client
    code, or a fresh graph through {!without_edges}. *)

type t

type edge = { u : int; v : int; w : float }
(** Canonical representation has [u < v]. *)

val create : n:int -> (int * int * float) list -> t
(** [create ~n edges] builds a graph with [n] nodes.  Raises
    [Invalid_argument] on: out-of-range endpoints, self loops, duplicate
    edges (in either orientation), non-positive or non-finite weights. *)

val unweighted : n:int -> (int * int) list -> t
(** All weights 1.0. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges. *)

val neighbours : t -> int -> int array
(** Neighbours in increasing id order.  The returned array is owned by the
    graph and must not be mutated. *)

val degree : t -> int -> int

val port : t -> int -> int -> int
(** [port g v w] is the index of [w] in [neighbours g v] — [w]'s port at
    [v] — or [-1] when [w] is not adjacent to [v].  A binary search of
    the sorted row.  Raises [Invalid_argument] if [v] is out of range. *)

val slot_weights : t -> int -> float array
(** [slot_weights g v] holds, slot for slot with [neighbours g v], the
    weight of the link to each neighbour: [(slot_weights g v).(p)] is
    [weight g v (neighbours g v).(p)].  Owned by the graph, must not be
    mutated.  Raises [Invalid_argument] if [v] is out of range. *)

val slot_edges : t -> int -> int array
(** [slot_edges g v] holds, slot for slot with [neighbours g v], the
    edge index of the link to each neighbour.  Owned by the graph, must
    not be mutated.  Raises [Invalid_argument] if [v] is out of range. *)

val max_degree : t -> int

val has_edge : t -> int -> int -> bool

val weight : t -> int -> int -> float
(** Weight of the edge between two adjacent nodes: {!port} plus a slot
    read.  Raises [Not_found] if they are not adjacent, an out-of-range
    node included. *)

val edge_index : t -> int -> int -> int
(** Dense index in [\[0, m)] of the edge between two adjacent nodes (raises
    [Not_found] otherwise, an out-of-range node included).  Stable across
    both orientations. *)

val edge : t -> int -> edge
(** Edge by dense index. *)

val edges : t -> edge array
(** All edges, canonical orientation, in index order.  Owned by the graph. *)

val fold_edges : (int -> edge -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over (index, edge). *)

val iter_edges : (int -> edge -> unit) -> t -> unit

val total_weight : t -> float

val without_edges : t -> (int * int) list -> t
(** Fresh graph with the listed edges removed.  Unknown edges are an
    [Invalid_argument]. *)

val induced : t -> int list -> t * int array
(** [induced g nodes] is the subgraph induced by [nodes] (deduplicated),
    together with the mapping from new ids to original ids. *)

val equal_structure : t -> t -> bool
(** Same node count and same weighted edge set.  [true] at once when the
    two are the same graph ([==]); distinct graphs cost one binary search
    per edge.  Edge order is not compared: two structurally equal
    graphs may number their edges differently, so an edge index is only
    meaningful in the graph that issued it. *)

val pp : Format.formatter -> t -> unit
