(** Distance discriminators (paper §4.3).

    A discriminator is a strictly increasing function of the links along
    the shortest path to a destination.  The paper proposes two candidates:
    the hop count and the sum of link weights along that path.  Termination
    of cycle following compares the local discriminator against the value
    carried in the packet's DD bits. *)

type kind =
  | Hops      (** hop count along the chosen shortest path; needs
                  ~log2(diameter) DD bits *)
  | Weighted  (** weighted cost of the chosen shortest path *)

val value : kind -> Pr_graph.Dijkstra.tree -> int -> float
(** [value kind tree v] — discriminator from [v] to the tree's root.
    [infinity] when unreachable. *)

val quantise : kind -> float -> int
(** A value as carried in the DD bits: the identity for hop counts, the
    integer ceiling for weighted costs.  The one DD quantiser. *)

val column :
  kind ->
  Pr_graph.Dijkstra.tree ->
  disc:float array ->
  disc_q:int array ->
  first:int ->
  stride:int ->
  unit
(** [column kind tree ~disc ~disc_q ~first ~stride] stores every node
    [x]'s {!value} at [disc.(first + x * stride)] and its {!quantise}d
    value at the same index of [disc_q]: the tree's column of a
    node-major table, without allocating. *)

val bits_of_trees : kind -> Pr_graph.Dijkstra.tree array -> int
(** DD bits to carry the largest quantised value the trees assign to a
    reachable node, [d]: [ceil (log2 (d + 1))]. *)

val bits_needed : kind -> Pr_graph.Graph.t -> int
(** Number of DD bits PR needs on this graph: {!bits_of_trees} over
    [Dijkstra.all_roots g], where [d] is the (hop or weighted, rounded
    up) diameter.  This is the paper's O(log2 d) header-overhead
    claim. *)

val to_string : kind -> string
