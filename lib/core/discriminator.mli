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
    integer ceiling for weighted costs.  The one DD quantiser.  An
    unreachable node's value, [infinity], quantises to [0] under both
    kinds: an explicit value where [int_of_float infinity] is
    unspecified, and the one every compiled image and checkpoint holds
    in its unreachable cells. *)

val of_cell : kind -> dist:float -> q:int -> float
(** The {!value} a compiled cell stands for, from the node's distance to
    the root and its {!quantise}d value: [dist] under [Weighted]; under
    [Hops] the hop count [q], or [infinity] where [dist] is.  FIB images
    store only [q] and the distance, and read the value back through
    this rule. *)

val cell : kind -> int array -> int -> dist:float -> hops:int -> unit
(** [cell kind disc_q i ~dist ~hops] stores at [disc_q.(i)] the
    {!quantise}d {!value} of a node [dist] away from the root over a path
    of [hops] hops ([infinity] and [max_int] when unreachable).  [hops]
    is read only under [Hops], [dist] only under [Weighted].  The one DD
    cell writer: {!column} and the FIB repair of [Fib.Delta] both write
    through it. *)

val column : kind -> Pr_graph.Dijkstra.tree -> int array -> unit
(** [column kind tree disc_q] stores every node [x]'s {!quantise}d
    {!value} at [disc_q.(x)]: the tree's DD column, without
    allocating. *)

val bits_of_trees : kind -> Pr_graph.Dijkstra.tree array -> int
(** DD bits to carry the largest quantised value the trees assign to a
    reachable node, [d]: [ceil (log2 (d + 1))]. *)

val bits_needed : kind -> Pr_graph.Graph.t -> int
(** Number of DD bits PR needs on this graph: {!bits_of_trees} over
    [Dijkstra.all_roots g], where [d] is the (hop or weighted, rounded
    up) diameter.  This is the paper's O(log2 d) header-overhead
    claim. *)

val to_string : kind -> string
