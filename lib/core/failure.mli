(** Failure sets: bidirectional link failures (paper §4 assumption).

    Node (router) failures — the other half of the paper's title — are
    modelled as the failure of every link incident to the node, which is
    how a neighbouring PR router perceives them. *)

type t

val none : Pr_graph.Graph.t -> t

val of_list : Pr_graph.Graph.t -> (int * int) list -> t
(** Raises [Invalid_argument] if a pair is not an edge of the graph.
    Duplicates are tolerated. *)

val of_nodes : Pr_graph.Graph.t -> int list -> t
(** Every link incident to any of the nodes fails.  Raises
    [Invalid_argument] on out-of-range nodes. *)

val combine : t -> t -> t
(** Union of two failure sets over structurally equal graphs
    ([Invalid_argument] otherwise), over the first one's graph.  The
    second set's links are carried over by their endpoints, so the two
    graphs may number their edges differently. *)

val graph : t -> Pr_graph.Graph.t

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f u v] once per failed link, with its endpoints in
    canonical orientation ([u < v]), in increasing edge index of
    {!graph}.  Costs one read per 63 edges plus a bit scan of each word
    holding a failed link: no hashtable probe.  Endpoints, unlike edge
    indices, mean the same link in every structurally equal graph. *)

val is_failed : t -> int -> int -> bool
(** By endpoints (either orientation).  Raises [Not_found] when they are
    not adjacent. *)

val is_failed_index : t -> int -> bool
(** By dense edge index; usable as Dijkstra's [blocked]. *)

val link_up : t -> int -> int -> bool

val edges : t -> (int * int) list
(** Canonical orientation, sorted. *)

val count : t -> int

val survives_connected : t -> bool
(** Is the surviving graph connected? *)

val pair_connected : t -> int -> int -> bool
(** Are the two nodes still connected in the surviving graph? *)

val pp : Format.formatter -> t -> unit
