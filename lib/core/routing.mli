(** Failure-free routing tables with the PR distance-discriminator column.

    One destination-rooted shortest-path tree per destination (the result
    of an SPF run, paper §2), extended with the discriminator column of
    paper §4.3.  Tables are computed on the failure-free topology — routers
    never learn about remote failures under PR. *)

type t

val build : ?kind:Discriminator.kind -> Pr_graph.Graph.t -> t
(** Default discriminator: {!Discriminator.Hops}. *)

val build_blocked :
  ?kind:Discriminator.kind -> Pr_graph.Graph.t -> blocked:(int -> bool) -> t
(** {!build} with the links whose edge index satisfies [blocked] excluded
    from every SPF run — the control plane's view after administrative
    link removals.  The discriminator bit budget ({!dd_bits}) is a
    function of the full graph and does not shrink (one extra SPF pass). *)

val graph : t -> Pr_graph.Graph.t

val kind : t -> Discriminator.kind

val tree : t -> int -> Pr_graph.Dijkstra.tree
(** The SPF tree of one destination — what the FIB compiler reads the
    route columns off.  Raises [Invalid_argument] out of range. *)

val next_hop : t -> node:int -> dst:int -> int option
(** [None] at the destination itself or when the destination is
    unreachable even without failures. *)

val disc : t -> node:int -> dst:int -> float
(** The distance-discriminator column. *)

val distance : t -> node:int -> dst:int -> float
(** Weighted shortest-path cost. *)

val hops : t -> node:int -> dst:int -> int

val shortest_path : t -> src:int -> dst:int -> int list option
(** The concrete path forwarding would take, [src; ...; dst]. *)

val dd_bits : t -> int
(** DD bits PR needs with this table's discriminator on this graph,
    computed once at build: reading it runs no SPF. *)

val quantise_dd : t -> float -> int
(** [Discriminator.quantise (kind t)]. *)

val memory_entries : t -> int
(** Total routing-table entries across all routers: n * (n - 1)
    (next hop + discriminator per destination).  Used by the overhead
    report. *)
