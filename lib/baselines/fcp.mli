(** Failure-Carrying Packets (Lakshminarayanan et al., SIGCOMM 2007) — the
    paper's main comparator.

    Packets accumulate the failed links they encounter; every router
    forwards along the shortest path of the failure-free map minus the
    failures carried in the packet.  Delivery is guaranteed whenever the
    source and destination stay connected, at the cost of a per-packet
    failure list in the header and an SPF recomputation at every router
    that sees a new failure list. *)

type outcome = Delivered | Disconnected | Ttl_exceeded

type trace = {
  outcome : outcome;
  path : int list;            (** nodes visited, starting at the source *)
  recomputations : int;       (** SPF runs triggered by header changes *)
  carried : (int * int) list; (** failures in the header at the end *)
}

val run :
  ?ttl:int ->
  Pr_graph.Graph.t ->
  failures:Pr_core.Failure.t ->
  src:int ->
  dst:int ->
  unit ->
  trace
(** The walk ends when its TTL reaches exactly 0, so TTL 0 expires at
    the source; a negative [ttl] raises [Invalid_argument] before the
    walk, as do out-of-range nodes and [src = dst]. *)

val path_cost : Pr_graph.Graph.t -> trace -> float

val stretch : routing:Pr_core.Routing.t -> trace:trace -> src:int -> dst:int -> float
(** Traversed cost over the failure-free shortest-path cost; [infinity]
    when not delivered. *)

val bits_per_failure : Pr_graph.Graph.t -> int
(** Bits needed to name one link in the header: [ceil log2 m], at least 1. *)

val header_bits : Pr_graph.Graph.t -> trace -> int
(** Header overhead of the final packet: carried failures times
    {!bits_per_failure}. *)
