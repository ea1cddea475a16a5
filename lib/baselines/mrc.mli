(** Multiple Routing Configurations (Kvalbein et al., INFOCOM 2006) —
    IPFRR via precomputed backup configurations, cited by the paper as
    prior work ([7]).

    This is the link-protecting variant: the link set is partitioned into
    a small number of backup configurations; each configuration's routing
    avoids its own links (they are "isolated") while the surviving links
    keep the graph connected.  When forwarding hits a failed link, the
    packet is stamped with the configuration that isolates it (log2 of the
    number of configurations in the header) and follows that
    configuration's shortest paths to the destination.  A second distinct
    failure in the backup configuration is not covered — the partial
    coverage PR's full-coverage claim is measured against. *)

type t

val build : ?max_configurations:int -> Pr_graph.Graph.t -> t option
(** Greedy partition of the links into at most [max_configurations]
    (default 8) isolation classes whose removal keeps the graph connected.
    [None] when the graph is not 2-edge-connected (a bridge can never be
    isolated) or the budget does not suffice. *)

val configurations : t -> int

val isolating_configuration : t -> int -> int -> int
(** The configuration that isolates the given link.  Raises [Not_found]
    for non-links. *)

val header_bits : t -> int
(** Bits to name a configuration: [ceil log2 (configurations + 1)]
    (configuration 0 is normal routing). *)

type outcome = Delivered | Dropped | Ttl_exceeded

type trace = {
  outcome : outcome;
  path : int list;
  switched_to : int option;  (** backup configuration used, if any *)
}

val run :
  ?ttl:int ->
  t ->
  failures:Pr_core.Failure.t ->
  src:int ->
  dst:int ->
  unit ->
  trace
(** Normal shortest-path forwarding; on the first failed link, switch
    permanently to the isolating configuration; a further failed link in
    that configuration drops the packet (MRC is a single-failure
    mechanism).  The walk ends when its TTL reaches exactly 0, so TTL 0
    expires at the source; a negative [ttl] raises [Invalid_argument]
    before the walk, as do out-of-range nodes and [src = dst]. *)

val stretch :
  routing:Pr_core.Routing.t -> trace:trace -> src:int -> dst:int -> float
