(** Loop-Free Alternates (RFC 5286) — the canonical IPFRR scheme the paper
    cites as prior work that covers only some failures.

    A neighbour [w] of [x] is a loop-free alternate for destination [d]
    protecting the primary next hop when
    [dist w d < dist w x + dist x d]: sending to [w] cannot loop back
    through [x].  Unlike PR, coverage is partial; {!coverage} quantifies
    the gap the paper's full-coverage claim closes. *)

type alternates = {
  primary : int;
  alternate : int option;  (** best (lowest-cost) LFA, if any *)
}

val alternates_for :
  Pr_core.Routing.t -> node:int -> dst:int -> alternates option
(** [None] at the destination or when it is unreachable. *)

val coverage : Pr_core.Routing.t -> float
(** Fraction of (node, destination) pairs with a usable LFA, over all
    pairs that have a next hop.  1.0 would be full single-failure
    coverage. *)

type outcome = Delivered | Dropped | Ttl_exceeded

type trace = { outcome : outcome; path : int list }

val run :
  ?ttl:int ->
  Pr_core.Routing.t ->
  failures:Pr_core.Failure.t ->
  src:int ->
  dst:int ->
  unit ->
  trace
(** Forwarding with LFA repair: primary next hop if up, otherwise the LFA
    if one exists (packets repaired by an LFA are forwarded normally
    downstream), otherwise the packet is dropped.  The walk ends when its
    TTL reaches exactly 0, so TTL 0 expires at the source; a negative
    [ttl] raises [Invalid_argument] before the walk, as do out-of-range
    nodes and [src = dst]. *)

val stretch : routing:Pr_core.Routing.t -> trace:trace -> src:int -> dst:int -> float
