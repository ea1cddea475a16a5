(** Mutable binary min-heap keyed by float priorities.

    Used by the simulator's event queue ([Pr_sim.Event]), whose events
    pop in time order and, at equal times, in scheduling order.  Duplicate
    inserts of the same payload are allowed.  (Dijkstra keeps its own
    indexed heap over flat arrays.) *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h priority payload] inserts an entry. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the entry with the smallest priority.  Ties are broken
    by insertion order (first inserted pops first), which keeps algorithms
    built on the heap deterministic. *)

val peek : 'a t -> (float * 'a) option

val clear : 'a t -> unit
