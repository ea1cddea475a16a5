(** Fixed-capacity mutable bitsets over integers [0 .. capacity-1].

    Used to mark visited arcs during face tracing and visited states during
    forwarding-loop detection. *)

type t

val create : int -> t
(** All bits clear. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val clear : t -> unit
(** Reset every bit. *)

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Members in increasing order.  Zero words are skipped, so a sparse set
    costs [capacity / 63] word reads plus a bit scan of each non-zero
    word. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** In {!iter}'s order. *)

val to_list : t -> int list
(** Members in increasing order. *)
