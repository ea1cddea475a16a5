(** Outcome accounting for simulation runs.

    Beyond the seed counters, drops carry a {e reason} and the
    degradation-ladder events of {!Pr_core.Forward.ladder_step} are
    counted, so a run's losses can be read as a breakdown rather than one
    opaque number ([prcli detect] surfaces it). *)

type drop_reason =
  | No_route           (** no routing entry at some router *)
  | Interfaces_down    (** every interface of some router believed down *)
  | No_alternate       (** LFA: primary down and no usable alternate *)
  | Continuation_lost  (** PR continuation unusable, ladder exhausted *)
  | Budget_exhausted   (** hop-budget guard fired, ladder exhausted *)
  | Stale_view
      (** sent into a link the sender wrongly believed up — the packet
          died on the wire *)
  | Unclassified       (** legacy call sites that do not say *)
  | Corrupt
      (** guard mode detected corrupted header or FIB state and dropped
          the packet with a {!Pr_core.Forward.fault} locus *)

val all_reasons : drop_reason list

val reason_name : drop_reason -> string

val reason_of_forward : Pr_core.Forward.drop_reason -> drop_reason

type t = {
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;       (** dropped at a failed link / no route *)
  mutable looped : int;        (** TTL exhausted although a path existed *)
  mutable unreachable : int;   (** destination disconnected at injection time:
                                   no scheme could have delivered *)
  mutable stretch_sum : float; (** over delivered packets *)
  mutable worst_stretch : float;
  drops_by_reason : int array; (** indexed as {!all_reasons}; use
                                   {!drop_count} / {!drop_breakdown} *)
  mutable complementary_retries : int;
  mutable lfa_rescues : int;
  mutable dd_saturations : int;
  mutable shortcut_exits : int;
      (** deja-vu shortcut grants ({!Pr_core.Forward.run}'s [shortcuts],
          the kernel's [shortcut_exits]) *)
}

val create : unit -> t

val record_delivery : t -> stretch:float -> unit

val record_drop : ?reason:drop_reason -> t -> unit
(** Default reason: {!Unclassified} (the seed behaviour). *)

val record_loop : t -> unit

val record_unreachable : t -> unit

val record_degradation : t -> Pr_core.Forward.degradation -> unit

val record_degradations : t -> Pr_core.Forward.degradation list -> unit

val record_shortcuts : t -> int -> unit
(** Account [k] shortcut grants (a walk's [shortcuts] count). *)

val of_fastpath : Pr_fastpath.Kernel.counters -> t
(** Shape a batch kernel's counters as a metrics record (reason slots
    mapped by name; the kernel's extra PR counters are dropped).  Used by
    [prcli bench] and the determinism suite to print {!Pr_fastpath.Parallel}
    results with {!pp}. *)

val drop_count : t -> drop_reason -> int

val drop_breakdown : t -> (drop_reason * int) list
(** Every reason with its count — zero counts included — in
    {!all_reasons} order, so breakdowns are line-comparable across
    runs. *)

val delivery_ratio : t -> float
(** Delivered over deliverable (injected minus unreachable). *)

val mean_stretch : t -> float
(** Over delivered packets; 0 when none. *)

val pp : Format.formatter -> t -> unit
(** The seed one-liner, plus a [drops[...]] / [degraded[...]] suffix only
    when classified drops or ladder events occurred. *)
