(** Epoch-ordered hot publication of {!Fib} images (RCU-style).

    A store holds one lineage of images: epoch 0 is the base image, each
    {!publish} appends the next epoch and makes it current.  Forwarding
    never observes a torn image because images are immutable — a swap is
    one pointer move — and never loses the image under its feet because
    readers {!pin} the epoch they forward on.  A superseded epoch sits
    in its {e grace period} until its last pin drops, at which point it
    is retired and the store releases its image, so a long session holds
    only the images still in use; {!stats} exposes the accounting the
    zero-loss invariant monitor checks (every admitted packet completes
    on the image it pinned, and images retire only after draining).

    Publication and pin churn happen at control-plane rate (per edit
    batch, per scenario item) under one mutex — nothing here rides the
    per-packet hot loop.  All operations are safe from any domain. *)

type t

type stats = {
  current_epoch : int;  (** epoch of the image new pins receive *)
  published : int;      (** images published, the base included *)
  live_pins : int;      (** outstanding pins across all epochs *)
  retired : int;        (** superseded epochs whose grace period ended *)
}

val create : Fib.t -> t
(** A store holding [fib] as epoch 0. *)

val publish : t -> Fib.t -> int
(** Append the next image and make it current; returns its epoch.  The
    superseded image enters its grace period (and retires immediately if
    nothing pins it).  Raises [Invalid_argument] if the image's geometry
    (node count, port width, DD bit budget) differs from the lineage —
    {!Fib.Delta} images always agree. *)

val epoch : t -> int

val current : t -> Fib.t
(** Peek at the current image without pinning — for callers that only
    read control-plane state, never forward. *)

val pin : t -> int * Fib.t
(** Pin the current image for forwarding; returns [(epoch, image)].
    Balance with {!unpin}. *)

val pin_at : t -> epoch:int -> Fib.t
(** Pin a specific published epoch — the deterministic-schedule hook:
    {!Parallel.run_swapped} resolves each item's epoch from the item
    index, so verdicts cannot depend on wall-clock swap timing.  Raises
    [Invalid_argument] if the epoch was never published or is already
    retired. *)

val unpin : t -> epoch:int -> unit
(** Drop one pin.  If the epoch is superseded and this was its last pin,
    its grace period ends and it retires.  Raises [Invalid_argument] on
    an unbalanced unpin. *)

val stats : t -> stats

val quiescent : t -> bool
(** No outstanding pins and every superseded epoch retired — the state a
    drained simulation must end in. *)
