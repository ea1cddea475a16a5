(** Hop-level packet tracing: the flight recorder under both data planes.

    A {!sink} is handed to the forwarding engines
    ({!Pr_core.Forward.run_guarded}, {!Pr_fastpath.Kernel.run_one}); at
    each decision point the engine emits one {!event}.  The reference and
    compiled engines emit at textually matching points, so two runs of the
    same packet produce {e structurally equal} event lists — the
    telemetry differential suite pins this.

    Events carry no timestamps (a sink may stamp them itself), so
    cross-backend comparison is plain [=].  The {!null} sink compiles to
    zero work: emission sites are guarded by {!enabled}, which is a
    single pattern match, and the event is never even constructed. *)

(** Which rung of the graceful-degradation ladder took the packet
    (see {!Pr_core.Forward.ladder_step}). *)
type rung = Routed_resume | Retry_complementary | Lfa_rescue

val rung_name : rung -> string

type event =
  | Hop of { node : int; next : int; pr : bool; dd : float }
      (** the packet left [node] for [next] carrying this header *)
  | Pr_set of { node : int; dd : float }
      (** [node] set the PR bit and wrote [dd] into the DD bits (a new
          cycle-following episode) *)
  | Dd_compare of {
      node : int;
      local_dd : float;
      header_dd : float;
      cleared : bool;
    }
      (** the §4.3 termination comparison: [cleared] means the local
          discriminator won and the PR bit was cleared (resume routing);
          otherwise cycle following continues on the complementary cycle *)
  | Dd_refused of { node : int }
      (** both discriminators sat at the header clamp — the comparison is
          unsound and the packet takes the ladder instead *)
  | Dd_saturated of { node : int; dd : float }
      (** a DD write was clamped to the header maximum [dd] *)
  | Shortcut of { node : int; local_dd : float; header_dd : float }
      (** deja-vu at [node]: the seen-node hint fired, the proactive §4.3
          comparison [local_dd < header_dd] held, the primary interface
          was up — the PR bit was cleared and routing resumed without
          waiting for a failure encounter (the shortcut rung) *)
  | Complementary of { node : int; failed : int }
      (** [node] entered the complementary cycle of its failed interface
          towards [failed] *)
  | Rung of { node : int; rung : rung; reason : string }
      (** the ladder chose [rung]; [reason] names the drop reason that
          would apply if every rung failed
          ({!Pr_core.Forward.drop_reason_name}) *)
  | Divergence of { node : int; other : int; believed_up : bool }
      (** detector belief at [node] about the link to [other] diverged
          from the truth at the moment it mattered *)
  | Drop of { node : int; reason : string }
      (** verdict: dropped at [node] ({!Pr_core.Forward.drop_reason_name},
          or ["corrupt"]) *)
  | Deliver of { node : int; hops : int }   (** verdict: delivered *)
  | Expire of { node : int; hops : int }
      (** verdict: TTL exhausted at [node] *)

type sink = Null | Emit of (event -> unit)

val null : sink
(** The no-op sink.  Guard emission with {!enabled} so the event itself
    is never allocated:
    [if Trace.enabled t then Trace.emit t (Trace.Hop { ... })]. *)

val enabled : sink -> bool

val emit : sink -> event -> unit

(** {2 Sinks} *)

(** Bounded in-memory capture: keeps the first [capacity] events and
    counts the overflow. *)
module Ring : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity: 4096 events. *)

  val sink : t -> sink

  val events : t -> event list
  (** Oldest first. *)

  val length : t -> int

  val dropped : t -> int
  (** Events discarded after the buffer filled. *)

  val clear : t -> unit
end

(** Streaming capture: one JSON object per event, one event per line. *)
module Jsonl : sig
  val sink : out_channel -> sink
end

(** {2 Rendering} *)

val event_to_json : event -> string
(** One-line JSON object, schema-stable key order. *)

val pp_event : ?label:(int -> string) -> Format.formatter -> event -> unit
(** Human-readable one-liner; [label] renders node ids (default
    [string_of_int]). *)

val render : ?label:(int -> string) -> event list -> string
(** The annotated hop trace [prcli explain] prints: numbered hop lines
    with the decision events indented under the hop they precede. *)
