(** A minimal JSON reader for the repo's own artifacts.

    The benchmark and telemetry emitters write JSON by hand
    ({!Pr_telemetry.Probe.to_json}, bench/main.ml); this is the matching
    reader, used by [prcli history] to parse committed
    [BENCH_*.json] files and by the test suite to schema-check them.  It
    is a strict recursive-descent parser over the JSON subset those
    emitters produce — no streaming, no extensions — and is in no hot
    path. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in source order *)

val parse : string -> (t, string) result
(** Whole-input parse; the error is a one-line human message with a
    character offset. *)

val parse_file : string -> (t, string) result
(** [parse] over a file's contents; I/O errors become [Error]. *)

(** {2 Accessors} — total, returning [None] on shape mismatch *)

(** {2 Emission helpers} *)

val number : float -> string
(** Shortest decimal representation that parses back to exactly [x]
    (tries 15, 16, then 17 significant digits), for the hand-rolled
    JSON writers: [0.9] stays ["0.9"], not ["0.90000000000000002"].
    Non-finite values become ["null"]. *)

val member : string -> t -> t option
(** First member with that key of an [Obj]. *)

val num : t -> float option

val str : t -> string option

val list : t -> t list option
