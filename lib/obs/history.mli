(** The perf-history anomaly observatory behind [prcli history].

    Replaces the flat 1.15x bench-history gate with a trend view:
    every committed BENCH_*.json and every FLIGHT_*.jsonl flight
    ledger under a directory is folded into named series —
    ["bench.<suite>"] (one point per artifact, sorted-name order) and
    ["flight.<cmd>.<metric>{backend=…,knob=…}"] (one point per ledger
    record, append order; a record's backend and knobs qualify its key,
    so runs of another backend, topology or width never pool, and a
    record with neither keeps the bare ["flight.<cmd>.<metric>"]) — and
    each series is assessed for a regression in its {e latest} point.

    Assessment rules, by series length:
    - [n >= min_points] ({b mad}): robust z-score of the latest point
      against the series median and median absolute deviation;
      anomalous iff [z > z_threshold] {e and} the latest exceeds the
      median by [rel_threshold] relatively.
    - [2 <= n < min_points] ({b flat}): the historical gate — latest
      over the best earlier point, anomalous above [flat_threshold].
    - [n = 1] ({b single}): never anomalous.

    All tracked quantities are costs (ratios, normalised times), so
    only increases count as anomalies. *)

type point = { source : string;  (** file (or file:line) it came from *)
               value : float }

type series = { key : string; points : point list  (** oldest first *) }

type rule = Mad | Flat | Single

type verdict = {
  key : string;
  n : int;
  median : float;
  mad : float;
  latest : float;
  z : float;
      (** robust z of the latest point (0 under Flat/Single; [infinity]
          when MAD is zero and the latest sits above the median) *)
  ratio : float;  (** latest / median (Mad) or latest / best-of-rest (Flat) *)
  rule : rule;
  anomaly : bool;
  spark : string;  (** UTF-8 text sparkline of the whole series *)
}

type report = {
  dir : string;
  verdicts : verdict list;
  anomalies : int;
  errors : string list;  (** unreadable files or ledger lines; non-fatal *)
}

val scan : ?ledger:string -> dir:string -> unit -> series list * string list
(** Gather series from [dir] (BENCH_*.json and FLIGHT_*.jsonl) plus an
    optional explicit ledger path; returns warnings alongside. *)

val assess :
  ?z_threshold:float ->
  ?rel_threshold:float ->
  ?flat_threshold:float ->
  ?min_points:int ->
  series ->
  verdict
(** Defaults: [z_threshold = 3.5], [rel_threshold = 1.05],
    [flat_threshold = 1.15], [min_points = 5].  Raises
    [Invalid_argument] on an empty series. *)

val run :
  ?ledger:string ->
  ?z_threshold:float ->
  ?rel_threshold:float ->
  ?flat_threshold:float ->
  ?min_points:int ->
  ?extra:(string * point) list ->
  dir:string ->
  unit ->
  report
(** Scan, append any [extra] freshly measured points to their named
    series (creating the series if absent), and assess everything. *)

val render : report -> string
(** Human-readable table with sparklines and per-series verdicts. *)

val to_json : report -> string
(** The machine-readable regression report for CI:
    [{"schema": "pr.history/1", "anomalies": …, "series": […]}]. *)
