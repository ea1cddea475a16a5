(* The network observatory: per-link load accounting and timed series.

   - Cross-backend parity: the reference walks, the compiled kernel and
     the Domain-parallel driver produce structurally equal link-load
     tables (and bit-identical counters) on the all-pairs single-failure
     sweep — on Abilene and on Géant, at any domain count.
   - Table algebra: merge is slot-wise integer addition, reset zeroes,
     and both respect [equal].
   - Series windowing: events land in [time / width] windows, negative
     times clamp to window 0, and the report is dense.
   - Optional-argument plumbing (the audit pin): a probe, a link-load
     table and a series handed to [Engine.run] / [Timed.run] are
     actually fed — the probe's histograms sum to the outcome's
     delivered and walked counts, the series' verdict totals match, and
     reference/compiled engine runs fill equal tables.
   - Committed benchmark artifacts: BENCH_*.json files parse and carry
     the members the history tracker reads, with finite positive
     numbers. *)

module Graph = Pr_graph.Graph
module Json = Pr_util.Json
module Rng = Pr_util.Rng
module Linkload = Pr_obs.Linkload
module Series = Pr_obs.Series
module Report = Pr_report.Report
module Engine = Pr_sim.Engine
module Metrics = Pr_sim.Metrics
module Workload = Pr_sim.Workload
module Probe = Pr_telemetry.Probe
module Span = Pr_telemetry.Span

let abilene () =
  let topo = Pr_topo.Abilene.topology () in
  (topo, Pr_embed.Geometric.of_topology topo)

let geant () =
  let topo = Pr_topo.Geant.topology () in
  (topo, Pr_embed.Geometric.of_topology topo)

(* ---- cross-backend link-load parity ---- *)

let check_sweep name (s : Report.sweep) =
  Alcotest.(check bool)
    (name ^ ": reference = compiled = parallel link loads")
    true s.Report.loads_agree;
  Alcotest.(check bool)
    (name ^ ": parallel counters bit-identical")
    true s.Report.counters_agree;
  Alcotest.(check bool)
    (name ^ ": sweep recorded transmissions")
    true
    (Linkload.total s.Report.reference > 0);
  (* Every delivered packet walks at least one hop, so the table must
     carry at least one count per delivered packet. *)
  Alcotest.(check bool)
    (name ^ ": hop counts dominate packet count")
    true
    (Linkload.total s.Report.reference
    >= s.Report.counters.Pr_fastpath.Kernel.delivered)

let test_parity_abilene () =
  let topo, rotation = abilene () in
  List.iter
    (fun domains ->
      let s = Report.sweep ~domains topo rotation in
      check_sweep (Printf.sprintf "abilene x%d" domains) s)
    [ 1; 2; 4 ]

let test_parity_geant () =
  let topo, rotation = geant () in
  check_sweep "geant x3" (Report.sweep ~domains:3 topo rotation)

(* ---- table algebra ---- *)

let test_merge_reset () =
  let g = (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph in
  let a = Linkload.create g in
  let b = Linkload.create g in
  let rng = Rng.create ~seed:7 in
  let feed t rounds =
    for _ = 1 to rounds do
      let node = Rng.int rng (Graph.n g) in
      let deg = Array.length (Graph.neighbours g node) in
      let port = Rng.int rng (max 1 deg) in
      if deg > 0 then
        Linkload.record t ~node ~port ~cls:(Rng.int rng 3)
    done
  in
  feed a 500;
  feed b 300;
  let total_a = Linkload.total a and total_b = Linkload.total b in
  Linkload.merge ~into:a b;
  Alcotest.(check int) "merge adds slot-wise" (total_a + total_b)
    (Linkload.total a);
  Alcotest.(check bool) "merged differs from the addend" false
    (Linkload.equal a b);
  Linkload.reset a;
  Alcotest.(check int) "reset zeroes" 0 (Linkload.total a);
  Alcotest.(check bool) "reset table equals a fresh one" true
    (Linkload.equal a (Linkload.create g));
  let tiny = Linkload.create (Graph.create ~n:2 [ (0, 1, 1.0) ]) in
  Alcotest.check_raises "merge rejects dimension mismatch"
    (Invalid_argument "Linkload.merge: dimension mismatch") (fun () ->
      Linkload.merge ~into:a tiny)

let test_record_next_classes () =
  let g = (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph in
  let t = Linkload.create g in
  let x = 0 in
  let y = (Graph.neighbours g x).(0) in
  Linkload.record_next t ~node:x ~next:y ~cls:Linkload.cls_shortest;
  Linkload.record_next t ~node:x ~next:y ~cls:Linkload.cls_recycled;
  Linkload.record_next t ~node:x ~next:y ~cls:Linkload.cls_rescue;
  (* Non-adjacent pairs are ignored, not counted elsewhere. *)
  let z =
    let far = ref (-1) in
    for v = Graph.n g - 1 downto 0 do
      if v <> x && Linkload.port_of t ~node:x ~next:v < 0 then far := v
    done;
    !far
  in
  Alcotest.(check bool) "abilene has a non-adjacent pair" true (z >= 0);
  Linkload.record_next t ~node:x ~next:z ~cls:Linkload.cls_shortest;
  Alcotest.(check int) "one count per class" 3 (Linkload.total t);
  let port = Linkload.port_of t ~node:x ~next:y in
  Alcotest.(check int) "load sums the classes" 3
    (Linkload.load t ~node:x ~port);
  List.iter
    (fun cls ->
      Alcotest.(check int)
        (Linkload.class_names.(cls) ^ " slot")
        1
        (Linkload.get t ~node:x ~port ~cls))
    [ Linkload.cls_shortest; Linkload.cls_recycled; Linkload.cls_rescue ]

(* ---- series windowing ---- *)

let test_series_windows () =
  let g = (Pr_topo.Abilene.topology ()).Pr_topo.Topology.graph in
  let s = Series.create ~width:2.0 g in
  Series.record_verdict s ~time:0.3 `Delivered;
  Series.record_verdict s ~time:1.9 `Dropped;
  (* Negative times clamp into window 0 rather than crashing. *)
  Series.record_verdict s ~time:(-4.0) `Looped;
  Series.record_verdict s ~time:6.1 `Unreachable;
  Series.record_link_transition s ~time:6.5;
  Series.record_belief_churn s ~time:7.9 2;
  let port0 = 0 in
  Linkload.record (Series.load_at s ~time:6.0) ~node:0 ~port:port0
    ~cls:Linkload.cls_shortest;
  let windows = Series.windows s in
  Alcotest.(check int) "dense from 0 to last touched window" 4
    (List.length windows);
  List.iteri
    (fun i w -> Alcotest.(check int) "window indices are dense" i w.Series.index)
    windows;
  let w0 = List.nth windows 0 in
  Alcotest.(check int) "window 0 delivered" 1 w0.Series.delivered;
  Alcotest.(check int) "window 0 dropped" 1 w0.Series.dropped;
  Alcotest.(check int) "negative time clamps to window 0" 1 w0.Series.looped;
  let w3 = List.nth windows 3 in
  Alcotest.(check int) "6.1 lands in window 3" 1 w3.Series.unreachable;
  Alcotest.(check int) "transition in window 3" 1 w3.Series.link_transitions;
  Alcotest.(check int) "churn in window 3" 2 w3.Series.belief_churn;
  Alcotest.(check int) "load_at feeds the window's own table" 1
    (Linkload.total w3.Series.load);
  Alcotest.check_raises "zero width rejected"
    (Invalid_argument "Series.create: width must be finite and positive")
    (fun () -> ignore (Series.create ~width:0.0 g))

(* ---- the engines actually feed what they are handed (S6 pin) ---- *)

let chaos_workload (topo : Pr_topo.Topology.t) =
  let g = topo.Pr_topo.Topology.graph in
  let rng = Rng.create ~seed:2026 in
  let link_events =
    Workload.failure_process (Rng.copy rng) g ~mtbf:60.0 ~mttr:8.0
      ~horizon:40.0
  in
  let injections =
    Workload.poisson_flows (Rng.copy rng) g ~rate:25.0 ~horizon:40.0
  in
  (link_events, injections)

let render_metrics m = Format.asprintf "%a" Metrics.pp m

let test_engine_feeds_observers () =
  let topo, rotation = abilene () in
  let link_events, injections = chaos_workload topo in
  let scheme =
    Engine.Pr_scheme { termination = Pr_core.Forward.Distance_discriminator }
  in
  let config = { Engine.topology = topo; rotation; scheme } in
  let run backend =
    let probe = Probe.create () in
    let linkload = Linkload.create topo.Pr_topo.Topology.graph in
    let series = Series.create ~width:5.0 topo.Pr_topo.Topology.graph in
    let outcome =
      Engine.run_exn ~backend ~probe ~linkload ~series config ~link_events
        ~injections
    in
    (outcome, probe, linkload, series)
  in
  let outcome, probe, reference_ll, series = run `Reference in
  let outcome_c, probe_c, compiled_ll, _ = run `Compiled in
  (* A dropped probe or linkload argument would leave these empty /
     unequal — the regression this test pins. *)
  Helpers.check_probe_metrics "reference engine" probe outcome.Engine.metrics;
  Helpers.check_probe_metrics "compiled engine" probe_c
    outcome_c.Engine.metrics;
  Alcotest.(check string) "backends agree on the metrics"
    (render_metrics outcome.Engine.metrics)
    (render_metrics outcome_c.Engine.metrics);
  Alcotest.(check bool) "engine linkload parity across backends" true
    (Linkload.equal reference_ll compiled_ll);
  Alcotest.(check bool) "engine fed the linkload" true
    (Linkload.total reference_ll > 0);
  let m = outcome.Engine.metrics in
  let sum f = List.fold_left (fun a w -> a + f w) 0 (Series.windows series) in
  Alcotest.(check int) "series injected total" m.Metrics.injected
    (sum (fun w -> w.Series.injected));
  Alcotest.(check int) "series delivered total" m.Metrics.delivered
    (sum (fun w -> w.Series.delivered));
  Alcotest.(check int) "series dropped total" m.Metrics.dropped
    (sum (fun w -> w.Series.dropped));
  Alcotest.(check int) "series transitions total" outcome.Engine.link_transitions
    (sum (fun w -> w.Series.link_transitions))

let test_timed_feeds_observers () =
  let topo, rotation = abilene () in
  let link_events, injections = chaos_workload topo in
  let config = Pr_sim.Timed.default_config topo rotation in
  let probe = Probe.create () in
  let linkload = Linkload.create topo.Pr_topo.Topology.graph in
  let series = Series.create ~width:5.0 topo.Pr_topo.Topology.graph in
  let outcome =
    Pr_sim.Timed.run ~probe ~linkload ~series config ~link_events ~injections
  in
  Helpers.check_probe_metrics "timed engine" probe
    outcome.Pr_sim.Timed.metrics;
  Alcotest.(check bool) "timed fed the linkload" true
    (Linkload.total linkload > 0);
  (* The timed engine buckets hops at their own simulated times, so the
     series' per-class totals and the flat table must agree exactly. *)
  let windows = Series.windows series in
  let series_hops =
    List.fold_left (fun a w -> a + Linkload.total w.Series.load) 0 windows
  in
  Alcotest.(check int) "series hop totals match the flat table"
    (Linkload.total linkload) series_hops

(* ---- committed benchmark artifacts (schema pin) ---- *)

let finite_pos v =
  match Json.num v with
  | Some x -> Float.is_finite x && x > 0.0
  | None -> false

let require name = function
  | Some v -> v
  | None -> Alcotest.failf "missing member %S" name

let get name j = require name (Json.member name j)

let check_suite_member file j expected =
  match Json.str (get "suite" j) with
  | Some s -> Alcotest.(check string) (file ^ ": suite") expected s
  | None -> Alcotest.failf "%s: suite is not a string" file

(* The artifacts are dune deps, materialised next to the build root —
   one level above this executable — under `dune runtest`; a bare
   `dune exec` from the project root finds the source copies instead. *)
let artifact_dir () =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) ".." in
  if Sys.file_exists (Filename.concat beside "BENCH_fastpath.json") then beside
  else "."

let artifact name = Filename.concat (artifact_dir ()) name

let load file =
  match Json.parse_file (artifact file) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" file e

let test_bench_fastpath_schema () =
  let file = "BENCH_fastpath.json" in
  let j = load file in
  check_suite_member file j "fastpath";
  Alcotest.(check bool) "packets_per_run positive" true
    (finite_pos (get "packets_per_run" j));
  Alcotest.(check bool) "speedup positive" true
    (finite_pos (get "speedup_compiled_vs_reference" j));
  let results =
    match Json.list (get "results" j) with
    | Some (_ :: _ as rows) -> rows
    | Some [] -> Alcotest.failf "%s: empty results" file
    | None -> Alcotest.failf "%s: results is not a list" file
  in
  let names =
    List.map
      (fun row ->
        Alcotest.(check bool) "ns_per_run positive" true
          (finite_pos (get "ns_per_run" row));
        Alcotest.(check bool) "ns_per_packet positive" true
          (finite_pos (get "ns_per_packet" row));
        match Json.str (get "name" row) with
        | Some n -> n
        | None -> Alcotest.failf "%s: result name is not a string" file)
      results
  in
  (* The history tracker needs both sweep rows to compute the norm. *)
  List.iter
    (fun needed ->
      if not (List.mem needed names) then
        Alcotest.failf "%s: missing row %S" file needed)
    [ "fastpath/reference-sweep-abilene"; "fastpath/compiled-sweep-abilene" ]

let check_overhead_schema file suite =
  let j = load file in
  check_suite_member file j suite;
  Alcotest.(check bool) "overhead_ratio positive" true
    (finite_pos (get "overhead_ratio" j));
  List.iter
    (fun leg ->
      let sub = get (suite ^ "_" ^ leg) j in
      Alcotest.(check bool)
        (leg ^ " elapsed positive")
        true
        (finite_pos (get "elapsed_s" sub));
      Alcotest.(check bool)
        (leg ^ " ns/packet positive")
        true
        (finite_pos (get "ns_per_packet" sub)))
    [ "off"; "on" ];
  (* The payload object the report readers consume. *)
  match Json.member suite j with
  | Some (Json.Obj _) -> ()
  | Some _ -> Alcotest.failf "%s: %S member is not an object" file suite
  | None -> Alcotest.failf "%s: missing %S payload" file suite

let test_bench_probe_schema () = check_overhead_schema "BENCH_probe.json" "probe"

let test_bench_linkload_schema () =
  check_overhead_schema "BENCH_linkload.json" "linkload"

let test_bench_swap_schema () =
  let file = "BENCH_swap.json" in
  let j = load file in
  check_suite_member file j "swap";
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " positive") true (finite_pos (get tag j)))
    [ "incremental_ns"; "full_ns"; "swap_pause_ns"; "norm" ];
  (* The norm the history tracker reads is the ratio of the two legs. *)
  match (Json.num (get "incremental_ns" j), Json.num (get "full_ns" j),
         Json.num (get "norm" j)) with
  | Some inc, Some full, Some norm ->
      Alcotest.(check bool) "norm = incremental/full" true
        (Float.abs (norm -. (inc /. full)) < 1e-3)
  | _ -> Alcotest.failf "%s: non-numeric timing members" file

let test_bench_guard_schema () =
  let file = "BENCH_guard.json" in
  let j = load file in
  check_suite_member file j "guard";
  List.iter
    (fun leg ->
      let sub = get ("guard_" ^ leg) j in
      Alcotest.(check bool)
        (leg ^ " elapsed positive")
        true
        (finite_pos (get "elapsed_s" sub));
      Alcotest.(check bool)
        (leg ^ " ns/packet positive")
        true
        (finite_pos (get "ns_per_packet" sub)))
    [ "off"; "on" ];
  match Json.num (get "overhead_ratio" j) with
  | Some r ->
      (* The committed artifact carries the acceptance bound: guard-mode
         bounds checks must cost at most 10% on the hot loop. *)
      Alcotest.(check bool)
        (Printf.sprintf "guard overhead x%.4f within the 1.10 budget" r)
        true
        (Float.is_finite r && r > 0.0 && r <= 1.10)
  | None -> Alcotest.failf "%s: non-numeric overhead_ratio" file

let test_bench_shortcut_schema () =
  let file = "BENCH_shortcut.json" in
  let j = load file in
  check_suite_member file j "shortcut";
  List.iter
    (fun leg ->
      let sub = get ("shortcut_" ^ leg) j in
      Alcotest.(check bool)
        (leg ^ " elapsed positive")
        true
        (finite_pos (get "elapsed_s" sub));
      Alcotest.(check bool)
        (leg ^ " ns/packet positive")
        true
        (finite_pos (get "ns_per_packet" sub)))
    [ "off"; "on" ];
  (match Json.num (get "width" j) with
  | Some w -> Alcotest.(check bool) "hint width in range" true (w >= 1.0 && w <= 60.0)
  | None -> Alcotest.failf "%s: non-numeric width" file);
  (match Json.num (get "shortcut_exits" j) with
  | Some n -> Alcotest.(check bool) "exits non-negative" true (n >= 0.0)
  | None -> Alcotest.failf "%s: non-numeric shortcut_exits" file);
  match Json.num (get "overhead_ratio" j) with
  | Some r ->
      (* The committed artifact carries the acceptance bound: the armed
         kernel must cost at most 10% over the ungated sweep. *)
      Alcotest.(check bool)
        (Printf.sprintf "shortcut overhead x%.4f within the 1.10 budget" r)
        true
        (Float.is_finite r && r > 0.0 && r <= 1.10)
  | None -> Alcotest.failf "%s: non-numeric overhead_ratio" file

let test_bench_scale_schema () =
  let file = "BENCH_scale.json" in
  let j = load file in
  check_suite_member file j "scale";
  (match Json.num (get "overhead_ratio" j) with
  | Some r ->
      (* The committed artifact carries the acceptance bound: arming
         the streaming sketches must cost at most 10% over the probed
         sweep. *)
      Alcotest.(check bool)
        (Printf.sprintf "sketch overhead x%.4f within the 1.10 budget" r)
        true
        (Float.is_finite r && r > 0.0 && r <= 1.10)
  | None -> Alcotest.failf "%s: non-numeric overhead_ratio" file);
  (match Json.num (get "span_coverage_min" j) with
  | Some c ->
      (* And the accounting bound: the span tree explains >= 95% of
         every case's end-to-end wall time. *)
      Alcotest.(check bool)
        (Printf.sprintf "span coverage %.3f >= 0.95" c)
        true (c >= 0.95 && c <= 1.0)
  | None -> Alcotest.failf "%s: non-numeric span_coverage_min" file);
  let results =
    match Json.list (get "results" j) with
    | Some (_ :: _ as rows) -> rows
    | Some [] -> Alcotest.failf "%s: empty results" file
    | None -> Alcotest.failf "%s: results is not a list" file
  in
  let seen_10k_waxman = ref false in
  List.iter
    (fun row ->
      (match (Json.str (get "family" row), Json.num (get "n" row)) with
      | Some "waxman", Some n when n >= 10000.0 -> seen_10k_waxman := true
      | Some ("ba" | "waxman"), Some _ -> ()
      | _ -> Alcotest.failf "%s: row without family/n" file);
      List.iter
        (fun tag ->
          Alcotest.(check bool) (tag ^ " positive") true
            (finite_pos (get tag row)))
        [
          "routing_ms"; "fib_compile_ms"; "image_bytes"; "bytes_per_router";
          "ns_per_packet"; "sketch_off_ns"; "sketch_on_ns"; "sketch_overhead";
        ];
      (match Json.list (get "stretch_q" row) with
      | Some [ _; _; _ ] -> ()
      | _ -> Alcotest.failf "%s: stretch_q is not a 3-quantile row" file);
      match Json.num (get "span_coverage" row) with
      | Some c when c >= 0.95 -> ()
      | Some c -> Alcotest.failf "%s: span coverage %.3f below 0.95" file c
      | None -> Alcotest.failf "%s: non-numeric span_coverage" file)
    results;
  (* The acceptance campaign: a 10k-node Waxman case made it in. *)
  Alcotest.(check bool) "10k waxman case present" true !seen_10k_waxman

(* ---- history entries parse the committed artifacts ---- *)

let test_history_entries () =
  let entries, errs = Report.scan_bench ~dir:(artifact_dir ()) in
  List.iter (fun e -> Alcotest.failf "scan_bench: %s" e) errs;
  Alcotest.(check bool) "all seven artifacts found" true
    (List.length entries >= 7);
  Alcotest.(check bool) "a shortcut baseline exists" true
    (List.exists
       (fun (e : Report.bench_entry) -> e.Report.suite = "shortcut")
       entries);
  Alcotest.(check bool) "a scale baseline exists" true
    (List.exists
       (fun (e : Report.bench_entry) -> e.Report.suite = "scale")
       entries);
  List.iter
    (fun (e : Report.bench_entry) ->
      Alcotest.(check bool)
        (e.Report.file ^ ": norm finite and positive")
        true
        (Float.is_finite e.Report.norm && e.Report.norm > 0.0))
    entries;
  Alcotest.(check bool) "a fastpath baseline exists" true
    (List.exists (fun (e : Report.bench_entry) -> e.Report.suite = "fastpath") entries)

(* ---- the SPANS artifact: schema-versioned, parseable span forest ---- *)

let test_spans_scale_schema () =
  let file = "SPANS_scale.json" in
  let j = load file in
  (match Json.str (get "schema" j) with
  | Some s ->
      Alcotest.(check string) "schema tag" Pr_report.Scale.spans_schema s
  | None -> Alcotest.failf "%s: missing schema tag" file);
  (match Json.str (get "suite" j) with
  | Some "scale" -> ()
  | _ -> Alcotest.failf "%s: suite is not \"scale\"" file);
  List.iter
    (fun tag ->
      match Json.num (get tag j) with
      | Some v when Float.is_finite v && v >= 0.0 -> ()
      | _ -> Alcotest.failf "%s: bad %s" file tag)
    [ "seed"; "domains" ];
  let roots =
    match Span.of_json (get "roots" j) with
    | roots -> roots
    | exception Invalid_argument msg ->
        Alcotest.failf "%s: roots do not parse as a span forest: %s" file msg
  in
  Alcotest.(check bool) "at least one case root" true (roots <> []);
  List.iter
    (fun (r : Span.node) ->
      Alcotest.(check bool) (r.Span.name ^ " is a scale case") true
        (String.length r.Span.name > 6 && String.sub r.Span.name 0 6 = "scale.");
      Alcotest.(check bool) (r.Span.name ^ " wall positive") true
        (Int64.compare r.Span.wall_ns 0L > 0);
      Alcotest.(check bool) (r.Span.name ^ " has stage children") true
        (r.Span.children <> []);
      Alcotest.(check bool)
        (r.Span.name ^ " stages include fib.compile")
        true
        (Option.is_some (Span.find r "fib.compile")))
    roots

(* ---- flight records: schema and fingerprint integrity ---- *)

let test_flight_record_schema () =
  let fl = Pr_telemetry.Flight.create ~cmd:"test" ~seed:9 ~backend:"ref" () in
  Pr_telemetry.Flight.knob_str fl "topology" "abilene";
  Pr_telemetry.Flight.knob_int fl "repeat" 2;
  Pr_telemetry.Flight.count fl "delivered" 1540;
  Pr_telemetry.Flight.quantiles fl "stretch" [| (0.5, 1.0); (0.9, 1.25) |];
  Pr_telemetry.Flight.metric fl ~stable:true "coverage" 0.99;
  Pr_telemetry.Flight.metric fl "elapsed_s" 0.25;
  Pr_telemetry.Flight.section fl "footprint" "{\"total_bytes\":12}";
  let line = Pr_telemetry.Flight.to_json fl in
  Alcotest.(check bool) "one line" true (not (String.contains line '\n'));
  let j =
    match Json.parse line with
    | Ok j -> j
    | Error e -> Alcotest.failf "flight record unparseable: %s" e
  in
  List.iter
    (fun m ->
      if Json.member m j = None then
        Alcotest.failf "flight record missing %S" m)
    [
      "schema"; "cmd"; "seed"; "backend"; "knobs"; "counts"; "quantiles";
      "metrics"; "sections"; "artifacts"; "stable_fnv1a"; "timings";
      "volatile_sections"; "spans";
    ];
  (match Json.str (get "schema" j) with
  | Some s -> Alcotest.(check string) "schema tag" Pr_telemetry.Flight.schema s
  | None -> Alcotest.failf "flight schema not a string");
  (* The embedded fingerprint is re-checkable: it is the FNV-1a of the
     stable body, which the record embeds verbatim. *)
  (match Json.str (get "stable_fnv1a" j) with
  | Some hex ->
      Alcotest.(check string) "embedded fingerprint matches stable body"
        (Printf.sprintf "%016Lx" (Pr_telemetry.Flight.stable_fingerprint fl))
        hex
  | None -> Alcotest.failf "stable_fnv1a not a string");
  (* Volatile fields stay out of the fingerprint; stable ones land in
     it. *)
  let fp0 = Pr_telemetry.Flight.stable_fingerprint fl in
  Pr_telemetry.Flight.metric fl "another_timing" 9.9;
  Alcotest.(check int64) "timings do not move the fingerprint" fp0
    (Pr_telemetry.Flight.stable_fingerprint fl);
  Pr_telemetry.Flight.count fl "late_count" 1;
  Alcotest.(check bool) "counts do move the fingerprint" true
    (not (Int64.equal fp0 (Pr_telemetry.Flight.stable_fingerprint fl)))

(* ---- the history observatory's assessment rules ---- *)

let series key values =
  {
    Pr_report.History.key;
    points =
      List.map (fun v -> { Pr_report.History.source = "t"; value = v }) values;
  }

let test_history_rules () =
  let open Pr_report.History in
  (* Single point: never anomalous. *)
  let v = assess (series "s1" [ 1.0 ]) in
  Alcotest.(check bool) "single clean" false v.anomaly;
  (* Short series: the flat gate. *)
  let v = assess (series "s2" [ 1.0; 1.02; 1.30 ]) in
  Alcotest.(check bool) "flat regression flagged" true v.anomaly;
  let v = assess (series "s3" [ 1.0; 1.02; 1.05 ]) in
  Alcotest.(check bool) "flat within budget clean" false v.anomaly;
  (* Long series: the MAD rule fires on a genuine step... *)
  let v = assess (series "s4" [ 1.0; 1.01; 0.99; 1.0; 1.02; 0.98; 1.0; 1.4 ]) in
  Alcotest.(check bool) "mad regression flagged" true v.anomaly;
  (* ... tolerates ordinary jitter even past the old 15% line when the
     spread is wide ... *)
  let v = assess (series "s5" [ 1.0; 1.5; 0.7; 1.3; 0.8; 1.45; 0.9; 1.5 ]) in
  Alcotest.(check bool) "wide jitter clean" false v.anomaly;
  (* ... and never fires on an improvement (costs only regress up). *)
  let v = assess (series "s6" [ 1.0; 1.01; 0.99; 1.0; 1.02; 0.98; 1.0; 0.5 ]) in
  Alcotest.(check bool) "improvement clean" false v.anomaly;
  (* A perfectly flat history with a late bump: zero MAD degrades to
     the relative test. *)
  let v = assess (series "s7" [ 1.0; 1.0; 1.0; 1.0; 1.0; 1.2 ]) in
  Alcotest.(check bool) "zero-mad bump flagged" true v.anomaly;
  let r =
    run ~dir:"no-such-dir"
      ~extra:
        [ ("fresh.series", { Pr_report.History.source = "t"; value = 2.0 }) ]
      ()
  in
  Alcotest.(check int) "extra creates a single-point series" 1
    (List.length r.verdicts);
  Alcotest.(check int) "nothing anomalous" 0 r.anomalies

(* Unlike runs never pool: five compiled bench records and one
   reference record are two series, both clean, while a 1.25x step
   inside one backend's series is still an anomaly.  A record with
   neither backend nor knobs keeps the bare key. *)
let test_history_keys_by_backend () =
  let record ~backend ns =
    Printf.sprintf
      "{\"cmd\":\"bench\",\"seed\":42,\"backend\":%S,\
       \"knobs\":{\"topology\":\"abilene\"},\
       \"metrics\":{\"ns_per_packet\":%s}}"
      backend (Json.number ns)
  in
  let assess lines =
    let dir = Filename.temp_file "pr_history" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let ledger = Filename.concat dir "FLIGHT_test.jsonl" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove ledger;
        Sys.rmdir dir)
      (fun () ->
        Out_channel.with_open_text ledger (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) lines);
        Pr_report.History.run ~dir ())
  in
  let compiled =
    List.map (record ~backend:"compiled") [ 121.0; 122.0; 123.0; 122.0; 121.5 ]
  in
  let r = assess (compiled @ [ record ~backend:"reference" 1982.0 ]) in
  Alcotest.(check int) "a reference record after compiled ones is clean" 0
    r.Pr_report.History.anomalies;
  let keys (r : Pr_report.History.report) =
    List.map (fun (v : Pr_report.History.verdict) -> v.key) r.verdicts
  in
  Alcotest.(check (list string)) "one series per backend"
    [
      "flight.bench.ns_per_packet{backend=compiled,topology=abilene}";
      "flight.bench.ns_per_packet{backend=reference,topology=abilene}";
    ]
    (keys r);
  let r = assess (compiled @ [ record ~backend:"compiled" (1.25 *. 122.0) ]) in
  Alcotest.(check int) "a 1.25x step inside one backend is an anomaly" 1
    r.Pr_report.History.anomalies;
  let r = assess [ "{\"cmd\":\"bench\",\"metrics\":{\"cost\":1.0}}" ] in
  Alcotest.(check (list string)) "no backend and no knobs: the bare key"
    [ "flight.bench.cost" ] (keys r)

(* ---- the leg timer ---- *)

let spin ns =
  let t0 = Span.now () in
  while Int64.sub (Span.now ()) t0 < ns do
    ()
  done

(* Three legs of unequal cost, each slower than a batch's 2 ms target so
   that every batch is one call, logging their index on each call: the
   log is 0, 1, 2 repeated (the warm-up round, then one batch each per
   round), every leg sees at least seven batches and at least 100 ms of
   timed calls, and each returns its last call's result. *)
let test_leg_timer () =
  let log = ref [] in
  let calls = Array.make 3 0 in
  let busy = Array.make 3 0L in
  let leg i cost () =
    log := i :: !log;
    calls.(i) <- calls.(i) + 1;
    let t0 = Span.now () in
    spin cost;
    (* The warm-up call is not timed. *)
    if calls.(i) > 1 then
      busy.(i) <- Int64.add busy.(i) (Int64.sub (Span.now ()) t0);
    calls.(i)
  in
  let timed =
    Report.time_best_ns
      [| leg 0 2_500_000L; leg 1 3_500_000L; leg 2 2_200_000L |]
  in
  let log = List.rev !log in
  let rounds = List.length log / 3 in
  Alcotest.(check (list int)) "round-robin, one batch per leg per round"
    (List.concat (List.init rounds (fun _ -> [ 0; 1; 2 ])))
    log;
  Alcotest.(check bool) "a warm-up round and at least 7 batches" true
    (rounds >= 8);
  Array.iteri
    (fun i (best_ns, last) ->
      Alcotest.(check int) (Printf.sprintf "leg %d returns its last call" i)
        calls.(i) last;
      Alcotest.(check bool)
        (Printf.sprintf "leg %d best is a per-call time" i)
        true
        (Float.is_finite best_ns && best_ns > 0.0);
      (* The leg's own clock misses only the loop between calls. *)
      let timed_ms = Int64.to_float busy.(i) /. 1e6 in
      if timed_ms < 99.0 then
        Alcotest.failf "leg %d: %.1f ms of timed calls, want >= 100" i
          timed_ms)
    timed;
  (* A leg of 20 ms calls meets 100 ms in five batches but still gets
     seven, after its warm-up call. *)
  let slow = ref 0 in
  ignore
    (Report.time_best_ns
       [|
         (fun () ->
           incr slow;
           spin 20_000_000L);
       |]);
  Alcotest.(check int) "a slow leg: warm-up plus seven batches" 8 !slow;
  Alcotest.(check (array (pair (float 0.0) int))) "no legs, no work" [||]
    (Report.time_best_ns [||])

let test_leg_timer_raises () =
  let n = ref 0 in
  Alcotest.check_raises "a leg's exception propagates" Exit (fun () ->
      ignore
        (Report.time_best_ns
           [|
             (fun () -> spin 10_000L);
             (fun () ->
               incr n;
               if !n = 3 then raise Exit);
           |]))

(* ---- compile-cost attribution ---- *)

(* [prcli report --compile]'s source: the fib.compile span with one child
   per plane, the sampled per-destination costs in destination order,
   and a pr.compile/1 JSON rendering. *)
let test_profile_compile () =
  let topo, rotation = geant () in
  let p = Report.profile_compile topo rotation in
  Alcotest.(check string) "the compile span" "fib.compile"
    p.Report.compile.Span.name;
  let children = List.map (fun (c : Span.node) -> c.Span.name) p.Report.planes in
  List.iter
    (fun plane ->
      let name = "fib.compile." ^ plane in
      if not (List.mem name children) then
        Alcotest.failf "fib.compile lacks the %s child (has %s)" name
          (String.concat ", " children))
    [ "ports"; "routes"; "cycles" ];
  Alcotest.(check bool) "cost samples recorded" true (p.Report.costs <> []);
  let dsts = List.map fst p.Report.costs in
  Alcotest.(check (list int)) "samples in destination order"
    (List.sort_uniq compare dsts) dsts;
  List.iter
    (fun dst ->
      if dst < 0 || dst >= Graph.n topo.Pr_topo.Topology.graph then
        Alcotest.failf "sampled destination %d out of range" dst)
    dsts;
  match Json.parse (Report.compile_to_json p) with
  | Error e -> Alcotest.failf "compile json does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option string)) "schema" (Some "pr.compile/1")
        (Option.bind (Json.member "schema" j) Json.str)

let suite =
  [
    Alcotest.test_case "linkload parity abilene (domains 1/2/4)" `Slow
      test_parity_abilene;
    Alcotest.test_case "linkload parity geant (domains 3)" `Slow
      test_parity_geant;
    Alcotest.test_case "merge and reset" `Quick test_merge_reset;
    Alcotest.test_case "record_next and classes" `Quick
      test_record_next_classes;
    Alcotest.test_case "series windowing" `Quick test_series_windows;
    Alcotest.test_case "engine feeds probe/linkload/series" `Quick
      test_engine_feeds_observers;
    Alcotest.test_case "timed feeds probe/linkload/series" `Quick
      test_timed_feeds_observers;
    Alcotest.test_case "BENCH_fastpath.json schema" `Quick
      test_bench_fastpath_schema;
    Alcotest.test_case "BENCH_probe.json schema" `Quick
      test_bench_probe_schema;
    Alcotest.test_case "BENCH_linkload.json schema" `Quick
      test_bench_linkload_schema;
    Alcotest.test_case "BENCH_swap.json schema" `Quick test_bench_swap_schema;
    Alcotest.test_case "BENCH_guard.json schema" `Quick
      test_bench_guard_schema;
    Alcotest.test_case "BENCH_shortcut.json schema" `Quick
      test_bench_shortcut_schema;
    Alcotest.test_case "BENCH_scale.json schema" `Quick
      test_bench_scale_schema;
    Alcotest.test_case "history scan of committed artifacts" `Quick
      test_history_entries;
    Alcotest.test_case "SPANS_scale.json schema" `Quick
      test_spans_scale_schema;
    Alcotest.test_case "flight record schema and fingerprint" `Quick
      test_flight_record_schema;
    Alcotest.test_case "history assessment rules" `Quick test_history_rules;
    Alcotest.test_case "history keys flight series by backend and knobs"
      `Quick test_history_keys_by_backend;
    Alcotest.test_case "leg timer round-robin, floor and last results" `Quick
      test_leg_timer;
    Alcotest.test_case "leg timer propagates a leg's exception" `Quick
      test_leg_timer_raises;
    Alcotest.test_case "compile profile on geant" `Quick test_profile_compile;
  ]
