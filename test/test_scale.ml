(* The scale observatory pinned down.

   - Span: nesting, exception safety, the ambient install/uninstall
     guard, coverage arithmetic.
   - Sketch: exact below five observations, P2 accuracy on a known
     distribution, deterministic merges, the non-finite poison guard.
   - Differential wall: on the paper topologies the streaming sketch
     quantiles must land within one bucket of the exact fixed-bucket
     histogram answer, for stretch and hops at every armed q.
   - Determinism: sketch-armed parallel sweeps are bit-identical at
     domains 1, 2 and 4.
   - Memory accounting: Fib.footprint's planes sum to its total, one
     word per cell, and a link-load table is its counters alone.
   - The campaign driver itself, at toy sizes: span trees present and
     covering, JSON artifacts parseable, the "scale" suite readable by
     the bench-history scanner. *)

module Graph = Pr_graph.Graph
module Rng = Pr_util.Rng
module Json = Pr_util.Json
module Fib = Pr_fastpath.Fib
module Kernel = Pr_fastpath.Kernel
module Parallel = Pr_fastpath.Parallel
module Span = Pr_telemetry.Span
module Sketch = Pr_telemetry.Sketch
module Probe = Pr_telemetry.Probe
module Scale = Pr_report.Scale

let compile topo =
  let g = topo.Pr_topo.Topology.graph in
  let routing = Pr_core.Routing.build g in
  let cycles =
    Pr_core.Cycle_table.build (Pr_embed.Geometric.of_topology topo)
  in
  Fib.of_tables_exn routing cycles

(* ---- spans ---- *)

let test_span_nesting () =
  let sp = Span.create () in
  let out =
    Span.timed_on sp "outer" (fun () ->
        Span.timed_on sp "first" (fun () -> ());
        Span.timed_on sp "second" (fun () ->
            Span.timed_on sp "inner" (fun () -> ()));
        17)
  in
  Alcotest.(check int) "timed_on returns the body's value" 17 out;
  match Span.roots sp with
  | [ root ] ->
      Alcotest.(check string) "root name" "outer" root.Span.name;
      Alcotest.(check (list string))
        "children in completion order" [ "first"; "second" ]
        (List.map (fun n -> n.Span.name) root.Span.children);
      let second = List.nth root.Span.children 1 in
      Alcotest.(check (list string))
        "grandchild" [ "inner" ]
        (List.map (fun n -> n.Span.name) second.Span.children);
      Alcotest.(check bool) "find reaches the grandchild" true
        (Span.find root "inner" <> None);
      Alcotest.(check bool) "wall is monotone in nesting" true
        (root.Span.wall_ns >= second.Span.wall_ns);
      let c = Span.coverage root in
      Alcotest.(check bool) "coverage in [0, 1]" true (c >= 0.0 && c <= 1.0)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_span_exception_safety () =
  let sp = Span.create () in
  (try
     Span.timed_on sp "failing" (fun () ->
         Span.timed_on sp "done-before-raise" (fun () -> ());
         failwith "boom")
   with Failure _ -> ());
  (match Span.roots sp with
  | [ root ] ->
      Alcotest.(check string) "raising span still filed" "failing"
        root.Span.name;
      Alcotest.(check (list string))
        "completed child survives the raise" [ "done-before-raise" ]
        (List.map (fun n -> n.Span.name) root.Span.children)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
  Alcotest.check_raises "leave on an empty stack raises"
    (Invalid_argument "Span.leave: no open span") (fun () -> Span.leave sp)

let test_span_ambient_guard () =
  (* Nothing installed: the hook is a pass-through. *)
  Alcotest.(check int) "disabled path runs f" 3 (Span.timed "x" (fun () -> 3));
  let sp = Span.create () in
  Span.install sp;
  Fun.protect ~finally:Span.uninstall (fun () ->
      Span.timed "ambient" (fun () -> ()));
  Span.timed "after-uninstall" (fun () -> ());
  Alcotest.(check (list string))
    "only the installed window recorded" [ "ambient" ]
    (List.map (fun n -> n.Span.name) (Span.roots sp));
  Span.reset sp;
  Alcotest.(check int) "reset drops roots" 0 (List.length (Span.roots sp));
  (* The rendering surfaces never raise on a real forest. *)
  Span.install sp;
  Fun.protect ~finally:Span.uninstall (fun () ->
      Span.timed "render-me" (fun () -> Span.timed "child" (fun () -> ())));
  let txt = Span.render (Span.roots sp) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "render mentions the span" true
    (contains txt "render-me");
  match Json.parse (Span.to_json (Span.roots sp)) with
  | Error e -> Alcotest.failf "span json does not parse: %s" e
  | Ok _ -> ()

(* ---- sketches ---- *)

let test_sketch_exact_small () =
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Sketch.create: q must be in (0, 1)") (fun () ->
      ignore (Sketch.create ~q:1.0));
  let s = Sketch.create ~q:0.5 in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Sketch.quantile s));
  Alcotest.check_raises "nan poisons are rejected"
    (Invalid_argument "Sketch.observe: non-finite observation") (fun () ->
      Sketch.observe s Float.nan);
  List.iter (Sketch.observe s) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check (float 1e-9)) "exact median below five" 2.0
    (Sketch.quantile s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Sketch.min_value s);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Sketch.max_value s);
  Alcotest.(check int) "count" 3 (Sketch.count s)

let test_sketch_accuracy () =
  (* A deterministic shuffle of 0 .. 9999: P2 at n = 10000 should sit
     within a percent or two of the true quantile of the uniform
     ladder. *)
  let n = 10_000 in
  let values = Array.init n float_of_int in
  Rng.shuffle (Rng.create ~seed:42) values;
  List.iter
    (fun q ->
      let s = Sketch.create ~q in
      Array.iter (Sketch.observe s) values;
      let truth = q *. float_of_int (n - 1) in
      let err = Float.abs (Sketch.quantile s -. truth) /. float_of_int n in
      if err > 0.02 then
        Alcotest.failf "q=%.2f estimate %.1f vs %.1f (err %.4f)" q
          (Sketch.quantile s) truth err;
      Alcotest.(check (float 1e-9)) "exact min" 0.0 (Sketch.min_value s);
      Alcotest.(check (float 1e-9))
        "exact max"
        (float_of_int (n - 1))
        (Sketch.max_value s))
    [ 0.5; 0.9; 0.99 ]

let test_sketch_merge () =
  Alcotest.check_raises "mismatched q refuses to merge"
    (Invalid_argument "Sketch.merge: quantiles differ") (fun () ->
      Sketch.merge ~into:(Sketch.create ~q:0.5) (Sketch.create ~q:0.9));
  (* A small source replays exactly: merge = direct observation. *)
  let a = Sketch.create ~q:0.5 and b = Sketch.create ~q:0.5 in
  let direct = Sketch.create ~q:0.5 in
  List.iter (Sketch.observe a) [ 5.0; 1.0; 9.0; 2.0; 7.0; 3.0 ];
  List.iter (Sketch.observe b) [ 4.0; 8.0 ];
  List.iter (Sketch.observe direct) [ 5.0; 1.0; 9.0; 2.0; 7.0; 3.0; 4.0; 8.0 ];
  Sketch.merge ~into:a b;
  Alcotest.(check bool) "small-source merge replays exactly" true
    (Sketch.equal a direct);
  (* Merging full sketches is deterministic: same inputs, same bits. *)
  let feed seed k =
    let s = Sketch.create ~q:0.9 in
    let rng = Rng.create ~seed in
    for _ = 1 to k do
      Sketch.observe s (Rng.float rng 100.0)
    done;
    s
  in
  let m1 = feed 1 500 and m2 = feed 2 700 in
  let once = Sketch.copy m1 in
  Sketch.merge ~into:once m2;
  let again = Sketch.copy m1 in
  Sketch.merge ~into:again m2;
  Alcotest.(check bool) "full merge is bit-deterministic" true
    (Sketch.equal once again);
  Alcotest.(check int) "counts add" 1200 (Sketch.count once);
  Alcotest.(check (float 1e-9)) "min of both" (Sketch.min_value once)
    (Float.min (Sketch.min_value m1) (Sketch.min_value m2));
  match Json.parse (Sketch.to_json once) with
  | Error e -> Alcotest.failf "sketch json does not parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "json carries the count" true
        (Option.bind (Json.member "count" j) Json.num = Some 1200.0)

let test_sketch_ties_and_log () =
  (* Tie mass at the extremes answers exactly where P2 would creep:
     93% of the stream is one repeated value, so p50 and p90 are that
     value, while p99 sits in the tail. *)
  let s = Sketch.create ~q:0.9 in
  for i = 1 to 1000 do
    Sketch.observe s (if i mod 100 < 93 then 1.0 else 2.0 +. float_of_int (i mod 7))
  done;
  Alcotest.(check (float 1e-9)) "p90 inside the tie block" 1.0
    (Sketch.quantile s);
  (* The log domain: relative interpolation error on a heavy tail. *)
  Alcotest.check_raises "log domain rejects non-positive values"
    (Invalid_argument "Sketch.observe: non-positive observation in log domain")
    (fun () -> Sketch.observe (Sketch.create_log ~q:0.5) 0.0);
  Alcotest.check_raises "mixed domains refuse to merge"
    (Invalid_argument "Sketch.merge: domains differ") (fun () ->
      Sketch.merge ~into:(Sketch.create ~q:0.5) (Sketch.create_log ~q:0.5));
  let lg = Sketch.create_log ~q:0.9 in
  let rng = Rng.create ~seed:7 in
  (* 95% small hop counts, 5% three-decade tail: p90 sits solidly in
     the body, and the log domain keeps the tail from inflating it. *)
  for _ = 1 to 10_000 do
    Sketch.observe lg
      (float_of_int
         (if Rng.int rng 20 < 19 then 1 + Rng.int rng 8
          else 100 + Rng.int rng 4000))
  done;
  let est = Sketch.quantile lg in
  Alcotest.(check bool) "log-domain p90 stays in the body" true
    (est >= 4.0 && est <= 32.0);
  Alcotest.(check (float 1e-9)) "min transforms back exactly" 1.0
    (Sketch.min_value lg);
  (* Merging two log sketches stays in range and is deterministic. *)
  let a = Sketch.create_log ~q:0.9 and b = Sketch.create_log ~q:0.9 in
  for i = 1 to 600 do
    Sketch.observe a (float_of_int (1 + (i mod 9)));
    Sketch.observe b (float_of_int (1 + (i mod 700)))
  done;
  let m = Sketch.copy a in
  Sketch.merge ~into:m b;
  let m' = Sketch.copy a in
  Sketch.merge ~into:m' b;
  Alcotest.(check bool) "log merge is bit-deterministic" true
    (Sketch.equal m m');
  Alcotest.(check int) "log merge counts add" 1200 (Sketch.count m)

(* ---- the differential wall: sketches vs exact histograms ---- *)

(* Bucket index of a value against upper-bound edges (last bucket =
   overflow), the histograms' own binning rule. *)
let bucket_of edges v =
  let k = Array.length edges in
  let rec go i = if i >= k then k else if v <= edges.(i) then i else go (i + 1) in
  go 0

(* Bucket holding the q-quantile of a fixed-bucket histogram. *)
let hist_quantile_bucket hist q =
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then 0
  else begin
    let target = q *. float_of_int total in
    let acc = ref 0 and b = ref (Array.length hist - 1) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if float_of_int !acc >= target then begin
             b := i;
             raise Exit
           end)
         hist
     with Exit -> ());
    !b
  end

let check_differential name topo =
  let fib = compile topo in
  let items = Parallel.all_pairs_single_failures fib in
  let counters, probe =
    Parallel.run_probed ~seed:11
      ~create_probe:(fun () -> Probe.create ~sketch:true ())
      fib items
  in
  let banks pick = Option.get (pick probe) in
  Array.iteri
    (fun qi q ->
      let stretch = (banks Probe.stretch_sketch).(qi) in
      let sb = bucket_of Probe.stretch_edges (Sketch.quantile stretch) in
      let hb = hist_quantile_bucket probe.Probe.stretch_hist q in
      if abs (sb - hb) > 1 then
        Alcotest.failf "%s stretch q=%.2f: sketch bucket %d vs histogram %d"
          name q sb hb;
      let hops = (banks Probe.hops_sketch).(qi) in
      let hedges = Array.map float_of_int Probe.hops_edges in
      let sbh = bucket_of hedges (Sketch.quantile hops) in
      let hbh = hist_quantile_bucket probe.Probe.hops_hist q in
      if abs (sbh - hbh) > 1 then
        Alcotest.failf "%s hops q=%.2f: sketch bucket %d vs histogram %d" name
          q sbh hbh)
    Probe.sketch_qs;
  if counters.Kernel.delivered <= 0 then
    Alcotest.failf "%s: differential ran no delivered packets" name

let test_sketch_histogram_differential () =
  check_differential "abilene" (Pr_topo.Abilene.topology ());
  check_differential "geant" (Pr_topo.Geant.topology ());
  check_differential "teleglobe" (Pr_topo.Teleglobe.topology ())

(* ---- sketch-armed parallel determinism ---- *)

let test_sketch_parallel_determinism () =
  let fib = compile (Pr_topo.Abilene.topology ()) in
  let items = Parallel.all_pairs_single_failures fib in
  let armed () = Probe.create ~sketch:true () in
  let run domains =
    Parallel.run_probed ~domains ~seed:3 ~create_probe:armed fib items
  in
  let c1, p1 = run 1 in
  let c2, p2 = run 2 in
  let c4, p4 = run 4 in
  Alcotest.(check bool) "counters 1 = 2 domains" true
    (Kernel.equal_counters c1 c2);
  Alcotest.(check bool) "counters 1 = 4 domains" true
    (Kernel.equal_counters c1 c4);
  let check_banks pick label =
    let b1 = Option.get (pick p1)
    and b2 = Option.get (pick p2)
    and b4 = Option.get (pick p4) in
    Array.iteri
      (fun i s1 ->
        if not (Sketch.equal s1 b2.(i) && Sketch.equal s1 b4.(i)) then
          Alcotest.failf "%s sketch %d differs across domain counts" label i)
      b1
  in
  check_banks Probe.stretch_sketch "stretch";
  check_banks Probe.hops_sketch "hops";
  Alcotest.(check bool) "probe counts bit-identical" true
    (Probe.equal_counts p1 p4);
  (* The armed probe serializes with the sketch block (and folds any
     staged observations doing so). *)
  (match Json.parse (Probe.to_json p1) with
  | Error e -> Alcotest.failf "armed probe json does not parse: %s" e
  | Ok j -> (
      match Json.member "sketch" j with
      | None -> Alcotest.fail "armed probe json lacks the sketch block"
      | Some sk ->
          Alcotest.(check bool) "sketch block carries the sample period" true
            (Option.bind (Json.member "sample" sk) Json.num
            = Some (float_of_int Probe.default_sketch_sample))));
  (* Mixed arming cannot merge: the driver would silently drop sketches
     otherwise. *)
  Alcotest.check_raises "mixed arming refuses to merge"
    (Invalid_argument "Probe.merge: sketch arming differs") (fun () ->
      Probe.merge ~into:(Probe.create ()) (armed ()))

(* ---- memory accounting ---- *)

let test_fib_footprint () =
  let fib = compile (Pr_topo.Abilene.topology ()) in
  let fp = Fib.footprint fib in
  let word = Sys.word_size / 8 in
  let plane_sum =
    List.fold_left (fun acc p -> acc + p.Fib.bytes) 0 fp.Fib.planes
  in
  Alcotest.(check int) "planes sum to the total" fp.Fib.total_bytes plane_sum;
  Alcotest.(check (float 1e-6)) "bytes per router"
    (float_of_int fp.Fib.total_bytes /. float_of_int (Fib.n fib))
    fp.Fib.bytes_per_router;
  List.iter
    (fun p ->
      if p.Fib.bytes <> p.Fib.words * word then
        Alcotest.failf "plane %s: %d words but %d bytes" p.Fib.plane p.Fib.words
          p.Fib.bytes)
    fp.Fib.planes;
  (match Json.parse (Fib.footprint_json fp) with
  | Error e -> Alcotest.failf "footprint json does not parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "json total matches" true
        (Option.bind (Json.member "total_bytes" j) Json.num
        = Some (float_of_int fp.Fib.total_bytes)));
  let g = Fib.graph fib in
  let ll = Pr_obs.Linkload.create g in
  let n = Graph.n g and ports = max 1 (Graph.max_degree g) in
  Alcotest.(check int) "linkload footprint is its counters"
    (n * ports * 4 * word)
    (Pr_obs.Linkload.footprint_bytes ll)

(* ---- the campaign driver at toy sizes ---- *)

let test_scale_campaign_smoke () =
  let c =
    Scale.run ~scenarios:2 ~pairs:300
      ~families:[ Scale.Ba; Scale.Waxman ] ~sizes:[ 48 ] ~seed:5 ()
  in
  Alcotest.(check int) "one result per (family, size)" 2
    (List.length c.Scale.results);
  List.iter
    (fun r ->
      Alcotest.(check int) "packets = scenarios * pairs" (2 * 300)
        r.Scale.packets;
      Alcotest.(check int) "verdicts account every packet" r.Scale.packets
        (r.Scale.delivered + r.Scale.dropped + r.Scale.looped
       + r.Scale.unreachable);
      Alcotest.(check bool) "image bytes positive" true (r.Scale.image_bytes > 0);
      Alcotest.(check bool) "per-stage spans present" true
        (List.for_all
           (fun name -> Span.find r.Scale.span name <> None)
           [
             "topo.generate." ^ r.Scale.family;
             "embed.geometric";
             "routing.build";
             "cycles.build";
             "fib.compile";
             "swap.publish";
             "forward.plain";
             "forward.probe";
             "forward.sketch";
             "parallel.batch";
           ]);
      Alcotest.(check bool) "span coverage is high" true
        (r.Scale.span_coverage >= 0.9);
      Alcotest.(check bool) "overhead is finite and positive" true
        (Float.is_finite r.Scale.sketch_overhead && r.Scale.sketch_overhead > 0.0))
    c.Scale.results;
  Alcotest.(check bool) "campaign coverage floor tracks the worst case" true
    (c.Scale.span_coverage_min
    = List.fold_left
        (fun acc r -> Float.min acc r.Scale.span_coverage)
        1.0 c.Scale.results);
  (* The artifact parses, and the history scanner accepts the suite. *)
  (match Json.parse (Scale.to_json c) with
  | Error e -> Alcotest.failf "scale json does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option string)) "suite member" (Some "scale")
        (Option.bind (Json.member "suite" j) Json.str);
      Alcotest.(check bool) "overhead_ratio present" true
        (Option.bind (Json.member "overhead_ratio" j) Json.num <> None);
      let results =
        Option.value ~default:[]
          (Option.bind (Json.member "results" j) Json.list)
      in
      Alcotest.(check int) "results serialised" 2 (List.length results));
  (match Json.parse (Scale.spans_json c) with
  | Error e -> Alcotest.failf "spans json does not parse: %s" e
  | Ok _ -> ());
  let tmp = Filename.temp_file "BENCH_scale_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out tmp in
      output_string oc (Scale.to_json c);
      close_out oc;
      match Pr_report.Report.load_bench tmp with
      | Error e -> Alcotest.failf "load_bench rejects the scale suite: %s" e
      | Ok entry ->
          Alcotest.(check string) "scanner suite" "scale"
            entry.Pr_report.Report.suite;
          Alcotest.(check (float 1e-9)) "scanner norm is the overhead ratio"
            c.Scale.overhead_ratio entry.Pr_report.Report.norm)

let test_scale_rejects_bad_knobs () =
  let boom msg f = Alcotest.check_raises msg (Invalid_argument
    "Scale.run: empty families or sizes") f in
  boom "no families" (fun () ->
      ignore (Scale.run ~families:[] ~sizes:[ 48 ] ~seed:1 ()));
  boom "no sizes" (fun () ->
      ignore (Scale.run ~families:[ Scale.Ba ] ~sizes:[] ~seed:1 ()));
  let knob msg f = Alcotest.check_raises msg (Invalid_argument
    "Scale.run: non-positive knob") f in
  knob "zero pairs" (fun () ->
      ignore (Scale.run ~pairs:0 ~families:[ Scale.Ba ] ~sizes:[ 48 ] ~seed:1 ()));
  knob "zero scenarios" (fun () ->
      ignore
        (Scale.run ~scenarios:0 ~families:[ Scale.Ba ] ~sizes:[ 48 ] ~seed:1 ()));
  Alcotest.(check (option string)) "family parser" (Some "waxman")
    (Option.map Scale.family_name (Scale.family_of_string "waxman"));
  Alcotest.(check bool) "unknown family" true
    (Scale.family_of_string "smallworld" = None)

(* ---- span JSON round-trip ---- *)

let rec span_shape_eq (a : Span.node) (b : Span.node) =
  (* wall_ns and heap_delta_words are emitted exactly; the word counts
     go through %.1f, so round-tripping keeps them only to half a
     word-tenth. *)
  String.equal a.name b.name
  && Int64.equal a.wall_ns b.wall_ns
  && a.heap_delta_words = b.heap_delta_words
  && Float.abs (a.minor_words -. b.minor_words) <= 0.06
  && Float.abs (a.major_words -. b.major_words) <= 0.06
  && List.length a.children = List.length b.children
  && List.for_all2 span_shape_eq a.children b.children

let test_span_json_roundtrip () =
  let sp = Span.create () in
  Span.timed_on sp "root" (fun () ->
      Span.timed_on sp "a" (fun () ->
          Span.timed_on sp "a.inner" (fun () ->
              ignore (Sys.opaque_identity (Array.make 4096 0.0))));
      Span.timed_on sp "b" ignore);
  Span.timed_on sp "tail" ignore;
  let roots = Span.roots sp in
  List.iter
    (fun pretty ->
      let s = Span.to_json ~pretty roots in
      match Json.parse s with
      | Error e -> Alcotest.failf "to_json (pretty %b) unparseable: %s" pretty e
      | Ok j ->
          let back = Span.of_json j in
          Alcotest.(check bool)
            (Printf.sprintf "forest survives round-trip (pretty %b)" pretty)
            true
            (List.length back = List.length roots
            && List.for_all2 span_shape_eq roots back))
    [ false; true ];
  (* Shape violations are refused, not mangled. *)
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Error e -> Alcotest.failf "fixture unparseable: %s" e
      | Ok j -> (
          match Span.of_json j with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "of_json accepted %s" bad))
    [ "{}"; "[{\"name\":\"x\"}]"; "[{\"wall_ns\":1}]"; "[42]" ]

(* ---- sketch merge edge cases: the pooled-CDF fallback ---- *)

let test_sketch_merge_pooled_edges () =
  (* Disjoint shards: all the mass of one sits beyond the other.  The
     pooled-CDF rank inversion must keep the estimate finite and inside
     the pooled range. *)
  let a = Sketch.create ~q:0.5 and b = Sketch.create ~q:0.5 in
  for i = 0 to 99 do
    Sketch.observe a (float_of_int i /. 100.0);
    Sketch.observe b (100.0 +. (float_of_int i /. 100.0))
  done;
  Sketch.merge ~into:a b;
  Alcotest.(check int) "disjoint merge count" 200 (Sketch.count a);
  let est = Sketch.quantile a in
  Alcotest.(check bool) "disjoint merge estimate finite" true
    (Float.is_finite est);
  Alcotest.(check bool) "estimate inside pooled range" true
    (est >= Sketch.min_value a && est <= Sketch.max_value a);
  (* Degenerate shards: every height equal on both sides (dx = 0 in the
     inversion).  The unit-gap repair must not divide by zero. *)
  let c = Sketch.create ~q:0.9 and d = Sketch.create ~q:0.9 in
  for _ = 1 to 50 do
    Sketch.observe c 5.0;
    Sketch.observe d 5.0
  done;
  Sketch.merge ~into:c d;
  Alcotest.(check (float 1e-9)) "all-equal merge is exact" 5.0
    (Sketch.quantile c);
  Alcotest.(check int) "all-equal merge count" 100 (Sketch.count c);
  (* A small source replays raw values; a small destination swaps
     roles.  Both must preserve total mass and finiteness. *)
  let full = Sketch.create ~q:0.5 and tiny = Sketch.create ~q:0.5 in
  for i = 1 to 40 do
    Sketch.observe full (float_of_int i)
  done;
  Sketch.observe tiny 1000.0;
  Sketch.observe tiny 2000.0;
  let into_full = Sketch.copy full in
  Sketch.merge ~into:into_full tiny;
  Alcotest.(check int) "small-source merge count" 42 (Sketch.count into_full);
  Alcotest.(check bool) "small-source merge finite" true
    (Float.is_finite (Sketch.quantile into_full));
  let into_tiny = Sketch.copy tiny in
  Sketch.merge ~into:into_tiny full;
  Alcotest.(check int) "small-destination merge count" 42
    (Sketch.count into_tiny);
  Alcotest.(check bool) "small-destination merge finite" true
    (Float.is_finite (Sketch.quantile into_tiny));
  (* Same shards, same order: bitwise equal results. *)
  let r1 = Sketch.copy full and r2 = Sketch.copy full in
  Sketch.merge ~into:r1 tiny;
  Sketch.merge ~into:r2 tiny;
  Alcotest.(check bool) "merge deterministic" true (Sketch.equal r1 r2)

(* ---- flight-record bit-stability across worker-domain counts ---- *)

let flight_of_campaign (c : Scale.campaign) =
  let fl = Pr_telemetry.Flight.create ~cmd:"bench-scale" ~seed:c.Scale.seed () in
  List.iter
    (fun (r : Scale.result) ->
      let pre = Printf.sprintf "%s.%d" r.family r.n in
      Pr_telemetry.Flight.count fl (pre ^ ".edges") r.m;
      Pr_telemetry.Flight.count fl (pre ^ ".delivered") r.delivered;
      Pr_telemetry.Flight.count fl (pre ^ ".dropped") r.dropped;
      Pr_telemetry.Flight.count fl (pre ^ ".looped") r.looped;
      Pr_telemetry.Flight.count fl (pre ^ ".unreachable") r.unreachable;
      Pr_telemetry.Flight.count fl (pre ^ ".image_bytes") r.image_bytes;
      let bank vs = Array.map2 (fun q v -> (q, v)) Probe.sketch_qs vs in
      Pr_telemetry.Flight.quantiles fl (pre ^ ".stretch") (bank r.stretch_q);
      Pr_telemetry.Flight.quantiles fl (pre ^ ".hops") (bank r.hops_q))
    c.Scale.results;
  (* Wall-clock figures and the domain count itself are volatile: they
     may differ across runs without breaking the stable body. *)
  Pr_telemetry.Flight.metric fl "domains" (float_of_int c.Scale.domains);
  Pr_telemetry.Flight.metric fl "overhead_ratio" c.Scale.overhead_ratio;
  Pr_telemetry.Flight.set_spans fl
    (List.map (fun (r : Scale.result) -> r.Scale.span) c.Scale.results);
  fl

let test_flight_stable_across_domains () =
  let campaign d =
    Scale.run ~domains:d ~scenarios:2 ~pairs:200
      ~families:[ Scale.Ba ] ~sizes:[ 32 ] ~seed:7 ()
  in
  let records = List.map (fun d -> flight_of_campaign (campaign d)) [ 1; 2; 4 ] in
  match records with
  | fl1 :: rest ->
      let j1 = Pr_telemetry.Flight.stable_json fl1 in
      let f1 = Pr_telemetry.Flight.stable_fingerprint fl1 in
      Alcotest.(check int64)
        "fingerprint is the FNV-1a of the stable body"
        (Pr_telemetry.Flight.fnv1a_string j1)
        f1;
      List.iter
        (fun fl ->
          Alcotest.(check string) "stable body bit-identical across domains" j1
            (Pr_telemetry.Flight.stable_json fl);
          Alcotest.(check int64) "fingerprint identical across domains" f1
            (Pr_telemetry.Flight.stable_fingerprint fl))
        rest;
      (* The full record stays a single ledger line even with the span
         forest attached. *)
      Alcotest.(check bool) "record is one JSONL line" true
        (not (String.contains (Pr_telemetry.Flight.to_json fl1) '\n'))
  | [] -> assert false

let suite =
  [
    Alcotest.test_case "span nesting and coverage" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "span ambient install guard" `Quick
      test_span_ambient_guard;
    Alcotest.test_case "sketch exact below five" `Quick test_sketch_exact_small;
    Alcotest.test_case "sketch P2 accuracy" `Quick test_sketch_accuracy;
    Alcotest.test_case "sketch merge determinism" `Quick test_sketch_merge;
    Alcotest.test_case "sketch ties and log domain" `Quick
      test_sketch_ties_and_log;
    Alcotest.test_case "sketch vs histogram differential wall" `Slow
      test_sketch_histogram_differential;
    Alcotest.test_case "sketch-armed parallel determinism" `Quick
      test_sketch_parallel_determinism;
    Alcotest.test_case "fib footprint accounting" `Quick test_fib_footprint;
    Alcotest.test_case "scale campaign smoke" `Slow test_scale_campaign_smoke;
    Alcotest.test_case "scale knob validation" `Quick
      test_scale_rejects_bad_knobs;
    Alcotest.test_case "span JSON round-trip" `Quick test_span_json_roundtrip;
    Alcotest.test_case "sketch merge pooled-CDF edges" `Quick
      test_sketch_merge_pooled_edges;
    Alcotest.test_case "flight record bit-stable across domains" `Slow
      test_flight_stable_across_domains;
  ]
