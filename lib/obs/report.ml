module Topology = Pr_topo.Topology
module Linkload = Pr_obs.Linkload
module Forward = Pr_core.Forward
module Kernel = Pr_fastpath.Kernel
module Parallel = Pr_fastpath.Parallel
module Probe = Pr_telemetry.Probe
module Json = Pr_util.Json
module Ccdf = Pr_stats.Ccdf

(* ---- the observed sweep ---- *)

type sweep = {
  topology : Topology.t;
  scenarios : int;
  packets : int;
  domains : int;
  reference : Linkload.t;
  compiled : Linkload.t;
  parallel : Linkload.t;
  loads_agree : bool;
  counters_agree : bool;
  counters : Kernel.counters;
  scenario_max : float list;
  stretches : float list;
  shortcut : int option;
  dd_stretches : float list;
  footprint : Pr_fastpath.Fib.footprint;
  linkload_bytes : int;
}

let sweep ?(domains = 2) ?shortcut (topo : Topology.t) rotation =
  let g = topo.Topology.graph in
  let routing = Pr_core.Routing.build g in
  let cycles = Pr_core.Cycle_table.build rotation in
  let fib = Pr_fastpath.Fib.of_tables_exn routing cycles in
  let sc_plan =
    Option.map
      (fun w -> Pr_core.Seen.plan ~nodes:(Pr_graph.Graph.n g) ~width:w)
      shortcut
  in
  let items = Parallel.all_pairs_single_failures fib in
  let packets =
    Array.fold_left
      (fun acc (it : Parallel.item) -> acc + Array.length it.pairs)
      0 items
  in
  (* Reference walk.  A disconnected pair is not walked — the compiled
     batch's rule, which the reference must share for the tables to be
     comparable at all. *)
  let reference = Linkload.create g in
  let scratch = Linkload.create g in
  let scenario_max = ref [] in
  let stretches = ref [] in
  Array.iter
    (fun (it : Parallel.item) ->
      Array.iter
        (fun (src, dst) ->
          if Pr_core.Failure.pair_connected it.failures src dst then
            let trace =
              Forward.run ~termination:Forward.Distance_discriminator
                ~linkload:scratch ?shortcut:sc_plan ~routing ~cycles
                ~failures:it.failures ~src ~dst ()
            in
            match trace.Forward.outcome with
            | Forward.Delivered ->
                stretches :=
                  Forward.stretch ~routing ~trace ~src ~dst :: !stretches
            | _ -> ())
        it.pairs;
      scenario_max := float_of_int (Linkload.max_load scratch) :: !scenario_max;
      Linkload.merge ~into:reference scratch;
      Linkload.reset scratch)
    items;
  (* With the shortcut rung armed, a second reference pass with it
     disarmed supplies the DD-only baseline the stretch-CCDF comparison
     renders — same walks, same delivery guarantee, shortcut declined
     everywhere. *)
  let dd_stretches =
    match sc_plan with
    | None -> []
    | Some _ ->
        let acc = ref [] in
        Array.iter
          (fun (it : Parallel.item) ->
            Array.iter
              (fun (src, dst) ->
                if Pr_core.Failure.pair_connected it.failures src dst then
                  let trace =
                    Forward.run ~termination:Forward.Distance_discriminator
                      ~routing ~cycles ~failures:it.failures ~src ~dst ()
                  in
                  match trace.Forward.outcome with
                  | Forward.Delivered ->
                      acc := Forward.stretch ~routing ~trace ~src ~dst :: !acc
                  | _ -> ())
              it.pairs)
          items;
        List.rev !acc
  in
  (* Compiled kernel, driven scenario by scenario on one domain. *)
  let compiled = Linkload.create g in
  let kernel = Kernel.create fib in
  Kernel.set_linkload kernel (Some compiled);
  Kernel.set_shortcut kernel shortcut;
  let compiled_counters = Kernel.fresh_counters () in
  Array.iter
    (fun (it : Parallel.item) ->
      (* One counter slot per item, merged in item order — the parallel
         runner's float-summation order, so the comparison below is
         bit-exact. *)
      let slot = Kernel.fresh_counters () in
      Kernel.set_failures kernel it.failures;
      Array.iter
        (fun (src, dst) ->
          if not (Pr_core.Failure.pair_connected it.failures src dst) then
            Kernel.record_unreachable slot
          else Kernel.forward_into kernel slot ~src ~dst)
        it.pairs;
      Kernel.add_counters ~into:compiled_counters slot)
    items;
  (* Domain-parallel batch over the same items. *)
  let counters, parallel =
    Parallel.run_loaded ~domains
      ~config:{ Parallel.default_config with shortcut }
      ~seed:0 fib items
  in
  {
    topology = topo;
    scenarios = Array.length items;
    packets;
    domains;
    reference;
    compiled;
    parallel;
    loads_agree =
      Linkload.equal reference compiled && Linkload.equal compiled parallel;
    counters_agree = Kernel.equal_counters compiled_counters counters;
    counters;
    scenario_max = List.rev !scenario_max;
    stretches = List.rev !stretches;
    shortcut;
    dd_stretches;
    footprint = Pr_fastpath.Fib.footprint fib;
    linkload_bytes = Linkload.footprint_bytes reference;
  }

let agree s = s.loads_agree && s.counters_agree

(* ---- rendering ---- *)

let stretch_grid = [ 1.0; 1.5; 2.0; 3.0; 4.0; 6.0; 8.0; 12.0; 16.0 ]

(* A small integer grid spanning the samples: CCDF tables stay readable
   whatever the topology's load scale is. *)
let int_grid c =
  let lo = int_of_float (Ccdf.min_sample c) in
  let hi =
    match Ccdf.max_finite c with Some h -> int_of_float h | None -> lo
  in
  if hi <= lo then [ float_of_int lo ]
  else
    let step = max 1 ((hi - lo + 5) / 6) in
    let rec go x acc =
      if x > hi then List.rev acc else go (x + step) (float_of_int x :: acc)
    in
    go lo []

let ccdf_lines ~name ~grid samples =
  match samples with
  | [] -> [ Printf.sprintf "  %s CCDF: no samples" name ]
  | _ ->
      let c = Ccdf.of_samples samples in
      let xs = match grid with Some g -> g | None -> int_grid c in
      Printf.sprintf "  %s CCDF (%d samples):" name (Ccdf.size c)
      :: List.map
           (fun (x, p) -> Printf.sprintf "    P(> %g) = %.4f" x p)
           (Ccdf.series c ~xs)

let top_lines (topo : Topology.t) ll k =
  let line (u, v, sp, pr, re, sc) =
    Printf.sprintf
      "    %-12s -> %-12s %7d = %d shortest + %d recycled + %d rescue + %d \
       shortcut"
      (Topology.label topo u) (Topology.label topo v)
      (sp + pr + re + sc)
      sp pr re sc
  in
  match Linkload.top ll ~k with
  | [] -> [ "    (no load recorded)" ]
  | tops -> List.map line tops

let render ?(top = 5) s =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "observatory report: %s" (Topology.summary s.topology);
  line "  sweep: %d single-failure scenario(s), %d packet(s) per backend"
    s.scenarios s.packets;
  line "  backend parity: linkload %s, counters %s"
    (if s.loads_agree then
       "reference = compiled = parallel(x" ^ string_of_int s.domains ^ ") OK"
     else "MISMATCH")
    (if s.counters_agree then "OK" else "MISMATCH");
  line "  hop classes: %d shortest-path, %d recycled, %d rescue, %d shortcut"
    (Linkload.class_total s.reference ~cls:Linkload.cls_shortest)
    (Linkload.class_total s.reference ~cls:Linkload.cls_recycled)
    (Linkload.class_total s.reference ~cls:Linkload.cls_rescue)
    (Linkload.class_total s.reference ~cls:Linkload.cls_shortcut);
  line "  memory: FIB image %d bytes (%.1f per router), linkload table %d \
        bytes"
    s.footprint.Pr_fastpath.Fib.total_bytes
    s.footprint.Pr_fastpath.Fib.bytes_per_router s.linkload_bytes;
  line "  top %d hottest directed links:" top;
  List.iter (line "%s") (top_lines s.topology s.reference top);
  List.iter (line "%s")
    (ccdf_lines ~name:"max-link-load" ~grid:None s.scenario_max);
  List.iter (line "%s")
    (ccdf_lines ~name:"stretch" ~grid:(Some stretch_grid) s.stretches);
  (match s.shortcut with
  | None -> ()
  | Some w ->
      line "  shortcut rung: width %d bit(s), %d grant(s) in the parallel run"
        w s.counters.Kernel.shortcut_exits;
      List.iter (line "%s")
        (ccdf_lines ~name:"stretch (DD-only baseline)"
           ~grid:(Some stretch_grid) s.dd_stretches);
      let mean xs =
        match xs with
        | [] -> 0.0
        | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
      in
      line "  mean stretch: %.4f with shortcut vs %.4f DD-only"
        (mean s.stretches) (mean s.dd_stretches));
  Buffer.contents b

let json_ccdf samples ~grid =
  match samples with
  | [] -> "{\"xs\": [], \"ps\": []}"
  | _ ->
      let c = Ccdf.of_samples samples in
      let xs = match grid with Some g -> g | None -> int_grid c in
      let series = Ccdf.series c ~xs in
      Printf.sprintf "{\"xs\": [%s], \"ps\": [%s]}"
        (String.concat ","
           (List.map (fun (x, _) -> Printf.sprintf "%g" x) series))
        (String.concat ","
           (List.map (fun (_, p) -> Printf.sprintf "%.6f" p) series))

let to_json ?(top = 5) s =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\n  \"topology\": %S,\n" s.topology.Topology.name;
  Printf.bprintf b
    "  \"scenarios\": %d,\n  \"packets\": %d,\n  \"domains\": %d,\n"
    s.scenarios s.packets s.domains;
  Printf.bprintf b "  \"loads_agree\": %b,\n  \"counters_agree\": %b,\n"
    s.loads_agree s.counters_agree;
  Printf.bprintf b
    "  \"class_totals\": {\"shortest-path\": %d, \"recycled\": %d, \
     \"rescue\": %d, \"shortcut\": %d},\n"
    (Linkload.class_total s.reference ~cls:Linkload.cls_shortest)
    (Linkload.class_total s.reference ~cls:Linkload.cls_recycled)
    (Linkload.class_total s.reference ~cls:Linkload.cls_rescue)
    (Linkload.class_total s.reference ~cls:Linkload.cls_shortcut);
  let tops =
    List.map
      (fun (u, v, sp, pr, re, sc) ->
        Printf.sprintf
          "{\"from\": %S, \"to\": %S, \"shortest\": %d, \"recycled\": %d, \
           \"rescue\": %d, \"shortcut\": %d}"
          (Topology.label s.topology u)
          (Topology.label s.topology v)
          sp pr re sc)
      (Linkload.top s.reference ~k:top)
  in
  Printf.bprintf b "  \"top\": [%s],\n" (String.concat ", " tops);
  Printf.bprintf b "  \"memory\": {\"fib\": %s, \"linkload_bytes\": %d},\n"
    (Pr_fastpath.Fib.footprint_json s.footprint)
    s.linkload_bytes;
  Printf.bprintf b "  \"max_link_load_ccdf\": %s,\n"
    (json_ccdf s.scenario_max ~grid:None);
  Printf.bprintf b "  \"stretch_ccdf\": %s,\n"
    (json_ccdf s.stretches ~grid:(Some stretch_grid));
  (match s.shortcut with
  | None -> ()
  | Some w ->
      Printf.bprintf b
        "  \"shortcut\": {\"width\": %d, \"exits\": %d, \
         \"stretch_ccdf_dd_only\": %s},\n"
        w s.counters.Kernel.shortcut_exits
        (json_ccdf s.dd_stretches ~grid:(Some stretch_grid)));
  Printf.bprintf b "  \"linkload\": %s\n}" (Linkload.to_json s.reference);
  Buffer.contents b

(* ---- bench artifacts ---- *)

type bench_entry = {
  file : string;
  suite : string;
  norm : float;
  detail : string;
}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let finite_pos x = Float.is_finite x && x > 0.0

let load_bench file =
  match Json.parse_file file with
  | Error e -> Error (Printf.sprintf "%s: %s" file e)
  | Ok j -> (
      match Option.bind (Json.member "suite" j) Json.str with
      | None -> Error (file ^ ": no \"suite\" member")
      | Some "fastpath" -> (
          let results =
            Option.value ~default:[]
              (Option.bind (Json.member "results" j) Json.list)
          in
          let find tag =
            List.find_map
              (fun r ->
                match Option.bind (Json.member "name" r) Json.str with
                | Some name when contains name tag ->
                    Option.bind (Json.member "ns_per_packet" r) Json.num
                | _ -> None)
              results
          in
          match (find "compiled-sweep", find "reference-sweep") with
          | Some c, Some r when finite_pos c && finite_pos r ->
              Ok
                {
                  file;
                  suite = "fastpath";
                  norm = c /. r;
                  detail =
                    Printf.sprintf "compiled %.1f / reference %.1f ns/packet" c
                      r;
                }
          | _ ->
              Error
                (file
                ^ ": fastpath artifact lacks finite compiled/reference sweep \
                   rows"))
      | Some (("probe" | "linkload" | "guard" | "shortcut") as suite) -> (
          match Option.bind (Json.member "overhead_ratio" j) Json.num with
          | Some r when finite_pos r ->
              Ok
                {
                  file;
                  suite;
                  norm = r;
                  detail = Printf.sprintf "on/off overhead x%.4f" r;
                }
          | _ -> Error (file ^ ": no finite \"overhead_ratio\""))
      | Some "swap" -> (
          (* Control-plane artifact: norm = incremental-recompile time /
             full-recompile time (below 1.0 means the delta path pays
             off); the swap pause rides along as detail. *)
          match Option.bind (Json.member "norm" j) Json.num with
          | Some r when finite_pos r ->
              let ns tag =
                match Option.bind (Json.member tag j) Json.num with
                | Some v when finite_pos v -> Printf.sprintf "%.0f" v
                | _ -> "?"
              in
              Ok
                {
                  file;
                  suite = "swap";
                  norm = r;
                  detail =
                    Printf.sprintf
                      "incremental %s / full %s ns per recompile, swap pause \
                       %s ns"
                      (ns "incremental_ns") (ns "full_ns")
                      (ns "swap_pause_ns");
                }
          | _ -> Error (file ^ ": no finite \"norm\""))
      | Some "scale" -> (
          (* Scale observatory: norm = worst sketch-armed forwarding
             overhead across the campaign; the span-coverage floor
             rides along as detail. *)
          match Option.bind (Json.member "overhead_ratio" j) Json.num with
          | Some r when finite_pos r ->
              let cov =
                match
                  Option.bind (Json.member "span_coverage_min" j) Json.num
                with
                | Some c when Float.is_finite c ->
                    Printf.sprintf ", span coverage %.1f%%" (100.0 *. c)
                | _ -> ""
              in
              Ok
                {
                  file;
                  suite = "scale";
                  norm = r;
                  detail = Printf.sprintf "sketch overhead x%.4f%s" r cov;
                }
          | _ -> Error (file ^ ": no finite \"overhead_ratio\""))
      | Some s -> Error (Printf.sprintf "%s: unknown suite %S" file s))

let scan_bench ~dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> ([], [ msg ])
  | names ->
  let files =
    Array.to_list names
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  let entries, errs =
    List.fold_left
      (fun (entries, errs) f ->
        match load_bench (Filename.concat dir f) with
        | Ok e -> (e :: entries, errs)
        | Error e -> (entries, e :: errs))
      ([], []) files
  in
  (List.rev entries, List.rev errs)

(* ---- the leg timer ---- *)

(* Every overhead gate is a quotient of leg times, so its legs are timed
   alike: each is warmed once, and that call's time sizes the leg's
   batches to about [batch_ns].  The legs then take turns, one batch
   each, so drift on a shared machine hits them in the same window,
   until every leg has spent [leg_ns] in [min_batches] batches or more:
   a leg whose calls take milliseconds still gets seven samples. *)
let leg_ns = 100_000_000

let batch_ns = 2_000_000

let min_batches = 7

let time_best_ns legs =
  let n = Array.length legs in
  let elapsed t0 = Int64.to_int (Int64.sub (Pr_telemetry.Span.now ()) t0) in
  let calls = Array.make n 1 in
  let last =
    Array.mapi
      (fun i leg ->
        let t0 = Pr_telemetry.Span.now () in
        let r = leg () in
        calls.(i) <- max 1 (batch_ns / max 1 (elapsed t0));
        r)
      legs
  in
  let best = Array.make n infinity and spent = Array.make n 0 in
  let batches = ref 0 in
  while !batches < min_batches || Array.exists (fun s -> s < leg_ns) spent do
    Array.iteri
      (fun i leg ->
        let t0 = Pr_telemetry.Span.now () in
        for _ = 1 to calls.(i) do
          last.(i) <- leg ()
        done;
        let dt = elapsed t0 in
        spent.(i) <- spent.(i) + dt;
        best.(i) <-
          Float.min best.(i) (float_of_int dt /. float_of_int calls.(i)))
      legs;
    incr batches
  done;
  Array.map2 (fun b r -> (b, r)) best last

let measure_norm (topo : Topology.t) rotation =
  let g = topo.Topology.graph in
  let routing = Pr_core.Routing.build g in
  let cycles = Pr_core.Cycle_table.build rotation in
  let fib = Pr_fastpath.Fib.of_tables_exn routing cycles in
  let items = Parallel.all_pairs_single_failures fib in
  let timed =
    time_best_ns
      [|
        (fun () -> ignore (Parallel.run ~domains:1 ~seed:0 fib items));
        (fun () ->
          Array.iter
            (fun (it : Parallel.item) ->
              Array.iter
                (fun (src, dst) ->
                  if Pr_core.Failure.pair_connected it.failures src dst then
                    ignore
                      (Forward.run ~termination:Forward.Distance_discriminator
                         ~routing ~cycles ~failures:it.failures ~src ~dst ()))
                it.pairs)
            items);
      |]
  in
  (* Packets cancel in the ratio; this is the machine-portable quantity
     the committed artifacts also determine. *)
  fst timed.(0) /. fst timed.(1)

(* ---- compile-cost attribution ---- *)

type compile_profile = {
  compile : Pr_telemetry.Span.node;  (* the fib.compile span *)
  planes : Pr_telemetry.Span.node list;  (* its per-plane children *)
  costs : (int * int64) list;  (* sampled (dst, ns), destination order *)
  cost_q : (float * float) array;  (* (q, ns) over the samples *)
  top : (int * int64) list;  (* costliest sampled destinations *)
}

let profile_compile ?(top = 5) (topo : Topology.t) rotation =
  let sp = Pr_telemetry.Span.create () in
  Pr_telemetry.Span.install sp;
  let fib =
    Fun.protect ~finally:Pr_telemetry.Span.uninstall (fun () ->
        let g = topo.Topology.graph in
        let routing = Pr_core.Routing.build g in
        let cycles = Pr_core.Cycle_table.build rotation in
        Pr_fastpath.Fib.of_tables_exn routing cycles)
  in
  ignore (fib : Pr_fastpath.Fib.t);
  let compile =
    match
      List.find_map
        (fun r -> Pr_telemetry.Span.find r "fib.compile")
        (Pr_telemetry.Span.roots sp)
    with
    | Some node -> node
    | None -> failwith "profile_compile: no fib.compile span recorded"
  in
  let costs = Pr_fastpath.Fib.last_compile_costs () in
  let sorted =
    List.sort (fun (_, a) (_, b) -> Int64.compare b a) costs
  in
  let rec take k = function
    | x :: rest when k > 0 -> x :: take (k - 1) rest
    | _ -> []
  in
  let ns = Array.of_list (List.map (fun (_, c) -> Int64.to_float c) costs) in
  Array.sort Float.compare ns;
  let quantile q =
    let n = Array.length ns in
    if n = 0 then Float.nan
    else ns.(max 0 (min (n - 1) (int_of_float (q *. float_of_int (n - 1)))))
  in
  {
    compile;
    planes = compile.Pr_telemetry.Span.children;
    costs;
    cost_q = Array.map (fun q -> (q, quantile q)) Probe.sketch_qs;
    top = take top sorted;
  }

let render_compile p =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  let total = p.compile.Pr_telemetry.Span.wall_ns in
  line "fib.compile hotspots: %.3f ms total, %d sampled destination(s)"
    (Pr_telemetry.Span.wall_ms p.compile)
    (List.length p.costs);
  List.iter
    (fun (c : Pr_telemetry.Span.node) ->
      let pct =
        if Int64.compare total 0L <= 0 then 0.0
        else
          100.0
          *. Int64.to_float c.Pr_telemetry.Span.wall_ns
          /. Int64.to_float total
      in
      line "  %-24s %10.3f ms %5.1f%%  minor %8.2f Mw  major %8.2f Mw"
        c.Pr_telemetry.Span.name
        (Pr_telemetry.Span.wall_ms c)
        pct
        (c.Pr_telemetry.Span.minor_words /. 1e6)
        (c.Pr_telemetry.Span.major_words /. 1e6))
    p.planes;
  if p.cost_q <> [||] then
    line "  per-destination cost (routing plane, sampled): %s"
      (String.concat "  "
         (Array.to_list
            (Array.map
               (fun (q, v) -> Printf.sprintf "p%.0f %.0f ns" (100.0 *. q) v)
               p.cost_q)));
  List.iter
    (fun (dst, c) -> line "    costliest dst %-6d %Ld ns" dst c)
    p.top;
  Buffer.contents b

let compile_to_json p =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n\"schema\": \"pr.compile/1\",\n";
  Printf.bprintf b "\"compile_ms\": %s,\n"
    (Json.number (Pr_telemetry.Span.wall_ms p.compile));
  Printf.bprintf b "\"planes\": %s,\n" (Pr_telemetry.Span.to_json p.planes);
  Printf.bprintf b "\"cost_quantiles\": [%s],\n"
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun (q, v) ->
               Printf.sprintf "{\"q\":%s,\"ns\":%s}" (Json.number q)
                 (Json.number v))
             p.cost_q)));
  Printf.bprintf b "\"top\": [%s]\n}\n"
    (String.concat ","
       (List.map
          (fun (dst, c) -> Printf.sprintf "{\"dst\":%d,\"ns\":%Ld}" dst c)
          p.top));
  Buffer.contents b
