(* One workload, end to end: generate the inputs, set up, referee, run the
   timed rounds, and reduce the samples to the named metrics.  Everything
   is called through the layers' public entry points, on one domain,
   except the traced run's two-domain scaling leg.

   A round is the same sequence of operations every time: the set-up
   builds, one edit session (each edit followed by [calls_per_edit]
   forwarding calls on the image it published), then the rest of the
   pool's calls on the base image.  Rounds repeat until the measured time
   is over.  Each distinct call and each edit position is timed once per
   round and reduced to its median over the rounds; the quantiles and the
   throughput are taken over those medians.  A slowdown of the machine
   that lasts less than half the run therefore moves no figure. *)

module Graph = Pr_graph.Graph
module Routing = Pr_core.Routing
module Cycle_table = Pr_core.Cycle_table
module Forward = Pr_core.Forward
module Failure = Pr_core.Failure
module Fib = Pr_fastpath.Fib
module Swap = Pr_fastpath.Swap
module Kernel = Pr_fastpath.Kernel
module Parallel = Pr_fastpath.Parallel
module Linkload = Pr_obs.Linkload
module Rng = Pr_util.Rng
module W = Workload

type metric = { name : string; unit_ : string; value : float; samples : int }

type result = {
  problems : string list;  (** referee failures; empty when correct *)
  attempted : int;  (** timed set-ups, forwarding calls and edits *)
  metrics : metric list;
  spans : Tracer.summary list;
}

let span = Tracer.with_span
let now = Tracer.now
let since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* Nearest-rank quantile. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median = quantile 0.5

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Every plane [Fib.footprint] reports at the time the benchmark was
   written; planes added later are summed into [fib.plane_bytes.other],
   planes removed later read 0. *)
let planes =
  [ "degree"; "port_node"; "port_weight"; "node_port"; "next_hop_port"; "disc";
    "disc_q"; "distance"; "cycle_col"; "comp_col"; "lfa_off"; "lfa_ports";
    "sc_mask"; "live"; "eff_weight" ]

(* The packets' hop budget.  [Forward.default_ttl] (2m(n+2)+n+16, ~6e6
   hops on BA n=1000) lets one looping packet cost as much as 10^4
   delivered ones, and then throughput counts loops.  16n+64 is far above
   the longest delivered walk on these instances, so every verdict is the
   same as under the default budget. *)
let ttl g = min (Forward.default_ttl g) ((16 * Graph.n g) + 64)

let embed (spec : W.t) topo =
  match spec.embedding with
  | W.Recommend -> Pr_embed.Recommend.rotation topo
  | W.Geometric -> Pr_embed.Geometric.of_topology topo

(* embed -> route -> cycle tables -> compile -> publish. *)
let build spec topo =
  span "setup" @@ fun () ->
  let rotation = span "embed" (fun () -> embed spec topo) in
  let g = topo.Pr_topo.Topology.graph in
  let routing = span "Routing.build" (fun () -> Routing.build g) in
  let cycles = span "Cycle_table.build" (fun () -> Cycle_table.build rotation) in
  let fib = span "Fib.of_tables" (fun () -> Fib.of_tables_exn routing cycles) in
  let swap = span "Swap.create" (fun () -> Swap.create fib) in
  (rotation, routing, cycles, Swap.current swap)

let packets (call : W.call) =
  Array.fold_left (fun acc it -> acc + Array.length it.Parallel.pairs) 0 call

let walked (c : Kernel.counters) = c.injected - c.unreachable

(* Referee: the first [limit] packets of the workload, walked by the
   compiled kernel and by the reference [Forward.run], must reach the same
   verdict counts and stretch. *)
let referee_packets ~limit ~config ~seed ~routing ~cycles ~fib (pool : W.call array) =
  let g = Routing.graph routing in
  let items = ref [] and left = ref limit in
  Array.iter
    (Array.iter (fun (it : Parallel.item) ->
         let k = min !left (Array.length it.pairs) in
         if k > 0 then begin
           items := { it with pairs = Array.sub it.pairs 0 k } :: !items;
           left := !left - k
         end))
    pool;
  let items = Array.of_list (List.rev !items) in
  let kernel = Parallel.run ~config ~seed fib items in
  let r = Kernel.fresh_counters () in
  Array.iter
    (fun (it : Parallel.item) ->
      Array.iter
        (fun (src, dst) ->
          r.injected <- r.injected + 1;
          if not (Failure.pair_connected it.failures src dst) then
            r.unreachable <- r.unreachable + 1
          else
            let t =
              Forward.run ?ttl:config.Parallel.ttl ~routing ~cycles
                ~failures:it.failures ~src ~dst ()
            in
            match t.outcome with
            | Forward.Delivered ->
                let rec cost acc = function
                  | a :: (b :: _ as rest) -> cost (acc +. Graph.weight g a b) rest
                  | _ -> acc
                in
                r.delivered <- r.delivered + 1;
                r.stretch_sum <-
                  r.stretch_sum
                  +. (cost 0.0 t.path /. Routing.distance routing ~node:src ~dst)
            | Forward.Ttl_exceeded -> r.looped <- r.looped + 1
            | _ -> r.dropped <- r.dropped + 1)
        it.pairs)
    items;
  let same =
    kernel.injected = r.injected
    && kernel.delivered = r.delivered
    && kernel.dropped = r.dropped
    && kernel.looped = r.looped
    && kernel.unreachable = r.unreachable
    && Float.abs (kernel.stretch_sum -. r.stretch_sum)
       <= 1e-9 *. Float.max 1.0 r.stretch_sum
  in
  if same then None
  else
    Some
      (Printf.sprintf
         "first %d packets: kernel %d/%d/%d/%d stretch %.9g, reference \
          %d/%d/%d/%d stretch %.9g (delivered/dropped/looped/unreachable)"
         r.injected kernel.delivered kernel.dropped kernel.looped
         kernel.unreachable kernel.stretch_sum r.delivered r.dropped r.looped
         r.unreachable r.stretch_sum)

type session_facts = { dirty : float list; fallbacks : int; retained_words : int }

(* Referee: one untimed pass of the edit script.  Every 10th image must be
   byte-equal to a full recompile, and the store must be quiescent at the
   end.  It also records the script's dirty ratios and fallbacks (the same
   in every round) and the heap the session's store keeps alive. *)
let referee_session ~problem fib script =
  let n = float_of_int (Fib.n fib) in
  let live0 = live_words () in
  let swap = Swap.create fib in
  let dirty = ref [] and fallbacks = ref 0 in
  List.iteri
    (fun i edit ->
      match Fib.Delta.apply (Swap.current swap) [ edit ] with
      | Error e -> problem (Printf.sprintf "edit %d: %s" i (Fib.Delta.describe_error e))
      | Ok (image, stats) ->
          ignore (Swap.publish swap image : int);
          dirty := (float_of_int stats.dirty /. n) :: !dirty;
          if stats.full then incr fallbacks;
          if i mod 10 = 0 && not (Fib.equal image (Fib.Delta.recompile image)) then
            problem (Printf.sprintf "edit %d: image differs from a full recompile" i))
    script;
  let retained_words = live_words () - live0 in
  if not (Swap.quiescent swap) then problem "referee session: store not quiescent";
  { dirty = List.rev !dirty; fallbacks = !fallbacks; retained_words }

let run (spec : W.t) ~seed ~seconds ~trace =
  Tracer.enabled := trace;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let attempted = ref 0 in
  (* Inputs.  The topology is input generation, not set-up. *)
  let t_gen = now () in
  let topo = span "topo.generate" spec.topology in
  let gen_ns = since t_gen in
  let g = topo.Pr_topo.Topology.graph in
  let n = Graph.n g in
  let rotation, routing, cycles, fib = build spec topo in
  let pool = spec.pool (Rng.create ~seed) routing in
  let script = W.edit_script g ~links:spec.script_links in
  let config = { Parallel.default_config with ttl = Some (ttl g) } in
  (* Untimed referee. *)
  let faces = Pr_embed.Faces.compute rotation in
  let genus = Pr_embed.Surface.genus faces in
  let curved = List.length (Pr_embed.Validate.curved_edges faces) in
  (* A genus-0 embedding without curved edges is the regime where PR
     delivers every packet whose endpoints stay connected. *)
  let lossless = genus = 0 && curved = 0 in
  let facts =
    span "referee" (fun () ->
        Option.iter (problem "%s")
          (referee_packets ~limit:500 ~config ~seed ~routing ~cycles ~fib pool);
        referee_session ~problem:(problem "%s") fib script)
  in
  (* Timed rounds. *)
  let k = Array.length pool in
  let call_ns = Array.make k [] and plain_ns = Array.make k [] in
  let first = Array.make k None in
  let edit_ns = Array.make (List.length script) [] in
  let setup_ns = ref [] in
  let forward ~round image slot =
    let call = pool.(slot) in
    (* In the traced run odd rounds go unwrapped, so the span overhead can
       be read off the same calls. *)
    let wrapped = not (trace && round land 1 = 1) in
    let t = now () in
    let c =
      if wrapped then span "Parallel.run" (fun () -> Parallel.run ~config ~seed image call)
      else Parallel.run ~config ~seed image call
    in
    let dt = since t in
    incr attempted;
    if wrapped then call_ns.(slot) <- dt :: call_ns.(slot)
    else plain_ns.(slot) <- dt :: plain_ns.(slot);
    match first.(slot) with
    | Some c0 ->
        if not (Kernel.equal_counters c0 c) then
          problem "round %d call %d: counters differ from round 0" round slot
    | None ->
        first.(slot) <- Some c;
        if c.injected <> packets call
           || c.injected <> c.delivered + c.dropped + c.looped + c.unreachable
        then problem "call %d: counters do not add up" slot;
        if lossless && c.dropped + c.looped > 0 then
          problem "call %d: %d packets lost on a genus-0 embedding" slot
            (c.dropped + c.looped)
  in
  let round r =
    Gc.full_major ();
    for _ = 1 to spec.builds_per_round do
      let t = now () in
      ignore (Sys.opaque_identity (build spec topo));
      setup_ns := since t :: !setup_ns;
      incr attempted
    done;
    (* The edit session starts from a collected heap, so it does not pay
       for the set-up's garbage. *)
    Gc.full_major ();
    let swap = Swap.create fib and slot = ref 0 in
    List.iteri
      (fun i edit ->
        let t = now () in
        match span "Fib.Delta.apply" (fun () -> Fib.Delta.apply (Swap.current swap) [ edit ]) with
        | Error e -> problem "edit %d: %s" i (Fib.Delta.describe_error e)
        | Ok (image, _) ->
            ignore (span "Swap.publish" (fun () -> Swap.publish swap image) : int);
            edit_ns.(i) <- since t :: edit_ns.(i);
            incr attempted;
            for _ = 1 to spec.calls_per_edit do
              if !slot < k then begin
                let epoch, image = Swap.pin swap in
                forward ~round:r image !slot;
                Swap.unpin swap ~epoch;
                incr slot
              end
            done)
      script;
    if not (Swap.quiescent swap) then problem "round %d: store not quiescent" r;
    while !slot < k do
      forward ~round:r fib !slot;
      incr slot
    done
  in
  (* The traced run needs an unwrapped round to read the span overhead. *)
  let min_rounds = if trace then max 2 spec.min_rounds else spec.min_rounds in
  let t_measure = now () and rounds = ref 0 in
  span "rounds" (fun () ->
      while !rounds < min_rounds || since t_measure < seconds *. 1e9 do
        span "round" (fun () -> round !rounds);
        incr rounds
      done);
  let m name unit_ value samples = { name; unit_; value; samples } in
  let timed samples = Array.fold_left (fun acc l -> acc + List.length l) 0 samples in
  let medians samples = Array.to_list (Array.map median samples) in
  let sum = List.fold_left ( +. ) 0.0 in
  let call_med = medians call_ns and edit_med = medians edit_ns in
  let pass = Kernel.fresh_counters () in
  Array.iter (Option.iter (fun c -> Kernel.add_counters ~into:pass c)) first;
  let fp = Fib.footprint fib in
  let metrics =
    if not trace then
      [
        m "setup_s" "s" (median !setup_ns /. 1e9) (List.length !setup_ns);
        m "fwd_pps" "packets/s"
          (float_of_int pass.injected /. (sum call_med /. 1e9))
          (timed call_ns);
        m "batch_ms_p50" "ms" (median call_med /. 1e6) (timed call_ns);
        m "batch_ms_p90" "ms" (quantile 0.9 call_med /. 1e6) (timed call_ns);
        m "recompile_ms_p50" "ms" (median edit_med /. 1e6) (timed edit_ns);
        m "recompile_ms_p90" "ms" (quantile 0.9 edit_med /. 1e6) (timed edit_ns);
        m "delivery_ratio" "ratio"
          (float_of_int pass.delivered /. float_of_int (walked pass))
          (walked pass);
        m "stretch_mean" "ratio"
          (pass.stretch_sum /. float_of_int pass.delivered)
          pass.delivered;
        m "image_bytes_per_router" "B" fp.bytes_per_router n;
        m "peak_heap_mb" "MiB" (mib (Gc.quick_stat ()).top_heap_words) 1;
      ]
    else begin
      (* The fixed forwarding leg: the first [shared_calls] pool calls as
         one batch, run plain, probed, link-loaded and on two domains,
         each the best of two. *)
      let shared = Array.concat (Array.to_list (Array.sub pool 0 (min k spec.shared_calls))) in
      let best = Hashtbl.create 8 in
      let leg name f =
        let t = now () in
        let r = span name f in
        let dt = since t in
        (match Hashtbl.find_opt best name with
        | Some b when b <= dt -> ()
        | _ -> Hashtbl.replace best name dt);
        r
      in
      let plain = ref (Kernel.fresh_counters ()) and words = ref 0.0 in
      let load = ref None in
      span "shared" (fun () ->
          for _ = 1 to 2 do
            let w0 = Gc.minor_words () in
            plain := leg "Parallel.run.shared" (fun () -> Parallel.run ~config ~seed fib shared);
            words := Gc.minor_words () -. w0;
            let others =
              [
                fst
                  (leg "Parallel.run_probed" (fun () ->
                       Parallel.run_probed ~config ~seed fib shared));
                (let c, ll =
                   leg "Parallel.run_loaded" (fun () ->
                       Parallel.run_loaded ~config ~seed fib shared)
                 in
                 load := Some ll;
                 c);
                leg "Parallel.run.d2" (fun () ->
                    Parallel.run ~domains:2 ~config ~seed fib shared);
              ]
            in
            if not (List.for_all (Kernel.equal_counters !plain) others) then
              problem "shared leg: instrumented or 2-domain counters differ"
          done);
      let c = !plain and ll = Option.get !load in
      let plain_leg = Hashtbl.find best "Parallel.run.shared" in
      let ratio name = Hashtbl.find best name /. plain_leg in
      let w = float_of_int (walked c) in
      let hops = float_of_int (Linkload.total ll) in
      let create_ns =
        List.init 50 (fun _ ->
            let t = now () in
            ignore (span "Kernel.create" (fun () -> Kernel.create fib) : Kernel.t);
            since t)
      in
      let fixed_ns =
        List.init (min 100 k) (fun i ->
            let call = Array.map (fun (it : Parallel.item) -> { it with pairs = [||] }) pool.(i) in
            let t = now () in
            ignore (span "Parallel.run.fixed" (fun () -> Parallel.run ~config ~seed fib call));
            since t)
      in
      let spans name = Tracer.named name in
      let ms name = median (List.map Tracer.duration_ns (spans name)) /. 1e6 in
      let count name = List.length (spans name) in
      let per_cell name =
        median (List.map Tracer.alloc_words (spans name)) /. float_of_int (n * n)
      in
      let applies = spans "Fib.Delta.apply" in
      let apply_ns = List.map Tracer.duration_ns applies in
      let plane_bytes p =
        List.fold_left
          (fun acc (pl : Fib.plane) -> if String.equal pl.plane p then acc + pl.bytes else acc)
          0 fp.planes
      in
      let listed = List.fold_left (fun acc p -> acc + plane_bytes p) 0 planes in
      let nscript = List.length facts.dirty in
      [
        m "topo.generate_ms" "ms" (gen_ns /. 1e6) 1;
        m "embed.ms" "ms" (ms "embed") (count "embed");
        m "embed.genus" "count" (float_of_int genus) 1;
        m "embed.curved_edges" "count" (float_of_int curved) 1;
        m "routing.build_ms" "ms" (ms "Routing.build") (count "Routing.build");
        m "routing.alloc_words_per_cell" "words" (per_cell "Routing.build")
          (count "Routing.build");
        m "cycles.build_ms" "ms" (ms "Cycle_table.build") (count "Cycle_table.build");
        m "fib.compile_ms" "ms" (ms "Fib.of_tables") (count "Fib.of_tables");
        m "fib.alloc_words_per_cell" "words" (per_cell "Fib.of_tables")
          (count "Fib.of_tables");
        m "fib.image_bytes" "B" (float_of_int fp.total_bytes) 1;
      ]
      @ List.map (fun p -> m ("fib.plane_bytes." ^ p) "B" (float_of_int (plane_bytes p)) 1) planes
      @ [
          m "fib.plane_bytes.other" "B" (float_of_int (fp.total_bytes - listed)) 1;
          m "delta.apply_ms_p50" "ms" (median apply_ns /. 1e6) (List.length applies);
          m "delta.apply_ms_p90" "ms" (quantile 0.9 apply_ns /. 1e6) (List.length applies);
          m "delta.dirty_ratio" "ratio" (mean facts.dirty) nscript;
          m "delta.full_fallbacks" "count" (float_of_int facts.fallbacks) nscript;
          m "delta.alloc_words_per_apply" "words"
            (mean (List.map Tracer.alloc_words applies))
            (List.length applies);
          m "swap.publish_us_p50" "us" (ms "Swap.publish" *. 1e3) (count "Swap.publish");
          m "swap.retained_mb" "MiB" (mib facts.retained_words) 1;
          m "parallel.call_fixed_us" "us" (median fixed_ns /. 1e3) (List.length fixed_ns);
          m "parallel.scaling_d2" "ratio" (plain_leg /. Hashtbl.find best "Parallel.run.d2") 2;
          m "kernel.create_us" "us" (median create_ns /. 1e3) (List.length create_ns);
          m "kernel.ns_per_pkt" "ns" (plain_leg /. w) c.injected;
          m "kernel.hops_per_pkt" "hops" (hops /. w) c.injected;
          m "kernel.ns_per_hop" "ns" (plain_leg /. hops) (Linkload.total ll);
          m "kernel.recycled_hop_share" "ratio"
            (float_of_int (Linkload.class_total ll ~cls:Linkload.cls_recycled) /. hops)
            (Linkload.total ll);
          m "kernel.pr_episodes_per_pkt" "ratio" (float_of_int c.pr_episodes /. w) c.injected;
          m "kernel.failure_hits_per_pkt" "ratio" (float_of_int c.failure_hits /. w) c.injected;
          m "kernel.looped" "count" (float_of_int c.looped) c.injected;
          m "kernel.dropped" "count" (float_of_int c.dropped) c.injected;
          m "kernel.lfa_rescues" "count" (float_of_int c.lfa_rescues) c.injected;
          m "kernel.complementary_retries" "count"
            (float_of_int c.complementary_retries) c.injected;
          m "kernel.alloc_words_per_pkt" "words" (!words /. float_of_int c.injected) c.injected;
          m "probe.overhead_ratio" "ratio" (ratio "Parallel.run_probed") 2;
          m "linkload.overhead_ratio" "ratio" (ratio "Parallel.run_loaded") 2;
          m "linkload.bytes" "B" (float_of_int (Linkload.footprint_bytes ll)) 1;
          m "trace.overhead_ratio" "ratio"
            (sum call_med /. sum (medians plain_ns))
            (timed call_ns + timed plain_ns);
        ]
    end
  in
  List.iter
    (fun mt -> if not (Float.is_finite mt.value) then problem "metric %s is not finite" mt.name)
    metrics;
  {
    problems = List.rev !problems;
    attempted = !attempted;
    metrics;
    spans = (if trace then Tracer.summaries () else []);
  }
