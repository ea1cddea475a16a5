(* Command-line interface over the Packet Re-cycling library:
   topology inspection, embedding reports, packet traces and the paper's
   experiments. *)

open Cmdliner
module Topology = Pr_topo.Topology
module Trace = Pr_telemetry.Trace
module Probe = Pr_telemetry.Probe

let find_topology name =
  match Pr_topo.Zoo.find name with
  | topo -> topo
  | exception Not_found ->
      Printf.eprintf "unknown topology %S; available: %s\n" name
        (String.concat ", " (Pr_topo.Zoo.names ()));
      exit 2

let topo_arg =
  let doc = "Topology name (see `prcli topo list') or a path to a topology file." in
  Arg.(value & opt string "abilene" & info [ "t"; "topology" ] ~docv:"NAME" ~doc)

let load_topology name =
  if Sys.file_exists name && not (Sys.is_directory name) then
    if Filename.check_suffix name ".gml" then begin
      let { Pr_topo.Gml.topology; dropped_parallel; dropped_self } =
        Pr_topo.Gml.load name
      in
      if dropped_parallel + dropped_self > 0 then
        Printf.eprintf "note: dropped %d parallel edges and %d self loops\n"
          dropped_parallel dropped_self;
      topology
    end
    else Pr_topo.Parse.load name
  else find_topology name

let node_id_or_die topo label =
  match Topology.node_id topo label with
  | id -> id
  | exception Not_found ->
      Printf.eprintf "unknown node label %S in %s\n" label
        topo.Topology.name;
      exit 1

let seed_arg =
  let doc = "Random seed (all experiments are deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc)

(* --shortcut validation, the malformed-input convention: a width that
   cannot name a hint (non-positive, beyond the {!Pr_core.Seen} maximum)
   or does not fit the header budget next to the topology's DD field is
   a one-line error with exit 1, never a backtrace. *)
let shortcut_range_or_die = function
  | None -> None
  | Some w ->
      if w < 1 then begin
        Printf.eprintf "shortcut width must be >= 1 (got %d)\n" w;
        exit 1
      end;
      if w > Pr_core.Seen.max_width then begin
        Printf.eprintf "shortcut width %d exceeds the %d-bit hint maximum\n" w
          Pr_core.Seen.max_width;
        exit 1
      end;
      Some w

let shortcut_or_die ~dd_bits sc =
  match shortcut_range_or_die sc with
  | None -> None
  | Some w ->
      if not (Pr_core.Header.shortcut_fits ~dd_bits ~sc_width:w) then begin
        Printf.eprintf
          "shortcut width %d does not fit the header budget next to %d DD \
           bit(s)\n"
          w dd_bits;
        exit 1
      end;
      Some w

let shortcut_arg =
  Arg.(value & opt (some int) None & info [ "shortcut" ] ~docv:"WIDTH"
         ~doc:"Arm the deja-vu shortcut rung with a seen-node hint of this
               many bits (exact bitset when the topology fits the budget,
               saturating Bloom hint otherwise).  Delivery stays
               guaranteed: a hint hit can only $(i,grant) a DD-sound early
               exit from a recycled walk, never misroute.")

let embedding_arg =
  let doc = "Embedding: $(b,geometric), $(b,adjacency), $(b,random), $(b,optimised) or $(b,safe)." in
  let choices =
    Arg.enum
      [
        ("geometric", Pr_exp.Fig2.Geometric);
        ("adjacency", Pr_exp.Fig2.Adjacency);
        ("random", Pr_exp.Fig2.Random_rotation);
        ("optimised", Pr_exp.Fig2.Optimised);
        ("safe", Pr_exp.Fig2.Safe_optimised);
      ]
  in
  Arg.(value & opt choices Pr_exp.Fig2.Geometric & info [ "embedding" ] ~docv:"KIND" ~doc)

(* ---- topo ---- *)

let topo_list () =
  List.iter
    (fun name ->
      let t = find_topology name in
      Printf.printf "%-14s %s\n" name (Topology.summary t))
    (Pr_topo.Zoo.names ())

let topo_show name dot =
  let topo = load_topology name in
  if dot then
    print_string
      (Pr_graph.Dot.to_dot ~name:topo.Topology.name
         ~node_label:(Topology.label topo) topo.Topology.graph)
  else begin
    Format.printf "%a@." Topology.pp topo;
    Printf.printf "connected: %b, bridges: %d, 2-edge-connected: %b\n"
      (Pr_graph.Connectivity.is_connected topo.Topology.graph)
      (List.length (Pr_graph.Connectivity.bridges topo.Topology.graph))
      (Pr_graph.Connectivity.is_two_edge_connected topo.Topology.graph)
  end

let topo_convert name out =
  let topo = load_topology name in
  if Filename.check_suffix out ".gml" then Pr_topo.Gml.save out topo
  else if Filename.check_suffix out ".dot" then
    Pr_graph.Dot.write_file ~path:out ~name:topo.Topology.name
      ~node_label:(Topology.label topo) topo.Topology.graph
  else Pr_topo.Parse.save out topo;
  Printf.printf "wrote %s (%s)\n" out (Topology.summary topo)

let topo_convert_cmd =
  let out =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT"
           ~doc:"Output file; format from the extension (.gml, .dot, else plain text).")
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert a topology between text, GML and DOT formats.")
    Term.(const topo_convert $ topo_arg $ out)

let topo_list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List built-in topologies.")
    Term.(const topo_list $ const ())

let topo_show_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  Cmd.v (Cmd.info "show" ~doc:"Show a topology.")
    Term.(const topo_show $ topo_arg $ dot)

let topo_cmd =
  Cmd.group (Cmd.info "topo" ~doc:"Topology inspection.")
    [ topo_list_cmd; topo_show_cmd; topo_convert_cmd ]

(* ---- embed ---- *)

let embed name embedding seed save =
  let topo = load_topology name in
  let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
  let rotation = Pr_exp.Fig2.resolve_rotation config topo in
  (match save with
  | Some path ->
      Pr_embed.Rotation_io.save path rotation;
      Printf.printf "rotation written to %s\n" path
  | None -> ());
  let faces = Pr_embed.Faces.compute rotation in
  Printf.printf "%s, %s embedding: %s, curved edges %d, PR-safe %b\n"
    topo.Topology.name
    (Pr_exp.Ablation.embedding_name embedding)
    (Pr_embed.Surface.describe faces)
    (List.length (Pr_embed.Validate.curved_edges faces))
    (Pr_embed.Validate.is_pr_safe faces);
  for f = 0 to Pr_embed.Faces.count faces - 1 do
    let nodes = Pr_embed.Faces.face_nodes faces f in
    Printf.printf "  c%-3d (%d arcs): %s\n" (f + 1) (List.length nodes)
      (String.concat " -> " (List.map (Topology.label topo) nodes))
  done;
  match Pr_embed.Validate.check faces with
  | [] -> print_endline "embedding valid."
  | problems ->
      List.iter
        (fun p -> Format.printf "PROBLEM: %a@." Pr_embed.Validate.pp_problem p)
        problems;
      exit 1

let embed_cmd =
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Also write the rotation system to a file (Rotation_io format).")
  in
  Cmd.v
    (Cmd.info "embed" ~doc:"Compute and validate a cellular embedding.")
    Term.(const embed $ topo_arg $ embedding_arg $ seed_arg $ save)

(* ---- table ---- *)

let table name router_label embedding seed =
  let topo = load_topology name in
  let x = node_id_or_die topo router_label in
  let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
  let rotation = Pr_exp.Fig2.resolve_rotation config topo in
  let cycles = Pr_core.Cycle_table.build rotation in
  let label = Topology.label topo in
  Printf.printf "Cycle following table at %s (%s embedding, %s):\n" (label x)
    (Pr_exp.Ablation.embedding_name embedding)
    (Pr_embed.Surface.describe (Pr_embed.Faces.compute rotation));
  Pr_util.Tablefmt.print
    ~align:[ Pr_util.Tablefmt.Left; Pr_util.Tablefmt.Left; Pr_util.Tablefmt.Left ]
    ~header:[ "incoming"; "cycle following"; "complementary" ]
    (List.map
       (fun (e : Pr_core.Cycle_table.entry) ->
         [
           Printf.sprintf "I_%s%s" (label e.incoming) (label x);
           Printf.sprintf "I_%s%s" (label x) (label e.cycle_following);
           Printf.sprintf "I_%s%s" (label x) (label e.complementary);
         ])
       (Pr_core.Cycle_table.entries cycles x));
  let routing = Pr_core.Routing.build topo.Topology.graph in
  Printf.printf "\nRouting table at %s (next hop, distance discriminator):\n" (label x);
  Pr_util.Tablefmt.print
    ~header:[ "destination"; "next hop"; "DD" ]
    (List.filter_map
       (fun dst ->
         if dst = x then None
         else
           match Pr_core.Routing.next_hop routing ~node:x ~dst with
           | None -> Some [ label dst; "-"; "inf" ]
           | Some nh ->
               Some
                 [
                   label dst;
                   label nh;
                   Printf.sprintf "%g" (Pr_core.Routing.disc routing ~node:x ~dst);
                 ])
       (List.init (Topology.n topo) Fun.id))

let table_cmd =
  let router =
    Arg.(required & opt (some string) None & info [ "r"; "router" ] ~docv:"LABEL"
           ~doc:"Router whose tables to print.")
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Print a router's cycle following and routing tables.")
    Term.(const table $ topo_arg $ router $ embedding_arg $ seed_arg)

(* ---- trace ---- *)

let parse_failures topo spec =
  if spec = "" then []
  else
    String.split_on_char ',' spec
    |> List.map (fun pair ->
           match String.split_on_char '-' (String.trim pair) with
           | [ a; b ] -> (node_id_or_die topo a, node_id_or_die topo b)
           | _ ->
               Printf.eprintf "bad failure spec %S (want LABEL-LABEL,...)\n" pair;
               exit 1)

let failures_or_die topo spec =
  match Pr_core.Failure.of_list topo.Topology.graph (parse_failures topo spec) with
  | failures -> failures
  | exception Invalid_argument msg ->
      Printf.eprintf "bad failure spec %S: %s\n" spec msg;
      exit 1

(* The malformed-input convention for trace/explain: one line on stderr,
   exit 1, never a backtrace. *)
let require_distinct label ~src ~dst =
  if src = dst then begin
    Printf.eprintf "source and destination are both %s\n" (label src);
    exit 1
  end

let require_connected label failures ~src ~dst =
  if not (Pr_core.Failure.pair_connected failures src dst) then begin
    Printf.eprintf "%s and %s are disconnected under %s\n" (label src)
      (label dst)
      (Format.asprintf "%a" Pr_core.Failure.pp failures);
    exit 1
  end

let trace name src_label dst_label failures_spec embedding seed simple =
  let topo = load_topology name in
  let src = node_id_or_die topo src_label
  and dst = node_id_or_die topo dst_label in
  require_distinct (Topology.label topo) ~src ~dst;
  let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
  let rotation = Pr_exp.Fig2.resolve_rotation config topo in
  let routing = Pr_core.Routing.build topo.Topology.graph in
  let cycles = Pr_core.Cycle_table.build rotation in
  let failures = failures_or_die topo failures_spec in
  require_connected (Topology.label topo) failures ~src ~dst;
  let termination =
    if simple then Pr_core.Forward.Simple
    else Pr_core.Forward.Distance_discriminator
  in
  let t = Pr_core.Forward.run ~termination ~routing ~cycles ~failures ~src ~dst () in
  let outcome =
    match t.outcome with
    | Pr_core.Forward.Delivered -> "delivered"
    | Pr_core.Forward.Dropped_no_interface -> "DROPPED (no live interface)"
    | Pr_core.Forward.Dropped_unreachable -> "DROPPED (unreachable)"
    | Pr_core.Forward.Dropped_corrupt -> "DROPPED (corrupt)"
    | Pr_core.Forward.Ttl_exceeded -> "LOOP (TTL exceeded)"
  in
  Printf.printf "PR %s: %s\n" outcome
    (String.concat " -> " (List.map (Topology.label topo) t.path));
  Printf.printf "PR episodes: %d, failure encounters: %d, max DD carried: %d\n"
    t.pr_episodes t.failure_hits t.max_header.Pr_core.Header.dd;
  if t.outcome = Pr_core.Forward.Delivered then
    Printf.printf "stretch: %.3f\n"
      (Pr_core.Forward.stretch ~routing ~trace:t ~src ~dst);
  let fcp = Pr_baselines.Fcp.run topo.Topology.graph ~failures ~src ~dst () in
  (match fcp.outcome with
  | Pr_baselines.Fcp.Delivered ->
      Printf.printf "FCP delivered: %s (stretch %.3f, %d SPF runs)\n"
        (String.concat " -> " (List.map (Topology.label topo) fcp.path))
        (Pr_baselines.Fcp.stretch ~routing ~trace:fcp ~src ~dst)
        fcp.recomputations
  | Pr_baselines.Fcp.Disconnected -> print_endline "FCP: disconnected"
  | Pr_baselines.Fcp.Ttl_exceeded -> print_endline "FCP: TTL exceeded");
  match Pr_baselines.Reconvergence.path topo.Topology.graph ~failures ~src ~dst with
  | Some p ->
      Printf.printf "post-reconvergence: %s (stretch %.3f)\n"
        (String.concat " -> " (List.map (Topology.label topo) p))
        (Pr_baselines.Reconvergence.stretch ~routing ~failures ~src ~dst)
  | None -> print_endline "post-reconvergence: disconnected"

let trace_cmd =
  let src =
    Arg.(required & opt (some string) None & info [ "s"; "src" ] ~docv:"LABEL" ~doc:"Source node label.")
  in
  let dst =
    Arg.(required & opt (some string) None & info [ "d"; "dst" ] ~docv:"LABEL" ~doc:"Destination node label.")
  in
  let failures =
    Arg.(value & opt string "" & info [ "f"; "fail" ] ~docv:"A-B,C-D" ~doc:"Failed links, by node labels.")
  in
  let simple =
    Arg.(value & flag & info [ "simple" ] ~doc:"Use the §4.2 simple termination condition.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Trace one packet under PR, FCP and reconvergence.")
    Term.(const trace $ topo_arg $ src $ dst $ failures $ embedding_arg $ seed_arg $ simple)

(* ---- explain: the flight recorder ---- *)

(* Parsed by hand rather than through [Arg.enum] so an unknown label is a
   one-line error with exit 1, the malformed-input convention. *)
let parse_backend = function
  | "reference" -> `Reference
  | "compiled" -> `Compiled
  | s ->
      Printf.eprintf "unknown backend %S (expected reference or compiled)\n" s;
      exit 1

let backend_arg =
  Arg.(value & opt string "reference" & info [ "backend" ] ~docv:"KIND"
         ~doc:"Data plane for PR forwarding: the $(b,reference) walks or the
               $(b,compiled) FIB-image kernel (identical verdicts).")

let fib_or_die routing cycles =
  match Pr_fastpath.Fib.of_tables_exn routing cycles with
  | fib -> fib
  | exception Invalid_argument msg ->
      Printf.eprintf "cannot compile the FIB image: %s\n" msg;
      exit 1

(* Replay one packet with a ring sink attached; both backends emit the
   same event sequence (the telemetry differential suite pins this), so
   the rendered trace is backend-independent. *)
let explain_replay ~backend ~termination ~routing ~cycles ~failures ~src ~dst =
  let ring = Trace.Ring.create () in
  (match backend with
  | `Reference ->
      ignore
        (Pr_core.Forward.run ~termination ~routing ~cycles ~failures
           ~trace:(Trace.Ring.sink ring) ~src ~dst ()
          : Pr_core.Forward.trace)
  | `Compiled ->
      let kernel = Pr_fastpath.Kernel.create (fib_or_die routing cycles) in
      Pr_fastpath.Kernel.set_failures kernel failures;
      Pr_fastpath.Kernel.set_trace kernel (Trace.Ring.sink ring);
      ignore
        (Pr_fastpath.Kernel.run_one ~termination kernel ~src ~dst
          : Pr_fastpath.Kernel.result));
  ring

let print_ring ?label ~json ring =
  let events = Trace.Ring.events ring in
  if json then List.iter (fun ev -> print_endline (Trace.event_to_json ev)) events
  else print_string (Trace.render ?label events);
  let dropped = Trace.Ring.dropped ring in
  if dropped > 0 then
    Printf.printf "      ... %d more event(s) beyond the ring capacity\n" dropped

(* Rebuild the frozen failure set the engine used at time [t]: hold-down
   damping first (exactly as {!Pr_chaos.Scenario.run} does), then every
   link event at or before [t] — ties between a link event and an
   injection resolve link-first in the engine's queue. *)
let scenario_failures_at (s : Pr_chaos.Scenario.t) ~time =
  let events =
    if s.hold_down > 0.0 then
      Pr_sim.Flap.apply_hold_down s.link_events ~hold_down:s.hold_down
    else s.link_events
  in
  let down =
    List.fold_left
      (fun acc (e : Pr_sim.Workload.link_event) ->
        if e.time > time then acc
        else
          let link = if e.u < e.v then (e.u, e.v) else (e.v, e.u) in
          if e.up then List.filter (fun l -> l <> link) acc
          else if List.mem link acc then acc
          else acc @ [ link ])
      [] events
  in
  Pr_core.Failure.of_list s.graph down

let scenario_node_or_die (s : Pr_chaos.Scenario.t) str =
  let n = Pr_graph.Graph.n s.graph in
  match int_of_string_opt str with
  | Some v when v >= 0 && v < n -> v
  | Some _ | None ->
      Printf.eprintf "unknown node %S in scenario %s (want an id in 0..%d)\n"
        str s.name (n - 1);
      exit 1

let explain_scenario path ~src_label ~dst_label ~at ~backend ~json =
  match Pr_chaos.Scenario.load path with
  | Error msg ->
      Printf.eprintf "cannot load %s: %s\n" path msg;
      exit 1
  | Ok s ->
      let src, dst, time =
        match (src_label, dst_label, at) with
        | Some a, Some b, _ -> (
            let src = scenario_node_or_die s a
            and dst = scenario_node_or_die s b in
            match at with
            | Some t -> (src, dst, t)
            | None -> (
                match
                  List.find_opt
                    (fun (i : Pr_sim.Workload.injection) ->
                      i.src = src && i.dst = dst)
                    s.injections
                with
                | Some i -> (src, dst, i.time)
                | None ->
                    Printf.eprintf
                      "no injection %d -> %d in scenario %s; give --at TIME to pick the link state\n"
                      src dst s.name;
                    exit 1))
        | None, None, _ -> (
            match s.injections with
            | i :: _ -> (i.src, i.dst, Option.value ~default:i.time at)
            | [] ->
                Printf.eprintf
                  "scenario %s has no injections; give --src, --dst and --at\n"
                  s.name;
                exit 1)
        | _ ->
            Printf.eprintf "give both --src and --dst (or neither)\n";
            exit 1
      in
      let failures = scenario_failures_at s ~time in
      require_distinct string_of_int ~src ~dst;
      require_connected string_of_int failures ~src ~dst;
      let routing = Pr_core.Routing.build s.graph in
      let cycles = Pr_core.Cycle_table.build (Pr_chaos.Scenario.rotation s) in
      let termination = Pr_chaos.Scenario.termination s in
      if not json then
        Printf.printf "%s: packet %d -> %d at t=%g, %s backend, %s\n" s.name
          src dst time
          (Pr_sim.Engine.backend_name backend)
          (Format.asprintf "%a" Pr_core.Failure.pp failures);
      print_ring ~json
        (explain_replay ~backend ~termination ~routing ~cycles ~failures ~src
           ~dst)

let explain name src_label dst_label failures_spec scenario at backend_spec
    embedding seed simple json =
  let backend = parse_backend backend_spec in
  match scenario with
  | Some path -> explain_scenario path ~src_label ~dst_label ~at ~backend ~json
  | None ->
      let src_label, dst_label =
        match (src_label, dst_label) with
        | Some a, Some b -> (a, b)
        | _ ->
            Printf.eprintf "--src and --dst are required without --scenario\n";
            exit 1
      in
      let topo = load_topology name in
      let src = node_id_or_die topo src_label
      and dst = node_id_or_die topo dst_label in
      require_distinct (Topology.label topo) ~src ~dst;
      let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
      let rotation = Pr_exp.Fig2.resolve_rotation config topo in
      let routing = Pr_core.Routing.build topo.Topology.graph in
      let cycles = Pr_core.Cycle_table.build rotation in
      let failures = failures_or_die topo failures_spec in
      require_connected (Topology.label topo) failures ~src ~dst;
      let termination =
        if simple then Pr_core.Forward.Simple
        else Pr_core.Forward.Distance_discriminator
      in
      if not json then
        Printf.printf "%s: packet %s -> %s, %s backend, %s embedding, %s\n"
          topo.Topology.name src_label dst_label
          (Pr_sim.Engine.backend_name backend)
          (Pr_exp.Ablation.embedding_name embedding)
          (Format.asprintf "%a" Pr_core.Failure.pp failures);
      print_ring ~label:(Topology.label topo) ~json
        (explain_replay ~backend ~termination ~routing ~cycles ~failures ~src
           ~dst)

let explain_cmd =
  let src =
    Arg.(value & opt (some string) None & info [ "s"; "src" ] ~docv:"NODE"
           ~doc:"Source: a node label, or a numeric id with --scenario.")
  in
  let dst =
    Arg.(value & opt (some string) None & info [ "d"; "dst" ] ~docv:"NODE"
           ~doc:"Destination: a node label, or a numeric id with --scenario.")
  in
  let failures =
    Arg.(value & opt string "" & info [ "f"; "fail" ] ~docv:"A-B,C-D"
           ~doc:"Failed links, by node labels (ignored with --scenario).")
  in
  let scenario =
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"FILE"
           ~doc:"Replay a packet from a saved chaos scenario (.chaos file);
                 the failure set is the scenario's link state at the chosen
                 injection, after hold-down damping.")
  in
  let at =
    Arg.(value & opt (some float) None & info [ "at" ] ~docv:"TIME"
           ~doc:"With --scenario: explain under the link state at this time
                 instead of the matching injection's.")
  in
  let simple =
    Arg.(value & flag & info [ "simple" ]
           ~doc:"Use the §4.2 simple termination condition (without
                 --scenario, which fixes the scheme itself).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the raw event stream as JSON Lines instead of the
                 annotated rendering.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Replay one packet through the flight recorder: every hop,
             PR-bit and DD decision, ladder rung and the final verdict,
             identical on either backend.")
    Term.(const explain $ topo_arg $ src $ dst $ failures $ scenario $ at
          $ backend_arg $ embedding_arg $ seed_arg $ simple $ json)

(* ---- fig2 ---- *)

let fig2 name k samples seed embedding simple weighted quantise out =
  let topo = load_topology name in
  let config =
    {
      (Pr_exp.Fig2.default topo ~k) with
      samples;
      seed;
      embedding;
      termination =
        (if simple then Pr_core.Forward.Simple
         else Pr_core.Forward.Distance_discriminator);
      discriminator =
        (if weighted then Pr_core.Discriminator.Weighted
         else Pr_core.Discriminator.Hops);
      quantise_dd = quantise;
    }
  in
  let result = Pr_exp.Fig2.run config in
  match out with
  | None -> Pr_exp.Fig2.print_gnuplot result
  | Some dir ->
      let name = Printf.sprintf "%s_k%d" topo.Topology.name k in
      Pr_exp.Report.write_fig2 ~dir ~name result;
      Printf.printf "wrote %s/%s.dat and %s/%s.gp
" dir name dir name

let fig2_cmd =
  let k =
    Arg.(value & opt int 1 & info [ "k" ] ~docv:"INT" ~doc:"Simultaneous link failures per scenario.")
  in
  let samples =
    Arg.(value & opt int 200 & info [ "samples" ] ~docv:"INT" ~doc:"Scenarios when k > 1.")
  in
  let simple =
    Arg.(value & flag & info [ "simple" ] ~doc:"Simple termination instead of DD.")
  in
  let weighted =
    Arg.(value & flag & info [ "weighted" ] ~doc:"Weighted discriminator instead of hops.")
  in
  let quantise =
    Arg.(value & flag & info [ "quantise" ] ~doc:"Header-faithful integer DD comparison.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc:"Write .dat/.gp files instead of printing.")
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Regenerate a panel of the paper's Figure 2.")
    Term.(const fig2 $ topo_arg $ k $ samples $ seed_arg $ embedding_arg $ simple $ weighted $ quantise $ out)

(* ---- figures ---- *)

let figures out =
  Pr_exp.Report.write_paper_figures ~echo:print_endline ~dir:out ();
  Printf.printf "master script: %s/fig2.gp (run gnuplot there)\n" out

let figures_cmd =
  let out =
    Arg.(value & opt string "figures" & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Write all six Figure 2 panels as gnuplot data + scripts.")
    Term.(const figures $ out)

(* ---- hunt ---- *)

let hunt seed attempts =
  match Pr_exp.Counterexample.search ~attempts ~seed () with
  | None -> Printf.printf "no counterexample found in %d attempts (seed %d)
" attempts seed
  | Some found ->
      print_string (Pr_exp.Counterexample.describe found);
      if not (Pr_exp.Counterexample.verify found) then begin
        prerr_endline "internal error: witness did not verify";
        exit 1
      end

let hunt_cmd =
  let attempts =
    Arg.(value & opt int 2000 & info [ "attempts" ] ~docv:"INT" ~doc:"Random cases to try.")
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:"Search for a minimal counterexample to PR's delivery guarantee              (random rotations; planar embeddings yield none).")
    Term.(const hunt $ seed_arg $ attempts)

(* ---- chaos ---- *)

let parse_comma_list parse what spec =
  List.map
    (fun w ->
      match parse (String.trim w) with
      | Ok v -> v
      | Error msg ->
          Printf.eprintf "bad %s %S: %s\n" what w msg;
          exit 2)
    (String.split_on_char ',' spec)

let parse_scheme = function
  | "pr" | "pr-dd" ->
      Ok (Pr_sim.Engine.Pr_scheme
            { termination = Pr_core.Forward.Distance_discriminator })
  | "pr-simple" ->
      Ok (Pr_sim.Engine.Pr_scheme { termination = Pr_core.Forward.Simple })
  | "lfa" -> Ok Pr_sim.Engine.Lfa_scheme
  | "reconv" | "reconvergence" ->
      Ok (Pr_sim.Engine.Reconvergence_scheme { convergence_delay = 5.0 })
  | "reconv-jitter" ->
      Ok (Pr_sim.Engine.Reconvergence_jittered
            { min_delay = 0.5; max_delay = 5.0; seed = 1 })
  | s -> Error (Printf.sprintf "unknown scheme %S (pr, pr-simple, lfa, reconv, reconv-jitter)" s)

(* Re-check a shrunk scenario and format its first recorded violation —
   with the offending packet's flight-recorder trace — as `#` comment
   lines the scenario parser skips, so the .chaos artifact carries its
   own explanation. *)
let shrunk_trace_comment (s : Pr_chaos.Scenario.t) =
  match Pr_chaos.Scenario.check s with
  | Error _ -> None
  | Ok (monitor, _) -> (
      match
        List.find_opt
          (fun (v : Pr_chaos.Monitor.violation) -> v.trace <> None)
          (Pr_chaos.Monitor.recorded monitor)
      with
      | None -> None
      | Some v ->
          let buf = Buffer.create 256 in
          Printf.bprintf buf "# violation: t=%g %s %d -> %d: %s\n" v.time
            v.monitor v.src v.dst v.detail;
          Printf.bprintf buf
            "# replay hop by hop: prcli explain --scenario FILE --src %d --dst %d --at %g\n"
            v.src v.dst v.time;
          Option.iter
            (fun tr ->
              List.iter
                (fun line -> if line <> "" then Printf.bprintf buf "# %s\n" line)
                (String.split_on_char '\n' tr))
            v.trace;
          Some (Buffer.contents buf))

(* ---- flight-ledger and live-progress plumbing ----

   Every substantial run (bench, chaos, swap, report) appends one
   {!Pr_telemetry.Flight} record to the ledger — the append-only JSONL
   trail `prcli history` and CI read back.  --no-ledger opts out.  The
   progress heartbeat draws on stderr when it is a TTY or when
   --progress forces it; TTY policy lives here because the telemetry
   library does not link unix. *)

let ledger_arg =
  Arg.(value & opt string "FLIGHT_ledger.jsonl" & info [ "ledger" ]
         ~docv:"FILE"
         ~doc:"Flight-ledger file this run appends its record to.")

let no_ledger_arg =
  Arg.(value & flag & info [ "no-ledger" ]
         ~doc:"Do not append a flight record for this run.")

let progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Draw the live progress heartbeat on stderr even when it is
               not a TTY (a TTY gets it automatically).")

let progress_on ~forced ~label =
  if forced || Unix.isatty Unix.stderr then
    Pr_telemetry.Flight.Progress.enable ~label ()

let progress_off () = Pr_telemetry.Flight.Progress.disable ()

let ledger_append ~no_ledger ~ledger fl =
  if not no_ledger then Pr_telemetry.Flight.append ~path:ledger fl

let chaos name embedding seed horizon rate mix_spec hold_down detect_delay
    control_delay schemes_spec no_shrink out replay backend_spec timeline
    corrupt corrupt_events shortcut ledger no_ledger =
  if corrupt && replay <> None then begin
    Printf.eprintf
      "--corrupt and --replay are mutually exclusive (corruption campaigns \
       are replayed by seed)\n";
    exit 1
  end;
  if corrupt && corrupt_events < 1 then begin
    Printf.eprintf "--corrupt-events must be >= 1\n";
    exit 1
  end;
  if shortcut <> None && not corrupt then begin
    Printf.eprintf
      "--shortcut needs --corrupt (the link-fault campaign schemes do not \
       carry the hint)\n";
    exit 1
  end;
  if corrupt then begin
    let topo = load_topology name in
    let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
    let rotation = Pr_exp.Fig2.resolve_rotation config topo in
    let dd_bits =
      Pr_core.Routing.dd_bits (Pr_core.Routing.build topo.Topology.graph)
    in
    let shortcut = shortcut_or_die ~dd_bits shortcut in
    let cfg =
      {
        (Pr_chaos.Corrupt.default_config topo rotation ~seed) with
        Pr_chaos.Corrupt.events = corrupt_events;
        shortcut;
      }
    in
    match Pr_chaos.Corrupt.run cfg with
    | Error msg ->
        Printf.eprintf "corruption campaign failed: %s\n" msg;
        exit 2
    | Ok result ->
        print_string (Pr_chaos.Corrupt.report cfg result);
        let fl = Pr_telemetry.Flight.create ~cmd:"chaos" ~seed () in
        Pr_telemetry.Flight.knob_str fl "topology" topo.Topology.name;
        Pr_telemetry.Flight.knob_str fl "mode" "corrupt";
        Pr_telemetry.Flight.knob_int fl "events" corrupt_events;
        Pr_telemetry.Flight.count fl "passed"
          (if Pr_chaos.Corrupt.passed result then 1 else 0);
        ledger_append ~no_ledger ~ledger fl;
        if not (Pr_chaos.Corrupt.passed result) then begin
          (match out with
          | Some dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              let path =
                Filename.concat dir (topo.Topology.name ^ "-corrupt.chaos")
              in
              let oc = open_out path in
              output_string oc (Pr_chaos.Corrupt.repro cfg result);
              close_out oc;
              Printf.printf "wrote %s\n" path
          | None -> print_string (Pr_chaos.Corrupt.repro cfg result));
          exit 2
        end
  end
  else
  match replay with
  | Some path -> (
      match Pr_chaos.Scenario.load path with
      | Error msg ->
          Printf.eprintf "cannot replay %s: %s\n" path msg;
          exit 1
      | Ok scenario -> (
          Printf.printf "replaying %s: %d link events, %d injection(s), scheme %s\n"
            scenario.Pr_chaos.Scenario.name
            (List.length scenario.Pr_chaos.Scenario.link_events)
            (List.length scenario.Pr_chaos.Scenario.injections)
            (Pr_sim.Engine.scheme_name scenario.Pr_chaos.Scenario.scheme);
          match Pr_chaos.Scenario.check scenario with
          | Error msg ->
              Printf.eprintf "replay failed: %s\n" msg;
              exit 1
          | Ok (monitor, outcome) ->
              Format.printf "%a@." Pr_sim.Metrics.pp
                outcome.Pr_sim.Engine.metrics;
              print_string (Pr_chaos.Monitor.report monitor)))
  | None ->
      let topo = load_topology name in
      let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
      let rotation = Pr_exp.Fig2.resolve_rotation config topo in
      let mix = parse_comma_list Pr_chaos.Gen.of_name "generator" mix_spec in
      let schemes = parse_comma_list parse_scheme "scheme" schemes_spec in
      let detection =
        Option.map
          (fun d ->
            { Pr_sim.Detector.default with
              Pr_sim.Detector.down_delay = d; up_delay = d; seed })
          detect_delay
      in
      let control =
        Option.map
          (fun d ->
            if d < 0.0 then begin
              Printf.eprintf "control delay must be non-negative\n";
              exit 1
            end;
            { Pr_sim.Engine.delay = d })
          control_delay
      in
      let campaign =
        {
          (Pr_chaos.Campaign.default_config topo rotation ~seed) with
          horizon;
          rate;
          mix;
          hold_down;
          detection;
          control;
          schemes;
          shrink = not no_shrink;
          backend = parse_backend backend_spec;
          timeline;
        }
      in
      (match Pr_chaos.Campaign.run campaign with
      | Error msg ->
          Printf.eprintf "chaos campaign failed: %s\n" msg;
          exit 2
      | Ok result ->
          print_string (Pr_chaos.Campaign.report campaign result);
          let fl = Pr_telemetry.Flight.create ~cmd:"chaos" ~seed () in
          Pr_telemetry.Flight.knob_str fl "topology" topo.Topology.name;
          Pr_telemetry.Flight.knob fl "horizon" (Pr_util.Json.number horizon);
          Pr_telemetry.Flight.knob fl "rate" (Pr_util.Json.number rate);
          Pr_telemetry.Flight.knob_str fl "mix" mix_spec;
          Pr_telemetry.Flight.knob_str fl "schemes" schemes_spec;
          Pr_telemetry.Flight.count fl "link_events"
            (List.length result.Pr_chaos.Campaign.link_events);
          List.iter
            (fun (r : Pr_chaos.Campaign.scheme_result) ->
              let m = r.outcome.Pr_sim.Engine.metrics in
              let pre = Pr_sim.Engine.scheme_name r.scheme in
              Pr_telemetry.Flight.count fl (pre ^ ".injected")
                m.Pr_sim.Metrics.injected;
              Pr_telemetry.Flight.count fl (pre ^ ".delivered")
                m.Pr_sim.Metrics.delivered;
              Pr_telemetry.Flight.count fl (pre ^ ".dropped")
                m.Pr_sim.Metrics.dropped;
              Pr_telemetry.Flight.count fl (pre ^ ".looped")
                m.Pr_sim.Metrics.looped;
              Pr_telemetry.Flight.count fl (pre ^ ".violated")
                (if r.shrunk = None then 0 else 1))
            result.Pr_chaos.Campaign.results;
          ledger_append ~no_ledger ~ledger fl;
          List.iter
            (fun (r : Pr_chaos.Campaign.scheme_result) ->
              match (r.shrunk, out) with
              | Some s, Some dir ->
                  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                  let path =
                    Filename.concat dir (s.Pr_chaos.Scenario.name ^ ".chaos")
                  in
                  Pr_chaos.Scenario.save path s;
                  (match shrunk_trace_comment s with
                  | Some comment ->
                      let oc =
                        open_out_gen [ Open_append; Open_text ] 0o644 path
                      in
                      output_string oc comment;
                      close_out oc
                  | None -> ());
                  Printf.printf "wrote %s (replay with: prcli chaos --replay %s)\n"
                    path path
              | Some s, None ->
                  print_newline ();
                  print_endline "# shrunk scenario (save and replay with prcli chaos --replay):";
                  print_string (Pr_chaos.Scenario.to_string s);
                  Option.iter print_string (shrunk_trace_comment s)
              | None, _ -> ())
            result.Pr_chaos.Campaign.results)

let chaos_cmd =
  let horizon =
    Arg.(value & opt float 60.0 & info [ "horizon" ] ~docv:"TIME"
           ~doc:"Campaign duration in simulated time units.")
  in
  let rate =
    Arg.(value & opt float 20.0 & info [ "rate" ] ~docv:"PKTS"
           ~doc:"Packet injections per time unit.")
  in
  let mix =
    Arg.(value & opt string "srlg,regional,crash,cascade,flap,blip"
         & info [ "mix" ] ~docv:"KINDS"
             ~doc:"Comma-separated fault generators: $(b,srlg), $(b,regional), $(b,crash), $(b,cascade), $(b,flap), $(b,blip), $(b,swap).")
  in
  let hold_down =
    Arg.(value & opt float 0.0 & info [ "hold-down" ] ~docv:"TIME"
           ~doc:"Hold-down damping applied to up-transitions (0 disables).")
  in
  let schemes =
    Arg.(value & opt string "pr,lfa,reconv" & info [ "schemes" ] ~docv:"LIST"
           ~doc:"Comma-separated schemes: $(b,pr), $(b,pr-simple), $(b,lfa), $(b,reconv), $(b,reconv-jitter).")
  in
  let detect_delay =
    Arg.(value & opt (some float) None & info [ "detect" ] ~docv:"DELAY"
           ~doc:"Run routers on per-endpoint failure detection with this
                 delay (seconds) instead of the global truth; monitors
                 switch to the detection-quiescence invariants.")
  in
  let control_delay =
    Arg.(value & opt (some float) None & info [ "control" ] ~docv:"DELAY"
           ~doc:"Run a live control plane: this many time units after each
                 link transition the tables are incrementally repaired
                 and hot-swapped; the monitors arm the
                 zero-loss-across-updates swap invariant (PR schemes
                 only).")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ]
           ~doc:"Skip minimising violating scenarios.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write shrunk scenarios as replayable .chaos files.")
  in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay a saved scenario instead of running a campaign.")
  in
  let timeline =
    Arg.(value & opt (some float) None & info [ "timeline" ] ~docv:"WIDTH"
           ~doc:"Record a per-scheme observability timeline with this
                 window width (simulated time units) and render it in
                 the campaign report.")
  in
  let corrupt =
    Arg.(value & flag & info [ "corrupt" ]
           ~doc:"Run the corruption campaign instead of the link-fault one:
                 header bit-flips through both guarded backends, FIB-cell
                 damage on scratch images, stale-epoch reads and journalled
                 crash/recovery checks.  Exits 2 (with a .chaos artifact
                 under $(b,--out)) on any invariant violation.")
  in
  let corrupt_events =
    Arg.(value & opt int 96 & info [ "corrupt-events" ] ~docv:"INT"
           ~doc:"Corruption descriptors to draw with $(b,--corrupt).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Chaos campaign: correlated fault injection with online invariant              monitors; violations are shrunk to replayable scenarios.")
    Term.(const chaos $ topo_arg $ embedding_arg $ seed_arg $ horizon $ rate
          $ mix $ hold_down $ detect_delay $ control_delay $ schemes
          $ no_shrink $ out $ replay $ backend_arg $ timeline $ corrupt
          $ corrupt_events $ shortcut_arg $ ledger_arg $ no_ledger_arg)

(* ---- swap: scripted control-plane sessions over the compiled image ---- *)

module Fib = Pr_fastpath.Fib
module Delta = Pr_fastpath.Fib.Delta

(* One non-blank line of the edit script = one epoch batch; `,'
   separates edits within a batch and `#' starts a comment.  Edits name
   nodes by label: `down A B', `up A B', `weight A B 2.5'.  Syntax
   errors die with a one-line message and exit 1, the malformed-input
   convention; semantic errors (unknown links, duplicate or redundant
   edits, bad weights) surface through {!Delta}'s typed loci the same
   way, at apply time. *)
let parse_edit_script topo path =
  let die lineno msg =
    Printf.eprintf "%s:%d: %s\n" path lineno msg;
    exit 1
  in
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  let batches = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let raw = input_line ic in
       incr lineno;
       let body =
         match String.index_opt raw '#' with
         | Some i -> String.sub raw 0 i
         | None -> raw
       in
       if String.trim body <> "" then begin
         let node label =
           match Topology.node_id topo label with
           | id -> id
           | exception Not_found ->
               die !lineno (Printf.sprintf "unknown node label %S" label)
         in
         let parse_one spec =
           match
             List.filter
               (fun s -> s <> "")
               (String.split_on_char ' ' (String.trim spec))
           with
           | [ "down"; a; b ] ->
               { Delta.u = node a; v = node b; change = Delta.Down }
           | [ "up"; a; b ] ->
               { Delta.u = node a; v = node b; change = Delta.Up }
           | [ "weight"; a; b; w ] -> (
               match float_of_string_opt w with
               | Some w ->
                   { Delta.u = node a; v = node b; change = Delta.Weight w }
               | None -> die !lineno (Printf.sprintf "bad weight %S" w))
           | _ ->
               die !lineno
                 (Printf.sprintf
                    "cannot parse edit %S (expected `down A B', `up A B' or \
                     `weight A B W')"
                    (String.trim spec))
         in
         batches :=
           (!lineno, List.map parse_one (String.split_on_char ',' body))
           :: !batches
       end
     done
   with End_of_file -> close_in ic);
  if !batches = [] then begin
    Printf.eprintf "%s: no edits (every line blank or a comment)\n" path;
    exit 1
  end;
  List.rev !batches

let swap_session name embedding seed edits_file json_flag journal_path
    crash_after ledger no_ledger =
  (match (journal_path, crash_after) with
  | None, Some _ ->
      Printf.eprintf "--crash-after needs --journal (nothing to recover from)\n";
      exit 1
  | _, Some k when k < 1 ->
      Printf.eprintf "--crash-after must be >= 1\n";
      exit 1
  | _ -> ());
  let topo = load_topology name in
  let fig2 = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
  let rotation = Pr_exp.Fig2.resolve_rotation fig2 topo in
  let g = topo.Topology.graph in
  let base =
    Fib.of_tables_exn (Pr_core.Routing.build g)
      (Pr_core.Cycle_table.build rotation)
  in
  let store = Pr_fastpath.Swap.create base in
  let kernel = Pr_fastpath.Kernel.create base in
  let n = Pr_graph.Graph.n g in
  (* Failure-free all-pairs sweep on the current image: administrative
     removals are the only failures, so per-epoch verdicts and loads
     show what each swap did to the traffic. *)
  let sweep fib =
    let ll = Pr_obs.Linkload.create g in
    Pr_fastpath.Kernel.set_linkload kernel (Some ll);
    let failures = Pr_core.Failure.of_list g (Fib.admin_down fib) in
    Pr_fastpath.Kernel.set_failures kernel failures;
    let c = Pr_fastpath.Kernel.fresh_counters () in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then
          if Pr_core.Failure.pair_connected failures src dst then
            Pr_fastpath.Kernel.forward_into kernel c ~src ~dst
          else Pr_fastpath.Kernel.record_unreachable c
      done
    done;
    Pr_fastpath.Kernel.set_linkload kernel None;
    (c, ll)
  in
  let loads ll =
    let tbl = Hashtbl.create 64 in
    Pr_obs.Linkload.iter ll (fun ~node ~next ~counts ->
        let l = Array.fold_left ( + ) 0 counts in
        if l <> 0 then Hashtbl.replace tbl (node, next) l);
    tbl
  in
  let label = Topology.label topo in
  let describe_edit (e : Delta.edit) =
    match e.Delta.change with
    | Delta.Down -> Printf.sprintf "down %s-%s" (label e.Delta.u) (label e.Delta.v)
    | Delta.Up -> Printf.sprintf "up %s-%s" (label e.Delta.u) (label e.Delta.v)
    | Delta.Weight w ->
        Printf.sprintf "weight %s-%s %g" (label e.Delta.u) (label e.Delta.v) w
  in
  let batches = parse_edit_script topo edits_file in
  (* The write-ahead journal: checkpoint the base, log each batch before
     it is applied, mark it committed after its epoch is published.
     --crash-after kills the session between apply and commit, leaving
     the journal `prcli recover` replays. *)
  let journal =
    Option.map
      (fun path ->
        match Pr_fastpath.Journal.writer path with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
        | Ok w ->
            Pr_fastpath.Journal.log_checkpoint w ~seq:0 base;
            w)
      journal_path
  in
  let c0, ll0 = sweep base in
  let prev_loads = ref (loads ll0) in
  let mismatches = ref 0 in
  let records = ref [] in
  let counters_line (c : Pr_fastpath.Kernel.counters) ll =
    Printf.sprintf
      "delivered %d/%d  dropped %d  looped %d  unreachable %d  load total %d  max %d"
      c.Pr_fastpath.Kernel.delivered c.Pr_fastpath.Kernel.injected
      c.Pr_fastpath.Kernel.dropped c.Pr_fastpath.Kernel.looped
      c.Pr_fastpath.Kernel.unreachable (Pr_obs.Linkload.total ll)
      (Pr_obs.Linkload.max_load ll)
  in
  if not json_flag then begin
    Printf.printf "swap session: %s, %d scripted epoch(s)\n"
      topo.Topology.name (List.length batches);
    Printf.printf "epoch 0 (base): %s\n" (counters_line c0 ll0)
  end;
  let seq = ref 0 in
  let crashed = ref false in
  List.iter
    (fun (lineno, batch) ->
      if !crashed then ()
      else begin
      incr seq;
      Option.iter
        (fun w -> Pr_fastpath.Journal.log_batch w ~seq:!seq batch)
        journal;
      match Delta.apply (Pr_fastpath.Swap.current store) batch with
      | Error err ->
          Printf.eprintf "%s:%d: %s\n" edits_file lineno
            (Delta.describe_error err);
          exit 1
      | Ok (_, _) when crash_after = Some !seq ->
          (* The §crash window: the batch is journalled and applied, the
             publish never happens.  Recovery must replay it anyway. *)
          crashed := true
      | Ok (next, stats) ->
          let epoch = Pr_fastpath.Swap.publish store next in
          Option.iter
            (fun w -> Pr_fastpath.Journal.log_commit w ~seq:!seq)
            journal;
          let pinned, image = Pr_fastpath.Swap.pin store in
          Pr_fastpath.Kernel.rebind kernel image;
          let c, ll = sweep image in
          Pr_fastpath.Swap.unpin store ~epoch:pinned;
          (* Referee every epoch against a full recompile of the same
             administrative state — the differential pin, live. *)
          let ok = Fib.equal image (Delta.recompile image) in
          if not ok then incr mismatches;
          let cur_loads = loads ll in
          let delta_tbl = Hashtbl.create 64 in
          Hashtbl.iter (fun k l -> Hashtbl.replace delta_tbl k l) cur_loads;
          Hashtbl.iter
            (fun k l ->
              Hashtbl.replace delta_tbl k
                (Option.value ~default:0 (Hashtbl.find_opt delta_tbl k) - l))
            !prev_loads;
          let movers =
            Hashtbl.fold
              (fun (u, v) d acc -> if d = 0 then acc else (u, v, d) :: acc)
              delta_tbl []
            |> List.sort (fun (u1, v1, d1) (u2, v2, d2) ->
                   match compare (abs d2) (abs d1) with
                   | 0 -> compare (u1, v1) (u2, v2)
                   | c -> c)
          in
          prev_loads := cur_loads;
          if json_flag then
            records :=
              Printf.sprintf
                "{\"epoch\":%d,\"line\":%d,\"edits\":%d,\"dirty\":%d,\"differential\":%S,\"delivered\":%d,\"injected\":%d,\"dropped\":%d,\"looped\":%d,\"unreachable\":%d,\"load_total\":%d,\"load_max\":%d}"
                epoch lineno stats.Delta.edits stats.Delta.dirty
                (if ok then "ok" else "mismatch")
                c.Pr_fastpath.Kernel.delivered c.Pr_fastpath.Kernel.injected
                c.Pr_fastpath.Kernel.dropped c.Pr_fastpath.Kernel.looped
                c.Pr_fastpath.Kernel.unreachable (Pr_obs.Linkload.total ll)
                (Pr_obs.Linkload.max_load ll)
              :: !records
          else begin
            Printf.printf
              "epoch %d: %s  (%d destination(s) repaired)  differential %s\n"
              epoch
              (String.concat ", " (List.map describe_edit batch))
              stats.Delta.dirty
              (if ok then "OK" else "MISMATCH");
            Printf.printf "  %s\n" (counters_line c ll);
            match movers with
            | [] -> Printf.printf "  link load unchanged\n"
            | _ ->
                Printf.printf "  load movers:%s\n"
                  (String.concat ""
                     (List.map
                        (fun (u, v, d) ->
                          Printf.sprintf " %s->%s %+d" (label u) (label v) d)
                        (List.filteri (fun i _ -> i < 3) movers)))
          end
      end)
    batches;
  Option.iter Pr_fastpath.Journal.close journal;
  if !crashed then
    Printf.printf
      "simulated crash after batch %d: journalled but never published — \
       replay with: prcli recover -t %s --journal %s\n"
      !seq topo.Topology.name
      (Option.value ~default:"JOURNAL" journal_path);
  if json_flag then Printf.printf "[%s]\n" (String.concat ",\n " (List.rev !records))
  else begin
    let s = Pr_fastpath.Swap.stats store in
    Printf.printf "store: %d epoch(s) published, %d retired, %s\n"
      s.Pr_fastpath.Swap.published s.Pr_fastpath.Swap.retired
      (if Pr_fastpath.Swap.quiescent store then "quiescent"
       else "pins still live")
  end;
  let fl = Pr_telemetry.Flight.create ~cmd:"swap" ~seed () in
  Pr_telemetry.Flight.knob_str fl "topology" topo.Topology.name;
  Pr_telemetry.Flight.count fl "epochs" !seq;
  Pr_telemetry.Flight.count fl "mismatches" !mismatches;
  Pr_telemetry.Flight.count fl "crashed" (if !crashed then 1 else 0);
  Pr_telemetry.Flight.count fl "base.delivered" c0.Pr_fastpath.Kernel.delivered;
  Pr_telemetry.Flight.count fl "base.injected" c0.Pr_fastpath.Kernel.injected;
  ledger_append ~no_ledger ~ledger fl;
  if !mismatches > 0 then begin
    Printf.eprintf "%d epoch(s) diverged from the full-recompile referee\n"
      !mismatches;
    exit 2
  end

let swap_cmd =
  let edits =
    Arg.(required & opt (some string) None & info [ "edits" ] ~docv:"FILE"
           ~doc:"Edit script: one line per epoch, comma-separated edits
                 ($(b,down A B), $(b,up A B), $(b,weight A B W) over node
                 labels), $(b,#) comments.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one JSON array of per-epoch records instead of text.")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
           ~doc:"Write-ahead journal: checkpoint the base image, log each
                 batch before it is applied and mark it committed once its
                 epoch publishes, so $(b,prcli recover) can replay the
                 session after a crash.")
  in
  let crash_after =
    Arg.(value & opt (some int) None & info [ "crash-after" ] ~docv:"N"
           ~doc:"Simulate a control-plane crash after batch N was
                 journalled and applied but before it published; requires
                 $(b,--journal).")
  in
  Cmd.v
    (Cmd.info "swap"
       ~doc:"Replay a scripted control-plane session: apply each edit batch
             as an incremental FIB repair, hot-swap the compiled image
             through the epoch store, referee every epoch byte-for-byte
             against a full recompile, and report per-epoch verdicts and
             link-load movers.  Exits 1 on malformed scripts, 2 on any
             differential mismatch.")
    Term.(const swap_session $ topo_arg $ embedding_arg $ seed_arg $ edits
          $ json $ journal $ crash_after $ ledger_arg $ no_ledger_arg)

(* ---- recover: replay a write-ahead journal after a crash ---- *)

let recover name embedding seed journal_path json_flag =
  let topo = load_topology name in
  let fig2 = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
  let rotation = Pr_exp.Fig2.resolve_rotation fig2 topo in
  let g = topo.Topology.graph in
  let base =
    Fib.of_tables_exn (Pr_core.Routing.build g)
      (Pr_core.Cycle_table.build rotation)
  in
  match Pr_fastpath.Journal.recover ~base journal_path with
  | Error msg ->
      (* Unreadable, truncated mid-file, checkpoint-less or otherwise
         malformed journals are all one-line exit-1 failures, the
         malformed-input convention. *)
      Printf.eprintf "%s\n" msg;
      exit 1
  | Ok r ->
      let image = r.Pr_fastpath.Journal.image in
      (* The recovery invariant: the replayed image is byte-equal to a
         cold full recompile of the final effective topology. *)
      let ok = Fib.equal image (Delta.recompile image) in
      let admin = Fib.admin_down image in
      if json_flag then
        Printf.printf
          "{\"journal\":%S,\"checkpoint_seq\":%d,\"replayed\":%d,\"uncommitted\":%d,\"torn_tail\":%b,\"admin_down\":%d,\"recompile\":%S}\n"
          journal_path r.Pr_fastpath.Journal.checkpoint_seq
          r.Pr_fastpath.Journal.replayed r.Pr_fastpath.Journal.uncommitted
          r.Pr_fastpath.Journal.torn_tail (List.length admin)
          (if ok then "ok" else "mismatch")
      else begin
        Printf.printf
          "recovered %s from %s: checkpoint seq %d, %d batch(es) replayed \
           (%d uncommitted)%s\n"
          topo.Topology.name journal_path r.Pr_fastpath.Journal.checkpoint_seq
          r.Pr_fastpath.Journal.replayed r.Pr_fastpath.Journal.uncommitted
          (if r.Pr_fastpath.Journal.torn_tail then ", torn tail dropped"
           else "");
        let label = Topology.label topo in
        (match admin with
        | [] -> Printf.printf "  administrative state: all links live\n"
        | l ->
            Printf.printf "  administratively down:%s\n"
              (String.concat ""
                 (List.map
                    (fun (u, v) ->
                      Printf.sprintf " %s-%s" (label u) (label v))
                    l)));
        Printf.printf "  full-recompile referee: %s\n"
          (if ok then "byte-equal" else "MISMATCH")
      end;
      if not ok then exit 2

let recover_cmd =
  let journal =
    Arg.(required & opt (some string) None & info [ "journal" ] ~docv:"FILE"
           ~doc:"The write-ahead journal a crashed $(b,prcli swap
                 --journal) session left behind.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one JSON object instead of text.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild the image a crashed control plane should republish:
             decode the journal's last checkpoint and redo every
             journalled edit batch after it, committed or not, then
             referee the result byte-for-byte against a full recompile.
             Exits 1 on an unreadable or damaged journal, 2 if the
             recovered image diverges from the referee.")
    Term.(const recover $ topo_arg $ embedding_arg $ seed_arg $ journal
          $ json)

(* ---- detect: detection-delay sweep ---- *)

let parse_delay s =
  match float_of_string_opt s with
  | Some d when d >= 0.0 && Float.is_finite d -> Ok d
  | _ -> Error "want a non-negative number"

let detect name embedding seed delays_spec horizon rate mtbf mttr fp hold_down
    jitter guard schemes_spec =
  let topo = load_topology name in
  let g = topo.Topology.graph in
  let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
  let rotation = Pr_exp.Fig2.resolve_rotation config topo in
  let delays = parse_comma_list parse_delay "detection delay" delays_spec in
  let schemes = parse_comma_list parse_scheme "scheme" schemes_spec in
  let rng = Pr_util.Rng.create ~seed in
  let link_events =
    Pr_sim.Workload.failure_process (Pr_util.Rng.copy rng) g ~mtbf ~mttr ~horizon
  in
  let injections =
    Pr_sim.Workload.poisson_flows (Pr_util.Rng.copy rng) g ~rate ~horizon
  in
  Printf.printf
    "detection-delay sweep: %s (%s embedding), seed %d, horizon %g\n"
    topo.Topology.name
    (Pr_exp.Ablation.embedding_name embedding)
    seed horizon;
  Printf.printf
    "  %d link events (mtbf %g, mttr %g), %d packets (rate %g)\n"
    (List.length link_events) mtbf mttr (List.length injections) rate;
  Printf.printf "  detector: jitter %g, false-positive rate %g, hold-down %g%s\n\n"
    jitter fp hold_down
    (if guard > 0 then Printf.sprintf ", budget guard %d" guard else "");
  let detection_for delay =
    {
      Pr_sim.Detector.down_delay = delay;
      up_delay = delay;
      jitter;
      false_positive_rate = fp;
      false_positive_hold = 0.5;
      hold_down;
      backoff = 2.0;
      max_backoff = 8.0;
      budget_guard = guard;
      seed;
    }
  in
  let results =
    try
      List.map
        (fun delay ->
          let detection = detection_for delay in
          let row =
            List.map
              (fun scheme ->
                match
                  Pr_sim.Engine.run ~detection
                    { Pr_sim.Engine.topology = topo; rotation; scheme }
                    ~link_events ~injections
                with
                | Ok outcome -> outcome.Pr_sim.Engine.metrics
                | Error e ->
                    Printf.eprintf "bad workload: %s\n"
                      (Pr_sim.Engine.describe_workload_error e);
                    exit 1)
              schemes
          in
          (delay, row))
        delays
    with Invalid_argument msg ->
      Printf.eprintf "detect: %s\n" msg;
      exit 1
  in
  let loss_cell (m : Pr_sim.Metrics.t) =
    let deliverable = m.Pr_sim.Metrics.injected - m.Pr_sim.Metrics.unreachable in
    let lost = m.Pr_sim.Metrics.dropped + m.Pr_sim.Metrics.looped in
    if deliverable = 0 then "-"
    else
      Printf.sprintf "%d/%d (%.2f%%)" lost deliverable
        (100.0 *. float_of_int lost /. float_of_int deliverable)
  in
  Pr_util.Tablefmt.print
    ~header:("delay"
             :: List.map
                  (fun s -> Pr_sim.Engine.scheme_name s ^ " lost")
                  schemes)
    (List.map
       (fun (delay, row) ->
         Printf.sprintf "%g" delay :: List.map loss_cell row)
       results);
  (* Per-reason breakdown for the first PR scheme in the list. *)
  let rec pr_index i = function
    | [] -> None
    | Pr_sim.Engine.Pr_scheme _ :: _ -> Some i
    | _ :: rest -> pr_index (i + 1) rest
  in
  match pr_index 0 schemes with
  | None -> ()
  | Some i ->
      let metrics_at row = List.nth row i in
      let reasons =
        List.filter
          (fun r ->
            List.exists
              (fun (_, row) -> Pr_sim.Metrics.drop_count (metrics_at row) r > 0)
              results)
          Pr_sim.Metrics.all_reasons
      in
      Printf.printf "\n%s drop and degradation breakdown:\n"
        (Pr_sim.Engine.scheme_name (List.nth schemes i));
      Pr_util.Tablefmt.print
        ~header:(("delay" :: List.map Pr_sim.Metrics.reason_name reasons)
                 @ [ "retries"; "lfa-rescue"; "dd-sat" ])
        (List.map
           (fun (delay, row) ->
             let m = metrics_at row in
             (Printf.sprintf "%g" delay
              :: List.map
                   (fun r -> string_of_int (Pr_sim.Metrics.drop_count m r))
                   reasons)
             @ [
                 string_of_int m.Pr_sim.Metrics.complementary_retries;
                 string_of_int m.Pr_sim.Metrics.lfa_rescues;
                 string_of_int m.Pr_sim.Metrics.dd_saturations;
               ])
           results)

let detect_cmd =
  let delays =
    Arg.(value & opt string "0,0.01,0.05,0.1,0.2,0.5"
         & info [ "delays" ] ~docv:"LIST"
             ~doc:"Comma-separated detection delays to sweep (applied to both
                   failure and repair detection).")
  in
  let horizon =
    Arg.(value & opt float 60.0 & info [ "horizon" ] ~docv:"TIME"
           ~doc:"Simulated duration.")
  in
  let rate =
    Arg.(value & opt float 50.0 & info [ "rate" ] ~docv:"PKTS"
           ~doc:"Packet injections per time unit.")
  in
  let mtbf =
    Arg.(value & opt float 20.0 & info [ "mtbf" ] ~docv:"TIME"
           ~doc:"Mean time between failures per link.")
  in
  let mttr =
    Arg.(value & opt float 2.0 & info [ "mttr" ] ~docv:"TIME"
           ~doc:"Mean time to repair per link.")
  in
  let fp =
    Arg.(value & opt float 0.0 & info [ "fp" ] ~docv:"RATE"
           ~doc:"False-positive rate per observed transition per endpoint.")
  in
  let hold_down =
    Arg.(value & opt float 0.0 & info [ "hold-down" ] ~docv:"TIME"
           ~doc:"Per-router hold-down on repair detection (0 disables).")
  in
  let jitter =
    Arg.(value & opt float 0.0 & info [ "jitter" ] ~docv:"TIME"
           ~doc:"Per-endpoint uniform extra detection delay in [0, jitter);
                 nonzero values open unidirectional-failure windows.")
  in
  let guard =
    Arg.(value & opt int 0 & info [ "budget-guard" ] ~docv:"HOPS"
           ~doc:"Arm the degradation ladder's hop-budget rung this many hops
                 before TTL exhaustion (0 disables).")
  in
  let schemes =
    Arg.(value & opt string "pr,lfa,reconv" & info [ "schemes" ] ~docv:"LIST"
           ~doc:"Comma-separated schemes: $(b,pr), $(b,pr-simple), $(b,lfa),
                 $(b,reconv), $(b,reconv-jitter).")
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:"Detection-delay sweep: per-scheme loss under imperfect              per-router failure detection, with the PR drop-reason breakdown.")
    Term.(const detect $ topo_arg $ embedding_arg $ seed_arg $ delays $ horizon
          $ rate $ mtbf $ mttr $ fp $ hold_down $ jitter $ guard $ schemes)

(* ---- overhead / ablation / coverage ---- *)

let overhead () =
  print_string (Pr_exp.Overhead.table (Pr_topo.Zoo.paper_evaluation ()))

let overhead_cmd =
  Cmd.v (Cmd.info "overhead" ~doc:"The paper's §6 overhead comparison.")
    Term.(const overhead $ const ())

let ablation what seed =
  let topologies = Pr_topo.Zoo.paper_evaluation () in
  match what with
  | `Embedding -> print_string (Pr_exp.Ablation.embedding_table ~seed topologies)
  | `Discriminator -> print_string (Pr_exp.Ablation.discriminator_table topologies)

let ablation_cmd =
  let what =
    Arg.(
      value
      & opt (enum [ ("embedding", `Embedding); ("discriminator", `Discriminator) ]) `Embedding
      & info [ "what" ] ~docv:"KIND" ~doc:"$(b,embedding) or $(b,discriminator).")
  in
  Cmd.v (Cmd.info "ablation" ~doc:"Design-choice ablations.")
    Term.(const ablation $ what $ seed_arg)

let coverage name kmax samples seed =
  let topo = load_topology name in
  let ks = List.init kmax (fun i -> i + 1) in
  print_string (Pr_exp.Coverage.table (Pr_exp.Coverage.sweep ~seed ~samples topo ~ks))

let coverage_cmd =
  let kmax =
    Arg.(value & opt int 6 & info [ "kmax" ] ~docv:"INT" ~doc:"Sweep k = 1 .. kmax.")
  in
  let samples =
    Arg.(value & opt int 100 & info [ "samples" ] ~docv:"INT" ~doc:"Scenarios per k.")
  in
  Cmd.v (Cmd.info "coverage" ~doc:"Delivery-ratio sweep (PR vs simple PR vs LFA).")
    Term.(const coverage $ topo_arg $ kmax $ samples $ seed_arg)

(* ---- bench: the all-pairs single-failure sweep, timed ---- *)

(* Committed artifacts are history ([prcli history] reads them back);
   clobbering one silently would erase a baseline, so overwriting is an
   explicit choice. *)
let refuse_overwrite ~force path =
  if (not force) && Sys.file_exists path then begin
    Printf.eprintf "%s exists; pass --force to overwrite it\n" path;
    exit 1
  end

(* The scale observatory: synthetic BA/Waxman campaigns, exiting before
   any named-topology work — the campaign generates its own graphs. *)
let bench_scale ~domains ~seed ~force ~scale_nodes ~scale_family
    ~scale_scenarios ~scale_pairs ~scale_out ~scale_spans_out ~progress ~ledger
    ~no_ledger =
  refuse_overwrite ~force scale_out;
  refuse_overwrite ~force scale_spans_out;
  let sizes =
    String.split_on_char ',' scale_nodes
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some n when n >= 8 -> n
           | _ ->
               Printf.eprintf "bad --scale-nodes entry %S (want ints >= 8)\n" s;
               exit 1)
  in
  let families =
    match scale_family with
    | "both" -> [ Pr_report.Scale.Ba; Pr_report.Scale.Waxman ]
    | s -> (
        match Pr_report.Scale.family_of_string s with
        | Some f -> [ f ]
        | None ->
            Printf.eprintf "bad --scale-family %S (ba, waxman or both)\n" s;
            exit 1)
  in
  if sizes = [] then begin
    Printf.eprintf "--scale-nodes named no sizes\n";
    exit 1
  end;
  if scale_scenarios < 1 then begin
    Printf.eprintf "bad --scale-scenarios %d (want >= 1)\n" scale_scenarios;
    exit 1
  end;
  if scale_pairs < 1 then begin
    Printf.eprintf "bad --scale-pairs %d (want >= 1)\n" scale_pairs;
    exit 1
  end;
  progress_on ~forced:progress ~label:"bench --scale";
  let c =
    Fun.protect ~finally:progress_off (fun () ->
        Pr_report.Scale.run ~domains ~scenarios:scale_scenarios
          ~pairs:scale_pairs ~families ~sizes ~seed ())
  in
  print_string (Pr_report.Scale.render c);
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write scale_out (Pr_report.Scale.to_json c);
  write scale_spans_out (Pr_report.Scale.spans_json c);
  Printf.printf "wrote %s and %s\n" scale_out scale_spans_out;
  (* The flight record: seeded counts and sketch quantiles land in the
     fingerprinted stable body (bit-identical across --domains, which is
     why the domain count itself is recorded as a volatile metric);
     wall-clock ratios go to the volatile tail. *)
  let fl = Pr_telemetry.Flight.create ~cmd:"bench-scale" ~seed () in
  Pr_telemetry.Flight.knob_str fl "families" scale_family;
  Pr_telemetry.Flight.knob_str fl "nodes" scale_nodes;
  Pr_telemetry.Flight.knob_int fl "scenarios" scale_scenarios;
  Pr_telemetry.Flight.knob_int fl "pairs" scale_pairs;
  List.iter
    (fun (r : Pr_report.Scale.result) ->
      let pre = Printf.sprintf "%s.%d" r.family r.n in
      Pr_telemetry.Flight.count fl (pre ^ ".edges") r.m;
      Pr_telemetry.Flight.count fl (pre ^ ".delivered") r.delivered;
      Pr_telemetry.Flight.count fl (pre ^ ".dropped") r.dropped;
      Pr_telemetry.Flight.count fl (pre ^ ".looped") r.looped;
      Pr_telemetry.Flight.count fl (pre ^ ".unreachable") r.unreachable;
      Pr_telemetry.Flight.count fl (pre ^ ".image_bytes") r.image_bytes;
      let bank qs vs = Array.map2 (fun q v -> (q, v)) qs vs in
      Pr_telemetry.Flight.quantiles fl (pre ^ ".stretch")
        (bank Probe.sketch_qs r.stretch_q);
      Pr_telemetry.Flight.quantiles fl (pre ^ ".hops")
        (bank Probe.sketch_qs r.hops_q))
    c.Pr_report.Scale.results;
  Pr_telemetry.Flight.metric fl "domains" (float_of_int domains);
  Pr_telemetry.Flight.metric fl "overhead_ratio"
    c.Pr_report.Scale.overhead_ratio;
  Pr_telemetry.Flight.metric fl "span_coverage_min"
    c.Pr_report.Scale.span_coverage_min;
  Pr_telemetry.Flight.artifact fl scale_out;
  Pr_telemetry.Flight.artifact fl scale_spans_out;
  Pr_telemetry.Flight.set_spans fl
    (List.map (fun (r : Pr_report.Scale.result) -> r.span)
       c.Pr_report.Scale.results);
  ledger_append ~no_ledger ~ledger fl;
  (* The <= 1.10x sketch budget and the >= 95% span-accounting floor are
     this campaign's pass/fail line, mirrored by the CI gate. *)
  exit
    (if
       c.Pr_report.Scale.overhead_ratio <= 1.10
       && c.Pr_report.Scale.span_coverage_min >= 0.95
     then 0
     else 1)

(* Each suite writes its artifact here; only [--force] overwrites one. *)
let bench_artifact suite = "BENCH_" ^ suite ^ ".json"

module Kernel = Pr_fastpath.Kernel
module Parallel = Pr_fastpath.Parallel
module Metrics = Pr_sim.Metrics

let bench name embedding seed backend_spec domains json probe force
    linkload_flag swap_flag guard_flag shortcut scale scale_nodes scale_family
    scale_scenarios scale_pairs scale_out scale_spans_out progress_flag ledger
    no_ledger =
  let backend = parse_backend backend_spec in
  if domains < 1 then begin
    Printf.eprintf "domains must be >= 1\n";
    exit 1
  end;
  if scale then
    bench_scale ~domains ~seed ~force ~scale_nodes ~scale_family
      ~scale_scenarios ~scale_pairs ~scale_out ~scale_spans_out
      ~progress:progress_flag ~ledger ~no_ledger;
  (* Malformed widths die before the clobber checks, which die before
     any timing work is spent. *)
  let shortcut = shortcut_range_or_die shortcut in
  List.iter
    (fun (wanted, suite) ->
      if wanted then refuse_overwrite ~force (bench_artifact suite))
    [
      (probe, "probe"); (linkload_flag, "linkload"); (swap_flag, "swap");
      (guard_flag, "guard"); (shortcut <> None, "shortcut");
    ];
  let topo = load_topology name in
  let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
  let rotation = Pr_exp.Fig2.resolve_rotation config topo in
  let g = topo.Topology.graph in
  let backend_name = Pr_sim.Engine.backend_name backend in
  let fl =
    Pr_telemetry.Flight.create ~cmd:"bench" ~seed ~backend:backend_name ()
  in
  Pr_telemetry.Flight.knob_str fl "topology" topo.Topology.name;
  Pr_telemetry.Flight.metric fl "domains" (float_of_int domains);
  (* The control-plane build runs under its own span recorder: the
     library stages (routing.build, fib.compile and its per-plane
     children) land in the flight record, and their Enter/Leave events
     drive the progress heartbeat.  The recorder is gone again before
     any timed sweep starts. *)
  let recorder = Pr_telemetry.Span.create () in
  Pr_telemetry.Span.install recorder;
  progress_on ~forced:progress_flag
    ~label:(Printf.sprintf "bench %s" topo.Topology.name);
  let routing, shortcut, cycles, fib =
    Fun.protect
      ~finally:(fun () ->
        progress_off ();
        Pr_telemetry.Span.uninstall ())
      (fun () ->
        let routing = Pr_core.Routing.build g in
        let shortcut =
          shortcut_or_die ~dd_bits:(Pr_core.Routing.dd_bits routing) shortcut
        in
        let cycles =
          Pr_telemetry.Span.timed "cycles.build" (fun () ->
              Pr_core.Cycle_table.build rotation)
        in
        let fib = Fib.of_tables_exn routing cycles in
        (routing, shortcut, cycles, fib))
  in
  Pr_telemetry.Flight.set_spans fl (Pr_telemetry.Span.roots recorder);
  Option.iter (fun w -> Pr_telemetry.Flight.knob_int fl "shortcut" w) shortcut;
  Pr_telemetry.Flight.section fl "footprint"
    (Fib.footprint_json (Fib.footprint fib));
  let items = Parallel.all_pairs_single_failures fib in
  let packets =
    Array.fold_left
      (fun acc (it : Parallel.item) -> acc + Array.length it.pairs)
      0 items
  in
  let per_packet ns = ns /. float_of_int (max 1 packets) in
  let num = Pr_util.Json.number and str = Printf.sprintf "%S" in
  (* The one artifact writer: the suite and topology, then [fields]
     (name, raw JSON value), one member a line. *)
  let write_artifact suite fields =
    let path = bench_artifact suite in
    let member (k, v) = Printf.sprintf "  %S: %s" k v in
    let fields =
      ("suite", str suite) :: ("topology", str topo.Topology.name) :: fields
    in
    let oc = open_out path in
    output_string oc
      ("{\n" ^ String.concat ",\n" (List.map member fields) ^ "\n}\n");
    close_out oc;
    Pr_telemetry.Flight.artifact fl path;
    path
  in
  (* An overhead suite: the off and on legs' best per-call times and
     their ratio, then the suite's own [tail] members. *)
  let overhead ~suite ~backend ~domains ~tail off_ns on_ns =
    let ratio = if off_ns > 0.0 then on_ns /. off_ns else 1.0 in
    let leg ns =
      Printf.sprintf "{\"elapsed_s\": %s, \"ns_per_packet\": %s}"
        (num (ns /. 1e9)) (num (per_packet ns))
    in
    let path =
      write_artifact suite
        ([
           ("backend", str backend);
           ("domains", string_of_int domains);
           ("scenarios", string_of_int (Array.length items));
           ("packets", string_of_int packets);
           (suite ^ "_off", leg off_ns);
           (suite ^ "_on", leg on_ns);
           ("overhead_ratio", num ratio);
         ]
        @ tail)
    in
    Printf.printf
      "  %s: off %.0f ns/packet, on %.0f ns/packet (x%.3f); wrote %s\n" suite
      (per_packet off_ns) (per_packet on_ns) ratio path;
    Pr_telemetry.Flight.metric fl (suite ^ "_overhead") ratio
  in
  let referee ~suite same =
    if not same then begin
      Printf.eprintf "%s-on run changed the verdicts — %s bug\n" suite suite;
      exit 1
    end
  in
  let reference_sweep ?probe ?linkload () =
    let metrics = Metrics.create () in
    Array.iter
      (fun (it : Parallel.item) ->
        let failures = it.failures in
        Array.iter
          (fun (src, dst) ->
            if not (Pr_core.Failure.pair_connected failures src dst) then
              Metrics.record_unreachable metrics
            else
              let trace =
                Pr_core.Forward.run
                  ~termination:Pr_core.Forward.Distance_discriminator
                  ~routing ~cycles ~failures ?probe ?linkload ~src ~dst ()
              in
              match trace.Pr_core.Forward.outcome with
              | Pr_core.Forward.Delivered ->
                  Metrics.record_delivery metrics
                    ~stretch:(Pr_core.Forward.stretch ~routing ~trace ~src ~dst)
              | Pr_core.Forward.Ttl_exceeded -> Metrics.record_loop metrics
              | Pr_core.Forward.Dropped_no_interface
              | Pr_core.Forward.Dropped_unreachable ->
                  Metrics.record_drop metrics
              | Pr_core.Forward.Dropped_corrupt ->
                  Metrics.record_drop ~reason:Metrics.Corrupt metrics)
          it.pairs)
      items;
    metrics
  in
  (* The plain sweep and each requested sink suite's sweep (the same
     calls with one sink attached) take turns on the leg timer.  A leg
     returns its verdicts, refereed exactly (the compiled counters before
     [Metrics.of_fastpath], or the reference walk's whole metrics), and
     its sink's JSON. *)
  let no_sink () = "" in
  let plain () =
    match backend with
    | `Compiled -> (`Counters (Parallel.run ~domains ~seed fib items), no_sink)
    | `Reference -> (`Metrics (reference_sweep ()), no_sink)
  in
  let probed () =
    match backend with
    | `Compiled ->
        let c, p = Parallel.run_probed ~domains ~seed fib items in
        (`Counters c, fun () -> Probe.to_json p)
    | `Reference ->
        let p = Probe.create () in
        (`Metrics (reference_sweep ~probe:p ()), fun () -> Probe.to_json p)
  in
  let loaded () =
    match backend with
    | `Compiled ->
        let c, ll = Parallel.run_loaded ~domains ~seed fib items in
        (`Counters c, fun () -> Pr_obs.Linkload.to_json ll)
    | `Reference ->
        let ll = Pr_obs.Linkload.create g in
        ( `Metrics (reference_sweep ~linkload:ll ()),
          fun () -> Pr_obs.Linkload.to_json ll )
  in
  let same a b =
    match (a, b) with
    | `Counters a, `Counters b -> Kernel.equal_counters a b
    | `Metrics a, `Metrics b -> a = b
    | _ -> false
  in
  let sinks =
    List.filter_map
      (fun (wanted, sink) -> if wanted then Some sink else None)
      [ (probe, ("probe", probed)); (linkload_flag, ("linkload", loaded)) ]
  in
  let timed =
    Pr_report.Report.time_best_ns (Array.of_list (plain :: List.map snd sinks))
  in
  let plain_ns, (verdicts, _) = timed.(0) in
  let sunk = List.mapi (fun i (suite, _) -> (suite, timed.(i + 1))) sinks in
  List.iter (fun (suite, (_, (v, _))) -> referee ~suite (same verdicts v)) sunk;
  let metrics =
    match verdicts with `Counters c -> Metrics.of_fastpath c | `Metrics m -> m
  in
  let elapsed = plain_ns /. 1e9 and ns_per_packet = per_packet plain_ns in
  if json then
    Printf.printf
      "{\"topology\":%S,\"backend\":%S,\"domains\":%d,\"scenarios\":%d,\"packets\":%d,\"elapsed_s\":%.6f,\"ns_per_packet\":%.1f,\"injected\":%d,\"delivered\":%d,\"dropped\":%d,\"looped\":%d,\"unreachable\":%d,\"delivery_ratio\":%.6f,\"mean_stretch\":%.6f}\n"
      topo.Topology.name backend_name domains (Array.length items) packets
      elapsed ns_per_packet metrics.Metrics.injected metrics.Metrics.delivered
      metrics.Metrics.dropped metrics.Metrics.looped metrics.Metrics.unreachable
      (Metrics.delivery_ratio metrics)
      (Metrics.mean_stretch metrics)
  else begin
    Printf.printf
      "bench: %s all-pairs single-failure sweep, %s backend, %d domain(s)\n"
      topo.Topology.name backend_name domains;
    Printf.printf "  %d scenario(s), %d packet(s), %.3f ms, %.0f ns/packet\n"
      (Array.length items) packets (elapsed *. 1e3) ns_per_packet;
    Format.printf "  %a@." Metrics.pp metrics
  end;
  Pr_telemetry.Flight.count fl "scenarios" (Array.length items);
  Pr_telemetry.Flight.count fl "packets" packets;
  Pr_telemetry.Flight.count fl "injected" metrics.Metrics.injected;
  Pr_telemetry.Flight.count fl "delivered" metrics.Metrics.delivered;
  Pr_telemetry.Flight.count fl "dropped" metrics.Metrics.dropped;
  Pr_telemetry.Flight.count fl "looped" metrics.Metrics.looped;
  Pr_telemetry.Flight.count fl "unreachable" metrics.Metrics.unreachable;
  Pr_telemetry.Flight.metric fl "elapsed_s" elapsed;
  Pr_telemetry.Flight.metric fl "ns_per_packet" ns_per_packet;
  List.iter
    (fun (suite, (on_ns, (_, payload))) ->
      overhead ~suite ~backend:backend_name ~domains
        ~tail:[ (suite, payload ()) ] plain_ns on_ns)
    sunk;
  if swap_flag then begin
    (* Control-plane costs: per-edge single-edit incremental repair vs a
       full recompile of the same image, and the hot-swap pause (publish
       + pin + kernel rebind + unpin). *)
    let edges =
      Pr_graph.Graph.fold_edges
        (fun _ (e : Pr_graph.Graph.edge) acc -> (e.u, e.v) :: acc)
        g []
    in
    let n_edges = List.length edges in
    let down u v = [ { Delta.u; v; change = Delta.Down } ] in
    let incremental () =
      List.iter (fun (u, v) -> ignore (Delta.apply_exn fib (down u v))) edges
    in
    let images =
      List.map (fun (u, v) -> fst (Delta.apply_exn fib (down u v))) edges
    in
    let full () =
      List.iter (fun image -> ignore (Delta.recompile image)) images
    in
    let swap_pause () =
      let store = Pr_fastpath.Swap.create fib in
      let kernel = Kernel.create fib in
      List.iter
        (fun image ->
          ignore (Pr_fastpath.Swap.publish store image);
          let epoch, pinned = Pr_fastpath.Swap.pin store in
          Kernel.rebind kernel pinned;
          Pr_fastpath.Swap.unpin store ~epoch)
        images
    in
    let timed =
      Pr_report.Report.time_best_ns [| incremental; full; swap_pause |]
    in
    let per i = fst timed.(i) /. float_of_int (max 1 n_edges) in
    let incremental_ns = per 0 and full_ns = per 1 and pause_ns = per 2 in
    let norm = if full_ns > 0.0 then incremental_ns /. full_ns else 1.0 in
    let path =
      write_artifact "swap"
        [
          ("edges", string_of_int n_edges);
          ("incremental_ns", num incremental_ns);
          ("full_ns", num full_ns);
          ("swap_pause_ns", num pause_ns);
          ("norm", num norm);
        ]
    in
    Printf.printf
      "  swap: incremental %.0f ns, full %.0f ns per recompile (x%.3f), \
       pause %.0f ns; wrote %s\n"
      incremental_ns full_ns norm pause_ns path;
    Pr_telemetry.Flight.metric fl "swap_incremental_ns" incremental_ns;
    Pr_telemetry.Flight.metric fl "swap_full_ns" full_ns;
    Pr_telemetry.Flight.metric fl "swap_pause_ns" pause_ns;
    Pr_telemetry.Flight.metric fl "swap_norm" norm
  end;
  (* The guard and shortcut overhead legs: the same single-threaded
     kernel sweep with nothing armed and with one feature armed, each
     with its referee and its own artifact members (the shortcut's also
     go to the flight record).  Guard mode (FIB-cell
     bounds checks) must keep every counter on clean traffic, so its
     ratio prices the checks alone.  The deja-vu shortcut rung may
     shorten a recycled walk, and where walks loop under DD termination
     alone it may turn a loop into a delivery; it never loses a delivery
     or changes a drop.  So its referee wants equal injected,
     unreachable and dropped counts, drop for drop by reason, and no
     fewer deliveries. *)
  let improves (off : Kernel.counters) (on : Kernel.counters) =
    on.injected = off.injected
    && on.unreachable = off.unreachable
    && on.dropped = off.dropped
    && on.drops_by_reason = off.drops_by_reason
    && on.delivered >= off.delivered
  in
  let guard =
    ( "guard",
      (fun k -> Kernel.set_guard k true),
      Kernel.equal_counters,
      fun _ -> [] )
  in
  let shortcut_suite w =
    let tail (on : Kernel.counters) =
      Pr_telemetry.Flight.count fl "shortcut_exits" on.shortcut_exits;
      [
        ("width", string_of_int w);
        ("shortcut_exits", string_of_int on.shortcut_exits);
      ]
    in
    ( "shortcut",
      (fun k -> Kernel.set_shortcut k (Some w)),
      improves,
      tail )
  in
  let armed =
    (if guard_flag then [ guard ] else [])
    @ Option.to_list (Option.map shortcut_suite shortcut)
  in
  if guard_flag || shortcut <> None then begin
    (* Each leg's kernel is built and configured, and every pair's
       connectivity decided, before any timing; the armed legs share the
       disarmed one on the leg timer. *)
    let connected =
      Array.map
        (fun (it : Parallel.item) ->
          Array.map
            (fun (src, dst) -> Pr_core.Failure.pair_connected it.failures src dst)
            it.pairs)
        items
    in
    let leg arm =
      let kernel = Kernel.create fib in
      arm kernel;
      fun () ->
        let counters = Kernel.fresh_counters () in
        Array.iteri
          (fun i (it : Parallel.item) ->
            Kernel.set_failures kernel it.failures;
            Array.iteri
              (fun j (src, dst) ->
                if connected.(i).(j) then
                  Kernel.forward_into kernel counters ~src ~dst
                else Kernel.record_unreachable counters)
              it.pairs)
          items;
        counters
    in
    let timed =
      Pr_report.Report.time_best_ns
        (Array.of_list
           (leg ignore :: List.map (fun (_, arm, _, _) -> leg arm) armed))
    in
    let off_ns, off = timed.(0) in
    List.iteri
      (fun i (suite, _, equal, tail) ->
        let on_ns, on = timed.(i + 1) in
        referee ~suite (equal off on);
        overhead ~suite ~backend:"compiled" ~domains:1 ~tail:(tail on) off_ns
          on_ns)
      armed
  end;
  ledger_append ~no_ledger ~ledger fl

let bench_cmd =
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"INT"
           ~doc:"Worker domains (compiled backend only).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one JSON object on stdout instead of text.")
  in
  let probe =
    Arg.(value & flag & info [ "probe" ]
           ~doc:"Also run the sweep with a telemetry probe attached and
                 write its stretch, hops and re-cycle depth histograms,
                 plus the probe-on vs probe-off timing delta, to
                 BENCH_probe.json.")
  in
  let force =
    Arg.(value & flag & info [ "force" ]
           ~doc:"Overwrite an existing BENCH_<suite>.json (or --scale-out /
                 --scale-spans-out file) instead of refusing.")
  in
  let linkload =
    Arg.(value & flag & info [ "linkload" ]
           ~doc:"Also run the sweep with per-link load accounting attached
                 and write the merged table, plus the on vs off timing
                 delta, to BENCH_linkload.json.")
  in
  let swap =
    Arg.(value & flag & info [ "swap" ]
           ~doc:"Also time the control plane: per-edge incremental FIB
                 repair vs full recompile, and the epoch-store hot-swap
                 pause, written to BENCH_swap.json.")
  in
  let guard =
    Arg.(value & flag & info [ "guard" ]
           ~doc:"Also time the kernel sweep with guard mode (FIB-cell
                 bounds checks) off and on, verify the verdicts are
                 unchanged, and write the overhead ratio to
                 BENCH_guard.json.")
  in
  let scale =
    Arg.(value & flag & info [ "scale" ]
           ~doc:"Run the scale observatory instead of a named-topology
                 sweep: generate BA/Waxman topologies at --scale-nodes
                 sizes, run the full pipeline under span timing, and
                 write per-stage wall time, exact image bytes, streaming
                 stretch/hop quantiles and the sketch-armed overhead
                 ratio as JSON.  Exits non-zero if sketch overhead
                 exceeds 1.10x or the span tree accounts for less than
                 95% of a case's wall time.")
  in
  let scale_nodes =
    Arg.(value & opt string "1000,3000,10000" & info [ "scale-nodes" ]
           ~docv:"LIST" ~doc:"Comma-separated node counts for --scale.")
  in
  let scale_family =
    Arg.(value & opt string "both" & info [ "scale-family" ] ~docv:"FAM"
           ~doc:"Topology family for --scale: ba, waxman or both.")
  in
  let scale_scenarios =
    Arg.(value & opt int 4 & info [ "scale-scenarios" ] ~docv:"INT"
           ~doc:"Sampled single-failure scenarios per --scale case.")
  in
  let scale_pairs =
    Arg.(value & opt int 20000 & info [ "scale-pairs" ] ~docv:"INT"
           ~doc:"Sampled (src, dst) pairs per --scale scenario.")
  in
  let scale_out =
    Arg.(value & opt string "BENCH_scale.json" & info [ "scale-out" ]
           ~docv:"FILE" ~doc:"Where --scale writes its bench JSON.")
  in
  let scale_spans_out =
    Arg.(value & opt string "SPANS_scale.json" & info [ "scale-spans-out" ]
           ~docv:"FILE" ~doc:"Where --scale writes the span-tree JSON.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Time the all-pairs single-failure PR sweep on the reference or
             compiled data plane.  Every timed leg runs on one leg timer:
             warmed once, then interleaved with the legs it is compared
             to until each has had at least 100 ms in at least 7 batches;
             the best per-call time is reported.  With $(b,--shortcut),
             writes the armed/ungated kernel ratio to
             BENCH_shortcut.json.")
    Term.(const bench $ topo_arg $ embedding_arg $ seed_arg $ backend_arg
          $ domains $ json $ probe $ force $ linkload $ swap $ guard
          $ shortcut_arg $ scale $ scale_nodes $ scale_family
          $ scale_scenarios $ scale_pairs $ scale_out $ scale_spans_out
          $ progress_arg $ ledger_arg $ no_ledger_arg)

(* ---- report: the network observatory rollup ---- *)

let report name embedding seed domains top json out shortcut compile_flag
    progress_flag ledger no_ledger =
  if domains < 1 then begin
    Printf.eprintf "domains must be >= 1\n";
    exit 1
  end;
  let topo = load_topology name in
  let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
  let rotation = Pr_exp.Fig2.resolve_rotation config topo in
  let write_or_print text =
    match out with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.printf "report written to %s\n" path
  in
  if compile_flag then begin
    (* Compile-cost attribution: one FIB compile under a recorder, the
       per-plane sub-spans and the sampled per-destination histogram —
       the hotspot table for compile optimisation work. *)
    progress_on ~forced:progress_flag
      ~label:(Printf.sprintf "report --compile %s" topo.Topology.name);
    let p =
      Fun.protect ~finally:progress_off (fun () ->
          Pr_report.Report.profile_compile ~top topo rotation)
    in
    write_or_print
      (if json then Pr_report.Report.compile_to_json p
       else Pr_report.Report.render_compile p);
    let fl = Pr_telemetry.Flight.create ~cmd:"report-compile" ~seed () in
    Pr_telemetry.Flight.knob_str fl "topology" topo.Topology.name;
    Pr_telemetry.Flight.count fl "cost_samples"
      (List.length p.Pr_report.Report.costs);
    Pr_telemetry.Flight.metric fl "compile_ms"
      (Pr_telemetry.Span.wall_ms p.Pr_report.Report.compile);
    List.iter
      (fun (pl : Pr_telemetry.Span.node) ->
        Pr_telemetry.Flight.metric fl (pl.name ^ "_ms")
          (Pr_telemetry.Span.wall_ms pl))
      p.Pr_report.Report.planes;
    Pr_telemetry.Flight.set_spans fl [ p.Pr_report.Report.compile ];
    ledger_append ~no_ledger ~ledger fl;
    exit 0
  end;
  let dd_bits =
    Pr_core.Routing.dd_bits (Pr_core.Routing.build topo.Topology.graph)
  in
  let shortcut = shortcut_or_die ~dd_bits shortcut in
  progress_on ~forced:progress_flag
    ~label:(Printf.sprintf "report %s" topo.Topology.name);
  let s =
    Fun.protect ~finally:progress_off (fun () ->
        Pr_report.Report.sweep ~domains ?shortcut topo rotation)
  in
  let text =
    if json then Pr_report.Report.to_json ~top s
    else Pr_report.Report.render ~top s
  in
  write_or_print text;
  let fl = Pr_telemetry.Flight.create ~cmd:"report" ~seed () in
  Pr_telemetry.Flight.knob_str fl "topology" topo.Topology.name;
  Option.iter (fun w -> Pr_telemetry.Flight.knob_int fl "shortcut" w) shortcut;
  Pr_telemetry.Flight.metric fl "domains" (float_of_int domains);
  Pr_telemetry.Flight.count fl "scenarios" s.Pr_report.Report.scenarios;
  Pr_telemetry.Flight.count fl "packets" s.Pr_report.Report.packets;
  Pr_telemetry.Flight.count fl "delivered"
    s.Pr_report.Report.counters.Pr_fastpath.Kernel.delivered;
  Pr_telemetry.Flight.count fl "dropped"
    s.Pr_report.Report.counters.Pr_fastpath.Kernel.dropped;
  Pr_telemetry.Flight.count fl "unreachable"
    s.Pr_report.Report.counters.Pr_fastpath.Kernel.unreachable;
  Pr_telemetry.Flight.count fl "linkload_bytes"
    s.Pr_report.Report.linkload_bytes;
  Pr_telemetry.Flight.count fl "agree"
    (if Pr_report.Report.agree s then 1 else 0);
  Pr_telemetry.Flight.section fl "footprint"
    (Pr_fastpath.Fib.footprint_json s.Pr_report.Report.footprint);
  Option.iter (fun path -> Pr_telemetry.Flight.artifact fl path) out;
  ledger_append ~no_ledger ~ledger fl;
  if not (Pr_report.Report.agree s) then begin
    Printf.eprintf
      "cross-backend observability mismatch: linkload %s, counters %s\n"
      (if s.Pr_report.Report.loads_agree then "ok" else "diverged")
      (if s.Pr_report.Report.counters_agree then "ok" else "diverged");
    exit 1
  end

let report_cmd =
  let domains =
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"INT"
           ~doc:"Worker domains for the parallel backend leg.")
  in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K"
           ~doc:"How many hottest directed links to list.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the report as JSON instead of text.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the report to a file instead of stdout.")
  in
  let compile =
    Arg.(value & flag & info [ "compile" ]
           ~doc:"Compile-cost attribution instead of the sweep: compile the
                 FIB image once under span timing and render the hotspot
                 table — per-plane wall time and allocation, the sampled
                 per-destination cost quantiles, and the costliest
                 destinations.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run the all-pairs single-failure sweep on all three data planes
             with link-load accounting attached, check the tables agree, and
             render the campaign rollup: hottest links with their
             shortest/recycled/rescue split, the max-link-load CCDF and the
             stretch CCDF.  Exits non-zero on any cross-backend mismatch.")
    Term.(const report $ topo_arg $ embedding_arg $ seed_arg $ domains $ top
          $ json $ out $ shortcut_arg $ compile $ progress_arg $ ledger_arg
          $ no_ledger_arg)

(* ---- history: the perf-trend anomaly observatory ---- *)

let history_run dir ledger measure name embedding seed json_flag out =
  let extra =
    if not measure then []
    else begin
      (* The old flat gate's measured leg: re-time the fastpath norm now
         and let it join the committed series as its latest point. *)
      let topo = load_topology name in
      let config = { (Pr_exp.Fig2.default topo ~k:1) with embedding; seed } in
      let rotation = Pr_exp.Fig2.resolve_rotation config topo in
      let norm = Pr_report.Report.measure_norm topo rotation in
      [ ("bench.fastpath", { Pr_report.History.source = "measured"; value = norm }) ]
    end
  in
  let r = Pr_report.History.run ?ledger ~extra ~dir () in
  print_string (Pr_report.History.render r);
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Pr_report.History.to_json r);
      close_out oc;
      Printf.printf "history report written to %s\n" path);
  if json_flag && out = None then print_string (Pr_report.History.to_json r);
  exit (if r.Pr_report.History.anomalies > 0 then 1 else 0)

let history_cmd =
  let dir =
    Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR"
           ~doc:"Where to look for BENCH_*.json artifacts and FLIGHT_*.jsonl
                 ledgers.")
  in
  let ledger =
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE"
           ~doc:"An additional flight-ledger file to fold in (e.g. one
                 written outside $(b,--dir)).")
  in
  let measure =
    Arg.(value & flag & info [ "measure" ]
           ~doc:"Also re-measure the normalised compiled/reference per-packet
                 time on $(b,--topology) now and append it to the
                 $(b,bench.fastpath) series before assessment — the live leg
                 of the CI regression gate.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Also emit the machine-readable pr.history/1 report on
                 stdout.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the pr.history/1 JSON report to a file.")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"The perf-history anomaly observatory: fold every committed
             BENCH_*.json artifact and FLIGHT_*.jsonl flight ledger into
             named series, assess each series' latest point with a robust
             median-absolute-deviation rule (falling back to the flat 1.15x
             gate on short series), render sparkline trends, and exit
             non-zero if any series is anomalous.")
    Term.(const history_run $ dir $ ledger $ measure $ topo_arg
          $ embedding_arg $ seed_arg $ json $ out)

let main_cmd =
  Cmd.group
    (Cmd.info "prcli" ~version:"1.0.0"
       ~doc:"Packet Re-cycling (HotNets 2010) reproduction toolkit.")
    [
      topo_cmd; embed_cmd; table_cmd; trace_cmd; explain_cmd; fig2_cmd;
      figures_cmd; hunt_cmd; overhead_cmd; ablation_cmd; coverage_cmd;
      chaos_cmd; swap_cmd; recover_cmd; detect_cmd; bench_cmd; report_cmd;
      history_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
