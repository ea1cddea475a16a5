(* Guard mode and the corruption campaign pinned from four directions:

   - clean traffic: arming the guard changes no verdict, on either
     backend, across all-pairs single-failure sweeps;
   - injected corruption: both guarded backends agree on outcome and
     fault class for fuzzed wire fields, impossible DD values and bogus
     claimed previous hops — and never raise;
   - damaged FIB cells: junk written into any index-bearing table of a
     codec-copied image is delivered-or-accounted under guard, never an
     exception, with the Corrupt_cell locus naming the table, including
     the port-node cell the LFA rung reads;
   - the campaign: Corrupt.run holds every invariant on Abilene, Géant
     and Teleglobe, and its generator is deterministic in the seed. *)

module Graph = Pr_graph.Graph
module Routing = Pr_core.Routing
module Cycle_table = Pr_core.Cycle_table
module Failure = Pr_core.Failure
module Forward = Pr_core.Forward
module Header = Pr_core.Header
module Rng = Pr_util.Rng
module Fib = Pr_fastpath.Fib
module Kernel = Pr_fastpath.Kernel
module Gen = Pr_chaos.Gen
module Corrupt = Pr_chaos.Corrupt

let paper_topologies () =
  List.map
    (fun topo -> (topo, Pr_embed.Geometric.of_topology topo))
    [
      Pr_topo.Abilene.topology ();
      Pr_topo.Geant.topology ();
      Pr_topo.Teleglobe.topology ();
    ]

let setup topo rotation =
  let g = topo.Pr_topo.Topology.graph in
  let routing = Routing.build g in
  let cycles = Cycle_table.build rotation in
  let fib = Fib.of_tables_exn routing cycles in
  (g, routing, cycles, fib)

let fault_class = Option.map Forward.fault_name

(* ---- clean traffic: the guard is invisible ---- *)

let test_guard_invisible_on_clean_traffic () =
  List.iter
    (fun (topo, rotation) ->
      let g, _, _, fib = setup topo rotation in
      let name = topo.Pr_topo.Topology.name in
      let dd_bits = Fib.dd_bits fib in
      let sweep guard =
        let kernel = Kernel.create fib in
        Kernel.set_guard kernel guard;
        let counters = Kernel.fresh_counters () in
        Graph.iter_edges
          (fun _ (e : Graph.edge) ->
            let failures = Failure.of_list g [ (e.Graph.u, e.Graph.v) ] in
            Kernel.set_failures kernel failures;
            for src = 0 to Graph.n g - 1 do
              for dst = 0 to Graph.n g - 1 do
                if src <> dst then
                  if Failure.pair_connected failures src dst then
                    Kernel.forward_into ~dd_bits kernel counters ~src ~dst
                  else Kernel.record_unreachable counters
              done
            done)
          g;
        counters
      in
      Alcotest.(check bool)
        (name ^ ": guard on = guard off, counter for counter")
        true
        (Kernel.equal_counters (sweep false) (sweep true)))
    (paper_topologies ())

(* ---- injected corruption: backends verdict-identical ---- *)

let differential_check name ~routing ~cycles ~failures ~dd_bits kernel ?header
    ?arrived_from ~src ~dst () =
  let g =
    Forward.run_guarded ~dd_bits ?header ?arrived_from ~routing ~cycles
      ~failures ~src ~dst ()
  in
  let k = Kernel.run_one ~dd_bits ?header ?arrived_from kernel ~src ~dst in
  Alcotest.(check bool)
    (Printf.sprintf "%s: outcomes agree (%d -> %d)" name src dst)
    true
    (g.Forward.trace.Forward.outcome = k.Kernel.outcome);
  Alcotest.(check (option string))
    (Printf.sprintf "%s: fault classes agree (%d -> %d)" name src dst)
    (fault_class g.Forward.fault) (fault_class k.Kernel.fault);
  (g.Forward.trace.Forward.outcome, fault_class g.Forward.fault)

let test_injected_faults_verdict_equal () =
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let g, routing, cycles, fib = setup topo rotation in
  let n = Graph.n g in
  let dd_bits = Routing.dd_bits routing in
  let failures = Failure.none g in
  let kernel = Kernel.create fib in
  Kernel.set_guard kernel true;
  Kernel.set_failures kernel failures;
  let rng = Rng.create ~seed:23 in
  let pair () =
    let src = Rng.int rng n in
    (src, (src + 1 + Rng.int rng (n - 1)) mod n)
  in
  (* Fuzzed wire fields, the shared decode deciding Bad_field. *)
  for _ = 1 to 200 do
    let src, dst = pair () in
    let field = Rng.int rng (1 lsl (dd_bits + 3)) - (1 lsl (dd_bits + 1)) in
    match Forward.inject_of_field ~dd_bits field with
    | Error f ->
        Alcotest.(check string) "undecodable field is Bad_field" "bad-field"
          (Forward.fault_name f)
    | Ok header ->
        ignore
          (differential_check "wire field" ~routing ~cycles ~failures ~dd_bits
             kernel ~header ~src ~dst ())
  done;
  (* Impossible DD values: guards must fire identically. *)
  List.iter
    (fun dd ->
      let src, dst = pair () in
      let outcome, fault =
        differential_check "impossible dd" ~routing ~cycles ~failures ~dd_bits
          kernel
          ~header:{ Forward.pr_bit = true; dd_value = dd }
          ~src ~dst ()
      in
      Alcotest.(check bool) "impossible dd is dropped corrupt" true
        (outcome = Forward.Dropped_corrupt && fault = Some "impossible-dd"))
    [ Float.nan; Float.infinity; -1.0; 1e9 ];
  (* Bogus claimed previous hops, including non-nodes. *)
  List.iter
    (fun from_ ->
      let src, dst = pair () in
      let arrived_from =
        (* A real neighbour is legal; force a non-neighbour or
           non-node. *)
        if from_ >= 0 && from_ < n
           && Array.exists (Int.equal from_) (Graph.neighbours g src)
        then n
        else from_
      in
      let outcome, fault =
        differential_check "claimed hop" ~routing ~cycles ~failures ~dd_bits
          kernel
          ~header:{ Forward.pr_bit = true; dd_value = 1.0 }
          ~arrived_from ~src ~dst ()
      in
      Alcotest.(check bool) "bogus previous hop is dropped corrupt" true
        (outcome = Forward.Dropped_corrupt && fault = Some "not-neighbour"))
    [ -1; n; n + 7; 5 ]

(* A legal injection — a PR-clear header claiming a true neighbour as
   the previous hop — must keep a plain verdict: the seeding alone does
   not fabricate corruption on a clean deliverable walk. *)
let test_legal_injection_keeps_plain_verdicts () =
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let g, routing, cycles, fib = setup topo rotation in
  let dd_bits = Routing.dd_bits routing in
  let failures = Failure.none g in
  let kernel = Kernel.create fib in
  Kernel.set_guard kernel true;
  Kernel.set_failures kernel failures;
  let src = 0 in
  let from_ = (Graph.neighbours g src).(0) in
  let dst = Graph.n g - 1 in
  let outcome, fault =
    differential_check "legal injection" ~routing ~cycles ~failures ~dd_bits
      kernel ~header:Forward.fresh_header ~arrived_from:from_ ~src ~dst ()
  in
  Alcotest.(check bool) "delivered with no fault" true
    (outcome = Forward.Delivered && fault = None)

(* ---- damaged FIB cells: never an exception, locus named ---- *)

let test_cell_damage_never_raises () =
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let g, _, _, fib = setup topo rotation in
  let dd_bits = Fib.dd_bits fib in
  let failures = Failure.none g in
  let n = Graph.n g in
  let rng = Rng.create ~seed:5 in
  Array.iter
    (fun table ->
      for trial = 0 to 3 do
        let scratch =
          match Fib.Codec.decode ~base:fib (Fib.Codec.encode fib) with
          | Ok s -> s
          | Error msg -> Alcotest.fail msg
        in
        (* A next-hop cell is numbered [node * n + dst]. *)
        let cells, set =
          let flat a = (Array.length a, fun i v -> a.(i) <- v) in
          match table with
          | "port_node" -> flat (Fib.raw_port_node scratch)
          | "twin" -> flat (Fib.raw_twin scratch)
          | "next_hop_port" ->
              let cols = Fib.raw_next_hop_port scratch in
              (n * n, fun i v -> cols.(i mod n).(i / n) <- v)
          | "cycle_col" -> flat (Fib.raw_cycle_col scratch)
          | t -> Alcotest.fail ("unknown damage table " ^ t)
        in
        let slot = Rng.int rng cells in
        set slot
          [| -2; max_int / 2; n + Rng.int rng (8 * n); Rng.int rng (2 * n) |]
            .(trial);
        let kernel = Kernel.create scratch in
        Kernel.set_guard kernel true;
        Kernel.set_failures kernel failures;
        let corrupt_cells = ref 0 in
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if src <> dst then begin
              match Kernel.run_one ~dd_bits kernel ~src ~dst with
              | r -> (
                  match r.Kernel.fault with
                  | Some (Forward.Corrupt_cell { cell; _ }) ->
                      incr corrupt_cells;
                      Alcotest.(check bool)
                        (table ^ ": the locus names a real table") true
                        (String.length cell > 0)
                  | _ -> ())
              | exception e ->
                  Alcotest.fail
                    (Printf.sprintf
                       "guarded kernel raised on damaged %s[%d] (%d -> %d): %s"
                       table slot src dst (Printexc.to_string e))
            end
          done
        done
      done)
    Gen.damage_tables

(* ---- the LFA rung's port-node read ---- *)

(* The LFA rung reads the [port_node] cell of every live port to index
   [distance], so a damaged cell there must be an accounted verdict
   under guard.  At KSCY (4) towards ATLA (8) the primary is HSTN (5),
   and of the other neighbours only IPLS (6) is loop-free; DNVR (3) is
   not.  With 4-5 failed, a packet entering 4 with the budget guard
   exhausted is rescued through 6.  Damage the node cell of the live,
   non-primary port to 3, which no walk here transmits on, and the same
   walk drops at 4 with the port-node locus, before any hop and before
   the rung can rescue it. *)
let test_lfa_scan_port_node_guard () =
  let topo = Pr_topo.Abilene.topology () in
  let g, _, _, fib = setup topo (Pr_embed.Geometric.of_topology topo) in
  let failures = Failure.of_list g [ (4, 5) ] in
  let run image =
    let kernel = Kernel.create image in
    Kernel.set_guard kernel true;
    Kernel.set_failures kernel failures;
    Kernel.run_one ~ttl:32 ~budget_guard:32
      ~header:{ Forward.pr_bit = true; dd_value = 0.0 }
      kernel ~src:4 ~dst:8
  in
  let clean = run fib in
  Alcotest.(check (list string)) "the rung fires" [ "lfa-rescue" ]
    (List.map Forward.degradation_name clean.Kernel.degradations);
  Alcotest.(check (list int)) "through IPLS" [ 4; 6 ]
    (List.filteri (fun i _ -> i < 2) clean.Kernel.path);
  let scratch =
    match Fib.Codec.decode ~base:fib (Fib.Codec.encode fib) with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  (Fib.raw_port_node scratch).(Fib.slot scratch ~node:4 ~other:3) <-
    Graph.n g + 3;
  let r = run scratch in
  Alcotest.(check bool) "dropped corrupt" true
    (r.Kernel.outcome = Forward.Dropped_corrupt);
  Alcotest.(check (list int)) "before any hop" [ 4 ] r.Kernel.path;
  Alcotest.(check (list string)) "before any rescue" []
    (List.map Forward.degradation_name r.Kernel.degradations);
  match r.Kernel.fault with
  | Some (Forward.Corrupt_cell { node = 4; cell = "port-node" }) -> ()
  | f ->
      Alcotest.failf "expected a port-node cell at 4, got %s"
        (Option.fold ~none:"no fault" ~some:Forward.describe_fault f)

(* ---- the arrival port's twin cell ---- *)

(* A hop learns its arrival port from the [twin] cell of the slot it was
   sent on, so a damaged cell there must be an accounted verdict under
   guard.  KSCY (4) routes towards ATLA (8) through HSTN (5), and with
   5-8 failed, 5 starts a PR episode.  Damage the twin of 4's port to 5,
   out of 5's degree, and the walk drops at 5 with the twin locus, after
   the hop and before 5 decides. *)
let test_twin_guard () =
  let topo = Pr_topo.Abilene.topology () in
  let g, _, _, fib = setup topo (Pr_embed.Geometric.of_topology topo) in
  let run image =
    let kernel = Kernel.create image in
    Kernel.set_guard kernel true;
    Kernel.set_failures kernel (Failure.of_list g [ (5, 8) ]);
    Kernel.run_one kernel ~src:4 ~dst:8
  in
  let clean = run fib in
  Alcotest.(check bool) "delivered" true
    (clean.Kernel.outcome = Forward.Delivered);
  Alcotest.(check (list int)) "through HSTN" [ 4; 5 ]
    (List.filteri (fun i _ -> i < 2) clean.Kernel.path);
  Alcotest.(check bool) "HSTN starts an episode" true
    (match clean.Kernel.episodes with (5, _) :: _ -> true | _ -> false);
  let scratch =
    match Fib.Codec.decode ~base:fib (Fib.Codec.encode fib) with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  (Fib.raw_twin scratch).(Fib.slot scratch ~node:4 ~other:5) <-
    Graph.degree g 5;
  let r = run scratch in
  Alcotest.(check bool) "dropped corrupt" true
    (r.Kernel.outcome = Forward.Dropped_corrupt);
  Alcotest.(check (list int)) "after the hop, no further" [ 4; 5 ]
    r.Kernel.path;
  Alcotest.(check int) "no episode" 0 r.Kernel.pr_episodes;
  Alcotest.(check (list string)) "no degradation" []
    (List.map Forward.degradation_name r.Kernel.degradations);
  match r.Kernel.fault with
  | Some (Forward.Corrupt_cell { node = 5; cell = "twin" }) -> ()
  | f ->
      Alcotest.failf "expected a twin cell at 5, got %s"
        (Option.fold ~none:"no fault" ~some:Forward.describe_fault f)

(* ---- locus messages: the style satellite ---- *)

let test_fault_descriptions_carry_loci () =
  let check_contains what msg needle =
    let n = String.length needle and m = String.length msg in
    let rec scan i =
      if i + n > m then false
      else String.sub msg i n = needle || scan (i + 1)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S" what needle)
      true (scan 0)
  in
  check_contains "bad-field"
    (Forward.describe_fault (Forward.Bad_field { field = 99 }))
    "99";
  check_contains "impossible-dd"
    (Forward.describe_fault (Forward.Impossible_dd { node = 3; dd = -1.0 }))
    "3";
  check_contains "not-neighbour"
    (Forward.describe_fault (Forward.Not_neighbour { node = 2; from_ = 9 }))
    "9";
  check_contains "corrupt-cell"
    (Forward.describe_fault
       (Forward.Corrupt_cell { node = 4; cell = "next-hop-port" }))
    "next-hop-port";
  check_contains "walk-blowup"
    (Forward.describe_fault (Forward.Walk_blowup { hops = 512 }))
    "512";
  (* The kernel's caller-error messages carry their loci too. *)
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let _, _, _, fib = setup topo rotation in
  let kernel = Kernel.create fib in
  (match Kernel.run_one kernel ~src:0 ~dst:99 with
  | exception Invalid_argument msg -> check_contains "out-of-range dst" msg "99"
  | _ -> Alcotest.fail "out-of-range dst accepted");
  match Kernel.run_one kernel ~src:4 ~dst:4 with
  | exception Invalid_argument msg -> check_contains "src = dst" msg "4"
  | _ -> Alcotest.fail "src = dst accepted"

(* ---- the storm generator ---- *)

let test_corrupt_storm_deterministic () =
  let topo = Pr_topo.Abilene.topology () in
  let draw () = Gen.corrupt_storm (Rng.create ~seed:99) topo ~events:40 () in
  (* Compare by description: Raw_header can carry NaN, and structural
     equality on NaN is false by design. *)
  let render storm = List.map Gen.describe_corruption storm in
  Alcotest.(check (list string))
    "same seed, same storm" (render (draw ())) (render (draw ()));
  let storm = draw () in
  Alcotest.(check int) "requested size" 40 (List.length storm);
  let n = Graph.n topo.Pr_topo.Topology.graph in
  List.iter
    (fun c ->
      (match c with
      | Gen.Flip_field { src; dst; _ }
      | Gen.Raw_header { src; dst; _ }
      | Gen.Claim_from { src; dst; _ }
      | Gen.Stale_read { src; dst } ->
          Alcotest.(check bool) "src/dst are distinct nodes" true
            (src >= 0 && src < n && dst >= 0 && dst < n && src <> dst)
      | Gen.Cell_damage { table; _ } ->
          Alcotest.(check bool) "damage table is eligible" true
            (Array.exists (String.equal table) Gen.damage_tables)
      | Gen.Crash_point { after_batch } ->
          Alcotest.(check bool) "crash point in range" true (after_batch >= 0));
      Alcotest.(check bool) "describable" true
        (String.length (Gen.describe_corruption c) > 0))
    storm

(* ---- the campaign ---- *)

let run_campaign topo rotation ~seed ~events =
  let cfg = { (Corrupt.default_config topo rotation ~seed) with Corrupt.events } in
  match Corrupt.run cfg with
  | Error msg -> Alcotest.fail (topo.Pr_topo.Topology.name ^ ": " ^ msg)
  | Ok result -> (cfg, result)

let test_campaign_abilene () =
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let cfg, result = run_campaign topo rotation ~seed:7 ~events:64 in
  Alcotest.(check bool)
    ("violations:\n" ^ Corrupt.report cfg result)
    true (Corrupt.passed result);
  Alcotest.(check bool) "walks happened" true (result.Corrupt.injected > 0);
  Alcotest.(check bool) "faults were detected and classed" true
    (List.length result.Corrupt.faults > 0);
  Alcotest.(check bool) "crashes recovered" true
    (result.Corrupt.crash_recoveries > 0)

let test_campaign_paper_topologies () =
  List.iter
    (fun (topo, rotation) ->
      let cfg, result = run_campaign topo rotation ~seed:11 ~events:96 in
      Alcotest.(check bool)
        (topo.Pr_topo.Topology.name ^ " violations:\n"
        ^ Corrupt.report cfg result)
        true (Corrupt.passed result))
    (paper_topologies ())

let suite =
  [
    Alcotest.test_case "guard is invisible on clean traffic" `Quick
      test_guard_invisible_on_clean_traffic;
    Alcotest.test_case "injected faults: backends verdict-identical" `Quick
      test_injected_faults_verdict_equal;
    Alcotest.test_case "legal injection keeps plain verdicts" `Quick
      test_legal_injection_keeps_plain_verdicts;
    Alcotest.test_case "damaged FIB cells never raise under guard" `Quick
      test_cell_damage_never_raises;
    Alcotest.test_case "LFA rung: damaged port-node cell under guard" `Quick
      test_lfa_scan_port_node_guard;
    Alcotest.test_case "guard: a damaged twin cell drops at the arrival node"
      `Quick test_twin_guard;
    Alcotest.test_case "fault messages carry their loci" `Quick
      test_fault_descriptions_carry_loci;
    Alcotest.test_case "corrupt storm is deterministic and well-formed" `Quick
      test_corrupt_storm_deterministic;
    Alcotest.test_case "corruption campaign: Abilene invariants" `Quick
      test_campaign_abilene;
    Alcotest.test_case "corruption campaign: paper topologies" `Slow
      test_campaign_paper_topologies;
  ]
