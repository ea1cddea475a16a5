(* The live control plane pinned from four directions:

   - the differential harness: incremental recompiles (Fib.Delta.apply)
     are byte-equal to full recompiles of the same effective topology on
     Abilene, Géant and Teleglobe under randomized edit sequences, and
     an edit sequence that returns to the base administrative state
     returns to the base image's exact bytes;
   - QCheck: any interleaving of edits commutes with full recompile, and
     batch granularity does not matter where batches are mergeable;
   - the epoch store: publish/pin/unpin/grace-period retirement, and the
     Domain-parallel swapped runner is bit-deterministic in the domain
     count (swap timing never changes verdicts);
   - the simulators: Engine.run under a control config produces identical
     outcomes on the reference and compiled backends, and a chaos
     swap-storm campaign reports zero swap-attributed drops. *)

module Graph = Pr_graph.Graph
module Routing = Pr_core.Routing
module Cycle_table = Pr_core.Cycle_table
module Rng = Pr_util.Rng
module Fib = Pr_fastpath.Fib
module Delta = Pr_fastpath.Fib.Delta

let compile ?kind g rotation =
  Fib.of_tables_exn (Routing.build ?kind g) (Cycle_table.build rotation)

let paper_topologies () =
  List.map
    (fun topo -> (topo, Pr_embed.Geometric.of_topology topo))
    [
      Pr_topo.Abilene.topology ();
      Pr_topo.Geant.topology ();
      Pr_topo.Teleglobe.topology ();
    ]

(* ---- randomized edit sequences ----

   Valid by construction (the hardening tests poke the invalid shapes):
   each batch edits 1-3 distinct links, every edit changes the
   administrative state it applies to.  A live link goes down or takes a
   new weight; a down link comes up or takes a new weight while down.  A
   new weight is the current one scaled up or down by a dyadic factor, so
   unit and integer weights keep exact sums and exact ties. *)

let weight_factors = [| 0.5; 0.75; 1.5; 2.0 |]

let random_batch rng fib =
  let g = Fib.graph fib in
  let m = Graph.m g in
  let k = 1 + Rng.int rng 3 in
  let picks = Rng.sample_without_replacement rng ~k:(min k m) ~n:m in
  List.map
    (fun idx ->
      let e = Graph.edge g idx in
      let live = Fib.link_live fib ~u:e.Graph.u ~v:e.Graph.v in
      let change =
        if Rng.int rng 2 = 0 then if live then Delta.Down else Delta.Up
        else
          let cur = Fib.eff_weight fib ~u:e.Graph.u ~v:e.Graph.v in
          Delta.Weight
            (cur *. weight_factors.(Rng.int rng (Array.length weight_factors)))
      in
      { Delta.u = e.Graph.u; v = e.Graph.v; change })
    picks

(* One randomized sequence: apply [batches] batches incrementally and
   referee every intermediate image against its own full recompile. *)
let check_sequence rng fib ~batches =
  let cur = ref fib in
  for _ = 1 to batches do
    let batch = random_batch rng !cur in
    match Delta.apply !cur batch with
    | Error e -> Alcotest.fail (Delta.describe_error e)
    | Ok (next, stats) ->
        if not (Fib.equal next (Delta.recompile next)) then
          Alcotest.failf
            "incremental image diverged from full recompile (%s)"
            (Delta.describe_stats stats);
        cur := next
  done;
  !cur

(* [of_tables] reads the trees [Routing] built over the base graph;
   [Delta.recompile] runs its own SPF over a rebuilt effective graph.
   Both feed one fill, so this pins the trees and the structure they are
   handed, on both discriminator kinds, on geographically weighted Géant
   and on a BA n=200 instance whose hubs carry long LFA rows. *)
let test_recompile_base_identity () =
  let ba =
    Pr_topo.Generate.barabasi_albert (Rng.create ~seed:1) ~n:200 ~k:3
  in
  let weighted_geant = Pr_topo.Geant.weighted () in
  List.iter
    (fun (topo, rotation) ->
      List.iter
        (fun kind ->
          let fib = compile ~kind topo.Pr_topo.Topology.graph rotation in
          Alcotest.(check bool)
            (Printf.sprintf "recompile(base) = base on %s (%s)"
               topo.Pr_topo.Topology.name
               (Pr_core.Discriminator.to_string kind))
            true
            (Fib.equal fib (Delta.recompile fib)))
        [ Pr_core.Discriminator.Hops; Pr_core.Discriminator.Weighted ])
    (paper_topologies ()
    @ [
        (weighted_geant, Pr_embed.Geometric.of_topology weighted_geant);
        (ba, Pr_embed.Geometric.of_topology ba);
      ])

(* The acceptance-criteria harness: >= 100 randomized sequences across
   the three paper topologies, every intermediate image byte-equal to a
   full recompile. *)
let test_differential_paper_topologies () =
  let sequences_per_topology = 36 in
  List.iter
    (fun (topo, rotation) ->
      let fib = compile topo.Pr_topo.Topology.graph rotation in
      for seq = 0 to sequences_per_topology - 1 do
        let rng = Rng.create ~seed:(0xD1F + seq) in
        ignore (check_sequence rng fib ~batches:4 : Fib.t)
      done)
    (paper_topologies ())

let test_round_trip_returns_base_bytes () =
  List.iter
    (fun (topo, rotation) ->
      let g = topo.Pr_topo.Topology.graph in
      let fib = compile g rotation in
      let e = Graph.edge g 0 and f = Graph.edge g (Graph.m g - 1) in
      let base_w = e.Graph.w in
      let steps =
        [
          [ { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Down };
            { Delta.u = f.Graph.u; v = f.Graph.v; change = Delta.Weight 2.5 } ];
          [ { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Up } ];
          [ { Delta.u = f.Graph.u; v = f.Graph.v;
              change = Delta.Weight f.Graph.w } ];
          [ { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Weight 4.0 } ];
          [ { Delta.u = e.Graph.u; v = e.Graph.v;
              change = Delta.Weight base_w } ];
        ]
      in
      let final =
        List.fold_left
          (fun cur batch -> fst (Delta.apply_exn cur batch))
          fib steps
      in
      Alcotest.(check bool)
        ("edit round trip returns the base bytes on "
        ^ topo.Pr_topo.Topology.name)
        true (Fib.equal fib final))
    (paper_topologies ())

let test_edit_validation () =
  let topo, rotation = List.hd (paper_topologies ()) in
  let g = topo.Pr_topo.Topology.graph in
  let fib = compile g rotation in
  let e = Graph.edge g 0 in
  let edit change = { Delta.u = e.Graph.u; v = e.Graph.v; change } in
  let expect_error what = function
    | Error (_ : Delta.error) -> ()
    | Ok _ -> Alcotest.fail (what ^ " accepted")
  in
  expect_error "out-of-range node"
    (Delta.apply fib [ { Delta.u = -1; v = 0; change = Delta.Down } ]);
  expect_error "out-of-range node"
    (Delta.apply fib [ { Delta.u = 0; v = Graph.n g; change = Delta.Down } ]);
  (match
     Delta.apply fib [ { Delta.u = 0; v = 0; change = Delta.Down } ]
   with
  | Error (Delta.Unknown_link _) -> ()
  | _ -> Alcotest.fail "self loop not reported as unknown link");
  expect_error "duplicate edit"
    (Delta.apply fib [ edit Delta.Down; edit (Delta.Weight 2.0) ]);
  (match Delta.apply fib [ edit (Delta.Weight (-1.0)) ] with
  | Error (Delta.Bad_weight { weight; _ }) ->
      Alcotest.(check (float 0.0)) "weight in error" (-1.0) weight
  | _ -> Alcotest.fail "negative weight accepted");
  expect_error "non-finite weight"
    (Delta.apply fib [ edit (Delta.Weight Float.nan) ]);
  expect_error "redundant up" (Delta.apply fib [ edit Delta.Up ]);
  (match Delta.apply fib [ edit Delta.Down ] with
  | Ok (down, stats) ->
      Alcotest.(check bool) "one edit" true (stats.Delta.edits = 1);
      Alcotest.(check bool) "link now admin-down" false
        (Fib.link_live down ~u:e.Graph.u ~v:e.Graph.v);
      expect_error "redundant down" (Delta.apply down [ edit Delta.Down ]);
      Alcotest.(check (list (pair int int)))
        "admin_down lists the link"
        [ (e.Graph.u, e.Graph.v) ]
        (Fib.admin_down down)
  | Error err -> Alcotest.fail (Delta.describe_error err))

(* ---- the epoch store and the swapped kernel ---- *)

module Swap = Pr_fastpath.Swap
module Kernel = Pr_fastpath.Kernel
module Parallel = Pr_fastpath.Parallel
module Failure = Pr_core.Failure

let abilene_fib () =
  let topo = Pr_topo.Abilene.topology () in
  ( topo.Pr_topo.Topology.graph,
    compile topo.Pr_topo.Topology.graph (Pr_embed.Geometric.of_topology topo) )

let test_swap_store_lifecycle () =
  let g, fib = abilene_fib () in
  let swap = Swap.create fib in
  Alcotest.(check int) "base epoch" 0 (Swap.epoch swap);
  Alcotest.(check bool) "fresh store is quiescent" true (Swap.quiescent swap);
  let e0, pinned = Swap.pin swap in
  Alcotest.(check int) "pinned the base" 0 e0;
  Alcotest.(check bool) "pin returns the current image" true (pinned == fib);
  let e = Graph.edge g 0 in
  let next, _ =
    Delta.apply_exn fib
      [ { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Down } ]
  in
  let e1 = Swap.publish swap next in
  Alcotest.(check int) "publish returns the next epoch" 1 e1;
  Alcotest.(check bool) "current moved" true (Swap.current swap == next);
  let s = Swap.stats swap in
  Alcotest.(check bool) "pinned base still in grace period" true
    (s.Swap.live_pins = 1 && s.Swap.retired = 0);
  Swap.unpin swap ~epoch:0;
  let s = Swap.stats swap in
  Alcotest.(check bool) "last unpin retires the superseded epoch" true
    (s.Swap.live_pins = 0 && s.Swap.retired = 1);
  Alcotest.(check bool) "store drained" true (Swap.quiescent swap);
  (match Swap.pin_at swap ~epoch:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pinning a retired epoch must fail");
  (match Swap.unpin swap ~epoch:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbalanced unpin must fail");
  let other = Pr_topo.Geant.topology () in
  let foreign =
    compile other.Pr_topo.Topology.graph
      (Pr_embed.Geometric.of_topology other)
  in
  match Swap.publish swap foreign with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "publishing a foreign-geometry image must fail"

(* The grace-period edge cases the corruption campaign leans on: an
   epoch with several pins retires only at its *last* unpin, however the
   pins interleave with publishes, and a retired epoch rejects every
   further pin or unpin. *)
let test_swap_store_interleaved_pins () =
  let g, fib = abilene_fib () in
  let swap = Swap.create fib in
  let e0a, _ = Swap.pin swap in
  let e0b, _ = Swap.pin swap in
  Alcotest.(check (pair int int)) "both pins hit the base" (0, 0) (e0a, e0b);
  let e = Graph.edge g 0 in
  let next, _ =
    Delta.apply_exn fib
      [ { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Down } ]
  in
  ignore (Swap.publish swap next);
  let e1, _ = Swap.pin swap in
  Alcotest.(check int) "third pin lands on the new epoch" 1 e1;
  Swap.unpin swap ~epoch:0;
  let s = Swap.stats swap in
  Alcotest.(check bool) "first unpin does not retire (one pin left)" true
    (s.Swap.retired = 0 && s.Swap.live_pins = 2);
  (* The superseded epoch is still pinned, so it must still be
     reachable for deterministic-schedule readers. *)
  ignore (Swap.pin_at swap ~epoch:0);
  Swap.unpin swap ~epoch:0;
  Swap.unpin swap ~epoch:0;
  let s = Swap.stats swap in
  Alcotest.(check int) "last unpin retires the epoch" 1 s.Swap.retired;
  (match Swap.unpin swap ~epoch:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unpinning a retired epoch must fail");
  (match Swap.pin_at swap ~epoch:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pinning a retired epoch must fail");
  Swap.unpin swap ~epoch:1;
  Alcotest.(check bool) "store drains to quiescence" true
    (Swap.quiescent swap)

(* A retired epoch lets go of its image: once the last pin on a
   superseded epoch drops, nothing in the store keeps the image alive,
   so a long swap session holds only the images still in use.  The
   store is built in its own frame so that only the store can keep the
   base image reachable. *)
let[@inline never] store_past_retired_base weak =
  let g, base = abilene_fib () in
  Weak.set weak 0 (Some base);
  let swap = Swap.create base in
  let e0, _ = Swap.pin swap in
  let e = Graph.edge g 0 in
  let next, _ =
    Delta.apply_exn base
      [ { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Down } ]
  in
  ignore (Swap.publish swap next);
  Swap.unpin swap ~epoch:e0;
  swap

let test_swap_store_releases_retired () =
  let weak = Weak.create 1 in
  let swap = store_past_retired_base weak in
  Gc.full_major ();
  Alcotest.(check bool) "retired image collected" false (Weak.check weak 0);
  let s = Swap.stats swap in
  Alcotest.(check bool) "accounting unchanged" true
    (s.Swap.published = 2 && s.Swap.retired = 1 && Swap.quiescent swap)

(* Geometry mismatches are caught per dimension, not just for whole
   foreign topologies: an image compiled over the same graph but a
   different port width must be rejected. *)
let test_swap_store_geometry_mismatch () =
  let g, fib = abilene_fib () in
  let swap = Swap.create fib in
  let rotation = Pr_embed.Geometric.of_topology (Pr_topo.Abilene.topology ()) in
  let wide =
    Fib.of_tables_exn
      ~ports:(Graph.max_degree g + 1)
      (Routing.build g) (Cycle_table.build rotation)
  in
  match Swap.publish swap wide with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "publishing a wider-port image must fail"

(* A kernel rebound to an image forwards exactly like a kernel created
   on it. *)
let all_pairs g =
  let n = Graph.n g in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst -> if src <> dst then Some (src, dst) else None)
        (List.init n Fun.id))
    (List.init n Fun.id)

let counters_on kernel g ~failed =
  Kernel.set_failures kernel (Failure.of_list g failed);
  let c = Kernel.fresh_counters () in
  List.iter
    (fun (src, dst) ->
      if Failure.pair_connected (Failure.of_list g failed) src dst then
        Kernel.forward_into kernel c ~src ~dst)
    (all_pairs g);
  c

let test_rebind_equivalence () =
  let g, fib = abilene_fib () in
  let e = Graph.edge g 1 and f = Graph.edge g 3 in
  let next, _ =
    Delta.apply_exn fib
      [
        { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Weight 3.0 };
        { Delta.u = f.Graph.u; v = f.Graph.v; change = Delta.Down };
      ]
  in
  let fresh = Kernel.create next in
  let rebound = Kernel.create fib in
  Kernel.rebind rebound next;
  let failed = [ (Graph.edge g 5).Graph.u, (Graph.edge g 5).Graph.v ] in
  let failed = List.map (fun (u, v) -> (u, v)) failed in
  Alcotest.(check bool) "rebound kernel = fresh kernel" true
    (Kernel.equal_counters
       (counters_on fresh g ~failed)
       (counters_on rebound g ~failed))

(* An administratively down link is invisible: routing avoids it, the
   plane masks it, and a failure-free sweep stays on the fault-free fast
   path end to end. *)
let test_admin_down_is_masked () =
  let g, fib = abilene_fib () in
  let e = Graph.edge g 0 in
  let next, _ =
    Delta.apply_exn fib
      [ { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Down } ]
  in
  let kernel = Kernel.create next in
  Alcotest.(check bool) "a new kernel starts with the link down" false
    (Kernel.believed_up kernel ~node:e.Graph.u ~other:e.Graph.v);
  Kernel.set_believed kernel ~node:e.Graph.u ~other:e.Graph.v ~up:true;
  Alcotest.(check bool) "belief cannot override the admin plane" false
    (Kernel.believed_up kernel ~node:e.Graph.u ~other:e.Graph.v);
  let c = counters_on kernel g ~failed:[] in
  Alcotest.(check bool)
    "failure-free sweep on the edited image: all delivered, no recycling"
    true
    (c.Kernel.delivered = c.Kernel.injected
    && c.Kernel.dropped = 0 && c.Kernel.pr_episodes = 0
    && c.Kernel.failure_hits = 0)

(* The determinism pin the issue asks for: the domain count is the swap
   timing (workers race the store's pins and rebinds), and it must not
   change a single verdict bit. *)
let test_run_swapped_determinism () =
  let g, fib = abilene_fib () in
  let items = Parallel.all_pairs_single_failures fib in
  let e = Graph.edge g 2 and f = Graph.edge g 4 in
  let stage1, _ =
    Delta.apply_exn fib
      [ { Delta.u = e.Graph.u; v = e.Graph.v; change = Delta.Weight 2.5 } ]
  in
  let stage2, _ =
    Delta.apply_exn stage1
      [ { Delta.u = f.Graph.u; v = f.Graph.v; change = Delta.Down } ]
  in
  let schedule = [ (3, stage1); (8, stage2) ] in
  let run domains =
    Parallel.run_swapped ~domains ~seed:7 ~schedule fib items
  in
  let c1, s1 = run 1 in
  let c2, s2 = run 2 in
  let c4, s4 = run 4 in
  Alcotest.(check bool) "domains 2 = domains 1" true
    (Kernel.equal_counters c1 c2);
  Alcotest.(check bool) "domains 4 = domains 1" true
    (Kernel.equal_counters c1 c4);
  List.iter
    (fun (s : Swap.stats) ->
      Alcotest.(check bool)
        "store drained: every superseded epoch retired, no pins leaked" true
        (s.Swap.live_pins = 0
        && s.Swap.published = 3
        && s.Swap.retired = 2
        && s.Swap.current_epoch = 2))
    [ s1; s2; s4 ];
  match Parallel.run_swapped ~seed:7 ~schedule:[ (8, stage2); (3, stage1) ] fib
          items
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted schedule must be rejected"

(* ---- the simulators under a live control plane ---- *)

module Engine = Pr_sim.Engine
module Workload = Pr_sim.Workload
module Campaign = Pr_chaos.Campaign
module Monitor = Pr_chaos.Monitor
module Gen = Pr_chaos.Gen

let control_outcome topo rotation ~backend =
  let g = topo.Pr_topo.Topology.graph in
  let rng = Rng.create ~seed:0xC0DE in
  let link_events = Gen.swap_storm (Rng.copy rng) topo ~horizon:40.0 () in
  let injections =
    Workload.poisson_flows (Rng.copy rng) g ~rate:25.0 ~horizon:40.0
  in
  Engine.run_exn ~backend ~control:Engine.default_control
    {
      Engine.topology = topo;
      rotation;
      scheme =
        Engine.Pr_scheme { termination = Pr_core.Forward.Distance_discriminator };
    }
    ~link_events ~injections

(* Reference rebuilds, compiled delta-recompiles and hot-swaps — the
   whole outcome (verdicts, stretch, epoch and SPF ledgers) must still
   be identical on the paper topologies. *)
let test_engine_control_backends_agree () =
  List.iter
    (fun (topo, rotation) ->
      let name = topo.Pr_topo.Topology.name in
      let a = control_outcome topo rotation ~backend:`Reference in
      let b = control_outcome topo rotation ~backend:`Compiled in
      Alcotest.(check bool)
        (name ^ ": the storm published at least one epoch")
        true
        (a.Engine.epochs > 0);
      Alcotest.(check string)
        (name ^ ": metrics identical across backends")
        (Format.asprintf "%a" Pr_sim.Metrics.pp a.Engine.metrics)
        (Format.asprintf "%a" Pr_sim.Metrics.pp b.Engine.metrics);
      Alcotest.(check bool)
        (name ^ ": full outcome identical across backends")
        true (a = b))
    (paper_topologies ())

(* The acceptance invariant: a swap-storm campaign with the online
   monitor armed reports zero swap-attributed losses on both backends —
   connected packets survive every hot swap. *)
let test_swap_storm_campaign_zero_loss () =
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  List.iter
    (fun backend ->
      let config =
        {
          (Campaign.default_config topo rotation ~seed:11) with
          Campaign.mix = [ Gen.Swap_storm ];
          rate = 10.0;
          control = Some Engine.default_control;
          schemes =
            [
              Engine.Pr_scheme
                { termination = Pr_core.Forward.Distance_discriminator };
            ];
          backend;
        }
      in
      match Campaign.run config with
      | Error e -> Alcotest.fail e
      | Ok t ->
          List.iter
            (fun (r : Campaign.scheme_result) ->
              let tag what =
                Printf.sprintf "%s: %s" (Engine.backend_name backend) what
              in
              Alcotest.(check bool)
                (tag "the storm published at least one epoch")
                true
                (r.Campaign.outcome.Engine.epochs > 0);
              Alcotest.(check int)
                (tag "zero swap-attributed losses")
                0
                (Monitor.count r.Campaign.monitor "swap");
              Alcotest.(check int)
                (tag "zero violations of any kind")
                0
                (Monitor.total r.Campaign.monitor))
            t.Campaign.results)
    [ `Reference; `Compiled ]

(* The hop-level simulator reconciles too: a swap storm with control on
   publishes epochs and the §7 monitors stay quiet. *)
let test_timed_control_swaps () =
  let topo = Pr_topo.Abilene.topology () in
  let rotation = Pr_embed.Geometric.of_topology topo in
  let g = topo.Pr_topo.Topology.graph in
  let rng = Rng.create ~seed:0xBEEF in
  let link_events = Gen.swap_storm (Rng.copy rng) topo ~horizon:30.0 () in
  let injections =
    Workload.poisson_flows (Rng.copy rng) g ~rate:15.0 ~horizon:30.0
  in
  let module Timed = Pr_sim.Timed in
  let config =
    {
      (Timed.default_config topo rotation) with
      Timed.control = Some Engine.default_control;
    }
  in
  let outcome = Timed.run config ~link_events ~injections in
  Alcotest.(check bool) "the storm published at least one epoch" true
    (outcome.Timed.epochs > 0);
  Alcotest.(check int) "every injection is accounted"
    (List.length injections)
    outcome.Timed.metrics.Pr_sim.Metrics.injected;
  let base = Timed.run { config with Timed.control = None } ~link_events
      ~injections
  in
  Alcotest.(check int) "control off publishes nothing" 0 base.Timed.epochs

(* ---- QCheck: edits commute with full recompile ---- *)

(* The instance a property case draws, by family:
   - 0: BA with n 30-150 and k 1-3, unit weights.  Ties are exact, and at
     k = 1 every Down cuts a bridge, so whole subtrees become unreachable;
   - 1: Waxman with n 30-150 and Euclidean weights.  Under [Hops] a
     re-parented node's hop count can move while its distance stays, and
     its children's hop counts must follow;
   - 2, 3: weighted Géant and Abilene (great-circle kilometres). *)
let instance family seed =
  let rng = Rng.create ~seed in
  let n = 30 + Rng.int rng 121 in
  match family with
  | 0 -> Pr_topo.Generate.barabasi_albert rng ~n ~k:(1 + Rng.int rng 3)
  | 1 ->
      Pr_topo.Generate.waxman rng ~n
        ~alpha:(Float.min 1.0 (50.0 /. float_of_int n))
        ~beta:0.15
  | 2 -> Pr_topo.Geant.weighted ()
  | _ -> Pr_topo.Abilene.weighted ()

(* An arbitrary sequence of valid batches lands, image by image, on the
   bytes of a full recompile; and an interleaving of single edits lands
   on the same bytes as those edits grouped into one mergeable batch
   when they touch distinct links.  The DD kind is drawn too. *)
let qcheck_commute =
  QCheck.Test.make ~name:"edit interleavings commute with full recompile"
    ~count:60
    QCheck.(
      quad (Helpers.int_range 0 3) (int_bound 1_000_000) bool
        (Helpers.int_range 1 8))
    (fun (family, seed, weighted, edits) ->
      let topo = instance family seed in
      let g = topo.Pr_topo.Topology.graph in
      let kind =
        if weighted then Pr_core.Discriminator.Weighted
        else Pr_core.Discriminator.Hops
      in
      let fib = compile ~kind g (Pr_embed.Geometric.of_topology topo) in
      let rng = Rng.create ~seed in
      (* Batches of 1-3 edits, every image refereed. *)
      let cur = ref fib and ok_batches = ref true in
      for _ = 1 to edits do
        match Delta.apply !cur (random_batch rng !cur) with
        | Ok (next, _) ->
            if not (Fib.equal next (Delta.recompile next)) then
              ok_batches := false;
            cur := next
        | Error e -> QCheck.Test.fail_report (Delta.describe_error e)
      done;
      (* Single edits one at a time, then as one batch. *)
      let cur = ref fib in
      let applied = ref [] in
      for _ = 1 to edits do
        match random_batch rng !cur with
        | [] -> ()
        | edit :: _ ->
            let next, _ = Delta.apply_exn !cur [ edit ] in
            applied := edit :: !applied;
            cur := next
      done;
      let ok_recompile = Fib.equal !cur (Delta.recompile !cur) in
      (* Where the edits all touch distinct links, the whole history is
         one mergeable batch and must land on the same bytes. *)
      let distinct =
        let seen = Hashtbl.create 8 in
        List.for_all
          (fun (e : Delta.edit) ->
            let idx = Graph.edge_index g e.Delta.u e.Delta.v in
            if Hashtbl.mem seen idx then false
            else begin
              Hashtbl.add seen idx ();
              true
            end)
          !applied
      in
      let ok_batch =
        (not distinct)
        ||
        match Delta.apply fib (List.rev !applied) with
        | Ok (batched, _) -> Fib.equal batched !cur
        | Error (Delta.Redundant_edit _) ->
            (* A batch member can be redundant against the base state
               (e.g. re-setting a weight the base already had) even
               though it was not redundant mid-sequence. *)
            true
        | Error e -> QCheck.Test.fail_report (Delta.describe_error e)
      in
      !ok_batches && ok_recompile && ok_batch)

(* The batch that moves the most: every link of a BA n = 200 hub down in
   one batch, then up in one batch, on both DD kinds.  Each image is
   refereed, and coming back up returns the base image's exact bytes. *)
let test_hub_down_up_returns_base () =
  let topo =
    Pr_topo.Generate.barabasi_albert (Rng.create ~seed:1) ~n:200 ~k:3
  in
  let g = topo.Pr_topo.Topology.graph in
  let hub = ref 0 in
  for x = 1 to Graph.n g - 1 do
    if Graph.degree g x > Graph.degree g !hub then hub := x
  done;
  let batch change =
    Array.to_list
      (Array.map
         (fun w -> { Delta.u = !hub; v = w; change })
         (Graph.neighbours g !hub))
  in
  let rotation = Pr_embed.Geometric.of_topology topo in
  List.iter
    (fun kind ->
      let name = Pr_core.Discriminator.to_string kind in
      let fib = compile ~kind g rotation in
      let down, _ = Delta.apply_exn fib (batch Delta.Down) in
      Alcotest.(check bool) (name ^ ": hub down = recompile") true
        (Fib.equal down (Delta.recompile down));
      let up, _ = Delta.apply_exn down (batch Delta.Up) in
      Alcotest.(check bool) (name ^ ": hub up = recompile") true
        (Fib.equal up (Delta.recompile up));
      Alcotest.(check bool) (name ^ ": hub up = base") true (Fib.equal fib up))
    [ Pr_core.Discriminator.Hops; Pr_core.Discriminator.Weighted ]

let suite =
  [
    Alcotest.test_case "recompile of the base image is the base image" `Quick
      test_recompile_base_identity;
    Alcotest.test_case
      "differential: incremental = full recompile on the paper topologies"
      `Slow test_differential_paper_topologies;
    Alcotest.test_case "an edit round trip returns the base bytes" `Quick
      test_round_trip_returns_base_bytes;
    Alcotest.test_case "a BA hub's links down and up return the base bytes"
      `Quick test_hub_down_up_returns_base;
    Alcotest.test_case "edit validation: typed errors with loci" `Quick
      test_edit_validation;
    Alcotest.test_case "epoch store: publish, pin, grace-period retire" `Quick
      test_swap_store_lifecycle;
    Alcotest.test_case "epoch store: interleaved pins retire in order" `Quick
      test_swap_store_interleaved_pins;
    Alcotest.test_case "epoch store: a retired image is released" `Quick
      test_swap_store_releases_retired;
    Alcotest.test_case "epoch store: port-width mismatch is rejected" `Quick
      test_swap_store_geometry_mismatch;
    Alcotest.test_case "rebound kernel forwards like a fresh one" `Quick
      test_rebind_equivalence;
    Alcotest.test_case "admin-down links are masked and routed around" `Quick
      test_admin_down_is_masked;
    Alcotest.test_case "swap timing never changes verdicts (domains 1/2/4)"
      `Quick test_run_swapped_determinism;
    Alcotest.test_case "engine control: backends agree on the paper topologies"
      `Slow test_engine_control_backends_agree;
    Alcotest.test_case "swap-storm campaign: zero swap-attributed losses"
      `Slow test_swap_storm_campaign_zero_loss;
    Alcotest.test_case "timed simulator reconciles mid-flight" `Quick
      test_timed_control_swaps;
    QCheck_alcotest.to_alcotest qcheck_commute;
  ]
