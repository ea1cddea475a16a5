module Graph = Pr_graph.Graph
module Forward = Pr_core.Forward
module Fib = Pr_fastpath.Fib
module Kernel = Pr_fastpath.Kernel
module Swap = Pr_fastpath.Swap
module Journal = Pr_fastpath.Journal
module Rng = Pr_util.Rng

type config = {
  topology : Pr_topo.Topology.t;
  rotation : Pr_embed.Rotation.t;
  seed : int;
  events : int;    (* corruption descriptors to draw *)
  sweep : int;     (* packets swept across each damaged image *)
  batches : int;   (* journalled edit batches per crash point *)
  shortcut : int option;  (* deja-vu hint width armed on every walk *)
}

let default_config topology rotation ~seed =
  {
    topology;
    rotation;
    seed;
    events = 96;
    sweep = 64;
    batches = 6;
    shortcut = None;
  }

type violation = { event : string; detail : string }

type t = {
  injected : int;
  delivered : int;
  accounted : int;   (* accounted drops plus TTL expiries *)
  faults : (string * int) list;  (* Forward.fault_name -> count *)
  crash_recoveries : int;
  stale_reads : int;
  violations : violation list;
}

(* ---- bookkeeping ---- *)

type state = {
  mutable s_injected : int;
  mutable s_delivered : int;
  mutable s_accounted : int;
  fault_counts : (string, int) Hashtbl.t;
  mutable s_crashes : int;
  mutable s_stale : int;
  mutable viol_rev : violation list;
}

let violate st ~event fmt =
  Printf.ksprintf
    (fun detail -> st.viol_rev <- { event; detail } :: st.viol_rev)
    fmt

let count_fault st = function
  | None -> ()
  | Some f ->
      let name = Forward.fault_name f in
      Hashtbl.replace st.fault_counts name
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.fault_counts name))

(* Every verdict of a guarded walk is ledger-closed: delivered, or an
   accounted drop, or a TTL expiry (the loop is itself the account).
   Reaching this function at all means no exception escaped. *)
let account st ~outcome ~fault =
  st.s_injected <- st.s_injected + 1;
  count_fault st fault;
  match (outcome : Forward.outcome) with
  | Forward.Delivered -> st.s_delivered <- st.s_delivered + 1
  | Forward.Dropped_no_interface | Forward.Dropped_unreachable
  | Forward.Dropped_corrupt | Forward.Ttl_exceeded ->
      st.s_accounted <- st.s_accounted + 1

let outcome_name = function
  | Forward.Delivered -> "delivered"
  | Forward.Dropped_no_interface -> "dropped-no-interface"
  | Forward.Dropped_unreachable -> "dropped-unreachable"
  | Forward.Dropped_corrupt -> "dropped-corrupt"
  | Forward.Ttl_exceeded -> "ttl-exceeded"

let fault_opt_name = function None -> "-" | Some f -> Forward.fault_name f

(* ---- header corruption: both backends, verdicts must agree ---- *)

(* Run one possibly-corrupt injected header through the guarded reference
   walk and the guarded kernel; any uncaught exception or verdict/fault
   disagreement is a violation. *)
let differential st ~event ~routing ~cycles ~failures ~dd_bits ~sc_plan kernel
    ~header ~arrived_from ~src ~dst =
  let ref_verdict =
    match
      Forward.run_guarded ~dd_bits ?shortcut:sc_plan ?header ?arrived_from
        ~routing ~cycles ~failures ~src ~dst ()
    with
    | g -> Ok (g.Forward.trace.Forward.outcome, g.Forward.fault)
    | exception e -> Error (Printexc.to_string e)
  in
  let ker_verdict =
    match Kernel.run_one ~dd_bits ?header ?arrived_from kernel ~src ~dst with
    | r -> Ok (r.Kernel.outcome, r.Kernel.fault)
    | exception e -> Error (Printexc.to_string e)
  in
  match (ref_verdict, ker_verdict) with
  | Error e, _ -> violate st ~event "reference backend raised: %s" e
  | _, Error e -> violate st ~event "compiled backend raised: %s" e
  | Ok (ro, rf), Ok (ko, kf) ->
      if ro <> ko || fault_opt_name rf <> fault_opt_name kf then
        violate st ~event "backends disagree: reference %s/%s, compiled %s/%s"
          (outcome_name ro) (fault_opt_name rf) (outcome_name ko)
          (fault_opt_name kf)
      else account st ~outcome:ro ~fault:rf

(* ---- FIB-cell damage: compiled backend, delivered-or-accounted ---- *)

(* A damage table's cell count and cell writer.  The next-hop plane's
   cells are numbered [node * n + dst] although it is stored by
   destination. *)
let table_of fib =
  let flat a = Some (Array.length a, fun i v -> a.(i) <- v) in
  function
  | "port_node" -> flat (Fib.raw_port_node fib)
  | "twin" -> flat (Fib.raw_twin fib)
  | "next_hop_port" ->
      let cols = Fib.raw_next_hop_port fib and n = Fib.n fib in
      Some (n * n, fun i v -> cols.(i mod n).(i / n) <- v)
  | "cycle_col" -> flat (Fib.raw_cycle_col fib)
  | _ -> None

let cell_damage st ~event ~base ~dd_bits ~shortcut ~failures rng ~sweep ~table
    ~slot ~value =
  (* The scratch image comes from a codec round-trip: a decoded image
     shares no array with [base] (Delta.recompile shares structure), so
     its cells can be damaged in place without touching the original. *)
  match Fib.Codec.decode ~base (Fib.Codec.encode base) with
  | Error m -> violate st ~event "scratch codec round-trip failed: %s" m
  | Ok scratch -> (
      match table_of scratch table with
      | None -> violate st ~event "unknown damage table %s" table
      | Some (0, _) -> ()
      | Some (cells, set) ->
          let slot = slot mod cells in
          set slot value;
          let k = Kernel.create scratch in
          Kernel.set_guard k true;
          Kernel.set_failures k failures;
          Kernel.set_shortcut k shortcut;
          let n = Fib.n scratch in
          for _ = 1 to sweep do
            let src = Rng.int rng n in
            let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
            match Kernel.run_one ~dd_bits k ~src ~dst with
            | r -> account st ~outcome:r.Kernel.outcome ~fault:r.Kernel.fault
            | exception e ->
                violate st ~event
                  "guarded kernel raised on damaged %s[%d]=%d (%d -> %d): %s"
                  table slot value src dst (Printexc.to_string e)
          done)

(* ---- stale-epoch reads ---- *)

let stale_read st ~event ~base ~dd_bits ~shortcut ~failures rng ~src ~dst =
  let store = Swap.create base in
  let old_epoch, old_image = Swap.pin store in
  (* Publish a successor (one random live link administratively down) so
     the pinned read below really is against a superseded epoch. *)
  let g = Fib.graph base in
  let e = Graph.edge g (Rng.int rng (Graph.m g)) in
  (match
     Fib.Delta.apply base
       [ { Fib.Delta.u = e.Graph.u; v = e.Graph.v; change = Fib.Delta.Down } ]
   with
  | Error err ->
      violate st ~event "delta apply failed: %s" (Fib.Delta.describe_error err)
  | Ok (next, _) ->
      ignore (Swap.publish store next);
      let k = Kernel.create old_image in
      Kernel.set_guard k true;
      Kernel.set_failures k failures;
      Kernel.set_shortcut k shortcut;
      (match Kernel.run_one ~dd_bits k ~src ~dst with
      | r ->
          st.s_stale <- st.s_stale + 1;
          account st ~outcome:r.Kernel.outcome ~fault:r.Kernel.fault
      | exception ex ->
          violate st ~event "stale-epoch read raised: %s"
            (Printexc.to_string ex));
      let stats_before = Swap.stats store in
      if stats_before.Swap.retired <> 0 then
        violate st ~event "epoch %d retired while still pinned" old_epoch;
      Swap.unpin store ~epoch:old_epoch;
      let stats_after = Swap.stats store in
      if stats_after.Swap.retired <> 1 then
        violate st ~event "epoch %d failed to retire after last unpin"
          old_epoch;
      if not (Swap.quiescent store) then
        violate st ~event "swap store not quiescent after unpin")

(* ---- crash points and journaled recovery ---- *)

(* One non-redundant administrative edit against the tracked admin
   state. *)
let random_edit rng g ~live ~eff =
  let i = Rng.int rng (Graph.m g) in
  let e = Graph.edge g i in
  if not live.(i) then begin
    live.(i) <- true;
    { Fib.Delta.u = e.Graph.u; v = e.Graph.v; change = Fib.Delta.Up }
  end
  else if Rng.int rng 3 = 0 then begin
    live.(i) <- false;
    { Fib.Delta.u = e.Graph.u; v = e.Graph.v; change = Fib.Delta.Down }
  end
  else begin
    let w = eff.(i) +. 1.0 +. Rng.float rng 4.0 in
    eff.(i) <- w;
    { Fib.Delta.u = e.Graph.u; v = e.Graph.v; change = Fib.Delta.Weight w }
  end

let crash_point st ~event ~base rng ~batches ~after_batch =
  let after_batch = after_batch mod batches in
  let path = Filename.temp_file "prcorrupt" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Journal.writer path with
      | Error m -> violate st ~event "journal open failed: %s" m
      | Ok w ->
          Journal.log_checkpoint w ~seq:0 base;
          let g = Fib.graph base in
          let live = Array.map Fun.id (Fib.raw_live base) in
          let eff =
            Array.init (Graph.m g) (fun i -> (Graph.edge g i).Graph.w)
          in
          let image = ref base in
          let crashed = ref false in
          (try
             for b = 1 to batches do
               if not !crashed then begin
                 let edit = random_edit rng g ~live ~eff in
                 Journal.log_batch w ~seq:b [ edit ];
                 (match Fib.Delta.apply !image [ edit ] with
                 | Error err ->
                     violate st ~event "batch %d rejected: %s" b
                       (Fib.Delta.describe_error err);
                     raise Exit
                 | Ok (next, _) ->
                     image := next;
                     (* The crash window: the batch is journalled and
                        applied, the publish (and its commit marker)
                        never happens. *)
                     if b = after_batch + 1 then crashed := true
                     else Journal.log_commit w ~seq:b)
               end
             done
           with Exit -> ());
          Journal.close w;
          st.s_injected <- st.s_injected + 1;
          (match Journal.recover ~base path with
          | Error m -> violate st ~event "recovery failed: %s" m
          | Ok r ->
              st.s_crashes <- st.s_crashes + 1;
              if not (Fib.equal r.Journal.image !image) then
                violate st ~event
                  "recovered image differs from the journalled topology";
              (* The headline invariant: recovery lands byte-equal to a
                 cold full recompile of the final effective topology. *)
              if not (Fib.equal r.Journal.image (Fib.Delta.recompile !image))
              then
                violate st ~event
                  "recovered image differs from a full recompile";
              if !crashed && r.Journal.uncommitted <> 1 then
                violate st ~event "expected 1 uncommitted batch, found %d"
                  r.Journal.uncommitted);
          (* A torn tail — the legal crash artefact — must not change the
             recovery. *)
          let oc = open_out_gen [ Open_append ] 0o644 path in
          output_string oc "batch 999 0,1,down #deadbeef";
          close_out oc;
          match Journal.recover ~base path with
          | Error m -> violate st ~event "torn-tail recovery failed: %s" m
          | Ok r ->
              if not r.Journal.torn_tail then
                violate st ~event "torn tail not flagged";
              if not (Fib.equal r.Journal.image !image) then
                violate st ~event "torn tail changed the recovered image")

(* ---- the campaign ---- *)

let run config =
  let g = config.topology.Pr_topo.Topology.graph in
  if Graph.n g < 2 then Error "corruption campaign needs at least two nodes"
  else begin
    let routing = Pr_core.Routing.build g in
    let cycles = Pr_core.Cycle_table.build config.rotation in
    match Fib.of_tables ~ports:(Graph.max_degree g) routing cycles with
    | Error e -> Error (Fib.describe_error e)
    | Ok base ->
        let dd_bits = Pr_core.Routing.dd_bits routing in
        let failures = Pr_core.Failure.none g in
        let sc_plan =
          Option.map
            (fun w -> Pr_core.Seen.plan ~nodes:(Graph.n g) ~width:w)
            config.shortcut
        in
        let kernel = Kernel.create base in
        Kernel.set_guard kernel true;
        Kernel.set_failures kernel failures;
        Kernel.set_shortcut kernel config.shortcut;
        let rng = Rng.create ~seed:config.seed in
        let storm =
          Gen.corrupt_storm (Rng.copy rng) config.topology
            ~events:config.events ()
        in
        let st =
          {
            s_injected = 0;
            s_delivered = 0;
            s_accounted = 0;
            fault_counts = Hashtbl.create 8;
            s_crashes = 0;
            s_stale = 0;
            viol_rev = [];
          }
        in
        List.iter
          (fun c ->
            let event = Gen.describe_corruption c in
            match c with
            | Gen.Flip_field { src; dst; field } -> (
                match Forward.inject_of_field ~dd_bits field with
                | Error f ->
                    (* Undecodable wire bytes never reach a walk: the
                       shared decode is the verdict for both backends. *)
                    st.s_injected <- st.s_injected + 1;
                    st.s_accounted <- st.s_accounted + 1;
                    count_fault st (Some f)
                | Ok header ->
                    differential st ~event ~routing ~cycles ~failures ~dd_bits
                      ~sc_plan kernel ~header:(Some header) ~arrived_from:None
                      ~src ~dst)
            | Gen.Raw_header { src; dst; dd } ->
                differential st ~event ~routing ~cycles ~failures ~dd_bits
                  ~sc_plan kernel
                  ~header:(Some { Forward.pr_bit = true; dd_value = dd })
                  ~arrived_from:None ~src ~dst
            | Gen.Claim_from { src; dst; from_ } ->
                differential st ~event ~routing ~cycles ~failures ~dd_bits
                  ~sc_plan kernel
                  ~header:(Some { Forward.pr_bit = true; dd_value = 1.0 })
                  ~arrived_from:(Some from_) ~src ~dst
            | Gen.Cell_damage { table; slot; value } ->
                cell_damage st ~event ~base ~dd_bits ~shortcut:config.shortcut
                  ~failures rng ~sweep:config.sweep ~table ~slot ~value
            | Gen.Stale_read { src; dst } ->
                stale_read st ~event ~base ~dd_bits ~shortcut:config.shortcut
                  ~failures rng ~src ~dst
            | Gen.Crash_point { after_batch } ->
                crash_point st ~event ~base rng ~batches:config.batches
                  ~after_batch)
          storm;
        let faults =
          List.filter_map
            (fun name ->
              Option.map (fun c -> (name, c))
                (Hashtbl.find_opt st.fault_counts name))
            [ "bad-field"; "impossible-dd"; "not-neighbour"; "corrupt-cell";
              "walk-blowup" ]
        in
        Ok
          {
            injected = st.s_injected;
            delivered = st.s_delivered;
            accounted = st.s_accounted;
            faults;
            crash_recoveries = st.s_crashes;
            stale_reads = st.s_stale;
            violations = List.rev st.viol_rev;
          }
  end

let passed t = t.violations = []

let report config t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "corruption campaign: %s, seed %d, %d event(s)%s\n"
    config.topology.Pr_topo.Topology.name config.seed config.events
    (match config.shortcut with
    | None -> ""
    | Some w -> Printf.sprintf ", shortcut width %d" w);
  Printf.bprintf buf
    "  %d walk(s): %d delivered, %d accounted (drop or TTL), 0 uncaught\n"
    (t.delivered + t.accounted) t.delivered t.accounted;
  if t.faults <> [] then begin
    Buffer.add_string buf "  faults:";
    List.iter
      (fun (name, c) -> Printf.bprintf buf " %s=%d" name c)
      t.faults;
    Buffer.add_char buf '\n'
  end;
  Printf.bprintf buf
    "  %d crash recover(ies) byte-equal to full recompile, %d stale-epoch \
     read(s)\n"
    t.crash_recoveries t.stale_reads;
  (match t.violations with
  | [] -> Buffer.add_string buf "  invariants: all hold\n"
  | vs ->
      Printf.bprintf buf "  INVARIANT VIOLATIONS (%d):\n" (List.length vs);
      List.iter
        (fun v -> Printf.bprintf buf "    [%s] %s\n" v.event v.detail)
        vs);
  Buffer.contents buf

(* A replayable artifact for a failed run: `#` comment lines (the
   scenario parser's comment syntax) carrying the config and every
   violation — rerunning `prcli chaos --corrupt` with the recorded
   topology/seed reproduces the campaign deterministically. *)
let repro config t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "# corruption campaign violation artifact\n";
  Printf.bprintf buf
    "# reproduce: prcli chaos %s --corrupt --seed %d --corrupt-events %d%s\n"
    config.topology.Pr_topo.Topology.name config.seed config.events
    (match config.shortcut with
    | None -> ""
    | Some w -> Printf.sprintf " --shortcut %d" w);
  List.iter
    (fun v -> Printf.bprintf buf "# violation: [%s] %s\n" v.event v.detail)
    t.violations;
  Buffer.contents buf
