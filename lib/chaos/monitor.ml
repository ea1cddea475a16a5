module Graph = Pr_graph.Graph
module Engine = Pr_sim.Engine
module Timed = Pr_sim.Timed
module Forward = Pr_core.Forward
module Trace = Pr_telemetry.Trace

type violation = {
  monitor : string;
  time : float;
  src : int;
  dst : int;
  detail : string;
  trace : string option;
}

(* ["swap"] is appended last so per-monitor count orderings (and the
   report layout) of pre-control campaigns are unchanged. *)
let monitor_names =
  [ "delivery"; "loop"; "dd-width"; "hold-down"; "detection"; "swap" ]

(* Per-packet cycle-following state for the timed hold-down monitor. *)
type flight = { mutable seen_down : (int * int) list }

type t = {
  routing : Pr_core.Routing.t;
  cycles : Pr_core.Cycle_table.t;
  termination : Pr_core.Forward.termination;
  detection : Pr_sim.Detector.config option;
  control : bool;
  max_recorded : int;
  counts : (string, int) Hashtbl.t;
  mutable recorded_rev : violation list;
  mutable recorded_n : int;
  mutable excused_n : int;
  mutable swap_epoch : int;
  mutable swap_admin : (int * int) list;
  flights : (int, flight) Hashtbl.t;
}

let create ?(max_recorded = 32) ?detection ?(control = false) ~routing ~cycles
    ~termination () =
  {
    routing;
    cycles;
    termination;
    detection;
    control;
    max_recorded;
    counts = Hashtbl.create 8;
    recorded_rev = [];
    recorded_n = 0;
    excused_n = 0;
    swap_epoch = 0;
    swap_admin = [];
    flights = Hashtbl.create 64;
  }

let record ?trace t monitor ~time ~src ~dst detail =
  Hashtbl.replace t.counts monitor
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts monitor));
  if t.recorded_n < t.max_recorded then begin
    t.recorded_rev <-
      { monitor; time; src; dst; detail; trace } :: t.recorded_rev;
    t.recorded_n <- t.recorded_n + 1
  end

(* Re-run the offending packet through the reference walk with a ring
   sink attached and render the hop trace — the flight recording filed
   with delivery/loop violations.  Truth-based, so only sound without a
   detection config (where the engine walks the frozen failure set with
   no view, exactly [Forward.run]) and without a live control plane
   (where the engine no longer forwards on the base tables after the
   first swap); capped with the recorded-details cap. *)
let capture_trace t ~failures ~src ~dst () =
  if t.detection <> None || t.control || t.recorded_n >= t.max_recorded then
    None
  else
    let ring = Trace.Ring.create () in
    match
      Forward.run ~termination:t.termination ~routing:t.routing
        ~cycles:t.cycles ~failures
        ~trace:(Trace.Ring.sink ring)
        ~src ~dst ()
    with
    | (_ : Forward.trace) -> Some (Trace.render (Trace.Ring.events ring))
    | exception Invalid_argument _ -> None

let count t monitor = Option.value ~default:0 (Hashtbl.find_opt t.counts monitor)

let total t = List.fold_left (fun acc m -> acc + count t m) 0 monitor_names

let recorded t = List.rev t.recorded_rev

let excused t = t.excused_n

let dd_bits t = Pr_core.Routing.dd_bits t.routing

let check_dd_header t ~time ~src ~dst (header : Pr_core.Header.t) =
  match Pr_core.Header.encode ~dd_bits:(dd_bits t) header with
  | (_ : int) -> ()
  | exception Invalid_argument _ ->
      record t "dd-width" ~time ~src ~dst
        (Printf.sprintf "header DD %d does not fit the %d DD bits this topology needs"
           header.Pr_core.Header.dd (dd_bits t))

let verdict_name = function
  | Engine.Delivered _ -> "delivered"
  | Engine.Dropped -> "dropped"
  | Engine.Looped -> "looped"
  | Engine.Unreachable -> "unreachable"

let canon u v = if u < v then (u, v) else (v, u)

let engine_observer t =
  let on_link ~time:_ ~u:_ ~v:_ ~up:_ ~changed:_ = () in
  (* Control-plane bookkeeping: epochs must arrive gapless and in order,
     and each published admin-down set must be the previous one edited at
     exactly the swapped link. *)
  let on_swap ~time (info : Engine.swap_info) =
    let u, v = info.Engine.link in
    if info.Engine.epoch <> t.swap_epoch + 1 then
      record t "swap" ~time ~src:u ~dst:v
        (Printf.sprintf "epoch %d published after epoch %d (expected %d)"
           info.Engine.epoch t.swap_epoch (t.swap_epoch + 1));
    let link = canon u v in
    let down = List.map (fun (a, b) -> canon a b) info.Engine.admin_down in
    if info.Engine.admin_up = List.mem link down then
      record t "swap" ~time ~src:u ~dst:v
        (Printf.sprintf
           "admin state of link %d-%d disagrees with the published admin-down set"
           u v);
    let expected =
      if info.Engine.admin_up then List.filter (fun l -> l <> link) t.swap_admin
      else if List.mem link t.swap_admin then t.swap_admin
      else link :: t.swap_admin
    in
    if List.sort compare down <> List.sort compare expected then
      record t "swap" ~time ~src:u ~dst:v
        "published admin-down set is not the previous set edited at the swapped link";
    t.swap_epoch <- info.Engine.epoch;
    t.swap_admin <- down
  in
  let on_packet ~time ~src ~dst ~failures ~quiesced ~verdict ~trace =
    let g = Pr_core.Routing.graph t.routing in
    (* Independent connectivity check, frozen at injection time. *)
    let connected =
      Pr_graph.Connectivity.same_component
        ~blocked:(Pr_core.Failure.is_failed_index failures)
        g src dst
    in
    (* Truth-based sanity holds with or without detection: nothing crosses
       a partition, and a connected pair is never filed as unreachable. *)
    (match (connected, verdict) with
    | true, Engine.Unreachable ->
        record t "delivery" ~time ~src ~dst
          "engine classified a connected pair as unreachable"
    | false, Engine.Delivered _ ->
        record t "delivery" ~time ~src ~dst
          "delivered across a partition (connectivity check disagrees)"
    | _ -> ());
    (match (connected, verdict) with
    | true, (Engine.Dropped | Engine.Looped) -> (
        (* With a live control plane and at least one published swap, a
           loss on a still-connected pair is charged to the swap — the
           zero-loss-across-updates invariant.  [failures] (and hence
           [connected]) already folds the administrative removals in. *)
        let swap_attributed = t.control && t.swap_epoch > 0 in
        match t.detection with
        | None ->
            (* The seed invariant: connected implies delivered. *)
            record
              ?trace:(capture_trace t ~failures ~src ~dst ())
              t
              (if swap_attributed then "swap" else "delivery")
              ~time ~src ~dst
              (Printf.sprintf "%s although still connected under %s"
                 (verdict_name verdict)
                 (Format.asprintf "%a" Pr_core.Failure.pp failures))
        | Some _ ->
            (* Weakened-but-honest: losses are excused only while some
               detector belief still disagrees with the truth. *)
            if quiesced then
              record t
                (if swap_attributed then "swap" else "detection")
                ~time ~src ~dst
                (Printf.sprintf
                   "%s although detection had quiesced and the pair was connected"
                   (verdict_name verdict))
            else t.excused_n <- t.excused_n + 1)
    | _ -> ());
    (* The loop monitor re-decides the trace against the global truth; with
       detection it is meaningful only when beliefs match that truth and
       the budget guard cannot divert the walk, and with a live control
       plane not at all — the model checker replays the base tables the
       engine may have swapped away from. *)
    let loop_check_applies =
      (not t.control)
      &&
      match t.detection with
      | None -> true
      | Some cfg -> quiesced && cfg.Pr_sim.Detector.budget_guard = 0
    in
    match trace with
    | None -> ()
    | Some (tr : Forward.trace) ->
        (* Exact loop freedom by state recurrence, not TTL. *)
        if loop_check_applies then
          (match
             Pr_exp.Modelcheck.verdict ~termination:t.termination
               ~routing:t.routing ~cycles:t.cycles ~failures ~src ~dst ()
           with
          | Pr_exp.Modelcheck.Loops hops ->
              record
                ?trace:(capture_trace t ~failures ~src ~dst ())
                t "loop" ~time ~src ~dst
                (Printf.sprintf "state recurrence after %d hops" hops)
          | Pr_exp.Modelcheck.Delivers _ ->
              if tr.Forward.outcome <> Forward.Delivered then
                record
                  ?trace:(capture_trace t ~failures ~src ~dst ())
                  t "loop" ~time ~src ~dst
                  "model checker delivers but the engine did not"
          | Pr_exp.Modelcheck.Drops ->
              (match tr.Forward.outcome with
              | Forward.Dropped_no_interface | Forward.Dropped_unreachable
              | Forward.Dropped_corrupt ->
                  ()
              | Forward.Delivered | Forward.Ttl_exceeded ->
                  record
                    ?trace:(capture_trace t ~failures ~src ~dst ())
                    t "loop" ~time ~src ~dst
                    "model checker drops but the engine did not"));
        check_dd_header t ~time ~src ~dst tr.Forward.max_header
  in
  { Engine.on_link; on_swap; on_packet }

let timed_observer t =
  let on_link ~time:_ ~u:_ ~v:_ ~up:_ ~changed:_ = () in
  let on_hop ~net (hop : Timed.hop) =
    (* DD width of every header actually written to the wire. *)
    (match hop.Timed.sent with
    | Some (_, (h : Forward.hop_header)) when h.Forward.pr_bit ->
        check_dd_header t ~time:hop.Timed.time ~src:hop.Timed.src
          ~dst:hop.Timed.dst
          {
            Pr_core.Header.pr = true;
            dd = Pr_core.Routing.quantise_dd t.routing h.Forward.dd_value;
          }
    | Some _ | None -> ());
    (* §7 hazard: while one cycle-following episode lasts, remember the
       links this packet saw down and flag the moment it crosses one. *)
    let cycle_following_in = hop.Timed.header.Forward.pr_bit in
    let cycle_following_out =
      match hop.Timed.sent with
      | Some (_, h) -> h.Forward.pr_bit
      | None -> false
    in
    let flight =
      match Hashtbl.find_opt t.flights hop.Timed.id with
      | Some f -> f
      | None ->
          let f = { seen_down = [] } in
          Hashtbl.replace t.flights hop.Timed.id f;
          f
    in
    if not cycle_following_in then flight.seen_down <- [];
    (match hop.Timed.sent with
    | Some (next, _) when cycle_following_in ->
        let link = canon hop.Timed.node next in
        if List.mem link flight.seen_down then
          record t "hold-down" ~time:hop.Timed.time ~src:hop.Timed.src
            ~dst:hop.Timed.dst
            (Printf.sprintf
               "packet crossed link %d-%d it saw down earlier in the same cycle-following episode"
               (fst link) (snd link))
    | Some _ | None -> ());
    if cycle_following_in || cycle_following_out then begin
      let g = Pr_sim.Netstate.graph net in
      Array.iter
        (fun w ->
          if not (Pr_sim.Netstate.is_up net hop.Timed.node w) then begin
            let link = canon hop.Timed.node w in
            if not (List.mem link flight.seen_down) then
              flight.seen_down <- link :: flight.seen_down
          end)
        (Graph.neighbours g hop.Timed.node)
    end;
    if hop.Timed.sent = None then Hashtbl.remove t.flights hop.Timed.id
  in
  { Timed.on_link; on_hop }

let report t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "invariant violations: %d\n" (total t);
  if t.excused_n > 0 then
    Printf.bprintf buf
      "  (%d losses excused: detection had not quiesced)\n" t.excused_n;
  List.iter
    (fun m -> Printf.bprintf buf "  %-10s %d\n" m (count t m))
    monitor_names;
  let shown = recorded t in
  if shown <> [] then begin
    Printf.bprintf buf "first %d in detail:\n" (List.length shown);
    List.iter
      (fun v ->
        Printf.bprintf buf "  t=%-10g %-10s %d -> %d: %s\n" v.time v.monitor
          v.src v.dst v.detail;
        match v.trace with
        | None -> ()
        | Some tr ->
            List.iter
              (fun line ->
                if line <> "" then Printf.bprintf buf "    | %s\n" line)
              (String.split_on_char '\n' tr))
      shown
  end;
  Buffer.contents buf
