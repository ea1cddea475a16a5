module Graph = Pr_graph.Graph
module Trace = Pr_telemetry.Trace
module Probe = Pr_telemetry.Probe

type termination = Simple | Distance_discriminator

type outcome =
  | Delivered
  | Dropped_no_interface
  | Dropped_unreachable
  | Ttl_exceeded
  | Dropped_corrupt

type hop_header = { pr_bit : bool; dd_value : float }

let fresh_header = { pr_bit = false; dd_value = 0.0 }

type step_result =
  | Transmit of {
      next : int;
      header : hop_header;
      episode_started : bool;
      failure_hits : int;
      shortcut : bool;
    }
  | Stuck of { outcome : outcome; failure_hits : int }

type degradation = Retry_complementary | Lfa_rescue | Dd_saturated

type drop_reason =
  | No_route
  | Interfaces_down
  | Continuation_lost
  | Budget_exhausted
  | Stale_view

let degradation_name = function
  | Retry_complementary -> "retry-complementary"
  | Lfa_rescue -> "lfa-rescue"
  | Dd_saturated -> "dd-saturated"

let drop_reason_name = function
  | No_route -> "no-route"
  | Interfaces_down -> "interfaces-down"
  | Continuation_lost -> "continuation-lost"
  | Budget_exhausted -> "budget-exhausted"
  | Stale_view -> "stale-view"

(* Fault loci for guard-mode forwarding: each names the corruption a guarded
   walk detected and where, in the style of Pr_fastpath.Fib's typed deltas.
   A fault always pairs with the [Dropped_corrupt] verdict — an accounted
   drop, never an exception. *)
type fault =
  | Bad_field of { field : int }
  | Impossible_dd of { node : int; dd : float }
  | Not_neighbour of { node : int; from_ : int }
  | Corrupt_cell of { node : int; cell : string }
  | Walk_blowup of { hops : int }

let fault_name = function
  | Bad_field _ -> "bad-field"
  | Impossible_dd _ -> "impossible-dd"
  | Not_neighbour _ -> "not-neighbour"
  | Corrupt_cell _ -> "corrupt-cell"
  | Walk_blowup _ -> "walk-blowup"

let describe_fault = function
  | Bad_field { field } ->
      Printf.sprintf "header field %d does not decode" field
  | Impossible_dd { node; dd } ->
      Printf.sprintf "impossible DD %g at node %d" dd node
  | Not_neighbour { node; from_ } ->
      Printf.sprintf "previous hop %d is not a neighbour of node %d" from_ node
  | Corrupt_cell { node; cell } ->
      Printf.sprintf "corrupt %s cell read at node %d" cell node
  | Walk_blowup { hops } ->
      Printf.sprintf "corrupted walk still live after %d hops" hops

type ladder_result =
  | Forwarded of {
      next : int;
      header : hop_header;
      episode_started : bool;
      failure_hits : int;
      degradations : degradation list;
      shortcut : bool;
    }
  | Degraded_drop of {
      reason : drop_reason;
      failure_hits : int;
      degradations : degradation list;
    }

(* The shared per-router decision core.  [link_up] is the deciding router's
   view of its interfaces — the global truth under {!step}, a local belief
   under {!ladder_step}.  [max_dd_q] is the largest quantised DD the header
   can carry ([None]: unbounded, never saturates).  [budget] is
   [(hops_left, guard)] when the hop-budget rung is armed.  [strict] keeps
   the seed behaviour of raising on a missing rotation entry. *)
let decide ~termination ~quantise ~max_dd_q ~budget ~strict ~trace ~shortcut
    ~routing ~cycles ~link_up ~dst ~node:x ~arrived_from ~header () =
  let g = Routing.graph routing in
  let up = link_up in
  (* Event emission is guarded by [traced] at every site so the null sink
     never even constructs the event — the zero-work guarantee the
     telemetry differential and overhead tests rely on.  Emission points
     mirror Pr_fastpath.Kernel.decide line for line. *)
  let traced = Trace.enabled trace in
  let failure_hits = ref 0 in
  let degradations = ref [] in
  let note d = degradations := d :: !degradations in
  (* A discriminator value as the DD bits would carry it: quantised when
     header-faithful, clamped to the header maximum when it does not fit
     (the saturating-encode behaviour of {!Header.encode_saturating}). *)
  let carried v =
    let q = Routing.quantise_dd routing v in
    match max_dd_q with
    | Some m when q > m -> (float_of_int m, true)
    | _ -> ((if quantise then float_of_int q else v), false)
  in
  let write_dd v =
    let value, sat = carried v in
    if sat then begin
      note Dd_saturated;
      if traced then Trace.emit trace (Trace.Dd_saturated { node = x; dd = value })
    end;
    value
  in
  let forwarded ?(shortcut = false) next header episode_started =
    Forwarded
      {
        next;
        header;
        episode_started;
        failure_hits = !failure_hits;
        degradations = List.rev !degradations;
        shortcut;
      }
  in
  let drop reason =
    Degraded_drop
      {
        reason;
        failure_hits = !failure_hits;
        degradations = List.rev !degradations;
      }
  in
  (* Start the complementary cycle of the failed interface (x, failed):
     rotate from [failed] to the first live interface.  Each dead interface
     passed is a further failure encounter; under the DD condition the
     comparison that would run at each encounter uses the same local
     discriminator and the same header DD, so its outcome cannot change
     mid-rotation and skipping straight to the first live interface is
     faithful to the protocol. *)
  let start_complementary failed ~dd ~episode_started =
    if traced then Trace.emit trace (Trace.Complementary { node = x; failed });
    let deg = Graph.degree g x in
    let rec rotate candidate remaining =
      if remaining = 0 then drop Interfaces_down
      else if up candidate then
        forwarded candidate { pr_bit = true; dd_value = dd } episode_started
      else begin
        incr failure_hits;
        rotate
          (Cycle_table.complement_for_failed cycles ~node:x ~failed:candidate)
          (remaining - 1)
      end
    in
    rotate (Cycle_table.complement_for_failed cycles ~node:x ~failed) deg
  in
  (* Normal shortest-path forwarding; on a failed next hop, start a PR
     episode with the local discriminator in the DD bits (§4.2/§4.3). *)
  let routed () =
    match Routing.next_hop routing ~node:x ~dst with
    | None -> drop No_route
    | Some w ->
        if up w then forwarded w fresh_header false
        else begin
          incr failure_hits;
          let dd = write_dd (Routing.disc routing ~node:x ~dst) in
          if traced then Trace.emit trace (Trace.Pr_set { node = x; dd });
          start_complementary w ~dd ~episode_started:true
        end
  in
  (* Last ladder rung before the drop: a loop-free alternate (RFC 5286
     basic inequality, as {!Pr_baselines.Lfa} computes it) that this
     router believes up.  PR state is discarded — the rescued packet
     continues as a plain routed packet. *)
  let lfa_rescue ~reason =
    match Routing.next_hop routing ~node:x ~dst with
    | None -> drop No_route
    | Some primary ->
        let dist v = Routing.distance routing ~node:v ~dst in
        let cost w = Graph.weight g x w in
        let loop_free w = w <> primary && dist w < cost w +. dist x in
        let best =
          Array.fold_left
            (fun acc w ->
              if loop_free w && up w then
                match acc with
                | Some b when cost b +. dist b <= cost w +. dist w -> acc
                | _ -> Some w
              else acc)
            None (Graph.neighbours g x)
        in
        (match best with
        | Some w ->
            note Lfa_rescue;
            if traced then
              Trace.emit trace
                (Trace.Rung
                   {
                     node = x;
                     rung = Trace.Lfa_rescue;
                     reason = drop_reason_name reason;
                   });
            forwarded w fresh_header false
        | None -> drop reason)
  in
  (* The degradation ladder, entered when the PR continuation is unusable
     ([reason]): resume plain routing if the primary is up, else
     (optionally) restart a complementary episode with a fresh local DD,
     else LFA rescue, else an accounted drop. *)
  let ladder ~reason ~try_complementary =
    match Routing.next_hop routing ~node:x ~dst with
    | None -> drop No_route
    | Some w ->
        if up w then begin
          if traced then
            Trace.emit trace
              (Trace.Rung
                 {
                   node = x;
                   rung = Trace.Routed_resume;
                   reason = drop_reason_name reason;
                 });
          forwarded w fresh_header false
        end
        else begin
          incr failure_hits;
          if try_complementary then begin
            note Retry_complementary;
            if traced then
              Trace.emit trace
                (Trace.Rung
                   {
                     node = x;
                     rung = Trace.Retry_complementary;
                     reason = drop_reason_name reason;
                   });
            let dd = write_dd (Routing.disc routing ~node:x ~dst) in
            if traced then Trace.emit trace (Trace.Pr_set { node = x; dd });
            match start_complementary w ~dd ~episode_started:true with
            | Forwarded _ as r -> r
            | Degraded_drop _ -> lfa_rescue ~reason
          end
          else lfa_rescue ~reason
        end
  in
  let budget_exhausted =
    match budget with
    | Some (hops_left, guard) -> header.pr_bit && hops_left <= guard
    | None -> false
  in
  if budget_exhausted then
    (* Nearly out of hop budget mid-episode: stop cycle following (it is
       what burned the budget) and take the ladder without the
       complementary rung. *)
    ladder ~reason:Budget_exhausted ~try_complementary:false
  else if not header.pr_bit then routed ()
  else
    match arrived_from with
    | None ->
        (* A PR-marked packet always has a previous hop; treat a source
           with a stale PR bit as freshly injected. *)
        routed ()
    | Some y -> (
        (* Cycle following. *)
        let continuation =
          if strict then Some (Cycle_table.cycle_next cycles ~node:x ~from_:y)
          else Cycle_table.cycle_next_opt cycles ~node:x ~from_:y
        in
        match continuation with
        | None -> ladder ~reason:Continuation_lost ~try_complementary:true
        | Some w ->
            if up w then begin
              (* The shortcut rung: the continuation is live, but the
                 seen-node hint says this node was already departed during
                 the current PR period (deja-vu).  Run the §4.3 comparison
                 {e proactively}: it is exactly the check a failure
                 encounter would run, so a grant is sound on its own and a
                 Bloom false positive can at worst trigger a check that
                 declines.  Grant only if the primary next hop is also up
                 — the packet re-enters plain routing with a fresh header
                 and no new episode.  Every decline (no hint, no deja-vu,
                 unsound comparison, primary down) continues cycle
                 following unchanged. *)
              let grant =
                match (shortcut, termination) with
                | Some seen, Distance_discriminator when seen x -> (
                    let local, local_sat =
                      carried (Routing.disc routing ~node:x ~dst)
                    in
                    let header_sat =
                      match max_dd_q with
                      | Some m -> header.dd_value >= float_of_int m
                      | None -> false
                    in
                    if
                      (not (local_sat && header_sat))
                      && local < header.dd_value
                    then
                      match Routing.next_hop routing ~node:x ~dst with
                      | Some p when up p -> Some (p, local)
                      | _ -> None
                    else None)
                | _ -> None
              in
              match grant with
              | Some (p, local) ->
                  if traced then
                    Trace.emit trace
                      (Trace.Shortcut
                         {
                           node = x;
                           local_dd = local;
                           header_dd = header.dd_value;
                         });
                  forwarded ~shortcut:true p fresh_header false
              | None -> forwarded w header false
            end
            else begin
              incr failure_hits;
              match termination with
              | Simple -> routed ()
              | Distance_discriminator ->
                  let local, local_sat =
                    carried (Routing.disc routing ~node:x ~dst)
                  in
                  let header_sat =
                    match max_dd_q with
                    | Some m -> header.dd_value >= float_of_int m
                    | None -> false
                  in
                  if local_sat && header_sat then begin
                    (* Both discriminators clamped to the header maximum:
                       the §4.3 comparison is no longer sound.  Degrade
                       instead of trusting it. *)
                    note Dd_saturated;
                    if traced then
                      Trace.emit trace (Trace.Dd_refused { node = x });
                    ladder ~reason:Continuation_lost ~try_complementary:true
                  end
                  else begin
                    let cleared = local < header.dd_value in
                    if traced then
                      Trace.emit trace
                        (Trace.Dd_compare
                           {
                             node = x;
                             local_dd = local;
                             header_dd = header.dd_value;
                             cleared;
                           });
                    if cleared then routed ()
                    else
                      start_complementary w ~dd:header.dd_value
                        ~episode_started:false
                  end
            end)

let step ?(termination = Distance_discriminator) ?(quantise = false)
    ?(trace = Trace.null) ?shortcut ~routing ~cycles ~failures ~dst ~node
    ~arrived_from ~header () =
  match
    decide ~termination ~quantise ~max_dd_q:None ~budget:None ~strict:true
      ~trace ~shortcut ~routing ~cycles
      ~link_up:(fun w -> Failure.link_up failures node w)
      ~dst ~node ~arrived_from ~header ()
  with
  | Forwarded
      {
        next;
        header;
        episode_started;
        failure_hits;
        degradations = _;
        shortcut;
      } ->
      Transmit { next; header; episode_started; failure_hits; shortcut }
  | Degraded_drop { reason = No_route; failure_hits; _ } ->
      Stuck { outcome = Dropped_unreachable; failure_hits }
  | Degraded_drop { reason = Interfaces_down; failure_hits; _ } ->
      Stuck { outcome = Dropped_no_interface; failure_hits }
  | Degraded_drop
      { reason = Continuation_lost | Budget_exhausted | Stale_view; _ } ->
      (* Unreachable: strict mode raises on missing entries, the budget
         rung is unarmed, DD values never saturate without a bound and
         [decide] never dies on the wire. *)
      assert false

let ladder_step ?(termination = Distance_discriminator) ?(quantise = false)
    ?dd_bits ?hops_left ?(budget_guard = 0) ?(trace = Trace.null) ?shortcut
    ~routing ~cycles ~link_up ~dst ~node ~arrived_from ~header () =
  let max_dd_q =
    match dd_bits with
    | None -> None
    | Some b -> Some (Header.max_dd ~dd_bits:b)
  in
  let budget =
    match hops_left with
    | Some h when budget_guard > 0 -> Some (h, budget_guard)
    | _ -> None
  in
  decide ~termination ~quantise ~max_dd_q ~budget ~strict:false ~trace
    ~shortcut ~routing ~cycles ~link_up ~dst ~node ~arrived_from ~header ()

type trace = {
  outcome : outcome;
  path : int list;
  pr_episodes : int;
  failure_hits : int;
  max_header : Header.t;
  episodes : (int * float) list;
  shortcuts : int;
}

let default_ttl g = (2 * Graph.m g * (Graph.n g + 2)) + Graph.n g + 16

type guarded = {
  trace : trace;
  fault : fault option;
  drop : drop_reason option;
  degradations : degradation list;
}

let inject_of_field ~dd_bits field =
  match Header.decode_result ~dd_bits field with
  | Error _ -> Error (Bad_field { field })
  | Ok { Header.pr; dd } -> Ok { pr_bit = pr; dd_value = float_of_int dd }

let run_guarded ?termination ?ttl ?quantise ?dd_bits ?(budget_guard = 0)
    ?(header = fresh_header) ?arrived_from ?(trace = Trace.null) ?probe
    ?linkload ?shortcut ?view ~routing ~cycles ~failures ~src ~dst () =
  let g = Routing.graph routing in
  let n = Graph.n g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg
      (Printf.sprintf
         "Forward.run_guarded: node out of range (src %d, dst %d, topology \
          has 0..%d)"
         src dst (n - 1));
  if src = dst then
    invalid_arg (Printf.sprintf "Forward.run_guarded: src = dst (node %d)" src);
  let ttl0 = match ttl with Some t -> t | None -> default_ttl g in
  (* The walk ends when its TTL reaches exactly 0. *)
  if ttl0 < 0 then
    invalid_arg (Printf.sprintf "Forward.run_guarded: negative TTL %d" ttl0);
  (* A walk is corrupt-seeded when any header state was injected; only such
     walks convert TTL expiry into the walk-blowup fault, so clean traffic
     keeps the plain {!Ttl_exceeded} verdict. *)
  let seeded = header <> fresh_header || arrived_from <> None in
  let traced = Trace.enabled trace in
  let believed x =
    match view with
    | None -> fun w -> Failure.link_up failures x w
    | Some v -> fun w -> v ~node:x ~other:w
  in
  let pr_episodes = ref 0 in
  let failure_hits = ref 0 in
  let max_dd = ref 0.0 in
  let episodes = ref [] in
  let all_degradations = ref [] in
  let shortcuts = ref 0 in
  (* The seen-node hint lives per walk; its query closure is built once
     per walk, not per hop. *)
  let seen = Option.map Seen.create shortcut in
  let seen_query =
    match seen with None -> None | Some s -> Some (fun v -> Seen.query s v)
  in
  let track_seen x (header : hop_header) =
    match seen with
    | None -> ()
    | Some s -> if header.pr_bit then Seen.insert s x else Seen.reset s
  in
  let account hits degradations =
    failure_hits := !failure_hits + hits;
    all_degradations := List.rev_append degradations !all_degradations
  in
  (* Every walk ends here, at [node] with [ttl] hops left: the verdict
     event and the probe record.  A corrupt verdict — an entry fault or a
     seeded walk's expiry — is [Drop "corrupt"], never [Expire]. *)
  let finish ?fault ?drop outcome ~node ~ttl acc =
    let hops = ttl0 - ttl and path = List.rev acc in
    let reason =
      match drop with Some r -> drop_reason_name r | None -> "corrupt"
    in
    if traced then
      Trace.emit trace
        (match outcome with
        | Delivered -> Trace.Deliver { node; hops }
        | Ttl_exceeded -> Trace.Expire { node; hops }
        | Dropped_no_interface | Dropped_unreachable | Dropped_corrupt ->
            Trace.Drop { node; reason });
    (match probe with
    | None -> ()
    | Some p when outcome = Delivered ->
        let stretch =
          Pr_graph.Paths.cost g path /. Routing.distance routing ~node:src ~dst
        in
        Probe.record_delivery p ~stretch ~hops ~depth:!pr_episodes
    | Some p -> Probe.record_drop p ~hops ~depth:!pr_episodes);
    {
      trace =
        {
          outcome;
          path;
          pr_episodes = !pr_episodes;
          failure_hits = !failure_hits;
          max_header =
            {
              Header.pr = !pr_episodes > 0;
              dd = Routing.quantise_dd routing !max_dd;
            };
          episodes = List.rev !episodes;
          shortcuts = !shortcuts;
        };
      fault;
      drop;
      degradations = List.rev !all_degradations;
    }
  in
  let decide_at x arrived_from header ~ttl =
    ladder_step ?termination ?quantise ?dd_bits ~hops_left:ttl ~budget_guard
      ~trace ?shortcut:seen_query ~routing ~cycles ~link_up:(believed x) ~dst
      ~node:x ~arrived_from ~header ()
  in
  let rec walk x arrived_from header ~ttl acc =
    if x = dst then finish Delivered ~node:x ~ttl acc
    else if ttl = 0 then
      if seeded then
        finish ~fault:(Walk_blowup { hops = ttl0 }) Dropped_corrupt ~node:x
          ~ttl acc
      else finish Ttl_exceeded ~node:x ~ttl acc
    else
      match decide_at x arrived_from header ~ttl with
      | Degraded_drop { reason; failure_hits = hits; degradations } ->
          account hits degradations;
          finish ~drop:reason
            (if reason = No_route then Dropped_unreachable
             else Dropped_no_interface)
            ~node:x ~ttl acc
      | Forwarded
          {
            next;
            header;
            episode_started;
            failure_hits = hits;
            degradations;
            shortcut = sc;
          } ->
          account hits degradations;
          if episode_started then begin
            incr pr_episodes;
            episodes := (x, header.dd_value) :: !episodes;
            if header.dd_value > !max_dd then max_dd := header.dd_value
          end;
          if sc then incr shortcuts;
          track_seen x header;
          if traced then
            Trace.emit trace
              (Trace.Hop
                 { node = x; next; pr = header.pr_bit; dd = header.dd_value });
          (match linkload with
          | None -> ()
          | Some ll ->
              (* Counted on the wire, before any stale-view death. *)
              Pr_obs.Linkload.record_next ll ~node:x ~next
                ~cls:
                  (if List.exists (( <> ) Dd_saturated) degradations then
                     Pr_obs.Linkload.cls_rescue
                   else if sc then Pr_obs.Linkload.cls_shortcut
                   else if header.pr_bit then Pr_obs.Linkload.cls_recycled
                   else Pr_obs.Linkload.cls_shortest));
          (* Only a view can send a packet into a dead link: it dies on the
             wire, the failed hop kept on the path. *)
          if Option.is_none view || Failure.link_up failures x next then
            walk next (Some x) header ~ttl:(ttl - 1) (next :: acc)
          else begin
            if traced then
              Trace.emit trace
                (Trace.Divergence
                   { node = x; other = next; believed_up = true });
            finish ~drop:Stale_view Dropped_no_interface ~node:next
              ~ttl:(ttl - 1) (next :: acc)
          end
  in
  (* Entry guards, in the same order the compiled kernel applies them:
     impossible DD first, then the neighbour check on the claimed previous
     hop.  Undecodable wire fields never reach this point — callers decode
     with {!inject_of_field} and account {!Bad_field} directly. *)
  let entry_fault =
    if
      header.pr_bit
      && (Float.is_nan header.dd_value
         || header.dd_value < 0.0
         || header.dd_value = Float.infinity
         ||
         match dd_bits with
         | Some b -> header.dd_value > float_of_int (Header.max_dd ~dd_bits:b)
         | None -> false)
    then Some (Impossible_dd { node = src; dd = header.dd_value })
    else
      match arrived_from with
      | Some y
        when y < 0 || y >= n
             || not (Array.exists (Int.equal y) (Graph.neighbours g src)) ->
          Some (Not_neighbour { node = src; from_ = y })
      | _ -> None
  in
  match entry_fault with
  | Some f -> finish ~fault:f Dropped_corrupt ~node:src ~ttl:ttl0 [ src ]
  | None -> walk src arrived_from header ~ttl:ttl0 [ src ]

let run ?termination ?ttl ?quantise ?trace ?probe ?linkload ?shortcut ~routing
    ~cycles ~failures ~src ~dst () =
  (run_guarded ?termination ?ttl ?quantise ?trace ?probe ?linkload ?shortcut
     ~routing ~cycles ~failures ~src ~dst ())
    .trace

let path_cost g trace = Pr_graph.Paths.cost g trace.path

let stretch ~routing ~trace ~src ~dst =
  match trace.outcome with
  | Delivered ->
      let base = Routing.distance routing ~node:src ~dst in
      path_cost (Routing.graph routing) trace /. base
  | Dropped_no_interface | Dropped_unreachable | Ttl_exceeded
  | Dropped_corrupt ->
      infinity
