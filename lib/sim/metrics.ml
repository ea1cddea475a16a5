type drop_reason =
  | No_route
  | Interfaces_down
  | No_alternate
  | Continuation_lost
  | Budget_exhausted
  | Stale_view
  | Unclassified
  | Corrupt

let all_reasons =
  [
    No_route;
    Interfaces_down;
    No_alternate;
    Continuation_lost;
    Budget_exhausted;
    Stale_view;
    Unclassified;
    Corrupt;
  ]

let reason_index = function
  | No_route -> 0
  | Interfaces_down -> 1
  | No_alternate -> 2
  | Continuation_lost -> 3
  | Budget_exhausted -> 4
  | Stale_view -> 5
  | Unclassified -> 6
  | Corrupt -> 7

let reason_name = function
  | No_route -> "no-route"
  | Interfaces_down -> "interfaces-down"
  | No_alternate -> "no-alternate"
  | Continuation_lost -> "continuation-lost"
  | Budget_exhausted -> "budget-exhausted"
  | Stale_view -> "stale-view"
  | Unclassified -> "unclassified"
  | Corrupt -> "corrupt"

let reason_of_forward = function
  | Pr_core.Forward.No_route -> No_route
  | Pr_core.Forward.Interfaces_down -> Interfaces_down
  | Pr_core.Forward.Continuation_lost -> Continuation_lost
  | Pr_core.Forward.Budget_exhausted -> Budget_exhausted
  | Pr_core.Forward.Stale_view -> Stale_view

type t = {
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable looped : int;
  mutable unreachable : int;
  mutable stretch_sum : float;
  mutable worst_stretch : float;
  drops_by_reason : int array;
  mutable complementary_retries : int;
  mutable lfa_rescues : int;
  mutable dd_saturations : int;
  mutable shortcut_exits : int;
}

let create () =
  {
    injected = 0;
    delivered = 0;
    dropped = 0;
    looped = 0;
    unreachable = 0;
    stretch_sum = 0.0;
    worst_stretch = 0.0;
    drops_by_reason = Array.make (List.length all_reasons) 0;
    complementary_retries = 0;
    lfa_rescues = 0;
    dd_saturations = 0;
    shortcut_exits = 0;
  }

let record_delivery t ~stretch =
  t.injected <- t.injected + 1;
  t.delivered <- t.delivered + 1;
  t.stretch_sum <- t.stretch_sum +. stretch;
  if stretch > t.worst_stretch then t.worst_stretch <- stretch

let record_drop ?(reason = Unclassified) t =
  t.injected <- t.injected + 1;
  t.dropped <- t.dropped + 1;
  let i = reason_index reason in
  t.drops_by_reason.(i) <- t.drops_by_reason.(i) + 1

let record_loop t =
  t.injected <- t.injected + 1;
  t.looped <- t.looped + 1

let record_unreachable t =
  t.injected <- t.injected + 1;
  t.unreachable <- t.unreachable + 1

let record_degradation t (d : Pr_core.Forward.degradation) =
  match d with
  | Pr_core.Forward.Retry_complementary ->
      t.complementary_retries <- t.complementary_retries + 1
  | Pr_core.Forward.Lfa_rescue -> t.lfa_rescues <- t.lfa_rescues + 1
  | Pr_core.Forward.Dd_saturated -> t.dd_saturations <- t.dd_saturations + 1

let record_degradations t ds = List.iter (record_degradation t) ds

let record_shortcuts t k = t.shortcut_exits <- t.shortcut_exits + k

let of_fastpath (c : Pr_fastpath.Kernel.counters) =
  let t = create () in
  t.injected <- c.injected;
  t.delivered <- c.delivered;
  t.dropped <- c.dropped;
  t.looped <- c.looped;
  t.unreachable <- c.unreachable;
  t.stretch_sum <- c.stretch_sum;
  t.worst_stretch <- c.worst_stretch;
  List.iter
    (fun r ->
      let here =
        match r with
        | Pr_fastpath.Kernel.No_route -> No_route
        | Pr_fastpath.Kernel.Interfaces_down -> Interfaces_down
        | Pr_fastpath.Kernel.Continuation_lost -> Continuation_lost
        | Pr_fastpath.Kernel.Budget_exhausted -> Budget_exhausted
        | Pr_fastpath.Kernel.Stale_view -> Stale_view
        | Pr_fastpath.Kernel.Corrupt -> Corrupt
      in
      t.drops_by_reason.(reason_index here) <-
        c.drops_by_reason.(Pr_fastpath.Kernel.reason_index r))
    Pr_fastpath.Kernel.all_reasons;
  t.complementary_retries <- c.complementary_retries;
  t.lfa_rescues <- c.lfa_rescues;
  t.dd_saturations <- c.dd_saturations;
  t.shortcut_exits <- c.shortcut_exits;
  t

let drop_count t reason = t.drops_by_reason.(reason_index reason)

(* Every reason, zero counts included, in [all_reasons] order — so two
   breakdowns (and their printed forms) are line-comparable without
   aligning sparse lists first. *)
let drop_breakdown t = List.map (fun r -> (r, drop_count t r)) all_reasons

let delivery_ratio t =
  let deliverable = t.injected - t.unreachable in
  if deliverable = 0 then 1.0
  else float_of_int t.delivered /. float_of_int deliverable

let mean_stretch t =
  if t.delivered = 0 then 0.0 else t.stretch_sum /. float_of_int t.delivered

let pp ppf t =
  Format.fprintf ppf
    "injected=%d delivered=%d dropped=%d looped=%d unreachable=%d delivery=%.4f mean_stretch=%.3f"
    t.injected t.delivered t.dropped t.looped t.unreachable (delivery_ratio t)
    (mean_stretch t);
  (* Unclassified drops are the seed behaviour; only a classified
     breakdown earns the extra suffix.  When it appears it lists every
     reason in [all_reasons] order, zero counts included, so summaries
     from different runs diff line for line. *)
  let classified =
    List.exists (fun (r, c) -> r <> Unclassified && c > 0) (drop_breakdown t)
  in
  if classified then
    Format.fprintf ppf " drops[%s]"
      (String.concat ","
         (List.map
            (fun (r, c) -> Printf.sprintf "%s=%d" (reason_name r) c)
            (drop_breakdown t)));
  if t.complementary_retries > 0 || t.lfa_rescues > 0 || t.dd_saturations > 0
  then
    Format.fprintf ppf " degraded[retries=%d lfa=%d dd-sat=%d]"
      t.complementary_retries t.lfa_rescues t.dd_saturations;
  if t.shortcut_exits > 0 then
    Format.fprintf ppf " shortcuts=%d" t.shortcut_exits
