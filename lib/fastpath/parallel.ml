module Graph = Pr_graph.Graph
module Failure = Pr_core.Failure
module Rng = Pr_util.Rng
module Probe = Pr_telemetry.Probe

type item = { failures : Failure.t; pairs : (int * int) array }

type config = {
  termination : Pr_core.Forward.termination;
  quantise : bool;
  dd_bits : int option;
  budget_guard : int;
  ttl : int option;
  shortcut : int option;
}

let default_config =
  {
    termination = Pr_core.Forward.Distance_discriminator;
    quantise = false;
    dd_bits = None;
    budget_guard = 0;
    ttl = None;
    shortcut = None;
  }

let ladder_config ~dd_bits ~budget_guard =
  { default_config with dd_bits = Some dd_bits; budget_guard }

let all_pairs_single_failures fib =
  let g = Fib.graph fib in
  let n = Graph.n g in
  let pairs = Array.make (n * (n - 1)) (0, 0) in
  let k = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        pairs.(!k) <- (src, dst);
        incr k
      end
    done
  done;
  Array.init (Graph.m g) (fun i ->
      let e = Graph.edge g i in
      { failures = Failure.of_list g [ (e.u, e.v) ]; pairs })

(* The port slots of an item's failed links, both ends, sorted: read by
   endpoints, so the failure set's graph may number its edges in another
   order. *)
let cut_slots fib failures =
  let cut = Array.make (2 * Failure.count failures) 0 and k = ref 0 in
  Failure.iter
    (fun u v ->
      cut.(!k) <- Fib.slot fib ~node:u ~other:v;
      cut.(!k + 1) <- Fib.slot fib ~node:v ~other:u;
      k := !k + 2)
    failures;
  Array.sort Int.compare cut;
  cut

(* Whether slot [s] is in the sorted [cut.(lo .. hi - 1)]. *)
let rec is_cut (cut : int array) s lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let c = cut.(mid) in
  c = s || if c < s then is_cut cut s (mid + 1) hi else is_cut cut s lo mid

(* [label] codes below 0: not yet reached; [flagged] marks an unreached
   end of a failed link. *)
let unreached = -1

let flagged = -2

(* Label into component [root], and queue at [tail], every unreached node
   behind port slots [lo, hi) of one node, skipping the cut slots.
   Returns the new tail.  A cut slot leads to an end of a failed link, so
   only a port to a node still [flagged] is looked up in [cut], and the
   lookup sits in [cross]: a call in this loop would spill its registers
   on every port.  Unchecked reads: [lo, hi) lies within the node's real
   ports, whose [port_node] cells are node ids, and each node is queued
   once, so [tail < n]. *)
let rec scan port_node label queue cut ~root lo hi tail =
  if lo >= hi then tail
  else
    let w = Array.unsafe_get port_node lo in
    let l = Array.unsafe_get label w in
    if l >= 0 then scan port_node label queue cut ~root (lo + 1) hi tail
    else if l = flagged then cross port_node label queue cut ~root lo hi tail
    else begin
      Array.unsafe_set queue tail w;
      Array.unsafe_set label w root;
      scan port_node label queue cut ~root (lo + 1) hi (tail + 1)
    end

(* Slot [lo] leads to a [flagged] node: skip the slot if it is cut, else
   unflag the node and let [scan] reach it. *)
and cross port_node label queue cut ~root lo hi tail =
  if is_cut cut lo 0 (Array.length cut) then
    scan port_node label queue cut ~root (lo + 1) hi tail
  else begin
    Array.unsafe_set label (Array.unsafe_get port_node lo) unreached;
    scan port_node label queue cut ~root lo hi tail
  end

(* Component labels of the image's base graph minus the item's failed
   links, into [label] (the smallest node of each component), so
   disconnected pairs are accounted without walking.  One BFS over the
   image's degree/port_node planes, with [queue] as its queue: array
   reads only, no hashtable probe.  Administrative state is ignored: a
   link an edit took down still joins its ends, exactly as the failure
   set's own graph would. *)
let component_labels fib failures ~label ~queue =
  let n = Fib.n fib and ports = Fib.ports fib in
  let port_node = Fib.raw_port_node fib in
  let cut = cut_slots fib failures in
  Array.fill label 0 n unreached;
  for j = 0 to Array.length cut - 1 do
    label.(cut.(j) / ports) <- flagged
  done;
  (* Once every node has a label, the queued rest can reach nothing new. *)
  let labelled = ref 0 in
  for root = 0 to n - 1 do
    if label.(root) < 0 then begin
      queue.(0) <- root;
      label.(root) <- root;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail && !labelled + !tail < n do
        let x = queue.(!head) in
        incr head;
        let lo = x * ports in
        tail :=
          scan port_node label queue cut ~root lo (lo + Fib.degree fib x) !tail
      done;
      labelled := !labelled + !tail
    end
  done

let run_item kernel config prepare rng slot probe linkload ~label ~queue item =
  Kernel.set_failures kernel item.failures;
  Kernel.set_probe kernel probe;
  Kernel.set_linkload kernel linkload;
  Kernel.set_shortcut kernel config.shortcut;
  (match prepare with None -> () | Some f -> f kernel ~rng item);
  component_labels (Kernel.fib kernel) item.failures ~label ~queue;
  (* Built once here: as labelled arguments each would be a fresh [Some]
     on every packet. *)
  let termination = Some config.termination
  and quantise = Some config.quantise
  and budget_guard = Some config.budget_guard in
  Array.iter
    (fun (src, dst) ->
      if label.(src) <> label.(dst) then begin
        Kernel.record_unreachable slot;
        match probe with None -> () | Some p -> Probe.record_unreachable p
      end
      else
        Kernel.forward_into ?termination ?quantise ?dd_bits:config.dd_bits
          ?budget_guard ?ttl:config.ttl kernel slot ~src ~dst)
    item.pairs

(* [images], when given, is the image each item forwards on: a worker's
   kernel is rebound whenever the next item's image differs from the one
   it holds. *)
let run_items ?images ~domains ~config ~prepare ~seed ~probes ~linkloads fib
    items =
  if domains < 1 then invalid_arg "Parallel.run: domains must be >= 1";
  (* Checked here too, so no domain is spawned for a batch that cannot
     run, and a batch that walks no packet is refused all the same. *)
  (match config.ttl with
  | Some ttl when ttl < 0 -> invalid_arg "Parallel.run: negative TTL"
  | _ -> ());
  Pr_telemetry.Span.timed "parallel.batch" @@ fun () ->
  let n_items = Array.length items in
  let master = Rng.create ~seed in
  let streams = Array.init n_items (fun _ -> Rng.split master) in
  let slots = Array.init n_items (fun _ -> Kernel.fresh_counters ()) in
  let work d =
    let kernel = Kernel.create fib in
    let label = Array.make (Fib.n fib) 0 and queue = Array.make (Fib.n fib) 0 in
    let i = ref d in
    while !i < n_items do
      (match images with
      | Some im when Kernel.fib kernel != im.(!i) -> Kernel.rebind kernel im.(!i)
      | _ -> ());
      let probe =
        match probes with None -> None | Some ps -> Some ps.(!i)
      in
      let linkload =
        (* Per-domain, not per-item: integer link counters sum the same
           under any partition, so one table per worker is enough. *)
        match linkloads with None -> None | Some ls -> Some ls.(d)
      in
      run_item kernel config prepare streams.(!i) slots.(!i) probe linkload
        ~label ~queue items.(!i);
      i := !i + domains
    done
  in
  if domains = 1 then work 0
  else begin
    let spawned =
      Array.init (domains - 1) (fun d -> Domain.spawn (fun () -> work (d + 1)))
    in
    work 0;
    Array.iter Domain.join spawned
  end;
  let total = Kernel.fresh_counters () in
  Array.iter (fun c -> Kernel.add_counters ~into:total c) slots;
  total

let run ?(domains = 1) ?(config = default_config) ?prepare ~seed fib items =
  run_items ~domains ~config ~prepare ~seed ~probes:None ~linkloads:None fib
    items

let run_probed ?(domains = 1) ?(config = default_config) ?prepare
    ?(create_probe = fun () -> Probe.create ()) ~seed fib items =
  (* One probe slot per item, merged in item-index order after the join
     barrier — the same discipline that keeps the counter sums
     bit-identical across domain counts.  The factory builds every slot
     (and the merge target), so sketch-armed or re-sampled probes stay
     uniformly configured across the batch. *)
  let probes = Array.init (Array.length items) (fun _ -> create_probe ()) in
  let total =
    run_items ~domains ~config ~prepare ~seed ~probes:(Some probes)
      ~linkloads:None fib items
  in
  let merged = create_probe () in
  Array.iter (fun p -> Probe.merge ~into:merged p) probes;
  (total, merged)

let run_swapped ?(domains = 1) ?(config = default_config) ?prepare ~seed
    ~schedule fib items =
  let n_items = Array.length items in
  (let last = ref (-1) in
   List.iter
     (fun (idx, _) ->
       if idx <= !last then
         invalid_arg
           "Parallel.run_swapped: schedule indices must be strictly increasing";
       if idx < 0 || idx >= n_items then
         invalid_arg "Parallel.run_swapped: schedule index out of range";
       last := idx)
     schedule);
  let swap = Swap.create fib in
  (* Admission, in item-index order: when the schedule says an image goes
     live at item [i], publish it just before admitting [i]; every item
     pins the epoch current at its own admission.  The epoch an item
     forwards on is thereby a pure function of the item index — wall
     clock and domain interleaving never enter — while the pins keep
     each superseded image alive until the batch has drained. *)
  let epochs = Array.make n_items 0 in
  let images = Array.make n_items fib in
  let sched = ref schedule in
  for i = 0 to n_items - 1 do
    (match !sched with
    | (idx, image) :: rest when idx = i ->
        ignore (Swap.publish swap image : int);
        sched := rest
    | _ -> ());
    let e, image = Swap.pin swap in
    epochs.(i) <- e;
    images.(i) <- image
  done;
  let total =
    run_items ~images ~domains ~config ~prepare ~seed ~probes:None
      ~linkloads:None fib items
  in
  Array.iter (fun epoch -> Swap.unpin swap ~epoch) epochs;
  (total, Swap.stats swap)

let run_loaded ?(domains = 1) ?(config = default_config) ?prepare ~seed fib
    items =
  (* Unlike [run_probed], link-load slots are per-domain, not per-item:
     the counters are plain ints, so the sum is identical under any
     partition of the items, and a short sweep should not spend its
     overhead budget allocating and merging a table per scenario. *)
  if domains < 1 then invalid_arg "Parallel.run: domains must be >= 1";
  let g = Fib.graph fib in
  let linkloads = Array.init domains (fun _ -> Pr_obs.Linkload.create g) in
  let total =
    run_items ~domains ~config ~prepare ~seed ~probes:None
      ~linkloads:(Some linkloads) fib items
  in
  for d = 1 to domains - 1 do
    Pr_obs.Linkload.merge ~into:linkloads.(0) linkloads.(d)
  done;
  (total, linkloads.(0))
