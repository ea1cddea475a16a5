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

let run_item kernel config prepare rng slot probe linkload item =
  Kernel.set_failures kernel item.failures;
  (* Labelled before [prepare], which may run a call of its own; the
     labels ignore the view it perturbs. *)
  let components = Kernel.components kernel in
  Kernel.set_probe kernel probe;
  Kernel.set_linkload kernel linkload;
  Kernel.set_shortcut kernel config.shortcut;
  (match prepare with None -> () | Some f -> f kernel ~rng item);
  (* Built once here: as labelled arguments each would be a fresh [Some]
     on every packet. *)
  let termination = Some config.termination
  and quantise = Some config.quantise
  and budget_guard = Some config.budget_guard in
  Array.iter
    (fun (src, dst) ->
      match components with
      | Some label when label.(src) <> label.(dst) ->
          Kernel.record_unreachable slot
      | _ ->
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
    Kernel.with_resident fib @@ fun kernel ->
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
        items.(!i);
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
