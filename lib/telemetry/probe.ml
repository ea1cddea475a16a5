(* One quantile series: a P2 bank plus a bounded staging buffer.
   Observations are staged raw and fold into the bank lazily — on
   overflow, on read, on serialization, or when a merge absorbs them.
   Staging is what keeps sharded campaigns accurate: a parallel sweep
   keeps one probe per scenario item, and most items see a few hundred
   sampled observations — far too few for five P2 markers to converge,
   so merging per-item marker states compounds shard bias (a marker
   row cannot say whether its shard's tail was 2% or 40% of the item).
   Replaying staged raw values into the merge target instead feeds one
   sequential stream — the regime P2 is designed for — and is
   bit-deterministic because items merge in index order.  Only shards
   that overflow the buffer fall back to marker-state merging. *)
type series = {
  bank : Sketch.t array;
  buf : float array;
  mutable staged : int;  (* observations held in [buf] *)
  mutable spilled : int;  (* prefix of [buf] already fed to [bank] *)
}

type sketches = {
  sample : int;
  mutable stretch_tick : int;
  mutable hops_tick : int;
  mutable lat_tick : int;
  stretch : series;
  hops : series;
  lat : series;
}

type t = {
  lat_sample : int;
  sketch : sketches option;
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable looped : int;
  mutable unreachable : int;
  stretch_acc : float array;  (* [s_sum], [s_worst]: writes never box *)
  drops_by_reason : int array;
  mutable complementary_retries : int;
  mutable lfa_rescues : int;
  mutable dd_saturations : int;
  mutable shortcut_exits : int;
  mutable pr_episodes : int;
  mutable failure_hits : int;
  stretch_hist : int array;
  hops_hist : int array;
  depth_hist : int array;
  rung_latency : int array array;
}

let reason_names =
  [|
    "no-route";
    "interfaces-down";
    "no-alternate";
    "continuation-lost";
    "budget-exhausted";
    "stale-view";
    "unclassified";
    "corrupt";
  |]

let reason_no_route = 0

let reason_interfaces_down = 1

let reason_no_alternate = 2

let reason_continuation_lost = 3

let reason_budget_exhausted = 4

let reason_stale_view = 5

let reason_unclassified = 6

let reason_corrupt = 7

let class_names =
  [| "routed"; "cycle"; "episode"; "retry"; "lfa"; "drop"; "shortcut" |]

let cls_routed = 0

let cls_cycle = 1

let cls_episode = 2

let cls_retry = 3

let cls_lfa = 4

let cls_drop = 5

let cls_shortcut = 6

let stretch_edges = [| 1.0; 1.2; 1.5; 2.0; 3.0; 4.0; 6.0; 8.0; 16.0 |]

let hops_edges = [| 1; 2; 4; 8; 16; 32; 64; 128; 256 |]

let max_depth = 8

(* [stretch_acc] slots. *)
let s_sum = 0

let s_worst = 1

(* Latency buckets: log2(ns), exponents 6 (<= 64 ns) through 24
   (>= ~16.8 ms), clamped at both ends. *)
let lat_lo = 6

let lat_buckets = 20

let default_lat_sample = 16

let default_sketch_sample = 8

let sketch_qs = [| 0.5; 0.9; 0.99 |]

(* Staging capacity per series: 4096 floats (32 KiB).  At the default
   decimation this covers items of ~32k walks — every paper topology
   and the scale campaign's per-scenario items stay fully staged, so
   their merges are exact replays; only genuinely huge shards degrade
   to marker-state merging. *)
let sketch_buf_cap = 4096

let create ?(lat_sample = default_lat_sample) ?(sketch = false)
    ?(sketch_sample = default_sketch_sample) () =
  if lat_sample < 1 then invalid_arg "Probe.create: lat_sample must be >= 1";
  if sketch_sample < 1 then
    invalid_arg "Probe.create: sketch_sample must be >= 1";
  {
    lat_sample;
    sketch =
      (if not sketch then None
       else
         (* All three series are heavy-tailed multiplicative quantities
            with (roughly) geometric histogram edges: log-domain
            sketches to match.  Stretch is >= 1 by construction, hops
            and latencies are clamped to >= 1 at the feed. *)
         let series () =
           {
             bank = Array.map (fun q -> Sketch.create_log ~q) sketch_qs;
             buf = Array.make sketch_buf_cap 0.0;
             staged = 0;
             spilled = 0;
           }
         in
         Some
           {
             sample = sketch_sample;
             stretch_tick = 0;
             hops_tick = 0;
             lat_tick = 0;
             stretch = series ();
             hops = series ();
             lat = series ();
           });
    injected = 0;
    delivered = 0;
    dropped = 0;
    looped = 0;
    unreachable = 0;
    stretch_acc = [| 0.0; 0.0 |];
    drops_by_reason = Array.make (Array.length reason_names) 0;
    complementary_retries = 0;
    lfa_rescues = 0;
    dd_saturations = 0;
    shortcut_exits = 0;
    pr_episodes = 0;
    failure_hits = 0;
    stretch_hist = Array.make (Array.length stretch_edges + 1) 0;
    hops_hist = Array.make (Array.length hops_edges + 1) 0;
    depth_hist = Array.make (max_depth + 2) 0;
    rung_latency =
      Array.init (Array.length class_names) (fun _ -> Array.make lat_buckets 0);
  }

let lat_sample t = t.lat_sample

let stretch_sum t = t.stretch_acc.(s_sum)

let worst_stretch t = t.stretch_acc.(s_worst)

let sketched t = t.sketch <> None

(* Fold any staged observations into the bank.  Idempotent; the bank
   then reflects everything the series has seen so far. *)
let spill s =
  for i = s.spilled to s.staged - 1 do
    Sketch.observe_bank s.bank (Array.unsafe_get s.buf i)
  done;
  s.spilled <- s.staged

let series_bank s =
  spill s;
  s.bank

let stretch_sketch t = Option.map (fun s -> series_bank s.stretch) t.sketch

let hops_sketch t = Option.map (fun s -> series_bank s.hops) t.sketch

let latency_sketch t = Option.map (fun s -> series_bank s.lat) t.sketch

(* Feed one observation.  The fast path is a bounds-checked store into
   the staging buffer — no P2 marker arithmetic, no boxing, no libm —
   which is what keeps the sketch-armed forwarding leg inside the
   <= 1.10x CI budget (a full [Sketch.observe_bank] per sampled packet
   measured ~1.4x on short-walk topologies).  Once the buffer is full
   the series spills and feeds the bank directly. *)
let feed_series s v =
  let n = s.staged in
  if n < sketch_buf_cap then begin
    Array.unsafe_set s.buf n v;
    s.staged <- n + 1
  end
  else begin
    if s.spilled < n then spill s;
    Sketch.observe_bank s.bank v
  end

(* Linear scans: the edge arrays are tiny.  Top-level loops, not local
   closures, so a call allocates nothing.  Unsafe accesses — the scan
   never leaves the array and the bucket index is in range by
   construction; these run once per packet on the compiled kernel's
   probe path, which is on the CI overhead budget. *)
let rec stretch_bucket v i =
  if i >= Array.length stretch_edges || v <= Array.unsafe_get stretch_edges i
  then i
  else stretch_bucket v (i + 1)

let rec hops_bucket h i =
  if i >= Array.length hops_edges || h <= Array.unsafe_get hops_edges i then i
  else hops_bucket h (i + 1)

let depth_bucket d = if d < 0 then 0 else if d > max_depth then max_depth + 1 else d

let[@inline] bump a i = Array.unsafe_set a i (Array.unsafe_get a i + 1)

(* The packet-rate series decimate one observation in [sample]
   (countdown, no division): a full P2 update per packet per bank is
   what broke the <= 1.10x sketch-armed budget on short-walk topologies,
   and quantile estimates do not need every packet.  The first
   observation of each period is the one taken, so short runs still
   populate the sketches; per-probe countdowns are deterministic in the
   observation sequence, so sharded sweeps stay bit-identical however
   the items are partitioned.  The latency series is already decimated
   by [lat_sample] and feeds unconditionally. *)
let record_walk t ~hops ~depth =
  bump t.hops_hist (hops_bucket hops 0);
  bump t.depth_hist (depth_bucket depth);
  match t.sketch with
  | None -> ()
  | Some s ->
      let tick = s.hops_tick in
      if tick = 0 then begin
        s.hops_tick <- s.sample - 1;
        feed_series s.hops (float_of_int (max 1 hops))
      end
      else s.hops_tick <- tick - 1

let record_delivery t ~stretch ~hops ~depth =
  t.injected <- t.injected + 1;
  t.delivered <- t.delivered + 1;
  let acc = t.stretch_acc in
  acc.(s_sum) <- acc.(s_sum) +. stretch;
  if stretch > acc.(s_worst) then acc.(s_worst) <- stretch;
  bump t.stretch_hist (stretch_bucket stretch 0);
  (match t.sketch with
  | None -> ()
  | Some s ->
      let tick = s.stretch_tick in
      if tick = 0 then begin
        s.stretch_tick <- s.sample - 1;
        feed_series s.stretch stretch
      end
      else s.stretch_tick <- tick - 1);
  record_walk t ~hops ~depth

let record_loop t ~hops ~depth =
  t.injected <- t.injected + 1;
  t.looped <- t.looped + 1;
  record_walk t ~hops ~depth

let record_drop t ~reason ~hops ~depth =
  t.injected <- t.injected + 1;
  t.dropped <- t.dropped + 1;
  bump t.drops_by_reason reason;
  record_walk t ~hops ~depth

let record_unreachable t =
  t.injected <- t.injected + 1;
  t.unreachable <- t.unreachable + 1

let record_retry t = t.complementary_retries <- t.complementary_retries + 1

let record_lfa t = t.lfa_rescues <- t.lfa_rescues + 1

let record_dd_saturation t = t.dd_saturations <- t.dd_saturations + 1

let record_shortcut t = t.shortcut_exits <- t.shortcut_exits + 1

let record_episode t = t.pr_episodes <- t.pr_episodes + 1

let add_failure_hits t n = t.failure_hits <- t.failure_hits + n

let now_ns = Monotonic_clock.now

let record_latency t ~cls ~ns =
  let ns = Int64.to_int ns in
  let rec go b v = if v <= 1 || b >= lat_buckets - 1 then b else go (b + 1) (v asr 1) in
  let b = if ns <= 0 then 0 else go 0 (ns asr lat_lo) in
  bump t.rung_latency.(cls) b;
  match t.sketch with
  | None -> ()
  | Some s ->
      (* The latency series is decimated by [sample] on top of
         [lat_sample]: a loop-flooded walk files one latency per
         [lat_sample] of its thousands of slow-path decisions — a
         per-packet rate in the hundreds — and once the staging buffer
         has overflowed each feed pays full P2 marker updates, which
         measured +17% on loop-heavy campaign rows against the
         <= 1.10x budget.  The TTL bounds decisions per packet, so
         with both decimations the post-overflow worst case stays a
         few percent. *)
      let tick = s.lat_tick in
      if tick = 0 then begin
        s.lat_tick <- s.sample - 1;
        feed_series s.lat (float_of_int (max 1 ns))
      end
      else s.lat_tick <- tick - 1

let add_array ~into a = Array.iteri (fun i v -> into.(i) <- into.(i) + v) a

let merge ~into c =
  into.injected <- into.injected + c.injected;
  into.delivered <- into.delivered + c.delivered;
  into.dropped <- into.dropped + c.dropped;
  into.looped <- into.looped + c.looped;
  into.unreachable <- into.unreachable + c.unreachable;
  into.stretch_acc.(s_sum) <-
    into.stretch_acc.(s_sum) +. c.stretch_acc.(s_sum);
  if c.stretch_acc.(s_worst) > into.stretch_acc.(s_worst) then
    into.stretch_acc.(s_worst) <- c.stretch_acc.(s_worst);
  add_array ~into:into.drops_by_reason c.drops_by_reason;
  into.complementary_retries <-
    into.complementary_retries + c.complementary_retries;
  into.lfa_rescues <- into.lfa_rescues + c.lfa_rescues;
  into.dd_saturations <- into.dd_saturations + c.dd_saturations;
  into.shortcut_exits <- into.shortcut_exits + c.shortcut_exits;
  into.pr_episodes <- into.pr_episodes + c.pr_episodes;
  into.failure_hits <- into.failure_hits + c.failure_hits;
  add_array ~into:into.stretch_hist c.stretch_hist;
  add_array ~into:into.hops_hist c.hops_hist;
  add_array ~into:into.depth_hist c.depth_hist;
  Array.iteri (fun i a -> add_array ~into:into.rung_latency.(i) a) c.rung_latency;
  match (into.sketch, c.sketch) with
  | None, None -> ()
  | Some a, Some b ->
      (* Per series: fold the target's own staging first (fixed
         ordering is what makes sharded merges bit-identical), replay
         the source's unspilled staged values as a raw stream, then
         absorb whatever the source's bank already holds (its spilled
         prefix plus any overflow-era feeds).  A source that never
         overflowed and was never read has an empty bank, so merging it
         is a pure replay — exactly the stream a sequential sweep would
         have fed. *)
      let merge_series sa sb =
        spill sa;
        for i = sb.spilled to sb.staged - 1 do
          Sketch.observe_bank sa.bank (Array.unsafe_get sb.buf i)
        done;
        if Sketch.count sb.bank.(0) > 0 then
          Array.iteri (fun i s -> Sketch.merge ~into:sa.bank.(i) s) sb.bank
      in
      merge_series a.stretch b.stretch;
      merge_series a.hops b.hops;
      merge_series a.lat b.lat
  | _ -> invalid_arg "Probe.merge: sketch arming differs"

let equal_counts a b =
  a.injected = b.injected && a.delivered = b.delivered && a.dropped = b.dropped
  && a.looped = b.looped && a.unreachable = b.unreachable
  && Int64.bits_of_float (stretch_sum a) = Int64.bits_of_float (stretch_sum b)
  && Int64.bits_of_float (worst_stretch a)
     = Int64.bits_of_float (worst_stretch b)
  && a.drops_by_reason = b.drops_by_reason
  && a.complementary_retries = b.complementary_retries
  && a.lfa_rescues = b.lfa_rescues
  && a.dd_saturations = b.dd_saturations
  && a.shortcut_exits = b.shortcut_exits
  && a.pr_episodes = b.pr_episodes
  && a.failure_hits = b.failure_hits
  && a.stretch_hist = b.stretch_hist
  && a.hops_hist = b.hops_hist
  && a.depth_hist = b.depth_hist

let json_int_array a =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "]"

let json_float_array a =
  "["
  ^ String.concat "," (List.map Pr_util.Json.number (Array.to_list a))
  ^ "]"

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"injected\": %d,\n" t.injected;
  Printf.bprintf buf "  \"delivered\": %d,\n" t.delivered;
  Printf.bprintf buf "  \"dropped\": %d,\n" t.dropped;
  Printf.bprintf buf "  \"looped\": %d,\n" t.looped;
  Printf.bprintf buf "  \"unreachable\": %d,\n" t.unreachable;
  Printf.bprintf buf "  \"stretch_sum\": %s,\n"
    (Pr_util.Json.number (stretch_sum t));
  Printf.bprintf buf "  \"worst_stretch\": %s,\n"
    (Pr_util.Json.number (worst_stretch t));
  Printf.bprintf buf "  \"drop_reasons\": %s,\n"
    ("["
    ^ String.concat ","
        (Array.to_list
           (Array.mapi
              (fun i name ->
                Printf.sprintf "{\"reason\":%S,\"count\":%d}" name
                  t.drops_by_reason.(i))
              reason_names))
    ^ "]");
  Printf.bprintf buf "  \"complementary_retries\": %d,\n"
    t.complementary_retries;
  Printf.bprintf buf "  \"lfa_rescues\": %d,\n" t.lfa_rescues;
  Printf.bprintf buf "  \"dd_saturations\": %d,\n" t.dd_saturations;
  Printf.bprintf buf "  \"shortcut_exits\": %d,\n" t.shortcut_exits;
  Printf.bprintf buf "  \"pr_episodes\": %d,\n" t.pr_episodes;
  Printf.bprintf buf "  \"failure_hits\": %d,\n" t.failure_hits;
  Printf.bprintf buf "  \"stretch_hist\": {\"edges\": %s, \"counts\": %s},\n"
    (json_float_array stretch_edges)
    (json_int_array t.stretch_hist);
  Printf.bprintf buf "  \"hops_hist\": {\"edges\": %s, \"counts\": %s},\n"
    (json_int_array hops_edges)
    (json_int_array t.hops_hist);
  Printf.bprintf buf "  \"depth_hist\": {\"max_depth\": %d, \"counts\": %s},\n"
    max_depth
    (json_int_array t.depth_hist);
  (match t.sketch with
  | None -> ()
  | Some s ->
      let bank name sr =
        Printf.sprintf "%S: [%s]" name
          (String.concat ","
             (Array.to_list (Array.map Sketch.to_json (series_bank sr))))
      in
      Printf.bprintf buf "  \"sketch\": {\"qs\": %s, \"sample\": %d, %s, %s, %s},\n"
        (json_float_array sketch_qs)
        s.sample
        (bank "stretch" s.stretch)
        (bank "hops" s.hops)
        (bank "latency_ns" s.lat));
  Printf.bprintf buf
    "  \"rung_latency_ns\": {\"log2_lo\": %d, \"classes\": %s}\n" lat_lo
    ("{"
    ^ String.concat ","
        (Array.to_list
           (Array.mapi
              (fun i name ->
                Printf.sprintf "%S: %s" name (json_int_array t.rung_latency.(i)))
              class_names))
    ^ "}");
  Buffer.add_string buf "}\n";
  Buffer.contents buf
