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
  mutable stretch_tick : int;
  mutable hops_tick : int;
  stretch : series;
  hops : series;
}

type t = {
  sketch : sketches option;
  stretch_hist : int array;
  hops_hist : int array;
  depth_hist : int array;
}

let stretch_edges = [| 1.0; 1.2; 1.5; 2.0; 3.0; 4.0; 6.0; 8.0; 16.0 |]

let hops_edges = [| 1; 2; 4; 8; 16; 32; 64; 128; 256 |]

let max_depth = 8

let default_sketch_sample = 8

let sketch_qs = [| 0.5; 0.9; 0.99 |]

(* Staging capacity per series: 4096 floats (32 KiB).  At the default
   decimation this covers items of ~32k walks — every paper topology
   and the scale campaign's per-scenario items stay fully staged, so
   their merges are exact replays; only genuinely huge shards degrade
   to marker-state merging. *)
let sketch_buf_cap = 4096

let create ?(sketch = false) () =
  {
    sketch =
      (if not sketch then None
       else
         (* Both series are heavy-tailed multiplicative quantities with
            (roughly) geometric histogram edges: log-domain sketches to
            match.  Stretch is >= 1 by construction, hops are clamped to
            >= 1 at the feed. *)
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
             stretch_tick = 0;
             hops_tick = 0;
             stretch = series ();
             hops = series ();
           });
    stretch_hist = Array.make (Array.length stretch_edges + 1) 0;
    hops_hist = Array.make (Array.length hops_edges + 1) 0;
    depth_hist = Array.make (max_depth + 2) 0;
  }

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

(* The sketch series decimate one observation in [default_sketch_sample]
   (countdown, no division): a full P2 update per packet per bank is
   what broke the <= 1.10x sketch-armed budget on short-walk topologies,
   and quantile estimates do not need every packet.  The first
   observation of each period is the one taken, so short runs still
   populate the sketches; per-probe countdowns are deterministic in the
   observation sequence, so sharded sweeps stay bit-identical however
   the items are partitioned. *)
let record_walk t ~hops ~depth =
  bump t.hops_hist (hops_bucket hops 0);
  bump t.depth_hist (depth_bucket depth);
  match t.sketch with
  | None -> ()
  | Some s ->
      let tick = s.hops_tick in
      if tick = 0 then begin
        s.hops_tick <- default_sketch_sample - 1;
        feed_series s.hops (float_of_int (max 1 hops))
      end
      else s.hops_tick <- tick - 1

let record_delivery t ~stretch ~hops ~depth =
  bump t.stretch_hist (stretch_bucket stretch 0);
  (match t.sketch with
  | None -> ()
  | Some s ->
      let tick = s.stretch_tick in
      if tick = 0 then begin
        s.stretch_tick <- default_sketch_sample - 1;
        feed_series s.stretch stretch
      end
      else s.stretch_tick <- tick - 1);
  record_walk t ~hops ~depth

let record_drop = record_walk

(* A loop, not [Array.iteri]: a merge per item allocates no closure. *)
let add_array ~into a =
  for i = 0 to Array.length a - 1 do
    into.(i) <- into.(i) + a.(i)
  done

let merge ~into c =
  add_array ~into:into.stretch_hist c.stretch_hist;
  add_array ~into:into.hops_hist c.hops_hist;
  add_array ~into:into.depth_hist c.depth_hist;
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
      merge_series a.hops b.hops
  | _ -> invalid_arg "Probe.merge: sketch arming differs"

let equal_counts a b =
  a.stretch_hist = b.stretch_hist
  && a.hops_hist = b.hops_hist
  && a.depth_hist = b.depth_hist

let json_int_array a =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "]"

let json_float_array a =
  "["
  ^ String.concat "," (List.map Pr_util.Json.number (Array.to_list a))
  ^ "]"

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"stretch_hist\": {\"edges\": %s, \"counts\": %s},\n"
    (json_float_array stretch_edges)
    (json_int_array t.stretch_hist);
  Printf.bprintf buf "  \"hops_hist\": {\"edges\": %s, \"counts\": %s},\n"
    (json_int_array hops_edges)
    (json_int_array t.hops_hist);
  Printf.bprintf buf "  \"depth_hist\": {\"max_depth\": %d, \"counts\": %s}"
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
      Printf.bprintf buf ",\n  \"sketch\": {\"qs\": %s, \"sample\": %d, %s, %s}"
        (json_float_array sketch_qs)
        default_sketch_sample
        (bank "stretch" s.stretch)
        (bank "hops" s.hops));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
