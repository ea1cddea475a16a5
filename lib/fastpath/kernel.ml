module Graph = Pr_graph.Graph
module Forward = Pr_core.Forward
module Seen = Pr_core.Seen
module Trace = Pr_telemetry.Trace
module Probe = Pr_telemetry.Probe

(* Degradation codes written into the per-hop scratch buffer. *)
let d_retry = 0

let d_lfa = 1

let d_ddsat = 2

(* The buffers a kernel writes besides its walk registers: the three port
   planes, the cut list and the labelling's two n-int arrays.  One set per
   domain stays resident between calls ({!with_resident}), so nothing here
   may reference an image: the planes are repainted from whichever image
   takes them. *)
type buffers = {
  for_n : int;
  for_ports : int;
  view_plane : Bytes.t;
  truth_plane : Bytes.t;
  admin_plane : Bytes.t;
  mutable cut : int array;
      (* the port slots the last [set_failures] cut, both ends of each
         failed link, sorted in [0, ncut) *)
  mutable ncut : int;
  mutable repaint : bool;
      (* a plane was written since, other than by [set_failures]: the next
         one repaints in full instead of restoring [cut] *)
  mutable label : int array;  (* [components]' labels, [||] until used *)
  mutable queue : int array;  (* and its BFS queue *)
  mutable busy : bool;  (* a kernel of a running call holds them *)
}

(* Uninitialised planes: whoever takes them paints them in full. *)
let buffers ~n ~ports =
  {
    for_n = n;
    for_ports = ports;
    view_plane = Bytes.create (n * ports);
    truth_plane = Bytes.create (n * ports);
    admin_plane = Bytes.create (n * ports);
    cut = Array.make 8 0;
    ncut = 0;
    repaint = false;
    label = [||];
    queue = [||];
    busy = false;
  }

type t = {
  (* The bound image and every array read off it.  Mutable as a block:
     {!rebind} points the kernel at the next image of a lineage (a
     control-plane swap) by reassigning them together — a field read
     costs the same either way, so the hot loop is untouched. *)
  mutable fib : Fib.t;
  n : int;
  ports : int;
  mutable degree : int array;
  mutable port_node : int array;
  mutable port_weight : float array;
  mutable twin : int array;
  (* Route planes, one column per destination.  A walk indexes
     [plane.(dst)] at each read: keeping its column in a mutable field
     instead would cost a write barrier per walk. *)
  mutable next_hop_port : int array array;
  mutable disc_q : int array array;
  mutable distance : float array array;
  mutable dd_hops : bool;  (* the image's DD kind is [Hops] *)
  mutable cycle_col : int array;
  (* The planes of [bufs], held here too so that a hop reads them in one
     load. *)
  view : Bytes.t;
  truth : Bytes.t;
  admin : Bytes.t;
      (* the image's administrative plane: '\000' on both ports of an
         administratively down link.  Masked into every view/truth load
         so the ladder can never forward into a link the control plane
         removed — the cycle column is compiled against the base
         structure and still names its port. *)
  mutable default_ttl : int;
  (* Per-hop registers written by [decide].  Hot floats (the carried and
     outgoing DD, the cost accumulator) live in [fbuf] — a float array is
     unboxed storage, so the walk never boxes a float. *)
  degr : int array;
  fbuf : float array;
  mutable degr_len : int;
  mutable out_port : int;
  mutable out_pr : bool;
  mutable out_started : bool;
  mutable out_shortcut : bool;
  mutable hits : int;
  (* Shortcut rung ({!set_shortcut}): the per-node hint masks and the
     saturation threshold are configuration (recomputed on rebind); the
     hint bits and the latch are walk registers, reset per walk.  All
     pure functions of Pr_core.Seen, so the reference walk and this
     kernel agree bit for bit. *)
  mutable sc_on : bool;
  mutable sc_width : int;      (* requested hint width, -1 when off *)
  mutable sc_masks : int array;
  mutable sc_threshold : int;
  mutable sc_bits : int;
  mutable sc_sat : bool;
  (* Telemetry.  [trace] receives the decision-level events (emission
     points mirror Pr_core.Forward.decide line for line) and the walk's
     own [Hop]/verdict events; [probe] is fed by every walk.  Both
     default to off and cost nothing then: the fault-free fast path in
     [walk] reads neither. *)
  mutable trace : Trace.sink;
  mutable probe : Probe.t option;
  mutable ll : int array;
      (* link-load raw counters ([||] when off): the walk bumps a slot
         with local array arithmetic — a cross-module [record] call per
         hop is measurable on cycle-heavy sweeps.  The table's port width
         is required to equal the image's, so the walk reuses the port
         index it already holds. *)
  mutable capture : bool;
      (* {!run_one} is running: the walk conses onto the [cap_*] lists,
         newest first *)
  mutable armed : bool;
      (* some per-transmission sink is on — trace, link load or capture.
         The fault-free hop tests this one flag and nothing else. *)
  mutable cap_path : int list;
  mutable cap_episodes : (int * float) list;
  mutable cap_degr : Forward.degradation list;
  (* Per-walk registers, loaded by [prepare_walk] and read by the walk
     and the rungs off [t] so that [walk]/[transmit] keep few enough
     arguments to tail-call each other in registers. *)
  mutable walk_src : int;
  mutable walk_dd_term : bool;
  mutable walk_quantise : bool;
  mutable walk_max_dd_q : int;
  mutable walk_guard : int;
  mutable walk_ttl0 : int;
  mutable walk_ep0 : int;
  mutable seeded : bool;
      (* header state was injected ({!run_one}): TTL expiry is the
         walk-blowup fault, not a loop, as in [Forward.run_guarded] *)
  mutable guard_mode : bool;
      (* bounds-checked forwarding: every FIB-cell read that yields an
         out-of-range port or node becomes an accounted [Corrupt] verdict
         instead of an unsafe read.  Off (the default) costs one
         well-predicted bool test per check site. *)
  (* Guard-mode fault registers, written when a check fires and read back
     by [fault_of] at verdict time — integer registers so the hot loop
     never allocates a fault value. *)
  mutable fault_code : int;
  mutable fault_node : int;
  mutable fault_aux : int;
  mutable fault_dd : float;
  (* Loop fast-forward ([skip_step]), last so that no hot field moves.
     [skip_gate] is the TTL at or below which a slow-path decision calls
     [skip_step]: [max_int] once the skip is armed, and 0 once it is off,
     as a deciding walk always has a hop left.  The rest is Brent's
     checkpoint: the walk state, its TTL and the integer counters as they
     stood there, with the carried DD in [fbuf]. *)
  mutable skip_gate : int;
  mutable skip_power : int;
  mutable skip_steps : int;
  mutable skip_x : int;
  mutable skip_port : int;
  mutable skip_pr : bool;
  mutable skip_bits : int;
  mutable skip_sat : bool;
  mutable skip_ttl : int;
  mutable skip_hits : int;
  mutable skip_episodes : int;
  mutable skip_retries : int;
  mutable skip_rescues : int;
  mutable skip_saturations : int;
  mutable skip_exits : int;
  bufs : buffers;  (* after every walk field, so that none moves *)
}

(* [fbuf] slots. *)
let f_in_dd = 0   (* DD carried by the header arriving at this hop *)

let f_out_dd = 1  (* DD stamped on the forwarded header by [decide] *)

let f_cost = 2    (* weighted cost of the walk so far *)

let f_lfa_best = 3 (* cost + distance of the LFA rung's best candidate *)

let f_skip_dd = 4 (* carried DD at the fast-forward checkpoint *)

(* Repaint [t.admin] from the image's administrative link state: a loop,
   not [Graph.iter_edges], so that [rebind] allocates no closure. *)
let load_admin t =
  Bytes.fill t.admin 0 (Bytes.length t.admin) '\001';
  let live = Fib.raw_live t.fib and g = Fib.graph t.fib in
  for i = 0 to Array.length live - 1 do
    if not live.(i) then begin
      let e = Graph.edge g i in
      Bytes.set t.admin (Fib.slot t.fib ~node:e.u ~other:e.v) '\000';
      Bytes.set t.admin (Fib.slot t.fib ~node:e.v ~other:e.u) '\000'
    end
  done

(* No failures: both port planes are the admin plane. *)
let clear_failures t =
  Bytes.blit t.admin 0 t.view 0 (Bytes.length t.view);
  Bytes.blit t.admin 0 t.truth 0 (Bytes.length t.truth);
  t.bufs.ncut <- 0;
  t.bufs.repaint <- false

(* A kernel on [fib] over [bufs], painted as a fresh one: the admin plane
   from the image, view and truth equal to it, nothing cut. *)
let on_buffers fib bufs =
  let n = Fib.n fib and ports = Fib.ports fib in
  let t =
  {
    fib;
    n;
    ports;
    degree = Fib.raw_degree fib;
    port_node = Fib.raw_port_node fib;
    port_weight = Fib.raw_port_weight fib;
    twin = Fib.raw_twin fib;
    next_hop_port = Fib.raw_next_hop_port fib;
    disc_q = Fib.raw_disc_q fib;
    distance = Fib.raw_distance fib;
    dd_hops = Fib.kind fib = Pr_core.Discriminator.Hops;
    cycle_col = Fib.raw_cycle_col fib;
    view = bufs.view_plane;
    truth = bufs.truth_plane;
    admin = bufs.admin_plane;
    default_ttl = Forward.default_ttl (Fib.graph fib);
    degr = Array.make 8 0;
    fbuf = Array.make 5 0.0;
    degr_len = 0;
    out_port = -1;
    out_pr = false;
    out_started = false;
    out_shortcut = false;
    hits = 0;
    sc_on = false;
    sc_width = -1;
    sc_masks = [||];
    sc_threshold = max_int;
    sc_bits = 0;
    sc_sat = false;
    trace = Trace.null;
    probe = None;
    ll = [||];
    capture = false;
    armed = false;
    cap_path = [];
    cap_episodes = [];
    cap_degr = [];
    walk_src = 0;
    walk_dd_term = true;
    walk_quantise = false;
    walk_max_dd_q = -1;
    walk_guard = 0;
    walk_ttl0 = 0;
    walk_ep0 = 0;
    seeded = false;
    guard_mode = false;
    fault_code = 0;
    fault_node = -1;
    fault_aux = -1;
    fault_dd = 0.0;
    skip_gate = 0;
    skip_power = 0;
    skip_steps = 0;
    skip_x = -1;
    skip_port = -1;
    skip_pr = false;
    skip_bits = 0;
    skip_sat = false;
    skip_ttl = 0;
    skip_hits = 0;
    skip_episodes = 0;
    skip_retries = 0;
    skip_rescues = 0;
    skip_saturations = 0;
    skip_exits = 0;
    bufs;
  }
  in
  load_admin t;
  clear_failures t;
  t

let create fib = on_buffers fib (buffers ~n:(Fib.n fib) ~ports:(Fib.ports fib))

(* This domain's resident buffers, sized for the last image that took
   them. *)
let resident = Domain.DLS.new_key (fun () -> buffers ~n:0 ~ports:0)

let with_resident fib f =
  let r = Domain.DLS.get resident in
  if r.busy then f (create fib)
  else begin
    let n = Fib.n fib and ports = Fib.ports fib in
    let r =
      if r.for_n = n && r.for_ports = ports then r
      else begin
        let r = buffers ~n ~ports in
        Domain.DLS.set resident r;
        r
      end
    in
    r.busy <- true;
    Fun.protect
      ~finally:(fun () -> r.busy <- false)
      (fun () -> f (on_buffers fib r))
  end

let fib t = t.fib

let rebind t fib =
  if not (Graph.equal_structure (Fib.graph t.fib) (Fib.graph fib)) then
    invalid_arg "Kernel.rebind: image over a different base topology";
  t.fib <- fib;
  t.degree <- Fib.raw_degree fib;
  t.port_node <- Fib.raw_port_node fib;
  t.port_weight <- Fib.raw_port_weight fib;
  t.twin <- Fib.raw_twin fib;
  t.next_hop_port <- Fib.raw_next_hop_port fib;
  t.disc_q <- Fib.raw_disc_q fib;
  t.distance <- Fib.raw_distance fib;
  t.dd_hops <- Fib.kind fib = Pr_core.Discriminator.Hops;
  t.cycle_col <- Fib.raw_cycle_col fib;
  t.default_ttl <- Forward.default_ttl (Fib.graph fib);
  load_admin t;
  (* Keep the port-state planes sound until the caller reloads them: the
     new admin plane is masked in (a link the new image removed goes
     down at once); a link it restored stays down in the planes until
     the next [set_failures]/[fill_view]/[fill_truth] — conservative,
     never torn. *)
  for i = 0 to Bytes.length t.view - 1 do
    if Bytes.get t.admin i = '\000' then begin
      Bytes.set t.view i '\000';
      Bytes.set t.truth i '\000'
    end
  done;
  t.bufs.repaint <- true

(* A match, not [Trace.enabled]: a cross-module call is a real call in
   an unoptimised build, and a call on the walk spills its registers. *)
let[@inline] traced t =
  match t.trace with Trace.Null -> false | Trace.Emit _ -> true

let rearm t =
  t.armed <- t.capture || traced t || Array.length t.ll <> 0

let set_trace t sink =
  t.trace <- sink;
  rearm t

let set_guard t on = t.guard_mode <- on

let guarded t = t.guard_mode

let set_shortcut t width =
  match width with
  | None ->
      t.sc_on <- false;
      t.sc_width <- -1;
      t.sc_masks <- [||];
      t.sc_threshold <- max_int;
      t.sc_bits <- 0;
      t.sc_sat <- false
  | Some w ->
      let plan = Seen.plan ~nodes:t.n ~width:w in
      (* raises Invalid_argument on out-of-range widths, same as the
         reference's [Seen.plan] — one validation path for both backends *)
      t.sc_on <- true;
      t.sc_width <- w;
      t.sc_threshold <- Seen.threshold plan;
      t.sc_masks <-
        (if Fib.sc_width t.fib = plan.Seen.width then Fib.raw_sc_mask t.fib
         else Array.init t.n (Seen.mask_of plan));
      t.sc_bits <- 0;
      t.sc_sat <- false

let shortcut_width t = if t.sc_on then Some t.sc_width else None

let set_probe t probe = t.probe <- probe

let set_linkload t linkload =
  (match linkload with
  | Some ll
    when Pr_obs.Linkload.n ll <> Fib.n t.fib
         || Pr_obs.Linkload.ports ll <> max 1 t.ports ->
      invalid_arg
        "Kernel.set_linkload: table dimensions differ from the image's"
  | _ -> ());
  (t.ll <-
     match linkload with
     | None -> [||]
     | Some l -> Pr_obs.Linkload.raw_counts l);
  rearm t

(* ---- port state ---- *)

(* Slot [s] goes down in both planes and onto the cut list. *)
let cut_slot t s =
  let b = t.bufs in
  Bytes.set t.view s '\000';
  Bytes.set t.truth s '\000';
  if b.ncut = Array.length b.cut then begin
    let grown = Array.make (2 * b.ncut) 0 in
    Array.blit b.cut 0 grown 0 b.ncut;
    b.cut <- grown
  end;
  b.cut.(b.ncut) <- s;
  b.ncut <- b.ncut + 1

(* Both port slots of link [u]-[v]. *)
let cut_link t u v =
  cut_slot t (Fib.slot t.fib ~node:u ~other:v);
  cut_slot t (Fib.slot t.fib ~node:v ~other:u)

(* Insertion sort of [a.(0 .. len - 1)], in place: a cut list holds 2k
   slots for k failed links, and is nearly always short. *)
let sort_prefix (a : int array) len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Links are read by their endpoints, never by edge index: the failure
   set's graph need only be structurally equal to the image's, and may
   number its edges in another order.  Only the slots the previous call
   cut are restored, unless a plane was written since by anything else. *)
let set_failures t failures =
  if not (Graph.equal_structure (Fib.graph t.fib) (Pr_core.Failure.graph failures))
  then invalid_arg "Kernel.set_failures: failure set over a different graph";
  let b = t.bufs in
  if b.repaint then clear_failures t
  else begin
    for j = 0 to b.ncut - 1 do
      let s = b.cut.(j) in
      Bytes.set t.view s (Bytes.get t.admin s);
      Bytes.set t.truth s (Bytes.get t.admin s)
    done;
    b.ncut <- 0
  end;
  Pr_core.Failure.iter (cut_link t) failures;
  sort_prefix b.cut b.ncut

let fill_plane t plane f =
  t.bufs.repaint <- true;
  for x = 0 to t.n - 1 do
    for p = 0 to t.degree.(x) - 1 do
      let i = (x * t.ports) + p in
      let other = t.port_node.(i) in
      Bytes.set plane i
        (if f ~node:x ~other && Bytes.get t.admin i <> '\000' then '\001'
         else '\000')
    done
  done

let fill_view t f = fill_plane t t.view f

let fill_truth t f = fill_plane t t.truth f

let port_or_die t ~node ~other what =
  if node < 0 || node >= t.n || other < 0 || other >= t.n then
    invalid_arg
      (Printf.sprintf
         "Kernel.%s: node out of range (node %d, other %d, image has 0..%d)"
         what node other (t.n - 1));
  let p = Graph.port (Fib.graph t.fib) node other in
  if p < 0 then
    invalid_arg
      (Printf.sprintf "Kernel.%s: %d is not a neighbour of %d" what other node);
  p

let set_believed t ~node ~other ~up =
  let p = port_or_die t ~node ~other "set_believed" in
  let i = (node * t.ports) + p in
  t.bufs.repaint <- true;
  Bytes.set t.view i
    (if up && Bytes.get t.admin i <> '\000' then '\001' else '\000')

let believed_up t ~node ~other =
  let p = port_or_die t ~node ~other "believed_up" in
  Bytes.get t.view ((node * t.ports) + p) <> '\000'

(* ---- reachability under the loaded failure set ---- *)

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
let rec scan port_node label queue cut ncut ~root lo hi tail =
  if lo >= hi then tail
  else
    let w = Array.unsafe_get port_node lo in
    let l = Array.unsafe_get label w in
    if l >= 0 then scan port_node label queue cut ncut ~root (lo + 1) hi tail
    else if l = flagged then
      cross port_node label queue cut ncut ~root lo hi tail
    else begin
      Array.unsafe_set queue tail w;
      Array.unsafe_set label w root;
      scan port_node label queue cut ncut ~root (lo + 1) hi (tail + 1)
    end

(* Slot [lo] leads to a [flagged] node: skip the slot if it is cut, else
   unflag the node and let [scan] reach it. *)
and cross port_node label queue cut ncut ~root lo hi tail =
  if is_cut cut lo 0 ncut then
    scan port_node label queue cut ncut ~root (lo + 1) hi tail
  else begin
    Array.unsafe_set label (Array.unsafe_get port_node lo) unreached;
    scan port_node label queue cut ncut ~root lo hi tail
  end

(* One BFS over the degree/port_node planes into [b.label], with
   [b.queue] as its queue: array reads only, no hashtable probe. *)
let label_components t b =
  let n = t.n and ports = t.ports and port_node = t.port_node in
  let label = b.label and queue = b.queue and cut = b.cut and ncut = b.ncut in
  Array.fill label 0 n unreached;
  for j = 0 to ncut - 1 do
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
          scan port_node label queue cut ncut ~root lo (lo + t.degree.(x)) !tail
      done;
      labelled := !labelled + !tail
    end
  done

let components t =
  let b = t.bufs in
  (* The bridge table answers for an empty set or one link, both of whose
     slots are on the cut list. *)
  if
    Fib.connected t.fib
    && (b.ncut = 0
       || b.ncut = 2
          && not
               (Fib.is_bridge t.fib ~u:(b.cut.(0) / t.ports)
                  ~v:t.port_node.(b.cut.(0))))
  then None
  else begin
    if Array.length b.label <> t.n then begin
      b.label <- Array.make t.n 0;
      b.queue <- Array.make t.n 0
    end;
    label_components t b;
    Some b.label
  end

(* ---- the per-router decision, ported line-for-line from
   Pr_core.Forward.decide ---- *)

let note t c =
  t.degr.(t.degr_len) <- c;
  t.degr_len <- t.degr_len + 1

(* Drop codes; 0 = forwarded (out_* registers valid). *)
let c_no_route = 1

let c_interfaces_down = 2

let c_continuation_lost = 3

let c_budget_exhausted = 4

let c_corrupt = 5

(* Fault-register codes ([t.fault_code]). *)
let fc_impossible_dd = 1

let fc_not_neighbour = 2

let fc_cell = 3

let fc_walk_blowup = 4

(* Which FIB table a corrupt-cell guard fired on ([t.fault_aux]). *)
let cell_next_hop = 0

let cell_cycle = 1

let cell_port_node = 2

let cell_twin = 3

let cell_names = [| "next-hop-port"; "cycle-col"; "port-node"; "twin" |]

let fault_of t =
  if t.fault_code = fc_impossible_dd then
    Some (Forward.Impossible_dd { node = t.fault_node; dd = t.fault_dd })
  else if t.fault_code = fc_not_neighbour then
    Some (Forward.Not_neighbour { node = t.fault_node; from_ = t.fault_aux })
  else if t.fault_code = fc_cell then
    Some
      (Forward.Corrupt_cell
         { node = t.fault_node; cell = cell_names.(t.fault_aux) })
  else if t.fault_code = fc_walk_blowup then
    Some (Forward.Walk_blowup { hops = t.fault_aux })
  else None

(* A guard check fired: record the locus and drop with the corrupt code. *)
let corrupt_cell t ~node ~cell =
  t.fault_code <- fc_cell;
  t.fault_node <- node;
  t.fault_aux <- cell;
  c_corrupt

(* The rungs are top-level functions with explicit immediate arguments —
   no local closures, and no float parameters or returns (those would box
   on every call without flambda).  Float flow goes through [t.fbuf]:
   the walk stores the carried DD in [f_in_dd] before calling [decide],
   and [decide] leaves the DD of the forwarded header in [f_out_dd]. *)

let[@inline] up t base p = Bytes.unsafe_get t.view (base + p) <> '\000'

(* The forwarded header's DD must already be in [f_out_dd]. *)
let[@inline] forwarded t port ~pr ~started =
  t.out_port <- port;
  t.out_pr <- pr;
  t.out_started <- started;
  0

let[@inline] carried_sat ~max_dd_q q = max_dd_q >= 0 && q > max_dd_q

type reason =
  | No_route
  | Interfaces_down
  | Continuation_lost
  | Budget_exhausted
  | Stale_view
  | Corrupt

let reason_name = function
  | No_route -> "no-route"
  | Interfaces_down -> "interfaces-down"
  | Continuation_lost -> "continuation-lost"
  | Budget_exhausted -> "budget-exhausted"
  | Stale_view -> "stale-view"
  | Corrupt -> "corrupt"

let reason_of_code = function
  | 1 -> No_route
  | 2 -> Interfaces_down
  | 3 -> Continuation_lost
  | 5 -> Corrupt
  | _ -> Budget_exhausted

let drop_name_of_code c = reason_name (reason_of_code c)

(* [x]'s discriminator towards [dst] as the walk carries it, from its
   quantised cell [q]: [q] itself under the quantiser, else
   [Pr_core.Discriminator.of_cell]'s value, spelled out here so that the
   float is never boxed.  Under [Hops] a nonzero [q] is the hop count,
   and [q = 0] marks the destination or an unreachable node, whose
   distance, 0 or infinity, is the value. *)
let[@inline] local_dd t ~dst x q =
  if t.walk_quantise || (t.dd_hops && q <> 0) then float_of_int q
  else Array.unsafe_get (Array.unsafe_get t.distance dst) x

(* Forward.decide's [write_dd]: stamp the local discriminator (saturated
   at the bound) into [f_out_dd]. *)
let write_dd t ~dst x =
  let q = Array.unsafe_get (Array.unsafe_get t.disc_q dst) x in
  Array.unsafe_set t.fbuf f_out_dd
    (if carried_sat ~max_dd_q:t.walk_max_dd_q q then begin
       note t d_ddsat;
       if traced t then
         Trace.emit t.trace
           (Trace.Dd_saturated
              { node = x; dd = float_of_int t.walk_max_dd_q });
       float_of_int t.walk_max_dd_q
     end
     else local_dd t ~dst x q)

(* One step of the complementary rotation: forward on [candidate] if it
   is up, else count the hit and try the next port in the cycle column,
   [remaining] ports at most. *)
let rec rotate t base ~deg ~started candidate remaining =
  if t.guard_mode && (candidate < 0 || candidate >= deg) then
    corrupt_cell t ~node:(base / t.ports) ~cell:cell_cycle
  else if remaining = 0 then c_interfaces_down
  else if up t base candidate then forwarded t candidate ~pr:true ~started
  else begin
    t.hits <- t.hits + 1;
    rotate t base ~deg ~started
      (Array.unsafe_get t.cycle_col (base + candidate))
      (remaining - 1)
  end

(* Walk the rotation from the failed port; forwards with whatever DD is
   in [f_out_dd] (callers stamp it first). *)
let start_complementary t base ~deg failed_port ~started =
  if traced t then
    Trace.emit t.trace
      (Trace.Complementary
         {
           node = base / t.ports;
           failed = Array.unsafe_get t.port_node (base + failed_port);
         });
  rotate t base ~deg ~started
    (Array.unsafe_get t.cycle_col (base + failed_port))
    deg

let routed t base x ~dst ~deg =
  let p = Array.unsafe_get (Array.unsafe_get t.next_hop_port dst) x in
  if t.guard_mode && (p < -1 || p >= deg) then
    corrupt_cell t ~node:x ~cell:cell_next_hop
  else if p < 0 then c_no_route
  else if up t base p then begin
    Array.unsafe_set t.fbuf f_out_dd 0.0;
    forwarded t p ~pr:false ~started:false
  end
  else begin
    t.hits <- t.hits + 1;
    write_dd t ~dst x;
    if traced t then
      Trace.emit t.trace
        (Trace.Pr_set { node = x; dd = Array.unsafe_get t.fbuf f_out_dd });
    start_complementary t base ~deg p ~started:true
  end

(* Forward.decide's [lfa_rescue], the last rung: among the live ports
   other than the primary whose neighbour [w] passes RFC 5286's basic
   inequality [dist w < cost w + dist x], the cheapest [cost + dist w]
   takes the packet, ties to the smaller port.  One pass over the
   node's ports with the best key in [f_lfa_best].  The [up] test skips
   the primary, which the ladder only leaves when it is down, and the
   administratively down links, which the view masks. *)
let rec lfa_scan t base x ~deg ~dst ~reason p best =
  if p >= deg then
    if best < 0 then reason
    else begin
      note t d_lfa;
      if traced t then
        Trace.emit t.trace
          (Trace.Rung
             {
               node = x;
               rung = Trace.Lfa_rescue;
               reason = drop_name_of_code reason;
             });
      Array.unsafe_set t.fbuf f_out_dd 0.0;
      forwarded t best ~pr:false ~started:false
    end
  else if not (up t base p) then
    lfa_scan t base x ~deg ~dst ~reason (p + 1) best
  else begin
    let w = Array.unsafe_get t.port_node (base + p) in
    if t.guard_mode && (w < 0 || w >= t.n) then
      corrupt_cell t ~node:x ~cell:cell_port_node
    else begin
      let cost = Array.unsafe_get t.port_weight (base + p) in
      let dist = Array.unsafe_get t.distance dst in
      let dist_w = Array.unsafe_get dist w in
      let key = cost +. dist_w in
      if
        dist_w < cost +. Array.unsafe_get dist x
        && (best < 0 || key < Array.unsafe_get t.fbuf f_lfa_best)
      then begin
        Array.unsafe_set t.fbuf f_lfa_best key;
        lfa_scan t base x ~deg ~dst ~reason (p + 1) p
      end
      else lfa_scan t base x ~deg ~dst ~reason (p + 1) best
    end
  end

let ladder t base x ~dst ~deg ~reason ~try_complementary =
  let p = Array.unsafe_get (Array.unsafe_get t.next_hop_port dst) x in
  if t.guard_mode && (p < -1 || p >= deg) then
    corrupt_cell t ~node:x ~cell:cell_next_hop
  else if p < 0 then c_no_route
  else if up t base p then begin
    if traced t then
      Trace.emit t.trace
        (Trace.Rung
           {
             node = x;
             rung = Trace.Routed_resume;
             reason = drop_name_of_code reason;
           });
    Array.unsafe_set t.fbuf f_out_dd 0.0;
    forwarded t p ~pr:false ~started:false
  end
  else begin
    t.hits <- t.hits + 1;
    if try_complementary then begin
      note t d_retry;
      if traced t then
        Trace.emit t.trace
          (Trace.Rung
             {
               node = x;
               rung = Trace.Retry_complementary;
               reason = drop_name_of_code reason;
             });
      write_dd t ~dst x;
      if traced t then
        Trace.emit t.trace
          (Trace.Pr_set { node = x; dd = Array.unsafe_get t.fbuf f_out_dd });
      let r = start_complementary t base ~deg p ~started:true in
      if r = 0 then r else lfa_scan t base x ~deg ~dst ~reason 0 (-1)
    end
    else lfa_scan t base x ~deg ~dst ~reason 0 (-1)
  end

(* The carried DD is read from [f_in_dd]; the out header's DD is left in
   [f_out_dd].  The walk's termination scheme, quantiser, DD bound and
   budget guard are read from the [walk_*] registers. *)
let decide t ~hops_left ~dst ~x ~arrived_port ~pr =
  let base = x * t.ports in
  let deg = Array.unsafe_get t.degree x in
  t.out_shortcut <- false;
  if pr && t.walk_guard > 0 && hops_left <= t.walk_guard then
    ladder t base x ~dst ~deg ~reason:c_budget_exhausted
      ~try_complementary:false
  else if not pr then routed t base x ~dst ~deg
  else if arrived_port < 0 then routed t base x ~dst ~deg
  else begin
    (* Cycle following. *)
    let w = Array.unsafe_get t.cycle_col (base + arrived_port) in
    if t.guard_mode && (w < 0 || w >= deg) then
      corrupt_cell t ~node:x ~cell:cell_cycle
    else if up t base w then begin
      let m =
        if t.walk_dd_term && t.sc_on && not t.sc_sat then
          Array.unsafe_get t.sc_masks x
        else 0
      in
      if m <> 0 && t.sc_bits land m = m then begin
        (* Deja-vu on a live continuation: proactive §4.3 check, the
           mirror of the reference walk's shortcut grant.  Every decline
           falls through to plain cycle following, bit-identical to a
           kernel running with no hint at all. *)
        let dd = Array.unsafe_get t.fbuf f_in_dd in
        let q = Array.unsafe_get (Array.unsafe_get t.disc_q dst) x in
        let max_dd_q = t.walk_max_dd_q in
        let local_sat = carried_sat ~max_dd_q q in
        let header_sat = max_dd_q >= 0 && dd >= float_of_int max_dd_q in
        let local =
          if local_sat then float_of_int max_dd_q else local_dd t ~dst x q
        in
        let p = Array.unsafe_get (Array.unsafe_get t.next_hop_port dst) x in
        if
          (not (local_sat && header_sat))
          && local < dd && p >= 0
          && ((not t.guard_mode) || p < deg)
          && up t base p
        then begin
          (* A suspicious next-hop cell under guard mode *declines* the
             shortcut rather than faulting: the rung is an optimisation,
             so degrade-to-no-op keeps verdicts aligned with the
             reference, which never consults that cell here. *)
          if traced t then
            Trace.emit t.trace
              (Trace.Shortcut { node = x; local_dd = local; header_dd = dd });
          t.out_shortcut <- true;
          Array.unsafe_set t.fbuf f_out_dd 0.0;
          forwarded t p ~pr:false ~started:false
        end
        else begin
          Array.unsafe_set t.fbuf f_out_dd dd;
          forwarded t w ~pr:true ~started:false
        end
      end
      else begin
        Array.unsafe_set t.fbuf f_out_dd (Array.unsafe_get t.fbuf f_in_dd);
        forwarded t w ~pr:true ~started:false
      end
    end
    else begin
      t.hits <- t.hits + 1;
      if not t.walk_dd_term then routed t base x ~dst ~deg
      else begin
        let dd = Array.unsafe_get t.fbuf f_in_dd in
        let q = Array.unsafe_get (Array.unsafe_get t.disc_q dst) x in
        let max_dd_q = t.walk_max_dd_q in
        let local_sat = carried_sat ~max_dd_q q in
        let header_sat = max_dd_q >= 0 && dd >= float_of_int max_dd_q in
        if local_sat && header_sat then begin
          note t d_ddsat;
          if traced t then Trace.emit t.trace (Trace.Dd_refused { node = x });
          ladder t base x ~dst ~deg ~reason:c_continuation_lost
            ~try_complementary:true
        end
        else begin
          let local =
            if local_sat then float_of_int max_dd_q else local_dd t ~dst x q
          in
          let cleared = local < dd in
          if traced t then
            Trace.emit t.trace
              (Trace.Dd_compare
                 { node = x; local_dd = local; header_dd = dd; cleared });
          if cleared then routed t base x ~dst ~deg
          else begin
            Array.unsafe_set t.fbuf f_out_dd dd;
            start_complementary t base ~deg w ~started:false
          end
        end
      end
    end
  end

let degradation_of_code c =
  if c = d_retry then Forward.Retry_complementary
  else if c = d_lfa then Forward.Lfa_rescue
  else Forward.Dd_saturated

(* Link-load class of the hop just forwarded (registers still hot): a
   rescue rung outranks the PR-bit state it left behind; otherwise the
   header on the wire decides.  Matches the reference classification in
   {!Pr_core.Forward.run_guarded}: rescue > shortcut > recycled >
   shortest. *)
let[@inline] hop_cls t =
  let cls =
    ref
      (if t.out_shortcut then Pr_obs.Linkload.cls_shortcut
       else if t.out_pr then Pr_obs.Linkload.cls_recycled
       else Pr_obs.Linkload.cls_shortest)
  in
  for j = 0 to t.degr_len - 1 do
    let d = t.degr.(j) in
    if d = d_retry || d = d_lfa then cls := Pr_obs.Linkload.cls_rescue
  done;
  !cls

type result = {
  outcome : Forward.outcome;
  reason : reason option;
  path : int list;
  pr_episodes : int;
  failure_hits : int;
  max_dd : float;
  episodes : (int * float) list;
  degradations : Forward.degradation list;
  cost : float;
  fault : Forward.fault option;
  shortcuts : int;
}

type counters = {
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
  mutable pr_episodes : int;
  mutable failure_hits : int;
}

let all_reasons =
  [
    No_route;
    Interfaces_down;
    Continuation_lost;
    Budget_exhausted;
    Stale_view;
    Corrupt;
  ]

let reason_index = function
  | No_route -> 0
  | Interfaces_down -> 1
  | Continuation_lost -> 2
  | Budget_exhausted -> 3
  | Stale_view -> 4
  | Corrupt -> 5

let fresh_counters () =
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
    pr_episodes = 0;
    failure_hits = 0;
  }

let add_counters ~into c =
  into.injected <- into.injected + c.injected;
  into.delivered <- into.delivered + c.delivered;
  into.dropped <- into.dropped + c.dropped;
  into.looped <- into.looped + c.looped;
  into.unreachable <- into.unreachable + c.unreachable;
  into.stretch_sum <- into.stretch_sum +. c.stretch_sum;
  if c.worst_stretch > into.worst_stretch then
    into.worst_stretch <- c.worst_stretch;
  Array.iteri
    (fun i v -> into.drops_by_reason.(i) <- into.drops_by_reason.(i) + v)
    c.drops_by_reason;
  into.complementary_retries <- into.complementary_retries + c.complementary_retries;
  into.lfa_rescues <- into.lfa_rescues + c.lfa_rescues;
  into.dd_saturations <- into.dd_saturations + c.dd_saturations;
  into.shortcut_exits <- into.shortcut_exits + c.shortcut_exits;
  into.pr_episodes <- into.pr_episodes + c.pr_episodes;
  into.failure_hits <- into.failure_hits + c.failure_hits

let equal_counters a b =
  a.injected = b.injected && a.delivered = b.delivered && a.dropped = b.dropped
  && a.looped = b.looped && a.unreachable = b.unreachable
  && Int64.bits_of_float a.stretch_sum = Int64.bits_of_float b.stretch_sum
  && Int64.bits_of_float a.worst_stretch = Int64.bits_of_float b.worst_stretch
  && a.drops_by_reason = b.drops_by_reason
  && a.complementary_retries = b.complementary_retries
  && a.lfa_rescues = b.lfa_rescues
  && a.dd_saturations = b.dd_saturations
  && a.shortcut_exits = b.shortcut_exits
  && a.pr_episodes = b.pr_episodes
  && a.failure_hits = b.failure_hits

let record_unreachable c =
  c.injected <- c.injected + 1;
  c.unreachable <- c.unreachable + 1

let[@inline] probe_depth t c = c.pr_episodes - t.walk_ep0

(* The walk rule of the shortcut hint, applied after every successful
   forward: a PR-mode departure inserts the departing node; a hop whose
   outgoing PR bit is clear resets the hint.  Identical to the
   reference's [track_seen] over a {!Seen.t}. *)
let[@inline] track_seen t x =
  if t.sc_on then
    if t.out_pr then begin
      if not t.sc_sat then begin
        t.sc_bits <- t.sc_bits lor Array.unsafe_get t.sc_masks x;
        if Seen.popcount t.sc_bits > t.sc_threshold then t.sc_sat <- true
      end
    end
    else begin
      t.sc_bits <- 0;
      t.sc_sat <- false
    end

(* ---- loop fast-forward ---- *)

(* The walk is deterministic.  At a slow-path decision, everything the
   rest of the walk reads is the node, the arrival port, the PR bit, the
   carried DD and the shortcut hint bits and latch: the planes do not
   change during a walk, and the TTL is read only to end the walk and by
   the budget guard.  So once that state repeats [period] hops apart, the
   walk repeats those hops until its TTL runs out, never delivering or
   dropping.  The skip jumps over the whole periods that fit, adds their
   integer counts, and leaves the last part period to the ordinary walk
   and its TTL expiry, so verdicts and counters equal the full walk's.
   The float cost is not carried over: a looping walk never delivers, so
   it is never read.

   Only a walk that nothing watches skips: a trace, link load or
   {!run_one}'s capture must see every transmission.  A probed walk does
   not skip either: its hops and depth would survive the skip, but no
   referee checks that yet.  Nor one under a budget guard, whose
   routed-resume rung reads the TTL and can turn the loop into a
   delivery whose cost sums every hop.  That is decided at the walk's
   first decision past the warm-up, when {!run_one} has long armed its
   capture; before it, a walk pays one store and, per slow-path
   decision, the gate test. *)

(* Hops a walk makes before it looks for a repeat: a delivered walk
   seldom gets this far. *)
let skip_warmup = 64

(* Move Brent's checkpoint here: the state before this decision, [ttl]
   and the counters before it counts; the next [skip_power] decisions
   are compared against it. *)
let checkpoint t c ~x ~arrived_port ~pr ~ttl =
  t.skip_x <- x;
  t.skip_port <- arrived_port;
  t.skip_pr <- pr;
  t.skip_bits <- t.sc_bits;
  t.skip_sat <- t.sc_sat;
  Array.unsafe_set t.fbuf f_skip_dd (Array.unsafe_get t.fbuf f_in_dd);
  t.skip_ttl <- ttl;
  t.skip_hits <- t.hits;
  t.skip_episodes <- c.pr_episodes;
  t.skip_retries <- c.complementary_retries;
  t.skip_rescues <- c.lfa_rescues;
  t.skip_saturations <- c.dd_saturations;
  t.skip_exits <- c.shortcut_exits;
  t.skip_power <- 2 * t.skip_power;
  t.skip_steps <- 0

(* One step of Brent's cycle detection at a slow-path decision with
   [ttl] hops left; returns the TTL the walk goes on with.  On a repeat
   of the checkpoint it jumps the whole periods. *)
let skip_step t c ~x ~arrived_port ~pr ~ttl =
  if t.skip_gate < max_int then begin
    (* The first decision past the warm-up: arm, or turn the skip off. *)
    let watched = match t.probe with None -> t.armed | Some _ -> true in
    if watched || t.walk_guard > 0 then t.skip_gate <- 0
    else begin
      t.skip_gate <- max_int;
      t.skip_power <- 1;
      checkpoint t c ~x ~arrived_port ~pr ~ttl
    end;
    ttl
  end
  else if
    x = t.skip_x && arrived_port = t.skip_port && pr = t.skip_pr
    && t.sc_bits = t.skip_bits && t.sc_sat = t.skip_sat
    && Array.unsafe_get t.fbuf f_in_dd = Array.unsafe_get t.fbuf f_skip_dd
  then begin
    let period = t.skip_ttl - ttl in
    (* The state recurs at ttl - k * period while that is >= 1. *)
    let k = (ttl - 1) / period in
    t.hits <- t.hits + (k * (t.hits - t.skip_hits));
    c.pr_episodes <- c.pr_episodes + (k * (c.pr_episodes - t.skip_episodes));
    c.complementary_retries <-
      c.complementary_retries + (k * (c.complementary_retries - t.skip_retries));
    c.lfa_rescues <- c.lfa_rescues + (k * (c.lfa_rescues - t.skip_rescues));
    c.dd_saturations <-
      c.dd_saturations + (k * (c.dd_saturations - t.skip_saturations));
    c.shortcut_exits <-
      c.shortcut_exits + (k * (c.shortcut_exits - t.skip_exits));
    (* Under one period is left: no repeat can follow. *)
    t.skip_gate <- 0;
    ttl - (k * period)
  end
  else begin
    t.skip_steps <- t.skip_steps + 1;
    if t.skip_steps = t.skip_power then checkpoint t c ~x ~arrived_port ~pr ~ttl;
    ttl
  end

(* ---- the walk ---- *)

(* Check the endpoints and the TTL, load the per-walk registers and
   account the injection.  Inlined: as a call it is a measurable share of
   a short walk. *)
let[@inline] prepare_walk t c ~termination ~quantise ~dd_bits ~budget_guard
    ~ttl ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg
      (Printf.sprintf
         "Kernel: node out of range (src %d, dst %d, image has 0..%d)" src dst
         (t.n - 1));
  if src = dst then
    invalid_arg (Printf.sprintf "Kernel: src = dst (node %d)" src);
  let ttl0 = match ttl with Some v -> v | None -> t.default_ttl in
  (* The walk ends when its TTL reaches exactly 0. *)
  if ttl0 < 0 then invalid_arg (Printf.sprintf "Kernel: negative TTL %d" ttl0);
  t.hits <- 0;
  t.fault_code <- 0;
  t.sc_bits <- 0;
  t.sc_sat <- false;
  t.seeded <- false;
  t.walk_src <- src;
  t.walk_dd_term <- termination = Forward.Distance_discriminator;
  t.walk_quantise <- quantise;
  t.walk_max_dd_q <-
    (match dd_bits with None -> -1 | Some b -> Pr_core.Header.max_dd ~dd_bits:b);
  t.walk_guard <- budget_guard;
  t.walk_ttl0 <- ttl0;
  t.skip_gate <- ttl0 - skip_warmup;
  t.walk_ep0 <- c.pr_episodes;
  c.injected <- c.injected + 1;
  t.fbuf.(f_in_dd) <- 0.0;
  t.fbuf.(f_cost) <- 0.0

let[@inline] finish_walk t c = c.failure_hits <- c.failure_hits + t.hits

let deliver t c ~dst ~hops =
  c.delivered <- c.delivered + 1;
  let stretch =
    Array.unsafe_get t.fbuf f_cost
    /. Array.unsafe_get (Array.unsafe_get t.distance dst) t.walk_src
  in
  c.stretch_sum <- c.stretch_sum +. stretch;
  if stretch > c.worst_stretch then c.worst_stretch <- stretch;
  if traced t then Trace.emit t.trace (Trace.Deliver { node = dst; hops });
  match t.probe with
  | None -> ()
  | Some p -> Probe.record_delivery p ~stretch ~hops ~depth:(probe_depth t c)

let drop t c ~node reason ~hops =
  c.dropped <- c.dropped + 1;
  let r = reason_index reason in
  c.drops_by_reason.(r) <- c.drops_by_reason.(r) + 1;
  if traced t then
    Trace.emit t.trace (Trace.Drop { node; reason = reason_name reason });
  match t.probe with
  | None -> ()
  | Some p -> Probe.record_drop p ~hops ~depth:(probe_depth t c)

(* A guard check fired on a cell read at [node]. *)
let corrupt_drop t c ~node ~cell ~hops =
  ignore (corrupt_cell t ~node ~cell);
  drop t c ~node Corrupt ~hops

(* TTL expiry: a loop, or the walk-blowup fault for a seeded walk,
   matching {!Pr_core.Forward.run_guarded}. *)
let expire t c ~node =
  let hops = t.walk_ttl0 in
  if t.seeded then begin
    t.fault_code <- fc_walk_blowup;
    t.fault_node <- node;
    t.fault_aux <- hops;
    drop t c ~node Corrupt ~hops
  end
  else begin
    c.looped <- c.looped + 1;
    if traced t then Trace.emit t.trace (Trace.Expire { node; hops });
    match t.probe with
    | None -> ()
    | Some p -> Probe.record_drop p ~hops ~depth:(probe_depth t c)
  end

(* Account the degradations [decide] just noted. *)
let note_degradations t c =
  for j = 0 to t.degr_len - 1 do
    let d = t.degr.(j) in
    if d = d_retry then c.complementary_retries <- c.complementary_retries + 1
    else if d = d_lfa then c.lfa_rescues <- c.lfa_rescues + 1
    else c.dd_saturations <- c.dd_saturations + 1;
    if t.capture then t.cap_degr <- degradation_of_code d :: t.cap_degr
  done

(* The armed sinks of one transmission from [x] to [next] through port
   slot [slot]: the [Hop] event, the link-load count in class [cls] and
   the captured path.  A header leaving without the PR bit carries DD 0. *)
let on_wire t ~x ~next ~slot ~pr ~cls =
  if traced t then begin
    let dd = if pr then Array.unsafe_get t.fbuf f_out_dd else 0.0 in
    Trace.emit t.trace (Trace.Hop { node = x; next; pr; dd })
  end;
  let ll = t.ll and i = (slot * 4) + cls in
  if Array.length ll <> 0 then Array.unsafe_set ll i (ll.(i) + 1);
  if t.capture then t.cap_path <- next :: t.cap_path

(* The compiled walk: source to verdict, accounted into [c].  One hop is
   [walk] (arrival: verdict tests, then the fault-free routed hop or
   [decide_hop]) followed by [transmit] (the wire).  Every call between
   the stages, and every exit to a verdict, is a tail call with at most
   eight immediate arguments: registers only, and no allocation.  A
   non-tail call spills its live values at the nearest join, so calls
   sit on branches that end in a tail call.  The probe sees only
   verdicts, one feed per packet; every other sink rides behind the one
   [t.armed] test in [transmit]. *)
let rec walk t c ~dst x arrived_port pr ttl =
  if x = dst then deliver t c ~dst ~hops:(t.walk_ttl0 - ttl)
  else if ttl = 0 then expire t c ~node:x
  else begin
    let base = x * t.ports in
    let p =
      if pr then -1
      else Array.unsafe_get (Array.unsafe_get t.next_hop_port dst) x
    in
    if
      p >= 0
      && ((not t.guard_mode) || p < Array.unsafe_get t.degree x)
      && Bytes.unsafe_get t.view (base + p) <> '\000'
    then
      (* Fault-free routed hop — [decide] reduces to a fresh forward with
         no degradations, no episode, no event, and a zero DD that the
         next (non-PR) hop never reads.  Class 0 is shortest-path (a
         literal: a cross-module constant is a load here). *)
      transmit t c ~dst x (base + p) false ttl ~cls:0
    else decide_hop t c ~dst x arrived_port pr ttl
  end

and decide_hop t c ~dst x arrived_port pr ttl =
  let ttl =
    if ttl <= t.skip_gate then skip_step t c ~x ~arrived_port ~pr ~ttl else ttl
  in
  t.degr_len <- 0;
  let code = decide t ~hops_left:ttl ~dst ~x ~arrived_port ~pr in
  if t.degr_len <> 0 then note_degradations t c;
  if code <> 0 then
    drop t c ~node:x (reason_of_code code) ~hops:(t.walk_ttl0 - ttl)
  else begin
    if t.out_started then begin
      c.pr_episodes <- c.pr_episodes + 1;
      if t.capture then
        t.cap_episodes <-
          (x, Array.unsafe_get t.fbuf f_out_dd) :: t.cap_episodes
    end;
    if t.out_shortcut then c.shortcut_exits <- c.shortcut_exits + 1;
    track_seen t x;
    let cls = if t.armed then hop_cls t else 0 in
    transmit t c ~dst x ((x * t.ports) + t.out_port) t.out_pr ttl ~cls
  end

(* The hop leaves [x] through port slot [slot] with PR bit [pr] and
   link-load class [cls]; armed sinks see it on the wire, before any
   stale-view death.  With trace or capture armed it feeds [on_wire] and
   re-enters with [cls = -1], the sinks having seen this transmission;
   with link load alone, the count is bumped in place. *)
and transmit t c ~dst x slot pr ttl ~cls =
  let next = Array.unsafe_get t.port_node slot in
  (* Tests are let-bound where a call follows: as an [if] condition, [&&]
     compiles to a shared else-branch, a join after the call that would
     spill every argument on every hop. *)
  let bad = t.guard_mode && (next < 0 || next >= t.n || next = x) in
  let hook = t.armed && cls >= 0 && (t.capture || traced t) in
  if bad then
    corrupt_drop t c ~node:x ~cell:cell_port_node ~hops:(t.walk_ttl0 - ttl)
  else if hook then begin
    on_wire t ~x ~next ~slot ~pr ~cls;
    transmit t c ~dst x slot pr ttl ~cls:(-1)
  end
  else begin
    if t.armed && cls >= 0 then begin
      let i = (slot * 4) + cls in
      Array.unsafe_set t.ll i (Array.unsafe_get t.ll i + 1)
    end;
    if Bytes.unsafe_get t.truth slot = '\000' then begin
      (* Sent into a link the sender wrongly believed up: lost on the
         wire, the failed hop recorded on the path (engine convention). *)
      if traced t then
        Trace.emit t.trace
          (Trace.Divergence { node = x; other = next; believed_up = true });
      drop t c ~node:next Stale_view ~hops:(t.walk_ttl0 - ttl + 1)
    end
    else begin
      let ap = Array.unsafe_get t.twin slot in
      if t.guard_mode && (ap < 0 || ap >= Array.unsafe_get t.degree next)
      then
        corrupt_drop t c ~node:next ~cell:cell_twin ~hops:(t.walk_ttl0 - ttl)
      else begin
        if pr then
          Array.unsafe_set t.fbuf f_in_dd (Array.unsafe_get t.fbuf f_out_dd);
        Array.unsafe_set t.fbuf f_cost
          (Array.unsafe_get t.fbuf f_cost
          +. Array.unsafe_get t.port_weight slot);
        walk t c ~dst next ap pr (ttl - 1)
      end
    end
  end

let forward_into ?(termination = Forward.Distance_discriminator)
    ?(quantise = false) ?dd_bits ?(budget_guard = 0) ?ttl t c ~src ~dst =
  prepare_walk t c ~termination ~quantise ~dd_bits ~budget_guard ~ttl ~src
    ~dst;
  walk t c ~dst src (-1) false t.walk_ttl0;
  finish_walk t c

(* Entry guards over injected state, in the reference order: impossible
   DD first, then the claimed previous hop.  Sets the fault registers. *)
let entry_fault t (header : Forward.hop_header) arrived_from ~src =
  let dd = header.Forward.dd_value in
  if
    header.Forward.pr_bit
    && (Float.is_nan dd || dd < 0.0 || dd = Float.infinity
       || (t.walk_max_dd_q >= 0 && dd > float_of_int t.walk_max_dd_q))
  then begin
    t.fault_code <- fc_impossible_dd;
    t.fault_node <- src;
    t.fault_dd <- dd;
    true
  end
  else
    match arrived_from with
    | Some y when y < 0 || y >= t.n || Graph.port (Fib.graph t.fib) src y < 0 ->
        t.fault_code <- fc_not_neighbour;
        t.fault_node <- src;
        t.fault_aux <- y;
        true
    | _ -> false

let run_one ?(termination = Forward.Distance_discriminator) ?(quantise = false)
    ?dd_bits ?(budget_guard = 0) ?ttl ?(header = Forward.fresh_header)
    ?arrived_from t ~src ~dst =
  let c = fresh_counters () in
  prepare_walk t c ~termination ~quantise ~dd_bits ~budget_guard ~ttl ~src
    ~dst;
  t.seeded <- header <> Forward.fresh_header || arrived_from <> None;
  t.cap_path <- [ src ];
  t.cap_episodes <- [];
  t.cap_degr <- [];
  t.capture <- true;
  rearm t;
  if entry_fault t header arrived_from ~src then
    drop t c ~node:src Corrupt ~hops:0
  else begin
    let ap0 =
      match arrived_from with
      | None -> -1
      | Some y -> Graph.port (Fib.graph t.fib) src y
    in
    t.fbuf.(f_in_dd) <- header.Forward.dd_value;
    walk t c ~dst src ap0 header.Forward.pr_bit t.walk_ttl0
  end;
  finish_walk t c;
  t.capture <- false;
  rearm t;
  let reason =
    List.find_opt (fun r -> c.drops_by_reason.(reason_index r) <> 0) all_reasons
  in
  let episodes = List.rev t.cap_episodes in
  {
    outcome =
      (match reason with
      | Some No_route -> Forward.Dropped_unreachable
      | Some Corrupt -> Forward.Dropped_corrupt
      | Some _ -> Forward.Dropped_no_interface
      | None when c.delivered <> 0 -> Forward.Delivered
      | None -> Forward.Ttl_exceeded);
    reason;
    path = List.rev t.cap_path;
    pr_episodes = c.pr_episodes;
    failure_hits = c.failure_hits;
    max_dd = List.fold_left (fun m (_, d) -> if d > m then d else m) 0.0 episodes;
    episodes;
    degradations = List.rev t.cap_degr;
    cost = t.fbuf.(f_cost);
    fault = fault_of t;
    shortcuts = c.shortcut_exits;
  }

let to_trace t r =
  {
    Forward.outcome = r.outcome;
    path = r.path;
    pr_episodes = r.pr_episodes;
    failure_hits = r.failure_hits;
    max_header =
      { Pr_core.Header.pr = r.pr_episodes > 0; dd = Fib.quantise_dd t.fib r.max_dd };
    episodes = r.episodes;
    shortcuts = r.shortcuts;
  }
