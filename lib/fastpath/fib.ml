module Graph = Pr_graph.Graph
module Connectivity = Pr_graph.Connectivity
module Dijkstra = Pr_graph.Dijkstra
module Routing = Pr_core.Routing
module Cycle_table = Pr_core.Cycle_table

(* Structure planes are flat, [x * ports + p]; route planes are one
   column per destination, [dst] then [x], and an image of a lineage
   shares every column it did not repair with its parent. *)
type t = {
  g : Graph.t;
  kind : Pr_core.Discriminator.kind;
  n : int;
  ports : int;
  degree : int array;              (* [n] *)
  port_node : int array;           (* [n*ports] *)
  port_weight : float array;       (* [n*ports] *)
  twin : int array;                (* [n*ports]: the far end's port back *)
  next_hop_port : int array array; (* [n] columns of [n] *)
  disc_q : int array array;        (* [n] columns of [n] *)
  distance : float array array;    (* [n] columns of [n] *)
  cycle_col : int array;           (* [n*ports] *)
  dd_bits : int;
  sc_width : int;            (* effective shortcut-hint width (plan width) *)
  sc_mask : int array;       (* [n]: per-node seen-hint contribution *)
  live : bool array;         (* [m], by base edge index: administratively up *)
  eff_weight : float array;  (* [m], by base edge index: effective weight *)
  bridges : int array;       (* the base graph's bridges, sorted edge indices *)
  connected : bool;          (* the base graph is connected *)
}

(* Shortcut plane: per-node hint masks compiled once per image under the
   default header budget.  Purely structural (a function of the node
   count alone), so Delta recompiles copy it through untouched. *)
let default_sc_width = 16

(* The bridge table: the base graph's bridges as sorted edge indices, and
   whether that graph is connected.  Structural, like the port planes, so
   it is computed once per base structure and every image of the lineage
   shares it. *)
let bridge_table g =
  let bridges =
    Array.of_list
      (List.map (fun (u, v) -> Graph.edge_index g u v) (Connectivity.bridges g))
  in
  Array.sort Int.compare bridges;
  (bridges, Connectivity.is_connected g)

type mismatch =
  | Node_count of { routing : int; cycles : int }
  | Edge of { u : int; v : int }

type error =
  | Port_overflow of { node : int; degree : int; ports : int }
  | Graph_mismatch of mismatch

let describe_error = function
  | Port_overflow { node; degree; ports } ->
      Printf.sprintf
        "Fib: node %d has degree %d, exceeding the image's port width %d" node
        degree ports
  | Graph_mismatch (Node_count { routing; cycles }) ->
      Printf.sprintf
        "Fib: routing and cycle tables are built over different graphs \
         (%d vs %d nodes)"
        routing cycles
  | Graph_mismatch (Edge { u; v }) ->
      Printf.sprintf
        "Fib: routing and cycle tables are built over different graphs \
         (they disagree on link %d-%d)"
        u v

(* First concrete disagreement between two graphs known not to be
   structurally equal: an edge present in only one of them, or present in
   both with different weights. *)
let find_mismatch g1 g2 =
  if Graph.n g1 <> Graph.n g2 then
    Node_count { routing = Graph.n g1; cycles = Graph.n g2 }
  else
    let witness = ref None in
    let check a b =
      Graph.iter_edges
        (fun _ (e : Graph.edge) ->
          if
            !witness = None
            && (not (Graph.has_edge b e.u e.v)
               || Graph.weight b e.u e.v <> e.w)
          then witness := Some (Edge { u = e.u; v = e.v }))
        a
    in
    check g1 g2;
    check g2 g1;
    match !witness with Some m -> m | None -> Edge { u = -1; v = -1 }

(* Sampled per-destination compile costs from the most recent
   span-recorded [fill] on this domain: (dst, ns) pairs for every k-th
   destination column, k sized for at most [cost_samples] samples.  Only
   collected while a Span recorder is installed, and consumed by the
   [prcli report --compile] hotspot table. *)
let cost_samples = 512

let last_costs : (int * int64) list ref = ref []

let last_compile_costs () = List.rev !last_costs

(* The one compiler from SPF trees ([tree dst]) to an image's route
   columns, over [t]'s structure and admin state: fresh columns for every
   destination, each destination's three written one after another;
   [t]'s are never read.  {!of_tables} and [Delta.recompile] compile
   through it; [Delta.apply] repairs its parent's columns instead,
   through the same DD cell writer. *)
let fill t ~tree =
  let { n; ports; port_node; _ } = t in
  let next_hop_port = Array.make n [||] in
  let disc_q = Array.make n [||] in
  let distance = Array.make n [||] in
  let recording = Pr_telemetry.Span.recording () in
  if recording then last_costs := [];
  let sample_every = max 1 (n / cost_samples) in
  Pr_telemetry.Span.timed "fib.compile.routes" (fun () ->
      for dst = 0 to n - 1 do
        let sampled = recording && dst mod sample_every = 0 in
        let t0 = if sampled then Pr_telemetry.Span.now () else 0L in
        let tree : Dijkstra.tree = tree dst in
        let parent = tree.parent in
        (* [x]'s next hop is its port to its parent, found by a scan of
           its own row; none at the destination itself or when
           unreachable. *)
        let hop = Array.make n (-1) in
        for x = 0 to n - 1 do
          let p = parent.(x) in
          if x <> dst && p >= 0 then begin
            let base = x * ports in
            let s = ref base in
            while port_node.(!s) <> p do
              incr s
            done;
            hop.(x) <- !s - base
          end
        done;
        next_hop_port.(dst) <- hop;
        distance.(dst) <- Array.copy tree.dist;
        let q = Array.make n 0 in
        Pr_core.Discriminator.column t.kind tree q;
        disc_q.(dst) <- q;
        if sampled then begin
          last_costs :=
            (dst, Int64.sub (Pr_telemetry.Span.now ()) t0) :: !last_costs;
          Pr_telemetry.Flight.Progress.tick
            ~frac:(float_of_int dst /. float_of_int n)
            ()
        end
      done);
  { t with next_hop_port; disc_q; distance }

let of_tables ?ports routing cycles =
  Pr_telemetry.Span.timed "fib.compile" @@ fun () ->
  let g = Routing.graph routing in
  if not (Graph.equal_structure g (Cycle_table.graph cycles)) then
    Error (Graph_mismatch (find_mismatch g (Cycle_table.graph cycles)))
  else begin
    let n = Graph.n g in
    let width = match ports with Some p -> p | None -> Graph.max_degree g in
    let overflow = ref None in
    for x = n - 1 downto 0 do
      let d = Graph.degree g x in
      if d > width then overflow := Some (Port_overflow { node = x; degree = d; ports = width })
    done;
    match !overflow with
    | Some e -> Error e
    | None ->
        let degree = Array.init n (Graph.degree g) in
        let port_node = Array.make (n * width) (-1) in
        let port_weight = Array.make (n * width) 0.0 in
        let twin = Array.make (n * width) (-1) in
        Pr_telemetry.Span.timed "fib.compile.ports" (fun () ->
            for x = 0 to n - 1 do
              let row = Graph.neighbours g x and weights = Graph.slot_weights g x in
              for p = 0 to Array.length row - 1 do
                let w = row.(p) in
                port_node.((x * width) + p) <- w;
                port_weight.((x * width) + p) <- weights.(p);
                twin.((x * width) + p) <- Graph.port g w x
              done
            done);
        let cycle_col = Array.make (n * width) (-1) in
        Pr_telemetry.Span.timed "fib.compile.cycles" (fun () ->
            for x = 0 to n - 1 do
              Array.iteri
                (fun p w ->
                  let next = Cycle_table.cycle_next cycles ~node:x ~from_:w in
                  cycle_col.((x * width) + p) <- Graph.port g x next)
                (Graph.neighbours g x)
            done);
        let sc_plan = Pr_core.Seen.plan ~nodes:n ~width:default_sc_width in
        let bridges, connected =
          Pr_telemetry.Span.timed "fib.compile.bridges" (fun () -> bridge_table g)
        in
        (* Structure and an all-live admin state; [fill] writes the route
           columns. *)
        let structure =
          { g; kind = Routing.kind routing; n; ports = width; degree; port_node;
            port_weight; twin; cycle_col; dd_bits = Routing.dd_bits routing;
            next_hop_port = [||]; disc_q = [||]; distance = [||];
            sc_width = sc_plan.Pr_core.Seen.width;
            sc_mask = Array.init n (Pr_core.Seen.mask_of sc_plan);
            live = Array.make (Graph.m g) true;
            eff_weight = Array.init (Graph.m g) (fun i -> (Graph.edge g i).Graph.w);
            bridges; connected }
        in
        Ok (fill structure ~tree:(Routing.tree routing))
  end

let of_tables_exn ?ports routing cycles =
  match of_tables ?ports routing cycles with
  | Ok t -> t
  | Error e -> invalid_arg (describe_error e)

let graph t = t.g

let n t = t.n

let kind t = t.kind

let ports t = t.ports

let degree t x = t.degree.(x)

let dd_bits t = t.dd_bits

let sc_width t = t.sc_width

let quantise_dd t v = Pr_core.Discriminator.quantise t.kind v

(* ---- memory-footprint accounting ---- *)

type plane = { plane : string; words : int; bytes : int }

type footprint = {
  planes : plane list;
  total_bytes : int;
  bytes_per_router : float;
}

let word_bytes = Sys.word_size / 8

let footprint t =
  (* Payload words per plane: every cell is one word (ints, unboxed
     floats in float arrays, immediate bools), so bytes = words * word
     size.  A flat plane's one array header is excluded, as it vanishes
     at scale; a column plane also counts two words per column, the
     column's header and its pointer in the plane. *)
  let p name a = { plane = name; words = a; bytes = a * word_bytes } in
  let columns c = Array.fold_left (fun a col -> a + Array.length col + 2) 0 c in
  let planes =
    [
      p "degree" (Array.length t.degree);
      p "port_node" (Array.length t.port_node);
      p "port_weight" (Array.length t.port_weight);
      p "twin" (Array.length t.twin);
      p "next_hop_port" (columns t.next_hop_port);
      p "disc_q" (columns t.disc_q);
      p "distance" (columns t.distance);
      p "cycle_col" (Array.length t.cycle_col);
      p "sc_mask" (Array.length t.sc_mask);
      p "live" (Array.length t.live);
      p "eff_weight" (Array.length t.eff_weight);
      p "bridges" (Array.length t.bridges);
    ]
  in
  let total_bytes = List.fold_left (fun a pl -> a + pl.bytes) 0 planes in
  {
    planes;
    total_bytes;
    bytes_per_router = float_of_int total_bytes /. float_of_int (max 1 t.n);
  }

let footprint_json f =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"total_bytes\":%d,\"bytes_per_router\":%.1f,\"planes\":["
    f.total_bytes f.bytes_per_router;
  List.iteri
    (fun i pl ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"plane\":%S,\"words\":%d,\"bytes\":%d}" pl.plane
        pl.words pl.bytes)
    f.planes;
  Buffer.add_string b "]}";
  Buffer.contents b

let check_node t x name =
  if x < 0 || x >= t.n then invalid_arg ("Fib: " ^ name ^ " out of range")

let port_of t ~node ~neighbour =
  check_node t node "node";
  check_node t neighbour "neighbour";
  Graph.port t.g node neighbour

let slot t ~node ~other =
  let p = port_of t ~node ~neighbour:other in
  if p < 0 then invalid_arg "Fib.slot: not a link";
  (node * t.ports) + p

let neighbour_of t ~node ~port =
  check_node t node "node";
  if port < 0 || port >= t.ports then invalid_arg "Fib: port out of range";
  t.port_node.((node * t.ports) + port)

let next_hop t ~node ~dst =
  check_node t node "node";
  check_node t dst "dst";
  let p = t.next_hop_port.(dst).(node) in
  if p < 0 then None else Some t.port_node.((node * t.ports) + p)

let disc_q t ~node ~dst =
  check_node t node "node";
  check_node t dst "dst";
  t.disc_q.(dst).(node)

let distance t ~node ~dst =
  check_node t node "node";
  check_node t dst "dst";
  t.distance.(dst).(node)

let disc t ~node ~dst =
  Pr_core.Discriminator.of_cell t.kind ~dist:(distance t ~node ~dst)
    ~q:(disc_q t ~node ~dst)

let out_port_via t col ~node ~other what =
  let p = port_of t ~node ~neighbour:other in
  if p < 0 then
    invalid_arg (Printf.sprintf "Fib: %d is not a neighbour of %d (%s)" other node what);
  t.port_node.((node * t.ports) + col.((node * t.ports) + p))

let cycle_next t ~node ~from_ = out_port_via t t.cycle_col ~node ~other:from_ "cycle_next"

(* The complementary cycle of a failed interface starts at the rotation
   successor of the failed port: the cycle-following column, indexed by
   the failed port rather than the incoming one. *)
let complement_for_failed t ~node ~failed =
  out_port_via t t.cycle_col ~node ~other:failed "complement_for_failed"

let entries t node =
  check_node t node "node";
  List.init t.degree.(node) (fun p ->
      let incoming = t.port_node.((node * t.ports) + p) in
      let cycle_following = cycle_next t ~node ~from_:incoming in
      {
        Cycle_table.incoming;
        cycle_following;
        complementary = cycle_next t ~node ~from_:cycle_following;
      })

(* ---- administrative state ---- *)

let link_live t ~u ~v = t.live.(Graph.edge_index t.g u v)

let eff_weight t ~u ~v = t.eff_weight.(Graph.edge_index t.g u v)

let admin_down t =
  List.rev
    (Graph.fold_edges
       (fun i (e : Graph.edge) acc ->
         if t.live.(i) then acc else (e.u, e.v) :: acc)
       t.g [])

(* ---- bitwise image equality (the differential harness's referee) ---- *)

let float_arrays_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if
      not (Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i)))
    then ok := false
  done;
  !ok

let equal a b =
  a.n = b.n && a.ports = b.ports && a.kind = b.kind && a.dd_bits = b.dd_bits
  && a.degree = b.degree && a.port_node = b.port_node
  && a.twin = b.twin && a.next_hop_port = b.next_hop_port
  && a.disc_q = b.disc_q && a.cycle_col = b.cycle_col
  && a.sc_width = b.sc_width && a.sc_mask = b.sc_mask
  && a.live = b.live
  && float_arrays_equal a.port_weight b.port_weight
  && Array.length a.distance = Array.length b.distance
  && Array.for_all2 float_arrays_equal a.distance b.distance
  && float_arrays_equal a.eff_weight b.eff_weight
  && a.bridges = b.bridges && a.connected = b.connected

let raw_port_node t = t.port_node
let raw_port_weight t = t.port_weight
let raw_twin t = t.twin
let raw_next_hop_port t = t.next_hop_port
let raw_disc_q t = t.disc_q
let raw_distance t = t.distance
let raw_cycle_col t = t.cycle_col
let raw_sc_mask t = t.sc_mask
let raw_live t = t.live
let raw_degree t = t.degree
let raw_bridges t = t.bridges

let connected t = t.connected

(* Whether [e] is in the sorted [b.(lo .. hi - 1)]. *)
let rec mem_sorted (b : int array) e lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let c = b.(mid) in
  c = e || if c < e then mem_sorted b e (mid + 1) hi else mem_sorted b e lo mid

let is_bridge t ~u ~v =
  Array.length t.bridges > 0
  &&
  match Graph.edge_index t.g u v with
  | e -> mem_sorted t.bridges e 0 (Array.length t.bridges)
  | exception Not_found -> false

(* ---- the checkpoint codec ---- *)

module Codec = struct
  let magic = "PRFIB5"

  (* FNV-1a, 64 bit — cheap, dependency-free, and plenty to catch torn or
     bit-flipped checkpoints (this is corruption detection, not crypto). *)
  let fnv1a s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h :=
          Int64.mul
            (Int64.logxor !h (Int64.of_int (Char.code c)))
            0x100000001b3L)
      s;
    !h

  (* One row: the name, then every cell of [cols], column after column. *)
  let add_row buf name cell cols =
    Buffer.add_string buf name;
    Array.iter
      (Array.iter (fun v ->
           Buffer.add_char buf ' ';
           Buffer.add_string buf (cell v)))
      cols;
    Buffer.add_char buf '\n'

  (* Floats travel as the hex of their IEEE bit pattern, so a decoded
     image is bit-identical to the encoded one — the byte-equality
     recovery invariant depends on it. *)
  let float_cell v = Printf.sprintf "%Lx" (Int64.bits_of_float v)

  let bool_cell v = if v then "1" else "0"

  let encode t =
    let buf = Buffer.create 4096 in
    Printf.bprintf buf "%s %d %d %d %s %d %d\n" magic t.n t.ports t.dd_bits
      (Pr_core.Discriminator.to_string t.kind)
      (Graph.m t.g) t.sc_width;
    add_row buf "degree" string_of_int [| t.degree |];
    add_row buf "port_node" string_of_int [| t.port_node |];
    add_row buf "port_weight" float_cell [| t.port_weight |];
    add_row buf "twin" string_of_int [| t.twin |];
    add_row buf "next_hop_port" string_of_int t.next_hop_port;
    add_row buf "disc_q" string_of_int t.disc_q;
    add_row buf "distance" float_cell t.distance;
    add_row buf "cycle_col" string_of_int [| t.cycle_col |];
    add_row buf "sc_mask" string_of_int [| t.sc_mask |];
    add_row buf "live" bool_cell [| t.live |];
    add_row buf "eff_weight" float_cell [| t.eff_weight |];
    let payload = Buffer.contents buf in
    payload ^ Printf.sprintf "sum %Lx\n" (fnv1a payload)

  let fail fmt = Printf.ksprintf (fun m -> Error ("Fib.Codec: " ^ m)) fmt

  let parse_row name expect ~default conv = function
    | tag :: vals when String.equal tag name ->
        if List.length vals <> expect then
          fail "row %s has %d entries, want %d" name (List.length vals) expect
        else begin
          let a = Array.make expect default in
          let ok = ref true in
          List.iteri
            (fun i s ->
              match conv s with
              | Some v -> a.(i) <- v
              | None -> ok := false)
            vals;
          if !ok then Ok a else fail "row %s has an unparsable entry" name
        end
    | tag :: _ -> fail "expected row %s, found %s" name tag
    | [] -> fail "expected row %s, found end of image" name

  let int_of s = int_of_string_opt s

  let float_of s =
    match Int64.of_string_opt ("0x" ^ s) with
    | Some bits -> Some (Int64.float_of_bits bits)
    | None -> None

  let bool_of = function "1" -> Some true | "0" -> Some false | _ -> None

  (* A column plane's row, cut back into fresh columns of [n]. *)
  let columns n flat = Array.init n (fun dst -> Array.sub flat (dst * n) n)

  let decode ~base s =
    let ( let* ) = Result.bind in
    let lines = String.split_on_char '\n' s in
    let lines =
      match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
    in
    match List.rev lines with
    | sum_line :: payload_rev when String.length sum_line >= 4 ->
        let payload =
          String.concat "\n" (List.rev payload_rev) ^ "\n"
        in
        let* () =
          match String.split_on_char ' ' sum_line with
          | [ "sum"; hex ]
            when Int64.of_string_opt ("0x" ^ hex) = Some (fnv1a payload) ->
              Ok ()
          | [ "sum"; _ ] -> fail "checksum mismatch (image damaged or torn)"
          | _ -> fail "missing checksum line"
        in
        let rows = List.map (String.split_on_char ' ') (List.rev payload_rev) in
        let* header, rows =
          match rows with
          | h :: rest -> Ok (h, rest)
          | [] -> fail "empty image"
        in
        let* n, ports, dd_bits, kind_s, m, sc_width =
          match header with
          | [ mg; n; p; d; k; m; sw ] when String.equal mg magic -> (
              match
                (int_of_string_opt n, int_of_string_opt p, int_of_string_opt d,
                 int_of_string_opt m, int_of_string_opt sw)
              with
              | Some n, Some p, Some d, Some m, Some sw ->
                  Ok (n, p, d, k, m, sw)
              | _ -> fail "unparsable geometry header")
          | mg :: _ when not (String.equal mg magic) ->
              fail "bad magic %S (want %S)" mg magic
          | _ -> fail "unparsable geometry header"
        in
        let* () =
          if
            n = base.n && ports = base.ports && dd_bits = base.dd_bits
            && String.equal kind_s (Pr_core.Discriminator.to_string base.kind)
            && m = Graph.m base.g && sc_width = base.sc_width
          then Ok ()
          else
            fail
              "geometry mismatch: image is %dx%d ports, %d dd_bits, %s, %d \
               links, %d hint bits; base is %dx%d, %d, %s, %d, %d"
              n ports dd_bits kind_s m sc_width base.n base.ports base.dd_bits
              (Pr_core.Discriminator.to_string base.kind)
              (Graph.m base.g) base.sc_width
        in
        let* rows, degree, port_node, port_weight, twin, next_hop_port =
          match rows with
          | r1 :: r2 :: r3 :: r4 :: r5 :: rest ->
              let* degree = parse_row "degree" n ~default:0 int_of r1 in
              let* port_node = parse_row "port_node" (n * ports) ~default:0 int_of r2 in
              let* port_weight =
                parse_row "port_weight" (n * ports) ~default:0.0 float_of r3
              in
              let* twin = parse_row "twin" (n * ports) ~default:0 int_of r4 in
              let* next_hop_port =
                parse_row "next_hop_port" (n * n) ~default:0 int_of r5
              in
              Ok (rest, degree, port_node, port_weight, twin, columns n next_hop_port)
          | _ -> fail "truncated image"
        in
        let* disc_q, distance, cycle_col, sc_mask, live, eff_weight =
          match rows with
          | r1 :: r2 :: r3 :: r4 :: r5 :: r6 :: ([] | [ [ "" ] ]) ->
              let* disc_q = parse_row "disc_q" (n * n) ~default:0 int_of r1 in
              let* distance = parse_row "distance" (n * n) ~default:0.0 float_of r2 in
              let* cycle_col = parse_row "cycle_col" (n * ports) ~default:0 int_of r3 in
              let* sc_mask = parse_row "sc_mask" n ~default:0 int_of r4 in
              let* live = parse_row "live" m ~default:true bool_of r5 in
              let* eff_weight = parse_row "eff_weight" m ~default:0.0 float_of r6 in
              Ok (columns n disc_q, columns n distance, cycle_col, sc_mask, live,
                  eff_weight)
          | _ -> fail "truncated image"
        in
        (* Not in the blob: the bridge table is the base graph's, rebuilt
           so the decoded image shares no array with [base]. *)
        let bridges, connected = bridge_table base.g in
        Ok
          {
            g = base.g;
            kind = base.kind;
            n;
            ports;
            dd_bits;
            sc_width;
            sc_mask;
            degree;
            port_node;
            port_weight;
            twin;
            next_hop_port;
            disc_q;
            distance;
            cycle_col;
            live;
            eff_weight;
            bridges;
            connected;
          }
    | _ -> fail "truncated image"
end

(* ---- the delta overlay: incremental repair ---- *)

module Delta = struct
  type change = Down | Up | Weight of float

  type edit = { u : int; v : int; change : change }

  type error =
    | Not_a_node of { node : int; n : int }
    | Unknown_link of { u : int; v : int }
    | Duplicate_edit of { u : int; v : int }
    | Bad_weight of { u : int; v : int; weight : float }
    | Redundant_edit of { u : int; v : int; what : string }

  let describe_error = function
    | Not_a_node { node; n } ->
        Printf.sprintf "Delta: node %d out of range (topology has 0..%d)" node
          (n - 1)
    | Unknown_link { u; v } ->
        Printf.sprintf "Delta: %d-%d is not a link of the base topology" u v
    | Duplicate_edit { u; v } ->
        Printf.sprintf "Delta: link %d-%d is edited twice in one batch" u v
    | Bad_weight { u; v; weight } ->
        Printf.sprintf
          "Delta: bad weight %g for link %d-%d (must be finite and > 0)"
          weight u v
    | Redundant_edit { u; v; what } ->
        Printf.sprintf "Delta: redundant edit on link %d-%d (%s)" u v what

  type stats = { edits : int; dirty : int; full : bool }

  let describe_stats s =
    Printf.sprintf "%d edit(s): %d destination(s) repaired" s.edits s.dirty

  (* Validate a batch against the base graph and the image's current
     administrative state; returns the edited links, canonical and with
     their base edge indices, plus the next admin state. *)
  let validate t edits =
    let g = t.g and n = t.n in
    let live = Array.copy t.live and eff = Array.copy t.eff_weight in
    let seen = Hashtbl.create 16 in
    let rec go acc = function
      | [] -> Ok (List.rev acc, live, eff)
      | { u; v; change } :: rest ->
          if u < 0 || u >= n then Error (Not_a_node { node = u; n })
          else if v < 0 || v >= n then Error (Not_a_node { node = v; n })
          else begin
            let cu = min u v and cv = max u v in
            match Graph.edge_index g u v with
            | exception Not_found -> Error (Unknown_link { u = cu; v = cv })
            | idx ->
                if Hashtbl.mem seen idx then
                  Error (Duplicate_edit { u = cu; v = cv })
                else begin
                  Hashtbl.add seen idx ();
                  match change with
                  | Down ->
                      if not live.(idx) then
                        Error
                          (Redundant_edit
                             { u = cu; v = cv; what = "already down" })
                      else begin
                        live.(idx) <- false;
                        go ((idx, cu, cv) :: acc) rest
                      end
                  | Up ->
                      if live.(idx) then
                        Error
                          (Redundant_edit { u = cu; v = cv; what = "already up" })
                      else begin
                        live.(idx) <- true;
                        go ((idx, cu, cv) :: acc) rest
                      end
                  | Weight w ->
                      if not (Float.is_finite w) || w <= 0.0 then
                        Error (Bad_weight { u = cu; v = cv; weight = w })
                      else if w = eff.(idx) then
                        Error
                          (Redundant_edit
                             {
                               u = cu;
                               v = cv;
                               what =
                                 Printf.sprintf "weight is already %g" w;
                             })
                      else begin
                        eff.(idx) <- w;
                        go ((idx, cu, cv) :: acc) rest
                      end
                end
          end
    in
    go [] edits

  (* How each validated edit moves the effective graph.  A link that
     leaves it or gets longer is a cut: it can only move the trees that
     use it.  One that joins it or gets shorter is a join: it can only
     improve its endpoints.  A weight set on a down link moves nothing.
     Both carry each end's port to the other, joins their edge index
     too. *)
  let classify t ~live ~eff edits =
    let g = t.g in
    let cuts, joins =
      List.fold_left
        (fun (cuts, joins) (idx, u, v) ->
          let was = t.live.(idx) and is = live.(idx) in
          let w0 = t.eff_weight.(idx) and w1 = eff.(idx) in
          let pu = Graph.port g u v and pv = Graph.port g v u in
          if was && ((not is) || w1 > w0) then ((u, v, pu, pv) :: cuts, joins)
          else if is && ((not was) || w1 < w0) then
            (cuts, (u, v, idx, pu, pv) :: joins)
          else (cuts, joins))
        ([], []) edits
    in
    (Array.of_list cuts, Array.of_list joins)

  (* The exact repair (DESIGN.md §6e).  The image starts out sharing
     every route column with its parent, and a destination's three
     columns are copied on its first write; then, per destination, in
     place:

     (a) the region, the union of the parent-tree subtrees under every
         cut link the destination's tree uses ([parent u = v], read from
         [next_hop_port]), is reset to unreachable and seeded from its
         live neighbours outside it;
     (b) each endpoint a join improves, strictly or by a tie to a smaller
         id, is seeded from the other end.

     One decrease pass from those seeds settles every queued node on the
     effective graph, with Dijkstra's queue and its smallest-id
     tie-break: a node whose label falls, or whose parent moves to a
     smaller id (the smaller port: ports are in id order), is queued.
     Under [Hops] a settled node whose hop count moved also queues its
     children, so hops follow parents.  A settled node's DD cell is
     written then; nothing else is written. *)
  let repair t ~live ~eff edits =
    let { g; n; ports; kind; twin; _ } = t in
    let cuts, joins = classify t ~live ~eff edits in
    let next_hop_port = Array.copy t.next_hop_port
    and distance = Array.copy t.distance
    and disc_q = Array.copy t.disc_q in
    let heap = Array.make n 0
    and pos = Array.make n Dijkstra.unseen
    and key = Array.make n infinity in
    let size = ref 0 and queued = Array.make n 0 and nq = ref 0 in
    let region = Array.make n 0 and mark = Array.make n (-1) and k = ref 0 in
    let owned = ref (-1) and repaired = ref 0 in
    (* Copy [dst]'s columns before its first write. *)
    let own dst =
      if !owned <> dst then begin
        owned := dst;
        incr repaired;
        next_hop_port.(dst) <- Array.copy t.next_hop_port.(dst);
        distance.(dst) <- Array.copy t.distance.(dst);
        disc_q.(dst) <- Array.copy t.disc_q.(dst)
      end
    in
    let enter dst x =
      if mark.(x) <> dst then begin
        mark.(x) <- dst;
        region.(!k) <- x;
        incr k
      end
    in
    let enqueue dst x =
      key.(x) <- distance.(dst).(x);
      if pos.(x) = Dijkstra.unseen then begin
        queued.(!nq) <- x;
        incr nq;
        size := Dijkstra.push heap pos key !size x
      end
      else Dijkstra.decrease heap pos key x
    in
    (* Offer [x] the path through its neighbour [y], behind [x]'s [port],
       over base edge [e].  With [requeue_child], [y]'s hop count moved,
       so [x] is queued too when [y] already is its parent. *)
    let relax dst ~requeue_child y x e port =
      let c = distance.(dst).(y) +. eff.(e) in
      let lx = distance.(dst).(x) in
      if c < lx then begin
        own dst;
        distance.(dst).(x) <- c;
        next_hop_port.(dst).(x) <- port;
        enqueue dst x
      end
      else if c = lx then begin
        let cur = next_hop_port.(dst).(x) in
        if port < cur then begin
          own dst;
          next_hop_port.(dst).(x) <- port;
          enqueue dst x
        end
        else if requeue_child && port = cur && pos.(x) = Dijkstra.unseen then
          enqueue dst x
      end
    in
    (* Write the settled [y]'s DD cell, in a column a write already
       owned; whether its hop count moved (a parent cell's unreachable 0
       never equals a settled node's count). *)
    let settle dst y =
      let dist = distance.(dst).(y) and q = disc_q.(dst) in
      match kind with
      | Pr_core.Discriminator.Weighted ->
          Pr_core.Discriminator.cell kind q y ~dist ~hops:0;
          false
      | Pr_core.Discriminator.Hops ->
          let parent = t.port_node.((y * ports) + next_hop_port.(dst).(y)) in
          Pr_core.Discriminator.cell kind q y ~dist ~hops:(q.(parent) + 1);
          q.(y) <> t.disc_q.(dst).(y)
    in
    for dst = 0 to n - 1 do
      k := 0;
      nq := 0;
      let parent_hops = t.next_hop_port.(dst) in
      for j = 0 to Array.length cuts - 1 do
        let u, v, pu, pv = cuts.(j) in
        if parent_hops.(u) = pu then enter dst u;
        if parent_hops.(v) = pv then enter dst v
      done;
      (* (a) Close the region under the parent tree's children: [y] is
         [x]'s child when its next hop is its twin port back to [x]... *)
      let j = ref 0 in
      while !j < !k do
        let x = region.(!j) in
        incr j;
        let nbrs = Graph.neighbours g x in
        for s = 0 to Array.length nbrs - 1 do
          let y = nbrs.(s) in
          if parent_hops.(y) = twin.((x * ports) + s) then enter dst y
        done
      done;
      (* ...reset it, then seed it from outside. *)
      if !k > 0 then own dst;
      for j = 0 to !k - 1 do
        let x = region.(j) in
        distance.(dst).(x) <- infinity;
        next_hop_port.(dst).(x) <- -1;
        Pr_core.Discriminator.cell kind disc_q.(dst) x ~dist:infinity
          ~hops:max_int
      done;
      for j = 0 to !k - 1 do
        let x = region.(j) in
        let nbrs = Graph.neighbours g x and edges = Graph.slot_edges g x in
        for s = 0 to Array.length nbrs - 1 do
          let y = nbrs.(s) and e = edges.(s) in
          if live.(e) && mark.(y) <> dst then
            relax dst ~requeue_child:false y x e s
        done
      done;
      (* (b) Joins between nodes outside the region; one with an end
         inside it reaches that end through (a)'s seeds or the pass. *)
      for j = 0 to Array.length joins - 1 do
        let u, v, e, pu, pv = joins.(j) in
        if mark.(u) <> dst && mark.(v) <> dst then begin
          relax dst ~requeue_child:false v u e pu;
          relax dst ~requeue_child:false u v e pv
        end
      done;
      while !size > 0 do
        let y = Dijkstra.pop heap pos key !size in
        decr size;
        let requeue_child = settle dst y in
        let nbrs = Graph.neighbours g y and edges = Graph.slot_edges g y in
        for s = 0 to Array.length nbrs - 1 do
          let x = nbrs.(s) and e = edges.(s) in
          if live.(e) && pos.(x) <> Dijkstra.settled then
            relax dst ~requeue_child y x e twin.((y * ports) + s)
        done
      done;
      for j = 0 to !nq - 1 do
        pos.(queued.(j)) <- Dijkstra.unseen
      done
    done;
    ({ t with next_hop_port; distance; disc_q }, !repaired)

  (* [t]'s port weights with every link at its effective weight in [eff]. *)
  let port_weights t ~eff links =
    let port_weight = Array.copy t.port_weight in
    List.iter
      (fun (i, u, v) ->
        port_weight.(slot t ~node:u ~other:v) <- eff.(i);
        port_weight.(slot t ~node:v ~other:u) <- eff.(i))
      links;
    port_weight

  let apply t edits =
    Pr_telemetry.Span.timed "fib.delta.apply" @@ fun () ->
    match validate t edits with
    | Error e -> Error e
    | Ok (edits, live, eff) ->
        let image, repaired = repair t ~live ~eff edits in
        let port_weight = port_weights t ~eff edits in
        Ok
          ( { image with port_weight; live; eff_weight = eff },
            { edits = List.length edits; dirty = repaired; full = false } )

  let apply_exn t edits =
    match apply t edits with
    | Ok r -> r
    | Error e -> invalid_arg (describe_error e)

  (* The effective topology: administratively live links at their
     effective weights, over the base node set.  Structure (ports,
     the cycle column) always stays the base one — an
     admin-down link keeps its port and is masked at forwarding time. *)
  let effective_graph t =
    Graph.create ~n:t.n
      (List.rev
         (Graph.fold_edges
            (fun i (e : Graph.edge) acc ->
              if t.live.(i) then (e.u, e.v, t.eff_weight.(i)) :: acc else acc)
            t.g []))

  let recompile t =
    Pr_telemetry.Span.timed "fib.recompile" @@ fun () ->
    let port_weight =
      port_weights t ~eff:t.eff_weight
        (Graph.fold_edges (fun i (e : Graph.edge) acc -> (i, e.u, e.v) :: acc) t.g [])
    in
    fill
      { t with port_weight; live = Array.copy t.live;
               eff_weight = Array.copy t.eff_weight }
      ~tree:(Dijkstra.spf (effective_graph t))
end
