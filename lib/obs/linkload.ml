module Graph = Pr_graph.Graph

type t = {
  g : Graph.t;            (* ports are [Graph.neighbours] indices *)
  n : int;
  ports : int;
  counts : int array;     (* (node * ports + port) * 4 + cls *)
}

let cls_shortest = 0

let cls_recycled = 1

let cls_rescue = 2

let cls_shortcut = 3

let class_names = [| "shortest-path"; "recycled"; "rescue"; "shortcut" |]

let classes = 4

let create g =
  let n = Graph.n g in
  let ports = max 1 (Graph.max_degree g) in
  { g; n; ports; counts = Array.make (n * ports * classes) 0 }

let n t = t.n

let ports t = t.ports

let[@inline] record t ~node ~port ~cls =
  let i = (node * t.ports + port) * classes + cls in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1)

let port_of t ~node ~next = Graph.port t.g node next

let[@inline] record_next t ~node ~next ~cls =
  let port = port_of t ~node ~next in
  if port >= 0 then record t ~node ~port ~cls

let raw_counts t = t.counts

let footprint_bytes t = Array.length t.counts * (Sys.word_size / 8)

let reset t = Array.fill t.counts 0 (Array.length t.counts) 0

let merge ~into c =
  if into.n <> c.n || into.ports <> c.ports then
    invalid_arg "Linkload.merge: dimension mismatch";
  Array.iteri (fun i v -> into.counts.(i) <- into.counts.(i) + v) c.counts

let equal a b = a.n = b.n && a.ports = b.ports && a.counts = b.counts

let get t ~node ~port ~cls = t.counts.((node * t.ports + port) * classes + cls)

let load t ~node ~port =
  let base = (node * t.ports + port) * classes in
  t.counts.(base) + t.counts.(base + 1) + t.counts.(base + 2)
  + t.counts.(base + 3)

let total t = Array.fold_left ( + ) 0 t.counts

let class_total t ~cls =
  let acc = ref 0 in
  let i = ref cls in
  while !i < Array.length t.counts do
    acc := !acc + t.counts.(!i);
    i := !i + classes
  done;
  !acc

let iter t f =
  let counts = Array.make classes 0 in
  for x = 0 to t.n - 1 do
    Array.iteri
      (fun p next ->
        let base = (x * t.ports + p) * classes in
        for c = 0 to classes - 1 do
          counts.(c) <- t.counts.(base + c)
        done;
        f ~node:x ~next ~counts)
      (Graph.neighbours t.g x)
  done

let max_load t =
  let best = ref 0 in
  iter t (fun ~node:_ ~next:_ ~counts ->
      let l = counts.(0) + counts.(1) + counts.(2) + counts.(3) in
      if l > !best then best := l);
  !best

let top t ~k =
  let rows = ref [] in
  iter t (fun ~node ~next ~counts ->
      rows :=
        (node, next, counts.(0), counts.(1), counts.(2), counts.(3)) :: !rows);
  (* total descending, then (node, port) ascending = reverse list order,
     which [List.stable_sort] preserves after the [List.rev] *)
  let weight (_, _, sp, pr, re, sc) = sp + pr + re + sc in
  let sorted =
    List.stable_sort
      (fun a b -> compare (weight b) (weight a))
      (List.rev !rows)
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take k sorted

let to_json t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"n\": %d,\n  \"ports\": %d,\n  \"total\": %d,\n"
    t.n t.ports (total t);
  Buffer.add_string buf "  \"links\": [";
  let first = ref true in
  iter t (fun ~node ~next ~counts ->
      if counts.(0) + counts.(1) + counts.(2) + counts.(3) > 0 then begin
        if not !first then Buffer.add_char buf ',';
        first := false;
        Printf.bprintf buf
          "\n    {\"from\": %d, \"to\": %d, \"shortest\": %d, \"recycled\": %d, \"rescue\": %d, \"shortcut\": %d}"
          node next counts.(0) counts.(1) counts.(2) counts.(3)
      end);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
