(* The benchmark's own span recorder.  It wraps calls into the layers from
   the outside: each span carries a name, monotonic start/end, the span
   that encloses it, and the GC words allocated while it was open.  Spans
   are kept in memory and written out once, at exit; nothing here reaches
   into the program's own instrumentation. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  start_ns : int64;
  end_ns : int64;
  minor_words : float;
  major_words : float;  (** allocated directly in the major heap *)
}

let now () = Monotonic_clock.now ()

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let minor0, promoted0, major0 = Gc.counters () in
    let start_ns = now () in
    let finish () =
      let end_ns = now () in
      let minor1, promoted1, major1 = Gc.counters () in
      stack := List.tl !stack;
      recorded :=
        {
          id;
          parent;
          name;
          start_ns;
          end_ns;
          minor_words = minor1 -. minor0;
          (* [Gc.counters]' major figure includes promoted words, which
             the minor figure already counted. *)
          major_words = major1 -. major0 -. (promoted1 -. promoted0);
        }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let spans () = List.rev !recorded
let duration_ns s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

let alloc_words s = s.minor_words +. s.major_words

let named name = List.filter (fun s -> String.equal s.name name) (spans ())

(* Self time: the span's duration minus the part of it its direct children
   cover.  Children never overlap (one domain, strictly nested). *)
type summary = {
  s_name : string;
  count : int;
  total_ms : float;
  self_ms : float;
  words : float;
}

let summaries () =
  let all = spans () in
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration_ns s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    all;
  let by_name = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        duration_ns s
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id)
      in
      let c, tot, slf, w =
        match Hashtbl.find_opt by_name s.name with
        | Some x -> x
        | None ->
            order := s.name :: !order;
            (0, 0.0, 0.0, 0.0)
      in
      Hashtbl.replace by_name s.name
        (c + 1, tot +. duration_ns s, slf +. self, w +. alloc_words s))
    all;
  List.rev_map
    (fun name ->
      let count, tot, slf, words = Hashtbl.find by_name name in
      { s_name = name; count; total_ms = tot /. 1e6; self_ms = slf /. 1e6; words })
    !order

let write_file path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"minor_words\":%.0f,\"major_words\":%.0f}"
        (if i = 0 then "" else ",\n")
        s.id s.parent s.name s.start_ns s.end_ns s.minor_words s.major_words)
    (spans ());
  output_string oc "\n]\n";
  close_out oc
