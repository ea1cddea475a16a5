(* End-to-end benchmark of the packet re-cycling pipeline.

     dune exec bench/e2e/main.exe -- --seed 42                # all workloads
     dune exec bench/e2e/main.exe -- --workload ba-scale --seed 7 --seconds 10
     dune exec bench/e2e/main.exe -- --seed 42 --trace 1     # per-layer run
     dune exec bench/e2e/main.exe -- --smoke --check BENCHMARK.json

   With [--workload] one workload runs in this process; the last line of
   its output is a JSON object with the keys correct, attempted, failed
   and metrics.  Without it every workload runs in a child process of its
   own, so each peak heap is that workload's alone.  See README.md. *)

module Json = Pr_util.Json

let default_dir = Filename.concat "bench" (Filename.concat "e2e" "out")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metrics_json ~samples metrics =
  let one (mt : Run.metric) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s%s}" (json_string mt.name)
      (Json.number mt.value) (json_string mt.unit_)
      (if samples then Printf.sprintf ", \"samples\": %d" mt.samples else "")
  in
  "{" ^ String.concat ", " (List.map one metrics) ^ "}"

let result_line (r : Run.result) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (r.problems = []) r.attempted (List.length r.problems)
    (metrics_json ~samples:false r.metrics)

let record_json (spec : Workload.t) ~seed ~seconds ~trace (r : Run.result) =
  let span (s : Tracer.summary) =
    Printf.sprintf
      "{\"name\": %s, \"count\": %d, \"total_ms\": %s, \"self_ms\": %s, \"alloc_words\": %s}"
      (json_string s.s_name) s.count (Json.number s.total_ms) (Json.number s.self_ms)
      (Json.number s.words)
  in
  Printf.sprintf
    "{\"workload\": %s, \"why\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"problems\": [%s], \
     \"metrics\": %s, \"spans\": [%s]}\n"
    (json_string spec.name) (json_string spec.why) seed (Json.number seconds) trace
    (r.problems = []) r.attempted (List.length r.problems)
    (String.concat ", " (List.map json_string r.problems))
    (metrics_json ~samples:true r.metrics)
    (String.concat ", " (List.map span r.spans))

let write path s =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let run_one (spec : Workload.t) ~seed ~seconds ~trace ~out =
  let r = Run.run spec ~seed ~seconds ~trace in
  Printf.printf "== %s (seed %d%s)\n" spec.name seed (if trace then ", traced" else "");
  List.iter
    (fun (mt : Run.metric) ->
      Printf.printf "  %-34s %18s %-10s n=%d\n" mt.name (Json.number mt.value) mt.unit_
        mt.samples)
    r.metrics;
  if trace then begin
    Printf.printf "  %-34s %12s %12s %8s\n" "span" "total_ms" "self_ms" "count";
    List.iter
      (fun (s : Tracer.summary) ->
        Printf.printf "  %-34s %12.3f %12.3f %8d\n" s.s_name s.total_ms s.self_ms s.count)
      r.spans
  end;
  List.iter (Printf.printf "REFEREE FAILURE: %s\n") r.problems;
  Option.iter (fun f -> write f (record_json spec ~seed ~seconds ~trace r)) out;
  if trace then begin
    let stem =
      match out with
      | Some f -> Filename.remove_extension f
      | None -> Filename.concat default_dir (Printf.sprintf "%s-seed%d" spec.name seed)
    in
    mkdir_p (Filename.dirname stem);
    Tracer.write_file (stem ^ ".spans.json")
  end;
  print_endline (result_line r);
  if r.problems <> [] then exit 1

(* Names a BENCHMARK.json list declares. *)
let declared bench key =
  Option.value ~default:[] (Option.bind (Json.member key bench) Json.list)
  |> List.filter_map (fun x -> Option.bind (Json.member "name" x) Json.str)

let value json metric =
  Option.bind (Json.member "metrics" json) (Json.member metric)
  |> Fun.flip Option.bind (Json.member "value")
  |> Fun.flip Option.bind Json.num

(* Every workload in a child process of its own.  Each child writes its
   record and its output log beside [out] (default bench/e2e/out); this
   process merges the records into [out] and, with [check], holds them to
   a BENCHMARK.json.  A smoke run prints only failures and the verdict. *)
let run_all ~smoke ~seed ~seconds ~traces ~out ~check =
  let dir = match out with Some f -> Filename.dirname f | None -> default_dir in
  mkdir_p dir;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let runs =
    List.concat_map
      (fun trace ->
        List.filter_map
          (fun (spec : Workload.t) ->
            let stem =
              Filename.concat dir
                (Printf.sprintf "%s-seed%d%s" spec.name seed (if trace then "-trace" else ""))
            in
            let file = stem ^ ".json" and log = stem ^ ".log" in
            let args =
              [ Sys.executable_name; "--workload"; spec.name; "--seed"; string_of_int seed;
                "--seconds"; Printf.sprintf "%h" seconds; "--trace";
                (if trace then "1" else "0"); "--out"; file ]
              @ if smoke then [ "--smoke" ] else []
            in
            let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
            let pid =
              Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin fd
                Unix.stderr
            in
            let status = snd (Unix.waitpid [] pid) in
            Unix.close fd;
            if not smoke then print_string (In_channel.with_open_bin log In_channel.input_all);
            match (status, Json.parse_file file) with
            | Unix.WEXITED 0, Ok json -> Some (spec, trace, file, json)
            | Unix.WEXITED 0, Error e ->
                fail "%s: %s" file e;
                None
            | _ ->
                fail "%s%s: run failed, see %s" spec.name (if trace then " (traced)" else "") log;
                None)
          (Workload.all ~smoke))
      traces
  in
  Option.iter
    (fun file ->
      let record (_, _, f, _) = String.trim (In_channel.with_open_bin f In_channel.input_all) in
      write file
        (Printf.sprintf "{\"seed\": %d, \"runs\": [\n%s\n]}\n" seed
           (String.concat ",\n" (List.map record runs))))
    out;
  Option.iter
    (fun bench_file ->
      match Json.parse_file bench_file with
      | Error e -> fail "%s: %s" bench_file e
      | Ok bench ->
          let ours = List.map (fun (s : Workload.t) -> s.name) (Workload.all ~smoke) in
          if List.sort compare (declared bench "workloads") <> List.sort compare ours then
            fail "%s declares other workloads than %s" bench_file (String.concat ", " ours);
          List.iter
            (fun ((spec : Workload.t), trace, _, json) ->
              List.iter
                (fun name ->
                  if Option.is_none (value json name) then
                    fail "%s%s: no value for %s" spec.name
                      (if trace then " (traced)" else "")
                      name)
                (declared bench (if trace then "per_layer" else "end_to_end")))
            runs)
    check;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev !failures);
  let correct =
    !failures = []
    && List.for_all (fun (_, _, _, j) -> Json.member "correct" j = Some (Json.Bool true)) runs
  in
  Printf.printf "{\"correct\": %b, \"runs\": %d}\n" correct (List.length runs);
  if not correct then exit 1

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref None and smoke = ref false and check = ref None in
  let args =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N seed of the traffic and failures (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured time per workload (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1: the traced run, per-layer metrics and a span file");
      ("--out", Arg.String (fun s -> out := Some s), "FILE write the JSON record here");
      ("--smoke", Arg.Set smoke, " tiny instances; without --workload, both runs of every workload");
      ( "--check",
        Arg.String (fun s -> check := Some s),
        "FILE without --workload, check the records name every metric of this BENCHMARK.json" );
    ]
  in
  let usage = "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]" in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if (!trace <> 0 && !trace <> 1) || not (!seconds > 0.0) then begin
    prerr_endline usage;
    exit 2
  end;
  let smoke = !smoke in
  match !workload with
  | Some name -> (
      match List.find_opt (fun (w : Workload.t) -> w.name = name) (Workload.all ~smoke) with
      | None ->
          Printf.eprintf "unknown workload %s\n" name;
          exit 2
      | Some spec -> run_one spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out)
  | None ->
      let traces = if smoke then [ false; true ] else [ !trace = 1 ] in
      run_all ~smoke ~seed:!seed ~seconds:!seconds ~traces ~out:!out ~check:!check
