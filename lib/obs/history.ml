(* The perf-history anomaly observatory behind [prcli history].

   Sources: every committed BENCH_*.json in a directory (via
   {!Report.scan_bench}: one norm per suite per file) and every
   FLIGHT_*.jsonl flight ledger (one record per run: the "metrics" and
   "timings" objects each contribute a point per member).  Points are
   grouped into named series — ["bench.<suite>"], or
   ["flight.<cmd>.<metric>{backend=…,knob=…}"] — and each series is
   assessed with a robust median-absolute-deviation rule, falling back
   to the historical flat-threshold check when the series is too short
   for robust statistics to mean anything.

   Direction: every tracked quantity is a cost (overhead ratio,
   normalised time, ns per packet), so only increases are anomalous. *)

module Json = Pr_util.Json

type point = { source : string; value : float }

type series = { key : string; points : point list (* oldest first *) }

type rule = Mad | Flat | Single

type verdict = {
  key : string;
  n : int;
  median : float;
  mad : float;
  latest : float;
  z : float;  (** robust z-score of the latest point; 0 under Flat/Single *)
  ratio : float;  (** latest / baseline (median, or best-of-rest under Flat) *)
  rule : rule;
  anomaly : bool;
  spark : string;
}

type report = {
  dir : string;
  verdicts : verdict list;
  anomalies : int;
  errors : string list;  (** unreadable files / lines, non-fatal *)
}

(* ---- gathering ---- *)

(* Records of unlike runs must not pool: a reference-walk bench and a
   compiled one, or two topologies, time different things.  A record's
   backend and knobs qualify its series key as [{backend=…,knob=…}]; a
   record with neither keeps the bare ["flight.<cmd>.<metric>"].  Every
   knob writer records a string or a number. *)
let qualifier j =
  let label (k, v) =
    match v with
    | Json.Str s -> k ^ "=" ^ s
    | Json.Num x -> k ^ "=" ^ Json.number x
    | _ -> k
  in
  let knobs =
    match Json.member "knobs" j with Some (Json.Obj ms) -> ms | _ -> []
  in
  let backend =
    match Json.member "backend" j with Some b -> [ ("backend", b) ] | None -> []
  in
  match List.map label (backend @ knobs) with
  | [] -> ""
  | labels -> "{" ^ String.concat "," labels ^ "}"

let ledger_series ~errors path =
  let acc = Hashtbl.create 16 in
  let order = ref [] in
  let add key p =
    match Hashtbl.find_opt acc key with
    | Some ps -> Hashtbl.replace acc key (p :: ps)
    | None ->
        order := key :: !order;
        Hashtbl.replace acc key [ p ]
  in
  (match open_in_bin path with
  | exception Sys_error msg -> errors := msg :: !errors
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lineno = ref 0 in
          try
            while true do
              let line = input_line ic in
              incr lineno;
              if String.trim line <> "" then
                match Json.parse line with
                | Error e ->
                    errors :=
                      Printf.sprintf "%s:%d: %s" path !lineno e :: !errors
                | Ok j ->
                    let cmd =
                      Option.value ~default:"?"
                        (Option.bind (Json.member "cmd" j) Json.str)
                    in
                    let source =
                      Printf.sprintf "%s:%d" (Filename.basename path) !lineno
                    in
                    let qualifier = qualifier j in
                    List.iter
                      (fun section ->
                        match Json.member section j with
                        | Some (Json.Obj members) ->
                            List.iter
                              (fun (name, v) ->
                                match Json.num v with
                                | Some value when Float.is_finite value ->
                                    add
                                      (Printf.sprintf "flight.%s.%s%s" cmd name
                                         qualifier)
                                      { source; value }
                                | _ -> ())
                              members
                        | _ -> ())
                      [ "metrics"; "timings" ]
            done
          with End_of_file -> ()));
  List.rev_map
    (fun key -> { key; points = List.rev (Hashtbl.find acc key) })
    !order

let scan ?ledger ~dir () =
  let errors = ref [] in
  let bench_entries, bench_errs = Report.scan_bench ~dir in
  errors := List.rev_append bench_errs !errors;
  (* One series per suite; files arrive in sorted-name order, which is
     as close to chronology as a directory of artifacts offers. *)
  let suites = ref [] in
  List.iter
    (fun (e : Report.bench_entry) ->
      let key = "bench." ^ e.Report.suite in
      if not (List.mem_assoc key !suites) then suites := (key, ref []) :: !suites;
      let ps = List.assoc key !suites in
      ps := { source = Filename.basename e.Report.file; value = e.Report.norm }
            :: !ps)
    bench_entries;
  let bench_series =
    List.rev_map (fun (key, ps) -> { key; points = List.rev !ps }) !suites
  in
  let ledger_files =
    (match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        Array.to_list names
        |> List.filter (fun f ->
               String.length f > 7
               && String.sub f 0 7 = "FLIGHT_"
               && Filename.check_suffix f ".jsonl")
        |> List.sort String.compare
        |> List.map (Filename.concat dir))
    @
    match ledger with
    | Some path when Sys.file_exists path -> [ path ]
    | _ -> []
  in
  let flight_series =
    List.concat_map (fun path -> ledger_series ~errors path) ledger_files
  in
  (bench_series @ flight_series, List.rev !errors)

(* ---- assessment ---- *)

let median_of a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  let lo = Array.fold_left Float.min infinity values in
  let hi = Array.fold_left Float.max neg_infinity values in
  let b = Buffer.create (3 * Array.length values) in
  Array.iter
    (fun v ->
      let level =
        if hi -. lo <= 0.0 then 3
        else
          let t = (v -. lo) /. (hi -. lo) in
          max 0 (min 7 (int_of_float (t *. 7.999)))
      in
      Buffer.add_string b spark_levels.(level))
    values;
  Buffer.contents b

let assess ?(z_threshold = 3.5) ?(rel_threshold = 1.05)
    ?(flat_threshold = 1.15) ?(min_points = 5) s =
  let values = Array.of_list (List.map (fun p -> p.value) s.points) in
  let n = Array.length values in
  if n = 0 then invalid_arg "History.assess: empty series";
  let latest = values.(n - 1) in
  let spark = sparkline values in
  if n = 1 then
    {
      key = s.key;
      n;
      median = latest;
      mad = 0.0;
      latest;
      z = 0.0;
      ratio = 1.0;
      rule = Single;
      anomaly = false;
      spark;
    }
  else if n < min_points then begin
    (* Too short for a robust scale estimate: the historical flat
       gate — latest against the best of the earlier points. *)
    let rest = Array.sub values 0 (n - 1) in
    let baseline = Array.fold_left Float.min infinity rest in
    let ratio = if baseline > 0.0 then latest /. baseline else 1.0 in
    {
      key = s.key;
      n;
      median = median_of values;
      mad = 0.0;
      latest;
      z = 0.0;
      ratio;
      rule = Flat;
      anomaly = ratio > flat_threshold;
      spark;
    }
  end
  else begin
    let median = median_of values in
    let mad = median_of (Array.map (fun v -> Float.abs (v -. median)) values) in
    (* 0.6745 rescales MAD to the sigma of a normal sample, the
       conventional robust z.  A zero MAD (a perfectly flat history)
       degrades to the relative test alone. *)
    let z =
      if mad > 0.0 then 0.6745 *. (latest -. median) /. mad
      else if latest > median then infinity
      else 0.0
    in
    let ratio = if median > 0.0 then latest /. median else 1.0 in
    {
      key = s.key;
      n;
      median;
      mad;
      latest;
      z;
      ratio;
      rule = Mad;
      anomaly = z > z_threshold && ratio > rel_threshold;
      spark;
    }
  end

let run ?ledger ?z_threshold ?rel_threshold ?flat_threshold ?min_points
    ?(extra = []) ~dir () =
  let series, errors = scan ?ledger ~dir () in
  let series =
    (* [extra] lets the caller append freshly measured points (the
       [--measure] re-run of the fastpath norm) to named series before
       assessment. *)
    List.fold_left
      (fun series (key, p) ->
        let found = ref false in
        let series =
          List.map
            (fun (s : series) ->
              if s.key = key then begin
                found := true;
                { s with points = s.points @ [ p ] }
              end
              else s)
            series
        in
        if !found then series else series @ [ { key; points = [ p ] } ])
      series extra
  in
  let verdicts =
    List.map
      (assess ?z_threshold ?rel_threshold ?flat_threshold ?min_points)
      series
  in
  {
    dir;
    verdicts;
    anomalies = List.length (List.filter (fun v -> v.anomaly) verdicts);
    errors;
  }

(* ---- rendering ---- *)

let rule_name = function Mad -> "mad" | Flat -> "flat" | Single -> "single"

let render r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "perf history over %s: %d series, %d anomaly(ies)" r.dir
    (List.length r.verdicts) r.anomalies;
  List.iter
    (fun v ->
      let stat =
        match v.rule with
        | Mad ->
            Printf.sprintf "median %.4f mad %.4f z %+.2f" v.median v.mad v.z
        | Flat -> Printf.sprintf "vs best x%.3f (flat gate)" v.ratio
        | Single -> "single point"
      in
      line "  %-36s n=%-3d %s  latest %.4f  %s  %s" v.key v.n v.spark v.latest
        stat
        (if v.anomaly then "ANOMALY" else "ok"))
    r.verdicts;
  List.iter (fun e -> line "  warning: %s" e) r.errors;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n\"schema\": \"pr.history/1\",\n\"dir\": %S,\n" r.dir;
  Printf.bprintf b "\"anomalies\": %d,\n\"series\": [\n" r.anomalies;
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "  {\"key\": %S, \"n\": %d, \"rule\": %S, \"median\": %s, \"mad\": \
         %s, \"latest\": %s, \"z\": %s, \"ratio\": %s, \"anomaly\": %b}"
        v.key v.n (rule_name v.rule) (Json.number v.median) (Json.number v.mad)
        (Json.number v.latest) (Json.number v.z) (Json.number v.ratio)
        v.anomaly)
    r.verdicts;
  Buffer.add_string b "\n],\n\"warnings\": [";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%S" e)
    r.errors;
  Buffer.add_string b "]\n}\n";
  Buffer.contents b
