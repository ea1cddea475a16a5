(* The seen-node hint behind the shortcut rung: encoding-level
   properties.  The walk-level guarantees (grants are DD-sound, verdicts
   match across backends) live in Test_forward and Test_fastpath; this
   suite pins the hint itself — no false negatives before saturation,
   saturation degrades every query to [false], the kernel's
   mask/threshold mirror reproduces the reference bit-for-bit, and the
   extended header codec round-trips and never raises on garbage. *)

module Seen = Pr_core.Seen
module Header = Pr_core.Header

let test_plan_selection () =
  let p = Seen.plan ~nodes:11 ~width:16 in
  Alcotest.(check bool) "small topology exact" true (p.Seen.mode = Seen.Exact);
  Alcotest.(check int) "exact width = nodes" 11 p.Seen.width;
  let p = Seen.plan ~nodes:40 ~width:16 in
  Alcotest.(check bool) "large topology bloom" true (p.Seen.mode = Seen.Bloom);
  Alcotest.(check int) "bloom width = budget" 16 p.Seen.width;
  (match Seen.plan ~nodes:5 ~width:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width 0 accepted");
  match Seen.plan ~nodes:5 ~width:(Seen.max_width + 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized width accepted"

let test_exact_never_saturates () =
  let plan = Seen.plan ~nodes:32 ~width:60 in
  let t = Seen.create plan in
  for n = 0 to 31 do
    Seen.insert t n
  done;
  Alcotest.(check bool) "full exact bitset unsaturated" false (Seen.saturated t);
  for n = 0 to 31 do
    Alcotest.(check bool) "member" true (Seen.query t n)
  done

let test_restore_roundtrip () =
  let plan = Seen.plan ~nodes:100 ~width:20 in
  let t = Seen.create plan in
  List.iter (Seen.insert t) [ 3; 17; 42 ];
  let bits = Seen.bits t and sat = Seen.saturated t in
  let u = Seen.create plan in
  Seen.restore u ~bits ~sat;
  Alcotest.(check int) "bits restored" bits (Seen.bits u);
  Alcotest.(check bool) "sat restored" sat (Seen.saturated u);
  for n = 0 to 99 do
    Alcotest.(check bool)
      (Printf.sprintf "query %d agrees" n)
      (Seen.query t n) (Seen.query u n)
  done;
  match Seen.restore u ~bits:(1 lsl plan.Seen.width) ~sat:false with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restore accepted bits beyond the plan width"

(* A deterministic spot check that Bloom false positives stay rare while
   the hint is useful: 4 insertions into a 24-bit hint set at most 8
   bits, so most of a 100-node universe must still answer [false]. *)
let test_bloom_fp_spot () =
  let plan = Seen.plan ~nodes:200 ~width:24 in
  let t = Seen.create plan in
  List.iter (Seen.insert t) [ 100; 101; 102; 103 ];
  Alcotest.(check bool) "unsaturated" false (Seen.saturated t);
  let fps = ref 0 in
  for n = 0 to 99 do
    if Seen.query t n then incr fps
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d false positives out of 100 stays under 1/3" !fps)
    true (!fps < 34)

(* Generators: a plan plus an insertion sequence over its universe. *)
let gen_scene =
  QCheck.(
    triple (Helpers.int_range 2 120) (Helpers.int_range 1 60)
      (list_of_size Gen.(int_bound 40) (int_bound 119)))

let scene (nodes, width, inserts) =
  let plan = Seen.plan ~nodes ~width in
  (plan, List.filter (fun n -> n < nodes) inserts)

let qcheck_no_false_negatives =
  QCheck.Test.make ~name:"no false negatives before saturation" ~count:1000
    gen_scene (fun args ->
      let plan, inserts = scene args in
      let t = Seen.create plan in
      List.iter (Seen.insert t) inserts;
      Seen.saturated t
      || List.for_all (fun n -> Seen.query t n) inserts)

let qcheck_saturated_degrades =
  QCheck.Test.make
    ~name:"saturation latches and every query answers false" ~count:1000
    gen_scene (fun args ->
      let plan, inserts = scene args in
      let t = Seen.create plan in
      List.iter (Seen.insert t) inserts;
      (not (Seen.saturated t))
      ||
      let bits = Seen.bits t in
      (* Latched: further insertions are no-ops, queries all decline. *)
      List.iter (Seen.insert t) inserts;
      Seen.bits t = bits
      && List.for_all (fun n -> not (Seen.query t n)) inserts)

let qcheck_density_bound =
  QCheck.Test.make
    ~name:"unsaturated hint keeps popcount within the plan threshold"
    ~count:1000 gen_scene (fun args ->
      let plan, inserts = scene args in
      let t = Seen.create plan in
      List.iter (Seen.insert t) inserts;
      Seen.saturated t
      || Seen.popcount (Seen.bits t) <= Seen.threshold plan)

(* The compiled kernel never builds a [Seen.t]: it folds [mask_of] into
   an integer register and latches on [popcount]/[threshold], exactly as
   [Kernel.track_seen] does.  Replaying that fold here and demanding
   bit-equality is the mirror contract the differential wall rests on. *)
let qcheck_kernel_mirror =
  QCheck.Test.make ~name:"mask/threshold fold mirrors insert bit-for-bit"
    ~count:1000 gen_scene (fun args ->
      let plan, inserts = scene args in
      let t = Seen.create plan in
      let bits = ref 0 and sat = ref false in
      List.iter
        (fun n ->
          Seen.insert t n;
          if not !sat then begin
            bits := !bits lor Seen.mask_of plan n;
            if Seen.popcount !bits > Seen.threshold plan then sat := true
          end)
        inserts;
      !bits = Seen.bits t && !sat = Seen.saturated t)

let qcheck_shortcut_bits_used =
  QCheck.Test.make
    ~name:"shortcut layout is pr + dd + hint + saturation marker" ~count:500
    QCheck.(pair (Helpers.int_range 0 10) (Helpers.int_range 1 40))
    (fun (dd_bits, sc_width) ->
      Header.shortcut_bits_used ~dd_bits ~sc_width = 1 + dd_bits + sc_width + 1
      && Header.shortcut_fits ~dd_bits ~sc_width
         = (1 + dd_bits + sc_width + 1 <= 62))

let qcheck_shortcut_roundtrip =
  QCheck.Test.make
    ~name:"encode_shortcut round-trips, saturation marker included"
    ~count:2000
    QCheck.(
      pair
        (triple bool (int_bound 1_000_000) (Helpers.int_range 1 10))
        (triple (Helpers.int_range 1 40) (int_bound 0xFFFFFF) bool))
    (fun ((pr, dd, dd_bits), (sc_width, seen, seen_sat)) ->
      QCheck.assume (Header.shortcut_fits ~dd_bits ~sc_width);
      let dd = min dd (Header.max_dd ~dd_bits) in
      let seen = seen land ((1 lsl sc_width) - 1) in
      let field =
        Header.encode_shortcut ~dd_bits ~sc_width { Header.pr; dd } ~seen
          ~seen_sat
      in
      Header.decode_shortcut_result ~dd_bits ~sc_width field
      = Ok ({ Header.pr; dd }, seen, seen_sat))

let qcheck_decode_shortcut_never_raises =
  QCheck.Test.make
    ~name:"decode_shortcut_result never raises, whatever the bytes"
    ~count:5000
    QCheck.(triple int int int)
    (fun (field, dd_bits, sc_width) ->
      match Header.decode_shortcut_result ~dd_bits ~sc_width field with
      | Ok (h, seen, _) ->
          h.Header.dd >= 0
          && h.Header.dd <= Header.max_dd ~dd_bits
          && seen >= 0
          && seen < 1 lsl sc_width
      | Error msg -> String.length msg > 0)

let qcheck_encode_rejects_overflow =
  QCheck.Test.make
    ~name:"encode_shortcut rejects hints beyond the declared width"
    ~count:500
    QCheck.(pair (Helpers.int_range 1 20) (Helpers.int_range 1 6))
    (fun (sc_width, dd_bits) ->
      match
        Header.encode_shortcut ~dd_bits ~sc_width
          { Header.pr = true; dd = 0 } ~seen:(1 lsl sc_width) ~seen_sat:false
      with
      | exception Invalid_argument _ -> true
      | _ -> false)

let suite =
  [
    Alcotest.test_case "plan selection" `Quick test_plan_selection;
    Alcotest.test_case "exact plans never saturate" `Quick
      test_exact_never_saturates;
    Alcotest.test_case "restore round-trip" `Quick test_restore_roundtrip;
    Alcotest.test_case "bloom false-positive spot check" `Quick
      test_bloom_fp_spot;
    QCheck_alcotest.to_alcotest qcheck_no_false_negatives;
    QCheck_alcotest.to_alcotest qcheck_saturated_degrades;
    QCheck_alcotest.to_alcotest qcheck_density_bound;
    QCheck_alcotest.to_alcotest qcheck_kernel_mirror;
    QCheck_alcotest.to_alcotest qcheck_shortcut_bits_used;
    QCheck_alcotest.to_alcotest qcheck_shortcut_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decode_shortcut_never_raises;
    QCheck_alcotest.to_alcotest qcheck_encode_rejects_overflow;
  ]
