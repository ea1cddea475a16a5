module Rng = Pr_util.Rng

let test_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differ = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differ := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differ

let test_copy_independent () =
  let a = Rng.create ~seed:5 in
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  let _ = Rng.bits64 a in
  ()

let test_split_diverges () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" true (Rng.bits64 a <> Rng.bits64 b)

let test_int_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_in () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 200 do
    let v = Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_float_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_int_covers_range () =
  let rng = Rng.create ~seed:10 in
  let seen = Array.make 6 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 6) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_shuffle_is_permutation () =
  let rng = Rng.create ~seed:11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:12 in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng ~k:5 ~n:12 in
    Alcotest.(check int) "k values" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 12)) s
  done;
  Alcotest.(check (list int)) "k = n is everything"
    [ 0; 1; 2; 3 ]
    (Rng.sample_without_replacement rng ~k:4 ~n:4);
  Alcotest.(check (list int)) "k = 0 empty" []
    (Rng.sample_without_replacement rng ~k:0 ~n:4)

let qcheck_sample_uniformity =
  QCheck.Test.make ~name:"sample_without_replacement covers all indices"
    ~count:50
    QCheck.(pair (int_bound 1000) (Helpers.int_range 1 8))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let s = Rng.sample_without_replacement rng ~k:n ~n in
      s = List.init n Fun.id)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy" `Quick test_copy_independent;
    Alcotest.test_case "split" `Quick test_split_diverges;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in bounds" `Quick test_int_in;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "sampling" `Quick test_sample_without_replacement;
    QCheck_alcotest.to_alcotest qcheck_sample_uniformity;
  ]
