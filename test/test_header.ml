module Header = Pr_core.Header

let test_normal () =
  Alcotest.(check bool) "pr clear" false Header.normal.Header.pr;
  Alcotest.(check int) "dd zero" 0 Header.normal.Header.dd

let test_roundtrip_known () =
  let h = { Header.pr = true; dd = 5 } in
  let field = Header.encode ~dd_bits:3 h in
  Alcotest.(check int) "pr bit in lsb" 1 (field land 1);
  Alcotest.(check bool) "round-trip" true (Header.decode ~dd_bits:3 field = h)

let test_bits_used () =
  Alcotest.(check int) "1 + dd bits" 4 (Header.bits_used ~dd_bits:3);
  Alcotest.(check bool) "3 dd bits fit dscp" true (Header.fits_in_dscp ~dd_bits:3);
  Alcotest.(check bool) "4 dd bits do not" false (Header.fits_in_dscp ~dd_bits:4)

let test_encode_bounds () =
  (match Header.encode ~dd_bits:3 { Header.pr = true; dd = 8 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dd overflow accepted");
  (match Header.encode ~dd_bits:3 { Header.pr = true; dd = -1 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative dd accepted");
  match Header.decode ~dd_bits:2 64 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized field accepted"

let test_max_dd () =
  Alcotest.(check int) "3 bits" 7 (Header.max_dd ~dd_bits:3);
  Alcotest.(check int) "0 bits" 0 (Header.max_dd ~dd_bits:0);
  match Header.max_dd ~dd_bits:62 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized dd_bits accepted"

let test_saturating_rejects_negative () =
  match Header.encode_saturating ~dd_bits:3 { Header.pr = true; dd = -1 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative dd accepted"

let qcheck_roundtrip =
  QCheck.Test.make ~name:"header encode/decode round-trips" ~count:500
    QCheck.(triple bool (int_bound 15) (Helpers.int_range 4 10))
    (fun (pr, dd, dd_bits) ->
      let h = { Header.pr; dd } in
      Header.decode ~dd_bits (Header.encode ~dd_bits h) = h)

let qcheck_field_width =
  QCheck.Test.make ~name:"encoded field fits the declared width" ~count:500
    QCheck.(triple bool (int_bound 7) (Helpers.int_range 3 8))
    (fun (pr, dd, dd_bits) ->
      let field = Header.encode ~dd_bits { Header.pr; dd } in
      field >= 0 && field < 1 lsl (dd_bits + 1))

let qcheck_saturating_agrees_when_fits =
  QCheck.Test.make ~name:"saturating encode = encode when the DD fits"
    ~count:500
    QCheck.(triple bool (int_bound 15) (Helpers.int_range 4 10))
    (fun (pr, dd, dd_bits) ->
      Header.encode_saturating ~dd_bits { Header.pr; dd }
      = Header.encode ~dd_bits { Header.pr; dd })

let test_decode_result_pins () =
  (* The same inputs [decode] raises on come back as [Error] with the
     locus in the message — never an exception. *)
  let expect_error what field dd_bits =
    match Header.decode_result ~dd_bits field with
    | Error msg ->
        Alcotest.(check bool)
          (what ^ ": message carries the locus")
          true
          (String.length msg > 0 && String.sub msg 0 13 = "Header.decode")
    | Ok _ -> Alcotest.fail (what ^ " accepted")
  in
  expect_error "negative field" (-1) 3;
  expect_error "oversized field" 16 3;
  expect_error "bad dd_bits" 3 (-1);
  expect_error "oversized dd_bits" 3 62;
  match Header.decode_result ~dd_bits:3 11 with
  | Ok h ->
      Alcotest.(check bool) "11 = pr set, dd 5" true
        (h = { Header.pr = true; dd = 5 })
  | Error msg -> Alcotest.fail msg

let qcheck_decode_result_never_raises =
  QCheck.Test.make ~name:"decode_result never raises, whatever the bytes"
    ~count:2000
    QCheck.(pair int int)
    (fun (field, dd_bits) ->
      match Header.decode_result ~dd_bits field with
      | Ok h -> h.Header.dd >= 0 && h.Header.dd <= Header.max_dd ~dd_bits
      | Error msg -> String.length msg > 0)

let qcheck_decode_result_agrees =
  QCheck.Test.make ~name:"decode_result = Ok decode on every valid field"
    ~count:1000
    QCheck.(pair (int_bound 4095) (Helpers.int_range 0 11))
    (fun (field, dd_bits) ->
      let field = field land ((1 lsl (dd_bits + 1)) - 1) in
      Header.decode_result ~dd_bits field = Ok (Header.decode ~dd_bits field))

let qcheck_decode_result_roundtrip =
  QCheck.Test.make ~name:"decode_result round-trips encode" ~count:1000
    QCheck.(triple bool (int_bound 1_000_000) (Helpers.int_range 1 10))
    (fun (pr, dd, dd_bits) ->
      let dd = min dd (Header.max_dd ~dd_bits) in
      Header.decode_result ~dd_bits (Header.encode ~dd_bits { Header.pr; dd })
      = Ok { Header.pr; dd })

let qcheck_saturating_clamps =
  QCheck.Test.make
    ~name:"saturating encode clamps to the header max and round-trips"
    ~count:500
    QCheck.(triple bool (Helpers.int_range 0 1_000_000) (Helpers.int_range 1 10))
    (fun (pr, dd, dd_bits) ->
      let decoded =
        Header.decode ~dd_bits
          (Header.encode_saturating ~dd_bits { Header.pr; dd })
      in
      decoded.Header.pr = pr
      && decoded.Header.dd = min dd (Header.max_dd ~dd_bits))

let suite =
  [
    Alcotest.test_case "normal header" `Quick test_normal;
    Alcotest.test_case "round-trip" `Quick test_roundtrip_known;
    Alcotest.test_case "bits used / DSCP" `Quick test_bits_used;
    Alcotest.test_case "bounds" `Quick test_encode_bounds;
    Alcotest.test_case "max dd" `Quick test_max_dd;
    Alcotest.test_case "saturating rejects negative" `Quick
      test_saturating_rejects_negative;
    Alcotest.test_case "decode_result: typed errors with loci" `Quick
      test_decode_result_pins;
    QCheck_alcotest.to_alcotest qcheck_decode_result_never_raises;
    QCheck_alcotest.to_alcotest qcheck_decode_result_agrees;
    QCheck_alcotest.to_alcotest qcheck_decode_result_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_field_width;
    QCheck_alcotest.to_alcotest qcheck_saturating_agrees_when_fits;
    QCheck_alcotest.to_alcotest qcheck_saturating_clamps;
  ]
