(* The durability pipeline pinned end to end:

   - Fib.Codec round-trips every image bit-exactly and rejects damage
     (checksum, geometry, truncation) with typed one-line errors;
   - the write-ahead journal round-trips its records, tolerates exactly
     one torn final line, and refuses damage anywhere else;
   - recovery replays the journalled batches onto the last checkpoint and
     lands byte-equal both to the journalled topology and to a cold full
     recompile of it, on Abilene, Géant and Teleglobe under randomized
     edit sequences with crash points at every batch boundary. *)

module Graph = Pr_graph.Graph
module Routing = Pr_core.Routing
module Cycle_table = Pr_core.Cycle_table
module Rng = Pr_util.Rng
module Fib = Pr_fastpath.Fib
module Delta = Pr_fastpath.Fib.Delta
module Journal = Pr_fastpath.Journal

let compile g rotation =
  Fib.of_tables_exn (Routing.build g) (Cycle_table.build rotation)

let paper_fibs () =
  List.map
    (fun topo ->
      ( topo.Pr_topo.Topology.name,
        compile topo.Pr_topo.Topology.graph
          (Pr_embed.Geometric.of_topology topo) ))
    [
      Pr_topo.Abilene.topology ();
      Pr_topo.Geant.topology ();
      Pr_topo.Teleglobe.topology ();
    ]

let abilene_fib () =
  let topo = Pr_topo.Abilene.topology () in
  ( topo.Pr_topo.Topology.graph,
    compile topo.Pr_topo.Topology.graph
      (Pr_embed.Geometric.of_topology topo) )

(* One non-redundant edit against the image's current administrative
   state, so randomized batches are valid by construction. *)
let random_edit rng fib =
  let g = Fib.graph fib in
  let i = Rng.int rng (Graph.m g) in
  let e = Graph.edge g i in
  let u = e.Graph.u and v = e.Graph.v in
  if not (Fib.link_live fib ~u ~v) then
    { Delta.u; v; change = Delta.Up }
  else if Rng.int rng 3 = 0 then { Delta.u; v; change = Delta.Down }
  else
    let w = Fib.eff_weight fib ~u ~v +. 0.25 +. float_of_int (Rng.int rng 8)
    in
    { Delta.u; v; change = Delta.Weight w }

let with_temp_journal f =
  let path = Filename.temp_file "prjournal" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ---- codec ---- *)

let test_codec_roundtrip () =
  List.iter
    (fun (name, fib) ->
      match Fib.Codec.decode ~base:fib (Fib.Codec.encode fib) with
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
      | Ok copy ->
          Alcotest.(check bool) (name ^ ": decode = original") true
            (Fib.equal fib copy))
    (paper_fibs ())

let test_codec_roundtrips_edited_images () =
  let g, base = abilene_fib () in
  let rng = Rng.create ~seed:42 in
  let fib = ref base in
  for _ = 1 to 8 do
    let fib', _ = Delta.apply_exn !fib [ random_edit rng !fib ] in
    fib := fib'
  done;
  ignore g;
  match Fib.Codec.decode ~base (Fib.Codec.encode !fib) with
  | Error msg -> Alcotest.fail msg
  | Ok copy ->
      Alcotest.(check bool) "edited image round-trips against the base" true
        (Fib.equal !fib copy)

let test_codec_copy_shares_nothing () =
  let _, fib = abilene_fib () in
  match Fib.Codec.decode ~base:fib (Fib.Codec.encode fib) with
  | Error msg -> Alcotest.fail msg
  | Ok copy ->
      (* The campaign damages decoded copies in place; if decode shared
         any array with the base this would corrupt the original. *)
      let col = (Fib.raw_next_hop_port copy).(0) in
      let saved = col.(0) in
      col.(0) <- 424242;
      Alcotest.(check bool) "damaging the copy leaves the base intact" true
        ((Fib.raw_next_hop_port fib).(0).(0) <> 424242);
      let distinct a b =
        a != b && Array.for_all (fun c -> Array.for_all (( != ) c) b) a
      in
      Alcotest.(check bool) "copy and base hold distinct columns" true
        (distinct (Fib.raw_next_hop_port fib) (Fib.raw_next_hop_port copy)
        && distinct (Fib.raw_disc_q fib) (Fib.raw_disc_q copy)
        && distinct (Fib.raw_distance fib) (Fib.raw_distance copy));
      Alcotest.(check bool) "copy and base hold distinct structure planes"
        true
        (Fib.raw_port_node fib != Fib.raw_port_node copy
        && Fib.raw_twin fib != Fib.raw_twin copy
        && Fib.raw_cycle_col fib != Fib.raw_cycle_col copy);
      col.(0) <- saved

let test_codec_rejects_damage () =
  let _, fib = abilene_fib () in
  let blob = Fib.Codec.encode fib in
  let expect_error what s =
    match Fib.Codec.decode ~base:fib s with
    | Error msg ->
        Alcotest.(check bool) (what ^ ": one-line message") true
          (String.length msg > 0 && not (String.contains msg '\n'))
    | Ok _ -> Alcotest.fail (what ^ " accepted")
  in
  expect_error "empty blob" "";
  expect_error "bad magic" ("XXFIB9" ^ String.sub blob 6 (String.length blob - 6));
  (* Flip one payload byte: the checksum line must catch it. *)
  let damaged = Bytes.of_string blob in
  let mid = String.length blob / 2 in
  Bytes.set damaged mid (if Bytes.get damaged mid = '0' then '1' else '0');
  expect_error "bit damage" (Bytes.to_string damaged);
  (* Truncation loses the sum line. *)
  expect_error "truncation" (String.sub blob 0 (String.length blob / 2));
  (* Geometry mismatch: a Géant blob against an Abilene base. *)
  let geant = Pr_topo.Geant.topology () in
  let foreign =
    compile geant.Pr_topo.Topology.graph
      (Pr_embed.Geometric.of_topology geant)
  in
  expect_error "foreign geometry" (Fib.Codec.encode foreign)

(* ---- journal read/write ---- *)

let test_journal_roundtrip () =
  let _, fib = abilene_fib () in
  with_temp_journal (fun path ->
      (match Journal.writer path with
      | Error msg -> Alcotest.fail msg
      | Ok w ->
          Journal.log_checkpoint w ~seq:0 fib;
          Journal.log_batch w ~seq:1 [ { Delta.u = 0; v = 1; change = Delta.Down } ];
          Journal.log_commit w ~seq:1;
          Journal.log_batch w ~seq:2
            [
              { Delta.u = 0; v = 1; change = Delta.Up };
              { Delta.u = 0; v = 2; change = Delta.Weight 2.5 };
            ];
          Journal.close w);
      match Journal.read path with
      | Error msg -> Alcotest.fail msg
      | Ok j ->
          Alcotest.(check bool) "no torn tail" false j.Journal.torn_tail;
          (match j.Journal.entries with
          | [
           Journal.Checkpoint { seq = 0; image };
           Journal.Batch { seq = 1; edits = [ e1 ] };
           Journal.Commit { seq = 1 };
           Journal.Batch { seq = 2; edits = [ e2a; e2b ] };
          ] ->
              Alcotest.(check bool) "checkpoint blob decodes" true
                (match Fib.Codec.decode ~base:fib image with
                | Ok copy -> Fib.equal fib copy
                | Error _ -> false);
              Alcotest.(check bool) "down edit survives" true
                (e1 = { Delta.u = 0; v = 1; change = Delta.Down });
              Alcotest.(check bool) "up edit survives" true
                (e2a = { Delta.u = 0; v = 1; change = Delta.Up });
              Alcotest.(check bool) "weight edit survives bit-exactly" true
                (e2b = { Delta.u = 0; v = 2; change = Delta.Weight 2.5 })
          | l ->
              Alcotest.fail
                (Printf.sprintf "unexpected journal shape (%d entries)"
                   (List.length l))))

let test_journal_tolerates_torn_tail_only () =
  let _, fib = abilene_fib () in
  with_temp_journal (fun path ->
      (match Journal.writer path with
      | Error msg -> Alcotest.fail msg
      | Ok w ->
          Journal.log_checkpoint w ~seq:0 fib;
          Journal.log_batch w ~seq:1 [ { Delta.u = 0; v = 1; change = Delta.Down } ];
          Journal.close w);
      (* A torn final line — the crash artefact — is dropped and
         flagged. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "batch 2 0,2,down #feedface";
      close_out oc;
      (match Journal.read path with
      | Error msg -> Alcotest.fail msg
      | Ok j ->
          Alcotest.(check bool) "torn tail flagged" true j.Journal.torn_tail;
          Alcotest.(check int) "torn record dropped" 2
            (List.length j.Journal.entries));
      (* The same damage mid-file is corruption, not a crash. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "\ncommit 1 #0\n";
      close_out oc;
      match Journal.read path with
      | Error msg ->
          Alcotest.(check bool) "mid-file damage names the line" true
            (String.length msg > 0)
      | Ok _ -> Alcotest.fail "mid-file damage accepted")

let test_journal_rejects_malformed () =
  with_temp_journal (fun path ->
      let oc = open_out path in
      output_string oc "not a journal\n";
      close_out oc;
      (match Journal.read path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad header accepted");
      match Journal.read (path ^ ".does-not-exist") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "missing file accepted")

(* ---- recovery ---- *)

let test_recover_needs_checkpoint () =
  let _, fib = abilene_fib () in
  with_temp_journal (fun path ->
      (match Journal.writer path with
      | Error msg -> Alcotest.fail msg
      | Ok w ->
          Journal.log_batch w ~seq:1 [ { Delta.u = 0; v = 1; change = Delta.Down } ];
          Journal.close w);
      match Journal.recover ~base:fib path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "recovered without a checkpoint")

(* The §ROB1 invariant on the paper topologies: whatever batch the crash
   interrupts, recovery replays every journalled batch (committed or
   not) and lands byte-equal to a full recompile of the final
   topology. *)
let test_recover_crash_points_paper_topologies () =
  List.iter
    (fun (name, base) ->
      let rng = Rng.create ~seed:7 in
      let batches = 5 in
      for crash_after = 0 to batches do
        with_temp_journal (fun path ->
            let w =
              match Journal.writer path with
              | Ok w -> w
              | Error msg -> Alcotest.fail msg
            in
            Journal.log_checkpoint w ~seq:0 base;
            let image = ref base in
            for b = 1 to batches do
              if crash_after = 0 || b <= crash_after then begin
                let edit = random_edit rng !image in
                Journal.log_batch w ~seq:b [ edit ];
                let next, _ = Delta.apply_exn !image [ edit ] in
                image := next;
                (* The crash window: the last journalled batch never
                   gets its commit marker. *)
                if b <> crash_after then Journal.log_commit w ~seq:b
              end
            done;
            Journal.close w;
            match Journal.recover ~base path with
            | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
            | Ok r ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s, crash after %d: journalled topology"
                     name crash_after)
                  true
                  (Fib.equal r.Journal.image !image);
                Alcotest.(check bool)
                  (Printf.sprintf "%s, crash after %d: full recompile" name
                     crash_after)
                  true
                  (Fib.equal r.Journal.image (Delta.recompile !image));
                Alcotest.(check int)
                  (Printf.sprintf "%s, crash after %d: uncommitted count"
                     name crash_after)
                  (if crash_after = 0 then 0 else 1)
                  r.Journal.uncommitted)
      done)
    (paper_fibs ())

(* Recovery restarts from the *last* checkpoint: batches before it are
   dead weight and must not be replayed. *)
let test_recover_uses_last_checkpoint () =
  let _, base = abilene_fib () in
  with_temp_journal (fun path ->
      let w =
        match Journal.writer path with
        | Ok w -> w
        | Error msg -> Alcotest.fail msg
      in
      Journal.log_checkpoint w ~seq:0 base;
      Journal.log_batch w ~seq:1 [ { Delta.u = 0; v = 1; change = Delta.Down } ];
      Journal.log_commit w ~seq:1;
      let mid, _ =
        Delta.apply_exn base [ { Delta.u = 0; v = 1; change = Delta.Down } ]
      in
      Journal.log_checkpoint w ~seq:1 mid;
      Journal.log_batch w ~seq:2 [ { Delta.u = 0; v = 1; change = Delta.Up } ];
      Journal.close w;
      match Journal.recover ~base path with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          Alcotest.(check int) "restored from seq 1" 1 r.Journal.checkpoint_seq;
          Alcotest.(check int) "replayed only the later batch" 1
            r.Journal.replayed;
          let expected, _ =
            Delta.apply_exn mid [ { Delta.u = 0; v = 1; change = Delta.Up } ]
          in
          Alcotest.(check bool) "image is checkpoint + redo" true
            (Fib.equal r.Journal.image expected))

let test_recover_rejects_out_of_order () =
  let _, base = abilene_fib () in
  with_temp_journal (fun path ->
      let w =
        match Journal.writer path with
        | Ok w -> w
        | Error msg -> Alcotest.fail msg
      in
      Journal.log_checkpoint w ~seq:0 base;
      Journal.log_batch w ~seq:2 [ { Delta.u = 0; v = 1; change = Delta.Down } ];
      Journal.log_batch w ~seq:1 [ { Delta.u = 0; v = 1; change = Delta.Up } ];
      Journal.close w;
      match Journal.recover ~base path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out-of-order batches accepted")

let suite =
  [
    Alcotest.test_case "codec: bit-exact round-trip on the paper topologies"
      `Quick test_codec_roundtrip;
    Alcotest.test_case "codec: edited images round-trip against the base"
      `Quick test_codec_roundtrips_edited_images;
    Alcotest.test_case "codec: the decoded copy shares no arrays" `Quick
      test_codec_copy_shares_nothing;
    Alcotest.test_case "codec: damage is a typed error, never an exception"
      `Quick test_codec_rejects_damage;
    Alcotest.test_case "journal: records round-trip" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal: torn tail tolerated, mid-file damage not"
      `Quick test_journal_tolerates_torn_tail_only;
    Alcotest.test_case "journal: malformed files are errors" `Quick
      test_journal_rejects_malformed;
    Alcotest.test_case "recover: refuses a checkpoint-less journal" `Quick
      test_recover_needs_checkpoint;
    Alcotest.test_case
      "recover: byte-equal to full recompile at every crash point" `Slow
      test_recover_crash_points_paper_topologies;
    Alcotest.test_case "recover: restarts from the last checkpoint" `Quick
      test_recover_uses_last_checkpoint;
    Alcotest.test_case "recover: rejects out-of-order batches" `Quick
      test_recover_rejects_out_of_order;
  ]
