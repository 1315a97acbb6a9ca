(* Tests for the observability layer (PR 9, DESIGN §16):

   - histogram quantile goldens on known distributions, and the exact
     min/max clamping contract;
   - merge associativity + commutativity as a qcheck property over
     fuzzed sample shards (byte-equality of the serialized JSON, the
     same form every consumer compares);
   - the Json float format round-trips bit-for-bit (bucket bounds and
     durations survive emit -> parse);
   - --log spec parsing;
   - the determinism contract: the non-"timing" projection of the
     service's event log and metrics snapshot is byte-identical at
     --jobs 1 and --jobs 4, and the access-log sequence for a 16x4
     cached batch mix matches its golden outcome order. *)

module J = Fgv_support.Json
module H = Fgv_support.Histogram
module Ev = Fgv_support.Eventlog
module S = Fgv_service.Service
module P = Fgv_service.Protocol

(* ---------------------------------------------------------- histogram *)

let test_histogram_basics () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (H.quantile h 0.5));
  H.record h 0.003;
  Alcotest.(check int) "one sample" 1 (H.count h);
  (* min = max = v, so clamping makes every quantile exact *)
  Alcotest.(check (float 0.0)) "singleton p50 is the sample" 0.003
    (H.quantile h 0.5);
  Alcotest.(check (float 0.0)) "singleton p99 is the sample" 0.003
    (H.quantile h 0.99);
  Alcotest.(check (float 0.0)) "min" 0.003 (H.min_sample h);
  Alcotest.(check (float 0.0)) "max" 0.003 (H.max_sample h)

let test_quantile_golden () =
  (* Uniform 1ms..1s in 1ms steps: quantiles must land within one
     bucket width (<= 12.5% relative) of the exact answer, and the
     extremes clamp to the exact observed min/max. *)
  let h = H.create () in
  for i = 1 to 1000 do
    H.record h (float_of_int i /. 1000.0)
  done;
  let within q exact =
    let v = H.quantile h q in
    let rel = Float.abs (v -. exact) /. exact in
    Alcotest.(check bool)
      (Printf.sprintf "q%.2f=%.6f within 12.5%% of %.3f" q v exact)
      true (rel <= 0.125)
  in
  within 0.5 0.5;
  within 0.9 0.9;
  within 0.99 0.99;
  Alcotest.(check (float 0.0)) "q0 clamps to min" 0.001 (H.quantile h 0.0);
  Alcotest.(check (float 0.0)) "q1 clamps to max" 1.0 (H.quantile h 1.0);
  Alcotest.(check int) "count" 1000 (H.count h)

let test_histogram_edges () =
  let h = H.create () in
  H.record h 0.0;
  H.record h (-5.0);
  H.record h 1e-12;
  H.record h 1e12;
  Alcotest.(check int) "under/overflow samples all count" 4 (H.count h);
  let buckets = H.buckets h in
  Alcotest.(check int) "two non-empty buckets" 2 (List.length buckets);
  (match buckets with
  | [ (lo0, _, c0); (lo1, hi1, c1) ] ->
    Alcotest.(check (float 0.0)) "underflow starts at 0" 0.0 lo0;
    Alcotest.(check int) "three underflow samples" 3 c0;
    Alcotest.(check bool) "overflow is unbounded" true (hi1 = infinity);
    Alcotest.(check bool) "overflow lo is finite" true (Float.is_finite lo1);
    Alcotest.(check int) "one overflow sample" 1 c1
  | _ -> Alcotest.fail "unexpected bucket shape");
  (* bucket bounds are exact binary floats: ldexp-built, so float_repr
     round-trips them (checked in depth below) *)
  List.iter
    (fun (lo, hi, _) ->
      List.iter
        (fun v ->
          if Float.is_finite v && not (Float.is_integer v) then
            match J.of_string (J.float_repr v) with
            | Ok (J.Float v') ->
              Alcotest.(check bool) "bucket bound round-trips" true (v = v')
            | _ -> Alcotest.fail "bucket bound did not parse back")
        [ lo; hi ])
    buckets

(* Recording never allocates, also when every sample is a new extreme:
   the service's latency histograms see one sample per request, so a
   boxed min/max would make its allocation depend on timing. *)
let test_observe_allocation_free () =
  (* pre-boxed samples, alternately a new maximum and a new minimum *)
  let samples =
    List.init 10_000 (fun i ->
        if i mod 2 = 0 then 1.0 +. float_of_int i
        else 1.0 /. float_of_int (i + 2))
  in
  let words, _shard =
    H.isolated (fun () ->
        H.observe "obslog.alloc" 1.0;
        let w0 = Gc.minor_words () in
        List.iter (fun v -> H.observe "obslog.alloc" v) samples;
        let w1 = Gc.minor_words () in
        w1 -. w0)
  in
  Alcotest.(check (float 0.0)) "no minor words over 10 000 observes" 0.0
    words

let hist_json h = J.to_string ~minify:true (H.to_json h)

let of_samples xs =
  let h = H.create () in
  List.iter (H.record h) xs;
  h

let prop_merge_assoc_comm =
  QCheck2.Test.make ~name:"histogram merge is associative and commutative"
    ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_bound 40) (float_bound_inclusive 2.0))
        (list_size (int_bound 40) (float_bound_inclusive 2.0))
        (list_size (int_bound 40) (float_bound_inclusive 2.0)))
    (fun (xs, ys, zs) ->
      let a () = of_samples xs and b () = of_samples ys
      and c () = of_samples zs in
      let merged into src =
        let m = H.copy into in
        H.merge_into ~into:m src;
        m
      in
      (* (a+b)+c = a+(b+c) and a+b = b+a, up to serialized bytes *)
      let left = merged (merged (a ()) (b ())) (c ()) in
      let right = merged (a ()) (merged (b ()) (c ())) in
      let ab = merged (a ()) (b ()) in
      let ba = merged (b ()) (a ()) in
      (* and merging equals recording the concatenated sample stream *)
      let flat = of_samples (xs @ ys @ zs) in
      hist_json left = hist_json right
      && hist_json ab = hist_json ba
      && hist_json left = hist_json flat)

let test_shard_merge_order_free () =
  let shard xs =
    snd (H.isolated (fun () -> List.iter (H.observe "t") xs))
  in
  let s1 = shard [ 0.001; 0.002 ] in
  let s2 = shard [ 0.004 ] in
  let s3 = shard [ 0.008; 0.5; 0.001 ] in
  let joined order =
    fst
      (H.isolated (fun () ->
           List.iter H.merge_shard order;
           match H.find "t" with
           | Some h -> hist_json h
           | None -> Alcotest.fail "merged histogram missing"))
  in
  Alcotest.(check string) "shard replay order cannot matter"
    (joined [ s1; s2; s3 ])
    (joined [ s3; s1; s2 ])

(* --------------------------------------------------------- float repr *)

let test_float_round_trip () =
  let check_rt x =
    match J.of_string (J.float_repr x) with
    | Ok (J.Float y) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips" (J.float_repr x))
        true
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    | Ok (J.Int n) ->
      (* integral floats >= 1e15 may print without a dot; value-equal
         is the contract there *)
      Alcotest.(check bool) "int-shaped float value survives" true
        (float_of_int n = x)
    | _ -> Alcotest.fail ("did not parse back: " ^ J.float_repr x)
  in
  List.iter check_rt
    [
      0.1; 1.0 /. 3.0; 1e-300; 1.7976931348626157e308; 5e-324; 0.003;
      3.0; -0.0; 1e20; Float.pi; 0.30000000000000004; infinity;
      neg_infinity;
    ];
  (* and specifically every histogram bucket bound a real record hits *)
  let h = H.create () in
  List.iter (H.record h) [ 1e-9; 3.2e-6; 0.00041; 0.0121; 0.77; 901.0 ];
  List.iter
    (fun (lo, hi, _) ->
      check_rt lo;
      check_rt hi)
    (H.buckets h)

(* ----------------------------------------------------------- eventlog *)

let test_parse_spec () =
  let ok = Alcotest.(check (result (pair string string) string)) in
  let norm = Result.map (fun (p, l) -> (p, Ev.level_name l)) in
  ok "bare path" (Ok ("/tmp/x.jsonl", "info"))
    (norm (Ev.parse_spec "/tmp/x.jsonl"));
  ok "explicit level" (Ok ("/tmp/x.jsonl", "debug"))
    (norm (Ev.parse_spec "/tmp/x.jsonl=debug"));
  ok "warn level" (Ok ("log", "warn")) (norm (Ev.parse_spec "log=warn"));
  ok "'=' in the path stays in the path" (Ok ("run=3.jsonl", "info"))
    (norm (Ev.parse_spec "run=3.jsonl"));
  ok "'=' path with level" (Ok ("run=3.jsonl", "debug"))
    (norm (Ev.parse_spec "run=3.jsonl=debug"));
  Alcotest.(check bool) "empty path rejected" true
    (Result.is_error (Ev.parse_spec "=debug"))

(* Delete every "timing" member, recursively: the projection the
   determinism contract promises is byte-identical across --jobs. *)
let rec strip_timing (j : J.t) : J.t =
  match j with
  | J.Assoc fields ->
    J.Assoc
      (List.filter_map
         (fun (k, v) ->
           if k = "timing" then None else Some (k, strip_timing v))
         fields)
  | J.List items -> J.List (List.map strip_timing items)
  | other -> other

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* The 16x4 cached batch mix (the bench service lane's shape): one
   batch of 16 distinct kernels x 4 round-robin repeats, sent twice. *)
let mix_distinct = 16

let mix_repeats = 4

let mix_batch () =
  let pipes = [ "o3"; "sv+v"; "dse"; "combined" ] in
  let mk i =
    {
      P.rq_id = Printf.sprintf "r%d" i;
      rq_source =
        Printf.sprintf
          "kernel m%d(float* restrict a, float* restrict b, int n) { for \
           (int i = 0; i < n; i = i + 1) { a[i] = b[i] * %d.0; } }"
          i (i + 1);
      rq_pipeline = List.nth pipes (i mod List.length pipes);
      rq_no_restrict = false;
      rq_emit_c = false;
      rq_heap = P.default_heap;
    }
  in
  let distinct = List.init mix_distinct mk in
  List.concat (List.init mix_repeats (fun _ -> distinct))

(* Drive the mix at a job count with the event log capturing, return
   (log lines, metrics reply). *)
let drive_mix ~jobs =
  let path = Filename.temp_file "fgv-obslog" ".jsonl" in
  Ev.open_log ~path ~level:Ev.Info;
  let svc = S.create ~jobs () in
  ignore (S.handle_batch svc (mix_batch ()));
  ignore (S.handle_batch svc (mix_batch ()));
  let metrics =
    match S.handle_line svc {|{"op":"metrics"}|} with
    | S.Reply s -> s
    | S.Quit _ -> Alcotest.fail "metrics must not quit"
  in
  Ev.close ();
  let lines = read_lines path in
  Sys.remove path;
  (lines, metrics)

let projection line =
  match J.of_string line with
  | Ok j -> J.to_string ~minify:true (strip_timing j)
  | Error e -> Alcotest.fail ("log line is not JSON: " ^ e)

let test_log_and_metrics_jobs_determinism () =
  let lines1, metrics1 = drive_mix ~jobs:1 in
  let lines4, metrics4 = drive_mix ~jobs:4 in
  Alcotest.(check (list string))
    "event-log non-timing projection is byte-identical at jobs 1 vs 4"
    (List.map projection lines1)
    (List.map projection lines4);
  Alcotest.(check string)
    "metrics non-timing projection is byte-identical at jobs 1 vs 4"
    (projection metrics1) (projection metrics4)

let test_access_log_golden () =
  let lines, _ = drive_mix ~jobs:2 in
  let access =
    List.filter_map
      (fun line ->
        match J.of_string line with
        | Ok j when J.string_member "event" j = Some "access" -> Some j
        | _ -> None)
      lines
  in
  let n = mix_distinct * mix_repeats in
  Alcotest.(check int) "one access record per request" (2 * n)
    (List.length access);
  (* golden outcome sequence: batch 1 = 16 misses then 48 coalesced
     (round-robin repeats of the same keys), batch 2 = 64 hits *)
  let expected_outcome i =
    if i < n then if i < mix_distinct then "miss" else "coalesced"
    else "hit"
  in
  List.iteri
    (fun i j ->
      Alcotest.(check (option int))
        (Printf.sprintf "seq of record %d is monotonic" i)
        (Some (i + 1))
        (J.int_member "seq" j);
      Alcotest.(check (option string))
        (Printf.sprintf "outcome of record %d" i)
        (Some (expected_outcome i))
        (J.string_member "outcome" j);
      Alcotest.(check (option bool))
        (Printf.sprintf "record %d compiled fine" i)
        (Some true) (J.bool_member "ok" j);
      (* the wall-clock duration lives under timing, and only there *)
      match J.member "timing" j with
      | Some t ->
        Alcotest.(check bool)
          (Printf.sprintf "record %d has a duration" i)
          true
          (J.member "duration_s" t <> None)
      | None -> Alcotest.fail "access record has no timing member")
    access;
  (* the first line of any log is the schema header *)
  match lines with
  | first :: _ ->
    let j = Result.get_ok (J.of_string first) in
    Alcotest.(check (option string)) "log opens with the header"
      (Some "log-open")
      (J.string_member "event" j);
    Alcotest.(check (option int)) "header pins the schema"
      (Some Fgv_support.Version.log_schema)
      (J.int_member "schema" j)
  | [] -> Alcotest.fail "empty event log"

let test_telemetry_timer_histograms () =
  (* every *.time key gains distribution data: a timed thunk's snapshot
     carries a histogram whose count matches the timer count *)
  let module Tm = Fgv_support.Telemetry in
  let (), shard =
    Tm.isolated (fun () ->
        for _ = 1 to 5 do
          Tm.time "obslog.work" (fun () -> ignore (Sys.opaque_identity 42))
        done)
  in
  (match Tm.shard_timer_histograms shard with
  | [ ("obslog.work", h) ] ->
    Alcotest.(check int) "histogram saw every invocation" 5 (H.count h)
  | _ -> Alcotest.fail "expected exactly the obslog.work histogram");
  let (), merged =
    Tm.isolated (fun () ->
        Tm.merge_shard shard;
        Tm.merge_shard shard)
  in
  match Tm.shard_timer_histograms merged with
  | [ ("obslog.work", h) ] ->
    Alcotest.(check int) "merging shards sums histogram counts" 10
      (H.count h)
  | _ -> Alcotest.fail "expected the merged histogram"

let suite =
  [
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "quantile goldens" `Quick test_quantile_golden;
    Alcotest.test_case "under/overflow buckets" `Quick test_histogram_edges;
    Alcotest.test_case "observe is allocation-free" `Quick
      test_observe_allocation_free;
    QCheck_alcotest.to_alcotest prop_merge_assoc_comm;
    Alcotest.test_case "shard merge is order-free" `Quick
      test_shard_merge_order_free;
    Alcotest.test_case "float repr round-trips" `Quick test_float_round_trip;
    Alcotest.test_case "--log spec parsing" `Quick test_parse_spec;
    Alcotest.test_case "log+metrics projection vs --jobs" `Quick
      test_log_and_metrics_jobs_determinism;
    Alcotest.test_case "access-log golden sequence" `Quick
      test_access_log_golden;
    Alcotest.test_case "telemetry timer histograms" `Quick
      test_telemetry_timer_histograms;
  ]
