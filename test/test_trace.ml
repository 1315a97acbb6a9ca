(* Tests for the tracing/remarks subsystem (lib/support/trace.ml) and the
   unified-diff printer backing --dump-ir snapshots:

   - span Begin/End entries nest and order deterministically;
   - the Chrome trace-event export round-trips through the independent
     JSON parser in {!Harness} and has the shape Perfetto expects;
   - the remark stream is byte-identical under Pool.map at any job count;
   - a golden test pins the versioning decision sequence (cut found ->
     check emitted -> nodes versioned) for TSVC s131, the paper's running
     symbolic-dependence-distance example;
   - udiff produces conventional unified hunks. *)

module Tr = Fgv_support.Trace
module J = Fgv_support.Json
module Pool = Fgv_support.Pool
module Udiff = Fgv_support.Udiff
module P = Fgv_passes.Pipelines

(* Run [f] with spans/remarks enabled as requested, restoring the global
   flags and clearing this domain's buffers afterwards so no other suite
   observes tracing state. *)
let with_tracing ?(spans = false) ?(remarks = false) f =
  let s0 = Tr.spans_on () and r0 = Tr.remarks_on () in
  Tr.set_spans spans;
  Tr.set_remarks remarks;
  Tr.reset ();
  Fun.protect
    ~finally:(fun () ->
      Tr.set_spans s0;
      Tr.set_remarks r0;
      Tr.reset ())
    f

(* ---------------------------------------------------------------- spans *)

(* Project the trace down to the deterministic part: (ph, name) pairs in
   emission order, skipping metadata. *)
let span_shape () =
  match Tr.chrome_trace () with
  | J.Assoc fields -> (
    match List.assoc "traceEvents" fields with
    | J.List evs ->
      List.filter_map
        (fun ev ->
          match ev with
          | J.Assoc f -> (
            match List.assoc "ph" f with
            | J.String "M" -> None
            | J.String ph ->
              let name =
                match List.assoc_opt "name" f with
                | Some (J.String n) -> n
                | _ -> ""
              in
              Some (ph, name)
            | _ -> Alcotest.fail "ph must be a string")
          | _ -> Alcotest.fail "event must be an object")
        evs
    | _ -> Alcotest.fail "traceEvents must be a list")
  | _ -> Alcotest.fail "trace must be an object"

let test_span_nesting () =
  with_tracing ~spans:true (fun () ->
      let r =
        Tr.with_span "a" (fun () ->
            let x = Tr.with_span "b" (fun () -> 1) in
            x + Tr.with_span "c" (fun () -> 2))
      in
      Alcotest.(check int) "with_span returns the thunk's value" 3 r;
      (try Tr.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check (list (pair string string)))
        "begin/end entries encode the nesting"
        [
          ("B", "a"); ("B", "b"); ("E", ""); ("B", "c"); ("E", ""); ("E", "");
          ("B", "boom"); ("E", "");
        ]
        (span_shape ()))

let test_spans_disabled_record_nothing () =
  with_tracing ~spans:false (fun () ->
      ignore (Tr.with_span "quiet" (fun () -> 7));
      Alcotest.(check (list (pair string string)))
        "disabled spans leave no events" [] (span_shape ()))

let test_chrome_trace_shape () =
  with_tracing ~spans:true (fun () ->
      ignore
        (Tr.with_span ~cat:"pipeline" ~args:[ ("vl", J.Int 4) ] "sv" (fun () ->
             Tr.with_span ~cat:"pass" "slp" (fun () -> ())));
      match Harness.parse_json (J.to_string (Tr.chrome_trace ())) with
      | J.Assoc fields ->
        (match List.assoc "displayTimeUnit" fields with
        | J.String "ms" -> ()
        | _ -> Alcotest.fail "displayTimeUnit must be \"ms\"");
        (match List.assoc "otherData" fields with
        | J.Assoc od ->
          Alcotest.(check bool)
            "trace schema version" true
            (List.assoc "schema_version" od = J.Int 1)
        | _ -> Alcotest.fail "otherData must be an object");
        (match List.assoc "traceEvents" fields with
        | J.List evs ->
          Alcotest.(check bool) "has events" true (List.length evs >= 5);
          List.iter
            (fun ev ->
              match ev with
              | J.Assoc f -> (
                (match List.assoc "ph" f with
                | J.String ("B" | "E" | "M") -> ()
                | _ -> Alcotest.fail "ph must be B, E or M");
                match List.assoc_opt "pid" f with
                | Some (J.Int _) -> ()
                | _ -> Alcotest.fail "every event carries a pid")
              | _ -> Alcotest.fail "event must be an object")
            evs;
          (* B events carry name/cat/ts/tid; ts is a number *)
          let bs =
            List.filter
              (function
                | J.Assoc f -> List.assoc "ph" f = J.String "B"
                | _ -> false)
              evs
          in
          Alcotest.(check int) "two begin events" 2 (List.length bs);
          List.iter
            (function
              | J.Assoc f ->
                (match (List.assoc "name" f, List.assoc "cat" f) with
                | J.String _, J.String _ -> ()
                | _ -> Alcotest.fail "B event needs name and cat");
                (match List.assoc "ts" f with
                | J.Float _ | J.Int _ -> ()
                | _ -> Alcotest.fail "ts must be numeric");
                (match List.assoc "tid" f with
                | J.Int _ -> ()
                | _ -> Alcotest.fail "tid must be an int")
              | _ -> assert false)
            bs
        | _ -> Alcotest.fail "traceEvents must be a list")
      | _ -> Alcotest.fail "trace must parse as an object")

(* -------------------------------------------------------------- remarks *)

let test_remark_text_format () =
  let a = Tr.anchor ~loop:0 ~value:"v12" "fn" in
  Alcotest.(check string)
    "anchor renders as fn:L0:v12"
    "remark: fn:L0:v12: min-cut severed 2 conditional dependence edge(s) \
     (capacity 3)"
    (Tr.remark_text (a, Tr.Cut_found { edges = 2; capacity = 3 }))

let test_remarks_jsonl_roundtrip () =
  with_tracing ~remarks:true (fun () ->
      Tr.remark (Tr.anchor "f") (Tr.Pass_skipped { pass = "dce"; reason = "no opportunities" });
      Tr.remark
        (Tr.anchor ~loop:1 "f")
        (Tr.Pass_applied { pass = "slp"; work = [ ("vectors", 4) ] });
      let lines =
        String.split_on_char '\n' (Tr.remarks_jsonl ())
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one line per remark" 2 (List.length lines);
      match List.map Harness.parse_json lines with
      | [ J.Assoc first; J.Assoc second ] ->
        Alcotest.(check bool)
          "slug field" true
          (List.assoc "remark" first = J.String "pass-skipped");
        Alcotest.(check bool)
          "anchor function" true
          (List.assoc "function" first = J.String "f");
        Alcotest.(check bool)
          "no loop key without a loop anchor" true
          (List.assoc_opt "loop" first = None);
        Alcotest.(check bool)
          "loop anchor serialized" true
          (List.assoc "loop" second = J.Int 1);
        Alcotest.(check bool)
          "pass work payload flattened" true
          (List.assoc "vectors" second = J.Int 4)
      | _ -> Alcotest.fail "each line must parse as an object")

(* The pool replays per-task trace shards in input index order, so the
   remark stream must not depend on the worker count or the schedule. *)
let test_remark_determinism_across_jobs () =
  let stream jobs =
    with_tracing ~remarks:true (fun () ->
        let work i =
          (* uneven work so jobs=4 actually interleaves *)
          let spin = if i mod 3 = 0 then 20_000 else 10 in
          let acc = ref 0 in
          for k = 1 to spin do
            acc := (!acc + (k * i)) mod 977
          done;
          Tr.remark
            (Tr.anchor ~loop:(i mod 2) (Printf.sprintf "fn%d" i))
            (Tr.Cut_found { edges = i; capacity = !acc });
          i
        in
        let out = Pool.map ~jobs work (List.init 24 Fun.id) in
        Alcotest.(check (list int)) "results in input order"
          (List.init 24 Fun.id) out;
        Tr.remarks_jsonl ())
  in
  let s1 = stream 1 in
  Alcotest.(check int) "one remark per task" 24
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' s1)));
  Alcotest.(check string) "jobs=4 matches jobs=1" s1 (stream 4);
  Alcotest.(check string) "jobs=3 matches jobs=1" s1 (stream 3)

(* Golden decision sequence for the paper's running example: compiling
   TSVC s131 (symbolic dependence distance m) under sv+v must find a
   cut, emit exactly one overlap check, and version the unrolled loop
   body — in that order.  Pins both the remark taxonomy and the
   emission points in cut.ml/materialize.ml. *)
let s131_src =
  "kernel s131(float* restrict a, float* restrict b, int n, int m) {\n\
   \  for (int i = 0; i < n - 1; i = i + 1) {\n\
   \    a[i] = a[i + m] + b[i];\n\
   \  }\n\
   }\n"

let test_golden_s131_decisions () =
  let f = Harness.compile s131_src in
  let (_ : P.pass_stats), remarks =
    Tr.collect_remarks (fun () -> P.sv_versioning f)
  in
  let decisions =
    List.filter_map
      (fun (_, r) ->
        match r with
        | Tr.Cut_found { edges; _ } -> Some (Printf.sprintf "cut:%d" edges)
        | Tr.Check_emitted { atoms; _ } -> Some (Printf.sprintf "check:%d" atoms)
        | Tr.Versioned { conds; _ } -> Some (Printf.sprintf "versioned:%d" conds)
        | Tr.Cut_infeasible _ | Tr.Plan_infeasible -> Some "infeasible"
        | Tr.Materialize_aborted _ -> Some "aborted"
        | _ -> None)
      remarks
  in
  (* four unrolled lanes each request a plan over the same dependence;
     one check of one overlap atom guards the versioned body *)
  Alcotest.(check (list string))
    "s131 decision sequence"
    [ "cut:6"; "cut:6"; "cut:6"; "cut:6"; "check:1"; "versioned:1" ]
    decisions;
  (* every remark is anchored at s131 *)
  List.iter
    (fun ((a : Tr.anchor), _) ->
      Alcotest.(check string) "anchor function" "s131" a.Tr.a_func)
    remarks;
  (* collect_remarks restored the disabled state *)
  Alcotest.(check bool) "remarks flag restored" false (Tr.remarks_on ())

(* Plan inference and the min-cut run inline in the compile, so their
   spans reach the trace: per-layer accounting reads its versioning
   self-times from exactly these two names. *)
let test_s131_versioning_spans () =
  with_tracing ~spans:true (fun () ->
      ignore (P.sv_versioning (Harness.compile s131_src));
      let begun name = List.mem ("B", name) (span_shape ()) in
      Alcotest.(check bool) "plan.infer span emitted" true (begun "plan.infer");
      Alcotest.(check bool) "cut.find span emitted" true (begun "cut.find"))

(* ---------------------------------------------------------------- udiff *)

let test_udiff_equal_is_empty () =
  Alcotest.(check string) "no diff for equal inputs" ""
    (Udiff.unified "a\nb\n" "a\nb\n")

let test_udiff_golden () =
  let before = "one\ntwo\nthree\nfour\nfive\nsix\nseven\n" in
  let after = "one\ntwo\nthree\nFOUR\nfive\nsix\nseven\n" in
  Alcotest.(check string) "single-hunk replacement"
    "--- before\n\
     +++ after\n\
     @@ -1,7 +1,7 @@\n\
    \ one\n\
    \ two\n\
    \ three\n\
     -four\n\
     +FOUR\n\
    \ five\n\
    \ six\n\
    \ seven\n"
    (Udiff.unified before after)

let test_udiff_hunks_and_labels () =
  let mk n = String.concat "\n" (List.init n (Printf.sprintf "line%d")) ^ "\n" in
  let before = mk 30 in
  let after =
    String.concat "\n"
      (List.map
         (fun l -> if l = "line2" || l = "line27" then l ^ "!" else l)
         (List.init 30 (Printf.sprintf "line%d")))
    ^ "\n"
  in
  let d = Udiff.unified ~from_label:"x.pssa" ~to_label:"y.pssa" before after in
  let lines = String.split_on_char '\n' d in
  Alcotest.(check string) "from label" "--- x.pssa" (List.nth lines 0);
  Alcotest.(check string) "to label" "+++ y.pssa" (List.nth lines 1);
  let hunks = List.filter (fun l -> String.length l > 1 && l.[0] = '@') lines in
  Alcotest.(check int) "two distant changes give two hunks" 2 (List.length hunks);
  Alcotest.(check (list string))
    "hunk headers carry line numbers"
    [ "@@ -1,6 +1,6 @@"; "@@ -25,6 +25,6 @@" ]
    hunks

let test_udiff_insertion_deletion () =
  let d = Udiff.unified ~context:1 "a\nb\nc\n" "a\nc\n" in
  Alcotest.(check string) "pure deletion"
    "--- before\n+++ after\n@@ -1,3 +1,2 @@\n a\n-b\n c\n" d;
  let d = Udiff.unified ~context:1 "a\nc\n" "a\nb\nc\n" in
  Alcotest.(check string) "pure insertion"
    "--- before\n+++ after\n@@ -1,2 +1,3 @@\n a\n+b\n c\n" d

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "disabled spans record nothing" `Quick
      test_spans_disabled_record_nothing;
    Alcotest.test_case "chrome trace shape round-trips" `Quick
      test_chrome_trace_shape;
    Alcotest.test_case "remark text format" `Quick test_remark_text_format;
    Alcotest.test_case "remarks JSONL round-trip" `Quick
      test_remarks_jsonl_roundtrip;
    Alcotest.test_case "remark determinism across jobs" `Quick
      test_remark_determinism_across_jobs;
    Alcotest.test_case "golden s131 decision sequence" `Quick
      test_golden_s131_decisions;
    Alcotest.test_case "s131 plan.infer and cut.find spans" `Quick
      test_s131_versioning_spans;
    Alcotest.test_case "udiff: equal inputs" `Quick test_udiff_equal_is_empty;
    Alcotest.test_case "udiff: golden hunk" `Quick test_udiff_golden;
    Alcotest.test_case "udiff: hunk grouping and labels" `Quick
      test_udiff_hunks_and_labels;
    Alcotest.test_case "udiff: insertions and deletions" `Quick
      test_udiff_insertion_deletion;
  ]
