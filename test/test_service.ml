(* Tests for the compile service (lib/service, DESIGN §15):

   - the content-addressed cache: identical requests hit and the reply
     is byte-identical to the cold one; whitespace/comment-only source
     edits canonicalize to the same key; any flag that steers
     compilation changes the key ([heap] only when [emit_c] does);
   - LRU eviction at the --cache-max cap, with the eviction counter;
   - the determinism contract: a batch's response stream is
     byte-identical at --jobs 1 and --jobs 4;
   - the wire protocol: line classification, whole-batch rejection of a
     malformed element, control ops, and error responses. *)

module J = Fgv_support.Json
module S = Fgv_service.Service
module C = Fgv_service.Cache
module P = Fgv_service.Protocol

let rq ?(id = "") ?(pipeline = "sv+v") ?(no_restrict = false)
    ?(emit_c = false) ?(heap = P.default_heap) source =
  {
    P.rq_id = id;
    rq_source = source;
    rq_pipeline = pipeline;
    rq_no_restrict = no_restrict;
    rq_emit_c = emit_c;
    rq_heap = heap;
  }

let src =
  "kernel k(float* restrict a, float* restrict b, int n) { for (int i = 0; \
   i < n; i = i + 1) { a[i] = b[i] + 1.0; } }"

(* Same token stream as [src]: comments, whitespace, and a numerically
   identical float literal spelling. *)
let src_reformatted =
  "kernel k(float* restrict a, float* restrict b, int n) {\n\
  \  // reformatted\n\
  \  for (int i = 0; i < n; i = i + 1) { /* body */ a[i]   = b[i] + 1.00; }\n\
   }"

let src_other i =
  Printf.sprintf
    "kernel k%d(float* restrict a, float* restrict b, int n) { for (int i \
     = 0; i < n; i = i + 1) { a[i] = b[i] * %d.0; } }"
    i i

let line r = P.response_line r

let test_hit_byte_identical () =
  let svc = S.create ~jobs:1 () in
  let cold = S.handle_request svc (rq src) in
  let cached = S.handle_request svc (rq src) in
  Alcotest.(check string) "cached reply is byte-identical" (line cold)
    (line cached);
  Alcotest.(check int) "one hit" 1 svc.S.hits;
  Alcotest.(check int) "one miss" 1 svc.S.misses

let test_canonicalization_hits () =
  let svc = S.create ~jobs:1 () in
  let a = S.handle_request svc (rq src) in
  let b = S.handle_request svc (rq src_reformatted) in
  Alcotest.(check string) "reformatted source is served from cache"
    (line a) (line b);
  Alcotest.(check int) "reformat was a hit" 1 svc.S.hits;
  Alcotest.(check string) "keys agree" (C.key (rq src))
    (C.key (rq src_reformatted))

let test_flags_change_key () =
  let base = C.key (rq src) in
  Alcotest.(check bool) "pipeline is in the key" false
    (base = C.key (rq ~pipeline:"o3" src));
  Alcotest.(check bool) "no_restrict is in the key" false
    (base = C.key (rq ~no_restrict:true src));
  Alcotest.(check bool) "emit_c is in the key" false
    (base = C.key (rq ~emit_c:true src));
  Alcotest.(check bool) "source is in the key" false
    (base = C.key (rq (src_other 1)));
  (* heap only steers the emitted C's memory image, so it participates
     exactly when emit_c does. *)
  Alcotest.(check string) "heap ignored without emit_c" base
    (C.key (rq ~heap:64 src));
  Alcotest.(check bool) "heap in the key with emit_c" false
    (C.key (rq ~emit_c:true ~heap:64 src)
    = C.key (rq ~emit_c:true ~heap:128 src));
  Alcotest.(check bool) "id is not in the key" true
    (base = C.key (rq ~id:"whatever" src))

let test_eviction_lru () =
  let svc = S.create ~jobs:1 ~cache_max:2 () in
  ignore (S.handle_request svc (rq (src_other 1)));
  ignore (S.handle_request svc (rq (src_other 2)));
  (* Touch 1 so 2 is the least recently used... *)
  ignore (S.handle_request svc (rq (src_other 1)));
  (* ...and a third distinct kernel evicts it. *)
  ignore (S.handle_request svc (rq (src_other 3)));
  Alcotest.(check int) "capped at two entries" 2 (C.length svc.S.cache);
  Alcotest.(check int) "one eviction" 1 (C.evictions svc.S.cache);
  ignore (S.handle_request svc (rq (src_other 1)));
  Alcotest.(check int) "kernel 1 survived (LRU evicted kernel 2)" 2
    svc.S.hits;
  ignore (S.handle_request svc (rq (src_other 2)));
  Alcotest.(check int) "kernel 2 was evicted, so it misses" 4 svc.S.misses

let batch_lines svc reqs =
  List.map line (S.handle_batch svc reqs)

let test_jobs_determinism () =
  (* Mixed batch: distinct kernels, duplicates to coalesce, one failing
     request.  The response stream must not depend on the job count. *)
  let reqs =
    [
      rq ~id:"a" (src_other 1);
      rq ~id:"b" (src_other 2);
      rq ~id:"dup" (src_other 1);
      rq ~id:"bad" "kernel oops(";
      rq ~id:"c" ~pipeline:"combined" ~emit_c:true ~heap:32 (src_other 3);
      rq ~id:"d" (src_other 4);
    ]
  in
  let out1 = batch_lines (S.create ~jobs:1 ()) reqs in
  let out4 = batch_lines (S.create ~jobs:4 ()) reqs in
  Alcotest.(check (list string)) "responses byte-identical at jobs 1 vs 4"
    out1 out4

let test_batch_coalescing () =
  let svc = S.create ~jobs:2 () in
  let reqs =
    [ rq ~id:"x" (src_other 7); rq ~id:"y" (src_other 7);
      rq ~id:"z" (src_other 7) ]
  in
  (match S.handle_batch svc reqs with
  | [
   P.Compiled { artifact = a1; _ };
   P.Compiled { artifact = a2; _ };
   P.Compiled { artifact = a3; _ };
  ] ->
    Alcotest.(check string) "duplicates share the one compile" a1.P.ar_ir
      a2.P.ar_ir;
    Alcotest.(check string) "all three agree" a1.P.ar_ir a3.P.ar_ir
  | _ -> Alcotest.fail "expected three compiled responses");
  Alcotest.(check int) "one miss" 1 svc.S.misses;
  Alcotest.(check int) "two coalesced, zero hits" 2 svc.S.coalesced;
  Alcotest.(check int) "zero hits within the batch" 0 svc.S.hits

let test_protocol_lines () =
  let classify text =
    match P.decode_line text with
    | P.Single _ -> "single"
    | P.Batch rs -> Printf.sprintf "batch:%d" (List.length rs)
    | P.Control c -> "control:" ^ P.control_name c
    | P.Malformed _ -> "malformed"
  in
  Alcotest.(check string) "object with source" "single"
    (classify {|{"source":"kernel k(int n) { }"}|});
  Alcotest.(check string) "array of requests" "batch:2"
    (classify {|[{"source":"a"},{"source":"b"}]|});
  Alcotest.(check string) "ping" "control:ping" (classify {|{"op":"ping"}|});
  Alcotest.(check string) "stats" "control:stats"
    (classify {|{"op":"stats"}|});
  Alcotest.(check string) "metrics" "control:metrics"
    (classify {|{"op":"metrics"}|});
  Alcotest.(check string) "metrics with text format" "control:metrics"
    (classify {|{"op":"metrics","format":"text"}|});
  Alcotest.(check string) "unknown metrics format" "malformed"
    (classify {|{"op":"metrics","format":"xml"}|});
  Alcotest.(check string) "unknown op" "malformed"
    (classify {|{"op":"dance"}|});
  Alcotest.(check string) "missing source" "malformed" (classify {|{}|});
  Alcotest.(check string) "bad JSON" "malformed" (classify "{nope");
  Alcotest.(check string) "non-object element rejects the whole batch"
    "malformed"
    (classify {|[{"source":"a"},42]|});
  Alcotest.(check string) "empty batch" "malformed" (classify "[]")

let test_handle_line_ops () =
  let svc = S.create ~jobs:1 () in
  let reply text =
    match S.handle_line svc text with
    | S.Reply s -> s
    | S.Quit s -> "quit:" ^ s
  in
  let parse s = Result.get_ok (J.of_string s) in
  let ping = parse (reply {|{"op":"ping"}|}) in
  Alcotest.(check (option int)) "ping reports the protocol version"
    (Some P.protocol_version)
    (J.int_member "protocol" ping);
  Alcotest.(check (option int)) "ping reports the cache schema"
    (Some C.schema_version)
    (J.int_member "cache_schema" ping);
  ignore (reply (P.encode_request (rq src) |> J.to_string ~minify:true));
  ignore (reply (P.encode_request (rq src) |> J.to_string ~minify:true));
  let stats = parse (reply {|{"op":"stats"}|}) in
  Alcotest.(check (option int)) "stats counts requests" (Some 2)
    (J.int_member "requests" stats);
  Alcotest.(check (option int)) "stats counts hits" (Some 1)
    (J.int_member "hits" stats);
  Alcotest.(check (option int)) "stats reports cache capacity" (Some 128)
    (J.int_member "capacity" stats);
  let metrics = parse (reply {|{"op":"metrics"}|}) in
  let counters = Option.get (J.member "counters" metrics) in
  Alcotest.(check (option int)) "metrics agrees with stats on requests"
    (J.int_member "requests" stats)
    (J.int_member "requests" counters);
  let cache = Option.get (J.member "cache" metrics) in
  Alcotest.(check (option int)) "metrics reports cache entries" (Some 1)
    (J.int_member "entries" cache);
  (match J.member "hit_rate" cache with
  | Some (J.Float r) ->
    Alcotest.(check (float 1e-9)) "hit rate is hits/requests" 0.5 r
  | _ -> Alcotest.fail "metrics cache has no hit_rate");
  let request_hist =
    Option.get (J.member "timing" metrics)
    |> J.member "histograms" |> Option.get
    |> J.member "request" |> Option.get
  in
  Alcotest.(check (option int)) "request histogram saw both requests"
    (Some 2)
    (J.int_member "count" request_hist);
  let text = parse (reply {|{"op":"metrics","format":"text"}|}) in
  (match J.string_member "body" text with
  | Some body ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "text exposition carries the request histogram"
      true
      (contains body "fgv_request_duration_seconds_count 2")
  | None -> Alcotest.fail "text metrics has no body");
  let err = parse (reply "{nope") in
  Alcotest.(check (option bool)) "malformed line answers ok:false"
    (Some false) (J.bool_member "ok" err);
  Alcotest.(check string) "shutdown quits" "quit:{\"ok\":true}"
    (reply {|{"op":"shutdown"}|})

let test_failures_not_cached () =
  let svc = S.create ~jobs:1 () in
  (match S.handle_request svc (rq "kernel oops(") with
  | P.Failed _ -> ()
  | P.Compiled _ | P.Compiled_many _ -> Alcotest.fail "expected a parse failure");
  (match S.handle_request svc (rq "kernel oops(") with
  | P.Failed _ -> ()
  | P.Compiled _ | P.Compiled_many _ -> Alcotest.fail "expected a parse failure");
  Alcotest.(check int) "failures never hit" 0 svc.S.hits;
  Alcotest.(check int) "failures are recompiled" 2 svc.S.misses;
  Alcotest.(check int) "failures are not stored" 0 (C.length svc.S.cache);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match S.handle_request svc (rq ~pipeline:"warp-speed" src) with
  | P.Failed { error; _ } ->
    Alcotest.(check bool) "unknown pipeline names the registry" true
      (contains error "unknown pipeline")
  | P.Compiled _ | P.Compiled_many _ ->
    Alcotest.fail "expected an unknown-pipeline failure"

(* An edit is new content under a kernel's name, pipeline and flags.
   The same kernel under a second pipeline is a first sight of that
   compile, not an edit. *)
let test_second_pipeline_is_not_an_edit () =
  let svc = S.create ~jobs:1 () in
  ignore (S.handle_request svc (rq ~pipeline:"sv+v" src));
  ignore (S.handle_request svc (rq ~pipeline:"o3" src));
  ignore (S.handle_request svc (rq ~pipeline:"sv+v" ~no_restrict:true src));
  Alcotest.(check int) "three compiles" 3 svc.S.urecomputed;
  Alcotest.(check int) "no invalidation across pipelines or flags" 0
    svc.S.uinvalidated;
  let edited =
    "kernel k(float* restrict a, float* restrict b, int n) { for (int i = \
     0; i < n; i = i + 1) { a[i] = b[i] + 2.0; } }"
  in
  ignore (S.handle_request svc (rq ~pipeline:"o3" edited));
  Alcotest.(check int) "a real edit invalidates once" 1 svc.S.uinvalidated

let suite =
  [
    Alcotest.test_case "hit is byte-identical" `Quick
      test_hit_byte_identical;
    Alcotest.test_case "canonicalization" `Quick test_canonicalization_hits;
    Alcotest.test_case "flags change the key" `Quick test_flags_change_key;
    Alcotest.test_case "LRU eviction at cache-max" `Quick test_eviction_lru;
    Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
    Alcotest.test_case "batch coalescing" `Quick test_batch_coalescing;
    Alcotest.test_case "protocol classification" `Quick test_protocol_lines;
    Alcotest.test_case "control ops" `Quick test_handle_line_ops;
    Alcotest.test_case "failures are not cached" `Quick
      test_failures_not_cached;
    Alcotest.test_case "second pipeline is not an edit" `Quick
      test_second_pipeline_is_not_an_edit;
  ]
