(* Tests for per-kernel recompilation in the compile service (DESIGN
   §17): the service's per-kernel sub-keys make an edit to one kernel of
   a batched translation unit recompile only that kernel, with responses
   byte-identical to a fresh cold service at any job count.  Compiles
   themselves keep no cross-call state, so no pipeline run may leave an
   [incremental.*] counter behind. *)

module Tm = Fgv_support.Telemetry
module S = Fgv_service.Service
module C = Fgv_service.Cache
module P = Fgv_service.Protocol
module W = Fgv_bench.Workload

let rq ?(pipeline = "sv+v") source =
  {
    P.rq_id = "";
    rq_source = source;
    rq_pipeline = pipeline;
    rq_no_restrict = false;
    rq_emit_c = false;
    rq_heap = P.default_heap;
  }

let unit_kernel name c =
  Printf.sprintf
    "kernel %s(float* restrict a, float* restrict b, int n) { for (int i = \
     0; i < n; i = i + 1) { a[i] = b[i] * %d.0; } }"
    name c

let test_service_units () =
  let svc = S.create ~jobs:1 () in
  let src v = unit_kernel "one" 2 ^ "\n" ^ unit_kernel "two" v in
  (* cold: both kernels compile *)
  (match S.handle_request svc (rq (src 3)) with
  | P.Compiled_many { artifacts = [ a; b ]; _ } ->
    Alcotest.(check string) "units in source order" "one" a.P.ar_func;
    Alcotest.(check string) "second unit" "two" b.P.ar_func
  | _ -> Alcotest.fail "expected two artifacts");
  Alcotest.(check int) "two units asked" 2 svc.S.uqueries;
  Alcotest.(check int) "cold: no unit hits" 0 svc.S.uhits;
  (* unchanged: both hit, and the request is a hit *)
  ignore (S.handle_request svc (rq (src 3)));
  Alcotest.(check int) "warm: both units hit" 2 svc.S.uhits;
  Alcotest.(check int) "request-level hit" 1 svc.S.hits;
  (* edit kernel two: one hit, one invalidated recompile *)
  let edited = S.handle_request svc (rq (src 4)) in
  Alcotest.(check int) "edited: untouched kernel still hits" 3 svc.S.uhits;
  Alcotest.(check int) "edited kernel was invalidated" 1 svc.S.uinvalidated;
  Alcotest.(check int) "three recompiles total" 3 svc.S.urecomputed;
  (* the incremental response is byte-identical to a fresh cold one *)
  let fresh = S.create ~jobs:1 () in
  Alcotest.(check string) "byte-identical to a fresh compile"
    (P.response_line (S.handle_request fresh (rq (src 4))))
    (P.response_line edited);
  (* request-level accounting still balances *)
  Alcotest.(check int) "hits + coalesced + misses = requests"
    svc.S.requests
    (svc.S.hits + svc.S.coalesced + svc.S.misses)

let test_unit_key_isolation () =
  (* the sibling's text is not in a unit's key: the same kernel batched
     with different partners keeps one key *)
  let one = unit_kernel "one" 2 and two = unit_kernel "two" 3 in
  let both = one ^ "\n" ^ two in
  let keys src =
    match Fgv_frontend.Parser.parse_program src with
    | units -> List.map (fun (_, slice) -> C.unit_key (rq src) slice) units
    | exception _ -> Alcotest.fail "expected the source to parse"
  in
  (match (keys both, keys one, keys two) with
  | [ k1; k2 ], [ k1' ], [ k2' ] ->
    Alcotest.(check string) "first unit key is partner-independent" k1 k1';
    Alcotest.(check string) "second unit key is partner-independent" k2 k2'
  | _ -> Alcotest.fail "unexpected unit split");
  (* whole-request and unit keys never collide, even for one kernel *)
  Alcotest.(check bool) "unit keys are tagged apart from request keys"
    false
    (List.mem (C.key (rq one)) (keys one))

(* 200-seed sweep: random 2-kernel sources, a random single-kernel edit,
   and the incremental response must byte-equal a fresh cold service's
   answer for the edited source. *)
let test_fuzz_incremental_equals_fresh () =
  let pipelines = [| "sv+v"; "o3"; "dse" |] in
  for seed = 0 to 199 do
    let st = Random.State.make [| 0xfeed; seed |] in
    let const () = 1 + Random.State.int st 9 in
    let k name c = unit_kernel name c in
    let c1 = const () and c2 = const () in
    let pipeline = pipelines.(Random.State.int st (Array.length pipelines)) in
    let src a b = k "alpha" a ^ "\n" ^ k "beta" b in
    let svc = S.create ~jobs:1 () in
    ignore (S.handle_request svc (rq ~pipeline (src c1 c2)));
    (* edit exactly one kernel to a guaranteed-different constant *)
    let c1', c2' =
      if Random.State.bool st then (c1 + 10, c2) else (c1, c2 + 10)
    in
    let incremental =
      P.response_line (S.handle_request svc (rq ~pipeline (src c1' c2')))
    in
    let fresh = S.create ~jobs:1 () in
    let cold =
      P.response_line (S.handle_request fresh (rq ~pipeline (src c1' c2')))
    in
    if incremental <> cold then
      Alcotest.failf "seed %d: incremental response differs from fresh" seed
  done

(* The unit-keyed service keeps the determinism contract across job
   counts: same multi-kernel request sequence, byte-identical responses
   and identical counter deltas at jobs 1 and jobs 4. *)
let test_service_jobs_fingerprint () =
  let srcs =
    [
      unit_kernel "a" 2 ^ "\n" ^ unit_kernel "b" 3 ^ "\n" ^ unit_kernel "c" 4;
      unit_kernel "a" 2 ^ "\n" ^ unit_kernel "b" 5 ^ "\n" ^ unit_kernel "c" 4;
      unit_kernel "d" 6;
    ]
  in
  let drive jobs =
    Tm.capture (fun () ->
        let svc = S.create ~jobs () in
        List.map
          (fun src -> P.response_line (S.handle_request svc (rq src)))
          srcs)
  in
  let out1, delta1 = drive 1 in
  let out4, delta4 = drive 4 in
  Alcotest.(check (list string)) "responses byte-identical at jobs 1 vs 4"
    out1 out4;
  let show d =
    List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) (List.sort compare d)
  in
  Alcotest.(check (list string)) "counter deltas identical at jobs 1 vs 4"
    (show delta1) (show delta4)

(* Compiles carry no query engine: across every registered pipeline,
   a run leaves no [incremental.*] counter.  Only the service's own
   unit ledger lives under that word, as [service.incremental.*]. *)
let test_pipelines_leave_no_engine_counters () =
  let kernel pool name = (List.find (fun k -> k.W.k_name = name) pool).W.k_source in
  let sources =
    [ kernel Fgv_bench.Tsvc.kernels "s131";
      kernel Fgv_bench.Polybench.kernels "floyd-warshall" ]
  in
  let is_engine n = String.starts_with ~prefix:"incremental." n in
  List.iter
    (fun (pipeline, apply) ->
      List.iter
        (fun src ->
          let (), delta =
            Tm.capture (fun () ->
                apply ?on_pass:None (Fgv_frontend.Lower_ast.compile src))
          in
          match List.filter (fun (n, _) -> is_engine n) delta with
          | [] -> ()
          | (n, _) :: _ -> Alcotest.failf "%s left counter %s" pipeline n)
        sources)
    Fgv_passes.Pipelines.registry;
  let (), delta =
    Tm.capture (fun () ->
        ignore (S.handle_request (S.create ~jobs:1 ()) (rq (unit_kernel "k" 2))))
  in
  Alcotest.(check bool) "the service's unit ledger still counts" true
    (List.mem_assoc "service.incremental.queries_asked" delta);
  Alcotest.(check (list string)) "no bare incremental.* counter" []
    (List.map fst (List.filter (fun (n, _) -> is_engine n) delta))

let suite =
  [
    Alcotest.test_case "service splits kernels into units" `Quick
      test_service_units;
    Alcotest.test_case "unit keys are partner-independent" `Quick
      test_unit_key_isolation;
    Alcotest.test_case "fuzz: incremental equals fresh (200 seeds)" `Slow
      test_fuzz_incremental_equals_fresh;
    Alcotest.test_case "unit-keyed service jobs fingerprint" `Quick
      test_service_jobs_fingerprint;
    Alcotest.test_case "pipelines leave no incremental.* counter" `Quick
      test_pipelines_leave_no_engine_counters;
  ]
