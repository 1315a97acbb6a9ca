(* The compile-service loop (DESIGN §15): take {!Protocol} lines from a
   channel or a Unix socket, fan distinct compiles across the
   work-stealing {!Fgv_support.Pool}, answer from the content-addressed
   {!Cache} when the key is already resolved.

   Determinism contract: for a fixed request sequence the response byte
   stream is identical at any [--jobs] count and whatever the cache has
   absorbed, because

   - each compile runs under one {!Obs.capture} and collects its own
     remarks, so artifacts are pure functions of the request;
   - the coordinator replays the compiles' records in request order,
     never join order, so counters and trace spans land as if every
     compile had run inline;
   - cache recency/eviction is driven only from the coordinating domain,
     in request order;
   - responses carry no cache metadata and no timestamps.

   Hit accounting (the only place cached and fresh diverge, and it is
   out-of-band): a request whose key is already resolved in the cache is
   a {e hit}; a duplicate of an earlier request in the same batch is
   {e coalesced} (one compile serves all copies, but the cache cannot
   take credit); everything else is a {e miss}.  So
   hits + coalesced + misses = requests. *)

module J = Fgv_support.Json
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module Obs = Fgv_support.Obs
module H = Fgv_support.Histogram
module Ev = Fgv_support.Eventlog
module Pool = Fgv_support.Pool
module Version = Fgv_support.Version
module Lower_ast = Fgv_frontend.Lower_ast
module P = Protocol

type t = {
  cache : Cache.t;
  jobs : int;
  slow_ms : float option;
      (** emit a warn-level event when a request exceeds this *)
  started : float;  (** wall clock at {!create}, for metrics uptime *)
  h_request : H.t;  (** per-request service latency (coordinator-only) *)
  h_batch : H.t;  (** whole-batch wall time (coordinator-only) *)
  mutable requests : int;
  mutable batches : int;
  mutable hits : int;
  mutable coalesced : int;
  mutable misses : int;
  mutable errors : int;
  (* incremental (per-kernel unit) accounting, DESIGN §17: a request
     splits into one unit per top-level kernel; each unit is asked,
     and either hits the artifact cache, coalesces onto a same-batch
     duplicate, or recompiles.  [uinvalidated] counts recompiles of a
     kernel {e name} the service had already compiled under the same
     pipeline and flags but a different content fingerprint — i.e. edits
     detected, not first sights (the same kernel under a second pipeline
     is a first sight of that compile, not an edit). *)
  mutable uqueries : int;
  mutable uhits : int;
  mutable uinvalidated : int;
  mutable urecomputed : int;
  fp_by_name : (string, string) Hashtbl.t;
      (** kernel name × pipeline × flags -> unit key of its last
          compiled content *)
  reply : Buffer.t;
      (** every reply line is written here; it keeps its capacity from
          one reply to the next *)
}

let create ?(jobs = Pool.default_jobs ()) ?cache_max ?slow_ms () : t =
  {
    cache = Cache.create ?max_entries:cache_max ();
    jobs = max 1 jobs;
    slow_ms;
    started = Unix.gettimeofday ();
    h_request = H.create ();
    h_batch = H.create ();
    requests = 0;
    batches = 0;
    hits = 0;
    coalesced = 0;
    misses = 0;
    errors = 0;
    uqueries = 0;
    uhits = 0;
    uinvalidated = 0;
    urecomputed = 0;
    fp_by_name = Hashtbl.create 64;
    reply = Buffer.create 4096;
  }

(* ----------------------------------------------------------- compiling *)

(* Optimize and package one lowered function: pipeline, verifier,
   optional C lowering.  Shared by the whole-source fallback path and
   the per-kernel unit path. *)
let package_artifact (rq : P.request) (f : Fgv_pssa.Ir.func) :
    (P.artifact, string) result =
  match
    if rq.P.rq_pipeline = "none" then Some (fun ?on_pass:_ _f -> ())
    else Fgv_passes.Pipelines.find rq.P.rq_pipeline
  with
  | None ->
    Error
      (Printf.sprintf "unknown pipeline %s (one of: %s)" rq.P.rq_pipeline
         (String.concat ", " ("none" :: Fgv_passes.Pipelines.names)))
  | Some apply -> (
    match Tr.collect_remarks (fun () -> apply ?on_pass:None f) with
    | exception exn ->
      Error ("pipeline crashed: " ^ Printexc.to_string exn)
    | (), remarks -> (
      match Fgv_pssa.Verifier.verify_or_message f with
      | Some m -> Error ("optimized IR is ill-formed: " ^ m)
      | None ->
        let c =
          if not rq.P.rq_emit_c then None
          else
            let mem =
              Array.init rq.P.rq_heap (fun i ->
                  Fgv_pssa.Value.VFloat (Float.of_int (i mod 7)))
            in
            Some (Fgv_backend.Emit.checked (Fgv_cfg.Lower.lower f) ~mem)
        in
        Ok
          {
            P.ar_func = f.Fgv_pssa.Ir.fname;
            ar_ir = Fgv_pssa.Printer.to_string f;
            ar_remarks = List.map Tr.remark_json remarks;
            ar_c = c;
            ar_counters = [];
          }))

(* One cold whole-source compile: frontend, pipeline, verifier, optional
   C lowering.  Runs inside a pool worker under its own capture, so the
   counters its artifact carries are exactly this compile's.  Remarks
   are collected rather than streamed: they belong to the artifact.
   Used when the source does not split into kernel units (it does not
   lex/parse), so the request's own error comes from the same frontend
   path it always did. *)
let compile_artifact (rq : P.request) : (P.artifact, string) result =
  match
    (if rq.rq_no_restrict then Lower_ast.compile_no_restrict
     else Lower_ast.compile)
      rq.rq_source
  with
  | exception Fgv_frontend.Lexer.Error m -> Error ("lex error: " ^ m)
  | exception Fgv_frontend.Parser.Error m -> Error ("parse error: " ^ m)
  | exception Lower_ast.Error m -> Error ("lowering error: " ^ m)
  | f -> package_artifact rq f

(* One cold per-kernel compile, from the already-parsed declaration. *)
let compile_unit (rq : P.request) (fd : Fgv_frontend.Ast.fdecl) :
    (P.artifact, string) result =
  match Lower_ast.compile_fdecl ~no_restrict:rq.P.rq_no_restrict fd with
  | exception Lower_ast.Error m -> Error ("lowering error: " ^ m)
  | f -> package_artifact rq f

(* ------------------------------------------------------------- batches *)

(* One compile unit of a request: a top-level kernel with its own cache
   sub-key, or the whole source when it does not parse (so the error
   response comes from the same frontend path it always did, and is
   never cached). *)
type unit_src =
  | Ufn of Fgv_frontend.Ast.fdecl
  | Uwhole

(* Split a request into (unit, key) pairs, in source order. *)
let split_units (rq : P.request) : (unit_src * string) list =
  match Fgv_frontend.Parser.parse_program rq.P.rq_source with
  | units ->
    List.map (fun (fd, slice) -> (Ufn fd, Cache.unit_key rq slice)) units
  | exception (Fgv_frontend.Lexer.Error _ | Fgv_frontend.Parser.Error _) ->
    [ (Uwhole, Cache.key rq) ]

type resolution =
  | Hit of P.artifact * float
      (** artifact grabbed at classification, before any insert can
          evict it, plus the lookup's wall seconds *)
  | Await of [ `Miss | `Coalesced ]

(* Outcome slug for access-log records and slow-request warnings.  A
   multi-unit request reports the most expensive outcome any of its
   units had: one recompiled kernel makes the request a miss however
   many siblings hit. *)
let resolution_name = function
  | Hit _ -> "hit"
  | Await `Miss -> "miss"
  | Await `Coalesced -> "coalesced"

let request_outcome (units : resolution list) : string =
  if List.exists (function Await `Miss -> true | _ -> false) units then "miss"
  else if List.exists (function Await `Coalesced -> true | _ -> false) units
  then "coalesced"
  else "hit"

let handle_batch (t : t) (reqs : P.request list) : P.response list =
  t.batches <- t.batches + 1;
  Tm.incr "service.batches";
  let batch_start = Unix.gettimeofday () in
  let seq_base = t.requests in
  (* seq of the i-th request of this batch, monotonic per service *)
  let seq i = seq_base + i + 1 in
  let keyed = List.map (fun rq -> (rq, split_units rq)) reqs in
  (* Classify every unit in request order; collect distinct unresolved
     keys in first-occurrence order (tagged with their request seq so
     worker spans can carry it).  All cache touches happen here on the
     coordinating domain, so recency and eviction stay deterministic at
     any job count. *)
  let pending = ref [] in
  let pending_set = Hashtbl.create 16 in
  let plan =
    List.mapi
      (fun i (rq, units) ->
        t.requests <- t.requests + 1;
        Tm.incr "service.requests";
        Tr.with_span ~cat:"service"
          ~args:[ ("seq", J.Int (seq i)) ]
          "service.lookup"
          (fun () ->
            List.map
              (fun (u, key) ->
                t.uqueries <- t.uqueries + 1;
                Tm.incr "service.incremental.queries_asked";
                let t0 = Unix.gettimeofday () in
                match Cache.find t.cache key with
                | Some a ->
                  let dt = Unix.gettimeofday () -. t0 in
                  t.uhits <- t.uhits + 1;
                  Tm.incr "service.cache.hits";
                  Tm.incr "service.incremental.memo_hits";
                  Tr.remark (Tr.anchor a.P.ar_func)
                    (Tr.Cache_hit { key; pipeline = rq.P.rq_pipeline });
                  Hit (a, dt)
                | None ->
                  if Hashtbl.mem pending_set key then begin
                    Tm.incr "service.cache.coalesced";
                    Await `Coalesced
                  end
                  else begin
                    Tm.incr "service.cache.misses";
                    t.urecomputed <- t.urecomputed + 1;
                    Tm.incr "service.incremental.recomputed";
                    (* an edit: this kernel name was compiled before,
                       under the same pipeline and flags but different
                       content *)
                    (match u with
                    | Ufn fd ->
                      let slot =
                        String.concat "\x00"
                          (fd.Fgv_frontend.Ast.fdname :: Cache.flag_fields rq)
                      in
                      (match Hashtbl.find_opt t.fp_by_name slot with
                      | Some old_key when old_key <> key ->
                        t.uinvalidated <- t.uinvalidated + 1;
                        Tm.incr "service.incremental.invalidated"
                      | _ -> ());
                      Hashtbl.replace t.fp_by_name slot key
                    | Uwhole -> ());
                    Hashtbl.add pending_set key ();
                    pending := (rq, u, key, seq i) :: !pending;
                    Await `Miss
                  end)
              units))
      keyed
  in
  (* Compile the distinct misses in parallel, each under one capture
     that holds its trace span (carrying the request seq) and every
     pipeline span inside it; replay the records in request order so
     the global counters and the trace are deterministic at any job
     count.  Each compile's wall seconds ride back with the result for
     the access log (a coalesced duplicate shares the one compile's
     duration). *)
  let fresh = Hashtbl.create 16 in
  (match List.rev !pending with
  | [] -> ()
  | pending ->
    let compiled =
      Pool.map ~jobs:t.jobs
        (fun (rq, u, key, sq) ->
          let t0 = Unix.gettimeofday () in
          let result, record =
            Obs.capture (fun () ->
                Tr.with_span ~cat:"service"
                  ~args:
                    [ ("seq", J.Int sq); ("pipeline", J.String rq.P.rq_pipeline) ]
                  "service.compile"
                  (fun () ->
                    Tm.incr "service.compiles";
                    match u with
                    | Uwhole -> compile_artifact rq
                    | Ufn fd -> compile_unit rq fd))
          in
          let result =
            Result.map
              (fun a -> { a with P.ar_counters = Obs.counters record })
              result
          in
          (key, result, record, Unix.gettimeofday () -. t0))
        pending
    in
    List.iter
      (fun (key, result, record, dur) ->
        Obs.replay record;
        Hashtbl.replace fresh key (result, dur);
        match result with
        | Ok a -> Cache.insert t.cache key a
        | Error _ -> ())
      compiled);
  (* Answer in request order, units in source order.  A request whose
     units all compiled answers [Compiled] (one unit, the historical
     flat encoding) or [Compiled_many]; any failed unit fails the whole
     request with the first unit's error — partial translation units
     would be unanchorable by position.  Failed compiles are not
     cached, but every same-batch duplicate shares the one error. *)
  let unit_result key = function
    | Hit (a, _) -> Ok a
    | Await _ -> (
      match Hashtbl.find_opt fresh key with
      | Some (r, _) -> r
      | None -> Error "internal: compile lost")
  in
  let responses =
    List.map2
      (fun (rq, units) resolutions ->
        let results =
          List.map2 (fun (_, key) r -> unit_result key r) units resolutions
        in
        match
          List.find_opt (function Error _ -> true | Ok _ -> false) results
        with
        | Some (Error e) ->
          t.errors <- t.errors + 1;
          Tm.incr "service.errors";
          P.Failed { id = rq.P.rq_id; error = e }
        | _ -> (
          match List.map Result.get_ok results with
          | [ a ] -> P.Compiled { id = rq.P.rq_id; artifact = a }
          | artifacts -> P.Compiled_many { id = rq.P.rq_id; artifacts }))
      keyed plan
  in
  (* Request-level hit accounting: unchanged semantics for the
     single-kernel sources every pre-batching client sends (one unit =
     one request), and hits + coalesced + misses = requests always. *)
  List.iter
    (fun resolutions ->
      match request_outcome resolutions with
      | "hit" -> t.hits <- t.hits + 1
      | "coalesced" -> t.coalesced <- t.coalesced + 1
      | _ -> t.misses <- t.misses + 1)
    plan;
  (* Access log + latency histograms, in request order, coordinator
     only — the event file's line order matches seq at any job count.
     Every field except the [timing] member is a pure function of the
     request stream (DESIGN §16); a coalesced request reports its
     provider's compile duration, a multi-unit request the sum of its
     units'. *)
  let unit_duration key = function
    | Hit (_, dt) -> dt
    | Await _ -> (
      match Hashtbl.find_opt fresh key with Some (_, d) -> d | None -> 0.0)
  in
  let duration_of units resolutions =
    List.fold_left2
      (fun acc (_, key) r -> acc +. unit_duration key r)
      0.0 units resolutions
  in
  List.iteri
    (fun i ((rq, units), (resolutions, response)) ->
      let dur = duration_of units resolutions in
      H.record t.h_request dur;
      let outcome = request_outcome resolutions in
      let key = match units with (_, k) :: _ -> k | [] -> "" in
      if Ev.enabled Ev.Info then
        Ev.emit Ev.Info "access"
          ([
             ("seq", J.Int (seq i));
             ("outcome", String outcome);
             ("pipeline", String rq.P.rq_pipeline);
             ("key", String key);
           ]
          @ (match units with
            | _ :: _ :: _ -> [ ("units", J.Int (List.length units)) ]
            | _ -> [])
          @
          match response with
          | P.Compiled { artifact = a; _ } ->
            [
              ("ok", J.Bool true);
              ("function", String a.P.ar_func);
              ("remarks", Int (List.length a.P.ar_remarks));
              ("counters", Int (List.length a.P.ar_counters));
            ]
          | P.Compiled_many { artifacts; _ } ->
            [
              ("ok", J.Bool true);
              ( "function",
                String
                  (String.concat ","
                     (List.map (fun a -> a.P.ar_func) artifacts)) );
              ( "remarks",
                Int
                  (List.fold_left
                     (fun n a -> n + List.length a.P.ar_remarks)
                     0 artifacts) );
              ( "counters",
                Int
                  (List.fold_left
                     (fun n a -> n + List.length a.P.ar_counters)
                     0 artifacts) );
            ]
          | P.Failed { error; _ } ->
            [ ("ok", J.Bool false); ("error", String error) ])
          ~timing:[ ("duration_s", J.Float dur) ];
      match t.slow_ms with
      | Some threshold when dur *. 1000.0 > threshold ->
        Ev.emit Ev.Warn "slow-request"
          [
            ("seq", J.Int (seq i));
            ("outcome", String outcome);
            ("key", String key);
            ("threshold_ms", Float threshold);
          ]
          ~timing:[ ("duration_s", J.Float dur) ]
      | _ -> ())
    (List.combine keyed (List.combine plan responses));
  let batch_dur = Unix.gettimeofday () -. batch_start in
  H.record t.h_batch batch_dur;
  Ev.emit Ev.Debug "batch"
    [
      ("size", J.Int (List.length reqs));
      ("compiles", Int (Hashtbl.length fresh));
    ]
    ~timing:[ ("duration_s", J.Float batch_dur) ];
  responses

let handle_request (t : t) (rq : P.request) : P.response =
  match handle_batch t [ rq ] with [ r ] -> r | _ -> assert false

(* ------------------------------------------------------------- control *)

let ping_json (t : t) : J.t =
  J.Assoc
    [
      ("ok", J.Bool true);
      ("version", J.String Version.banner);
      ("protocol", J.Int P.protocol_version);
      ("cache_schema", J.Int Cache.schema_version);
      ("jobs", J.Int t.jobs);
    ]

(* One snapshot type feeds both {"op":"stats"} and {"op":"metrics"}
   (both formats), so the two endpoints cannot drift: every field here
   is a deterministic function of the request stream — wall-clock data
   (uptime, the latency histograms) is added only by the metrics
   encoders, under their "timing" member. *)
type snapshot = {
  sn_requests : int;
  sn_batches : int;
  sn_hits : int;
  sn_coalesced : int;
  sn_misses : int;
  sn_errors : int;
  sn_entries : int;
  sn_capacity : int;
  sn_evictions : int;
  (* per-kernel unit accounting (DESIGN §17) *)
  sn_uqueries : int;
  sn_uhits : int;
  sn_uinvalidated : int;
  sn_urecomputed : int;
}

let snapshot (t : t) : snapshot =
  {
    sn_requests = t.requests;
    sn_batches = t.batches;
    sn_hits = t.hits;
    sn_coalesced = t.coalesced;
    sn_misses = t.misses;
    sn_errors = t.errors;
    sn_entries = Cache.length t.cache;
    sn_capacity = Cache.capacity t.cache;
    sn_evictions = Cache.evictions t.cache;
    sn_uqueries = t.uqueries;
    sn_uhits = t.uhits;
    sn_uinvalidated = t.uinvalidated;
    sn_urecomputed = t.urecomputed;
  }

(* Unit-level reuse: how many per-kernel asks the artifact cache
   answered.  The bench incremental lane's reuse-rate figure. *)
let reuse_rate (sn : snapshot) : float =
  if sn.sn_uqueries = 0 then 0.0
  else float_of_int sn.sn_uhits /. float_of_int sn.sn_uqueries

let incremental_json (sn : snapshot) : J.t =
  J.Assoc
    [
      ("queries_asked", J.Int sn.sn_uqueries);
      ("memo_hits", J.Int sn.sn_uhits);
      ("invalidated", J.Int sn.sn_uinvalidated);
      ("recomputed", J.Int sn.sn_urecomputed);
      ("reuse_rate", J.Float (reuse_rate sn));
    ]

let hit_rate (sn : snapshot) : float =
  if sn.sn_requests = 0 then 0.0
  else float_of_int sn.sn_hits /. float_of_int sn.sn_requests

let stats_json (t : t) : J.t =
  let sn = snapshot t in
  J.Assoc
    [
      ("ok", J.Bool true);
      ("requests", J.Int sn.sn_requests);
      ("batches", J.Int sn.sn_batches);
      ("hits", J.Int sn.sn_hits);
      ("coalesced", J.Int sn.sn_coalesced);
      ("misses", J.Int sn.sn_misses);
      ("errors", J.Int sn.sn_errors);
      ("entries", J.Int sn.sn_entries);
      ("capacity", J.Int sn.sn_capacity);
      ("evictions", J.Int sn.sn_evictions);
      ("incremental", incremental_json sn);
    ]

(* {"op":"metrics"}: the same snapshot plus the latency histograms and
   uptime — everything wall-derived under "timing", so the non-timing
   projection is byte-identical at any --jobs (DESIGN §16). *)
let metrics_json (t : t) : J.t =
  let sn = snapshot t in
  J.Assoc
    [
      ("ok", J.Bool true);
      ("schema", J.Int Version.metrics_schema);
      ( "counters",
        J.Assoc
          [
            ("requests", J.Int sn.sn_requests);
            ("batches", J.Int sn.sn_batches);
            ("hits", J.Int sn.sn_hits);
            ("coalesced", J.Int sn.sn_coalesced);
            ("misses", J.Int sn.sn_misses);
            ("errors", J.Int sn.sn_errors);
          ] );
      ( "cache",
        J.Assoc
          [
            ("entries", J.Int sn.sn_entries);
            ("capacity", J.Int sn.sn_capacity);
            ("evictions", J.Int sn.sn_evictions);
            ("hit_rate", J.Float (hit_rate sn));
          ] );
      ("incremental", incremental_json sn);
      ( "timing",
        J.Assoc
          [
            ("uptime_s", J.Float (Unix.gettimeofday () -. t.started));
            ( "histograms",
              J.Assoc
                [
                  ("request", H.to_json t.h_request);
                  ("batch", H.to_json t.h_batch);
                ] );
          ] );
    ]

(* Prometheus-style text exposition of the same snapshot.  Histograms
   use the standard cumulative _bucket{le=...} encoding; there is no
   _sum series because histograms deliberately keep no float sum (see
   Histogram). *)
let metrics_text (t : t) : string =
  let sn = snapshot t in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let scalar name kind v = line "# TYPE %s %s" name kind; line "%s %s" name v in
  let counter name v = scalar name "counter" (string_of_int v) in
  let gauge name v = scalar name "gauge" v in
  let prom_float v =
    match J.float_repr v with "1e999" -> "+Inf" | "-1e999" -> "-Inf" | s -> s
  in
  let histogram name h =
    line "# TYPE %s histogram" name;
    let cum = ref 0 in
    List.iter
      (fun (_, hi, c) ->
        cum := !cum + c;
        if hi <> infinity then
          line "%s_bucket{le=\"%s\"} %d" name (prom_float hi) !cum)
      (H.buckets h);
    line "%s_bucket{le=\"+Inf\"} %d" name (H.count h);
    line "%s_count %d" name (H.count h)
  in
  counter "fgv_requests_total" sn.sn_requests;
  counter "fgv_batches_total" sn.sn_batches;
  counter "fgv_cache_hits_total" sn.sn_hits;
  counter "fgv_cache_coalesced_total" sn.sn_coalesced;
  counter "fgv_cache_misses_total" sn.sn_misses;
  counter "fgv_errors_total" sn.sn_errors;
  gauge "fgv_cache_entries" (string_of_int sn.sn_entries);
  gauge "fgv_cache_capacity" (string_of_int sn.sn_capacity);
  counter "fgv_cache_evictions_total" sn.sn_evictions;
  gauge "fgv_cache_hit_rate" (prom_float (hit_rate sn));
  counter "fgv_incremental_queries_total" sn.sn_uqueries;
  counter "fgv_incremental_memo_hits_total" sn.sn_uhits;
  counter "fgv_incremental_invalidated_total" sn.sn_uinvalidated;
  counter "fgv_incremental_recomputed_total" sn.sn_urecomputed;
  gauge "fgv_incremental_reuse_rate" (prom_float (reuse_rate sn));
  gauge "fgv_uptime_seconds"
    (prom_float (Unix.gettimeofday () -. t.started));
  histogram "fgv_request_duration_seconds" t.h_request;
  histogram "fgv_batch_duration_seconds" t.h_batch;
  Buffer.contents buf

let metrics_reply (t : t) (fmt : P.metrics_format) : J.t =
  match fmt with
  | P.Mjson -> metrics_json t
  | P.Mtext ->
    J.Assoc
      [
        ("ok", J.Bool true);
        ("schema", J.Int Version.metrics_schema);
        ("format", J.String "text");
        ("body", J.String (metrics_text t));
      ]

type step = Reply of string | Quit of string

(* A reply line, written into the service's reply buffer: replies of a
   16-kernel unit run to ~90 KB, and a buffer grown from scratch for
   each would allocate about twice that again. *)
let reply_text (t : t) (j : J.t) : string =
  Buffer.clear t.reply;
  J.to_buffer ~minify:true t.reply j;
  Buffer.contents t.reply

(* One wire line in, one wire line out (plus whether to stop). *)
let handle_line (t : t) (text : string) : step =
  let reply j = Reply (reply_text t j) in
  match P.decode_line text with
  | P.Malformed e -> reply (P.encode_response (P.Failed { id = ""; error = e }))
  | P.Single rq -> reply (P.encode_response (handle_request t rq))
  | P.Batch rqs -> reply (J.List (List.map P.encode_response (handle_batch t rqs)))
  | P.Control c -> (
    Ev.emit Ev.Debug "control" [ ("op", J.String (P.control_name c)) ];
    match c with
    | P.Cping -> reply (ping_json t)
    | P.Cstats -> reply (stats_json t)
    | P.Cmetrics fmt -> reply (metrics_reply t fmt)
    | P.Cshutdown -> Quit (reply_text t (J.Assoc [ ("ok", J.Bool true) ])))

(* ----------------------------------------------------------- transports *)

let serve_channel (t : t) (ic : in_channel) (oc : out_channel) :
    [ `Eof | `Shutdown ] =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | line when String.trim line = "" -> loop ()
    | line -> (
      match handle_line t line with
      | Reply s ->
        output_string oc s;
        output_char oc '\n';
        flush oc;
        loop ()
      | Quit s ->
        output_string oc s;
        output_char oc '\n';
        flush oc;
        `Shutdown)
  in
  loop ()

(* Unix-domain socket transport: connections are accepted and served one
   at a time (the parallelism budget lives inside a batch, not across
   clients), the cache persists across connections, and {"op":
   "shutdown"} from any client stops the accept loop. *)
let serve_socket (t : t) (path : string) : unit =
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let outcome =
          (* A client hanging up mid-reply is its problem, not ours. *)
          try serve_channel t ic oc with Sys_error _ -> `Eof
        in
        (try close_out_noerr oc with Sys_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match outcome with `Shutdown -> () | `Eof -> accept_loop ()
      in
      accept_loop ())
