(* fgvbench: the repository benchmark (see README.md next to this file).

     fgvbench --workload cold-compile|edit-loop|native-exec --seed N
              --seconds S --trace 0|1 --fgvc PATH --work DIR

   Prints progress on stderr and, as its last stdout line, one JSON
   object {correct, attempted, failed, metrics}; exits 1 when any
   output check failed. *)

module Wl = Workloads
module S = Fgv_service.Service
module P = Fgv_service.Protocol
module Cache = Fgv_service.Cache
module J = Fgv_support.Json
module C = Client
module Nt = Native_timer
module L = Layers
module Tm = Fgv_support.Telemetry
open Fgv_pssa

let now = Unix.gettimeofday

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("fgvbench: " ^ s)) fmt

(* ------------------------------------------------------------ tally *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let attempt () = tally.attempted <- tally.attempted + 1

let fail fmt =
  Printf.ksprintf
    (fun s ->
      tally.failed <- tally.failed + 1;
      if tally.failed <= 20 then log "FAILED: %s" s)
    fmt

let median xs = Nt.quantile xs 0.5

let mean xs =
  match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = match xs with [] -> 0.0 | _ -> Fgv_support.Stats.geomean xs

(* Words this process allocated since it started, minor and major. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let rel_err ~want got =
  if want = 0.0 then Float.abs got else Float.abs ((got -. want) /. want)

(* ------------------------------------------------------ native path *)

(* One kernel under one pipeline, from source text to a checked native
   answer: frontend, pipeline, verifier, CFG lowering, fast emission,
   cc, and one run of the binary.  The checks afterwards (Cinterp
   checksum, Interp equivalence with the unoptimized kernel) are the
   benchmark's, outside the timed path. *)
type built = {
  bt_bin : Nt.binary;
  bt_cost : float;
  bt_build_ms : float;
  bt_req_ms : float;
  bt_words : float;
}

let build_variant ~(acc : L.acc option) ~(dir : string) (pr : Wl.pair)
    ((label, apply) : string * Wl.pipe) : built option =
  let k = pr.Wl.pr_kernel in
  let args = k.Fgv_bench.Workload.k_args in
  let mem () = Fgv_bench.Workload.fresh_mem k in
  let what = k.Fgv_bench.Workload.k_name ^ "/" ^ label in
  attempt ();
  (* the traced run first compiles untraced, for the tracing overhead *)
  (match acc with
  | None -> ()
  | Some a ->
    let t0 = now () in
    let f = L.frontend None ~no_restrict:pr.Wl.pr_no_restrict k.k_source in
    apply f;
    ignore (L.verify None f);
    ignore (Fgv_backend.Emit.fast (Fgv_cfg.Lower.lower f) ~args ~mem:(mem ()));
    L.add a "untraced.us" ((now () -. t0) *. 1e6));
  let t0 = now () in
  let w0 = allocated () in
  let f = L.frontend acc ~no_restrict:pr.Wl.pr_no_restrict k.k_source in
  L.pipeline acc ~remarks:false apply f;
  match L.verify acc f with
  | Some m ->
    fail "%s: optimized IR is ill-formed: %s" what m;
    None
  | None -> (
    let prog = L.timed acc "cfg.lower" (fun () -> Fgv_cfg.Lower.lower f) in
    let c = L.timed acc "backend.emit" (fun () -> Fgv_backend.Emit.fast prog ~args ~mem:(mem ())) in
    let words = allocated () -. w0 in
    Option.iter (fun a -> L.add a "traced.us" ((now () -. t0) *. 1e6)) acc;
    match Nt.build ~dir c with
    | Error e ->
      fail "%s: cc: %s" what e;
      None
    | Ok (bin, cc_s) -> (
      let build_ms = (now () -. t0) *. 1000.0 in
      match Nt.checksum bin with
      | Error e ->
        fail "%s: run: %s" what e;
        None
      | Ok got ->
        let req_ms = (now () -. t0) *. 1000.0 in
        let cout =
          L.timed acc "cfg.cinterp" (fun () -> Fgv_cfg.Cinterp.run prog ~args ~mem:(mem ()))
        in
        let want = Fgv_backend.Native.checksum_of_mem cout.Fgv_cfg.Cinterp.memory in
        let ok_sum = rel_err ~want got <= 1e-6 in
        if not ok_sum then fail "%s: native checksum %h, Cinterp %h" what got want;
        let reference = Fgv_frontend.Lower_ast.compile_no_restrict k.k_source in
        let rout = Interp.run reference ~args ~mem:(mem ()) in
        let out = L.timed acc "pssa.interp" (fun () -> Interp.run f ~args ~mem:(mem ())) in
        let ok_eq = Interp.equivalent rout out in
        if not ok_eq then fail "%s: optimized kernel computes a different result" what;
        Option.iter
          (fun a ->
            L.add a "cfg.static_size" (float_of_int (Fgv_cfg.Cir.static_size prog));
            L.add a "backend.c_kb" (float_of_int (String.length c) /. 1024.0);
            L.add a "backend.cc_ms" (cc_s *. 1000.0);
            L.add a "native.variants" 1.0)
          acc;
        if ok_sum && ok_eq then
          Some
            {
              bt_bin = bin;
              bt_cost = Interp.cost out.Interp.counters;
              bt_build_ms = build_ms;
              bt_req_ms = req_ms;
              bt_words = words;
            }
        else None))

type native_result = {
  nr_build_ms : float list;
  nr_req_ms : float list;
  nr_words : float list;
  nr_cost_static : float list;
  nr_cost_versioned : float list;
  nr_ns_static : float list;
  nr_ns_versioned : float list;
  nr_rel_static : float list;
  nr_rel_versioned : float list;
  nr_binaries : int;
  nr_unresolved : int;
  nr_build_s : float;  (** wall of the build phase *)
  nr_ref : float;  (** median {!Reference} seconds over the build phase *)
  nr_top_heap_words : float;  (** this process, right after the builds *)
  nr_minor_gcs : float;
  nr_major_gcs : float;
}

(* Build every pair, then time all binaries round-robin, [trials]
   trial pairs per invocation, for at least [min_rounds] rounds and
   until [deadline]. *)
let native_pairs ~(acc : L.acc option) ~(work : string) ~(deadline : unit -> float)
    ~(min_rounds : int) (pairs : Wl.pair list) : native_result =
  let g0 = Gc.quick_stat () in
  let refs = ref [] in
  let t0 = now () in
  let built =
    List.mapi
      (fun i (pr : Wl.pair) ->
        let dir j = Filename.concat work (Printf.sprintf "n%03d%s" i j) in
        refs := Reference.time () :: !refs;
        (pr, build_variant ~acc ~dir:(dir "s") pr pr.Wl.pr_static,
         build_variant ~acc ~dir:(dir "v") pr pr.Wl.pr_versioned))
      pairs
  in
  let build_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let bins =
    List.concat_map
      (fun (_, s, v) -> List.filter_map (Option.map (fun b -> b.bt_bin)) [ s; v ])
      built
  in
  let stop = deadline () in
  let rounds = ref 0 in
  while !rounds < min_rounds || now () < stop do
    List.iter
      (fun b ->
        match Nt.time b ~trials:8 ~window_ns:5e4 with
        | Ok () -> ()
        | Error e -> fail "timing run: %s" e)
      bins;
    incr rounds
  done;
  let unresolved = ref 0 in
  let ns_s = ref [] and ns_v = ref [] and rel_s = ref [] and rel_v = ref [] in
  List.iter
    (fun ((pr : Wl.pair), s, v) ->
      match (s, v) with
      | Some s, Some v ->
        let ss = Nt.summarise s.bt_bin and sv = Nt.summarise v.bt_bin in
        if acc <> None then
          List.iter
            (fun ((label, _), (x : Nt.summary)) ->
              log "native %-6s %-14s %-8s median %8.2f ns  IQR %7.2f ns  %.3f resets%s"
                pr.Wl.pr_figure pr.Wl.pr_kernel.Fgv_bench.Workload.k_name label
                x.Nt.s_median_ns x.Nt.s_iqr_ns x.Nt.s_median_rel
                (if x.Nt.s_resolved then "" else "  unresolved"))
            [ (pr.Wl.pr_static, ss); (pr.Wl.pr_versioned, sv) ];
        if not ss.Nt.s_resolved then incr unresolved;
        if not sv.Nt.s_resolved then incr unresolved;
        (* a pair enters the geomeans only when both sides resolved, so
           the two geomeans cover the same kernels *)
        if ss.Nt.s_resolved && sv.Nt.s_resolved then begin
          ns_s := ss.Nt.s_median_ns :: !ns_s;
          ns_v := sv.Nt.s_median_ns :: !ns_v;
          rel_s := ss.Nt.s_median_rel :: !rel_s;
          rel_v := sv.Nt.s_median_rel :: !rel_v
        end
      | _ -> ())
    built;
  List.iter Nt.release bins;
  let all f = List.concat_map (fun (_, s, v) -> List.filter_map (Option.map f) [ s; v ]) built in
  let side pick f = List.filter_map (fun (_, s, v) -> Option.map f (pick (s, v))) built in
  {
    nr_build_ms = all (fun b -> b.bt_build_ms);
    nr_req_ms = all (fun b -> b.bt_req_ms);
    nr_words = all (fun b -> b.bt_words);
    nr_cost_static = side fst (fun b -> b.bt_cost);
    nr_cost_versioned = side snd (fun b -> b.bt_cost);
    nr_ns_static = !ns_s;
    nr_ns_versioned = !ns_v;
    nr_rel_static = !rel_s;
    nr_rel_versioned = !rel_v;
    nr_binaries = List.length bins;
    nr_unresolved = !unresolved;
    nr_build_s = build_s;
    nr_ref = median !refs;
    nr_top_heap_words = float_of_int g1.Gc.top_heap_words;
    nr_minor_gcs = float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections);
    nr_major_gcs = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
  }

(* The native path's fixed cost: a one-store kernel from source to a
   native answer. *)
let native_setup_trial ~(work : string) : float =
  let k =
    Fgv_bench.Workload.mk ~name:"setup"
      ~source:"kernel setup(float* a, int n) { a[0] = 1.0; }"
      ~args:[ Value.VInt 0; Value.VInt 1 ] ~heap:1 ()
  in
  let pr =
    { Wl.pr_figure = "setup"; pr_kernel = k; pr_no_restrict = false;
      pr_static = ("o3", Wl.o3); pr_versioned = ("o3", Wl.o3) }
  in
  let t0 = now () in
  let b = build_variant ~acc:None ~dir:(Filename.concat work "setup") pr pr.Wl.pr_static in
  let dt = now () -. t0 in
  Option.iter (fun b -> Nt.release b.bt_bin) b;
  dt

(* --------------------------------------------------- service passes *)

let ping = {|{"op":"ping"}|}

let stats = {|{"op":"stats"}|}

type pass = {
  ps_replies : Digest.t array;  (** digests keep a run's memory small *)
  ps_rtt : float array;  (** seconds, per line *)
  ps_wall : float;  (** the request loop's wall seconds *)
  ps_ref : float;  (** median {!Reference} seconds, sampled every 4th line *)
  ps_stats : string;
  ps_gc : C.gc_report option;
}

(* Spawn a service, ping, send every line closed-loop over the one
   connection, read the stats, shut down. *)
let run_pass ~fgvc ~work (lines : string array) : pass =
  let c = C.start ~fgvc ~work in
  match
    ignore (C.round_trip c ping);
    let n = Array.length lines in
    let replies = Array.make n (Digest.string "") and rtt = Array.make n 0.0 in
    let refs = ref [] in
    let t0 = now () in
    Array.iteri
      (fun i l ->
        if i mod 4 = 0 then refs := Reference.time () :: !refs;
        let r0 = now () in
        let reply = C.round_trip c l in
        rtt.(i) <- now () -. r0;
        replies.(i) <- Digest.string reply)
      lines;
    let wall = now () -. t0 in
    (replies, rtt, wall, median !refs, C.round_trip c stats)
  with
  | exception e ->
    C.kill c;
    raise e
  | replies, rtt, wall, rf, st ->
    let gc = C.stop c in
    { ps_replies = replies; ps_rtt = rtt; ps_wall = wall; ps_ref = rf; ps_stats = st;
      ps_gc = gc }

let service_setup_trial ~fgvc ~work : float =
  let t0 = now () in
  let c = C.start ~fgvc ~work in
  (match C.round_trip c ping with exception e -> C.kill c; raise e | _ -> ());
  let dt = now () -. t0 in
  ignore (C.stop c);
  dt

let reply_ok (r : string) =
  match J.of_string r with Ok j -> J.bool_member "ok" j = Some true | Error _ -> false

(* Replay the pass in-process against a fresh service; every socket
   reply of every pass must be ok and byte-identical to it (compared by
   digest).  Returns the in-process seconds per line and the median
   {!Reference} seconds over the replay. *)
let replay_check (lines : string array) (passes : pass list) : float array * float =
  let svc = S.create ~jobs:1 () in
  let step l = match S.handle_line svc l with S.Reply s | S.Quit s -> s in
  ignore (step ping);
  let refs = ref [] in
  let secs =
    Array.mapi
      (fun i l ->
        if i mod 4 = 0 then refs := Reference.time () :: !refs;
        let t0 = now () in
        let want = step l in
        let dt = now () -. t0 in
        if not (reply_ok want) then fail "line %d: the service answered an error" i;
        let want = Digest.string want in
        List.iteri
          (fun p ps ->
            if ps.ps_replies.(i) <> want then
              fail "pass %d line %d: socket reply differs from the in-process replay" p i)
          passes;
        dt)
      lines
  in
  let want = step stats in
  List.iter (fun ps -> if ps.ps_stats <> want then fail "stats reply differs from the replay") passes;
  (secs, median !refs)

(* Every distinct kernel a pass compiles, under the pipeline it was
   served with, computes what the unoptimized kernel computes. *)
let equivalence_check ~(acc : L.acc option) (lines : Wl.line list) =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (l : Wl.line) ->
      List.iter
        (fun (r : Wl.runnable) ->
          let key = (r.Wl.r_source, l.Wl.l_pipeline) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            attempt ();
            match Fgv_passes.Pipelines.find l.Wl.l_pipeline with
            | None -> fail "unknown pipeline %s" l.Wl.l_pipeline
            | Some apply -> (
              let f = L.frontend None ~no_restrict:false r.Wl.r_source in
              apply f;
              match Verifier.verify_or_message f with
              | Some m -> fail "%s: ill-formed after %s: %s" f.Ir.fname l.Wl.l_pipeline m
              | None ->
                let reference = Fgv_frontend.Lower_ast.compile_no_restrict r.Wl.r_source in
                let want = Interp.run reference ~args:r.Wl.r_args ~mem:(r.Wl.r_mem ()) in
                let got =
                  L.timed acc "pssa.interp" (fun () ->
                      Interp.run f ~args:r.Wl.r_args ~mem:(r.Wl.r_mem ()))
                in
                if not (Interp.equivalent want got) then
                  fail "%s under %s computes a different result" f.Ir.fname l.Wl.l_pipeline)
          end)
        l.Wl.l_kernels)
    lines

(* One service unit compiled the way [Service.package_artifact] does,
   each public call timed. *)
let traced_unit (a : L.acc) (rq : P.request) (fd : Fgv_frontend.Ast.fdecl) =
  let acc = Some a in
  let no_restrict = rq.P.rq_no_restrict in
  L.analysis_probe_with a (fun () -> Fgv_frontend.Lower_ast.compile_fdecl ~no_restrict fd);
  let f = L.lower a ~no_restrict fd in
  (match Fgv_passes.Pipelines.find rq.P.rq_pipeline with
  | Some apply -> L.pipeline acc ~remarks:true apply f
  | None -> ());
  ignore (L.verify acc f);
  ignore (L.timed acc "pssa.print" (fun () -> Printer.to_string f));
  if rq.P.rq_emit_c then
    ignore
      (L.timed acc "service.emit_c" (fun () ->
           let mem = Array.init rq.P.rq_heap (fun i -> Value.VFloat (Float.of_int (i mod 7))) in
           Fgv_backend.Emit.checked (Fgv_cfg.Lower.lower f) ~mem))

(* The traced in-process replay: the same lines through a fresh
   service, with every public layer call the service makes also made
   (and timed) on its own.  [service.overhead] is what the service's
   request handling costs beyond splitting and the untraced compiles of
   the units it missed: lookups, isolate/merge, remark replay,
   histograms.  Returns the seconds per line. *)
let traced_replay (a : L.acc) (lines : string array) (passes : pass list) : float array =
  let acc = Some a in
  let svc = S.create ~jobs:1 () in
  ignore (S.handle_line svc ping);
  Array.mapi
    (fun i l ->
      let t0 = now () in
      (match L.timed acc "protocol.decode" (fun () -> P.decode_line l) with
      | P.Single rq ->
        let units = L.timed acc "cache.split" (fun () -> S.split_units rq) in
        ignore (L.lex_parse a rq.P.rq_source);
        let missed =
          List.sort_uniq compare
            (List.filter_map
               (fun (u, key) ->
                 match u with
                 | S.Ufn fd when not (Cache.mem svc.S.cache key) -> Some (key, fd)
                 | _ -> None)
               units)
        in
        List.iter (fun (_, fd) -> traced_unit a rq fd) missed;
        (* the parts the service's request handling is made of, timed
           untraced: before the service's call on even lines and after
           it on odd ones, so warm-cache bias cancels *)
        let parts () =
          let c0 = now () in
          ignore (S.split_units rq);
          List.iter (fun (_, fd) -> ignore (Tm.isolated (fun () -> S.compile_unit rq fd))) missed;
          now () -. c0
        in
        let before = if i mod 2 = 0 then parts () else 0.0 in
        let h0 = now () in
        let resp = S.handle_request svc rq in
        let handled = now () -. h0 in
        let parts_s = if i mod 2 = 0 then before else parts () in
        let text = L.timed acc "protocol.encode" (fun () -> P.response_line resp) in
        L.add a "protocol.resp_bytes" (float_of_int (String.length text));
        L.add a "service.overhead.us" ((handled -. parts_s) *. 1e6);
        List.iter
          (fun ps ->
            if ps.ps_replies.(i) <> Digest.string text then
              fail "traced replay differs at line %d" i)
          passes
      | _ -> fail "line %d does not decode as one request" i);
      now () -. t0)
    lines

let stats_field (reply : string) (path : string list) : float =
  match J.of_string reply with
  | Error _ -> 0.0
  | Ok j ->
    let rec go j = function
      | [] -> ( match j with J.Int n -> float_of_int n | J.Float f -> f | _ -> 0.0)
      | k :: rest -> ( match J.member k j with Some j -> go j rest | None -> 0.0)
    in
    go j path

(* ------------------------------------------------------- workloads *)

type metric = string * float * string

let median_of n f = median (List.init n (fun _ -> f ()))

let ms s = s *. 1000.0

let native_metrics (nr : native_result) : metric list =
  [
    ("native_rel_static", geomean nr.nr_rel_static, "reset");
    ("native_rel_versioned", geomean nr.nr_rel_versioned, "reset");
    ("model_cost_static", geomean nr.nr_cost_static, "cost");
    ("model_cost_versioned", geomean nr.nr_cost_versioned, "cost");
  ]

(* cfg and backend: the native path's layers, per built variant. *)
let native_layer_metrics (a : L.acc) (nr : native_result option) : (string * float) list =
  let v = L.get a "native.variants" in
  let d x = if v > 0.0 then x /. v else 0.0 in
  [
    ("cfg.lower_us", d (L.get a "cfg.lower.us"));
    ("cfg.static_size", d (L.get a "cfg.static_size"));
    ("cfg.cinterp_us", d (L.get a "cfg.cinterp.us"));
    ("backend.emit_us", d (L.get a "backend.emit.us"));
    ("backend.c_kb", d (L.get a "backend.c_kb"));
    ("backend.cc_ms", d (L.get a "backend.cc_ms"));
    ("backend.native_ns_static", Option.fold nr ~none:0.0 ~some:(fun r -> geomean r.nr_ns_static));
    ( "backend.native_ns_versioned",
      Option.fold nr ~none:0.0 ~some:(fun r -> geomean r.nr_ns_versioned) );
    ( "backend.unresolved_frac",
      match nr with
      | Some r when r.nr_binaries > 0 ->
        float_of_int r.nr_unresolved /. float_of_int r.nr_binaries
      | _ -> 0.0 );
  ]

(* A run's wall-clock figures, in seconds and in units of the run's
   {!Reference} time.  The end-to-end metrics take the reference units,
   which this shared machine's speed drift moves far less; the traced
   run reports the seconds, as ms, under "wall.". *)
type walls = {
  w_req : float list;  (** seconds per request *)
  w_req_ref : float list;
  w_busy : float;  (** seconds spent serving the requests *)
  w_busy_ref : float;
  w_build : float list;  (** seconds from source to a verified artifact *)
  w_build_ref : float list;
  w_ref : float;  (** median reference seconds *)
}

let e2e_walls (w : walls) : metric list =
  let n = float_of_int (List.length w.w_req) in
  [
    ("req_p50_ref", Nt.quantile w.w_req_ref 0.5, "ref");
    ("req_p95_ref", Nt.quantile w.w_req_ref 0.95, "ref");
    ("req_per_ref", n /. w.w_busy_ref, "1/ref");
  ]

let wall_layers (w : walls) : (string * float) list =
  let n = float_of_int (List.length w.w_req) in
  [
    ("wall.req_p50_ms", ms (Nt.quantile w.w_req 0.5));
    ("wall.req_p95_ms", ms (Nt.quantile w.w_req 0.95));
    ("wall.req_per_s", n /. w.w_busy);
    ("wall.build_ms_p50", ms (median w.w_build));
    ("wall.ref_ms", ms w.w_ref);
  ]

let unit_of name =
  let suffix s = Filename.check_suffix name s in
  if suffix "per_ms" then "1/ms"
  else if suffix "_us" || suffix ".us" then "us"
  else if suffix ".words" then "words"
  else if suffix "_ms" || suffix "_ms_p50" then "ms"
  else if suffix "per_s" then "1/s"
  else if suffix "_ns_static" || suffix "_ns_versioned" then "ns"
  else if suffix "_kb" then "KB"
  else if suffix "_frac" || suffix "_ratio" then "frac"
  else "count"

(* The per-layer list every traced run prints, in order; a layer the
   workload does not exercise reads 0. *)
let layer_names =
  [
    "transport.us"; "protocol.decode_us"; "protocol.encode_us"; "protocol.resp_kb";
    "cache.split_us"; "cache.unit_hit_ratio"; "cache.evictions"; "cache.missed_reuse";
    "service.overhead_us"; "service.emit_c_us"; "incremental.queries_asked"; "incremental.memo_hits";
    "incremental.invalidated"; "gen.edits"; "gen.expected_unit_hits";
  ]
  @ List.map fst (L.report (L.create ()) ~per:1.0)
  @ List.map fst (native_layer_metrics (L.create ()) None)
  @ List.map fst (wall_layers { w_req = []; w_req_ref = []; w_busy = 0.0; w_busy_ref = 0.0;
                               w_build = []; w_build_ref = []; w_ref = 0.0 })
  @ [
      "gc.minor_per_req"; "gc.major_per_req"; "trace.overhead_us"; "trace.overhead_frac";
    ]

let finish_layers (found : (string * float) list) : metric list =
  List.map
    (fun n -> (n, Option.value (List.assoc_opt n found) ~default:0.0, unit_of n))
    layer_names

let service_workload ~fgvc ~work ~seconds ~trace (lines : Wl.line list) : metric list =
  let texts = Array.of_list (List.map (fun l -> l.Wl.l_text) lines) in
  let n = Array.length texts in
  log "%d request lines per pass" n;
  let setup = median_of 11 (fun () -> service_setup_trial ~fgvc ~work) in
  let t0 = now () in
  let rec passes acc =
    if acc <> [] && now () -. t0 >= seconds then List.rev acc
    else begin
      let ps = run_pass ~fgvc ~work texts in
      tally.attempted <- tally.attempted + n;
      passes (ps :: acc)
    end
  in
  let passes = passes [] in
  log "%d passes in %.1f s" (List.length passes) (now () -. t0);
  let first = List.hd passes in
  let gc =
    match first.ps_gc with
    | Some g -> g
    | None ->
      fail "the service left no GC report";
      { C.allocated_words = 0.0; minor_collections = 0.0; major_collections = 0.0;
        top_heap_words = 0.0 }
  in
  List.iter
    (fun ps ->
      match ps.ps_gc with
      | Some g when g.C.allocated_words <> gc.C.allocated_words ->
        log "note: allocated words differ between identical passes (%.0f, %.0f)"
          g.C.allocated_words gc.C.allocated_words
      | _ -> ())
    passes;
  let t1 = now () in
  (* two replays, so build_p50_ref rests on twice a pass's samples *)
  let (h1, ref1), (h2, ref2) = (replay_check texts passes, replay_check texts passes) in
  let handled = Array.append h1 h2 in
  let handled_ref =
    Array.append (Array.map (fun t -> t /. ref1) h1) (Array.map (fun t -> t /. ref2) h2)
  in
  let t2 = now () in
  let acc = if trace then Some (L.create ()) else None in
  equivalence_check ~acc lines;
  let t3 = now () in
  let probe_acc = if trace then Some (L.create ()) else None in
  let nr =
    native_pairs ~acc:probe_acc ~work ~deadline:now ~min_rounds:12 (Wl.native_probe ())
  in
  log "replay %.1f s, equivalence %.1f s, native probe %.1f s" (t2 -. t1) (t3 -. t2)
    (now () -. t3);
  let fn = float_of_int n in
  let sum f = List.fold_left (fun s ps -> s +. f ps) 0.0 passes in
  let w =
    {
      w_req = List.concat_map (fun ps -> Array.to_list ps.ps_rtt) passes;
      w_req_ref =
        List.concat_map
          (fun ps -> Array.to_list (Array.map (fun r -> r /. ps.ps_ref) ps.ps_rtt))
          passes;
      w_busy = sum (fun ps -> ps.ps_wall);
      w_busy_ref = sum (fun ps -> ps.ps_wall /. ps.ps_ref);
      w_build = Array.to_list handled;
      w_build_ref = Array.to_list handled_ref;
      w_ref = median (List.map (fun ps -> ps.ps_ref) passes);
    }
  in
  if not trace then
    (("setup_s", setup, "s") :: e2e_walls w)
    @ [
        ("alloc_words_per_req", gc.C.allocated_words /. fn, "words");
        ("peak_heap_mb", gc.C.top_heap_words *. 8.0 /. 1e6, "MB");
        ("build_p50_ref", median w.w_build_ref, "ref");
      ]
    @ native_metrics nr
  else begin
    let a = Option.get acc in
    let traced = traced_replay a texts passes in
    let mean_rtt i = mean (List.map (fun ps -> ps.ps_rtt.(i)) passes) in
    let transport =
      median (List.init n (fun i -> mean_rtt i -. ((handled.(i) +. handled.(n + i)) /. 2.0)))
    in
    let untraced = mean (Array.to_list handled) and traced_m = mean (Array.to_list traced) in
    let st = first.ps_stats in
    let queries = stats_field st [ "incremental"; "queries_asked" ] in
    let hits = stats_field st [ "incremental"; "memo_hits" ] in
    let expected = float_of_int (List.fold_left (fun s l -> s + l.Wl.l_expected_hits) 0 lines) in
    let edits = float_of_int (List.length (List.filter (fun l -> l.Wl.l_edit) lines)) in
    let per x = x /. fn in
    finish_layers
      ([
         ("transport.us", transport *. 1e6);
         ("protocol.decode_us", per (L.get a "protocol.decode.us"));
         ("protocol.encode_us", per (L.get a "protocol.encode.us"));
         ("protocol.resp_kb", per (L.get a "protocol.resp_bytes") /. 1024.0);
         ("cache.split_us", per (L.get a "cache.split.us"));
         ("cache.unit_hit_ratio", if queries > 0.0 then hits /. queries else 0.0);
         ("cache.evictions", stats_field st [ "evictions" ]);
         ("cache.missed_reuse", expected -. hits);
         ("service.overhead_us", per (L.get a "service.overhead.us"));
         ("service.emit_c_us", per (L.get a "service.emit_c.us"));
         ("incremental.queries_asked", queries);
         ("incremental.memo_hits", hits);
         ("incremental.invalidated", stats_field st [ "incremental"; "invalidated" ]);
         ("gen.edits", edits);
         ("gen.expected_unit_hits", expected);
         ("gc.minor_per_req", gc.C.minor_collections /. fn);
         ("gc.major_per_req", gc.C.major_collections /. fn);
         ("trace.overhead_us", (traced_m -. untraced) *. 1e6);
         ("trace.overhead_frac", if untraced > 0.0 then (traced_m -. untraced) /. untraced else 0.0);
       ]
      @ L.report a ~per:fn
      @ native_layer_metrics (Option.get probe_acc) (Some nr)
      @ wall_layers w)
  end

let native_workload ~work ~seconds ~trace ~seed : metric list =
  let setup = median_of 7 (fun () -> native_setup_trial ~work) in
  let acc = if trace then Some (L.create ()) else None in
  let pairs = Wl.native_draw ~seed in
  let nr =
    native_pairs ~acc ~work ~deadline:(fun () -> now () +. seconds) ~min_rounds:3 pairs
  in
  log "%d binaries, %d unresolved, builds %.1f s" nr.nr_binaries nr.nr_unresolved nr.nr_build_s;
  let nb = float_of_int (List.length nr.nr_build_ms) in
  let secs = List.map (fun x -> x /. 1000.0) in
  let in_ref = List.map (fun x -> x /. 1000.0 /. nr.nr_ref) in
  let w =
    {
      w_req = secs nr.nr_req_ms;
      w_req_ref = in_ref nr.nr_req_ms;
      w_busy = nr.nr_build_s;
      w_busy_ref = nr.nr_build_s /. nr.nr_ref;
      w_build = secs nr.nr_build_ms;
      w_build_ref = in_ref nr.nr_build_ms;
      w_ref = nr.nr_ref;
    }
  in
  if not trace then
    (("setup_s", setup, "s") :: e2e_walls w)
    @ [
        ("alloc_words_per_req", mean nr.nr_words, "words");
        ("peak_heap_mb", nr.nr_top_heap_words *. 8.0 /. 1e6, "MB");
        ("build_p50_ref", median w.w_build_ref, "ref");
      ]
    @ native_metrics nr
  else
    let a = Option.get acc in
    let v = L.get a "native.variants" in
    let untraced = L.get a "untraced.us" and traced = L.get a "traced.us" in
    finish_layers
      ([
         ("gc.minor_per_req", nr.nr_minor_gcs /. nb);
         ("gc.major_per_req", nr.nr_major_gcs /. nb);
         ("trace.overhead_us", if v > 0.0 then (traced -. untraced) /. v else 0.0);
         ("trace.overhead_frac", if untraced > 0.0 then (traced -. untraced) /. untraced else 0.0);
       ]
      @ L.report a ~per:v
      @ native_layer_metrics a (Some nr)
      @ wall_layers w)

(* ------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let fgvc = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME cold-compile | edit-loop | native-exec");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--fgvc", Arg.Set_string fgvc, "PATH the fgvc executable");
      ("--work", Arg.Set_string work, "DIR scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fgvbench --workload NAME --seed N --seconds S --trace 0|1 --fgvc PATH --work DIR";
  if !work = "" || !fgvc = "" then begin
    prerr_endline "fgvbench: --fgvc and --work are required";
    exit 2
  end;
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 in
  let metrics =
    match !workload with
    | "cold-compile" ->
      service_workload ~fgvc:!fgvc ~work:!work ~seconds:!seconds ~trace
        (Wl.cold_compile ~seed:!seed)
    | "edit-loop" ->
      service_workload ~fgvc:!fgvc ~work:!work ~seconds:!seconds ~trace
        (Wl.edit_loop ~seed:!seed)
    | "native-exec" -> native_workload ~work:!work ~seconds:!seconds ~trace ~seed:!seed
    | w ->
      prerr_endline ("fgvbench: unknown workload " ^ w);
      exit 2
  in
  let correct = tally.failed = 0 in
  print_endline
    (J.to_string ~minify:true
       (J.Assoc
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int tally.attempted);
            ("failed", J.Int tally.failed);
            ( "metrics",
              J.Assoc
                (List.map
                   (fun (n, v, u) ->
                     (n, J.Assoc [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
