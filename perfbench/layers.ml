(* Per-layer accounting for the traced run.  Every public layer call the
   benchmark makes can go through [timed]; with no accumulator it is a
   plain call, with one it adds the call's wall microseconds and minor
   words under the layer's name.  Spans, counters and the pipeline's
   [?on_pass] hook come from the program's own public surfaces. *)

module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module J = Fgv_support.Json
open Fgv_pssa

type acc = (string, float) Hashtbl.t

let create () : acc = Hashtbl.create 64

let add (acc : acc) name v =
  Hashtbl.replace acc name (v +. Option.value (Hashtbl.find_opt acc name) ~default:0.0)

let get (acc : acc) name = Option.value (Hashtbl.find_opt acc name) ~default:0.0

let now = Unix.gettimeofday

(* [name ^ ".us"] and [name ^ ".words"] for one call. *)
let timed (acc : acc option) (name : string) (f : unit -> 'a) : 'a =
  match acc with
  | None -> f ()
  | Some acc ->
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let v = f () in
    add acc (name ^ ".us") ((now () -. t0) *. 1e6);
    add acc (name ^ ".words") (Gc.minor_words () -. w0);
    v

(* The per-stage hook: a stage's cost is everything since the previous
   stage ended (or the pipeline began). *)
let on_pass_hook (acc : acc) : (string -> Ir.func -> unit) * (unit -> unit) =
  let last = ref (now (), Gc.minor_words ()) in
  let start () = last := (now (), Gc.minor_words ()) in
  let hook name _f =
    let t, w = (now (), Gc.minor_words ()) in
    let t0, w0 = !last in
    add acc ("pass." ^ name ^ ".us") ((t -. t0) *. 1e6);
    add acc ("pass." ^ name ^ ".words") (w -. w0);
    last := (now (), Gc.minor_words ())
  in
  (hook, start)

(* Self time (us) of each named span in the recorded Chrome trace: its
   duration minus the part its child spans cover. *)
let span_self_times (trace : J.t) (names : string list) (acc : acc) =
  let events = match J.member "traceEvents" trace with Some (J.List l) -> l | _ -> [] in
  let ts e = match J.member "ts" e with Some (J.Float f) -> f | Some (J.Int i) -> float_of_int i | _ -> 0.0 in
  (* stack of (name, start, child time) *)
  let stack = ref [] in
  List.iter
    (fun e ->
      match J.string_member "ph" e with
      | Some "B" ->
        let name = Option.value (J.string_member "name" e) ~default:"" in
        stack := (name, ts e, ref 0.0) :: !stack
      | Some "E" -> (
        match !stack with
        | (name, t0, child) :: rest ->
          let dur = ts e -. t0 in
          if List.mem name names then add acc (name ^ ".self_us") (dur -. !child);
          (match rest with (_, _, pc) :: _ -> pc := !pc +. dur | [] -> ());
          stack := rest
        | [] -> ())
      | _ -> ())
    events

let versioning_spans = [ "plan.infer"; "cut.find"; "materialize.run" ]

(* Counters a compile leaves in its isolated registry that the traced
   run reports (summed; divided per request at the end), with the name
   each is reported under.  The in-compile query engine's
   "incremental.*" counters become "engine.*", apart from the service's
   per-kernel ledger, which keeps the "incremental.*" names of the
   service's stats reply. *)
let counter_names =
  List.map (fun n -> (n, n))
    [
      "depgraph.pairs_pruned"; "depcond.compute_calls"; "plan.inferred";
      "cut.queries"; "cut.maxflow_augmenting"; "materialize.checks_emitted";
      "materialize.cloned_insts"; "condopt.promoted_imprecise";
    ]
  @ List.map (fun n -> ("incremental." ^ n, "engine." ^ n))
      [ "queries_asked"; "memo_hits"; "invalidated" ]

(* The analysis probe: SCEV once, then the dependence graph of every
   region, on its own fresh lowering of the kernel ([lower]), so the
   measured compile that follows is untouched.  Its counters are
   dropped. *)
let analysis_probe_with (acc : acc) (lower : unit -> Ir.func) =
  ignore
    (Tm.isolated (fun () ->
         let f = lower () in
         let scev = timed (Some acc) "analysis.scev" (fun () -> Fgv_analysis.Scev.create f) in
         let regions =
           Ir.Rtop :: Hashtbl.fold (fun lid _ rs -> Ir.Rloop lid :: rs) f.Ir.loop_arena []
         in
         List.iter
           (fun r ->
             ignore
               (timed (Some acc) "analysis.depgraph" (fun () ->
                    Fgv_analysis.Depgraph.build f scev r)))
           regions))

type pipe = ?on_pass:(string -> Ir.func -> unit) -> Ir.func -> unit

(* Run a pipeline, collecting its remarks when the caller's path does
   (the service does, the native path does not); in the traced run also
   with spans on, per-stage costs, and the compile's counters. *)
let pipeline (acc : acc option) ~(remarks : bool) (apply : pipe) (f : Ir.func) : unit =
  match acc with
  | None -> if remarks then ignore (Tr.collect_remarks (fun () -> apply f)) else apply f
  | Some a ->
    let hook, start = on_pass_hook a in
    (* remarks go straight into this domain's buffer (a collector
       would swap the buffer and drop the spans with it) *)
    Tr.reset ();
    Tr.set_spans true;
    Tr.set_remarks remarks;
    let (), shard =
      Fun.protect
        ~finally:(fun () ->
          Tr.set_spans false;
          Tr.set_remarks false)
        (fun () ->
          Tm.isolated (fun () ->
              start ();
              apply ~on_pass:hook f))
    in
    span_self_times (Tr.chrome_trace ()) versioning_spans a;
    Tr.reset ();
    List.iter
      (fun (n, v) ->
        match List.assoc_opt n counter_names with
        | Some out -> add a out (float_of_int v)
        | None -> ())
      (Tm.shard_counters shard)

let pssa_insts (f : Ir.func) = float_of_int (Hashtbl.length f.Ir.arena)

(* The parser's own work on already-lexed tokens: every declaration of
   the unit, as [Parser.parse_program] reads them after lexing. *)
let parse_tokens (toks : Fgv_frontend.Lexer.token array) : Fgv_frontend.Ast.fdecl list =
  let module Pa = Fgv_frontend.Parser in
  let st = { Pa.tokens = toks; idx = 0 } in
  let rec go acc =
    match Pa.peek st with
    | Fgv_frontend.Lexer.TEOF -> List.rev acc
    | _ -> go (Pa.parse_fdecl st :: acc)
  in
  go []

(* Lex and parse a source, each timed on its own. *)
let lex_parse (a : acc) (src : string) : Fgv_frontend.Ast.fdecl list =
  let toks = timed (Some a) "frontend.lex" (fun () -> Fgv_frontend.Lexer.tokenize src) in
  add a "frontend.tokens" (float_of_int (Array.length toks));
  timed (Some a) "frontend.parse" (fun () -> parse_tokens toks)

let frontend_plain ~no_restrict src =
  (if no_restrict then Fgv_frontend.Lower_ast.compile_no_restrict
   else Fgv_frontend.Lower_ast.compile)
    src

(* Lower one parsed declaration (with the verifier), as
   [Lower_ast.compile_fdecl] does. *)
let lower (a : acc) ~no_restrict (fd : Fgv_frontend.Ast.fdecl) : Ir.func =
  let f =
    timed (Some a) "frontend.lower" (fun () ->
        Fgv_frontend.Lower_ast.compile_fdecl ~no_restrict fd)
  in
  add a "frontend.units" 1.0;
  add a "frontend.pssa_insts" (pssa_insts f);
  f

(* Frontend for one kernel source: what [Lower_ast.compile] does, split
   into lex, parse and lower when traced. *)
let frontend (acc : acc option) ~(no_restrict : bool) (src : string) : Ir.func =
  match acc with
  | None -> frontend_plain ~no_restrict src
  | Some a -> (
    analysis_probe_with a (fun () -> frontend_plain ~no_restrict src);
    match lex_parse a src with
    | [ fd ] -> lower a ~no_restrict fd
    | _ -> frontend_plain ~no_restrict src)

let verify (acc : acc option) (f : Ir.func) : string option =
  timed acc "pssa.verify" (fun () -> Verifier.verify_or_message f)

(* Finished per-request figures from the sums: [per] is the request
   count the sums are divided by. *)
let report (acc : acc) ~(per : float) : (string * float) list =
  let d x = if per > 0.0 then x /. per else 0.0 in
  let lex = get acc "frontend.lex.us" in
  let stages =
    [ "constfold"; "dce"; "gvn"; "licm"; "ifconv"; "loopvec"; "unroll"; "slp";
      "rle"; "dse"; "distribute" ]
  in
  [
    ("frontend.lex_us", d lex);
    ("frontend.parse_us", d (get acc "frontend.parse.us"));
    ("frontend.lower_us", d (get acc "frontend.lower.us"));
    ( "frontend.tokens_per_ms",
      if lex > 0.0 then get acc "frontend.tokens" /. (lex /. 1000.0) else 0.0 );
    ( "frontend.pssa_insts",
      let u = get acc "frontend.units" in
      if u > 0.0 then get acc "frontend.pssa_insts" /. u else 0.0 );
    ("analysis.scev_us", d (get acc "analysis.scev.us"));
    ("analysis.depgraph_us", d (get acc "analysis.depgraph.us"));
    ("versioning.plan_us", d (get acc "plan.infer.self_us"));
    ("versioning.cut_us", d (get acc "cut.find.self_us"));
    ("versioning.materialize_us", d (get acc "materialize.run.self_us"));
  ]
  @ List.map (fun (_, n) -> (n, d (get acc n))) counter_names
  @ List.concat_map
      (fun s ->
        [
          ("pass." ^ s ^ ".us", d (get acc ("pass." ^ s ^ ".us")));
          ("pass." ^ s ^ ".words", d (get acc ("pass." ^ s ^ ".words")));
        ])
      stages
  @ [
      ("pssa.verify_us", d (get acc "pssa.verify.us"));
      ("pssa.print_us", d (get acc "pssa.print.us"));
      ("pssa.interp_us", d (get acc "pssa.interp.us"));
    ]
