(* See the interface for the contract.  Implementation notes:

   - enablement is two process-global [Atomic.t bool]s read by every
     domain; a disabled site is one atomic load and a branch.  The
     per-compile force used by [collect_remarks] is a field of the
     domain's {!Obs} state, never the global flag: toggling the global
     flag raced under the pool, a worker finishing its collection
     restoring "off" while a sibling was mid-collect;
   - the span and remark buffers are reversed lists in the {!Obs}
     state (append is a cons); export reverses once;
   - timestamps are [Unix.gettimeofday] relative to one process-wide
     epoch, in microseconds as the Chrome format wants.  They make span
     *durations* non-deterministic, which is fine: determinism is only
     promised for the remark stream, which carries no timestamps. *)

let spans_flag = Atomic.make false
let remarks_flag = Atomic.make false

let set_spans b = Atomic.set spans_flag b
let set_remarks b = Atomic.set remarks_flag b
let spans_on () = Atomic.get spans_flag
let remarks_on () = Atomic.get remarks_flag

let remarks_recording () =
  Atomic.get remarks_flag || (Obs.cur ()).force_remarks

let epoch = Unix.gettimeofday ()

let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

include Obs.Remark

let anchor ?loop ?value a_func = { a_func; a_loop = loop; a_value = value }

let tid () = (Domain.self () :> int)

(* -------------------------------------------------------------- spans *)

let with_span ?(cat = "fgv") ?(args = []) name f =
  if not (spans_on ()) then f ()
  else begin
    let st = Obs.cur () in
    st.spans <- Obs.Sbegin { name; cat; ts = now_us (); tid = tid (); args } :: st.spans;
    let finish () =
      (* re-fetched, not captured: a closure over [st] would allocate *)
      let st = Obs.cur () in
      st.spans <- Obs.Send { ts = now_us (); tid = tid () } :: st.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* ------------------------------------------------------------ remarks *)

let remark a r =
  if remarks_recording () then begin
    let st = Obs.cur () in
    st.remarks <- (a, r) :: st.remarks
  end

(* ------------------------------------------------------------- export *)

let span_event_json : Obs.span -> Json.t = function
  | Sbegin { name; cat; ts; tid; args } ->
    Json.Assoc
      ([
         ("name", Json.String name);
         ("cat", Json.String cat);
         ("ph", Json.String "B");
         ("ts", Json.Float ts);
         ("pid", Json.Int 1);
         ("tid", Json.Int tid);
       ]
      @ if args = [] then [] else [ ("args", Json.Assoc args) ])
  | Send { ts; tid } ->
    Json.Assoc
      [
        ("ph", Json.String "E");
        ("ts", Json.Float ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
      ]

let chrome_trace () : Json.t =
  let entries = List.rev (Obs.cur ()).spans in
  let tids =
    List.sort_uniq compare
      (List.map (function Obs.Sbegin b -> b.tid | Send e -> e.tid) entries)
  in
  let metadata =
    Json.Assoc
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Assoc [ ("name", Json.String "fgv") ]);
      ]
    :: List.map
         (fun t ->
           Json.Assoc
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int t);
               ( "args",
                 Json.Assoc
                   [ ("name", Json.String (Printf.sprintf "domain %d" t)) ] );
             ])
         tids
  in
  Json.Assoc
    [
      ("traceEvents", Json.List (metadata @ List.map span_event_json entries));
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Assoc [ ("schema_version", Json.Int Version.trace_schema) ]);
    ]

let write_chrome_trace file =
  let oc = open_out file in
  output_string oc (Json.to_string (chrome_trace ()));
  output_char oc '\n';
  close_out oc

let remarks () = List.rev (Obs.cur ()).remarks

let slug_and_payload :
    remark -> string * (string * Json.t) list = function
  | Versioned { nodes; conds; phis } ->
    ( "versioned",
      [ ("nodes", Json.Int nodes); ("conds", Json.Int conds);
        ("phis", Json.Int phis) ] )
  | Cut_found { edges; capacity } ->
    ("cut-found", [ ("edges", Json.Int edges); ("capacity", Json.Int capacity) ])
  | Cut_infeasible { flow } -> ("cut-infeasible", [ ("flow", Json.Int flow) ])
  | Check_emitted { atoms; cloned } ->
    ( "check-emitted",
      [ ("atoms", Json.Int atoms); ("cloned", Json.Int cloned) ] )
  | Secondary_plan { depth; plans } ->
    ( "secondary-plan",
      [ ("depth", Json.Int depth); ("plans", Json.Int plans) ] )
  | Plan_infeasible -> ("plan-infeasible", [])
  | Cond_eliminated { removed } ->
    ("cond-eliminated", [ ("removed", Json.Int removed) ])
  | Cond_coalesced { merged } ->
    ("cond-coalesced", [ ("merged", Json.Int merged) ])
  | Cond_promoted { precise } ->
    ("cond-promoted", [ ("precise", Json.Bool precise) ])
  | Promotion_failed -> ("promotion-failed", [])
  | Pass_applied { pass; work } ->
    ( "pass-applied",
      ("pass", Json.String pass)
      :: List.map (fun (k, v) -> (k, Json.Int v)) work )
  | Pass_skipped { pass; reason } ->
    ( "pass-skipped",
      [ ("pass", Json.String pass); ("reason", Json.String reason) ] )
  | Materialize_aborted { reason } ->
    ("materialize-aborted", [ ("reason", Json.String reason) ])
  | Graph_sparsity { nodes; edges; pairs_pruned } ->
    ( "graph-sparsity",
      [ ("nodes", Json.Int nodes); ("edges", Json.Int edges);
        ("pairs_pruned", Json.Int pairs_pruned) ] )
  | Wish_granted { client; wanted; conds; static } ->
    ( "wish-granted",
      [ ("client", Json.String client); ("wanted", Json.String wanted);
        ("conds", Json.Int conds); ("static", Json.Bool static) ] )
  | Wish_denied { client; wanted } ->
    ( "wish-denied",
      [ ("client", Json.String client); ("wanted", Json.String wanted) ] )
  | Store_eliminated { forwarded; killed } ->
    ( "store-eliminated",
      [ ("forwarded", Json.Int forwarded); ("killed", Json.Int killed) ] )
  | Loop_distributed { pieces; conds } ->
    ( "loop-distributed",
      [ ("pieces", Json.Int pieces); ("conds", Json.Int conds) ] )
  | Cache_hit { key; pipeline } ->
    ( "cache-hit",
      [ ("key", Json.String key); ("pipeline", Json.String pipeline) ] )

let remark_json (a, r) : Json.t =
  let slug, payload = slug_and_payload r in
  Json.Assoc
    (("remark", Json.String slug)
     :: ("function", Json.String a.a_func)
     :: (match a.a_loop with
        | Some l -> [ ("loop", Json.Int l) ]
        | None -> [])
    @ (match a.a_value with
      | Some v -> [ ("value", Json.String v) ]
      | None -> [])
    @ payload)

let remark_message = function
  | Versioned { nodes; conds; phis } ->
    Printf.sprintf
      "versioned %d node(s) under %d run-time condition(s), %d versioning \
       phi(s)"
      nodes conds phis
  | Cut_found { edges; capacity } ->
    Printf.sprintf
      "min-cut severed %d conditional dependence edge(s) (capacity %d)" edges
      capacity
  | Cut_infeasible { flow } ->
    Printf.sprintf
      "cut infeasible: separating the nodes requires severing an \
       unconditional dependence (flow %d)"
      flow
  | Check_emitted { atoms; cloned } ->
    Printf.sprintf
      "emitted run-time check of %d condition atom(s), cloning %d \
       operand-chain instruction(s)"
      atoms cloned
  | Secondary_plan { depth; plans } ->
    Printf.sprintf
      "plan inference recursed: %d plan(s) in a secondary tree of depth %d"
      plans depth
  | Plan_infeasible -> "no versioning plan makes the requested nodes independent"
  | Cond_eliminated { removed } ->
    Printf.sprintf "redundant-condition elimination removed %d atom(s)" removed
  | Cond_coalesced { merged } ->
    Printf.sprintf "condition coalescing merged %d atom(s) into hulls" merged
  | Cond_promoted { precise } ->
    if precise then "check promoted out of enclosing loops (precise: no widening)"
    else "check promoted out of enclosing loops (imprecise: ranges widened)"
  | Promotion_failed -> "condition promotion failed; check kept loop-variant"
  | Pass_applied { pass; work } ->
    Printf.sprintf "%s: %s" pass
      (if work = [] then "applied"
       else
         String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) work))
  | Pass_skipped { pass; reason } -> Printf.sprintf "%s skipped: %s" pass reason
  | Materialize_aborted { reason } ->
    Printf.sprintf "plan materialization aborted: %s" reason
  | Graph_sparsity { nodes; edges; pairs_pruned } ->
    Printf.sprintf
      "dependence graph: %d node(s), %d edge(s), %d candidate pair(s) pruned \
       without computing a condition"
      nodes edges pairs_pruned
  | Wish_granted { client; wanted; conds; static } ->
    if static then
      Printf.sprintf "%s: wish for %s already holds (no checks needed)" client
        wanted
    else
      Printf.sprintf "%s: wish for %s granted under %d run-time condition(s)"
        client wanted conds
  | Wish_denied { client; wanted } ->
    Printf.sprintf "%s: wish for %s denied (dependence not versionable)"
      client wanted
  | Store_eliminated { forwarded; killed } ->
    Printf.sprintf "forwarded %d stored value(s) to loads, killed %d dead \
                    store(s)"
      forwarded killed
  | Loop_distributed { pieces; conds } ->
    Printf.sprintf
      "loop distributed into %d sub-loop(s) under %d run-time condition(s)"
      pieces conds
  | Cache_hit { key; pipeline } ->
    Printf.sprintf "served from artifact cache (pipeline %s, key %s)" pipeline
      key

let remark_text (a, r) =
  let loc =
    a.a_func
    ^ (match a.a_loop with Some l -> Printf.sprintf ":L%d" l | None -> "")
    ^ match a.a_value with Some v -> ":" ^ v | None -> ""
  in
  Printf.sprintf "remark: %s: %s" loc (remark_message r)

let remarks_jsonl () =
  String.concat ""
    (List.map
       (fun r -> Json.to_string ~minify:true (remark_json r) ^ "\n")
       (remarks ()))

let remarks_report () =
  String.concat "" (List.map (fun r -> remark_text r ^ "\n") (remarks ()))

let reset () =
  let st = Obs.cur () in
  st.spans <- [];
  st.remarks <- []

let collect_remarks f =
  let st = Obs.cur () in
  let saved = st.remarks and force = st.force_remarks in
  st.remarks <- [];
  st.force_remarks <- true;
  let restore () =
    st.remarks <- saved;
    st.force_remarks <- force
  in
  match f () with
  | v ->
    let collected = List.rev st.remarks in
    restore ();
    (v, collected)
  | exception e ->
    restore ();
    raise e
