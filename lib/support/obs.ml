(* The observability core: every observation the compiler records —
   counters, timers with their latency histograms, the telemetry scope
   stack, trace spans, optimization remarks, and the per-domain remark
   force — lives in one [state] under one [Domain.DLS] key.  {!Telemetry}
   and {!Trace} are views onto it; isolating a piece of work and folding
   it back is the same two operations for every kind of observation:

   - [capture f] runs [f] against a fresh state (which starts from the
     caller's scope stack and remark force, so names and remark
     recording are what they would have been) and returns everything
     [f] recorded as a [record];
   - [replay r] folds a record into the calling domain's state under
     the one merge rule: counters sum, except ["max_"] counters, which
     take the maximum; timer totals and counts sum and their histograms
     merge; spans and remarks are appended in order.

   Determinism argument (the only one the observability layer needs):
   replaying the records of a sequence of captures, in the sequence's
   order, leaves the state as recording the same work directly would —
   the same counter values and histogram buckets, the same span and
   remark sequences.  Timer totals are wall-clock and may differ in
   their last bits.  {!Pool} and the compile service capture each task
   on whatever domain runs it and replay by input index, so their
   non-timing output is the same at any job count.

   Recording touches only the calling domain's state, never a lock.  A
   record is not written once its capture has returned, so it crosses
   domains as plain data.  Histograms inside a record belong to it:
   [replay] merges them into cells of its own. *)

(* The remark taxonomy lives with the state that buffers it; {!Trace}
   re-exports both types, and trace.mli documents them. *)
module Remark = struct
  type anchor = {
    a_func : string;
    a_loop : int option;
    a_value : string option;
  }

  type remark =
    | Versioned of { nodes : int; conds : int; phis : int }
    | Cut_found of { edges : int; capacity : int }
    | Cut_infeasible of { flow : int }
    | Check_emitted of { atoms : int; cloned : int }
    | Secondary_plan of { depth : int; plans : int }
    | Plan_infeasible
    | Cond_eliminated of { removed : int }
    | Cond_coalesced of { merged : int }
    | Cond_promoted of { precise : bool }
    | Promotion_failed
    | Pass_applied of { pass : string; work : (string * int) list }
    | Pass_skipped of { pass : string; reason : string }
    | Materialize_aborted of { reason : string }
    | Graph_sparsity of { nodes : int; edges : int; pairs_pruned : int }
    | Wish_granted of { client : string; wanted : string; conds : int;
                        static : bool }
    | Wish_denied of { client : string; wanted : string }
    | Store_eliminated of { forwarded : int; killed : int }
    | Loop_distributed of { pieces : int; conds : int }
    | Cache_hit of { key : string; pipeline : string }
end

(* Span events are explicit Begin/End pairs, so nesting is encoded by
   order and maps 1:1 onto Chrome's "B"/"E" duration events. *)
type span =
  | Sbegin of {
      name : string;
      cat : string;
      ts : float;
      tid : int;
      args : (string * Json.t) list;
    }
  | Send of { ts : float; tid : int }

type timer = {
  mutable total : float;
  mutable count : int;
  hist : Histogram.t;
}

type state = {
  counters : (string, int ref) Hashtbl.t;  (** fully qualified names *)
  timers : (string, timer) Hashtbl.t;
  mutable scopes : string list;  (** innermost first *)
  mutable spans : span list;  (** newest first *)
  mutable remarks : (Remark.anchor * Remark.remark) list;  (** newest first *)
  mutable force_remarks : bool;
      (** record remarks on this domain even when the global flag is off
          ({!Trace.collect_remarks}) *)
}

type record = state

let fresh ~scopes ~force_remarks =
  {
    counters = Hashtbl.create 64;
    timers = Hashtbl.create 16;
    scopes;
    spans = [];
    remarks = [];
    force_remarks;
  }

(* The initializer runs the first time a domain records anything, so a
   spawned worker starts empty and the main domain keeps its state for
   the whole process. *)
let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fresh ~scopes:[] ~force_remarks:false)

let cur () = Domain.DLS.get key

(* [within] is the state whose scopes and remark force the capture
   starts from: the caller's by default, the spawning domain's for a
   pool task. *)
let capture ?within f =
  let saved = cur () in
  let ctx = Option.value within ~default:saved in
  let st = fresh ~scopes:ctx.scopes ~force_remarks:ctx.force_remarks in
  Domain.DLS.set key st;
  match f () with
  | v ->
    Domain.DLS.set key saved;
    (v, st)
  | exception e ->
    Domain.DLS.set key saved;
    raise e

let counter_ref st name =
  match Hashtbl.find_opt st.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace st.counters name r;
    r

let timer_cell st name =
  match Hashtbl.find_opt st.timers name with
  | Some t -> t
  | None ->
    let t = { total = 0.0; count = 0; hist = Histogram.create () } in
    Hashtbl.replace st.timers name t;
    t

(* [Telemetry.set_max] counters hold a maximum, not a sum. *)
let is_max_counter name =
  let base =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  String.starts_with ~prefix:"max_" base

let replay (r : record) =
  let st = cur () in
  Hashtbl.iter
    (fun name v ->
      let c = counter_ref st name in
      c := if is_max_counter name then max !c !v else !c + !v)
    r.counters;
  Hashtbl.iter
    (fun name (t : timer) ->
      let into = timer_cell st name in
      into.total <- into.total +. t.total;
      into.count <- into.count + t.count;
      Histogram.merge_into ~into:into.hist t.hist)
    r.timers;
  st.spans <- r.spans @ st.spans;
  st.remarks <- r.remarks @ st.remarks

let sorted tbl value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters (r : record) = sorted r.counters ( ! )

let timer_histograms (r : record) = sorted r.timers (fun t -> t.hist)
