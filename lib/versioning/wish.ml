(* The declarative wish-spec layer (DESIGN §13).

   Every versioning client follows the same skeleton: enumerate
   candidate transformations, express each one's blocking dependences as
   a *wish* ("make these nodes independent", "separate these readers
   from that store", "guard this loop with these condition atoms"),
   hand the wishes to plan inference, materialize the accepted plans,
   and apply the rewrite only where the wish was granted.  This module
   factors the skeleton so a client is a [spec] — data plus a rewrite —
   rather than a bespoke traversal: RLE, DSE, and loop distribution are
   all registered through {!run_spec}.

   Outcome discipline (shared by every client):
   - [Granted_static]    — the wish already holds; the rewrite is safe
                           even if materialization later fails.
   - [Granted_versioned] — a plan was recorded; the rewrite is safe only
                           if the session materializes ([ok = true]).
   - [Denied]            — the wished-away dependence is unconditional
                           (or versioning is disabled); no rewrite. *)

open Fgv_pssa
open Fgv_analysis
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace

type want =
  | Independent of Ir.node list
      (** make the nodes pairwise independent (RLE-shaped) *)
  | Separated of { nodes : Ir.node list; from_ : Ir.node list }
      (** no node of [nodes] may depend on [from_] (DSE-shaped) *)
  | Guarded_loop of {
      loop : Ir.loop_id;
      atoms : Depcond.atom list;
      pairs : (Ir.value_id * Ir.value_id) list;
    }
      (** version the whole loop under the given condition atoms, with
          [pairs] becoming disjoint under the check (distribution /
          classic loop-versioning shape); the session must be on the
          loop's parent region *)

type outcome =
  | Granted_static
  | Granted_versioned of { conds : int }
  | Denied

type 'a spec = {
  sp_client : string;  (** telemetry / remark namespace *)
  sp_loop_upgrade : bool;  (** materialize with loop-granularity upgrade *)
  sp_enumerate : Api.session -> 'a list;
      (** candidates, in deterministic program order *)
  sp_want : Api.session -> 'a -> want;
  sp_describe : 'a -> string;  (** short label for the remark stream *)
  sp_apply :
    Api.session ->
    ok:bool ->
    subst:(Ir.value_id -> Ir.value_id) ->
    ('a * outcome) list ->
    unit;
      (** the rewrite: called once after materialization with every
          candidate's outcome.  [ok] is false when materialization
          failed — then only [Granted_static] candidates may be
          rewritten.  Uses redirected to a versioned value must go
          through [subst]. *)
}

(* Decide one wish against the session.  Only non-trivial plans are
   recorded (trivial means the independence already holds), mirroring
   what [Api.request_independence] does internally. *)
let decide ~versioning (s : Api.session) (w : want) : outcome =
  match w with
  | Independent nodes ->
    if Api.already_independent s nodes then Granted_static
    else if not versioning then Denied
    else (
      match Api.request_independence s nodes with
      | Some plan -> Granted_versioned { conds = Plan.conds_count plan }
      | None -> Denied)
  | Separated { nodes; from_ } ->
    if nodes = [] || from_ = [] then Granted_static
    else (
      match
        Api.request_separation ~record:false s ~nodes ~input_nodes:from_
      with
      | Some plan when Plan.is_trivial plan -> Granted_static
      | Some plan ->
        if versioning then begin
          Api.record_plan s plan;
          Granted_versioned { conds = Plan.conds_count plan }
        end
        else Denied
      | None -> Denied)
  | Guarded_loop { atoms = []; _ } -> Granted_static
  | Guarded_loop { loop; atoms; pairs } ->
    if not versioning then Denied
    else begin
      let atoms = Plan.dedup_atoms atoms in
      let plan =
        {
          Plan.p_nodes = [ Ir.NL loop ];
          p_inputs = [ Ir.NL loop ];
          p_conds = atoms;
          p_cut_edge_ids = [];
          p_secondaries = [];
          p_scope_pairs = pairs;
        }
      in
      Api.record_plan s plan;
      Granted_versioned { conds = List.length atoms }
    end

let spec_anchor (s : Api.session) =
  Tr.anchor
    ?loop:(match s.Api.s_region with
          | Ir.Rloop l -> Some l
          | Ir.Rtop -> None)
    s.Api.s_func.Ir.fname

(* Run one spec over one region: enumerate, decide, materialize, apply.
   Returns the per-candidate outcomes so callers can aggregate stats. *)
let run_spec ?(versioning = true) ?condopt ?scev (spec : 'a spec)
    (f : Ir.func) (region : Ir.region) : ('a * outcome) list =
  let condopt =
    Option.value condopt
      ~default:{ Condopt.default_config with promotion = true }
  in
  let s = Api.create ~condopt ?scev f region in
  let anchor = spec_anchor s in
  let decided =
    List.map
      (fun c ->
        let o = decide ~versioning s (spec.sp_want s c) in
        let wanted = spec.sp_describe c in
        (match o with
        | Granted_static ->
          Tm.incr ("wish." ^ spec.sp_client ^ ".granted_static");
          Tr.remark anchor
            (Tr.Wish_granted
               { client = spec.sp_client; wanted; conds = 0; static = true })
        | Granted_versioned { conds } ->
          Tm.incr ("wish." ^ spec.sp_client ^ ".granted_versioned");
          Tr.remark anchor
            (Tr.Wish_granted
               { client = spec.sp_client; wanted; conds; static = false })
        | Denied ->
          Tm.incr ("wish." ^ spec.sp_client ^ ".denied");
          Tr.remark anchor (Tr.Wish_denied { client = spec.sp_client; wanted }));
        (c, o))
      (spec.sp_enumerate s)
  in
  let ok, subst =
    match Api.materialize ~loop_upgrade:spec.sp_loop_upgrade s with
    | Some subst -> (true, subst)
    | None -> (false, fun v -> v)
  in
  spec.sp_apply s ~ok ~subst decided;
  decided

(* The standard region walk every region-at-a-time client uses: the
   function body first, then each loop body, deterministically. *)
let all_regions (f : Ir.func) : Ir.region list =
  let rec regions items acc =
    List.fold_left
      (fun acc item ->
        match item with
        | Ir.I _ -> acc
        | Ir.L lid -> regions (Ir.loop f lid).Ir.body (Ir.Rloop lid :: acc))
      acc items
  in
  regions f.Ir.fbody [ Ir.Rtop ]
