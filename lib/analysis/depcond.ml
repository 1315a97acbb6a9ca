(* Dependence conditions (Fig. 5 and Fig. 6 of the paper).

   Given two dependence-graph nodes i and j (instructions or loops,
   ordered i after j), [compute] returns the condition under which i
   *directly* depends on j:

   - [Never]: no dependence;
   - [Always]: unconditional (SSA uses, proven-overlapping accesses,
     opaque calls);
   - [When atoms]: the dependence exists only if one of the atoms holds
     at run time: a control predicate (j actually executes) or a memory
     intersection. *)

open Fgv_pssa
module Tm = Fgv_support.Telemetry

type atom =
  | Apred of Pred.t
  | Aintersect of Scev.range * Scev.range

type cond = Never | Always | When of atom list

(* Structural atom order (predicates by [Pred.compare_t], ranges by their
   integer linear expressions): stable across runs, generations, and job
   counts, so it is safe anywhere the order is observable. *)
let compare_atom a b =
  match a, b with
  | Apred p, Apred q -> Pred.compare_t p q
  | Apred _, Aintersect _ -> -1
  | Aintersect _, Apred _ -> 1
  | Aintersect (a1, a2), Aintersect (b1, b2) ->
    let c = Stdlib.compare (a1 : Scev.range) b1 in
    if c <> 0 then c else Stdlib.compare (a2 : Scev.range) b2

(* Values a condition's run-time check would read (Fig. 13 line 14:
   [operands(dep_cond)]). *)
let atom_operands = function
  | Apred p -> Pred.literals p
  | Aintersect (r1, r2) ->
    List.sort_uniq compare (Scev.range_values r1 @ Scev.range_values r2)

let cond_operands = function
  | Never | Always -> []
  | When atoms -> List.sort_uniq compare (List.concat_map atom_operands atoms)

let atom_to_string scev = function
  | Apred p -> Pred.to_string (Ir.value_name scev.Scev.func) p
  | Aintersect (r1, r2) ->
    Printf.sprintf "intersects(%s, %s)" (Scev.range_to_string scev r1)
      (Scev.range_to_string scev r2)

(* Join two condition results as a disjunction.  The atom list is kept
   sorted and duplicate-free so one dependence never emits the same
   run-time check twice downstream. *)
let join a b =
  match a, b with
  | Always, _ | _, Always -> Always
  | Never, c | c, Never -> c
  | When x, When y -> When (List.sort_uniq compare_atom (x @ y))

(* Per-region summary of one memory access: its region-promoted range
   and the restrict parameter the range is based on, both computed once
   (the naive pairwise build re-derived the SCEV promotion for every
   node pair the access participated in). *)
type access = {
  acc_v : Ir.value_id;
  acc_write : bool;
  acc_range : Scev.range option;
  acc_base : Ir.value_id option;
}

type ctx = {
  cf : Ir.func;
  cscev : Scev.t;
  cregion : Ir.region;
  ceff : Ir.value_id -> Pred.t; (* effective predicates for scope queries *)
  (* loops nested anywhere under the region: member accesses of sibling
     loop nodes must have their ranges promoted out of these *)
  under : (Ir.loop_id, unit) Hashtbl.t;
  (* region-level item that defines each value (values defined inside a
     sibling loop map to that loop node) *)
  def_item : (Ir.value_id, Ir.node) Hashtbl.t;
  (* caches, all keyed on per-region-stable data (see DESIGN §12):
     region-promoted ranges per access, access summaries and register
     inputs per node *)
  crange : (Ir.value_id, Scev.range option) Hashtbl.t;
  caccess : (Ir.node, access list) Hashtbl.t;
  cfree : (Ir.node, Ir.value_id list) Hashtbl.t;
}

let make_ctx f scev region =
  let under = Hashtbl.create 8 in
  let def_item = Hashtbl.create 64 in
  let rec register_under lid =
    Hashtbl.replace under lid ();
    List.iter
      (function Ir.L l -> register_under l | Ir.I _ -> ())
      (Ir.loop f lid).body
  in
  List.iter
    (fun item ->
      let node = Ir.node_of_item item in
      List.iter
        (fun v -> Hashtbl.replace def_item v node)
        (Ir.defined_values f item);
      match item with
      | Ir.L lid -> register_under lid
      | Ir.I _ -> ())
    (Ir.region_items f region);
  {
    cf = f;
    cscev = scev;
    cregion = region;
    ceff = Ir.effective_preds f;
    under;
    def_item;
    crange = Hashtbl.create 32;
    caccess = Hashtbl.create 32;
    cfree = Hashtbl.create 64;
  }

let def_item ctx v = Hashtbl.find_opt ctx.def_item v

(* The memory range of an access, promoted out of every loop nested under
   the region so that the bounds are computable at region level.  [None]
   means "all of memory" (opaque calls or failed promotion).  Memoized:
   the promotion walks the SCEV and used to be re-derived for every node
   pair the access participated in. *)
let region_range ctx v : Scev.range option =
  match Hashtbl.find_opt ctx.crange v with
  | Some r -> r
  | None ->
    let r =
      match Scev.range_of_access ctx.cscev v with
      | None -> None
      | Some r -> Scev.promote_range ctx.cscev ~out_of:(Hashtbl.mem ctx.under) r
    in
    Hashtbl.add ctx.crange v r;
    r

(* Memory-vs-memory condition for two accesses (at least one writes). *)
let memory_pair ctx i_v j_v : cond =
  if Ir.in_indep_scope ~eff:ctx.ceff ctx.cf i_v j_v then Never
  else
    match region_range ctx i_v, region_range ctx j_v with
    | None, _ | _, None -> Always (* arbitrary memory on one side *)
    | Some r1, Some r2 -> (
      match Alias.relate ctx.cf r1 r2 with
      | Alias.Disjoint -> Never
      | Alias.Overlap -> Always
      | Alias.Unknown -> When [ Aintersect (r1, r2) ])

(* All memory instructions of a node (Fig. 6's [mem_instructions]). *)
let mem_insts ctx node =
  match node with
  | Ir.NI v -> if Ir.is_memory_inst (Ir.inst ctx.cf v) then [ v ] else []
  | Ir.NL lid -> Ir.memory_insts ctx.cf (Ir.L lid)

(* The node's memory accesses with their promoted ranges and restrict
   bases, computed once per node. *)
let accesses ctx node =
  match Hashtbl.find_opt ctx.caccess node with
  | Some l -> l
  | None ->
    let l =
      List.map
        (fun v ->
          let range = region_range ctx v in
          {
            acc_v = v;
            acc_write = Ir.may_write_inst (Ir.inst ctx.cf v);
            acc_range = range;
            acc_base =
              (match range with
              | Some r -> Alias.restrict_base ctx.cf r
              | None -> None);
          })
        (mem_insts ctx node)
    in
    Hashtbl.add ctx.caccess node l;
    l

(* Accesses based on distinct restrict parameters, with neither range
   mentioning the other's base, address distinct allocations:
   [Alias.relate] is [Disjoint] by construction (the difference of the
   bounds mentions both bases with nonzero coefficients, so the
   constant-difference test cannot conclude first), hence [memory_pair]
   is [Never] and need not run at all. *)
let bucket_disjoint a1 a2 =
  match a1.acc_base, a2.acc_base, a1.acc_range, a2.acc_range with
  | Some p, Some q, Some r1, Some r2 ->
    p <> q
    && (not (Alias.range_mentions r2 p))
    && not (Alias.range_mentions r1 q)
  | _ -> false

(* Memory condition between two nodes: union over write-involving pairs
   of member accesses, pruning pairs whose restrict buckets prove them
   disjoint. *)
let memory_cond ctx i j =
  let is1 = accesses ctx i and is2 = accesses ctx j in
  List.fold_left
    (fun acc a1 ->
      List.fold_left
        (fun acc a2 ->
          if not (a1.acc_write || a2.acc_write) then acc
          else if bucket_disjoint a1 a2 then begin
            Tm.incr "depcond.mem_pairs_pruned";
            acc
          end
          else join acc (memory_pair ctx a1.acc_v a2.acc_v))
        acc is2)
    Never is1

(* Values a node reads that it does not define (register inputs).
   Memoized per node: the loop-node case walks the whole loop body. *)
let free_values_uncached ctx node =
  match node with
  | Ir.NI v -> Ir.all_operands (Ir.inst ctx.cf v)
  | Ir.NL lid ->
    let f = ctx.cf in
    let defined = Hashtbl.create 32 in
    List.iter
      (fun v -> Hashtbl.replace defined v ())
      (Ir.defined_values f (Ir.L lid));
    let used = ref [] in
    let rec collect lid =
      let lp = Ir.loop f lid in
      List.iter
        (fun m -> used := Ir.all_operands (Ir.inst f m) @ !used)
        lp.mus;
      used := Pred.literals lp.lpred @ Pred.literals lp.cont @ !used;
      List.iter
        (function
          | Ir.I v -> used := Ir.all_operands (Ir.inst f v) @ !used
          | Ir.L l -> collect l)
        lp.body
    in
    collect lid;
    List.sort_uniq compare
      (List.filter (fun v -> not (Hashtbl.mem defined v)) !used)

let free_values ctx node =
  match Hashtbl.find_opt ctx.cfree node with
  | Some l -> l
  | None ->
    let l = free_values_uncached ctx node in
    Hashtbl.add ctx.cfree node l;
    l

(* Does node i read a value defined by node j? *)
let reads_from ctx i j =
  List.exists
    (fun v ->
      match def_item ctx v with
      | Some d -> d = j
      | None -> false)
    (free_values ctx i)

(* Fig. 6: the direct dependence condition c(i, j).  [i] comes after [j]
   in program order. *)
let compute ctx (i : Ir.node) (j : Ir.node) : cond =
  Tm.incr "depcond.compute_calls";
  match i, j with
  | Ir.NI iv, Ir.NI jv -> (
    let ii = Ir.inst ctx.cf iv in
    let ji = Ir.inst ctx.cf jv in
    match ii.kind with
    | Phi ops when List.exists (fun (_, v) -> v = jv) ops
                   && not (List.mem jv (Pred.literals ii.ipred))
                   && not
                        (List.exists
                           (fun (p, _) -> List.mem jv (Pred.literals p))
                           ops) ->
      (* a phi depends on an operand only under that operand's gate *)
      let p =
        Pred.or_list
          (List.filter_map (fun (p, v) -> if v = jv then Some p else None) ops)
      in
      if Pred.equal p Pred.tru then Always
      else if Pred.equal p Pred.fls then Never
      else When [ Apred p ]
    | Select { cond; if_true; if_false }
      when jv <> cond && (jv = if_true || jv = if_false)
           && not (List.mem jv (Pred.literals ii.ipred)) ->
      let arm_pred positive = Pred.and_ ii.ipred (Pred.lit ~positive cond) in
      let conds =
        (if jv = if_true then [ Apred (arm_pred true) ] else [])
        @ if jv = if_false then [ Apred (arm_pred false) ] else []
      in
      When conds
    | _ ->
      let is_jv v = v = jv in
      if Ir.exists_operand is_jv ii.kind || Pred.exists_literal is_jv ii.ipred
      then Always
      else if not (Ir.may_write_inst ii) && not (Ir.may_write_inst ji) then
        Never
      else if not (Ir.is_memory_inst ii) || not (Ir.is_memory_inst ji) then
        Never
      else if Pred.equal (Pred.and_ ii.ipred ji.ipred) Pred.fls then
        (* contradictory predicates: within one region execution the two
           accesses can never both run (e.g. the two arms of a versioning
           diamond), so no ordering constraint exists between them *)
        Never
      else if
        (* j executes under a strictly more specific predicate: the
           dependence requires j to actually execute *)
        Pred.implies ji.ipred ii.ipred && not (Pred.equal ji.ipred ii.ipred)
      then
        if Pred.equal ji.ipred Pred.fls then Never else When [ Apred ji.ipred ]
      else memory_pair ctx iv jv)
  | _ ->
    (* at least one loop node: register inputs are unconditional;
       memory dependencies are the union over member accesses *)
    let reg = if reads_from ctx i j then Always else Never in
    join reg (memory_cond ctx i j)
