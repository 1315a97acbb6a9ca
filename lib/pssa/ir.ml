(* Predicated SSA IR (Fig. 3 of the paper).

   A function is a flat list of items (instructions or loops); every item
   carries an execution predicate.  Loops are explicit: a loop has a guard
   predicate, a list of mu nodes (loop-carried values), a body (itself a
   list of items) and a continue predicate evaluated at the end of every
   iteration (do-while semantics).  Values defined inside a loop are read
   after it through eta nodes that denote the value at loop exit.

   Instructions live in a per-function arena keyed by integer ids; items
   reference them by id, which makes cloning, predication updates, and the
   list surgery performed by versioning materialization cheap and local. *)

type value_id = int
type loop_id = int

(* ---------------------------------------------------------------- types *)

type ty =
  | Tint (* also used for addresses *)
  | Tfloat
  | Tbool
  | Tvec of ty * int (* element type, lane count *)
  | Tvoid

let rec string_of_ty = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tbool -> "bool"
  | Tvec (t, n) -> Printf.sprintf "<%d x %s>" n (string_of_ty t)
  | Tvoid -> "void"

let scalar_of_ty = function Tvec (t, _) -> t | t -> t
let lanes_of_ty = function Tvec (_, n) -> n | _ -> 1

(* ------------------------------------------------------------ operators *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | Fadd | Fsub | Fmul | Fdiv
  | Fmin | Fmax
  | Band | Bor (* boolean *)

type cmpop = Eq | Ne | Lt | Le | Gt | Ge | Flt | Fle | Fgt | Fge | Feq | Fne

let string_of_binop = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
  | Fmin -> "fmin" | Fmax -> "fmax" | Band -> "and" | Bor -> "or"

let string_of_cmpop = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
  | Flt -> "flt" | Fle -> "fle" | Fgt -> "fgt" | Fge -> "fge"
  | Feq -> "feq" | Fne -> "fne"

type const = Cint of int | Cfloat of float | Cbool of bool | Cundef of ty

(* Side-effect summary of a call.  [Pure] calls are pure functions of
   their arguments; [Readonly] calls may read arbitrary memory; [Impure]
   calls may read and write arbitrary memory (the default for unknown
   functions, matching the paper's running example). *)
type effect_kind = Pure | Readonly | Impure

(* -------------------------------------------------------- instructions *)

type inst_kind =
  | Const of const
  | Arg of int (* parameter index *)
  | Binop of binop * value_id * value_id
  | Cmp of cmpop * value_id * value_id
  | Cast of ty * value_id (* target scalar type *)
  | Select of { cond : value_id; if_true : value_id; if_false : value_id }
  | Phi of (Pred.t * value_id) list (* gated by operand predicates *)
  | Mu of { init : value_id; recur : value_id; loop : loop_id }
  | Eta of { loop : loop_id; value : value_id } (* value at loop exit *)
  | Load of { addr : value_id } (* width given by the result type *)
  | Store of { addr : value_id; value : value_id }
  | Call of { callee : string; args : value_id list; effect : effect_kind }
  | Splat of value_id (* scalar -> vector broadcast *)
  | Vecbuild of value_id list (* gather scalars into a vector *)
  | Extract of value_id * int (* lane extract *)

type inst = {
  id : value_id;
  mutable kind : inst_kind;
  mutable ty : ty;
  mutable ipred : Pred.t; (* execution predicate *)
  mutable name : string; (* printing hint *)
}

(* ----------------------------------------------------- items and loops *)

type loop = {
  lid : loop_id;
  mutable lpred : Pred.t; (* guard: does the loop execute at all *)
  mutable mus : value_id list;
  mutable body : item list;
  mutable cont : Pred.t; (* continue predicate, end of each iteration *)
}

and item = I of value_id | L of loop_id

type func = {
  fname : string;
  params : (string * ty) list;
  mutable fbody : item list;
  arena : (value_id, inst) Hashtbl.t;
  loop_arena : (loop_id, loop) Hashtbl.t;
  mutable next_value : int;
  mutable next_loop : int;
  (* Scoped-noalias analogue (paper SIV-B): pairs of memory instructions
     established disjoint when the given predicate holds. *)
  mutable indep_scopes : (value_id * value_id * Pred.t) list;
  (* Indices of pointer parameters declared [restrict]: each points into
     a distinct allocation, so accesses through different restrict
     pointers never alias. *)
  mutable restrict_args : int list;
}

(* Dependence-graph node: an instruction or a whole loop (Fig. 6). *)
type node = NI of value_id | NL of loop_id

let node_of_item = function I v -> NI v | L l -> NL l

(* --------------------------------------------------------- construction *)

let create_func ~name ~params =
  {
    fname = name;
    params;
    fbody = [];
    arena = Hashtbl.create 64;
    loop_arena = Hashtbl.create 8;
    next_value = 0;
    next_loop = 0;
    indep_scopes = [];
    restrict_args = [];
  }

let inst f v =
  match Hashtbl.find_opt f.arena v with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Ir.inst: unknown value v%d" v)

let loop f l =
  match Hashtbl.find_opt f.loop_arena l with
  | Some lp -> lp
  | None -> invalid_arg (Printf.sprintf "Ir.loop: unknown loop L%d" l)

(* Create an instruction in the arena; the caller places it in a region. *)
let new_inst ?(name = "") f ~kind ~ty ~pred =
  let id = f.next_value in
  f.next_value <- id + 1;
  let i = { id; kind; ty; ipred = pred; name } in
  Hashtbl.replace f.arena id i;
  i

let new_loop f ~pred =
  let lid = f.next_loop in
  f.next_loop <- lid + 1;
  let lp = { lid; lpred = pred; mus = []; body = []; cont = Pred.fls } in
  Hashtbl.replace f.loop_arena lid lp;
  lp

let value_name f v =
  match Hashtbl.find_opt f.arena v with
  | Some i when i.name <> "" -> Printf.sprintf "%%%s.%d" i.name v
  | Some _ -> Printf.sprintf "%%v%d" v
  | None -> Printf.sprintf "%%DEAD.%d" v

(* ------------------------------------------------------------- operands *)

(* Data operands: SSA values read to compute the instruction, not
   including the values referenced by its execution predicate. *)
let data_operands kind =
  match kind with
  | Const _ | Arg _ -> []
  | Binop (_, a, b) | Cmp (_, a, b) -> [ a; b ]
  | Cast (_, a) | Splat a | Extract (a, _) -> [ a ]
  | Select { cond; if_true; if_false } -> [ cond; if_true; if_false ]
  | Phi ops ->
    List.concat_map (fun (p, v) -> v :: Pred.literals p) ops
  | Mu { init; recur; _ } -> [ init; recur ]
  | Eta { value; _ } -> [ value ]
  | Load { addr } -> [ addr ]
  | Store { addr; value } -> [ addr; value ]
  | Call { args; _ } -> args
  | Vecbuild vs -> vs

let rec exists_phi_operand p = function
  | [] -> false
  | (q, v) :: rest -> p v || Pred.exists_literal p q || exists_phi_operand p rest

(* [exists_operand p kind]: does [p] hold for some data operand of
   [kind] (the values [data_operands] lists)?  Allocation-free. *)
let exists_operand p kind =
  match kind with
  | Const _ | Arg _ -> false
  | Binop (_, a, b) | Cmp (_, a, b) -> p a || p b
  | Cast (_, a) | Splat a | Extract (a, _) -> p a
  | Select { cond; if_true; if_false } -> p cond || p if_true || p if_false
  | Phi ops -> exists_phi_operand p ops
  | Mu { init; recur; _ } -> p init || p recur
  | Eta { value; _ } -> p value
  | Load { addr } -> p addr
  | Store { addr; value } -> p addr || p value
  | Call { args; _ } -> List.exists p args
  | Vecbuild vs -> List.exists p vs

(* All values the instruction depends on unconditionally in order to be
   evaluated, including its execution predicate's literals. *)
let all_operands i =
  List.sort_uniq compare (data_operands i.kind @ Pred.literals i.ipred)

let may_write_inst i =
  match i.kind with
  | Store _ -> true
  | Call { effect = Impure; _ } -> true
  | _ -> false

let may_read_inst i =
  match i.kind with
  | Load _ -> true
  | Call { effect = Readonly | Impure; _ } -> true
  | _ -> false

let is_memory_inst i = may_write_inst i || may_read_inst i

(* All memory instructions inside an item (recursively for loops).
   This is what Fig. 6 calls [mem_instructions] of a loop. *)
let rec memory_insts f item =
  match item with
  | I v -> if is_memory_inst (inst f v) then [ v ] else []
  | L lid ->
    let lp = loop f lid in
    List.concat_map (memory_insts f) lp.body

let node_may_write f = function
  | NI v -> may_write_inst (inst f v)
  | NL lid ->
    List.exists
      (fun v -> may_write_inst (inst f v))
      (memory_insts f (L lid))

(* ---------------------------------------------------------- renumbering *)

(* Replace every use of [old_v] with [new_v] inside an instruction kind. *)
let rename_kind subst kind =
  let s v = subst v in
  match kind with
  | Const _ | Arg _ -> kind
  | Binop (op, a, b) -> Binop (op, s a, s b)
  | Cmp (op, a, b) -> Cmp (op, s a, s b)
  | Cast (t, a) -> Cast (t, s a)
  | Select { cond; if_true; if_false } ->
    Select { cond = s cond; if_true = s if_true; if_false = s if_false }
  | Phi ops -> Phi (List.map (fun (p, v) -> (Pred.rename s p, s v)) ops)
  | Mu { init; recur; loop } -> Mu { init = s init; recur = s recur; loop }
  | Eta { loop; value } -> Eta { loop; value = s value }
  | Load { addr } -> Load { addr = s addr }
  | Store { addr; value } -> Store { addr = s addr; value = s value }
  | Call { callee; args; effect } ->
    Call { callee; args = List.map s args; effect }
  | Splat a -> Splat (s a)
  | Vecbuild vs -> Vecbuild (List.map s vs)
  | Extract (a, n) -> Extract (s a, n)

(* ----------------------------------------------------- region utilities *)

type region = Rtop | Rloop of loop_id

let region_items f = function
  | Rtop -> f.fbody
  | Rloop lid -> (loop f lid).body

let set_region_items f region items =
  match region with
  | Rtop -> f.fbody <- items
  | Rloop lid -> (loop f lid).body <- items

(* Map each node to the region that directly contains it, and each mu to
   its loop's *parent* region (mus belong to the loop header). *)
let parent_regions f =
  let tbl : (node, region) Hashtbl.t = Hashtbl.create 64 in
  let rec walk region items =
    List.iter
      (fun item ->
        Hashtbl.replace tbl (node_of_item item) region;
        match item with
        | I _ -> ()
        | L lid ->
          let lp = loop f lid in
          List.iter (fun m -> Hashtbl.replace tbl (NI m) (Rloop lid)) lp.mus;
          walk (Rloop lid) lp.body)
      items
  in
  walk Rtop f.fbody;
  tbl

(* Chain of regions from Rtop down to the given region. *)
let region_chain f region =
  let parents = parent_regions f in
  let rec up acc r =
    match r with
    | Rtop -> Rtop :: acc
    | Rloop lid ->
      let parent =
        match Hashtbl.find_opt parents (NL lid) with
        | Some p -> p
        | None -> Rtop
      in
      up (r :: acc) parent
  in
  up [] region

(* --------------------------------------------------------- program order *)

(* Whole-function tables below are arrays indexed by value (or loop) id,
   sized by [next_value] ([next_loop]) when built: ids are dense, so a
   lookup is one bounds test and one load.  An id created after a table
   was built reads as if it were absent. *)

(* Assign every node (and every mu) a position consistent with program
   order: mus first, then body items in sequence; a loop's position is
   where it starts.  Used for the termination argument of plan inference
   and by the verifier. *)
let compute_order f =
  let vpos = Array.make f.next_value (-1) in
  let lpos = Array.make f.next_loop (-1) in
  let counter = ref 0 in
  let place tbl id =
    tbl.(id) <- !counter;
    incr counter
  in
  let rec walk items =
    List.iter
      (fun item ->
        match item with
        | I v -> place vpos v
        | L lid ->
          let lp = loop f lid in
          place lpos lid;
          List.iter (place vpos) lp.mus;
          walk lp.body)
      items
  in
  walk f.fbody;
  fun node ->
    let tbl, id = match node with NI v -> (vpos, v) | NL l -> (lpos, l) in
    let n = if id >= 0 && id < Array.length tbl then tbl.(id) else -1 in
    if n < 0 then invalid_arg "Ir.compute_order: node not in function body"
    else n

(* ----------------------------------------------------------------- users *)

(* Map from value to the instructions that use it as a data operand or in
   their execution predicate, each user once, in arena-iteration order
   (most recently visited first).  Recomputed on demand.  An instruction
   visits its operands one after the other, so a repeated operand finds
   the instruction already at the head of its list. *)
let compute_users f =
  let tbl = ref (Array.make f.next_value []) in
  let user = ref 0 in
  let add v =
    if v >= Array.length !tbl then begin
      (* an operand outside the id space (ill-formed IR): grow *)
      let bigger = Array.make (v + 1) [] in
      Array.blit !tbl 0 bigger 0 (Array.length !tbl);
      tbl := bigger
    end;
    let t = !tbl in
    (match t.(v) with
    | u :: _ when u = !user -> ()
    | us -> t.(v) <- !user :: us);
    false
  in
  Hashtbl.iter
    (fun _ i ->
      user := i.id;
      ignore (exists_operand add i.kind);
      ignore (Pred.exists_literal add i.ipred))
    f.arena;
  let tbl = !tbl in
  fun v -> if v >= 0 && v < Array.length tbl then tbl.(v) else []

(* --------------------------------------------------------------- cloning *)

(* Deep-clone an item.  Internal definitions get fresh ids; references to
   values defined outside the cloned item are preserved.  Returns the new
   item and extends [remap] with old-id -> new-id for every cloned value
   (so callers can redirect uses / build versioning phis). *)
let clone_item f remap item =
  let loop_remap : (loop_id, loop_id) Hashtbl.t = Hashtbl.create 8 in
  (* pass 1: allocate fresh value ids for all internal definitions and
     fresh loop ids for all internal loops *)
  let rec collect item =
    match item with
    | I v ->
      let fresh = f.next_value in
      f.next_value <- fresh + 1;
      Hashtbl.replace remap v fresh
    | L lid ->
      let lp = loop f lid in
      let nl = new_loop f ~pred:Pred.tru in
      Hashtbl.replace loop_remap lid nl.lid;
      List.iter
        (fun m ->
          let fresh = f.next_value in
          f.next_value <- fresh + 1;
          Hashtbl.replace remap m fresh)
        lp.mus;
      List.iter collect lp.body
  in
  collect item;
  let subst v = Option.value ~default:v (Hashtbl.find_opt remap v) in
  let subst_loop l = Option.value ~default:l (Hashtbl.find_opt loop_remap l) in
  let clone_inst v =
    let i = inst f v in
    let id = subst v in
    let kind =
      match rename_kind subst i.kind with
      | Mu mu -> Mu { mu with loop = subst_loop mu.loop }
      | Eta e -> Eta { e with loop = subst_loop e.loop }
      | k -> k
    in
    let clone =
      { id; kind; ty = i.ty; ipred = Pred.rename subst i.ipred; name = i.name }
    in
    Hashtbl.replace f.arena id clone;
    id
  in
  (* pass 2: build the clones *)
  let rec build item =
    match item with
    | I v -> I (clone_inst v)
    | L lid ->
      let lp = loop f lid in
      let nl = loop f (subst_loop lid) in
      nl.lpred <- Pred.rename subst lp.lpred;
      nl.mus <- List.map clone_inst lp.mus;
      nl.body <- List.map build lp.body;
      nl.cont <- Pred.rename subst lp.cont;
      L nl.lid
  in
  let result = build item in
  (* carry scoped-independence facts over to the clones: the fact "x and
     y are disjoint when p holds" is about addresses, which the clones
     share (external values are not renamed; internal ones are renamed
     consistently) *)
  let transferred =
    List.filter_map
      (fun (x, y, p) ->
        match Hashtbl.find_opt remap x, Hashtbl.find_opt remap y with
        | Some x', Some y' -> Some (x', y', Pred.rename subst p)
        | _ -> None)
      f.indep_scopes
  in
  f.indep_scopes <- transferred @ f.indep_scopes;
  result

(* ------------------------------------------------------ use replacement *)

(* Replace uses of [old_v] by [new_v] in the given instruction only. *)
let replace_uses_in_inst f ~user ~old_v ~new_v =
  let i = inst f user in
  let subst v = if v = old_v then new_v else v in
  i.kind <- rename_kind subst i.kind;
  i.ipred <- Pred.rename subst i.ipred

(* Replace uses of [old_v] by [new_v] everywhere, including loop guard /
   continue predicates.  Only real users are rewritten: a kind or
   predicate that does not mention [old_v] is left physically as is. *)
let replace_all_uses f ~old_v ~new_v =
  let is_old v = v = old_v in
  let subst v = if v = old_v then new_v else v in
  let rename_pred p =
    if Pred.exists_literal is_old p then Pred.rename subst p else p
  in
  Hashtbl.iter
    (fun _ i ->
      if i.id <> new_v then begin
        if exists_operand is_old i.kind then i.kind <- rename_kind subst i.kind;
        i.ipred <- rename_pred i.ipred
      end)
    f.arena;
  Hashtbl.iter
    (fun _ lp ->
      lp.lpred <- rename_pred lp.lpred;
      lp.cont <- rename_pred lp.cont)
    f.loop_arena

(* Batched form of [replace_all_uses]: apply a whole substitution map in
   a single arena walk.  Callers like GVN accumulate hundreds of
   replacements, and one full walk per replacement is quadratic in the
   function size.  The map must be flat (no value in its domain appears
   in its range).  As above, kinds and predicates are rebuilt only when
   one of their operands is actually substituted. *)
let replace_uses_map f (map : (value_id, value_id) Hashtbl.t) =
  if Hashtbl.length map > 0 then begin
    let mapped = Hashtbl.mem map in
    let subst v = Option.value ~default:v (Hashtbl.find_opt map v) in
    let rename_pred p =
      if Pred.exists_literal mapped p then Pred.rename subst p else p
    in
    Hashtbl.iter
      (fun _ i ->
        if exists_operand mapped i.kind then i.kind <- rename_kind subst i.kind;
        i.ipred <- rename_pred i.ipred)
      f.arena;
    Hashtbl.iter
      (fun _ lp ->
        lp.lpred <- rename_pred lp.lpred;
        lp.cont <- rename_pred lp.cont)
      f.loop_arena
  end

(* ----------------------------------------------------- reachability set *)

(* All value ids defined by an item, recursively. *)
let rec defined_values f item =
  match item with
  | I v -> [ v ]
  | L lid ->
    let lp = loop f lid in
    lp.mus @ List.concat_map (defined_values f) lp.body

(* ---------------------------------------------------------------- misc *)

let iter_insts f g = Hashtbl.iter (fun _ i -> g i) f.arena

(* Static instruction count of the live body (code-size metric). *)
let static_size f =
  let rec count items =
    List.fold_left
      (fun acc item ->
        match item with
        | I _ -> acc + 1
        | L lid ->
          let lp = loop f lid in
          acc + 1 + List.length lp.mus + count lp.body)
      0 items
  in
  count f.fbody

(* Record a scoped independence fact (paper SIV-B). *)
let add_indep_scope f a b p = f.indep_scopes <- (a, b, p) :: f.indep_scopes

(* Effective predicate of every placed value: its own predicate
   conjoined with the guards of all enclosing loops.  This is the
   condition under which the instruction actually executes, seen from
   the top of the function.  Unplaced values fall back to their own
   predicate. *)
let effective_preds f =
  let tbl = Array.make f.next_value Pred.tru in
  let placed = Bytes.make f.next_value '\000' in
  let set v p =
    tbl.(v) <- p;
    Bytes.unsafe_set placed v '\001'
  in
  let rec walk ctx items =
    List.iter
      (fun item ->
        match item with
        | I v -> set v (Pred.and_ ctx (inst f v).ipred)
        | L lid ->
          let lp = loop f lid in
          let ctx' = Pred.and_ ctx lp.lpred in
          List.iter (fun m -> set m ctx') lp.mus;
          walk ctx' lp.body)
      items
  in
  walk Pred.tru f.fbody;
  fun v ->
    if v >= 0 && v < Array.length tbl && Bytes.get placed v <> '\000' then
      tbl.(v)
    else (inst f v).ipred

(* Is the pair (a, b) covered by a recorded independence fact?  The
   recorded disjointness holds whenever p holds; a dependence can only
   occur when both instructions execute, so it suffices that the
   conjunction of their (effective) predicates implies p. *)
let in_indep_scope ?eff f a b =
  let eff = match eff with Some e -> e | None -> fun v -> (inst f v).ipred in
  List.exists
    (fun (x, y, p) ->
      ((x = a && y = b) || (x = b && y = a))
      && Pred.implies (Pred.and_ (eff a) (eff b)) p)
    f.indep_scopes
