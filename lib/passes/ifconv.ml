(* If-conversion for innermost loop bodies, as vectorizers perform before
   widening: predicated pure instructions are speculated (their
   predicates dropped), and a predicated store becomes an unconditional
   store of [select(cond, value, old)] where [old] is a load of the
   current cell.

   This is only applied when the body is trap-free to speculate: no
   calls, no predicated integer division.  Speculated loads are assumed
   dereferenceable (standard vectorizer precondition; always true for
   our in-bounds kernels). *)

open Fgv_pssa

(* Build a boolean value computing the predicate, emitting instructions
   (predicate true) into [acc]. *)
let rec pred_value f acc (p : Pred.t) : Ir.value_id =
  let emit kind =
    let i = Ir.new_inst f ~kind ~ty:Ir.Tbool ~pred:Pred.tru in
    acc := Ir.I i.id :: !acc;
    i.id
  in
  match Pred.view p with
  | Ptrue -> emit (Ir.Const (Cbool true))
  | Pfalse -> emit (Ir.Const (Cbool false))
  | Plit { v; positive } ->
    if positive then v
    else
      let fls = emit (Ir.Const (Cbool false)) in
      emit (Ir.Cmp (Eq, v, fls))
  | Pand ps ->
    let vs = List.map (pred_value f acc) ps in
    List.fold_left (fun a v -> emit (Ir.Binop (Band, a, v))) (List.hd vs) (List.tl vs)
  | Por ps ->
    let vs = List.map (pred_value f acc) ps in
    List.fold_left (fun a v -> emit (Ir.Binop (Bor, a, v))) (List.hd vs) (List.tl vs)

let convertible f lp =
  (* Speculating an instruction is only sound if everything it reads is
     actually computed on the speculated path.  Operands defined inside
     the loop are fine (they get speculated together), but an operand
     defined *outside* under a non-true predicate — e.g. a guarded
     address computation that LICM hoisted with its predicate — stays
     undef when the guard is false, and the speculated use would read
     it unconditionally. *)
  let inside = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace inside v ())
    (lp.Ir.mus @ List.concat_map (Ir.defined_values f) lp.Ir.body);
  let operands_available i =
    let unavailable o =
      not (Hashtbl.mem inside o || Pred.equal (Ir.inst f o).Ir.ipred Pred.tru)
    in
    not
      (Ir.exists_operand unavailable i.Ir.kind
      || Pred.exists_literal unavailable i.Ir.ipred)
  in
  List.for_all
    (fun item ->
      match item with
      | Ir.L _ -> false
      | Ir.I v -> (
        let i = Ir.inst f v in
        match i.kind with
        | Ir.Call _ -> Pred.equal i.ipred Pred.tru
        | Ir.Binop ((Ir.Div | Ir.Rem), _, _) -> Pred.equal i.ipred Pred.tru
        | _ -> Pred.equal i.ipred Pred.tru || operands_available i))
    lp.Ir.body

let convert_loop f lp =
  let new_body =
    List.concat_map
      (fun item ->
        match item with
        | Ir.L _ -> [ item ]
        | Ir.I v -> (
          let i = Ir.inst f v in
          if Pred.equal i.ipred Pred.tru then [ item ]
          else
            match i.kind with
            | Ir.Store { addr; value } ->
              (* masked store: store select(cond, value, old) *)
              let acc = ref [] in
              let cond = pred_value f acc i.ipred in
              let old =
                Ir.new_inst ~name:"ifc_old" f ~kind:(Ir.Load { addr })
                  ~ty:(Ir.inst f value).ty ~pred:Pred.tru
              in
              let sel =
                Ir.new_inst ~name:"ifc_sel" f
                  ~kind:(Ir.Select { cond; if_true = value; if_false = old.id })
                  ~ty:old.ty ~pred:Pred.tru
              in
              i.kind <- Ir.Store { addr; value = sel.id };
              i.ipred <- Pred.tru;
              List.rev !acc @ [ Ir.I old.id; Ir.I sel.id; item ]
            | Ir.Phi _ ->
              (* phis evaluate their own gates; just unpredicate *)
              i.ipred <- Pred.tru;
              [ item ]
            | _ ->
              (* pure instruction: speculate *)
              i.ipred <- Pred.tru;
              [ item ]))
      lp.Ir.body
  in
  lp.Ir.body <- new_body

(* Convert every innermost loop whose body is speculation-safe. *)
let run (f : Ir.func) : int =
  let converted = ref 0 in
  let rec walk items =
    List.iter
      (fun item ->
        match item with
        | Ir.I _ -> ()
        | Ir.L lid ->
          let lp = Ir.loop f lid in
          let nested = List.exists (function Ir.L _ -> true | _ -> false) lp.body in
          if nested then walk lp.body
          else if
            List.exists
              (fun it ->
                match it with
                | Ir.I v -> not (Pred.equal (Ir.inst f v).ipred Pred.tru)
                | Ir.L _ -> false)
              lp.body
            && convertible f lp
          then begin
            convert_loop f lp;
            incr converted
          end)
      items
  in
  walk f.Ir.fbody;
  !converted
