(* Loop-invariant code motion for PSSA.

   An instruction is hoisted out of its loop when all of its data
   operands and predicate literals are defined before the loop; loads
   additionally require that no may-write in the loop can touch their
   address (statically disjoint, or covered by a scoped-independence
   fact established by versioning).  Hoisted instructions run under the
   loop's guard predicate.  Sweeps repeat so code migrates out of nests
   one level per round. *)

open Fgv_pssa
open Fgv_analysis

let run (f : Ir.func) : int =
  let hoisted = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    (* the SCEV and effective predicates only serve load candidates whose
       operands are already invariant: most rounds never build them *)
    let scev = lazy (Scev.create f) in
    let order = Ir.compute_order f in
    let eff = lazy (Ir.effective_preds f) in
    (* hoist from [lp]'s body into the parent's item list; returns the
       rewritten parent items (the same list when nothing moved) *)
    let rec process_items items =
      match items with
      | [] -> items
      | item :: rest -> (
        let moved = process_item item in
        let rest' = process_items rest in
        match moved with
        | None -> if rest' == rest then items else item :: rest'
        | Some hoisted_items -> hoisted_items @ (item :: rest'))
    (* [Some to_hoist] when [item] is a loop that gave up [to_hoist] *)
    and process_item item =
      match item with
      | Ir.I _ -> None
      | Ir.L lid ->
        let lp = Ir.loop f lid in
        lp.body <- process_items lp.body;
        let loop_start = order (Ir.NL lid) in
        let not_outside v = order (Ir.NI v) >= loop_start in
        let writes =
          lazy
            (List.filter
               (fun m -> Ir.may_write_inst (Ir.inst f m))
               (Ir.memory_insts f (Ir.L lid)))
        in
        let load_safe v =
          let scev = Lazy.force scev in
          let eff = Lazy.force eff in
          match Scev.range_of_access scev v with
          | None -> false
          | Some r ->
            List.for_all
              (fun w ->
                Ir.in_indep_scope ~eff f v w
                ||
                match Scev.range_of_access scev w with
                | None -> false
                | Some rw -> Alias.relate f r rw = Alias.Disjoint)
              (Lazy.force writes)
        in
        (* kind first, then operands (allocation-free), then the
           memory test *)
        let hoistable v =
          let i = Ir.inst f v in
          let candidate =
            match i.kind with
            | Ir.Const _ | Ir.Arg _ | Ir.Binop _ | Ir.Cmp _ | Ir.Cast _
            | Ir.Select _ | Ir.Splat _ | Ir.Vecbuild _ | Ir.Extract _
            | Ir.Load _
            | Ir.Call { effect = Ir.Pure; _ } ->
              true
            | _ -> false
          in
          candidate
          && (not
                (Ir.exists_operand not_outside i.kind
                || Pred.exists_literal not_outside i.ipred))
          (* division can trap; keep it guarded inside the loop unless
             the divisor is a nonzero constant *)
          && (match i.kind with
             | Ir.Binop ((Ir.Div | Ir.Rem), _, b) -> (
               match (Ir.inst f b).kind with
               | Ir.Const (Ir.Cint n) -> n <> 0
               | _ -> false)
             | Ir.Load _ -> load_safe v
             | _ -> true)
        in
        let to_hoist =
          List.filter
            (fun it -> match it with Ir.I v -> hoistable v | Ir.L _ -> false)
            lp.body
        in
        if to_hoist = [] then None
        else begin
          changed := true;
          hoisted := !hoisted + List.length to_hoist;
          lp.body <- List.filter (fun it -> not (List.memq it to_hoist)) lp.body;
          (* hoisted code runs under the loop guard *)
          List.iter
            (fun it ->
              match it with
              | Ir.I v ->
                let i = Ir.inst f v in
                i.ipred <- Pred.and_ lp.lpred i.ipred
              | Ir.L _ -> ())
            to_hoist;
          Some to_hoist
        end
    in
    f.Ir.fbody <- process_items f.Ir.fbody
  done;
  !hoisted
