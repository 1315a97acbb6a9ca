(* Dead code elimination for PSSA.

   An instruction is dead when it has no side effects and no users; a
   loop is dead when nothing it defines is used outside it and its body
   has no side effects.  Runs to a fixpoint.

   Users are computed once per run.  Every sweep reads them as of its
   own start: the first sweep's table minus the ids removed by earlier
   sweeps (removals only take users away, so this is exactly the table
   a fresh walk would build).  A sweep's removals join the dead set only
   when the sweep ends, so within a sweep every decision sees the same
   snapshot. *)

open Fgv_pssa

let has_side_effect f v =
  let i = Ir.inst f v in
  match i.kind with
  | Ir.Store _ -> true
  | Ir.Call { effect = Ir.Impure; _ } -> true
  | Ir.Call { effect = Ir.Readonly; _ } -> false
  | _ -> false

(* Every value an item defines, recursively (mus included). *)
let rec iter_defined f g item =
  match item with
  | Ir.I v -> g v
  | Ir.L lid ->
    let lp = Ir.loop f lid in
    List.iter g lp.Ir.mus;
    List.iter (iter_defined f g) lp.Ir.body

let rec exists_defined f p item =
  match item with
  | Ir.I v -> p v
  | Ir.L lid ->
    let lp = Ir.loop f lid in
    List.exists p lp.Ir.mus || List.exists (exists_defined f p) lp.Ir.body

let run (f : Ir.func) : int =
  let users = Ir.compute_users f in
  let n = f.Ir.next_value in
  (* removed by an earlier sweep *)
  let dead = Array.make n false in
  (* read by a loop guard or continue predicate, this sweep *)
  let pred_used = Array.make n false in
  (* scratch membership set for the loop being tested *)
  let inside = Array.make n false in
  let mark v =
    pred_used.(v) <- true;
    false
  in
  let live_user u = not dead.(u) in
  let used v = pred_used.(v) || List.exists live_user (users v) in
  (* One sweep; returns the number of items removed. *)
  let sweep () =
    Array.fill pred_used 0 n false;
    Hashtbl.iter
      (fun _ lp ->
        ignore (Pred.exists_literal mark lp.Ir.lpred);
        ignore (Pred.exists_literal mark lp.Ir.cont))
      f.Ir.loop_arena;
    let removed = ref 0 in
    let removed_ids = ref [] in
    let remove v =
      Hashtbl.remove f.Ir.arena v;
      removed_ids := v :: !removed_ids
    in
    let rec live_loop lid =
      let lp = Ir.loop f lid in
      let item = Ir.L lid in
      iter_defined f (fun v -> inside.(v) <- true) item;
      let escapes =
        (* defined values used by instructions outside the loop: etas *)
        let outside_user u = live_user u && not inside.(u) in
        exists_defined f (fun v -> List.exists outside_user (users v)) item
      in
      iter_defined f (fun v -> inside.(v) <- false) item;
      escapes
      || List.exists
           (fun item ->
             match item with
             | Ir.I v -> has_side_effect f v
             | Ir.L l -> live_loop l)
           lp.Ir.body
    in
    (* Items are decided left to right; an unchanged list is returned
       as is. *)
    let rec clean items =
      match items with
      | [] -> items
      | item :: rest ->
        let keep =
          match item with
          | Ir.I v ->
            if has_side_effect f v || used v then true
            else begin
              remove v;
              incr removed;
              false
            end
          | Ir.L lid ->
            if live_loop lid then begin
              let lp = Ir.loop f lid in
              lp.Ir.body <- clean lp.Ir.body;
              true
            end
            else begin
              iter_defined f remove item;
              Hashtbl.remove f.Ir.loop_arena lid;
              incr removed;
              false
            end
        in
        let rest' = clean rest in
        if not keep then rest'
        else if rest' == rest then items
        else item :: rest'
    in
    f.Ir.fbody <- clean f.Ir.fbody;
    List.iter (fun v -> dead.(v) <- true) !removed_ids;
    !removed
  in
  let total = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let n = sweep () in
    total := !total + n;
    continue_ := n > 0
  done;
  !total
