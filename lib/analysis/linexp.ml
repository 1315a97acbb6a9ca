(* Linear integer expressions over SSA values:  Σ coeff_i * v_i + konst.

   Used to represent memory addresses and range bounds symbolically.  Two
   addresses whose difference reduces to a constant can be disambiguated
   statically; everything else becomes a run-time intersection check. *)

open Fgv_pssa

type t = { terms : (Ir.value_id * int) list; konst : int }
(* Invariant: terms sorted by value id, one term per value, no zero
   coefficients.  Every operation below preserves it, so two expressions
   over the same values have structurally equal term lists. *)

(* [axpy k a b] is the term list of a + k*b, by one merge of the two
   sorted lists; terms that cancel are dropped. *)
let rec axpy k a b =
  match a, b with
  | _, [] -> a
  | [], _ when k = 1 -> b
  | [], (v, c) :: b' ->
    let c = k * c in
    if c = 0 then axpy k a b' else (v, c) :: axpy k a b'
  | ((va, ca) as ta) :: a', (vb, cb) :: b' ->
    if va < vb then ta :: axpy k a' b
    else if vb < va then
      let c = k * cb in
      if c = 0 then axpy k a b' else (vb, c) :: axpy k a b'
    else
      let c = ca + (k * cb) in
      if c = 0 then axpy k a' b' else (va, c) :: axpy k a' b'

(* Normalize an arbitrary term list: sort by value id, then sum the
   coefficients of each value. *)
let make terms konst =
  let sorted = List.sort (fun (v, _) (w, _) -> Int.compare v w) terms in
  let rec sum = function
    | (v, k) :: (w, k') :: rest when v = w -> sum ((v, k + k') :: rest)
    | (_, 0) :: rest -> sum rest
    | t :: rest -> t :: sum rest
    | [] -> []
  in
  { terms = sum sorted; konst }

let const k = { terms = []; konst = k }
let of_value v = { terms = [ (v, 1) ]; konst = 0 }
let is_const e = e.terms = []

let add a b = { terms = axpy 1 a.terms b.terms; konst = a.konst + b.konst }

let scale k e =
  if k = 0 then const 0
  else { terms = List.map (fun (v, c) -> (v, c * k)) e.terms; konst = e.konst * k }

let sub a b = { terms = axpy (-1) a.terms b.terms; konst = a.konst - b.konst }
let add_const k e = { e with konst = e.konst + k }
let equal a b = a.terms = b.terms && a.konst = b.konst

(* [diff a b] is [Some k] when a - b is the constant k.  By the
   invariant, a - b has no terms exactly when the term lists are equal. *)
let diff a b = if a.terms = b.terms then Some (a.konst - b.konst) else None

let terms e = e.terms
let constant e = e.konst

(* Substitute a value with a linear expression. *)
let subst v e repl =
  match List.assoc_opt v e.terms with
  | None -> e
  | Some k ->
    let rest = List.filter (fun (w, _) -> w <> v) e.terms in
    { terms = axpy k rest repl.terms; konst = e.konst + (k * repl.konst) }

let mentions e v = List.mem_assoc v e.terms

let values e = List.map fst e.terms

let to_string name e =
  let parts =
    List.map
      (fun (v, k) ->
        if k = 1 then name v
        else if k = -1 then "-" ^ name v
        else Printf.sprintf "%d*%s" k (name v))
      e.terms
  in
  let parts = if e.konst <> 0 || parts = [] then parts @ [ string_of_int e.konst ] else parts in
  String.concat " + " parts
