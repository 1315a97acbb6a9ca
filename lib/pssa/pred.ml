(* Predicates of predicated SSA (Fig. 3 of the paper):

     p ::= true | v | v-bar | p1 /\ p2 | p1 \/ p2

   where v is an SSA value of boolean type.  Predicates are kept in a
   normalized structural form (flattened, sorted, de-duplicated and/or
   lists) so that structural equality coincides with the equality the
   framework needs, and so that [implies] can be decided syntactically for
   the predicates that structured control flow produces.

   Representation: hash-consed.  Every normalized predicate is interned
   in a per-domain table keyed by the shape of its node over the ids of
   its (already interned) children, so within one intern generation two
   structurally equal predicates are one physical value.  This buys:

   - [equal] that answers by physical equality on its fast path;
   - [and_]/[or_]/[not_]/[implies]/[literals] memoized on intern ids,
     which turns the quadratic re-normalization work the dependence
     analysis used to do into table lookups.

   Soundness never depends on canonicity: ids are unique per domain for
   the whole domain lifetime (the id counter survives {!reset}), so a
   memo entry can never be confused between generations, and every
   observable result (normal forms, orders, counters per compile) is the
   same as the plain structural implementation's.  Deterministic
   orderings must use {!compare_t} (structural); {!compare} (id compare)
   is only a fast arbitrary total order within one generation.

   Concurrency: the intern and memo tables are [Domain.DLS] per-domain
   state, so pool workers never share or contend.  Predicates must not
   cross domains (see CONTRIBUTING.md) — except {!tru}/{!fls}, which are
   module-level constants with reserved ids and therefore compare
   correctly everywhere. *)

module Tm = Fgv_support.Telemetry

type value_id = int

type t = { pid : int; node : node }

and node =
  | Ptrue
  | Pfalse
  | Plit of { v : value_id; positive : bool }
  | Pand of t list (* >= 2 elements, sorted, no nested Pand/Ptrue *)
  | Por of t list (* >= 2 elements, sorted, no nested Por/Pfalse *)

type view = node =
  | Ptrue
  | Pfalse
  | Plit of { v : value_id; positive : bool }
  | Pand of t list
  | Por of t list

let view p = p.node
let id p = p.pid

(* Reserved ids 0/1: shared across domains and generations. *)
let tru = { pid = 0; node = Ptrue }
let fls = { pid = 1; node = Pfalse }

(* ------------------------------------------------------ intern tables *)

(* A node's identity is its shape over the ids of its children.  A
   literal packs (v, positive) into one int. *)
type key = Klit of int | Kand of int list | Kor of int list

module Key = struct
  type t = key

  let equal a b =
    match a, b with
    | Klit a, Klit b -> a = b
    | Kand a, Kand b | Kor a, Kor b -> List.equal Int.equal a b
    | _ -> false

  (* fold the whole child list: the generic hash caps its traversal and
     would collide long conjunctions *)
  let hash = function
    | Klit v -> Hashtbl.hash (0, v)
    | Kand pids -> List.fold_left (fun h p -> (h * 31) + p) 17 pids
    | Kor pids -> List.fold_left (fun h p -> (h * 31) + p) 19 pids
end

module H = Hashtbl.Make (Key)

type state = {
  mutable next_pid : int;
  intern : t H.t;
  and_memo : (int * int, t) Hashtbl.t;
  or_memo : (int * int, t) Hashtbl.t;
  not_memo : (int, t) Hashtbl.t;
  implies_memo : (int * int, bool) Hashtbl.t;
  literals_memo : (int, value_id list) Hashtbl.t;
}

let fresh_state () =
  {
    next_pid = 2;
    intern = H.create 256;
    and_memo = Hashtbl.create 256;
    or_memo = Hashtbl.create 64;
    not_memo = Hashtbl.create 64;
    implies_memo = Hashtbl.create 256;
    literals_memo = Hashtbl.create 64;
  }

let state_key : state Domain.DLS.key = Domain.DLS.new_key fresh_state
let state () = Domain.DLS.get state_key

let reset () =
  let s = state () in
  H.reset s.intern;
  Hashtbl.reset s.and_memo;
  Hashtbl.reset s.or_memo;
  Hashtbl.reset s.not_memo;
  Hashtbl.reset s.implies_memo;
  Hashtbl.reset s.literals_memo
(* next_pid deliberately survives: ids stay unique across generations,
   so a stale predicate (built before the reset) can never alias a memo
   entry of a fresh one. *)

let key_of_node = function
  | Ptrue | Pfalse -> assert false (* tru/fls are never interned *)
  | Plit { v; positive } -> Klit ((v lsl 1) lor Bool.to_int positive)
  | Pand xs -> Kand (List.map (fun p -> p.pid) xs)
  | Por xs -> Kor (List.map (fun p -> p.pid) xs)

let intern node =
  match node with
  | Ptrue -> tru
  | Pfalse -> fls
  | _ -> (
    let s = state () in
    let k = key_of_node node in
    match H.find_opt s.intern k with
    | Some p ->
      Tm.incr "pred.hashcons_hits";
      p
    | None ->
      Tm.incr "pred.hashcons_misses";
      let p = { pid = s.next_pid; node } in
      s.next_pid <- s.next_pid + 1;
      H.add s.intern k p;
      p)

let lit ?(positive = true) v = intern (Plit { v; positive })

(* --------------------------------------------------------- comparison *)

(* Structural order, identical to the pre-hash-consing implementation:
   this is the order normal forms are sorted in and the order consumers
   may use for deterministic output.  Physical equality short-circuits
   the recursion. *)
let rec compare_t a b =
  if a == b then 0
  else
    match a.node, b.node with
    | Ptrue, Ptrue | Pfalse, Pfalse -> 0
    | Ptrue, _ -> -1
    | _, Ptrue -> 1
    | Pfalse, _ -> -1
    | _, Pfalse -> 1
    | Plit a, Plit b ->
      let c = compare a.v b.v in
      if c <> 0 then c else compare a.positive b.positive
    | Plit _, _ -> -1
    | _, Plit _ -> 1
    | Pand a, Pand b -> compare_list a b
    | Pand _, _ -> -1
    | _, Pand _ -> 1
    | Por a, Por b -> compare_list a b

and compare_list a b =
  match a, b with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a, y :: b ->
    let c = compare_t x y in
    if c <> 0 then c else compare_list a b

(* Within one generation two structurally equal predicates are one
   physical value, so the fallback only pays for the (rare) comparison
   against a predicate interned before a {!reset}. *)
let rec equal a b =
  a == b
  ||
  match a.node, b.node with
  | Plit x, Plit y -> x.v = y.v && x.positive = y.positive
  | Pand xs, Pand ys | Por xs, Por ys -> List.equal equal xs ys
  | _ -> false

let compare a b = Stdlib.compare a.pid b.pid

(* ------------------------------------------------------ constructors *)

let norm_list xs = List.sort_uniq compare_t xs

(* Detect complementary literal pairs in a sorted conjunct/disjunct list
   (same-v literals are adjacent under [compare_t]). *)
let has_complement xs =
  let rec go = function
    | { node = Plit a; _ } :: ({ node = Plit b; _ } :: _ as rest) ->
      (a.v = b.v && a.positive <> b.positive) || go rest
    | _ :: rest -> go rest
    | [] -> false
  in
  go xs

let and_list ps =
  let flat =
    List.concat_map
      (fun p -> match p.node with Pand xs -> xs | Ptrue -> [] | _ -> [ p ])
      ps
  in
  if List.exists (fun p -> p == fls) flat then fls
  else
    match norm_list flat with
    | [] -> tru
    | [ p ] -> p
    | xs -> if has_complement xs then fls else intern (Pand xs)

let or_list ps =
  let flat =
    List.concat_map
      (fun p -> match p.node with Por xs -> xs | Pfalse -> [] | _ -> [ p ])
      ps
  in
  if List.exists (fun p -> p == tru) flat then tru
  else
    match norm_list flat with
    | [] -> fls
    | [ p ] -> p
    | xs -> if has_complement xs then tru else intern (Por xs)

let and_ a b =
  if a == b then a
  else if a == tru then b
  else if b == tru then a
  else if a == fls || b == fls then fls
  else
    let s = state () in
    let k = if a.pid <= b.pid then (a.pid, b.pid) else (b.pid, a.pid) in
    match Hashtbl.find_opt s.and_memo k with
    | Some r -> r
    | None ->
      let r = and_list [ a; b ] in
      Hashtbl.add s.and_memo k r;
      r

let or_ a b =
  if a == b then a
  else if a == fls then b
  else if b == fls then a
  else if a == tru || b == tru then tru
  else
    let s = state () in
    let k = if a.pid <= b.pid then (a.pid, b.pid) else (b.pid, a.pid) in
    match Hashtbl.find_opt s.or_memo k with
    | Some r -> r
    | None ->
      let r = or_list [ a; b ] in
      Hashtbl.add s.or_memo k r;
      r

let rec not_ p =
  match p.node with
  | Ptrue -> fls
  | Pfalse -> tru
  | _ -> (
    let s = state () in
    match Hashtbl.find_opt s.not_memo p.pid with
    | Some r -> r
    | None ->
      let r =
        match p.node with
        | Ptrue | Pfalse -> assert false
        | Plit { v; positive } -> intern (Plit { v; positive = not positive })
        | Pand xs -> or_list (List.map not_ xs)
        | Por xs -> and_list (List.map not_ xs)
      in
      Hashtbl.add s.not_memo p.pid r;
      r)

(* ---------------------------------------------------------- analyses *)

(* Sound, incomplete implication test.  Complete for the conjunctions of
   literals that structured control flow produces, which is what the
   framework relies on (cf. the pred(j).implies(pred(i)) test in Fig. 6). *)
let rec implies p q =
  if p == q then true
  else if p == fls then true
  else if q == tru then true
  else if p == tru then false
  else if q == fls then false
  else
    let s = state () in
    let k = (p.pid, q.pid) in
    match Hashtbl.find_opt s.implies_memo k with
    | Some r -> r
    | None ->
      let r = compute_implies p q in
      Hashtbl.add s.implies_memo k r;
      r

and compute_implies p q =
  if equal p q then true
  else
    match p.node, q.node with
    | Por xs, _ -> List.for_all (fun x -> implies x q) xs
    | _, Pand ys -> List.for_all (fun y -> implies p y) ys
    | Pand xs, Por ys ->
      List.exists (fun x -> equal x q) xs
      || List.exists (fun y -> implies p y) ys
    | Pand xs, _ -> List.exists (fun x -> equal x q) xs
    | Plit _, Por ys -> List.exists (fun y -> implies p y) ys
    | _ -> false

(* All boolean SSA values mentioned by the predicate.  These are the
   "operands" of a control-predicate dependence condition. *)
let rec literals p =
  match p.node with
  | Ptrue | Pfalse -> []
  | Plit { v; _ } -> [ v ]
  | Pand xs | Por xs -> (
    let s = state () in
    match Hashtbl.find_opt s.literals_memo p.pid with
    | Some r -> r
    | None ->
      let r = List.sort_uniq Stdlib.compare (List.concat_map literals xs) in
      Hashtbl.add s.literals_memo p.pid r;
      r)

(* Does [f] hold for some literal of the predicate?  A walk of the
   structure: neither allocates nor touches the literals memo. *)
let rec exists_literal f p =
  match p.node with
  | Ptrue | Pfalse -> false
  | Plit { v; _ } -> f v
  | Pand xs | Por xs -> exists_literal_list f xs

and exists_literal_list f = function
  | [] -> false
  | x :: rest -> exists_literal f x || exists_literal_list f rest

(* Evaluate under an environment giving the runtime boolean of each value. *)
let rec eval lookup p =
  match p.node with
  | Ptrue -> true
  | Pfalse -> false
  | Plit { v; positive } -> if positive then lookup v else not (lookup v)
  | Pand xs -> List.for_all (eval lookup) xs
  | Por xs -> List.exists (eval lookup) xs

(* Substitute values for values (used when cloning versioned code). *)
let rec rename f p =
  match p.node with
  | Ptrue | Pfalse -> p
  | Plit { v; positive } -> lit ~positive (f v)
  | Pand xs -> and_list (List.map (rename f) xs)
  | Por xs -> or_list (List.map (rename f) xs)

let rec to_string value_name p =
  match p.node with
  | Ptrue -> "true"
  | Pfalse -> "false"
  | Plit { v; positive } ->
    if positive then value_name v else "!" ^ value_name v
  | Pand xs ->
    "(" ^ String.concat " & " (List.map (to_string value_name) xs) ^ ")"
  | Por xs ->
    "(" ^ String.concat " | " (List.map (to_string value_name) xs) ^ ")"
