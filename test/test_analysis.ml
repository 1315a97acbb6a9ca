(* Unit tests for the analysis layer: linear expressions, SCEV,
   alias relations, and dependence conditions (Fig. 6). *)

open Fgv_pssa
open Fgv_analysis
open Harness

(* ------------------------------------------------------------- linexp *)

let test_linexp_algebra () =
  let open Linexp in
  let a = of_value 1 and b = of_value 2 in
  let e = add (scale 3 a) (add_const 5 b) in
  Alcotest.(check (option int)) "diff of shifted" (Some 7)
    (diff (add_const 7 e) e);
  Alcotest.(check (option int)) "diff unrelated" None (diff a b);
  Alcotest.(check bool) "x - x is const 0" true (is_const (sub a a));
  Alcotest.(check int) "konst" 5 (constant (add_const 5 (of_value 3)));
  (* substitution: 3a + b + 5 with a := b + 1 -> 4b + 8 *)
  let s = subst 1 (add_const 5 (add (scale 3 a) b)) (add_const 1 b) in
  Alcotest.(check (option int)) "subst result" (Some 0)
    (diff s (add_const 8 (scale 4 b)));
  Alcotest.(check bool) "mentions" true (mentions e 1);
  Alcotest.(check bool) "not mentions" false (mentions e 9)

let prop_linexp_add_commutes =
  QCheck2.Test.make ~name:"linexp add commutes/normalizes" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 6) (tup2 (int_range 0 4) (int_range (-5) 5)))
    (fun terms ->
      let e1 = Linexp.make terms 3 in
      let e2 =
        List.fold_left
          (fun acc (v, k) -> Linexp.add acc (Linexp.scale k (Linexp.of_value v)))
          (Linexp.const 3) terms
      in
      Linexp.equal e1 e2)

(* The hash-table normalizer [Linexp] used before [add]/[sub] became a
   merge of sorted lists: the reference every operation must match. *)
let ref_norm terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, k) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (cur + k))
    terms;
  Hashtbl.fold (fun v k acc -> if k = 0 then acc else (v, k) :: acc) tbl []
  |> List.sort compare

let test_linexp_matches_reference () =
  let st = Random.State.make [| 0x11e4 |] in
  (* few values and small coefficients: duplicates, zero coefficients
     and cancellation between operands are all common *)
  let rand_terms () =
    List.init (Random.State.int st 7) (fun _ ->
        (Random.State.int st 5, Random.State.int st 7 - 3))
  in
  let same what (terms, konst) e =
    Alcotest.(check (list (pair int int))) (what ^ " terms") terms (Linexp.terms e);
    Alcotest.(check int) (what ^ " konst") konst (Linexp.constant e)
  in
  let neg = List.map (fun (v, c) -> (v, -c)) in
  let constant_diffs = ref 0 in
  for _ = 1 to 3000 do
    let raw = rand_terms () and ka = Random.State.int st 21 - 10 in
    let a = Linexp.make raw ka in
    same "make" (ref_norm raw, ka) a;
    let ta = Linexp.terms a in
    (* half the time b shares a's terms up to a small perturbation, so
       a - b is often constant *)
    let tb_raw =
      if Random.State.bool st then rand_terms ()
      else ta @ (if Random.State.bool st then [] else rand_terms ())
    in
    let kb = Random.State.int st 21 - 10 in
    let b = Linexp.make tb_raw kb in
    let tb = Linexp.terms b in
    let k = Random.State.int st 7 - 3 in
    same "add" (ref_norm (ta @ tb), ka + kb) (Linexp.add a b);
    let ref_sub = ref_norm (ta @ neg tb) in
    same "sub" (ref_sub, ka - kb) (Linexp.sub a b);
    same "scale"
      (ref_norm (List.map (fun (v, c) -> (v, c * k)) ta), ka * k)
      (Linexp.scale k a);
    let v = Random.State.int st 5 in
    (match List.assoc_opt v ta with
    | None -> same "subst (absent)" (ta, ka) (Linexp.subst v a b)
    | Some c ->
      same "subst"
        ( ref_norm
            (List.filter (fun (w, _) -> w <> v) ta
            @ List.map (fun (w, d) -> (w, c * d)) tb),
          ka + (c * kb) )
        (Linexp.subst v a b));
    let expected = if ref_sub = [] then Some (ka - kb) else None in
    if expected <> None then incr constant_diffs;
    Alcotest.(check (option int)) "diff iff sub has no terms" expected
      (Linexp.diff a b)
  done;
  Alcotest.(check bool) "constant differences exercised" true
    (!constant_diffs > 500)

(* --------------------------------------------------------------- scev *)

let sum_with_stride_src =
  {|
  kernel k(float* a, float* b, int n) {
    for (int i = 0; i < n; i = i + 1) {
      a[i * 2 + 3] = b[i] + 1.0;
    }
  }
|}

let test_scev_affine () =
  let f = compile sum_with_stride_src in
  let scev = Scev.create f in
  (* find the loop and its mu *)
  let lid =
    List.find_map (function Ir.L l -> Some l | Ir.I _ -> None) f.Ir.fbody
    |> Option.get
  in
  let lp = Ir.loop f lid in
  let mu = List.hd lp.Ir.mus in
  (match Scev.mu_affine scev mu with
  | Some ma ->
    Alcotest.(check int) "stride" 1 ma.Scev.ma_stride;
    Alcotest.(check bool) "init is 0" true
      (Linexp.equal ma.Scev.ma_init (Linexp.const 0))
  | None -> Alcotest.fail "mu should be affine");
  (* trip count of for (i = 0; i < n; i++) is n *)
  (match Scev.trip scev lp with
  | Some t ->
    let n_arg =
      List.find_map
        (fun item ->
          match item with
          | Ir.I v -> (
            match (Ir.inst f v).Ir.kind with Ir.Arg 2 -> Some v | _ -> None)
          | _ -> None)
        f.Ir.fbody
      |> Option.get
    in
    Alcotest.(check bool) "trip = n" true (Linexp.equal t (Linexp.of_value n_arg))
  | None -> Alcotest.fail "trip should be known");
  (* the store address a + 2i + 3 must decompose with coefficient 2 *)
  let store =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with Ir.Store _ -> Some v | _ -> None)
        | _ -> None)
      lp.Ir.body
    |> Option.get
  in
  match Scev.range_of_access scev store with
  | Some r ->
    Alcotest.(check bool) "coefficient 2 on the mu" true
      (List.mem_assoc mu (Linexp.terms r.Scev.lo)
      && List.assoc mu (Linexp.terms r.Scev.lo) = 2)
  | None -> Alcotest.fail "store range"

let test_scev_promote () =
  let f = compile sum_with_stride_src in
  let scev = Scev.create f in
  let lid =
    List.find_map (function Ir.L l -> Some l | Ir.I _ -> None) f.Ir.fbody
    |> Option.get
  in
  let lp = Ir.loop f lid in
  let store =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with Ir.Store _ -> Some v | _ -> None)
        | _ -> None)
      lp.Ir.body
    |> Option.get
  in
  let r = Option.get (Scev.range_of_access scev store) in
  match Scev.promote_range scev ~out_of:(fun l -> l = lid) r with
  | Some p ->
    let mu = List.hd lp.Ir.mus in
    Alcotest.(check bool) "promoted range is loop-invariant" false
      (Linexp.mentions p.Scev.lo mu || Linexp.mentions p.Scev.hi mu)
  | None -> Alcotest.fail "promotion should succeed"

let test_descending_promote () =
  let f =
    compile
      {|
      kernel k(float* a, float* b, int n) {
        for (int i = n - 1; i >= 0; i = i - 1) { a[i] = b[i]; }
      }
    |}
  in
  let scev = Scev.create f in
  let lid =
    List.find_map (function Ir.L l -> Some l | Ir.I _ -> None) f.Ir.fbody
    |> Option.get
  in
  let lp = Ir.loop f lid in
  let store =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with Ir.Store _ -> Some v | _ -> None)
        | _ -> None)
      lp.Ir.body
    |> Option.get
  in
  let r = Option.get (Scev.range_of_access scev store) in
  match Scev.promote_range scev ~out_of:(fun l -> l = lid) r with
  | Some p ->
    let mu = List.hd lp.Ir.mus in
    Alcotest.(check bool) "descending promotion is invariant" false
      (Linexp.mentions p.Scev.lo mu || Linexp.mentions p.Scev.hi mu)
  | None -> Alcotest.fail "descending promotion should succeed"

(* -------------------------------------------------------------- alias *)

let test_alias_relations () =
  let f = compile "kernel k(float* restrict a, float* restrict b, float* c) { a[0] = b[0] + c[0]; }" in
  (* find the three arg values *)
  let arg n =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f v).Ir.kind with
          | Ir.Arg m when m = n -> Some v
          | _ -> None)
        | _ -> None)
      f.Ir.fbody
    |> Option.get
  in
  let range base lo len =
    { Scev.lo = Linexp.add_const lo (Linexp.of_value base);
      hi = Linexp.add_const (lo + len) (Linexp.of_value base) }
  in
  let a = arg 0 and b = arg 1 and c = arg 2 in
  Alcotest.(check bool) "same base, disjoint offsets" true
    (Alias.relate f (range a 0 4) (range a 4 4) = Alias.Disjoint);
  Alcotest.(check bool) "same base, overlapping offsets" true
    (Alias.relate f (range a 0 4) (range a 3 4) = Alias.Overlap);
  Alcotest.(check bool) "identical symbolic ranges overlap" true
    (Alias.relate f (range a 0 4) (range a 0 4) = Alias.Overlap);
  Alcotest.(check bool) "restrict args are disjoint" true
    (Alias.relate f (range a 0 4) (range b 0 4) = Alias.Disjoint);
  Alcotest.(check bool) "restrict vs plain is disjoint" true
    (Alias.relate f (range a 0 4) (range c 0 4) = Alias.Disjoint);
  (* two plain pointers are unknown: recompile without restrict *)
  let f2 = Fgv_frontend.Lower_ast.compile_no_restrict
      "kernel k(float* restrict a, float* restrict b, float* c) { a[0] = b[0] + c[0]; }" in
  let arg2 n =
    List.find_map
      (fun item ->
        match item with
        | Ir.I v -> (
          match (Ir.inst f2 v).Ir.kind with
          | Ir.Arg m when m = n -> Some v
          | _ -> None)
        | _ -> None)
      f2.Ir.fbody
    |> Option.get
  in
  let range2 base lo len =
    { Scev.lo = Linexp.add_const lo (Linexp.of_value base);
      hi = Linexp.add_const (lo + len) (Linexp.of_value base) }
  in
  Alcotest.(check bool) "plain pointers are unknown" true
    (Alias.relate f2 (range2 (arg2 0) 0 4) (range2 (arg2 1) 0 4) = Alias.Unknown)

(* ------------------------------------------------- dependence conditions *)

let dep_between f (src_kind : Ir.inst_kind -> bool) (dst_kind : Ir.inst_kind -> bool) =
  let scev = Scev.create f in
  let g = Depgraph.build f scev Ir.Rtop in
  let find p =
    Array.to_list g.Depgraph.nodes
    |> List.find_map (fun n ->
           match n with
           | Ir.NI v when p (Ir.inst f v).Ir.kind -> Some n
           | _ -> None)
    |> Option.get
  in
  let i = Depgraph.node_index g (find src_kind) in
  let j = Depgraph.node_index g (find dst_kind) in
  List.find_opt
    (fun e -> e.Depgraph.e_src = i && e.Depgraph.e_dst = j)
    (Array.to_list g.Depgraph.edges)

let test_depcond_memory_pair () =
  (* load *b after store *a, plain pointers: conditional intersection *)
  let f =
    Fgv_frontend.Lower_ast.compile_no_restrict
      "kernel k(float* a, float* b) { a[0] = 1.0; float x = b[0]; a[1] = x; }"
  in
  let is_store0 = function
    | Ir.Store { value; _ } -> (
      match (Ir.inst f value).Ir.kind with
      | Ir.Const (Ir.Cfloat 1.0) -> true
      | _ -> false)
    | _ -> false
  in
  let is_load = function Ir.Load _ -> true | _ -> false in
  match dep_between f is_load is_store0 with
  | Some e -> (
    match e.Depgraph.e_cond with
    | Some [ Depcond.Aintersect _ ] -> ()
    | Some _ -> Alcotest.fail "expected a single intersection condition"
    | None -> Alcotest.fail "expected a conditional edge")
  | None -> Alcotest.fail "expected a dependence edge"

let test_depcond_pred_rule () =
  (* a store guarded by a condition: the later load depends on it only
     when it executes (Fig. 6's predicate rule) *)
  let f =
    Fgv_frontend.Lower_ast.compile_no_restrict
      {|
      kernel k(float* a, float* b, int n) {
        if (n > 0) { a[0] = 1.0; }
        float x = b[0];
        a[1] = x;
      }
    |}
  in
  let is_guarded_store k =
    match k with
    | Ir.Store { value; _ } -> (
      match (Ir.inst f value).Ir.kind with
      | Ir.Const (Ir.Cfloat 1.0) -> true
      | _ -> false)
    | _ -> false
  in
  let is_load = function Ir.Load _ -> true | _ -> false in
  match dep_between f is_load is_guarded_store with
  | Some e -> (
    match e.Depgraph.e_cond with
    | Some [ Depcond.Apred _ ] -> ()
    | Some [ Depcond.Aintersect _ ] ->
      Alcotest.fail "expected the predicate rule, got an intersection"
    | _ -> Alcotest.fail "expected one predicate condition")
  | None -> Alcotest.fail "expected a dependence edge"

let test_depcond_restrict_kills_edge () =
  let f =
    compile
      "kernel k(float* restrict a, float* restrict b) { a[0] = 1.0; float x = b[0]; a[1] = x; }"
  in
  let is_store0 = function
    | Ir.Store { value; _ } -> (
      match (Ir.inst f value).Ir.kind with
      | Ir.Const (Ir.Cfloat 1.0) -> true
      | _ -> false)
    | _ -> false
  in
  let is_load = function Ir.Load _ -> true | _ -> false in
  Alcotest.(check bool) "no edge between restrict-disjoint accesses" true
    (dep_between f is_load is_store0 = None)

let suite =
  [
    Alcotest.test_case "linexp algebra" `Quick test_linexp_algebra;
    QCheck_alcotest.to_alcotest prop_linexp_add_commutes;
    Alcotest.test_case "linexp merge matches hashtable reference" `Quick
      test_linexp_matches_reference;
    Alcotest.test_case "scev affine + trip + ranges" `Quick test_scev_affine;
    Alcotest.test_case "scev promotion" `Quick test_scev_promote;
    Alcotest.test_case "scev descending promotion" `Quick test_descending_promote;
    Alcotest.test_case "alias relations" `Quick test_alias_relations;
    Alcotest.test_case "dependence condition: intersection" `Quick
      test_depcond_memory_pair;
    Alcotest.test_case "dependence condition: predicate rule" `Quick
      test_depcond_pred_rule;
    Alcotest.test_case "restrict removes the edge" `Quick
      test_depcond_restrict_kills_edge;
  ]
