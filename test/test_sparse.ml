(* Tests for the compile-time work of PR "compiler performance":

   - the sparse dependence-graph builder must produce a graph
     byte-identical to the naive all-pairs oracle — same edge ids,
     sources, destinations, conditions, in the same order — on the
     golden kernels and across a fuzz sweep;
   - predicate hash-consing: physical equality of equal predicates,
     generation behavior of [Pred.reset], and the hit/miss counters;
   - the whole pipeline (hash-cons tables, sparse build, telemetry,
     remarks) stays byte-deterministic across [--jobs] counts. *)

open Fgv_pssa
open Fgv_analysis
module Tm = Fgv_support.Telemetry
module Tr = Fgv_support.Trace
module Pool = Fgv_support.Pool
module W = Fgv_bench.Workload
module G = Fgv_fuzz.Generator

(* ------------------------------------- sparse/naive graph equivalence *)

let find_kernel name pool = List.find (fun k -> k.W.k_name = name) pool

let golden_kernels () =
  [
    find_kernel "s131" Fgv_bench.Tsvc.kernels;
    find_kernel "floyd-warshall" Fgv_bench.Polybench.kernels;
    find_kernel "lbm_r" Fgv_bench.Specfp.kernels;
  ]

(* every region of the function: top level plus each loop, recursively *)
let all_regions (f : Ir.func) : Ir.region list =
  let rec loops items =
    List.concat_map
      (function
        | Ir.I _ -> []
        | Ir.L l -> l :: loops (Ir.loop f l).Ir.body)
      items
  in
  Ir.Rtop :: List.map (fun l -> Ir.Rloop l) (loops f.Ir.fbody)

let edge_equal (a : Depgraph.edge) (b : Depgraph.edge) =
  a.Depgraph.e_id = b.Depgraph.e_id
  && a.Depgraph.e_src = b.Depgraph.e_src
  && a.Depgraph.e_dst = b.Depgraph.e_dst
  &&
  match a.Depgraph.e_cond, b.Depgraph.e_cond with
  | None, None -> true
  | Some xs, Some ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun x y -> Depcond.compare_atom x y = 0) xs ys
  | _ -> false

let check_equivalent ~what (f : Ir.func) =
  List.iter
    (fun region ->
      let scev = Scev.create f in
      let sparse = Depgraph.build f scev region in
      let naive = Depgraph.build_naive f scev region in
      let rname =
        match region with
        | Ir.Rtop -> "top"
        | Ir.Rloop l -> Printf.sprintf "L%d" l
      in
      if Array.length sparse.Depgraph.edges <> Array.length naive.Depgraph.edges
      then
        Alcotest.failf "%s %s: sparse has %d edges, naive %d" what rname
          (Array.length sparse.Depgraph.edges)
          (Array.length naive.Depgraph.edges);
      Array.iteri
        (fun k e ->
          if not (edge_equal e naive.Depgraph.edges.(k)) then
            Alcotest.failf "%s %s: edge %d differs between sparse and naive"
              what rname k)
        sparse.Depgraph.edges)
    (all_regions f)

let test_sparse_equals_naive_golden () =
  List.iter
    (fun k ->
      let f = Fgv_frontend.Lower_ast.compile k.W.k_source in
      check_equivalent ~what:k.W.k_name f)
    (golden_kernels ())

let test_sparse_equals_naive_fuzz () =
  (* a 200-seed sweep at the generator's default shape, plus a handful
     of deeper-nesting programs, all compared region by region *)
  let specs =
    List.init 200 (fun seed -> (G.default_config, seed))
    @ List.init 8 (fun seed ->
          ({ G.default_config with G.size = 30; max_loop_depth = 3 }, seed))
  in
  List.iter
    (fun (config, seed) ->
      let src = G.render (G.generate ~config ~seed ()) in
      let f = Fgv_frontend.Lower_ast.compile src in
      check_equivalent ~what:(Printf.sprintf "fuzz seed %d" seed) f)
    specs

let test_sparse_prunes () =
  (* the sparse builder must actually skip work on a real kernel: fewer
     Fig. 6 evaluations than the all-pairs oracle *)
  let k = find_kernel "floyd-warshall" Fgv_bench.Polybench.kernels in
  let f = Fgv_frontend.Lower_ast.compile k.W.k_source in
  let scev = Scev.create f in
  let count build =
    let (), delta =
      Tm.capture (fun () ->
          List.iter (fun r -> ignore (build f scev r)) (all_regions f))
    in
    match List.assoc_opt "depcond.compute_calls" delta with
    | Some n -> n
    | None -> 0
  in
  let sparse = count Depgraph.build in
  let naive = count Depgraph.build_naive in
  Alcotest.(check bool)
    (Printf.sprintf "sparse computes fewer conditions (%d < %d)" sparse naive)
    true (sparse < naive)

(* --------------------------------------------------- hash-cons basics *)

let test_hashcons_physical_equality () =
  Pred.reset ();
  let p1 = Pred.and_ (Pred.lit 1) (Pred.lit ~positive:false 2) in
  let p2 = Pred.and_ (Pred.lit 1) (Pred.lit ~positive:false 2) in
  Alcotest.(check bool) "same structure, same object" true (p1 == p2);
  Alcotest.(check int) "same intern id" (Pred.id p1) (Pred.id p2);
  let q = Pred.or_ p1 (Pred.lit 3) in
  Alcotest.(check bool)
    "rebuilt disjunction interned" true
    (q == Pred.or_ p2 (Pred.lit 3))

let test_hashcons_reset_generations () =
  Pred.reset ();
  let p1 = Pred.and_ (Pred.lit 1) (Pred.lit 2) in
  Pred.reset ();
  let p2 = Pred.and_ (Pred.lit 1) (Pred.lit 2) in
  (* a fresh generation re-interns: new id, but structural equality and
     ordering still treat the old object correctly *)
  Alcotest.(check bool) "ids differ across generations" true
    (Pred.id p1 <> Pred.id p2);
  Alcotest.(check bool) "still structurally equal" true (Pred.equal p1 p2);
  Alcotest.(check int) "compare_t agrees" 0 (Pred.compare_t p1 p2)

let test_hashcons_counters () =
  Pred.reset ();
  let (), delta =
    Tm.capture (fun () ->
        let a = Pred.and_ (Pred.lit 4) (Pred.lit 5) in
        ignore (Pred.and_ (Pred.lit 4) (Pred.lit 5));
        ignore a)
  in
  let get name = Option.value ~default:0 (List.assoc_opt name delta) in
  Alcotest.(check bool) "misses recorded" true (get "pred.hashcons_misses" > 0);
  Alcotest.(check bool) "hits recorded" true (get "pred.hashcons_hits" > 0)

(* ---------------------------------------- use replacement, real users *)

(* The rewrite-every-instruction forms of [Ir.replace_all_uses] and
   [Ir.replace_uses_map]: the reference the real-user forms must print
   identically to. *)
let full_rename f subst ~skip =
  Hashtbl.iter
    (fun _ (i : Ir.inst) ->
      if not (skip i.id) then begin
        i.kind <- Ir.rename_kind subst i.kind;
        i.ipred <- Pred.rename subst i.ipred
      end)
    f.Ir.arena;
  Hashtbl.iter
    (fun _ (lp : Ir.loop) ->
      lp.lpred <- Pred.rename subst lp.lpred;
      lp.cont <- Pred.rename subst lp.cont)
    f.Ir.loop_arena

let sorted_ids f = List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) f.Ir.arena [])

(* Values some instruction or loop predicate reads. *)
let used_values f =
  let used = Hashtbl.create 64 in
  let mark v = Hashtbl.replace used v () in
  Ir.iter_insts f (fun i ->
      List.iter mark (Ir.data_operands i.Ir.kind);
      List.iter mark (Pred.literals i.Ir.ipred));
  Hashtbl.iter
    (fun _ (lp : Ir.loop) ->
      List.iter mark (Pred.literals lp.Ir.lpred);
      List.iter mark (Pred.literals lp.Ir.cont))
    f.Ir.loop_arena;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) used [])

(* A seeded set of replacements for [f]: [n] distinct used values, each
   paired with a value outside that set (so the map is flat). *)
let pick_replacements st f n =
  let used = Array.of_list (used_values f) in
  let olds =
    List.sort_uniq compare
      (List.init n (fun _ -> used.(Random.State.int st (Array.length used))))
  in
  let others = Array.of_list (List.filter (fun v -> not (List.mem v olds)) (sorted_ids f)) in
  List.map (fun o -> (o, others.(Random.State.int st (Array.length others)))) olds

(* Kinds and predicates of every instruction that reads none of [olds]
   must come out of the rewrite physically unchanged. *)
let check_untouched ~what f olds run =
  let reads_old vs = List.exists (fun v -> List.mem v olds) vs in
  let before =
    List.map (fun v -> let i = Ir.inst f v in (i, i.Ir.kind, i.Ir.ipred)) (sorted_ids f)
  in
  run ();
  List.iter
    (fun ((i : Ir.inst), kind, pred) ->
      if not (reads_old (Ir.data_operands kind)) then
        Alcotest.(check bool)
          (Printf.sprintf "%s: %%%d kind kept" what i.id)
          true (i.kind == kind);
      if not (reads_old (Pred.literals pred)) then
        Alcotest.(check bool)
          (Printf.sprintf "%s: %%%d predicate kept" what i.id)
          true (i.ipred == pred))
    before

let test_replace_uses_real_users () =
  let specs =
    List.init 40 (fun seed -> (G.default_config, seed))
    @ List.init 4 (fun seed ->
          ({ G.default_config with G.size = 30; max_loop_depth = 3 }, seed))
  in
  List.iter
    (fun (config, seed) ->
      let src = G.render (G.generate ~config ~seed ()) in
      (* the versioning pipeline adds gated phis and loop guards *)
      let build () =
        let f = Fgv_frontend.Lower_ast.compile src in
        ignore (Fgv_passes.Pipelines.sv_versioning f);
        f
      in
      let what = Printf.sprintf "fuzz seed %d" seed in
      (* one replacement at a time *)
      let f = build () in
      let pairs = pick_replacements (Random.State.make [| seed |]) f 4 in
      List.iter
        (fun (old_v, new_v) ->
          check_untouched ~what f [ old_v ] (fun () ->
              Ir.replace_all_uses f ~old_v ~new_v))
        pairs;
      let got = Printer.to_string f in
      let g = build () in
      List.iter
        (fun (old_v, new_v) ->
          full_rename g
            (fun v -> if v = old_v then new_v else v)
            ~skip:(fun id -> id = new_v))
        pairs;
      Alcotest.(check string) (what ^ ": replace_all_uses") (Printer.to_string g) got;
      (* the batched map *)
      let f = build () in
      let pairs = pick_replacements (Random.State.make [| seed; 1 |]) f 6 in
      let map = Hashtbl.create 8 in
      List.iter (fun (o, n) -> Hashtbl.replace map o n) pairs;
      check_untouched ~what f (List.map fst pairs) (fun () ->
          Ir.replace_uses_map f map);
      let got = Printer.to_string f in
      let g = build () in
      full_rename g
        (fun v -> Option.value ~default:v (Hashtbl.find_opt map v))
        ~skip:(fun _ -> false);
      Alcotest.(check string) (what ^ ": replace_uses_map") (Printer.to_string g) got)
    specs

(* ------------------------------------------------- jobs determinism *)

let determinism_sources () =
  List.map
    (fun k -> k.W.k_source)
    (golden_kernels ()
    @ [
        find_kernel "s1113" Fgv_bench.Tsvc.kernels;
        find_kernel "s2244" Fgv_bench.Tsvc.kernels;
      ])
  @ List.init 6 (fun seed -> G.render (G.generate ~seed ()))

let pipeline_fingerprint jobs =
  Tm.reset ();
  Tr.reset ();
  Tr.set_remarks true;
  let srcs = determinism_sources () in
  ignore
    (Pool.map ~jobs
       (fun src ->
         let f = Fgv_frontend.Lower_ast.compile src in
         ignore (Fgv_passes.Pipelines.sv_versioning f))
       srcs);
  let remarks = Tr.remarks_jsonl () in
  let counters =
    String.concat "\n"
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         (List.filter
            (fun (k, _) ->
              (* the counters this PR adds, plus everything else the
                 pipeline bumps — all must merge deterministically *)
              not (String.length k = 0))
            (Tm.counters ())))
  in
  Tr.set_remarks false;
  Tr.reset ();
  Tm.reset ();
  (remarks, counters)

let test_jobs_determinism () =
  let r1, c1 = pipeline_fingerprint 1 in
  let r4, c4 = pipeline_fingerprint 4 in
  Alcotest.(check string) "remark stream byte-identical at jobs 1 vs 4" r1 r4;
  Alcotest.(check string) "telemetry byte-identical at jobs 1 vs 4" c1 c4

let suite =
  [
    Alcotest.test_case "sparse = naive on golden kernels" `Quick
      test_sparse_equals_naive_golden;
    Alcotest.test_case "sparse = naive on fuzz sweep" `Slow
      test_sparse_equals_naive_fuzz;
    Alcotest.test_case "sparse build prunes pairs" `Quick test_sparse_prunes;
    Alcotest.test_case "hash-consing: physical equality" `Quick
      test_hashcons_physical_equality;
    Alcotest.test_case "hash-consing: reset generations" `Quick
      test_hashcons_reset_generations;
    Alcotest.test_case "hash-consing: hit/miss counters" `Quick
      test_hashcons_counters;
    Alcotest.test_case "pipeline deterministic at jobs 1 vs 4" `Quick
      test_jobs_determinism;
    Alcotest.test_case "use replacement rewrites only real users" `Quick
      test_replace_uses_real_users;
  ]
