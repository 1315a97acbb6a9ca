(* Reference-equivalence tests for the dense IR tables and the
   write-once text writers.

   The implementations they replaced are kept below as oracles: users,
   program order and effective predicates as hash tables of lists, DCE
   that rebuilds its users table every sweep, the [Printf]-built PSSA
   printer and the [Printf]-built checked-C memory image.  Every paper
   kernel and 48 seeded fuzz programs are compiled under several
   pipelines, and after every stage (through [?on_pass]) the new code
   must give exactly what the oracle gives. *)

open Fgv_pssa
module W = Fgv_bench.Workload
module G = Fgv_fuzz.Generator

(* ----------------------------------------------------------- oracles *)

module Ref = struct
  let compute_order (f : Ir.func) =
    let tbl : (Ir.node, int) Hashtbl.t = Hashtbl.create 64 in
    let counter = ref 0 in
    let next () =
      let c = !counter in
      counter := c + 1;
      c
    in
    let rec walk items =
      List.iter
        (fun item ->
          match item with
          | Ir.I v -> Hashtbl.replace tbl (Ir.NI v) (next ())
          | Ir.L lid ->
            let lp = Ir.loop f lid in
            Hashtbl.replace tbl (Ir.NL lid) (next ());
            List.iter (fun m -> Hashtbl.replace tbl (Ir.NI m) (next ())) lp.Ir.mus;
            walk lp.Ir.body)
        items
    in
    walk f.Ir.fbody;
    fun node ->
      match Hashtbl.find_opt tbl node with
      | Some n -> n
      | None -> invalid_arg "Ir.compute_order: node not in function body"

  let compute_users (f : Ir.func) =
    let tbl : (Ir.value_id, Ir.value_id list) Hashtbl.t = Hashtbl.create 64 in
    let add user v =
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (user :: cur)
    in
    Hashtbl.iter
      (fun _ (i : Ir.inst) -> List.iter (add i.Ir.id) (Ir.all_operands i))
      f.Ir.arena;
    fun v -> Option.value ~default:[] (Hashtbl.find_opt tbl v)

  let effective_preds (f : Ir.func) =
    let tbl : (Ir.value_id, Pred.t) Hashtbl.t = Hashtbl.create 64 in
    let rec walk ctx items =
      List.iter
        (fun item ->
          match item with
          | Ir.I v -> Hashtbl.replace tbl v (Pred.and_ ctx (Ir.inst f v).Ir.ipred)
          | Ir.L lid ->
            let lp = Ir.loop f lid in
            let ctx' = Pred.and_ ctx lp.Ir.lpred in
            List.iter (fun m -> Hashtbl.replace tbl m ctx') lp.Ir.mus;
            walk ctx' lp.Ir.body)
        items
    in
    walk Pred.tru f.Ir.fbody;
    fun v ->
      match Hashtbl.find_opt tbl v with
      | Some p -> p
      | None -> (Ir.inst f v).Ir.ipred

  (* DCE with a fresh users table per sweep *)
  let dce (f : Ir.func) : int =
    let has_side_effect = Fgv_passes.Dce.has_side_effect in
    let sweep () =
      let users = compute_users f in
      let pred_uses = Hashtbl.create 16 in
      Hashtbl.iter
        (fun _ lp ->
          List.iter
            (fun v -> Hashtbl.replace pred_uses v ())
            (Pred.literals lp.Ir.lpred @ Pred.literals lp.Ir.cont))
        f.Ir.loop_arena;
      let used v = users v <> [] || Hashtbl.mem pred_uses v in
      let removed = ref 0 in
      let rec live_loop lid =
        let lp = Ir.loop f lid in
        let defs = Ir.defined_values f (Ir.L lid) in
        let escapes =
          List.exists
            (fun v -> List.exists (fun u -> not (List.mem u defs)) (users v))
            defs
        in
        escapes
        || List.exists
             (fun item ->
               match item with
               | Ir.I v -> has_side_effect f v
               | Ir.L l -> live_loop l)
             lp.Ir.body
      in
      let rec clean items =
        List.filter_map
          (fun item ->
            match item with
            | Ir.I v ->
              if has_side_effect f v || used v then Some item
              else begin
                Hashtbl.remove f.Ir.arena v;
                incr removed;
                None
              end
            | Ir.L lid ->
              if live_loop lid then begin
                let lp = Ir.loop f lid in
                lp.Ir.body <- clean lp.Ir.body;
                Some item
              end
              else begin
                List.iter
                  (fun v -> Hashtbl.remove f.Ir.arena v)
                  (Ir.defined_values f item);
                Hashtbl.remove f.Ir.loop_arena lid;
                incr removed;
                None
              end)
          items
      in
      f.Ir.fbody <- clean f.Ir.fbody;
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

  let rec string_of_const = function
    | Ir.Cint n -> string_of_int n
    | Ir.Cfloat x -> Printf.sprintf "%g" x
    | Ir.Cbool b -> string_of_bool b
    | Ir.Cundef t -> "undef:" ^ Ir.string_of_ty t

  and string_of_kind (f : Ir.func) kind =
    let v = Ir.value_name f in
    match kind with
    | Ir.Const c -> "const " ^ string_of_const c
    | Ir.Arg n ->
      let pname = try fst (List.nth f.Ir.params n) with _ -> string_of_int n in
      Printf.sprintf "arg %d (%s)" n pname
    | Ir.Binop (op, a, b) ->
      Printf.sprintf "%s %s, %s" (Ir.string_of_binop op) (v a) (v b)
    | Ir.Cmp (op, a, b) ->
      Printf.sprintf "cmp %s %s, %s" (Ir.string_of_cmpop op) (v a) (v b)
    | Ir.Cast (t, a) -> Printf.sprintf "cast %s to %s" (v a) (Ir.string_of_ty t)
    | Ir.Select { cond; if_true; if_false } ->
      Printf.sprintf "select %s, %s, %s" (v cond) (v if_true) (v if_false)
    | Ir.Phi ops ->
      let parts =
        List.map
          (fun (p, x) -> Printf.sprintf "%s: %s" (Pred.to_string v p) (v x))
          ops
      in
      "phi(" ^ String.concat ", " parts ^ ")"
    | Ir.Mu { init; recur; loop } ->
      Printf.sprintf "mu(%s, %s) @L%d" (v init) (v recur) loop
    | Ir.Eta { loop; value } -> Printf.sprintf "eta L%d %s" loop (v value)
    | Ir.Load { addr } -> Printf.sprintf "load [%s]" (v addr)
    | Ir.Store { addr; value } ->
      Printf.sprintf "store [%s], %s" (v addr) (v value)
    | Ir.Call { callee; args; effect } ->
      let e =
        match effect with
        | Ir.Pure -> "pure "
        | Ir.Readonly -> "readonly "
        | Ir.Impure -> ""
      in
      Printf.sprintf "call %s%s(%s)" e callee
        (String.concat ", " (List.map v args))
    | Ir.Splat a -> Printf.sprintf "splat %s" (v a)
    | Ir.Vecbuild vs -> "vec(" ^ String.concat ", " (List.map v vs) ^ ")"
    | Ir.Extract (a, n) -> Printf.sprintf "extract %s, %d" (v a) n

  let string_of_inst (f : Ir.func) (i : Ir.inst) =
    let v = Ir.value_name f in
    let lhs =
      if i.Ir.ty = Ir.Tvoid then "" else Printf.sprintf "%s = " (v i.Ir.id)
    in
    Printf.sprintf "%s%s ; %s" lhs (string_of_kind f i.Ir.kind)
      (Pred.to_string v i.Ir.ipred)

  let to_string (f : Ir.func) =
    let buf = Buffer.create 1024 in
    let v = Ir.value_name f in
    let indent n = String.make (2 * n) ' ' in
    let rec pp_items depth items =
      List.iter
        (fun item ->
          match item with
          | Ir.I id ->
            Buffer.add_string buf (indent depth);
            Buffer.add_string buf (string_of_inst f (Ir.inst f id));
            Buffer.add_char buf '\n'
          | Ir.L lid ->
            let lp = Ir.loop f lid in
            Buffer.add_string buf (indent depth);
            Buffer.add_string buf
              (Printf.sprintf "loop L%d ; %s\n" lp.Ir.lid
                 (Pred.to_string v lp.Ir.lpred));
            List.iter
              (fun m ->
                Buffer.add_string buf (indent (depth + 1));
                Buffer.add_string buf (string_of_inst f (Ir.inst f m));
                Buffer.add_char buf '\n')
              lp.Ir.mus;
            pp_items (depth + 1) lp.Ir.body;
            Buffer.add_string buf (indent depth);
            Buffer.add_string buf
              (Printf.sprintf "while %s\n" (Pred.to_string v lp.Ir.cont)))
        items
    in
    let params =
      String.concat ", "
        (List.map
           (fun (n, t) -> Printf.sprintf "%s: %s" n (Ir.string_of_ty t))
           f.Ir.params)
    in
    Buffer.add_string buf (Printf.sprintf "func %s(%s) {\n" f.Ir.fname params);
    pp_items 1 f.Ir.fbody;
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  let mem_init_checked (mem : Value.t array) =
    let buf = Buffer.create 256 in
    let bpf = Printf.bprintf in
    let hexbits x = Printf.sprintf "0x%016LxULL" (Int64.bits_of_float x) in
    bpf buf "static void init_mem(void) {\n";
    Array.iteri
      (fun k (v : Value.t) ->
        match v with
        | Value.VInt n -> bpf buf "  mem[%d] = vint(%dLL);\n" k n
        | Value.VFloat x ->
          bpf buf "  mem[%d] = vfloat(fbits(%s));\n" k (hexbits x)
        | Value.VBool b -> bpf buf "  mem[%d] = vbool(%d);\n" k (if b then 1 else 0)
        | Value.VUndef -> ()
        | Value.VVec _ -> invalid_arg "vector heap cell")
      mem;
    bpf buf "}\n\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------ inputs *)

(* An independent deep copy: fresh instruction and loop records, so a
   pass run on the copy leaves the original alone.  [Hashtbl.copy]
   keeps the arena's iteration order, which user lists follow. *)
let copy_func (f : Ir.func) : Ir.func =
  let arena = Hashtbl.copy f.Ir.arena in
  Hashtbl.filter_map_inplace
    (fun _ (i : Ir.inst) -> Some { i with Ir.id = i.Ir.id })
    arena;
  let loop_arena = Hashtbl.copy f.Ir.loop_arena in
  Hashtbl.filter_map_inplace
    (fun _ (lp : Ir.loop) -> Some { lp with Ir.lid = lp.Ir.lid })
    loop_arena;
  { f with Ir.arena; loop_arena }

let paper_sources () =
  List.map
    (fun (k : W.kernel) -> (k.W.k_name, k.W.k_source))
    (Fgv_bench.Tsvc.kernels @ Fgv_bench.Polybench.kernels
   @ Fgv_bench.Specfp.kernels)

(* 48 programs of growing size, with loop nests up to three deep *)
let fuzz_sources () =
  List.init 48 (fun seed ->
      let config =
        { G.default_config with G.size = 6 + (seed mod 6 * 4); max_loop_depth = 3 }
      in
      (Printf.sprintf "fuzz-%d" seed, G.render (G.generate ~config ~seed ())))

let result g x = match g x with r -> Ok r | exception Invalid_argument m -> Error m

(* Run [check] on the lowered function and after every stage of each
   pipeline. *)
let on_every_stage ~pipelines sources check =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun pipeline ->
          let apply = Option.get (Fgv_passes.Pipelines.find pipeline) in
          let f = Fgv_frontend.Lower_ast.compile src in
          let where stage = Printf.sprintf "%s/%s/%s" name pipeline stage in
          check (where "lowered") f;
          apply ~on_pass:(fun stage f -> check (where stage) f) f)
        pipelines)
    sources

let paper_pipelines = [ "sv+v"; "o3"; "combined" ]
let fuzz_pipelines = [ "sv+v"; "o3" ]

let each_input check =
  on_every_stage ~pipelines:paper_pipelines (paper_sources ()) check;
  on_every_stage ~pipelines:fuzz_pipelines (fuzz_sources ()) check

(* ------------------------------------------------------------- tests *)

let check_tables where (f : Ir.func) =
  let users = Ir.compute_users f and ref_users = Ref.compute_users f in
  let order = Ir.compute_order f and ref_order = Ref.compute_order f in
  let eff = Ir.effective_preds f and ref_eff = Ref.effective_preds f in
  (* a few ids past the tables, as a later-created id would be *)
  for v = -1 to f.Ir.next_value + 2 do
    if users v <> ref_users v then Alcotest.failf "%s: users of v%d" where v;
    if result order (Ir.NI v) <> result ref_order (Ir.NI v) then
      Alcotest.failf "%s: order of v%d" where v;
    match result eff v, result ref_eff v with
    | Ok p, Ok q when p == q -> ()
    | Error _, Error _ -> ()
    | _ -> Alcotest.failf "%s: effective predicate of v%d" where v
  done;
  for l = -1 to f.Ir.next_loop + 2 do
    if result order (Ir.NL l) <> result ref_order (Ir.NL l) then
      Alcotest.failf "%s: order of L%d" where l
  done

let test_tables () = each_input check_tables

(* DCE on two copies: same removals, same count, same printed IR. *)
let check_dce where (f : Ir.func) =
  let mine = copy_func f and theirs = copy_func f in
  let n = Fgv_passes.Dce.run mine in
  let n_ref = Ref.dce theirs in
  Alcotest.(check int) (where ^ ": removed") n_ref n;
  Alcotest.(check int)
    (where ^ ": arena size")
    (Hashtbl.length theirs.Ir.arena)
    (Hashtbl.length mine.Ir.arena);
  Alcotest.(check string) (where ^ ": IR after DCE") (Ref.to_string theirs)
    (Printer.to_string mine)

let test_dce () = each_input check_dce

let check_printer where (f : Ir.func) =
  Alcotest.(check string) (where ^ ": printed IR") (Ref.to_string f)
    (Printer.to_string f);
  Hashtbl.iter
    (fun _ (i : Ir.inst) ->
      if Ref.string_of_inst f i <> Printer.string_of_inst f i then
        Alcotest.failf "%s: string_of_inst v%d" where i.Ir.id;
      if Ref.string_of_kind f i.Ir.kind <> Printer.string_of_kind f i.Ir.kind
      then Alcotest.failf "%s: string_of_kind v%d" where i.Ir.id)
    f.Ir.arena

let test_printer () = each_input check_printer

(* The memory image on every awkward cell value: negative and extreme
   integers, signed zero, NaNs (a negative one too), infinities,
   denormals, booleans and undef. *)
let test_mem_image () =
  let floats =
    [ 0.0; -0.0; 1.0; -1.0; 0.1; -2.5e-300; Float.nan; -.Float.nan;
      Int64.float_of_bits 0xFFF0000000000001L; Float.infinity;
      Float.neg_infinity; 4.9e-324; -4.9e-324; 2.2250738585072009e-308;
      -2.2250738585072009e-308; Float.max_float; -.Float.max_float;
      Float.min_float ]
  in
  let ints = [ 0; 1; -1; 9; -10; 10; 4095; -4096; max_int; min_int; min_int + 1 ] in
  let cells =
    List.map (fun x -> Value.VFloat x) floats
    @ List.map (fun n -> Value.VInt n) ints
    @ [ Value.VBool true; Value.VBool false; Value.VUndef ]
  in
  let st = Random.State.make [| 15 |] in
  let random_cell _ =
    match Random.State.int st 4 with
    | 0 -> Value.VFloat (Int64.float_of_bits (Random.State.int64 st Int64.max_int))
    | 1 -> Value.VFloat (-.Int64.float_of_bits (Random.State.int64 st Int64.max_int))
    | 2 -> Value.VInt (Random.State.bits st - (1 lsl 29))
    | _ -> List.nth cells (Random.State.int st (List.length cells))
  in
  let heaps =
    [ [||]; Array.of_list cells; Array.of_list (List.rev cells);
      Array.init 1000 random_cell ]
  in
  List.iteri
    (fun k mem ->
      let buf = Buffer.create 16 in
      Fgv_backend.Emit.emit_mem_init_checked buf mem;
      Alcotest.(check string)
        (Printf.sprintf "heap %d: memory image" k)
        (Ref.mem_init_checked mem) (Buffer.contents buf))
    heaps

let suite =
  [
    Alcotest.test_case "users/order/effective preds match reference" `Quick
      test_tables;
    Alcotest.test_case "DCE matches per-sweep reference" `Quick test_dce;
    Alcotest.test_case "printer matches Printf reference" `Quick test_printer;
    Alcotest.test_case "checked-C memory image matches Printf reference"
      `Quick test_mem_image;
  ]
