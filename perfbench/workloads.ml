(* The benchmark's inputs, made from the seed alone.  The program under
   test only ever sees the generated request lines; everything the
   checks need (which kernels a line holds, how to run them, which unit
   hits the generator expects) stays on this side. *)

module W = Fgv_bench.Workload
module G = Fgv_fuzz.Generator
module P = Fgv_service.Protocol
module J = Fgv_support.Json
module Pl = Fgv_passes.Pipelines
open Fgv_pssa

(* A kernel the checks can run: one function's source plus the
   arguments and initial heap it expects. *)
type runnable = {
  r_source : string;
  r_args : Value.t list;
  r_mem : unit -> Value.t array;
}

(* One compile request line and the kernels inside it. *)
type line = {
  l_text : string;  (** the wire line, without its newline *)
  l_pipeline : string;
  l_kernels : runnable list;
  l_edit : bool;  (** the generator edited a kernel before this send *)
  l_expected_hits : int;  (** units the generator expects the cache to serve *)
}

let paper_kernels () =
  Fgv_bench.Tsvc.kernels @ Fgv_bench.Polybench.kernels @ Fgv_bench.Specfp.kernels

let runnable_of_kernel ?source (k : W.kernel) =
  {
    r_source = Option.value source ~default:k.W.k_source;
    r_args = k.W.k_args;
    r_mem = (fun () -> W.fresh_mem k);
  }

(* Every kernel source reads "kernel NAME(...": swap NAME. *)
let rename (src : string) (name : string) : string =
  let lp = String.index src '(' in
  "kernel " ^ name ^ String.sub src lp (String.length src - lp)

(* An edit a user might make that keeps the kernel runnable with the
   same arguments: a new dead local just before the closing brace.  It
   changes the token slice (so the unit key) and nothing observable. *)
let edit (src : string) (version : int) : string =
  let rb = String.rindex src '}' in
  Printf.sprintf "%s  float edit_v = %d.0;\n}" (String.sub src 0 rb) version

(* Service requests honour [restrict] as written: every kernel here is
   run with disjoint arguments. *)
let request_line ~id ~source ~pipeline ~emit_c : string =
  J.to_string ~minify:true
    (P.encode_request
       {
         P.rq_id = id;
         rq_source = source;
         rq_pipeline = pipeline;
         rq_no_restrict = false;
         rq_emit_c = emit_c;
         rq_heap = P.default_heap;
       })

let shuffle st (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------ cold-compile *)

let cold_pipelines = [ "sv+v"; "o3"; "rle"; "dse"; "distribute"; "combined" ]

(* Fuzz programs of growing statement budget, eight per size.  Compile
   cost grows faster than the budget and varies tenfold between
   programs of one size, so the budgets stay small: the fuzz share of a
   pass is about a fifteenth of its allocation, and the pass's totals
   move by about 1% from seed to seed. *)
let cold_fuzz_sizes = [ 4; 6; 8; 10; 12 ]

let fuzz_program ~seed ~size ~name : runnable =
  let config = G.vary { G.default_config with G.size } ~seed in
  let fd = G.generate ~config ~seed () in
  let layout = List.hd (G.disjoint_layouts config) in
  {
    r_source = rename (G.render fd) name;
    r_args = G.args_for config layout;
    r_mem = (fun () -> G.fresh_mem config);
  }

(* One pass of a cold build farm: every paper kernel under every
   pipeline, in figure order, each kernel's six requests in seeded
   order, with the seeded fuzz programs spread evenly between them.
   One request in four asks for checked C: one or two of each kernel's
   six (seeded which), and every fourth fuzz program.  The order and
   the checked-C share are fixed so that a pass's allocation and peak
   heap hardly depend on the seed.  Every line is distinct, so against
   a fresh service every one misses.  The same kernel name under six
   pipelines is counted by the service as five invalidations with no
   edit. *)
let cold_compile ~seed : line list =
  let st = Random.State.make [| seed; 0xc01d |] in
  let kernels = paper_kernels () in
  let fuzz =
    List.concat_map
      (fun size ->
        List.init 8 (fun i ->
            let fseed = Random.State.bits st in
            let p = List.nth cold_pipelines (Random.State.int st (List.length cold_pipelines)) in
            (fuzz_program ~seed:fseed ~size ~name:(Printf.sprintf "fuzz_s%d_%d" size i), p)))
      cold_fuzz_sizes
    |> List.mapi (fun j (r, p) -> (r, p, j mod 4 = 0))
  in
  let nk = List.length kernels and nf = List.length fuzz in
  let kernel_jobs k (kern : W.kernel) =
    let emit = 1 + (k mod 2) in
    List.mapi
      (fun j p -> (runnable_of_kernel kern, p, j < emit))
      (shuffle st cold_pipelines)
  in
  let fuzz_after k = List.filteri (fun j _ -> j * nk / nf = k) fuzz in
  let jobs =
    List.concat (List.mapi (fun k kern -> kernel_jobs k kern @ fuzz_after k) kernels)
  in
  List.mapi
    (fun i (r, pipeline, emit_c) ->
      {
        l_text =
          request_line ~id:(Printf.sprintf "c%d" i) ~source:r.r_source ~pipeline
            ~emit_c;
        l_pipeline = pipeline;
        l_kernels = [ r ];
        l_edit = false;
        l_expected_hits = 0;
      })
    jobs

(* --------------------------------------------------------- edit-loop *)

let edit_units = 5

let edit_unit_size = 16

(* edits per block of [edit_block] steps; the rest re-send unchanged *)
let edit_block = 5

(* blocks after the opening sends: every kernel is edited exactly four
   times, (edit_block - 1) * edit_blocks = 4 * edit_units * edit_unit_size *)
let edit_blocks = 80

(* An IDE session: five 16-kernel translation units (80 live kernels,
   under the service's default 128-entry cache) holding every paper
   kernel once, in figure order, renamed per unit; even units compile
   under a versioned pipeline, odd ones under a static one.  The first
   sends open each unit cold.  After that, four steps in every five (at
   a seeded position) edit one kernel and re-send its unit, and the
   fifth re-sends a seeded unit unchanged.  Edits walk four seeded
   permutations of all 80 kernels, so every kernel is edited exactly
   four times and the session's compile work hardly depends on the
   seed. *)
let edit_loop ~seed : line list =
  let st = Random.State.make [| seed; 0xed17 |] in
  let pool = Array.of_list (paper_kernels ()) in
  let npool = Array.length pool in
  let units =
    Array.init edit_units (fun u ->
        Array.init edit_unit_size (fun j ->
            let k = pool.((u * edit_unit_size + j) mod npool) in
            let ident = String.map (fun c -> if c = '-' then '_' else c) k.W.k_name in
            (k, rename k.W.k_source (Printf.sprintf "u%d_%s" u ident))))
  in
  let versions = Array.make_matrix edit_units edit_unit_size 0 in
  let pipeline u = if u mod 2 = 0 then "sv+v" else "o3" in
  let slots = List.init (edit_units * edit_unit_size) (fun i -> (i / edit_unit_size, i mod edit_unit_size)) in
  let pending = ref [] in
  let next_slot () =
    if !pending = [] then pending := shuffle st slots;
    match !pending with
    | s :: rest ->
      pending := rest;
      s
    | [] -> assert false
  in
  let resend_at = ref 0 in
  List.init (edit_units + (edit_block * edit_blocks)) (fun i ->
      let opening = i < edit_units in
      let step = i - edit_units in
      if (not opening) && step mod edit_block = 0 then
        resend_at := step + Random.State.int st edit_block;
      let is_edit = (not opening) && step <> !resend_at in
      let u =
        if opening then i
        else if is_edit then begin
          let u, j = next_slot () in
          versions.(u).(j) <- versions.(u).(j) + 1;
          u
        end
        else Random.State.int st edit_units
      in
      let expected =
        if opening then 0 else if is_edit then edit_unit_size - 1 else edit_unit_size
      in
      let kernels =
        List.init edit_unit_size (fun j ->
            let k, src = units.(u).(j) in
            (k, if versions.(u).(j) = 0 then src else edit src versions.(u).(j)))
      in
      {
        l_text =
          request_line ~id:(Printf.sprintf "e%d" i)
            ~source:(String.concat "\n" (List.map snd kernels))
            ~pipeline:(pipeline u) ~emit_c:false;
        l_pipeline = pipeline u;
        l_kernels = List.map (fun (k, src) -> runnable_of_kernel ~source:src k) kernels;
        l_edit = is_edit;
        l_expected_hits = expected;
      })

(* ------------------------------------------------------- native-exec *)

type pipe = ?on_pass:(string -> Ir.func -> unit) -> Ir.func -> unit

(* A paper kernel under its figure's static/versioned pair. *)
type pair = {
  pr_figure : string;
  pr_kernel : W.kernel;
  pr_no_restrict : bool;
  pr_static : string * pipe;
  pr_versioned : string * pipe;
}

let o3 : pipe = fun ?on_pass f -> ignore (Pl.o3 ?on_pass f)
let svv : pipe = fun ?on_pass f -> ignore (Pl.sv_versioning ?on_pass f)
let rle_base : pipe = fun ?on_pass f -> ignore (Pl.rle_baseline ?on_pass f)
let rle : pipe = fun ?on_pass f -> ignore (Pl.rle_pipeline ?on_pass f)

let pairs () : pair list =
  let mk figure no_restrict s v k =
    { pr_figure = figure; pr_kernel = k; pr_no_restrict = no_restrict;
      pr_static = s; pr_versioned = v }
  in
  List.map (mk "fig19" false ("o3", o3) ("sv+v", svv)) Fgv_bench.Tsvc.kernels
  @ List.map (mk "fig16" true ("o3", o3) ("sv+v", svv)) Fgv_bench.Polybench.kernels
  @ List.map (mk "fig22" false ("rle-base", rle_base) ("rle", rle)) Fgv_bench.Specfp.kernels

(* The whole figure set in seeded order: the seed moves build, layout
   and timing order, while the geomeans stay over the same kernels. *)
let native_draw ~seed : pair list =
  shuffle (Random.State.make [| seed; 0x4a71 |]) (pairs ())

(* The fixed probe the service workloads time natively: every
   figure's first kernels, seed-independent. *)
let native_probe () : pair list =
  let ps = pairs () in
  let first fig n =
    List.filteri (fun i _ -> i < n) (List.filter (fun p -> p.pr_figure = fig) ps)
  in
  first "fig19" 4 @ first "fig16" 2 @ first "fig22" 2
