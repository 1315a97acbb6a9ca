(* The benchmark's own native timer.  The kernel's [Emit.fast] text is
   compiled inside a harness that renames the emitted [main] away, so
   the emitted program's self-timing (and its "ns" line) never runs.
   The harness times [reps] of reset+kernel and [reps] of reset alone,
   alternating which goes first, and prints one pair per trial; the
   kernel time is the per-trial difference, summarised by its median
   and quartiles.  A binary whose difference cannot be told apart from
   noise is reported as unresolved rather than clamped to a number. *)

let harness =
  {c|#define main fgv_emitted_main
#include "prog.c"
#undef main

static double time_both(i64 reps) {
  i64 r; double t0 = now_ns();
  for (r = 0; r < reps; r++) { reset(); kernel(); OPT_BARRIER; }
  return now_ns() - t0;
}
static double time_reset(i64 reps) {
  i64 r; double t0 = now_ns();
  for (r = 0; r < reps; r++) { reset(); OPT_BARRIER; }
  return now_ns() - t0;
}

/* argv: trials, reps (0: calibrate to a window of argv[3] ns) */
int main(int argc, char **argv) {
  long trials = argc > 1 ? atol(argv[1]) : 0, t;
  i64 reps = argc > 2 ? atoll(argv[2]) : 0;
  double window = argc > 3 ? atof(argv[3]) : 1e5;
  double sum;
  u64 bits;
  reset();
  kernel();
  sum = checksum();
  memcpy(&bits, &sum, 8);
  printf("checksum %016llx\n", bits);
  if (trials <= 0) return 0;
  if (reps <= 0) {
    reps = 1;
    while (time_both(reps) < window && reps < (1LL << 24)) reps <<= 1;
  }
  printf("reps %lld\n", reps);
  for (t = 0; t < trials; t++) {
    double a, b;
    if (t & 1) { b = time_reset(reps); a = time_both(reps); }
    else { a = time_both(reps); b = time_reset(reps); }
    printf("T %.4f %.4f\n", a / (double)reps, b / (double)reps);
  }
  return 0;
}
|c}

type binary = {
  b_dir : string;
  b_exe : string;
  mutable b_reps : int;  (** 0 until the first timed invocation calibrates *)
  mutable b_diffs : float list;  (** per-trial kernel ns, newest first *)
  mutable b_ratios : float list;  (** per-trial kernel time / reset time *)
}

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Compile [c_text] (an [Emit.fast] program) into a harness binary in
   its own directory under [dir]; returns the binary and cc seconds. *)
let build ~(dir : string) (c_text : string) : (binary * float, string) result =
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write_file (Filename.concat dir "prog.c") c_text;
  let src = Filename.concat dir "harness.c" in
  write_file src harness;
  let exe = Filename.concat dir "harness" in
  let t0 = Unix.gettimeofday () in
  match Fgv_backend.Toolchain.compile ~mode:Fgv_backend.Toolchain.Fast ~src ~exe with
  | Error e -> Error e
  | Ok () ->
    Ok
      ( { b_dir = dir; b_exe = exe; b_reps = 0; b_diffs = []; b_ratios = [] },
        Unix.gettimeofday () -. t0 )

let run_exe (b : binary) (args : string list) : (string list, string) result =
  let r = Fgv_support.Proc.run b.b_exe args in
  if Fgv_support.Proc.ok r then Ok (String.split_on_char '\n' r.Fgv_support.Proc.p_stdout)
  else
    Error
      (Printf.sprintf "%s: %s" b.b_exe
         (Fgv_support.Proc.status_string r.Fgv_support.Proc.p_status))

(* One untimed run: the checksum of final memory after one kernel. *)
let checksum (b : binary) : (float, string) result =
  match run_exe b [ "0" ] with
  | Error e -> Error e
  | Ok lines -> (
    match
      List.find_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ "checksum"; bits ] ->
            Some (Int64.float_of_bits (Int64.of_string ("0x" ^ bits)))
          | _ -> None)
        lines
    with
    | Some c -> Ok c
    | None -> Error (b.b_exe ^ ": no checksum line"))

(* One timed invocation of [trials] interleaved trial pairs. *)
let time (b : binary) ~(trials : int) ~(window_ns : float) : (unit, string) result =
  match
    run_exe b
      [ string_of_int trials; string_of_int b.b_reps; Printf.sprintf "%.0f" window_ns ]
  with
  | Error e -> Error e
  | Ok lines ->
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "reps"; n ] -> b.b_reps <- int_of_string n
        | [ "T"; a; r ] ->
          let a = float_of_string a and r = float_of_string r in
          b.b_diffs <- (a -. r) :: b.b_diffs;
          b.b_ratios <- ((a -. r) /. r) :: b.b_ratios
        | _ -> ())
      lines;
    Ok ()

let quantile (xs : float list) (q : float) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

type summary = {
  s_median_ns : float;
  s_iqr_ns : float;
  s_median_rel : float;  (** kernel time in units of the binary's reset *)
  s_resolved : bool;
}

(* The reset loop doubles as the trial's speed reference: this shared
   machine drifts between states about 1.6x apart, which moves both
   halves of a trial alike, so the per-trial ratio of kernel to reset
   time moves far less than either.  A binary is resolved when at least
   three trials in four show the kernel costing more than reset alone,
   and the middle half of its ratios spans less than their median. *)
let summarise (b : binary) : summary =
  let q xs p = quantile xs p in
  let r1 = q b.b_ratios 0.25 and rm = q b.b_ratios 0.5 and r3 = q b.b_ratios 0.75 in
  {
    s_median_ns = q b.b_diffs 0.5;
    s_iqr_ns = q b.b_diffs 0.75 -. q b.b_diffs 0.25;
    s_median_rel = rm;
    s_resolved = r1 > 0.0 && r3 -. r1 < rm;
  }

let release (b : binary) =
  List.iter
    (fun f -> try Sys.remove (Filename.concat b.b_dir f) with Sys_error _ -> ())
    [ "prog.c"; "harness.c"; "harness" ];
  try Unix.rmdir b.b_dir with Unix.Unix_error _ -> ()
