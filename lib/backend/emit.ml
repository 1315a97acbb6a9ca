(* C emission from the CFG IR.

   Two modes with very different contracts:

   - {!checked} is the differential-execution oracle.  It transliterates
     {!Fgv_cfg.Cinterp} into C: values are dynamically tagged (a [val]
     struct mirroring {!Fgv_pssa.Value.t}), every instruction burns one
     unit of fuel exactly where the interpreter does, loads/stores are
     bounds-checked, undef propagates with the interpreter's rules, and
     integer arithmetic follows the pinned {!Fgv_pssa.Intsem} semantics
     (63-bit wrap-around, truncating division, the documented
     float-to-int edge cases).  The compiled program prints an
     observation protocol on stdout — one [C <name> <args>] line per
     impure call (emitted *before* the call runs, like the
     interpreter's trace), one [M <index> <value>] line per memory cell
     at the end, and a final [X <class>] line classifying the run as
     [ok], [trap], [undef load], [undef store], or [fuel].  Floats
     travel as raw IEEE bits so NaN payloads and signed zeros survive
     the round-trip.  Compile with [-O0] and *without* [-march] so the
     compiler cannot contract a*b+c into an FMA and break bit-exact
     comparison against the interpreter.

   - {!fast} is the wall-clock benchmarking backend.  Values get their
     natural C types (long long / double / int, fixed-width lane
     structs for vectors), vector operations become fixed-trip lane
     loops the C compiler's SLP vectorizer turns into SIMD, arguments
     and the initial heap are baked in as constants, and main() times
     repeated kernel executions against CLOCK_MONOTONIC with a
     calibrated repetition count, reporting nanoseconds per run (with
     the heap-reset cost measured separately so it can be subtracted)
     and a bits-encoded checksum of final memory for validation against
     the interpreter.  No fuel, no bounds checks, no undef tracking:
     fast mode is only run on programs the interpreter already
     validated. *)

open Fgv_pssa
module C = Fgv_cfg.Cir

let bpf = Printf.bprintf

(* ------------------------------------------------------------------ *)
(* Program analysis shared by both modes                              *)
(* ------------------------------------------------------------------ *)

type info = {
  inst_of : (C.cvalue, C.cinst) Hashtbl.t;
  order : C.block list; (* creation order *)
  max_width : int; (* widest vector type, >= 1 *)
  decls : C.cvalue list; (* every defined or referenced value id, sorted *)
}

let ty_width (t : Ir.ty) = match t with Ir.Tvec (_, n) -> n | _ -> 1

let operands (ck : C.ckind) : C.cvalue list =
  match ck with
  | C.KConst _ | C.KArg _ -> []
  | C.KBinop (_, a, b) | C.KCmp (_, a, b) | C.KStore (a, b) -> [ a; b ]
  | C.KCast (_, a) | C.KNot a | C.KLoad a | C.KSplat a | C.KExtract (a, _) ->
    [ a ]
  | C.KSelect (a, b, c) -> [ a; b; c ]
  | C.KPhi ops -> List.map snd ops
  | C.KCall (_, args, _) -> args
  | C.KVecbuild vs -> vs

let analyze (p : C.prog) : info =
  let inst_of = Hashtbl.create 256 in
  let order = List.rev_map (fun bid -> C.block p bid) p.C.block_order in
  let maxw = ref 1 in
  let ids = Hashtbl.create 256 in
  let note v = Hashtbl.replace ids v () in
  List.iter
    (fun (b : C.block) ->
      List.iter
        (fun (i : C.cinst) ->
          Hashtbl.replace inst_of i.C.cid i;
          note i.C.cid;
          List.iter note (operands i.C.ck);
          let w = ty_width i.C.cty in
          if w > !maxw then maxw := w)
        b.C.insts;
      match b.C.term with C.CondBr (c, _, _) -> note c | _ -> ())
    order;
  let decls = List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) ids []) in
  { inst_of; order; max_width = !maxw; decls }

(* Type of a value id; operands that were never defined read as undef in
   the interpreter, so give them a scalar type here (checked mode
   zero-initializes them to undef, fast mode to 0). *)
let cty info (v : C.cvalue) : Ir.ty =
  match Hashtbl.find_opt info.inst_of v with
  | Some i -> i.C.cty
  | None -> Ir.Tint

let is_vec info v = ty_width (cty info v) > 1

(* A float constant's bit pattern as a C literal, "0x%016LxULL" written
   by hand: each of the 16 digits is the low nibble of a logical shift,
   so a set sign bit prints as itself. *)
let add_hexbits buf (x : float) =
  let bits = Int64.bits_of_float x in
  Buffer.add_string buf "0x";
  for k = 15 downto 0 do
    let d = Int64.to_int (Int64.shift_right_logical bits (4 * k)) land 15 in
    Buffer.add_char buf "0123456789abcdef".[d]
  done;
  Buffer.add_string buf "ULL"

(* ------------------------------------------------------------------ *)
(* Checked mode                                                       *)
(* ------------------------------------------------------------------ *)

(* The runtime below is a line-by-line transliteration of Cinterp (and
   of the Value / Intsem helpers it calls); each function cites its
   OCaml counterpart.  Everything is dynamically tagged so the C code
   agrees with the interpreter even on the exotic paths: whole-undef
   values of vector type, width mismatches, type-confused operands. *)
let checked_prelude ~memn ~maxw ~fuel =
  Printf.sprintf
    {c|/* generated by fgv — checked (differential) mode; do not edit */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

typedef long long i64;
typedef unsigned long long u64;

#define MEMN %d
#define MAXW %d

/* scalar lane: tag 0 undef, 1 int, 2 float, 3 bool (Value.t lanes) */
typedef struct { int tag; i64 i; double f; } sv;
/* dynamic value: scalar tags as above, tag 4 = vector of w lanes */
typedef struct { int tag; i64 i; double f; int w; sv l[MAXW]; } val;

static val mem[MEMN + 1]; /* +1 keeps the array non-zero-length */
static i64 fuel = %dLL;
static val args_v[64];
static int args_n;

static u64 dbits(double x) { u64 b; memcpy(&b, &x, 8); return b; }
static double fbits(u64 b) { double x; memcpy(&x, &b, 8); return x; }

static val vundef(void) { val v; memset(&v, 0, sizeof v); return v; }
static val vint(i64 n) { val v = vundef(); v.tag = 1; v.i = n; return v; }
static val vfloat(double x) { val v = vundef(); v.tag = 2; v.f = x; return v; }
static val vbool(int b) { val v = vundef(); v.tag = 3; v.i = b ? 1 : 0; return v; }

static void ptok_sv(sv s) {
  switch (s.tag) {
  case 0: printf("u"); break;
  case 1: printf("i:%%lld", s.i); break;
  case 2: printf("f:%%016llx", dbits(s.f)); break;
  default: printf("b:%%d", s.i ? 1 : 0); break;
  }
}
static void ptok(val v) {
  if (v.tag == 4) {
    int k;
    printf("v:");
    for (k = 0; k < v.w; k++) { if (k) printf(";"); ptok_sv(v.l[k]); }
  } else { sv s; s.tag = v.tag; s.i = v.i; s.f = v.f; ptok_sv(s); }
}

static void dump_mem(void) {
  int k;
  for (k = 0; k < MEMN; k++) { printf("M %%d ", k); ptok(mem[k]); printf("\n"); }
}
/* every way out goes through fin(): dump memory as mutated so far (the
   interpreter's memory array is shared and observable after a trap
   too), then the final classification line */
static void fin(const char *cls) { dump_mem(); printf("X %%s\n", cls); exit(0); }
static void trap(void) { fin("trap"); }

/* Cinterp: decr fuel_left; if !fuel_left <= 0 then raise Out_of_fuel */
#define BURN do { if (--fuel <= 0) fin("fuel"); } while (0)

/* Value.to_int: int and bool convert, everything else traps */
static i64 to_i(val v) { if (v.tag == 1 || v.tag == 3) return v.i; trap(); return 0; }
/* Value.to_float: floats only */
static double to_fl(val v) { if (v.tag == 2) return v.f; trap(); return 0; }
/* Value.to_bool: bool, int<>0, undef reads false, float/vector trap */
static int to_b(val v) {
  if (v.tag == 3 || v.tag == 1) return v.i != 0;
  if (v.tag == 0) return 0;
  trap(); return 0;
}

static val of_sv(sv s) { val v = vundef(); v.tag = s.tag; v.i = s.i; v.f = s.f; return v; }
/* lanes are always scalar: the lowering never builds nested vectors */
static sv scal(val v) { sv s; if (v.tag == 4) trap(); s.tag = v.tag; s.i = v.i; s.f = v.f; return s; }

/* Intsem: Tint is a 63-bit two's-complement integer.  wrap63
   re-normalizes a 64-bit intermediate (sign-extend from bit 62);
   add/sub/mul go through unsigned arithmetic so the 64-bit overflow is
   defined, then renormalize.  63-bit operands can never produce the
   one int64 division UB case (INT64_MIN / -1). */
static i64 wrap63(i64 x) { return (i64)((u64)x << 1) >> 1; }
static i64 add63(i64 a, i64 b) { return wrap63((i64)((u64)a + (u64)b)); }
static i64 sub63(i64 a, i64 b) { return wrap63((i64)((u64)a - (u64)b)); }
static i64 mul63(i64 a, i64 b) { return wrap63((i64)((u64)a * (u64)b)); }
/* Intsem.of_float: NaN and out-of-64-bit-range convert to 0, otherwise
   truncate toward zero and renormalize to 63 bits */
static i64 f2i63(double x) {
  if (x != x) return 0;
  if (x >= 9223372036854775808.0 || x < -9223372036854775808.0) return 0;
  return wrap63((i64)x);
}
/* Intsem.fmin/fmax = OCaml Float.min/max (NOT C fmin/fmax): a NaN
   argument comes back as-is, fmin prefers -0., fmax prefers +0. */
static double fgv_fmin(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return (y != y) ? y : x;
  return (x != x) ? x : y;
}
static double fgv_fmax(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return (x != x) ? x : y;
  return (y != y) ? y : x;
}

/* Interp.apply_binop: undef operands make the result undef; division
   checks the divisor (converting it first, so a float divisor traps)
   before looking at the dividend; Band/Bor short-circuit like OCaml's
   && and ||. */
static val b_add(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vint(add63(to_i(a), to_i(b))); }
static val b_sub(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vint(sub63(to_i(a), to_i(b))); }
static val b_mul(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vint(mul63(to_i(a), to_i(b))); }
static val b_div(val a, val b) {
  if (!a.tag || !b.tag) return vundef();
  { i64 d = to_i(b); if (d == 0) trap(); return vint(to_i(a) / d); }
}
static val b_rem(val a, val b) {
  if (!a.tag || !b.tag) return vundef();
  { i64 d = to_i(b); if (d == 0) trap(); return vint(to_i(a) %% d); }
}
static val b_fadd(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vfloat(to_fl(a) + to_fl(b)); }
static val b_fsub(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vfloat(to_fl(a) - to_fl(b)); }
static val b_fmul(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vfloat(to_fl(a) * to_fl(b)); }
static val b_fdiv(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vfloat(to_fl(a) / to_fl(b)); }
static val b_fmin(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vfloat(fgv_fmin(to_fl(a), to_fl(b))); }
static val b_fmax(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vfloat(fgv_fmax(to_fl(a), to_fl(b))); }
static val b_and(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_b(a) && to_b(b)); }
static val b_or(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_b(a) || to_b(b)); }

/* Interp.apply_cmp */
static val c_eq(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_i(a) == to_i(b)); }
static val c_ne(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_i(a) != to_i(b)); }
static val c_lt(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_i(a) < to_i(b)); }
static val c_le(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_i(a) <= to_i(b)); }
static val c_gt(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_i(a) > to_i(b)); }
static val c_ge(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_i(a) >= to_i(b)); }
static val c_feq(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_fl(a) == to_fl(b)); }
static val c_fne(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_fl(a) != to_fl(b)); }
static val c_flt(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_fl(a) < to_fl(b)); }
static val c_fle(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_fl(a) <= to_fl(b)); }
static val c_fgt(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_fl(a) > to_fl(b)); }
static val c_fge(val a, val b) { if (!a.tag || !b.tag) return vundef(); return vbool(to_fl(a) >= to_fl(b)); }

/* Interp.lanewise2: scalars broadcast against vectors; widths must
   match vector-vs-vector */
typedef val (*op2)(val, val);
static val lanewise2(op2 op, val a, val b) {
  int k;
  if (a.tag == 4 && b.tag == 4) {
    val r;
    if (a.w != b.w) trap();
    r = a;
    for (k = 0; k < a.w; k++) r.l[k] = scal(op(of_sv(a.l[k]), of_sv(b.l[k])));
    return r;
  }
  if (a.tag == 4) { val r = a; for (k = 0; k < a.w; k++) r.l[k] = scal(op(of_sv(a.l[k]), b)); return r; }
  if (b.tag == 4) { val r = b; for (k = 0; k < b.w; k++) r.l[k] = scal(op(a, of_sv(b.l[k]))); return r; }
  return op(a, b);
}

/* Cinterp KCast: undef stays undef, vectors cast lanewise */
static val cast_f(val v) {
  if (v.tag == 0) return vundef();
  if (v.tag == 4) { int k; val r = v; for (k = 0; k < v.w; k++) r.l[k] = scal(cast_f(of_sv(v.l[k]))); return r; }
  return vfloat((double)to_i(v));
}
static val cast_i(val v) {
  if (v.tag == 0) return vundef();
  if (v.tag == 4) { int k; val r = v; for (k = 0; k < v.w; k++) r.l[k] = scal(cast_i(of_sv(v.l[k]))); return r; }
  return vint(f2i63(to_fl(v)));
}
static val cast_b(val v) {
  if (v.tag == 0) return vundef();
  if (v.tag == 4) { int k; val r = v; for (k = 0; k < v.w; k++) r.l[k] = scal(cast_b(of_sv(v.l[k]))); return r; }
  return vbool(to_b(v));
}
static val cast_bad(val v) { if (v.tag == 0) return vundef(); trap(); return vundef(); }

/* Cinterp KSelect: a vector condition picks lanewise (scalar arms
   broadcast); a scalar condition picks a whole arm */
static val pick(val src, int k) {
  if (src.tag == 4) { if (k >= src.w) trap(); return of_sv(src.l[k]); }
  return src;
}
static val do_select(val c, val a, val b) {
  if (c.tag == 4) {
    int k;
    val r = c;
    for (k = 0; k < c.w; k++)
      r.l[k] = scal(to_b(of_sv(c.l[k])) ? pick(a, k) : pick(b, k));
    return r;
  }
  return to_b(c) ? a : b;
}

/* Cinterp KLoad/KStore: an undef address is its own outcome class; the
   address converts with Value.to_int (so float/vector addresses trap);
   vector accesses bounds-check both ends */
static void chk(i64 a) { if (a < 0 || a >= MEMN) trap(); }
static val load_s(val a) {
  if (a.tag == 0) fin("undef load");
  { i64 t = to_i(a); chk(t); return mem[t]; }
}
static val load_v(val a, int n) {
  if (a.tag == 0) fin("undef load");
  { i64 t = to_i(a); int k; val r = vundef();
    chk(t); chk(t + n - 1);
    r.tag = 4; r.w = n;
    for (k = 0; k < n; k++) r.l[k] = scal(mem[t + k]);
    return r; }
}
static val do_store(val a, val x) {
  if (a.tag == 0) fin("undef store");
  { i64 t = to_i(a);
    if (x.tag == 4) {
      int k;
      chk(t); chk(t + x.w - 1);
      for (k = 0; k < x.w; k++) mem[t + k] = of_sv(x.l[k]);
    } else { chk(t); mem[t] = x; }
    return vundef(); }
}

static val splat(int n, val a) {
  int k; val r = vundef();
  r.tag = 4; r.w = n;
  for (k = 0; k < n; k++) r.l[k] = scal(a);
  return r;
}
static val extract(val a, int k) {
  if (a.tag == 4 && k < a.w) return of_sv(a.l[k]);
  if (a.tag == 0) return vundef();
  trap(); return vundef();
}

/* Cinterp KArg: a missing argument traps */
static val arg_get(int n) { if (n < 0 || n >= args_n) trap(); return args_v[n]; }

/* Interp.default_ffi, transliterated.  The trace line for an impure
   call is printed before its body runs, matching the interpreter's
   trace-then-call order. */
static val ff_cold_func(void) {
  if (MEMN > 0) mem[0] = vfloat(42.0);
  return vint(0);
}
static val opaque_cell(i64 t) {
  switch (mem[t].tag) {
  case 2: return vfloat(mem[t].f);
  case 1: return vfloat((double)mem[t].i);
  case 3: return vfloat(mem[t].i ? 1.0 : 0.0);
  default: return vfloat(0.0);
  }
}
static val ff_opaque_read(val a) {
  i64 t;
  if (MEMN == 0) return vfloat(0.0);
  t = to_i(a);
  t = ((t %% MEMN) + MEMN) %% MEMN;
  return opaque_cell(t);
}
static val ff_opaque_touch(val a) {
  if (MEMN > 0) {
    i64 t = to_i(a);
    t = ((t %% MEMN) + MEMN) %% MEMN;
    mem[t] = vfloat(7.0);
  }
  return vint(0);
}

static val parse_tok(const char *s) {
  if (!strcmp(s, "u")) return vundef();
  if (s[0] == 'i' && s[1] == ':') return vint(strtoll(s + 2, 0, 10));
  if (s[0] == 'f' && s[1] == ':') return vfloat(fbits(strtoull(s + 2, 0, 16)));
  if (s[0] == 'b' && s[1] == ':') return vbool(s[2] == '1');
  fprintf(stderr, "bad argument token: %%s\n", s);
  exit(3);
}
|c}
    memn maxw fuel

let binop_helper (op : Ir.binop) =
  match op with
  | Ir.Add -> "b_add"
  | Ir.Sub -> "b_sub"
  | Ir.Mul -> "b_mul"
  | Ir.Div -> "b_div"
  | Ir.Rem -> "b_rem"
  | Ir.Fadd -> "b_fadd"
  | Ir.Fsub -> "b_fsub"
  | Ir.Fmul -> "b_fmul"
  | Ir.Fdiv -> "b_fdiv"
  | Ir.Fmin -> "b_fmin"
  | Ir.Fmax -> "b_fmax"
  | Ir.Band -> "b_and"
  | Ir.Bor -> "b_or"

let cmp_helper (op : Ir.cmpop) =
  match op with
  | Ir.Eq -> "c_eq"
  | Ir.Ne -> "c_ne"
  | Ir.Lt -> "c_lt"
  | Ir.Le -> "c_le"
  | Ir.Gt -> "c_gt"
  | Ir.Ge -> "c_ge"
  | Ir.Feq -> "c_feq"
  | Ir.Fne -> "c_fne"
  | Ir.Flt -> "c_flt"
  | Ir.Fle -> "c_fle"
  | Ir.Fgt -> "c_fgt"
  | Ir.Fge -> "c_fge"

(* Known FFI entry points (Interp.default_ffi); anything else traps like
   the interpreter's "unknown external function". *)
let checked_call buf r callee (cargs : C.cvalue list) =
  let arg0 () =
    match cargs with
    | a :: _ -> Some (Printf.sprintf "v%d" a)
    | [] -> None
  in
  match callee, arg0 () with
  | "sqrt", Some a -> bpf buf "  %s = vfloat(sqrt(to_fl(%s)));\n" r a
  | "fabs", Some a -> bpf buf "  %s = vfloat(fabs(to_fl(%s)));\n" r a
  | "exp", Some a -> bpf buf "  %s = vfloat(exp(to_fl(%s)));\n" r a
  | "cold_func", _ -> bpf buf "  %s = ff_cold_func();\n" r
  | "opaque_read", Some a -> bpf buf "  %s = ff_opaque_read(%s);\n" r a
  | "opaque_touch", Some a -> bpf buf "  %s = ff_opaque_touch(%s);\n" r a
  | _ ->
    (* unknown callee, or a unary builtin called with no arguments (the
       interpreter crashes on List.hd there; valid IR never does it) *)
    bpf buf "  trap(); /* unknown call %s */\n" callee

let emit_checked_inst buf _info (i : C.cinst) =
  let r = Printf.sprintf "v%d" i.C.cid in
  let v n = Printf.sprintf "v%d" n in
  bpf buf "  BURN;\n";
  match i.C.ck with
  | C.KConst (Ir.Cint n) -> bpf buf "  %s = vint(%dLL);\n" r n
  | C.KConst (Ir.Cfloat x) ->
    bpf buf "  %s = vfloat(fbits(" r;
    add_hexbits buf x;
    Buffer.add_string buf "));\n"
  | C.KConst (Ir.Cbool b) -> bpf buf "  %s = vbool(%d);\n" r (if b then 1 else 0)
  | C.KConst (Ir.Cundef _) -> bpf buf "  %s = vundef();\n" r
  | C.KArg n -> bpf buf "  %s = arg_get(%d);\n" r n
  | C.KBinop (op, a, b) ->
    bpf buf "  %s = lanewise2(%s, %s, %s);\n" r (binop_helper op) (v a) (v b)
  | C.KCmp (op, a, b) ->
    bpf buf "  %s = lanewise2(%s, %s, %s);\n" r (cmp_helper op) (v a) (v b)
  | C.KCast (t, a) ->
    let h =
      match t with
      | Ir.Tfloat | Ir.Tvec (Ir.Tfloat, _) -> "cast_f"
      | Ir.Tint | Ir.Tvec (Ir.Tint, _) -> "cast_i"
      | Ir.Tbool | Ir.Tvec (Ir.Tbool, _) -> "cast_b"
      | _ -> "cast_bad"
    in
    bpf buf "  %s = %s(%s);\n" r h (v a)
  | C.KNot a -> bpf buf "  %s = vbool(!to_b(%s));\n" r (v a)
  | C.KSelect (c, a, b) ->
    bpf buf "  %s = do_select(%s, %s, %s);\n" r (v c) (v a) (v b)
  | C.KPhi _ -> bpf buf "  /* %s: phi, set on the incoming edge */\n" r
  | C.KLoad a -> (
    match i.C.cty with
    | Ir.Tvec (_, n) -> bpf buf "  %s = load_v(%s, %d);\n" r (v a) n
    | _ -> bpf buf "  %s = load_s(%s);\n" r (v a))
  | C.KStore (a, x) -> bpf buf "  %s = do_store(%s, %s);\n" r (v a) (v x)
  | C.KCall (callee, cargs, eff) ->
    if eff = Ir.Impure then begin
      bpf buf "  printf(\"C %s\");" callee;
      List.iter (fun a -> bpf buf " printf(\" \"); ptok(%s);" (v a)) cargs;
      bpf buf " printf(\"\\n\");\n"
    end;
    checked_call buf r callee cargs
  | C.KSplat a -> (
    match i.C.cty with
    | Ir.Tvec (_, n) -> bpf buf "  %s = splat(%d, %s);\n" r n (v a)
    | _ -> bpf buf "  trap(); /* splat with non-vector type */\n")
  | C.KVecbuild vs ->
    let n = List.length vs in
    bpf buf "  { val r_ = vundef(); r_.tag = 4; r_.w = %d;" n;
    List.iteri (fun k x -> bpf buf " r_.l[%d] = scal(%s);" k (v x)) vs;
    bpf buf " %s = r_; }\n" r
  | C.KExtract (a, k) -> bpf buf "  %s = extract(%s, %d);\n" r (v a) k

(* Phi-elimination: when control transfers from [from_bid] to [to_bid],
   copy each phi's incoming value for that edge, in the successor's
   instruction order (the same order Cinterp evaluates the phis, so
   phi-reads-phi chains behave identically).  An edge with no incoming
   entry traps, as the interpreter's assoc lookup does. *)
let emit_phi_copies buf _info ~indent ~from_bid ~(to_block : C.block) =
  List.iter
    (fun (i : C.cinst) ->
      match i.C.ck with
      | C.KPhi ops -> (
        match List.assoc_opt from_bid ops with
        | Some src -> bpf buf "%sv%d = v%d;\n" indent i.C.cid src
        | None ->
          bpf buf "%strap(); /* phi v%d: no incoming for b%d */\n" indent
            i.C.cid from_bid)
      | _ -> ())
    to_block.C.insts

let emit_checked_block buf info (p : C.prog) (b : C.block) =
  bpf buf "B%d:\n" b.C.bid;
  List.iter (emit_checked_inst buf info) b.C.insts;
  match b.C.term with
  | C.Br d ->
    emit_phi_copies buf info ~indent:"  " ~from_bid:b.C.bid
      ~to_block:(C.block p d);
    bpf buf "  goto B%d;\n" d
  | C.CondBr (c, t, e) ->
    bpf buf "  if (to_b(v%d)) {\n" c;
    emit_phi_copies buf info ~indent:"    " ~from_bid:b.C.bid
      ~to_block:(C.block p t);
    bpf buf "    goto B%d;\n  } else {\n" t;
    emit_phi_copies buf info ~indent:"    " ~from_bid:b.C.bid
      ~to_block:(C.block p e);
    bpf buf "    goto B%d;\n  }\n" e
  | C.Ret -> bpf buf "  return;\n"

(* The memory image is written once, straight into the file's buffer:
   one line per non-undef cell. *)
let emit_mem_init_checked buf (mem : Value.t array) =
  let add_int = Fgv_support.Textbuf.add_int in
  let cell k ctor =
    Buffer.add_string buf "  mem[";
    add_int buf k;
    Buffer.add_string buf "] = ";
    Buffer.add_string buf ctor
  in
  Buffer.add_string buf "static void init_mem(void) {\n";
  Array.iteri
    (fun k (v : Value.t) ->
      match v with
      | Value.VInt n ->
        cell k "vint(";
        add_int buf n;
        Buffer.add_string buf "LL);\n"
      | Value.VFloat x ->
        cell k "vfloat(fbits(";
        add_hexbits buf x;
        Buffer.add_string buf "));\n"
      | Value.VBool b -> cell k (if b then "vbool(1);\n" else "vbool(0);\n")
      | Value.VUndef -> () (* zero-initialized = undef *)
      | Value.VVec _ -> invalid_arg "Emit.checked: vector heap cell")
    mem;
  Buffer.add_string buf "}\n\n"

let checked ?(fuel = 100_000_000) (p : C.prog) ~(mem : Value.t array) : string =
  let info = analyze p in
  (* room for the memory image too (~40 bytes a cell) *)
  let buf = Buffer.create (16384 + (40 * Array.length mem)) in
  Buffer.add_string buf
    (checked_prelude ~memn:(Array.length mem) ~maxw:info.max_width ~fuel);
  bpf buf "\n/* === %s === */\n\n" p.C.pname;
  (* all SSA values are file-scope statics: zero-initialized, i.e. undef,
     which is exactly Cinterp's lookup default for never-written ids *)
  List.iter (fun v -> bpf buf "static val v%d;\n" v) info.decls;
  bpf buf "\n";
  emit_mem_init_checked buf mem;
  bpf buf "static void run(void) {\n  goto B%d;\n" p.C.entry;
  List.iter (fun b -> emit_checked_block buf info p b) info.order;
  bpf buf "}\n\n";
  Buffer.add_string buf
    {c|int main(int argc, char **argv) {
  int k;
  args_n = argc - 1;
  if (args_n > 64) args_n = 64;
  for (k = 0; k < args_n; k++) args_v[k] = parse_tok(argv[k + 1]);
  init_mem();
  run();
  fin("ok");
  return 0;
}
|c};
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Fast mode                                                          *)
(* ------------------------------------------------------------------ *)

let fast_prelude ~memn =
  Printf.sprintf
    {c|/* generated by fgv — fast (benchmarking) mode; do not edit */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <time.h>

typedef long long i64;
typedef unsigned long long u64;

#define MEMN %d

static double mem[MEMN + 1];

/* Intsem.of_float, kept even in fast mode: float-to-int casts are the
   one operation where "whatever the hardware does" (cvttsd2si's
   0x8000000000000000 indefinite) is UB to reach through a plain C
   cast, so the pinned semantics cost nothing and keep checksums
   portable. */
static i64 wrap63(i64 x) { return (i64)((u64)x << 1) >> 1; }
static i64 f2i63(double x) {
  if (x != x) return 0;
  if (x >= 9223372036854775808.0 || x < -9223372036854775808.0) return 0;
  return wrap63((i64)x);
}
/* Intsem.fmin/fmax = OCaml Float.min/max, not C fmin/fmax */
static double fgv_fmin(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return (y != y) ? y : x;
  return (x != x) ? x : y;
}
static double fgv_fmax(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return (x != x) ? x : y;
  return (y != y) ? y : x;
}

static i64 wrap_idx(i64 t) { t %%= MEMN; if (t < 0) t += MEMN; return t; }
static double opaque_read(i64 t) { return MEMN ? mem[wrap_idx(t)] : 0.0; }
static void opaque_touch(i64 t) { if (MEMN) mem[wrap_idx(t)] = 7.0; }
static void cold_func(void) { if (MEMN) mem[0] = 42.0; }

#if defined(__GNUC__)
#define OPT_BARRIER __asm__ __volatile__("" : : "g"(mem) : "memory")
#else
static void (*volatile fgv_sink)(void);
#define OPT_BARRIER do { if (fgv_sink) fgv_sink(); } while (0)
#endif
|c}
    memn

(* C scalar type for a (scalar) IR type. *)
let fast_scalar_ty (t : Ir.ty) =
  match t with
  | Ir.Tfloat -> "double"
  | Ir.Tbool -> "int"
  | _ -> "i64"

let fast_vec_name (t : Ir.ty) (n : int) =
  let e =
    match t with Ir.Tfloat -> 'f' | Ir.Tbool -> 'b' | _ -> 'i'
  in
  Printf.sprintf "v%c%d" e n

let fast_ty (t : Ir.ty) =
  match t with
  | Ir.Tvec (e, n) -> fast_vec_name e n
  | t -> fast_scalar_ty t

(* Distinct vector (elem, width) pairs, in first-appearance order. *)
let fast_vec_types info =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (b : C.block) ->
      List.iter
        (fun (i : C.cinst) ->
          match i.C.cty with
          | Ir.Tvec (e, n) ->
            let key = fast_vec_name e n in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              out := (e, n) :: !out
            end
          | _ -> ())
        b.C.insts)
    info.order;
  List.rev !out

(* Lane accessor: vectors index their lane array, scalars broadcast. *)
let lane info v k =
  if is_vec info v then Printf.sprintf "v%d.l[%s]" v k
  else Printf.sprintf "v%d" v

let fast_binop_expr (op : Ir.binop) a b =
  match op with
  | Ir.Add | Ir.Fadd -> Printf.sprintf "%s + %s" a b
  | Ir.Sub | Ir.Fsub -> Printf.sprintf "%s - %s" a b
  | Ir.Mul | Ir.Fmul -> Printf.sprintf "%s * %s" a b
  | Ir.Div | Ir.Fdiv -> Printf.sprintf "%s / %s" a b
  | Ir.Rem -> Printf.sprintf "%s %% %s" a b
  | Ir.Fmin -> Printf.sprintf "fgv_fmin(%s, %s)" a b
  | Ir.Fmax -> Printf.sprintf "fgv_fmax(%s, %s)" a b
  | Ir.Band -> Printf.sprintf "%s && %s" a b
  | Ir.Bor -> Printf.sprintf "%s || %s" a b

let fast_cmp_expr (op : Ir.cmpop) a b =
  let s =
    match op with
    | Ir.Eq | Ir.Feq -> "=="
    | Ir.Ne | Ir.Fne -> "!="
    | Ir.Lt | Ir.Flt -> "<"
    | Ir.Le | Ir.Fle -> "<="
    | Ir.Gt | Ir.Fgt -> ">"
    | Ir.Ge | Ir.Fge -> ">="
  in
  Printf.sprintf "%s %s %s" a s b

(* A finite double as an exact C literal (hex floats are exact); the
   non-finite cases only appear through computation, never as program
   constants, but emit something compilable anyway. *)
let fast_float_lit (x : float) =
  match Float.classify_float x with
  | Float.FP_nan -> "(0.0 / 0.0)"
  | Float.FP_infinite -> if x > 0.0 then "(1.0 / 0.0)" else "(-1.0 / 0.0)"
  | _ -> Printf.sprintf "%h" x

let fast_const_lit (c : Ir.const) (ty : Ir.ty) =
  match c with
  | Ir.Cint n -> Printf.sprintf "%dLL" n
  | Ir.Cfloat x -> fast_float_lit x
  | Ir.Cbool b -> if b then "1" else "0"
  | Ir.Cundef _ -> (
    match ty with Ir.Tfloat | Ir.Tvec (Ir.Tfloat, _) -> "0.0" | _ -> "0")

(* Emit a lane loop writing [mk k] into each lane of the result. *)
let emit_lanes buf r n mk =
  bpf buf "  { int k_; for (k_ = 0; k_ < %d; k_++) %s.l[k_] = %s; }\n" n r
    (mk "k_")

let fast_call buf _info r (i : C.cinst) callee (cargs : C.cvalue list) =
  let v n = Printf.sprintf "v%d" n in
  let ret_void = match i.C.cty with Ir.Tvoid -> true | _ -> false in
  let assign body = if ret_void then body ^ ";" else Printf.sprintf "%s = %s;" r body in
  let arg0 () = match cargs with a :: _ -> Some (v a) | [] -> None in

  match callee, arg0 () with
  | "sqrt", Some a -> bpf buf "  %s\n" (assign (Printf.sprintf "sqrt(%s)" a))
  | "fabs", Some a -> bpf buf "  %s\n" (assign (Printf.sprintf "fabs(%s)" a))
  | "exp", Some a -> bpf buf "  %s\n" (assign (Printf.sprintf "exp(%s)" a))
  | "cold_func", _ ->
    bpf buf "  cold_func();\n";
    if not ret_void then bpf buf "  %s = 0;\n" r
  | "opaque_read", Some a ->
    bpf buf "  %s\n" (assign (Printf.sprintf "opaque_read((i64)%s)" a))
  | "opaque_touch", Some a ->
    bpf buf "  opaque_touch((i64)%s);\n" a;
    if not ret_void then bpf buf "  %s = 0;\n" r
  | _ -> bpf buf "  abort(); /* unknown call %s */\n" callee

let emit_fast_inst buf info (i : C.cinst) =
  let r = Printf.sprintf "v%d" i.C.cid in
  let v n = Printf.sprintf "v%d" n in
  let width = ty_width i.C.cty in
  match i.C.ck with
  | C.KConst c ->
    if width > 1 then
      emit_lanes buf r width (fun _ -> fast_const_lit c i.C.cty)
    else bpf buf "  %s = %s;\n" r (fast_const_lit c i.C.cty)
  | C.KArg _ -> () (* baked in by emit_fast_args below *)
  | C.KBinop (op, a, b) ->
    if width > 1 then
      emit_lanes buf r width (fun k ->
          fast_binop_expr op (lane info a k) (lane info b k))
    else bpf buf "  %s = %s;\n" r (fast_binop_expr op (v a) (v b))
  | C.KCmp (op, a, b) ->
    if width > 1 then
      emit_lanes buf r width (fun k ->
          fast_cmp_expr op (lane info a k) (lane info b k))
    else bpf buf "  %s = %s;\n" r (fast_cmp_expr op (v a) (v b))
  | C.KCast (t, a) ->
    let cast1 src =
      match t with
      | Ir.Tfloat | Ir.Tvec (Ir.Tfloat, _) -> Printf.sprintf "(double)%s" src
      | Ir.Tint | Ir.Tvec (Ir.Tint, _) ->
        if
          (match cty info a with
          | Ir.Tfloat | Ir.Tvec (Ir.Tfloat, _) -> true
          | _ -> false)
        then Printf.sprintf "f2i63(%s)" src
        else Printf.sprintf "(i64)%s" src
      | _ -> Printf.sprintf "(%s != 0)" src
    in
    if width > 1 then emit_lanes buf r width (fun k -> cast1 (lane info a k))
    else bpf buf "  %s = %s;\n" r (cast1 (v a))
  | C.KNot a -> bpf buf "  %s = !%s;\n" r (v a)
  | C.KSelect (c, a, b) ->
    if width > 1 then
      emit_lanes buf r width (fun k ->
          Printf.sprintf "%s ? %s : %s" (lane info c k) (lane info a k)
            (lane info b k))
    else bpf buf "  %s = %s ? %s : %s;\n" r (v c) (v a) (v b)
  | C.KPhi _ -> () (* set on the incoming edge *)
  | C.KLoad a ->
    let cell addr =
      match i.C.cty with
      | Ir.Tfloat | Ir.Tvec (Ir.Tfloat, _) -> Printf.sprintf "mem[%s]" addr
      | Ir.Tbool | Ir.Tvec (Ir.Tbool, _) -> Printf.sprintf "(mem[%s] != 0)" addr
      | _ -> Printf.sprintf "(i64)mem[%s]" addr
    in
    if width > 1 then
      emit_lanes buf r width (fun k ->
          cell (Printf.sprintf "%s + %s" (v a) k))
    else bpf buf "  %s = %s;\n" r (cell (Printf.sprintf "(i64)%s" (v a)))
  | C.KStore (a, x) ->
    let xw = ty_width (cty info x) in
    if xw > 1 then
      bpf buf
        "  { int k_; for (k_ = 0; k_ < %d; k_++) mem[%s + k_] = (double)%s.l[k_]; }\n"
        xw (v a) (v x)
    else bpf buf "  mem[(i64)%s] = (double)%s;\n" (v a) (v x)
  | C.KCall (callee, cargs, _) -> fast_call buf info r i callee cargs
  | C.KSplat a -> emit_lanes buf r width (fun _ -> v a)
  | C.KVecbuild vs ->
    List.iteri (fun k x -> bpf buf "  %s.l[%d] = %s;\n" r k (v x)) vs
  | C.KExtract (a, k) ->
    if is_vec info a then bpf buf "  %s = %s.l[%d];\n" r (v a) k
    else bpf buf "  %s = %s;\n" r (v a)

let emit_fast_phi_copies buf info ~indent ~from_bid ~(to_block : C.block) =
  List.iter
    (fun (i : C.cinst) ->
      match i.C.ck with
      | C.KPhi ops -> (
        match List.assoc_opt from_bid ops with
        | Some src ->
          let w = ty_width i.C.cty in
          if w > 1 && not (is_vec info src) then
            (* scalar (usually undef) incoming into a vector phi *)
            bpf buf
              "%s{ int k_; for (k_ = 0; k_ < %d; k_++) v%d.l[k_] = v%d; }\n"
              indent w i.C.cid src
          else bpf buf "%sv%d = v%d;\n" indent i.C.cid src
        | None -> bpf buf "%sabort(); /* phi v%d: no incoming */\n" indent i.C.cid)
      | _ -> ())
    to_block.C.insts

let emit_fast_block buf info (p : C.prog) (b : C.block) =
  bpf buf "B%d:\n" b.C.bid;
  List.iter (emit_fast_inst buf info) b.C.insts;
  match b.C.term with
  | C.Br d ->
    emit_fast_phi_copies buf info ~indent:"  " ~from_bid:b.C.bid
      ~to_block:(C.block p d);
    bpf buf "  goto B%d;\n" d
  | C.CondBr (c, t, e) ->
    bpf buf "  if (v%d) {\n" c;
    emit_fast_phi_copies buf info ~indent:"    " ~from_bid:b.C.bid
      ~to_block:(C.block p t);
    bpf buf "    goto B%d;\n  } else {\n" t;
    emit_fast_phi_copies buf info ~indent:"    " ~from_bid:b.C.bid
      ~to_block:(C.block p e);
    bpf buf "    goto B%d;\n  }\n" e
  | C.Ret -> bpf buf "  return;\n"

(* Arguments are compile-time constants in fast mode: assign them once
   at the top of the kernel. *)
let emit_fast_args buf info (args : Value.t list) =
  List.iter
    (fun (b : C.block) ->
      List.iter
        (fun (i : C.cinst) ->
          match i.C.ck with
          | C.KArg n -> (
            match List.nth_opt args n with
            | Some (Value.VInt x) -> bpf buf "  v%d = %dLL;\n" i.C.cid x
            | Some (Value.VFloat x) ->
              bpf buf "  v%d = %s;\n" i.C.cid (fast_float_lit x)
            | Some (Value.VBool x) ->
              bpf buf "  v%d = %d;\n" i.C.cid (if x then 1 else 0)
            | Some _ | None -> bpf buf "  v%d = 0;\n" i.C.cid)
          | _ -> ())
        b.C.insts)
    info.order

let mem_cell_double (v : Value.t) =
  match v with
  | Value.VFloat x -> x
  | Value.VInt n -> float_of_int n
  | Value.VBool b -> if b then 1.0 else 0.0
  | _ -> 0.0

let fast (p : C.prog) ~(args : Value.t list) ~(mem : Value.t array) : string =
  let info = analyze p in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf (fast_prelude ~memn:(Array.length mem));
  bpf buf "\n/* === %s === */\n\n" p.C.pname;
  List.iter
    (fun (e, n) ->
      bpf buf "typedef struct { %s l[%d]; } %s;\n" (fast_scalar_ty e) n
        (fast_vec_name e n))
    (fast_vec_types info);
  bpf buf "\nstatic const double mem_init[MEMN + 1] = {\n";
  Array.iter (fun v -> bpf buf "  %s,\n" (fast_float_lit (mem_cell_double v))) mem;
  bpf buf "};\n\n";
  (* Tvoid values (store results and the select chains that merge them)
     get a dummy scalar slot: they carry no data but are still assigned *)
  List.iter
    (fun v ->
      let t = match cty info v with Ir.Tvoid -> Ir.Tint | t -> t in
      bpf buf "static %s v%d;\n" (fast_ty t) v)
    info.decls;
  bpf buf "\nstatic void kernel(void) {\n";
  emit_fast_args buf info args;
  bpf buf "  goto B%d;\n" p.C.entry;
  List.iter (fun b -> emit_fast_block buf info p b) info.order;
  bpf buf "}\n\n";
  Buffer.add_string buf
    {c|static void reset(void) { memcpy(mem, mem_init, sizeof mem); }
static double checksum(void) {
  int k;
  double s = 0.0;
  for (k = 0; k < MEMN; k++) s += mem[k];
  return s;
}
static double now_ns(void) {
  struct timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return (double)t.tv_sec * 1e9 + (double)t.tv_nsec;
}

int main(void) {
  i64 reps = 1, r;
  double dt = 0.0, t0, reset_ns, per;
  u64 bits;
  double sum;
  reset();
  kernel();
  sum = checksum();
  memcpy(&bits, &sum, 8);
  printf("checksum %016llx\n", bits);
  /* calibrate: double reps until the timed window is long enough to
     swamp clock granularity */
  for (;;) {
    t0 = now_ns();
    for (r = 0; r < reps; r++) { reset(); kernel(); OPT_BARRIER; }
    dt = now_ns() - t0;
    if (dt > 10e6 || reps >= (1LL << 22)) break;
    reps <<= 1;
  }
  /* measure the heap-reset cost alone so it can be subtracted */
  t0 = now_ns();
  for (r = 0; r < reps; r++) { reset(); OPT_BARRIER; }
  reset_ns = now_ns() - t0;
  per = (dt - reset_ns) / (double)reps;
  if (per < 0.1) per = 0.1;
  printf("ns %.3f\n", per);
  printf("reps %lld\n", reps);
  return 0;
}
|c};
  Buffer.contents buf
