(* Textual rendering of PSSA functions, close to the paper's notation:
   each line is "<def> = <op> ...  ; <predicate>".  Every piece is
   written straight into one [Buffer]; the string forms are wrappers. *)

open Ir

let add_int = Fgv_support.Textbuf.add_int
let add_string = Buffer.add_string
let add_char = Buffer.add_char

(* Same text as [Ir.value_name]. *)
let add_value buf f v =
  match Hashtbl.find f.arena v with
  | i when i.name <> "" ->
    add_char buf '%';
    add_string buf i.name;
    add_char buf '.';
    add_int buf v
  | _ ->
    add_string buf "%v";
    add_int buf v
  | exception Not_found ->
    add_string buf "%DEAD.";
    add_int buf v

let rec add_ty buf = function
  | Tvec (t, n) ->
    add_char buf '<';
    add_int buf n;
    add_string buf " x ";
    add_ty buf t;
    add_char buf '>'
  | t -> add_string buf (string_of_ty t)

(* Same text as [Pred.to_string (value_name f)]. *)
let rec add_pred buf f p =
  match Pred.view p with
  | Pred.Ptrue -> add_string buf "true"
  | Pred.Pfalse -> add_string buf "false"
  | Pred.Plit { v; positive } ->
    if not positive then add_char buf '!';
    add_value buf f v
  | Pred.Pand xs -> add_junction buf f " & " xs
  | Pred.Por xs -> add_junction buf f " | " xs

and add_junction buf f sep xs =
  add_char buf '(';
  List.iteri
    (fun k x ->
      if k > 0 then add_string buf sep;
      add_pred buf f x)
    xs;
  add_char buf ')'

let add_values buf f vs =
  List.iteri
    (fun k x ->
      if k > 0 then add_string buf ", ";
      add_value buf f x)
    vs

let add_const buf = function
  | Cint n -> add_int buf n
  | Cfloat x -> add_string buf (Printf.sprintf "%g" x)
  | Cbool b -> add_string buf (string_of_bool b)
  | Cundef t ->
    add_string buf "undef:";
    add_ty buf t

let add_kind buf f kind =
  let v = add_value buf f in
  let s = add_string buf in
  match kind with
  | Const c ->
    s "const ";
    add_const buf c
  | Arg n ->
    s "arg ";
    add_int buf n;
    s " (";
    (match if n < 0 then None else List.nth_opt f.params n with
    | Some (pname, _) -> s pname
    | None -> add_int buf n);
    s ")"
  | Binop (op, a, b) ->
    s (string_of_binop op);
    s " ";
    v a;
    s ", ";
    v b
  | Cmp (op, a, b) ->
    s "cmp ";
    s (string_of_cmpop op);
    s " ";
    v a;
    s ", ";
    v b
  | Cast (t, a) ->
    s "cast ";
    v a;
    s " to ";
    add_ty buf t
  | Select { cond; if_true; if_false } ->
    s "select ";
    v cond;
    s ", ";
    v if_true;
    s ", ";
    v if_false
  | Phi ops ->
    s "phi(";
    List.iteri
      (fun k (p, x) ->
        if k > 0 then s ", ";
        add_pred buf f p;
        s ": ";
        v x)
      ops;
    s ")"
  | Mu { init; recur; loop } ->
    s "mu(";
    v init;
    s ", ";
    v recur;
    s ") @L";
    add_int buf loop
  | Eta { loop; value } ->
    s "eta L";
    add_int buf loop;
    s " ";
    v value
  | Load { addr } ->
    s "load [";
    v addr;
    s "]"
  | Store { addr; value } ->
    s "store [";
    v addr;
    s "], ";
    v value
  | Call { callee; args; effect } ->
    s "call ";
    (match effect with
    | Pure -> s "pure "
    | Readonly -> s "readonly "
    | Impure -> ());
    s callee;
    s "(";
    add_values buf f args;
    s ")"
  | Splat a ->
    s "splat ";
    v a
  | Vecbuild vs ->
    s "vec(";
    add_values buf f vs;
    s ")"
  | Extract (a, n) ->
    s "extract ";
    v a;
    s ", ";
    add_int buf n

let add_inst buf f i =
  if i.ty <> Tvoid then begin
    add_value buf f i.id;
    add_string buf " = "
  end;
  add_kind buf f i.kind;
  add_string buf " ; ";
  add_pred buf f i.ipred

let with_buffer write =
  let buf = Buffer.create 64 in
  write buf;
  Buffer.contents buf

let string_of_kind f kind = with_buffer (fun buf -> add_kind buf f kind)
let string_of_inst f i = with_buffer (fun buf -> add_inst buf f i)

let add_func buf f =
  let indent depth =
    for _ = 1 to depth do
      add_string buf "  "
    done
  in
  let line depth i =
    indent depth;
    add_inst buf f (inst f i);
    add_char buf '\n'
  in
  let rec add_items depth items =
    List.iter
      (fun item ->
        match item with
        | I id -> line depth id
        | L lid ->
          let lp = loop f lid in
          indent depth;
          add_string buf "loop L";
          add_int buf lp.lid;
          add_string buf " ; ";
          add_pred buf f lp.lpred;
          add_char buf '\n';
          List.iter (line (depth + 1)) lp.mus;
          add_items (depth + 1) lp.body;
          indent depth;
          add_string buf "while ";
          add_pred buf f lp.cont;
          add_char buf '\n')
      items
  in
  add_string buf "func ";
  add_string buf f.fname;
  add_char buf '(';
  List.iteri
    (fun k (n, t) ->
      if k > 0 then add_string buf ", ";
      add_string buf n;
      add_string buf ": ";
      add_ty buf t)
    f.params;
  add_string buf ") {\n";
  add_items 1 f.fbody;
  add_string buf "}\n"

(* Sized for ~48 bytes a line, so the buffer rarely grows. *)
let to_string f =
  let buf = Buffer.create (64 + (48 * Hashtbl.length f.arena)) in
  add_func buf f;
  Buffer.contents buf

let print f = print_string (to_string f)
