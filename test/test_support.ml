(* Tests for the support utilities. *)

module DS = Fgv_support.Disjoint_set
module Stats = Fgv_support.Stats
module Table = Fgv_support.Table
module Digraph = Fgv_graph.Digraph

let test_disjoint_set () =
  let d = DS.create 8 in
  DS.union d 0 1;
  DS.union d 2 3;
  DS.union d 1 3;
  Alcotest.(check bool) "0 ~ 3" true (DS.same d 0 3);
  Alcotest.(check bool) "0 !~ 4" false (DS.same d 0 4);
  let groups = DS.groups d in
  Alcotest.(check bool) "one group of four" true
    (List.exists (fun g -> List.sort compare g = [ 0; 1; 2; 3 ]) groups);
  Alcotest.(check int) "five groups" 5 (List.length groups)

let test_stats () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "speedup" 2.0 (Stats.speedup ~base:4.0 ~opt:2.0)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> l = "name   value" || String.length l > 0) lines);
  (* right alignment of the numeric column *)
  Alcotest.(check bool) "aligned" true
    (List.exists
       (fun l -> l <> "" && l.[String.length l - 1] = '1')
       (String.split_on_char '\n' s))

let test_digraph_reachability () =
  let g = Digraph.create 5 in
  Digraph.add_edge g ~src:0 ~dst:1;
  Digraph.add_edge g ~src:1 ~dst:2;
  Digraph.add_edge g ~src:3 ~dst:4;
  let r = Digraph.reachable g [ 0 ] in
  Alcotest.(check bool) "0 reaches 2" true r.(2);
  Alcotest.(check bool) "0 does not reach 4" false r.(4);
  let co = Digraph.co_reachable g [ 2 ] in
  Alcotest.(check bool) "0 co-reaches 2" true co.(0);
  let order = Digraph.topological_sort g in
  let pos x = Option.get (List.find_index (fun y -> y = x) order) in
  Alcotest.(check bool) "topo order" true (pos 0 < pos 1 && pos 1 < pos 2)

let test_digraph_cycle () =
  let g = Digraph.create 2 in
  Digraph.add_edge g ~src:0 ~dst:1;
  Digraph.add_edge g ~src:1 ~dst:0;
  match Digraph.topological_sort g with
  | exception Digraph.Cycle _ -> ()
  | _ -> Alcotest.fail "expected cycle detection"

(* [Json.escape_string] as it was before it wrote into the caller's
   buffer: the byte-for-byte reference for [add_escaped]. *)
let ref_escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let test_json_escape_in_place () =
  let module J = Fgv_support.Json in
  let controls = String.init 0x20 Char.chr in
  let strings =
    [ ""; "plain"; controls; "\"\\\""; "a\"b\\c\nd"; "\x7f\xc3\xa9 tail" ]
    @ List.init 0x20 (fun c -> Printf.sprintf "x%cy" (Char.chr c))
  in
  List.iter
    (fun s ->
      let expected = ref_escape s in
      Alcotest.(check string) "escape_string" expected (J.escape_string s);
      let buf = Buffer.create 4 in
      Buffer.add_string buf "prefix:";
      J.add_escaped buf s;
      Alcotest.(check string) "add_escaped appends" ("prefix:" ^ expected)
        (Buffer.contents buf);
      Alcotest.(check string) "in documents"
        ("{" ^ expected ^ ":" ^ expected ^ "}")
        (J.to_string ~minify:true (J.Assoc [ (s, J.String s) ]));
      match Harness.parse_json (J.escape_string s) with
      | J.String back -> Alcotest.(check string) "round-trips" s back
      | _ -> Alcotest.fail "not a string")
    strings

let suite =
  [
    Alcotest.test_case "disjoint set" `Quick test_disjoint_set;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "digraph reachability" `Quick test_digraph_reachability;
    Alcotest.test_case "digraph cycle detection" `Quick test_digraph_cycle;
    Alcotest.test_case "json: in-place escaping" `Quick test_json_escape_in_place;
  ]
