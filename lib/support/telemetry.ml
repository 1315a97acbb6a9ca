(* Counters, timers and scopes over the {!Obs} state.  See the interface
   for the contract; the implementation notes here are about the few
   non-obvious choices:

   - counters and timers live in separate hashtables keyed by their
     fully qualified name, so [reset] is two [Hashtbl.reset]s;
   - the scope stack is a plain list of prefixes; qualification happens
     at record time, so a counter bumped under two different scopes is
     two distinct entries;
   - isolation and merging are {!Obs.capture}/{!Obs.replay}: this
     module keeps no state of its own. *)

let qualify (st : Obs.state) name =
  match st.scopes with
  | [] -> name
  | stack -> String.concat "." (List.rev stack) ^ "." ^ name

let incr ?(by = 1) name =
  let st = Obs.cur () in
  let r = Obs.counter_ref st (qualify st name) in
  r := !r + by

let set_max name v =
  let st = Obs.cur () in
  let r = Obs.counter_ref st (qualify st name) in
  if v > !r then r := v

let get name =
  match Hashtbl.find_opt (Obs.cur ()).counters name with
  | Some r -> !r
  | None -> 0

let counters () = Obs.counters (Obs.cur ())

let record_time st qname dt =
  let t = Obs.timer_cell st qname in
  t.total <- t.total +. dt;
  t.count <- t.count + 1;
  Histogram.record t.hist dt

let time name f =
  let qname = qualify (Obs.cur ()) name in
  let start = Unix.gettimeofday () in
  match f () with
  | result ->
    record_time (Obs.cur ()) qname (Unix.gettimeofday () -. start);
    result
  | exception e ->
    record_time (Obs.cur ()) qname (Unix.gettimeofday () -. start);
    raise e

let timer_total name =
  match Hashtbl.find_opt (Obs.cur ()).timers name with
  | Some t -> t.total
  | None -> 0.0

let timers () =
  List.map
    (fun (name, (t : Obs.timer)) -> (name, t.total, t.count))
    (Obs.sorted (Obs.cur ()).timers Fun.id)

let with_scope name f =
  (* time under the *enclosing* qualification, then push for the body *)
  let st = Obs.cur () in
  let qname = qualify st name in
  let start = Unix.gettimeofday () in
  st.scopes <- name :: st.scopes;
  let finish () =
    (match st.scopes with
    | s :: rest when s == name -> st.scopes <- rest
    | _ -> () (* a reset inside the scope cleared the stack: fine *));
    record_time st qname (Unix.gettimeofday () -. start)
  in
  match f () with
  | result ->
    finish ();
    result
  | exception e ->
    finish ();
    raise e

let reset () =
  let st = Obs.cur () in
  Hashtbl.reset st.counters;
  Hashtbl.reset st.timers;
  st.scopes <- []

let snapshot () : Json.t =
  let st = Obs.cur () in
  Json.Assoc
    [
      ("counters", Assoc (List.map (fun (n, v) -> (n, Json.Int v)) (counters ())));
      ( "timers",
        Assoc
          (List.map
             (fun (n, (t : Obs.timer)) ->
               ( n,
                 Json.Assoc
                   [
                     ("total_s", Float t.total);
                     ("count", Int t.count);
                     ("histogram", Histogram.to_json t.hist);
                   ] ))
             (Obs.sorted st.timers Fun.id)) );
    ]

let capture f =
  let before = counters () in
  let result = f () in
  let after = counters () in
  let old name =
    match List.assoc_opt name before with Some v -> v | None -> 0
  in
  let delta =
    List.filter_map
      (fun (name, v) -> if v <> old name then Some (name, v - old name) else None)
      after
  in
  (result, delta)

type shard = Obs.record

let shard_counters = Obs.counters

let isolated f =
  let v, r = Obs.capture f in
  Obs.replay { r with counters = Hashtbl.create 1; timers = Hashtbl.create 1 };
  (v, r)

let report () =
  let buf = Buffer.create 256 in
  let cs = counters () and ts = timers () in
  if cs <> [] then begin
    Buffer.add_string buf "counters:\n";
    let width =
      List.fold_left (fun w (n, _) -> max w (String.length n)) 0 cs
    in
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-*s %d\n" width n v))
      cs
  end;
  if ts <> [] then begin
    Buffer.add_string buf "timers:\n";
    let width =
      List.fold_left (fun w (n, _, _) -> max w (String.length n)) 0 ts
    in
    List.iter
      (fun (n, total, count) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-*s %10.3f ms  (%d calls)\n" width n
             (total *. 1000.0) count))
      ts
  end;
  if cs = [] && ts = [] then Buffer.add_string buf "(no telemetry recorded)\n";
  Buffer.contents buf
