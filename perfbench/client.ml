(* A real compile service: an [fgvc --serve --socket] child process,
   reached from this process over one Unix-socket connection.  The
   child runs with OCAMLRUNPARAM=v=0x400, so on exit it reports its own
   allocation and heap figures on stderr; those are the service-side
   numbers, untouched by anything this client does. *)

type t = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  err_file : string;
}

(* The GC exit report, as printed by the OCaml runtime. *)
type gc_report = {
  allocated_words : float;
  minor_collections : float;
  major_collections : float;
  top_heap_words : float;
}

let connect_retry (path : string) ~(deadline : float) : Unix.file_descr =
  let rec go () =
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect s (Unix.ADDR_UNIX path) with
    | () -> s
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close s;
      Unix.sleepf 0.0005;
      go ()
    | exception e ->
      Unix.close s;
      raise e
  in
  go ()

let environment () =
  let keep =
    List.filter
      (fun kv -> not (String.length kv >= 13 && String.sub kv 0 13 = "OCAMLRUNPARAM"))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list ("OCAMLRUNPARAM=v=0x400" :: keep)

(* Start the service and connect to it.  The socket path is relative
   and fixed, so the child's own work does not depend on where the
   checkout lives. *)
let start ~(fgvc : string) ~(work : string) : t =
  let path = Filename.concat work "svc.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let err_file = Filename.concat work "svc.err" in
  let err_fd =
    Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close err_fd; Unix.close null)
      (fun () ->
        Unix.create_process_env fgvc
          [| fgvc; "--serve"; "--socket"; path; "--jobs"; "1" |]
          (environment ()) null null err_fd)
  in
  let sock =
    try connect_retry path ~deadline:(Unix.gettimeofday () +. 30.0)
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e
  in
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 120.0;
  {
    pid;
    ic = Unix.in_channel_of_descr sock;
    oc = Unix.out_channel_of_descr sock;
    err_file;
  }

(* One closed-loop exchange: send a line, wait for its reply line. *)
let round_trip (t : t) (line : string) : string =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  input_line t.ic

let parse_gc_report (text : string) : gc_report option =
  let field name =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.sub l 0 i = name ->
          float_of_string_opt
            (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  match
    ( field "allocated_words",
      field "minor_collections",
      field "major_collections",
      field "top_heap_words" )
  with
  | Some a, Some mi, Some ma, Some th ->
    Some
      { allocated_words = a; minor_collections = mi; major_collections = ma;
        top_heap_words = th }
  | _ -> None

(* Ask the service to shut down, reap it, and read its GC report. *)
let stop (t : t) : gc_report option =
  (try ignore (round_trip t {|{"op":"shutdown"}|}) with _ -> ());
  (try close_in t.ic with Sys_error _ -> ());
  match Unix.waitpid [] t.pid with
  | _, Unix.WEXITED 0 -> parse_gc_report (Fgv_support.Proc.read_file t.err_file)
  | _ -> None

(* Last resort on an error path: never leave the child behind. *)
let kill (t : t) =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try close_in t.ic with Sys_error _ -> ());
  try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()
