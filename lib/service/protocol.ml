(* The compile-service wire protocol (DESIGN §15): newline-delimited
   JSON over stdin/stdout or a Unix socket.  One line is either

   - a compile request (a JSON object with a "source" member),
   - a batch of compile requests (a JSON array of such objects), or
   - a control operation
     ({"op": "ping" | "stats" | "metrics" | "shutdown"}; metrics takes
     an optional "format": "json" | "text").

   A request line yields one response line; a batch line yields one
   JSON-array line of responses in request order.  Responses carry {b
   no} cache metadata and no timestamps: a response served from the
   artifact cache is byte-identical to one compiled fresh — that is the
   service's determinism contract, and what lets clients diff responses
   across runs.  Cache effectiveness is observable out-of-band via
   {"op": "stats"} and the service.* telemetry counters. *)

module J = Fgv_support.Json
module Version = Fgv_support.Version

let protocol_version = Version.service_protocol

(* ------------------------------------------------------------ requests *)

(* Everything that can change the artifact is an explicit field here and
   participates in the cache key (see {!Cache.key}); [rq_id] is echo-only
   client correlation and deliberately does not. *)
type request = {
  rq_id : string;  (** echoed verbatim in the response; "" when absent *)
  rq_source : string;  (** mini-C kernel text *)
  rq_pipeline : string;  (** a {!Fgv_passes.Pipelines.registry} name, or "none" *)
  rq_no_restrict : bool;  (** compile ignoring [restrict] qualifiers *)
  rq_emit_c : bool;  (** include the checked-mode C lowering *)
  rq_heap : int;  (** heap cells baked into the emitted C memory image *)
}

let default_heap = 1024

let decode_request (j : J.t) : (request, string) result =
  match j with
  | J.Assoc _ -> (
    match J.string_member "source" j with
    | None -> Error "request needs a string \"source\" member"
    | Some source -> (
      let str key default = J.string_member ~default key j in
      let boolean key = J.bool_member ~default:false key j in
      let int_ key default = J.int_member ~default key j in
      match (str "id" "", str "pipeline" "none", boolean "no_restrict",
             boolean "emit_c", int_ "heap" default_heap)
      with
      | Some id, Some pipeline, Some no_restrict, Some emit_c, Some heap ->
        if heap < 1 || heap > 1 lsl 24 then
          Error "\"heap\" must be a positive cell count"
        else
          Ok
            {
              rq_id = id;
              rq_source = source;
              rq_pipeline = pipeline;
              rq_no_restrict = no_restrict;
              rq_emit_c = emit_c;
              rq_heap = heap;
            }
      | _ -> Error "request member has the wrong type"))
  | _ -> Error "request must be a JSON object"

let encode_request (r : request) : J.t =
  J.Assoc
    ((if r.rq_id = "" then [] else [ ("id", J.String r.rq_id) ])
    @ [
        ("source", J.String r.rq_source);
        ("pipeline", J.String r.rq_pipeline);
        ("no_restrict", J.Bool r.rq_no_restrict);
        ("emit_c", J.Bool r.rq_emit_c);
        ("heap", J.Int r.rq_heap);
      ])

(* ----------------------------------------------------------- artifacts *)

(* What a compile produces, and what the cache stores: the printed
   optimized PSSA, the optimization-remark stream the compile emitted
   (as the same flat objects [--remarks=json] prints), the checked-mode
   C when requested, and the per-compile telemetry counter snapshot
   (recorded under the compile's own capture, so it is a pure function of
   the request).  Every field is deterministic — no wall-clock anywhere
   — which is what makes cached replies byte-identical to fresh ones. *)
type artifact = {
  ar_func : string;  (** kernel name, anchors the service's remarks *)
  ar_ir : string;  (** printed optimized PSSA *)
  ar_remarks : J.t list;
  ar_c : string option;
  ar_counters : (string * int) list;
}

(* A multi-kernel source compiles each kernel as its own cacheable unit
   and answers with [Compiled_many] in source order; a single-kernel
   source keeps the historical flat encoding, so protocol 2 clients are
   byte-compatible until they send a batched translation unit. *)
type response =
  | Compiled of { id : string; artifact : artifact }
  | Compiled_many of { id : string; artifacts : artifact list }
  | Failed of { id : string; error : string }

let encode_artifact (a : artifact) : (string * J.t) list =
  [
    ("function", J.String a.ar_func);
    ("ir", J.String a.ar_ir);
    ("remarks", J.List a.ar_remarks);
  ]
  @ (match a.ar_c with None -> [] | Some c -> [ ("c", J.String c) ])
  @ [
      ( "counters",
        J.Assoc (List.map (fun (k, v) -> (k, J.Int v)) a.ar_counters) );
    ]

let encode_response (r : response) : J.t =
  match r with
  | Failed { id; error } ->
    J.Assoc
      ((if id = "" then [] else [ ("id", J.String id) ])
      @ [ ("ok", J.Bool false); ("error", J.String error) ])
  | Compiled { id; artifact = a } ->
    J.Assoc
      ((if id = "" then [] else [ ("id", J.String id) ])
      @ [ ("ok", J.Bool true) ]
      @ encode_artifact a)
  | Compiled_many { id; artifacts } ->
    J.Assoc
      ((if id = "" then [] else [ ("id", J.String id) ])
      @ [
          ("ok", J.Bool true);
          ( "functions",
            J.List (List.map (fun a -> J.Assoc (encode_artifact a)) artifacts)
          );
        ])

let response_line (r : response) : string =
  J.to_string ~minify:true (encode_response r)

(* ------------------------------------------------------------- control *)

(* The metrics snapshot is served as JSON by default; "text" asks for a
   Prometheus-style exposition (DESIGN §16) carried in the reply's
   "body" member, so the wire framing stays one JSON line either way. *)
type metrics_format = Mjson | Mtext

type control =
  | Cping
  | Cstats
  | Cmetrics of metrics_format
  | Cshutdown

let control_name = function
  | Cping -> "ping"
  | Cstats -> "stats"
  | Cmetrics _ -> "metrics"
  | Cshutdown -> "shutdown"

type line =
  | Single of request
  | Batch of request list
  | Control of control
  | Malformed of string

(* Classify one wire line.  A batch with a malformed element is rejected
   whole: answering k of n requests while silently dropping the rest
   would desynchronize the client's correlation by position. *)
let decode_line (text : string) : line =
  match J.of_string text with
  | Error e -> Malformed ("bad JSON: " ^ e)
  | Ok (J.List items) -> (
    let rec decode acc = function
      | [] -> Batch (List.rev acc)
      | item :: rest -> (
        match decode_request item with
        | Ok r -> decode (r :: acc) rest
        | Error e ->
          Malformed
            (Printf.sprintf "batch element %d: %s" (List.length acc) e))
    in
    match items with
    | [] -> Malformed "empty batch"
    | items -> decode [] items)
  | Ok j -> (
    match J.string_member "op" j with
    | Some "ping" -> Control Cping
    | Some "stats" -> Control Cstats
    | Some "metrics" -> (
      match J.string_member ~default:"json" "format" j with
      | Some "json" -> Control (Cmetrics Mjson)
      | Some "text" -> Control (Cmetrics Mtext)
      | Some f -> Malformed ("unknown metrics format " ^ f)
      | None -> Malformed "\"format\" must be a string")
    | Some "shutdown" -> Control Cshutdown
    | Some op -> Malformed ("unknown op " ^ op)
    | None -> (
      match decode_request j with
      | Ok r -> Single r
      | Error e -> Malformed e))
