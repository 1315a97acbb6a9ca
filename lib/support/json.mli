(** Minimal JSON document tree and emitter, shared by every subsystem
    that writes machine-readable output: telemetry snapshots, the bench
    harness's figure documents, the fuzz campaign's failure reports, and
    the trace/remark streams.

    One emitter means one set of escaping and float-formatting rules —
    extracted from {!Telemetry}, where three near-copies used to live —
    and one strict test-side parser ([test/harness.ml]) exercises them
    all. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Serialize with proper string escaping.  [minify:false] (default)
    pretty-prints with two-space indentation; floats are emitted in a
    form every JSON parser accepts (no [nan]/[inf], no bare [.5]). *)

val to_buffer : ?minify:bool -> Buffer.t -> t -> unit
(** [to_buffer buf j] appends [to_string j] to [buf], building no
    intermediate string: the compile service writes every reply into
    one buffer it reuses. *)

val escape_string : string -> string
(** ["…"]-quoted JSON string literal with control characters escaped. *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped buf s] appends [escape_string s] to [buf] without
    building the intermediate string. *)

val float_repr : float -> string
(** The float formatting [to_string] uses: integral floats as ["3.0"]
    (["1e+17"] style from 1e17 up), NaN as ["null"], infinities as out-of-range exponents (["1e999"],
    which standard parsers read back as IEEE infinity), every other
    finite float as ["%.17g"].  Round-trip guarantee: for finite [x],
    [of_string (float_repr x) = Ok (Float x)] bit-for-bit — 17
    significant digits are sufficient for binary64, so histogram
    bucket bounds and measured durations survive emit→parse cycles
    exactly (pinned by a unit test in [test_obslog]). *)

val of_string : string -> (t, string) result
(** Strict parse of one JSON value (the full standard grammar; rejects
    trailing garbage).  Returns [Error "at <pos>: <why>"] rather than
    raising: the compile-service protocol answers malformed request
    lines with error responses.  [test/harness.ml] keeps an independent
    parser so the emitter is never validated only by its own inverse. *)

(** {1 Object accessors}

    Defaulting lookups over [Assoc] documents, for protocol decoding.
    Each returns [None] when the member exists with the wrong type;
    [default] applies only when the member is absent. *)

val member : string -> t -> t option
val string_member : ?default:string -> string -> t -> string option
val int_member : ?default:int -> string -> t -> int option
val bool_member : ?default:bool -> string -> t -> bool option
