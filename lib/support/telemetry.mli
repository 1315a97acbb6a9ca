(** Framework telemetry: named counters, wall-clock timers, and
    per-phase scopes — a view onto the {!Obs} state.

    Passes and the versioning framework bump counters unconditionally
    (increments are a hashtable update, cheap next to any analysis they
    instrument), and entry points decide whether to report.  Sessions
    that need isolated numbers (the benchmark harness, golden tests)
    call {!reset} between runs, or use {!capture} to measure the
    counter delta of one thunk.

    Concurrency contract: every recording function touches only the
    calling domain's {!Obs} state, so no operation here ever takes a
    lock and parallel tasks never contend.  A single-domain program
    behaves exactly as if the registry were process-global.  {!Pool}
    captures each task ({!Obs.capture}) and replays the records in
    input order at the join ({!Obs.replay}), so a {!capture} wrapped
    around a [Pool.map] observes every counter the tasks bumped, and
    timer totals are the sum of the tasks' durations at any job
    count. *)

(** {1 Counters} *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to the named counter, creating it at zero.  The
    name is qualified by the current {!with_scope} stack. *)

val set_max : string -> int -> unit
(** Raise the named counter to [v] if it is currently lower (running
    maxima, e.g. recursion depths).  The counter's base name must start
    with ["max_"]: {!Obs.replay} combines such counters by maximum
    rather than by sum, so parallel runs report the same value as sequential
    ones. *)

val get : string -> int
(** Current value (0 if never bumped).  The name is taken as already
    fully qualified; scopes do not apply. *)

val counters : unit -> (string * int) list
(** All counters with their fully qualified names, sorted by name. *)

(** {1 Timers} *)

val time : string -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating its wall-clock duration (and an
    invocation count) into the named timer.  Re-raises exceptions but
    still records the elapsed time.  Scope-qualified like {!incr}. *)

val timer_total : string -> float
(** Accumulated seconds (0. if never run); fully qualified name. *)

val timers : unit -> (string * float * int) list
(** All timers as (name, total seconds, invocations), sorted by name. *)

(** {1 Scopes} *)

val with_scope : string -> (unit -> 'a) -> 'a
(** Qualify every counter and timer recorded inside the thunk with
    ["scope."]; scopes nest ("a.b.counter").  The scope's own wall-clock
    time accumulates into a timer named after the scope. *)

(** {1 Snapshots} *)

val reset : unit -> unit
(** Drop every counter, timer, and open-scope qualifier: the next
    session starts from an empty registry. *)

val snapshot : unit -> Json.t
(** The whole registry as [{"counters": {...}, "timers": {...}}], keys
    sorted; timers as [{"total_s": float, "count": int, "histogram":
    {...}}] — the histogram member is {!Histogram.to_json} of every
    duration the timer recorded, so [--stats=json] consumers get
    latency distributions for each [*.time] key without extra
    instrumentation. *)

val capture : (unit -> 'a) -> 'a * (string * int) list
(** Run the thunk and return the counter *delta* it caused (counters
    whose value changed, sorted by name).  Unlike {!Obs.capture} it
    diverts nothing: the thunk records into the registry as usual, and
    nesting is fine. *)

(** {1 Isolation}

    New code isolates with {!Obs.capture} and {!Obs.replay}; these two
    names are kept for the benchmark harness under [perfbench/]. *)

type shard = Obs.record

val shard_counters : shard -> (string * int) list
(** The shard's counters, sorted by fully qualified name. *)

val isolated : (unit -> 'a) -> 'a * shard
(** Run the thunk with its counters and timers diverted into the
    returned shard; its spans and remarks still reach the caller.  It is
    {!Obs.capture} followed by replaying the record minus its counters
    and timers.  On an exception everything the thunk recorded is
    dropped and the exception re-raised. *)

val report : unit -> string
(** Human-readable table of counters and timers (for [--stats]). *)
