(** Framework telemetry: named counters, wall-clock timers, and
    per-phase scopes.

    The registry is a per-domain singleton: passes and the versioning
    framework bump counters unconditionally (increments are a hashtable
    update, cheap next to any analysis they instrument), and entry points
    decide whether to report.  Sessions that need isolated numbers (the
    benchmark harness, golden tests) call {!reset} between runs, or use
    {!capture} to measure the counter delta of one thunk.

    Concurrency contract: every recording function touches only the
    calling domain's shard, so no operation here ever takes a lock and
    parallel tasks never contend.  A single-domain program behaves
    exactly as if the registry were process-global.  {!Pool} workers
    accumulate into their own shards and the pool folds them into the
    spawning domain's registry when the workers join ({!merge_joined}:
    counters summed, timer totals maxed across workers, timer counts
    summed), so a {!capture} wrapped around a [Pool.map] still observes
    every counter the tasks bumped.  For per-task attribution (e.g. the
    fuzz campaign's deterministic replay of a parallel prefix), wrap the
    task body in {!isolated} and re-apply the returned shards in any
    order you like with {!merge_shard}. *)

(** Deprecated alias for {!Json.t}, re-exported with constructors so
    existing [Telemetry.Assoc]-style call sites keep compiling.  New
    code should use {!Json} directly. *)
type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Assoc of (string * json) list

val json_to_string : ?minify:bool -> json -> string
(** Deprecated alias for {!Json.to_string}. *)

(** {1 Counters} *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to the named counter, creating it at zero.  The
    name is qualified by the current {!with_scope} stack. *)

val set_max : string -> int -> unit
(** Raise the named counter to [v] if it is currently lower (running
    maxima, e.g. recursion depths).  The counter's base name must start
    with ["max_"]: shard merges combine such counters by maximum rather
    than by sum, so parallel runs report the same value as sequential
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

val snapshot : unit -> json
(** The whole registry as [{"counters": {...}, "timers": {...}}], keys
    sorted; timers as [{"total_s": float, "count": int, "histogram":
    {...}}] — the histogram member is {!Histogram.to_json} of every
    duration the timer recorded, so [--stats=json] consumers get
    latency distributions for each [*.time] key without extra
    instrumentation. *)

val capture : (unit -> 'a) -> 'a * (string * int) list
(** Run the thunk and return the counter *delta* it caused (counters
    whose value changed, sorted by name).  Does not reset the registry;
    nesting captures is fine. *)

(** {1 Shards}

    A shard is an immutable snapshot of one registry — what one task or
    one pool worker recorded.  Shards are plain data and may safely
    cross domains. *)

type shard

val empty_shard : shard

val shard_is_empty : shard -> bool

val shard_counters : shard -> (string * int) list
(** The shard's counters, sorted by fully qualified name. *)

val shard_timers : shard -> (string * float * int) list
(** The shard's timers as (name, total seconds, invocations), sorted
    by fully qualified name. *)

val shard_timer_histograms : shard -> (string * Histogram.t) list
(** The per-timer latency histograms the shard captured, sorted by
    name.  The histograms are owned by the shard (copies taken when it
    was snapshotted) — callers may read or merge them freely; the
    bench harness uses this to attach per-row time distributions. *)

val shard_of_current : unit -> shard
(** Snapshot the calling domain's registry (without clearing it). *)

val isolated : (unit -> 'a) -> 'a * shard
(** Run the thunk against a fresh, empty registry and return everything
    it recorded as a shard; the calling domain's registry is untouched
    and restored afterwards (also on exceptions, in which case the
    shard is discarded and the exception re-raised). *)

val merge_shard : shard -> unit
(** Fold one shard into the calling domain's registry: counters summed
    (["max_"]-based counters combined by maximum), timer totals and
    counts summed, timer histograms merged ({!Histogram.merge_into}) —
    i.e. as if the shard's work had been recorded here sequentially.
    Use this to replay {!isolated} task shards in a deterministic
    order. *)

val merge_joined : shard list -> unit
(** Fold the shards of a parallel join into the calling domain's
    registry: counters summed (["max_"]-based counters combined by
    maximum); for each timer, the *maximum* total
    across the shards (the critical path of the slowest worker) is
    added once, while invocation counts sum and histograms merge
    across all workers (every sample is one real invocation, so the
    distribution aggregates even though the total does not).
    {!Pool.map} calls this
    with its workers' shards, so timer totals under [--jobs N]
    approximate wall-clock rather than aggregate CPU time. *)

val report : unit -> string
(** Human-readable table of counters and timers (for [--stats]). *)
