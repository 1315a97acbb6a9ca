(** Predicates of predicated SSA: [p ::= true | v | !v | p & p | p "|" v]
    over boolean SSA values, kept in a normalized structural form and
    hash-consed: within one intern generation (see {!reset}) two
    structurally equal predicates are one physical value, so {!equal}
    answers by physical equality and the connectives and {!implies} are
    memoized on intern ids.

    Concurrency: intern and memo tables are per-domain ([Domain.DLS]);
    predicates must not cross domains (except {!tru}/{!fls}, which are
    shared constants). *)

type value_id = int

type t
(** An interned predicate.  Abstract: inspect with {!view}. *)

(** The shape of a predicate, one level deep.  [Pand]/[Por] children are
    themselves interned, >= 2 elements, sorted by {!compare_t}, with no
    nested conjunction/disjunction of the same kind. *)
type view =
  | Ptrue
  | Pfalse
  | Plit of { v : value_id; positive : bool }
  | Pand of t list
  | Por of t list

val view : t -> view

val id : t -> int
(** The intern id: unique per domain for the domain's lifetime (ids are
    not reused across {!reset} generations).  Ids depend on construction
    history — never use them for deterministic ordering or output. *)

val tru : t
val fls : t

val lit : ?positive:bool -> value_id -> t
(** Literal over a boolean SSA value. *)

val and_ : t -> t -> t
val and_list : t list -> t
val or_ : t -> t -> t
val or_list : t list -> t

val not_ : t -> t
(** Negation (De Morgan over the structure). *)

val equal : t -> t -> bool
(** Structural equality; physical equality on the fast path (complete
    within one intern generation). *)

val compare_t : t -> t -> int
(** Structural total order — stable across runs and generations; the
    order normal forms are sorted in.  Use this wherever the order is
    observable (output, golden counters). *)

val compare : t -> t -> int
(** Intern-id order: a fast arbitrary total order, consistent with
    {!equal} only within one generation and dependent on construction
    history.  For ephemeral intra-compile structures only. *)

val implies : t -> t -> bool
(** Sound, incomplete implication: [implies p q] true means p entails q.
    Complete for conjunctions of literals.  Memoized. *)

val literals : t -> value_id list
(** Boolean SSA values mentioned, sorted, unique.  Memoized. *)

val exists_literal : (value_id -> bool) -> t -> bool
(** [exists_literal f p]: does [f] hold for some value [p] mentions?
    Allocation-free. *)

val eval : (value_id -> bool) -> t -> bool

val rename : (value_id -> value_id) -> t -> t
(** Rename the underlying SSA values (re-normalizes). *)

val to_string : (value_id -> string) -> t -> string

val reset : unit -> unit
(** Start a fresh intern generation on the calling domain: drop the
    intern and memo tables (the id counter survives, so stale predicates
    stay harmless).  Called at the start of every compile so per-compile
    telemetry ([pred.hashcons_hits]/[pred.hashcons_misses]) and table
    footprints are deterministic regardless of what the domain ran
    before. *)
