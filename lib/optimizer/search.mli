(** The optimizer's search engine.

    Mirrors the Volcano search strategy the paper relies on: "each
    generated optimizer contains a fixed search algorithm based on
    exhaustive search for all logical transformations and
    branch-and-bound pruning when applying implementation rules"
    (Section 6.1).

    Transformation closure: starting from the input term, every
    transformation rule is applied at every node position until no new
    terms appear (or a safety bound is hit).  Terms are deduplicated
    modulo renaming of compiler temporaries ({!Restricted.alpha_canonical})
    and rewrites that would leave the tree ill-formed or change its
    visible references are discarded.  Apply-once rules (the [!]-marked
    implication rules of Section 4.2) are applied at most once along any
    derivation.

    Implementation: for each logical variant, the cheapest physical plan
    is computed bottom-up — implementation rules compete with the default
    structural implementation per node — memoized across variants (which
    share subterms, recovering the sharing of Volcano's memo groups) and
    pruned against the best complete plan found so far. *)

open Soqm_algebra
open Soqm_physical

type config = {
  max_variants : int;  (** stop expanding after this many logical variants *)
  max_size_slack : int;  (** discard terms larger than input size + slack *)
}

val default_config : config

(** One derivation step, for the Section 7 demonstrator. *)
type step = { rule : string; term : Restricted.t }

type result = {
  best_plan : Plan.t;
  best_cost : float;
  best_logical : Restricted.t;
  variants_explored : int;
  truncated : bool;  (** true when a safety bound stopped the closure *)
  derivation : step list;
      (** rule applications leading from the input to the chosen variant,
          in order; the first step's [term] is the (canonicalized) input *)
  rule_applications : (string * int) list;
      (** how many accepted rewrites each transformation rule produced
          during the closure (rules that never fired are absent); sorted
          by rule name *)
}

val saturate :
  ?config:config ->
  Soqm_vml.Schema.t ->
  Rule.transformation list ->
  Restricted.t ->
  Restricted.t list * bool
(** All logical variants reachable from the (canonicalized) term, and
    whether the closure was truncated by a bound.  Exposed for tests and
    the optimizer-scaling experiment. *)

val optimize :
  ?config:config ->
  ?inverse_links:(string * string) list ->
  Rule.opt_ctx ->
  Rule.transformation list ->
  Rule.implementation list ->
  Restricted.t ->
  result
(** Optimize a term, which must be alpha-canonical
    ({!Restricted.alpha_canonical}; the engine's plan-cache key is): the
    search deduplicates its variants in that form and does not
    canonicalize its input again.  [inverse_links] (default none) lists
    the [(class, property)] links whose inverse-link knowledge is
    declared; before the search, {!Builtin_rules.normalize} turns joins
    along them into path navigation, and its steps lead the
    [derivation]. *)

val admissible : want_refs:string list -> Restricted.t -> bool
(** A rewrite result is admissible when it is still well-formed
    ({!Restricted.well_formed}) and presents the references [want_refs]
    of the term it replaces to its consumer; shared with the memo
    engine. *)

val structural_roots : Restricted.t -> Plan.t list -> Plan.t list
(** The default structural implementation(s) of a term's root operator
    given best plans for its inputs; shared with the memo engine. *)

val implement_only :
  Rule.opt_ctx -> Rule.implementation list -> Restricted.t -> Plan.t * float
(** Best physical plan of one logical term, without any transformation
    (used as the "no optimization" baseline and by the ablation
    experiments). *)
