(** The predefined rule set (Section 6.1): "on the one hand many
    well-known rules from relational query optimization, e.g.
    associativity and commutativity of join or interchangeability of
    selection and join.  On the other hand, there are rules that involve
    the new operators, in particular map_property, map_method,
    flat_property and flat_method."

    The generic reorderings are native rules (one pattern per operator
    pair would be noise); Example 8 — transformation of path expressions,
    which are implicit joins, into explicit joins — is here too. *)

val commute_unary : Rule.transformation
(** Swap two adjacent unary operators (selects and the map/flat family)
    when neither uses the reference the other produces.  Subsumes
    interchange of selection with the new operators and select-cascade
    reordering. *)

val select_join_interchange : Rule.transformation
(** Push a selection into the join input that supplies all its operand
    references, and pull one back out — interchangeability of selection
    and join. *)

val select_project_interchange : Rule.transformation
(** Move a selection through a projection (both directions, when the
    selection's operands survive the projection). *)

val select_cross_to_join : Rule.transformation
(** [select<a θ b>(cross(S1, S2))] → [join<a θ b>(S1, S2)] when the two
    operands come from different sides (one direction: dissolving joins
    back into products only inflates the search space). *)

val join_commute : Rule.transformation
(** Commutativity of [cross], [join<θ>] and [natural_join]. *)

val join_associate : Rule.transformation
(** Associativity of [cross] (both directions). *)

val path_to_join : Rule.transformation
(** Example 8: two stacked [map_property] steps (an implicit join along a
    path) become an explicit join with a scan of the target class. *)

val natjoin_to_cascade : Rule.transformation
(** [natural_join(C1(Z), C2(Z))] of two operator chains over the same
    base is a semijoin on [Ref(Z)] and equals the cascade [C1(C2(Z))];
    turns the conjunctions introduced by implication rules into
    orderable predicate cascades. *)

val natjoin_idempotent : Rule.transformation
(** [natural_join(X, X) = X]. *)

val hoist_const_membership : Rule.transformation
(** [select<x IS-IN w>(Chain(get<x, C>))] with a tuple-independent
    [Chain] computing [w : {C}] becomes [flat<x ∈ w>(Chain(unit))] —
    eliminates the extent scan, completing the derivation of plan PQ. *)

val normalize :
  links:(string * string) list ->
  Soqm_vml.Schema.t ->
  Soqm_algebra.Restricted.t ->
  (string * Soqm_algebra.Restricted.t) list
(** The deterministic pre-search normalization: joins along declared
    inverse links become path navigation (the converse of Example 8).
    [select<a == d>(cross(Chain(get<s, C>), X))], where [Chain] computes
    [a] by [map_property<a, p, s>], [(C, p)] is in [links], [C.p] has
    the inverse [D.p2] and [X] scans [D] into [d], becomes
    [Chain'(flat_property<s, p2, d>(X))] with that map replaced by
    [map_operator<a := ident(d)>].  Maps and selections are first pushed
    into the side of each product that supplies their references
    (["cross-pushdown"]), so the equality meets the product; either
    operand order and either input order match.  Returns the named
    steps (["cross-pushdown"], then one
    ["inverse-join-to-path[C.p]"] per rewrite), or [[]] — leaving the
    term as it is, pushdown included — when no rewrite applies. *)

val transformations : Rule.transformation list
(** All of the above. *)

val index_scan_impl : Rule.implementation
(** [select<t == const>(map_property<t, p, a>(get<a, C>))] implemented by
    a probe of a value index on [C.p], when one exists. *)

val range_scan_impl : Rule.implementation
(** [select<t θ const>] over a property map over a scan implemented by an
    ordered-index probe, for the ordering comparisons. *)

val nested_loop_impl : Rule.implementation
(** Alternative nested-loop implementation for [join<θ>]; competes with
    the default (hash join for equality). *)

val implementations : Rule.implementation list
