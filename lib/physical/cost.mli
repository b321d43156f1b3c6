(** Cost model for physical plans.

    "A simple cost model" (Section 7): cardinalities are propagated
    bottom-up from extent statistics, property fanouts and declared
    method selectivities; operator costs charge scans per object,
    methods at their declared per-call cost — once per input tuple, or
    once per execution when the operator is tuple-independent (constant
    receiver and arguments), mirroring the executor's memoization.  This
    non-uniform treatment of methods is what lets the optimizer prefer a
    single [retrieve_by_string] probe over thousands of
    [contains_string] calls. *)

open Soqm_storage

type estimate = {
  card : float;  (** estimated output cardinality *)
  cost : float;  (** estimated total cost, in object-fetch units *)
}

type analysis
(** What the model derives for a plan: its estimate, and what is known
    about the values its references hold. *)

val analyze : ?reuse:(Plan.t * analysis) list -> Statistics.t -> Plan.t -> analysis
(** Analyse a plan bottom-up.  A sub-plan physically equal to one paired
    in [reuse] takes that analysis instead of being analysed again.  The
    analysis is a function of the statistics and the plan alone, so the
    result — every float of it — is the one a full analysis gives; only
    the operators above the reused sub-plans are analysed. *)

val analysis_estimate : analysis -> estimate

val estimate : Statistics.t -> Plan.t -> estimate

val cost : Statistics.t -> Plan.t -> float
(** [(estimate stats plan).cost] *)
