open Soqm_algebra
open Soqm_physical

type config = { max_variants : int; max_size_slack : int }

let default_config = { max_variants = 2500; max_size_slack = 14 }

type step = { rule : string; term : Restricted.t }

type result = {
  best_plan : Plan.t;
  best_cost : float;
  best_logical : Restricted.t;
  variants_explored : int;
  truncated : bool;
  derivation : step list;
  rule_applications : (string * int) list;
}

(* Every node position of [term] in preorder — the root, then input 0's
   positions, then input 1's — each with the function that rebuilds
   [term] around a replacement for the subterm there.  Computed once per
   variant and shared by every rule. *)
let rewrite_sites term =
  let rec go acc sub rebuild =
    let acc = (sub, rebuild) :: acc in
    match Restricted.inputs sub with
    | [ s ] -> go acc s (fun s' -> rebuild (Restricted.with_inputs sub [ s' ]))
    | [ s1; s2 ] ->
      let acc = go acc s1 (fun s1' -> rebuild (Restricted.with_inputs sub [ s1'; s2 ])) in
      go acc s2 (fun s2' -> rebuild (Restricted.with_inputs sub [ s1; s2' ]))
    | _ -> acc
  in
  List.rev (go [] term Fun.id)

(* All single-step rewrites of a term by [f] applied at every site, passed
   to [emit] in site order and, at each site, in [f]'s order; only emitted
   candidates rebuild the spine above their site. *)
let rewrites_everywhere f sites emit =
  List.iter (fun (sub, rebuild) -> List.iter (fun r -> emit (rebuild r)) (f sub)) sites

let admissible ~want_refs cand =
  match Restricted.well_formed cand with
  | Ok refs -> List.equal String.equal refs want_refs
  | Error _ -> false

module SSet = Set.Make (String)

type node = {
  term : Restricted.t;
  parent : (int * string) option;  (* index of parent node, rule name *)
  once_used : SSet.t;
}

(* [term0] is alpha-canonical. *)
let saturate_nodes ~config schema rules term0 =
  let want_refs = Restricted.refs term0 in
  let size_limit = Restricted.size term0 + config.max_size_slack in
  let fired : (string, int) Hashtbl.t = Hashtbl.create 16 in
  (* every canonical candidate ever inspected, admissible or not: a
     candidate regenerated by another derivation skips the (expensive)
     well-formedness/refs admissibility check entirely, and only a
     never-examined term reaches [push] *)
  let examined = Restricted.Tbl.create 256 in
  let nodes = ref [||] in
  let count = ref 0 in
  let truncated = ref false in
  let push node =
    (* [node.term] is new, so dropping it at the bound loses a variant *)
    if !count >= config.max_variants then truncated := true
    else (
      if Array.length !nodes = !count then
        nodes :=
          Array.append !nodes (Array.make (max 64 (Array.length !nodes)) node);
      !nodes.(!count) <- node;
      incr count)
  in
  Restricted.Tbl.replace examined term0 ();
  push { term = term0; parent = None; once_used = SSet.empty };
  let i = ref 0 in
  while !i < !count do
    let idx = !i in
    let node = !nodes.(idx) in
    let sites = rewrite_sites node.term in
    List.iter
      (fun (rule : Rule.transformation) ->
        if not (rule.Rule.t_apply_once && SSet.mem rule.Rule.t_name node.once_used)
        then
          rewrites_everywhere (Rule.root_rewrites schema rule) sites
            (fun cand ->
              let cand = Restricted.alpha_canonical cand in
              if not (Restricted.Tbl.mem examined cand) then (
                Restricted.Tbl.replace examined cand ();
                if Restricted.size cand <= size_limit && admissible ~want_refs cand
                then (
                  Hashtbl.replace fired rule.Rule.t_name
                    (1 + Option.value ~default:0 (Hashtbl.find_opt fired rule.Rule.t_name));
                  push
                    {
                      term = cand;
                      parent = Some (idx, rule.Rule.t_name);
                      once_used =
                        (if rule.Rule.t_apply_once then
                           SSet.add rule.Rule.t_name node.once_used
                         else node.once_used);
                    }))))
      rules;
    incr i
  done;
  let rule_applications =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) fired []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (Array.to_list (Array.sub !nodes 0 !count), !truncated, !nodes, rule_applications)

let saturate ?(config = default_config) schema rules term0 =
  let variants, truncated, _, _ =
    saturate_nodes ~config schema rules (Restricted.alpha_canonical term0)
  in
  (List.map (fun n -> n.term) variants, truncated)

(* ------------------------------------------------------------------ *)
(* Implementation phase                                                *)
(* ------------------------------------------------------------------ *)

(* Default structural implementations of the root operator given best
   plans for the inputs; [JoinCmp] with equality yields both a hash join
   and (via the builtin rule) a nested loop, so alternatives compete. *)
let structural_roots (term : Restricted.t) (input_plans : Plan.t list) :
    Plan.t list =
  match term, input_plans with
  | Restricted.Unit, [] -> [ Plan.Unit ]
  | Restricted.Get (a, c), [] -> [ Plan.FullScan (a, c) ]
  | Restricted.MethodSource (a, cls, m, args), [] -> (
    match
      List.filter_map
        (function Restricted.OConst v -> Some v | _ -> None)
        args
    with
    | consts when List.length consts = List.length args ->
      [ Plan.MethodScan (a, cls, m, consts) ]
    | _ -> [])
  | Restricted.NaturalJoin _, [ p1; p2 ] -> [ Plan.NaturalJoin (p1, p2) ]
  | Restricted.Union _, [ p1; p2 ] -> [ Plan.Union (p1, p2) ]
  | Restricted.Diff _, [ p1; p2 ] -> [ Plan.Diff (p1, p2) ]
  | Restricted.Cross _, [ p1; p2 ] -> [ Plan.NestedLoop (None, p1, p2) ]
  | Restricted.SelectCmp (c, x, y, _), [ p ] -> [ Plan.Filter (c, x, y, p) ]
  | Restricted.JoinCmp (Restricted.CEq, a1, a2, _, _), [ p1; p2 ] ->
    [ Plan.HashJoin (a1, a2, p1, p2) ]
  | Restricted.JoinCmp (c, a1, a2, _, _), [ p1; p2 ] ->
    [ Plan.NestedLoop (Some (c, a1, a2), p1, p2) ]
  | Restricted.MapProperty (a, p, a1, _), [ pl ] -> [ Plan.MapProp (a, p, a1, pl) ]
  | Restricted.MapMethod (a, m, r, xs, _), [ pl ] ->
    [ Plan.MapMeth (a, m, r, xs, pl) ]
  | Restricted.FlatProperty (a, p, a1, _), [ pl ] ->
    [ Plan.FlatProp (a, p, a1, pl) ]
  | Restricted.FlatMethod (a, m, r, xs, _), [ pl ] ->
    [ Plan.FlatMeth (a, m, r, xs, pl) ]
  | Restricted.MapOperator (a, op, xs, _), [ pl ] -> [ Plan.MapOp (a, op, xs, pl) ]
  | Restricted.FlatOperator (a, op, xs, _), [ pl ] ->
    [ Plan.FlatOp (a, op, xs, pl) ]
  | Restricted.Project (rs, _), [ pl ] -> [ Plan.Project (rs, pl) ]
  | _ -> []

exception No_plan of string

(* The memo stores [Some (plan, analysis)] for implementable terms and
   [None] for terms known to have no plan: without the negative entries, a
   subterm that raises [No_plan] is re-derived from scratch for every one
   of the (up to [max_variants]) logical variants that contains it.  Each
   candidate plan is costed reusing the analyses of the memoized sub-plans
   it was built from, so only its new root operators are analysed. *)
let implement_memo (ctx : Rule.opt_ctx) impls memo =
  let rec best (term : Restricted.t) : Plan.t * Cost.analysis =
    match Restricted.Tbl.find_opt memo term with
    | Some (Some pa) -> pa
    | Some None ->
      raise
        (No_plan (Format.asprintf "no implementation for %a" Restricted.pp term))
    | None ->
      let chosen =
        try
          let inputs = List.map best (Restricted.inputs term) in
          let reuse = ref inputs in
          let sub_plan sub =
            let ((plan, _) as pa) = best sub in
            reuse := pa :: !reuse;
            plan
          in
          let structural = structural_roots term (List.map fst inputs) in
          let from_rules =
            List.concat_map
              (fun (r : Rule.implementation) ->
                List.filter_map
                  (fun b ->
                    try r.Rule.i_build ctx b sub_plan with No_plan _ -> None)
                  (Pattern.matches ctx.Rule.schema r.Rule.i_lhs term))
              impls
          in
          let candidates = structural @ from_rules in
          (* branch-and-bound over the candidate list: keep the cheapest *)
          List.fold_left
            (fun acc plan ->
              let a = Cost.analyze ~reuse:!reuse ctx.Rule.stats plan in
              let c = (Cost.analysis_estimate a).Cost.cost in
              match acc with
              | Some (_, _, best_c) when best_c <= c -> acc
              | _ -> Some (plan, a, c))
            None candidates
          |> Option.map (fun (plan, a, _) -> (plan, a))
        with No_plan _ ->
          (* a structurally-required input has no plan, so neither has
             this term *)
          None
      in
      Restricted.Tbl.replace memo term chosen;
      (match chosen with
      | Some pa -> pa
      | None ->
        raise
          (No_plan
             (Format.asprintf "no implementation for %a" Restricted.pp term)))
  in
  fun term ->
    let plan, a = best term in
    (plan, (Cost.analysis_estimate a).Cost.cost)

let implement_only ctx impls term =
  let memo = Restricted.Tbl.create 64 in
  implement_memo ctx impls memo term

let optimize ?(config = default_config) ?(inverse_links = []) (ctx : Rule.opt_ctx)
    rules impls term0 =
  (* the normalization's steps lead the derivation; a result that would
     not be admissible (it never should be) is dropped, not searched *)
  let prelude =
    List.map
      (fun (rule, t) -> { rule; term = Restricted.alpha_canonical t })
      (Builtin_rules.normalize ~links:inverse_links ctx.Rule.schema term0)
  in
  let prelude, start =
    match List.rev prelude with
    | last :: _ when admissible ~want_refs:(Restricted.refs term0) last.term ->
      (prelude, last.term)
    | _ -> ([], term0)
  in
  let nodes, truncated, arr, rule_applications =
    saturate_nodes ~config ctx.Rule.schema rules start
  in
  let memo = Restricted.Tbl.create 1024 in
  let best = implement_memo ctx impls memo in
  let best_result =
    List.fold_left
      (fun acc (idx, node) ->
        match best node.term with
        | plan, cost -> (
          match acc with
          | Some (_, _, best_cost) when best_cost <= cost -> acc
          | _ -> Some (idx, plan, cost))
        | exception No_plan _ -> acc)
      None
      (List.mapi (fun i n -> (i, n)) nodes)
  in
  match best_result with
  | None -> raise (No_plan "no variant could be implemented")
  | Some (winner_idx, best_plan, best_cost) ->
    (* reconstruct the derivation of the winning variant *)
    let rec path idx acc =
      let node = arr.(idx) in
      match node.parent with
      | None -> acc
      | Some (p, rule) -> path p ({ rule; term = node.term } :: acc)
    in
    {
      best_plan;
      best_cost;
      best_logical = arr.(winner_idx).term;
      variants_explored = List.length nodes;
      truncated;
      derivation = ({ rule = "(input)"; term = term0 } :: prelude) @ path winner_idx [];
      rule_applications;
    }
