open Soqm_algebra
open Soqm_physical
module SSet = Set.Make (String)

type mexpr = {
  shell : Restricted.t;  (* the operator with inputs replaced by Unit *)
  m_inputs : int list;  (* group ids (resolve through the union-find) *)
  mutable applied : SSet.t;  (* rules already tried on this mexpr *)
}

type best_state = Unknown | Computing | Done of (Plan.t * float) option

type group = {
  gid : int;
  mutable exprs : mexpr list;
  rep : Restricted.t;  (* one concrete member, fixed at creation *)
  grefs : string list;  (* Ref(S), invariant across members *)
  mutable once_used : SSet.t;
  mutable best : best_state;
}

type t = {
  ctx : Rule.opt_ctx;
  transforms : Rule.transformation list;
  impls : Rule.implementation list;
  mutable next_gid : int;
  groups : (int, group) Hashtbl.t;
  index : (string, int) Hashtbl.t;  (* mexpr key -> group *)
  parent : (int, int) Hashtbl.t;  (* union-find *)
  fired : (string, int) Hashtbl.t;
  mutable merges : int;
}

type stats = {
  groups : int;
  exprs : int;
  merges : int;
  fired : (string * int) list;
}

let create ctx transforms impls =
  {
    ctx;
    transforms;
    impls;
    next_gid = 0;
    groups = Hashtbl.create 128;
    index = Hashtbl.create 256;
    parent = Hashtbl.create 128;
    fired = Hashtbl.create 16;
    merges = 0;
  }

(* union-find with path compression *)
let rec find t g =
  match Hashtbl.find_opt t.parent g with
  | Some p when p <> g ->
    let root = find t p in
    Hashtbl.replace t.parent g root;
    root
  | _ -> g

let group (t : t) g = Hashtbl.find t.groups (find t g)

let mexpr_key t shell inputs =
  Printf.sprintf "%s@%s"
    (Restricted.to_string shell)
    (String.concat "," (List.map (fun g -> string_of_int (find t g)) inputs))

let unit_shell term =
  Restricted.with_inputs term
    (List.map (fun _ -> Restricted.Unit) (Restricted.inputs term))

(* Merge group [loser] into [winner]: move expressions (dedup by key) and
   reset the winner's plan cache. *)
let merge (t : t) winner loser =
  let w = find t winner and l = find t loser in
  if w <> l then (
    let gw = Hashtbl.find t.groups w and gl = Hashtbl.find t.groups l in
    Hashtbl.replace t.parent l w;
    t.merges <- t.merges + 1;
    let existing =
      List.map (fun m -> mexpr_key t m.shell m.m_inputs) gw.exprs
    in
    List.iter
      (fun m ->
        if not (List.mem (mexpr_key t m.shell m.m_inputs) existing) then
          gw.exprs <- gw.exprs @ [ m ])
      gl.exprs;
    gw.once_used <- SSet.union gw.once_used gl.once_used;
    gw.best <- Unknown;
    Hashtbl.remove t.groups l)

(* Register [shell(inputs)].  With [target] set, the expression is known
   to be equivalent to that group (it came from a rewrite there): an
   existing registration elsewhere triggers a merge. *)
let add_mexpr t ?target shell inputs ~rep =
  let inputs = List.map (find t) inputs in
  let key = mexpr_key t shell inputs in
  match Hashtbl.find_opt t.index key with
  | Some g0 -> (
    let g0 = find t g0 in
    match target with
    | Some tg when find t tg <> g0 ->
      merge t g0 tg;
      find t g0
    | _ -> g0)
  | None -> (
    match target with
    | Some tg ->
      let tg = find t tg in
      let g = Hashtbl.find t.groups tg in
      g.exprs <- g.exprs @ [ { shell; m_inputs = inputs; applied = SSet.empty } ];
      g.best <- Unknown;
      Hashtbl.replace t.index key tg;
      tg
    | None ->
      let gid = t.next_gid in
      t.next_gid <- gid + 1;
      Hashtbl.replace t.parent gid gid;
      Hashtbl.replace t.groups gid
        {
          gid;
          exprs = [ { shell; m_inputs = inputs; applied = SSet.empty } ];
          rep;
          grefs = (try Restricted.refs rep with Invalid_argument _ -> []);
          once_used = SSet.empty;
          best = Unknown;
        };
      Hashtbl.replace t.index key gid;
      gid)

let rec insert t (term : Restricted.t) : int =
  let input_gids = List.map (insert t) (Restricted.inputs term) in
  add_mexpr t (unit_shell term) input_gids ~rep:term

(* Insert a rewrite result as a new member of [target]. *)
let insert_into t ~target (term : Restricted.t) : int =
  let input_gids = List.map (insert t) (Restricted.inputs term) in
  add_mexpr t ~target (unit_shell term) input_gids ~rep:term

(* ------------------------------------------------------------------ *)
(* Trees of a group (bounded)                                          *)
(* ------------------------------------------------------------------ *)

let rec trees_limited t ~visiting ~limit gid : Restricted.t list =
  let gid = find t gid in
  if List.mem gid visiting then []
  else
    let g = group t gid in
    let visiting = gid :: visiting in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
    in
    take limit
      (List.concat_map
         (fun m ->
           let input_alternatives =
             List.map (trees_limited t ~visiting ~limit:2) m.m_inputs
           in
           if List.exists (( = ) []) input_alternatives then
             if m.m_inputs = [] then [ m.shell ] else []
           else
             (* cartesian product, bounded by construction *)
             List.fold_left
               (fun acc alts ->
                 List.concat_map
                   (fun partial -> List.map (fun a -> partial @ [ a ]) alts)
                   acc)
               [ [] ] input_alternatives
             |> List.map (fun ins -> Restricted.with_inputs m.shell ins))
         g.exprs)

let trees t gid = trees_limited t ~visiting:[] ~limit:8 gid

let representative t gid = (group t gid).rep

(* ------------------------------------------------------------------ *)
(* Matching patterns against the memo                                  *)
(* ------------------------------------------------------------------ *)

(* Match [pat] against group [gid]: input variables bind the group's
   representative; operator patterns are tried against every member
   expression, their sub-patterns descending into the input groups. *)
let rec match_group t pat gid (b : Pattern.bindings) : Pattern.bindings list =
  match pat with
  | Pattern.PAny _ | Pattern.PAnyRanging _ ->
    Pattern.match_with t.ctx.Rule.schema pat (representative t gid) b
  | _ ->
    List.concat_map (fun m -> match_mexpr t pat m b) (group t gid).exprs

and match_mexpr t pat (m : mexpr) b : Pattern.bindings list =
  let subs = Pattern.pattern_inputs pat in
  if List.length subs <> List.length m.m_inputs then []
  else
    (* match the operator level against the shell (stub inputs bind the
       Unit placeholders and are ignored) *)
    let stubbed =
      Pattern.with_pattern_inputs pat
        (List.mapi (fun i _ -> Pattern.PAny (Printf.sprintf "!%d" i)) subs)
    in
    let roots = Pattern.match_with t.ctx.Rule.schema stubbed m.shell b in
    List.concat_map
      (fun b' ->
        List.fold_left2
          (fun bs sub gid ->
            List.concat_map (fun b'' -> match_group t sub gid b'') bs)
          [ b' ] subs m.m_inputs)
      roots

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

let count_exprs (t : t) =
  Hashtbl.fold (fun _ (g : group) acc -> acc + List.length g.exprs) t.groups 0

let seed_of name term =
  Hashtbl.hash (name, Restricted.to_string term) land 0xFFFFFF

let rewrites_of_rule t (rule : Rule.transformation) gid m : Restricted.t list =
  match rule.Rule.t_body with
  | Rule.Native f ->
    (* natives need concrete trees rooted at this mexpr *)
    let input_alternatives =
      List.map (fun g -> trees_limited t ~visiting:[ find t gid ] ~limit:3 g) m.m_inputs
    in
    if List.exists (( = ) []) input_alternatives && m.m_inputs <> [] then []
    else
      let trees =
        List.fold_left
          (fun acc alts ->
            List.concat_map
              (fun partial -> List.map (fun a -> partial @ [ a ]) alts)
              acc)
          [ [] ] input_alternatives
        |> List.map (fun ins -> Restricted.with_inputs m.shell ins)
      in
      List.concat_map (f t.ctx.Rule.schema) trees
  | Rule.Rewrite { lhs; rhs; bidirectional; condition } ->
    let direction lhs rhs =
      List.filter_map
        (fun b ->
          if not (condition t.ctx.Rule.schema b) then None
          else
            match
              Pattern.instantiate ~rule:rule.Rule.t_name
                ~fresh_seed:(seed_of rule.Rule.t_name m.shell)
                b rhs
            with
            | tree -> Some tree
            | exception Pattern.Unbound _ -> None)
        (match_mexpr t lhs m Pattern.empty)
    in
    direction lhs rhs @ (if bidirectional then direction rhs lhs else [])

let explore ?(max_exprs = 5000) t =
  let changed = ref true in
  while !changed && count_exprs t < max_exprs do
    changed := false;
    let gids = Hashtbl.fold (fun gid _ acc -> gid :: acc) t.groups [] in
    List.iter
      (fun gid ->
        match Hashtbl.find_opt t.groups (find t gid) with
        | None -> ()
        | Some g ->
          List.iter
            (fun m ->
              List.iter
                (fun (rule : Rule.transformation) ->
                  let name = rule.Rule.t_name in
                  if
                    (not (SSet.mem name m.applied))
                    && not (rule.Rule.t_apply_once && SSet.mem name g.once_used)
                  then (
                    m.applied <- SSet.add name m.applied;
                    let results = rewrites_of_rule t rule gid m in
                    List.iter
                      (fun cand ->
                        (* note: no alpha-canonicalization here — group
                           references are concrete names, and renaming
                           temporaries would break the per-group Ref(S)
                           invariant *)
                        if Search.admissible ~want_refs:g.grefs cand then (
                          let before_exprs = count_exprs t in
                          let before_merges = t.merges in
                          ignore (insert_into t ~target:g.gid cand);
                          if
                            count_exprs t <> before_exprs
                            || t.merges <> before_merges
                          then (
                            changed := true;
                            Hashtbl.replace t.fired name
                              (1
                              + Option.value ~default:0
                                  (Hashtbl.find_opt t.fired name)));
                          if rule.Rule.t_apply_once then
                            g.once_used <- SSet.add name g.once_used))
                      results))
                t.transforms)
            g.exprs)
      gids
  done

(* ------------------------------------------------------------------ *)
(* Implementation                                                      *)
(* ------------------------------------------------------------------ *)

exception No_plan

let rec best_plan t gid : (Plan.t * float) option =
  let gid = find t gid in
  let g = group t gid in
  match g.best with
  | Done r -> r
  | Computing -> None (* cycle through a merge: cannot be optimal *)
  | Unknown ->
    g.best <- Computing;
    let implement_tree tree =
      match best_plan t (insert t tree) with
      | Some (p, _) -> p
      | None -> raise No_plan
    in
    let structural =
      List.concat_map
        (fun m ->
          match List.map (fun i -> best_plan t i) m.m_inputs with
          | plans when List.for_all Option.is_some plans ->
            Search.structural_roots m.shell (List.map (fun p -> fst (Option.get p)) plans)
          | _ -> [])
        g.exprs
    in
    let from_rules =
      List.concat_map
        (fun (r : Rule.implementation) ->
          List.filter_map
            (fun b ->
              try r.Rule.i_build t.ctx b implement_tree with No_plan -> None)
            (match_group t r.Rule.i_lhs gid Pattern.empty))
        t.impls
    in
    let result =
      List.fold_left
        (fun acc plan ->
          let c = Cost.cost t.ctx.Rule.stats plan in
          match acc with
          | Some (_, bc) when bc <= c -> acc
          | _ -> Some (plan, c))
        None (structural @ from_rules)
    in
    g.best <- Done result;
    result

let optimize ?max_exprs t term =
  let gid = insert t term in
  explore ?max_exprs t;
  match best_plan t gid with
  | Some r -> r
  | None -> failwith "Memo.optimize: no plan"

let stats (t : t) : stats =
  {
    groups = Hashtbl.length t.groups;
    exprs = count_exprs t;
    merges = t.merges;
    fired =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fired []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }
