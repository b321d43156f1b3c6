open Soqm_vml

type operand = ORef of string | OConst of Value.t | OParam of string
type receiver = RRef of string | RClass of string
type cmp = CEq | CNeq | CLt | CLe | CGt | CGe | CIsIn | CIsSubset

type opname =
  | OpBin of Expr.binop
  | OpNot
  | OpIdent
  | OpTuple of string list
  | OpSet

type t =
  | Unit
  | Get of string * string
  | NaturalJoin of t * t
  | Union of t * t
  | Diff of t * t
  | Cross of t * t
  | SelectCmp of cmp * operand * operand * t
  | JoinCmp of cmp * string * string * t * t
  | MapProperty of string * string * string * t
  | MapMethod of string * string * receiver * operand list * t
  | FlatProperty of string * string * string * t
  | FlatMethod of string * string * receiver * operand list * t
  | MapOperator of string * opname * operand list * t
  | FlatOperator of string * opname * operand list * t
  | Project of string list * t
  | MethodSource of string * string * string * operand list

let compare = Stdlib.compare
let equal a b = compare a b = 0
let fail fmt = Format.kasprintf invalid_arg fmt

let cmp_to_binop = function
  | CEq -> Expr.Eq
  | CNeq -> Expr.Neq
  | CLt -> Expr.Lt
  | CLe -> Expr.Le
  | CGt -> Expr.Gt
  | CGe -> Expr.Ge
  | CIsIn -> Expr.IsIn
  | CIsSubset -> Expr.IsSubset

let binop_to_cmp = function
  | Expr.Eq -> Some CEq
  | Expr.Neq -> Some CNeq
  | Expr.Lt -> Some CLt
  | Expr.Le -> Some CLe
  | Expr.Gt -> Some CGt
  | Expr.Ge -> Some CGe
  | Expr.IsIn -> Some CIsIn
  | Expr.IsSubset -> Some CIsSubset
  | _ -> None

let operand_expr = function
  | ORef r -> Expr.Ref r
  | OConst v -> Expr.Const v
  | OParam p -> Expr.Param p
let receiver_expr = function RRef r -> Expr.Ref r | RClass c -> Expr.ClassObj c

let op_expr opname operands =
  match opname, operands with
  | OpBin b, [ x; y ] -> Expr.Binop (b, operand_expr x, operand_expr y)
  | OpNot, [ x ] -> Expr.Not (operand_expr x)
  | OpIdent, [ x ] -> operand_expr x
  | OpTuple labels, xs when List.length labels = List.length xs ->
    Expr.TupleE (List.map2 (fun l x -> (l, operand_expr x)) labels xs)
  | OpSet, xs -> Expr.SetE (List.map operand_expr xs)
  | _ -> fail "Restricted: operator arity mismatch"

let rec to_general = function
  | Unit -> General.Unit
  | Get (a, c) -> General.Get (a, c)
  | NaturalJoin (s1, s2) -> General.NaturalJoin (to_general s1, to_general s2)
  | Union (s1, s2) -> General.Union (to_general s1, to_general s2)
  | Diff (s1, s2) -> General.Diff (to_general s1, to_general s2)
  | Cross (s1, s2) ->
    General.Join (Expr.Const (Value.Bool true), to_general s1, to_general s2)
  | SelectCmp (c, x, y, s) ->
    General.Select
      (Expr.Binop (cmp_to_binop c, operand_expr x, operand_expr y), to_general s)
  | JoinCmp (c, a1, a2, s1, s2) ->
    General.Join
      ( Expr.Binop (cmp_to_binop c, Expr.Ref a1, Expr.Ref a2),
        to_general s1, to_general s2 )
  | MapProperty (a, p, a1, s) ->
    General.Map (a, Expr.Prop (Expr.Ref a1, p), to_general s)
  | MapMethod (a, m, recv, args, s) ->
    General.Map
      ( a,
        Expr.Call (receiver_expr recv, m, List.map operand_expr args),
        to_general s )
  | FlatProperty (a, p, a1, s) ->
    General.Flat (a, Expr.Prop (Expr.Ref a1, p), to_general s)
  | FlatMethod (a, m, recv, args, s) ->
    General.Flat
      ( a,
        Expr.Call (receiver_expr recv, m, List.map operand_expr args),
        to_general s )
  | MapOperator (a, op, xs, s) -> General.Map (a, op_expr op xs, to_general s)
  | FlatOperator (a, op, xs, s) -> General.Flat (a, op_expr op xs, to_general s)
  | Project (rs, s) -> General.Project (rs, to_general s)
  | MethodSource (a, cls, m, args) ->
    General.MethodSource
      (a, Expr.Call (Expr.ClassObj cls, m, List.map operand_expr args))

let rec size = function
  | Unit | Get _ | MethodSource _ -> 1
  | SelectCmp (_, _, _, s)
  | MapProperty (_, _, _, s)
  | MapMethod (_, _, _, _, s)
  | FlatProperty (_, _, _, s)
  | FlatMethod (_, _, _, _, s)
  | MapOperator (_, _, _, s)
  | FlatOperator (_, _, _, s)
  | Project (_, s) ->
    1 + size s
  | NaturalJoin (s1, s2)
  | Union (s1, s2)
  | Diff (s1, s2)
  | Cross (s1, s2)
  | JoinCmp (_, _, _, s1, s2) ->
    1 + size s1 + size s2

let inputs = function
  | Unit | Get _ | MethodSource _ -> []
  | SelectCmp (_, _, _, s)
  | MapProperty (_, _, _, s)
  | MapMethod (_, _, _, _, s)
  | FlatProperty (_, _, _, s)
  | FlatMethod (_, _, _, _, s)
  | MapOperator (_, _, _, s)
  | FlatOperator (_, _, _, s)
  | Project (_, s) ->
    [ s ]
  | NaturalJoin (s1, s2)
  | Union (s1, s2)
  | Diff (s1, s2)
  | Cross (s1, s2)
  | JoinCmp (_, _, _, s1, s2) ->
    [ s1; s2 ]

let with_inputs t new_inputs =
  match t, new_inputs with
  | (Unit | Get _ | MethodSource _), [] -> t
  | SelectCmp (c, x, y, _), [ s ] -> SelectCmp (c, x, y, s)
  | MapProperty (a, p, a1, _), [ s ] -> MapProperty (a, p, a1, s)
  | MapMethod (a, m, r, xs, _), [ s ] -> MapMethod (a, m, r, xs, s)
  | FlatProperty (a, p, a1, _), [ s ] -> FlatProperty (a, p, a1, s)
  | FlatMethod (a, m, r, xs, _), [ s ] -> FlatMethod (a, m, r, xs, s)
  | MapOperator (a, op, xs, _), [ s ] -> MapOperator (a, op, xs, s)
  | FlatOperator (a, op, xs, _), [ s ] -> FlatOperator (a, op, xs, s)
  | Project (rs, _), [ s ] -> Project (rs, s)
  | NaturalJoin _, [ s1; s2 ] -> NaturalJoin (s1, s2)
  | Union _, [ s1; s2 ] -> Union (s1, s2)
  | Diff _, [ s1; s2 ] -> Diff (s1, s2)
  | Cross _, [ s1; s2 ] -> Cross (s1, s2)
  | JoinCmp (c, a1, a2, _, _), [ s1; s2 ] -> JoinCmp (c, a1, a2, s1, s2)
  | _ -> fail "Restricted.with_inputs: arity mismatch"

let rec subtrees t = t :: List.concat_map subtrees (inputs t)

(* The search's tables key on whole terms.  The stdlib's [Hashtbl.hash]
   stops after 10 meaningful words, so terms that differ only below the
   top few nodes share a bucket (conj4's 2500 variants fell into 76
   values); hash up to the runtime's 256-value cap instead, which covers
   every node of the terms the optimizer builds. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = Hashtbl.hash_param 256 256 t
end)

let temp_counter = ref 0

let temp_ref () =
  incr temp_counter;
  Printf.sprintf "$%d" !temp_counter

let is_temp_ref r = String.length r > 0 && r.[0] = '$'

(* Canonical temporary names, shared by every call. *)
let canonical_names = Array.init 64 (fun i -> "$" ^ string_of_int (i + 1))

let canonical_name i =
  if i < Array.length canonical_names then canonical_names.(i)
  else "$" ^ string_of_int (i + 1)

(* Map a list left to right, returning the list itself when [f] returns
   every element unchanged. *)
let rec map_shared f = function
  | [] -> []
  | x :: rest as l ->
    let x' = f x in
    let rest' = map_shared f rest in
    if x' == x && rest' == rest then l else x' :: rest'

(* One traversal renames each temporary to [$k], where [k] numbers the
   temporaries in the order of their first occurrence: inputs first, left
   to right, then the operator's own references (operands before the
   target), so a temporary is numbered where it is produced.  The number
   is fixed on first occurrence, so the renaming is one simultaneous
   substitution and cannot capture.  Nodes whose references and inputs
   all come back unchanged are returned as they are: an already canonical
   term comes back physically unchanged. *)
let alpha_canonical t =
  let olds = ref [||] and news = ref [||] and n = ref 0 in
  let rename r =
    if not (is_temp_ref r) then r
    else
      let rec find i =
        if i = !n then (
          let c = canonical_name i in
          let c = if String.equal c r then r else c in
          if i = Array.length !olds then (
            let grow a = Array.append a (Array.make (max 8 i) r) in
            olds := grow !olds;
            news := grow !news);
          !olds.(i) <- r;
          !news.(i) <- c;
          incr n;
          c)
        else if String.equal !olds.(i) r then !news.(i)
        else find (i + 1)
      in
      find 0
  in
  let operand = function
    | ORef r as x ->
      let r' = rename r in
      if r' == r then x else ORef r'
    | x -> x
  in
  let receiver = function
    | RRef r as x ->
      let r' = rename r in
      if r' == r then x else RRef r'
    | x -> x
  in
  let rec go t =
    match t with
    | Unit -> t
    | Get (a, c) ->
      let a' = rename a in
      if a' == a then t else Get (a', c)
    | MethodSource (a, cls, m, xs) ->
      let xs' = map_shared operand xs in
      let a' = rename a in
      if xs' == xs && a' == a then t else MethodSource (a', cls, m, xs')
    | NaturalJoin (s1, s2) | Union (s1, s2) | Diff (s1, s2) | Cross (s1, s2) ->
      let s1' = go s1 in
      let s2' = go s2 in
      if s1' == s1 && s2' == s2 then t else with_inputs t [ s1'; s2' ]
    | JoinCmp (c, a1, a2, s1, s2) ->
      let s1' = go s1 in
      let s2' = go s2 in
      let a1' = rename a1 in
      let a2' = rename a2 in
      if s1' == s1 && s2' == s2 && a1' == a1 && a2' == a2 then t
      else JoinCmp (c, a1', a2', s1', s2')
    | SelectCmp (c, x, y, s) ->
      let s' = go s in
      let x' = operand x in
      let y' = operand y in
      if s' == s && x' == x && y' == y then t else SelectCmp (c, x', y', s')
    | MapProperty (a, p, a1, s) | FlatProperty (a, p, a1, s) ->
      let s' = go s in
      let a1' = rename a1 in
      let a' = rename a in
      if s' == s && a1' == a1 && a' == a then t
      else (
        match t with
        | MapProperty _ -> MapProperty (a', p, a1', s')
        | _ -> FlatProperty (a', p, a1', s'))
    | MapMethod (a, m, r, xs, s) | FlatMethod (a, m, r, xs, s) ->
      let s' = go s in
      let r' = receiver r in
      let xs' = map_shared operand xs in
      let a' = rename a in
      if s' == s && r' == r && xs' == xs && a' == a then t
      else (
        match t with
        | MapMethod _ -> MapMethod (a', m, r', xs', s')
        | _ -> FlatMethod (a', m, r', xs', s'))
    | MapOperator (a, op, xs, s) | FlatOperator (a, op, xs, s) ->
      let s' = go s in
      let xs' = map_shared operand xs in
      let a' = rename a in
      if s' == s && xs' == xs && a' == a then t
      else (
        match t with
        | MapOperator _ -> MapOperator (a', op, xs', s')
        | _ -> FlatOperator (a', op, xs', s'))
    | Project (rs, s) ->
      let s' = go s in
      let rs' = map_shared rename rs in
      if s' == s && rs' == rs then t else Project (rs', s')
  in
  go t

(* ------------------------------------------------------------------ *)
(* References and well-formedness                                      *)
(* ------------------------------------------------------------------ *)

(* Reference sets are sorted, duplicate-free lists.  A violated side
   condition raises [Invalid_argument] with a constant message: the
   search rejects many candidates, and formatting a message for each
   would cost more than the check. *)

let ill_formed msg = raise (Invalid_argument msg)

let rec union_refs ~disjoint a b =
  match a, b with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    let c = String.compare x y in
    if c < 0 then x :: union_refs ~disjoint a' b
    else if c > 0 then y :: union_refs ~disjoint a b'
    else if disjoint then ill_formed "join arguments must have disjoint references"
    else x :: union_refs ~disjoint a' b'

let rec add_target a = function
  | [] -> [ a ]
  | x :: rest as l ->
    let c = String.compare a x in
    if c < 0 then a :: l
    else if c = 0 then ill_formed "map/flat target reference already present"
    else x :: add_target a rest

let check_arity op xs =
  match op, xs with
  | OpBin _, [ _; _ ] | (OpNot | OpIdent), [ _ ] | OpSet, _ -> ()
  | OpTuple labels, xs when List.compare_lengths labels xs = 0 -> ()
  | _ -> ill_formed "Restricted: operator arity mismatch"

let rec check_arities = function
  | Unit | Get _ | MethodSource _ -> ()
  | MapOperator (_, op, xs, s) | FlatOperator (_, op, xs, s) ->
    check_arity op xs;
    check_arities s
  | SelectCmp (_, _, _, s)
  | MapProperty (_, _, _, s)
  | MapMethod (_, _, _, _, s)
  | FlatProperty (_, _, _, s)
  | FlatMethod (_, _, _, _, s)
  | Project (_, s) ->
    check_arities s
  | NaturalJoin (s1, s2)
  | Union (s1, s2)
  | Diff (s1, s2)
  | Cross (s1, s2)
  | JoinCmp (_, _, _, s1, s2) ->
    check_arities s1;
    check_arities s2

(* [Ref(S)] in one bottom-up pass, with the side conditions the general
   algebra places on the term's translation ({!to_general}).  Always
   checked, as [General.refs] checks them: operator arities anywhere,
   equal references under union/diff, disjoint join inputs, fresh
   map/flat targets.  [~strict] adds the rest of [General.well_formed]:
   operands, receivers and join/projection references drawn from the
   input's references, and closed method sources.  Without it a
   projection's input is only checked for arities, as [General.refs]
   never looks below a projection. *)
let need ~strict refs r =
  if strict && not (List.mem r refs) then
    ill_formed "operand uses unavailable references"

let avail ~strict refs = function
  | ORef r -> need ~strict refs r
  | OConst _ | OParam _ -> ()

let rec scan ~strict t =
  match t with
  | Unit -> []
  | Get (a, _) -> [ a ]
  | MethodSource (a, _, _, xs) ->
    if strict && List.exists (function ORef _ -> true | _ -> false) xs then
      ill_formed "MethodSource expression must be closed (no references)";
    [ a ]
  | NaturalJoin (s1, s2) ->
    let r1 = scan ~strict s1 in
    union_refs ~disjoint:false r1 (scan ~strict s2)
  | Union (s1, s2) | Diff (s1, s2) ->
    let r1 = scan ~strict s1 in
    if not (List.equal String.equal r1 (scan ~strict s2)) then
      ill_formed "union/diff arguments must have equal references";
    r1
  | Cross (s1, s2) ->
    let r1 = scan ~strict s1 in
    union_refs ~disjoint:true r1 (scan ~strict s2)
  | JoinCmp (_, a1, a2, s1, s2) ->
    let r1 = scan ~strict s1 in
    let r = union_refs ~disjoint:true r1 (scan ~strict s2) in
    need ~strict r a1;
    need ~strict r a2;
    r
  | SelectCmp (_, x, y, s) ->
    let r = scan ~strict s in
    avail ~strict r x;
    avail ~strict r y;
    r
  | MapProperty (a, _, a1, s) | FlatProperty (a, _, a1, s) ->
    let r = scan ~strict s in
    let r' = add_target a r in
    need ~strict r a1;
    r'
  | MapMethod (a, _, recv, xs, s) | FlatMethod (a, _, recv, xs, s) ->
    let r = scan ~strict s in
    let r' = add_target a r in
    (match recv with RRef x -> need ~strict r x | RClass _ -> ());
    List.iter (avail ~strict r) xs;
    r'
  | MapOperator (a, op, xs, s) | FlatOperator (a, op, xs, s) ->
    check_arity op xs;
    let r = scan ~strict s in
    let r' = add_target a r in
    List.iter (avail ~strict r) xs;
    r'
  | Project (rs, s) ->
    if strict then (
      let r = scan ~strict s in
      if not (List.for_all (fun x -> List.mem x r) rs) then
        ill_formed "projection references not all present")
    else check_arities s;
    List.sort_uniq String.compare rs

let refs t = scan ~strict:false t

let well_formed t =
  match scan ~strict:true t with
  | r -> Ok r
  | exception Invalid_argument msg -> Error msg

(* Static typing of references, mirroring the set-lifted access
   semantics of the runtime. *)
let lifted_access prop_ty receiver_ty =
  match receiver_ty with
  | Vtype.TObj _ -> Some prop_ty
  | Vtype.TSet (Vtype.TObj _) -> (
    match prop_ty with
    | Vtype.TSet _ -> Some prop_ty
    | scalar -> Some (Vtype.TSet scalar))
  | _ -> None

let receiver_class env = function
  | RClass c -> Some (`Own c)
  | RRef r -> (
    match List.assoc_opt r env with
    | Some (Vtype.TObj c) -> Some (`Inst c)
    | Some (Vtype.TSet (Vtype.TObj c)) -> Some (`InstSet c)
    | _ -> None)

let method_return schema env recv m =
  match receiver_class env recv with
  | Some (`Own c) ->
    Option.map (fun s -> s.Schema.returns) (Schema.own_method schema ~cls:c ~meth:m)
  | Some (`Inst c) ->
    Option.map (fun s -> s.Schema.returns) (Schema.inst_method schema ~cls:c ~meth:m)
  | Some (`InstSet c) -> (
    match Schema.inst_method schema ~cls:c ~meth:m with
    | Some s -> (
      match s.Schema.returns with
      | Vtype.TSet _ as ty -> Some ty
      | scalar -> Some (Vtype.TSet scalar))
    | None -> None)
  | None -> None

let prop_type_via schema env a1 p =
  match List.assoc_opt a1 env with
  | Some (Vtype.TObj c) | Some (Vtype.TSet (Vtype.TObj c)) -> (
    match Schema.property_type schema ~cls:c ~prop:p with
    | Some ty -> lifted_access ty (List.assoc a1 env)
    | None -> None)
  | _ -> None

let operand_type env = function
  | ORef r -> List.assoc_opt r env
  | OConst v -> Vtype.of_value v
  | OParam _ -> None

let op_result_type env opname operands =
  match opname with
  | OpBin
      (Expr.Eq | Neq | Lt | Le | Gt | Ge | IsIn | IsSubset | And | Or) ->
    Some Vtype.TBool
  | OpNot -> Some Vtype.TBool
  | OpBin Expr.Concat -> Some Vtype.TString
  | OpBin (Expr.Add | Sub | Mul | Div) -> (
    match List.filter_map (operand_type env) operands with
    | [ Vtype.TInt; Vtype.TInt ] -> Some Vtype.TInt
    | _ -> Some Vtype.TReal)
  | OpBin Expr.IndexOp -> (
    match operands with
    | x :: _ -> (
      match operand_type env x with
      | Some (Vtype.TArray elt) -> Some elt
      | Some (Vtype.TDict (_, v)) -> Some v
      | _ -> None)
    | [] -> None)
  | OpBin (Expr.UnionOp | InterOp | DiffOp) -> (
    match operands with
    | x :: _ -> operand_type env x
    | [] -> None)
  | OpIdent -> ( match operands with [ x ] -> operand_type env x | _ -> None)
  | OpTuple labels ->
    let tys = List.map (operand_type env) operands in
    if List.for_all Option.is_some tys && List.length labels = List.length tys
    then Some (Vtype.ttuple (List.map2 (fun l t -> (l, Option.get t)) labels tys))
    else None
  | OpSet -> (
    match operands with
    | x :: _ -> Option.map (fun t -> Vtype.TSet t) (operand_type env x)
    | [] -> Some (Vtype.TSet Vtype.TAnyObj))

let rec infer schema t : (string * Vtype.t) list =
  match t with
  | Unit -> []
  | Get (a, c) -> [ (a, Vtype.TObj c) ]
  | MethodSource (a, cls, m, _) -> (
    match Schema.own_method schema ~cls ~meth:m with
    | Some { Schema.returns = Vtype.TSet elt; _ } -> [ (a, elt) ]
    | _ -> [])
  | NaturalJoin (s1, s2) | Cross (s1, s2) | JoinCmp (_, _, _, s1, s2) ->
    let e1 = infer schema s1 in
    let e2 = infer schema s2 in
    e1 @ List.filter (fun (r, _) -> not (List.mem_assoc r e1)) e2
  | Union (s1, s2) | Diff (s1, s2) ->
    let e1 = infer schema s1 in
    let e2 = infer schema s2 in
    (* keep only agreeing entries *)
    List.filter
      (fun (r, ty) ->
        match List.assoc_opt r e2 with
        | Some ty' -> Vtype.equal ty ty'
        | None -> false)
      e1
  | SelectCmp (_, _, _, s) -> infer schema s
  | MapProperty (a, p, a1, s) -> (
    let env = infer schema s in
    match prop_type_via schema env a1 p with
    | Some ty -> (a, ty) :: env
    | None -> env)
  | FlatProperty (a, p, a1, s) -> (
    let env = infer schema s in
    match prop_type_via schema env a1 p with
    | Some (Vtype.TSet elt) -> (a, elt) :: env
    | _ -> env)
  | MapMethod (a, m, recv, _, s) -> (
    let env = infer schema s in
    match method_return schema env recv m with
    | Some ty -> (a, ty) :: env
    | None -> env)
  | FlatMethod (a, m, recv, _, s) -> (
    let env = infer schema s in
    match method_return schema env recv m with
    | Some (Vtype.TSet elt) -> (a, elt) :: env
    | _ -> env)
  | MapOperator (a, op, xs, s) -> (
    let env = infer schema s in
    match op_result_type env op xs with
    | Some ty -> (a, ty) :: env
    | None -> env)
  | FlatOperator (a, op, xs, s) -> (
    let env = infer schema s in
    match op_result_type env op xs with
    | Some (Vtype.TSet elt) -> (a, elt) :: env
    | _ -> env)
  | Project (rs, s) ->
    List.filter (fun (r, _) -> List.mem r rs) (infer schema s)

let methods_used t =
  let rec go acc = function
    | Unit | Get _ -> acc
    | MethodSource (_, _, m, _) -> m :: acc
    | MapMethod (_, m, _, _, s) | FlatMethod (_, m, _, _, s) -> go (m :: acc) s
    | SelectCmp (_, _, _, s)
    | MapProperty (_, _, _, s)
    | FlatProperty (_, _, _, s)
    | MapOperator (_, _, _, s)
    | FlatOperator (_, _, _, s)
    | Project (_, s) ->
      go acc s
    | NaturalJoin (s1, s2)
    | Union (s1, s2)
    | Diff (s1, s2)
    | Cross (s1, s2)
    | JoinCmp (_, _, _, s1, s2) ->
      go (go acc s1) s2
  in
  List.sort_uniq String.compare (go [] t)

let cmp_name = function
  | CEq -> "=="
  | CNeq -> "!="
  | CLt -> "<"
  | CLe -> "<="
  | CGt -> ">"
  | CGe -> ">="
  | CIsIn -> "IS-IN"
  | CIsSubset -> "IS-SUBSET"

let pp_operand ppf = function
  | ORef r -> Format.pp_print_string ppf r
  | OConst v -> Value.pp ppf v
  | OParam p -> Format.fprintf ppf "?%s" p

let pp_receiver ppf = function
  | RRef r -> Format.pp_print_string ppf r
  | RClass c -> Format.pp_print_string ppf c

let opname_str = function
  | OpBin b -> Format.asprintf "%a" Expr.pp_binop b
  | OpNot -> "NOT"
  | OpIdent -> "ident"
  | OpTuple labels -> "tuple[" ^ String.concat "," labels ^ "]"
  | OpSet -> "set"

let pp_operands ppf xs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    pp_operand ppf xs

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "unit"
  | Get (a, c) -> Format.fprintf ppf "get<%s, %s>" a c
  | NaturalJoin (s1, s2) ->
    Format.fprintf ppf "@[<v2>natural_join(@,%a,@,%a)@]" pp s1 pp s2
  | Union (s1, s2) -> Format.fprintf ppf "@[<v2>union(@,%a,@,%a)@]" pp s1 pp s2
  | Diff (s1, s2) -> Format.fprintf ppf "@[<v2>diff(@,%a,@,%a)@]" pp s1 pp s2
  | Cross (s1, s2) ->
    Format.fprintf ppf "@[<v2>join<true>(@,%a,@,%a)@]" pp s1 pp s2
  | SelectCmp (c, x, y, s) ->
    Format.fprintf ppf "@[<v2>select<%a %s %a>(@,%a)@]" pp_operand x
      (cmp_name c) pp_operand y pp s
  | JoinCmp (c, a1, a2, s1, s2) ->
    Format.fprintf ppf "@[<v2>join<%s %s %s>(@,%a,@,%a)@]" a1 (cmp_name c) a2 pp
      s1 pp s2
  | MapProperty (a, p, a1, s) ->
    Format.fprintf ppf "@[<v2>map_property<%s, %s, %s>(@,%a)@]" a p a1 pp s
  | MapMethod (a, m, r, xs, s) ->
    Format.fprintf ppf "@[<v2>map_method<%s, %s, %a, <%a>>(@,%a)@]" a m
      pp_receiver r pp_operands xs pp s
  | FlatProperty (a, p, a1, s) ->
    Format.fprintf ppf "@[<v2>flat_property<%s, %s, %s>(@,%a)@]" a p a1 pp s
  | FlatMethod (a, m, r, xs, s) ->
    Format.fprintf ppf "@[<v2>flat_method<%s, %s, %a, <%a>>(@,%a)@]" a m
      pp_receiver r pp_operands xs pp s
  | MapOperator (a, op, xs, s) ->
    Format.fprintf ppf "@[<v2>map_operator<%s, %s, %a>(@,%a)@]" a
      (opname_str op) pp_operands xs pp s
  | FlatOperator (a, op, xs, s) ->
    Format.fprintf ppf "@[<v2>flat_operator<%s, %s, %a>(@,%a)@]" a
      (opname_str op) pp_operands xs pp s
  | Project (rs, s) ->
    Format.fprintf ppf "@[<v2>project<%s>(@,%a)@]" (String.concat ", " rs) pp s
  | MethodSource (a, cls, m, xs) ->
    Format.fprintf ppf "source<%s, %s->%s(%a)>" a cls m pp_operands xs

let to_string t = Format.asprintf "%a" pp t
