open Soqm_vml
open Soqm_algebra

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type ctx = {
  store : Object_store.t;
  probe_index : cls:string -> prop:string -> Value.t -> Oid.t list option;
  probe_range :
    cls:string ->
    prop:string ->
    lo:Soqm_storage.Sorted_index.bound ->
    hi:Soqm_storage.Sorted_index.bound ->
    Oid.t list option;
  scan_cost : cls:string -> (int * int) option;
}

let basic_ctx store =
  {
    store;
    probe_index = (fun ~cls:_ ~prop:_ _ -> None);
    probe_range = (fun ~cls:_ ~prop:_ ~lo:_ ~hi:_ -> None);
    scan_cost = (fun ~cls:_ -> None);
  }

type iter = { next : unit -> Relation.tuple option; close : unit -> unit }

let counters ctx = Object_store.counters ctx.store

let eval_cmp c x y =
  try Runtime.eval_binop (Restricted.cmp_to_binop c) x y
  with Runtime.Error msg -> error "%s" msg

let eval_op op (vs : Value.t list) =
  match op, vs with
  | Restricted.OpBin b, [ x; y ] -> (
    try Runtime.eval_binop b x y with Runtime.Error msg -> error "%s" msg)
  | Restricted.OpNot, [ Value.Bool b ] -> Value.Bool (not b)
  | Restricted.OpNot, [ v ] -> error "NOT on non-boolean %s" (Value.to_string v)
  | Restricted.OpIdent, [ v ] -> v
  | Restricted.OpTuple labels, vs when List.length labels = List.length vs ->
    Value.tuple (List.map2 (fun l v -> (l, v)) labels vs)
  | Restricted.OpSet, vs -> Value.set vs
  | _ -> error "operator arity mismatch in physical plan"

let read_prop ctx p rv =
  try Runtime.access ctx.store rv p with Runtime.Error msg -> error "%s" msg

let call_meth ctx m (rv, avs) =
  try Runtime.invoke ctx.store rv m avs
  with Runtime.Error msg -> error "%s" msg

(* Memo tables cache an operator's property reads / method calls by
   receiver and argument values.  Each operator holds one table per
   worker: sharing a table across domains would race, so worker [w]
   only touches [tables.(w)]; serial execution is [jobs = 1].  Rows are
   unaffected — only a parallel run's call tallies may exceed the serial
   run's (each worker warms its own table). *)
let memo_tables ~jobs = Array.init (max 1 jobs) (fun _ -> Hashtbl.create 64)

let memoized tbl f key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f key in
    Hashtbl.replace tbl key v;
    v

(* ------------------------------------------------------------------ *)
(* Interpreted path: one canonical tuple per next(), names resolved    *)
(* with assoc lookups on every row.  Kept as the reference executor    *)
(* the batch path is property-tested against.                          *)
(* ------------------------------------------------------------------ *)

module Interpreted = struct
  let operand_value tuple = function
    | Restricted.ORef r -> (
      match Relation.Tuple.find_opt r tuple with
      | Some v -> v
      | None -> error "unbound reference %S in physical plan" r)
    | Restricted.OConst v -> v
    | Restricted.OParam p -> error "unresolved specification parameter %S" p

  let receiver_value tuple = function
    | Restricted.RRef r -> operand_value tuple (Restricted.ORef r)
    | Restricted.RClass c -> Value.Cls c

  let of_list tuples =
    let remaining = ref tuples in
    {
      next =
        (fun () ->
          match !remaining with
          | [] -> None
          | t :: rest ->
            remaining := rest;
            Some t);
      close = (fun () -> remaining := []);
    }

  let drain iter =
    let rec go acc =
      match iter.next () with None -> List.rev acc | Some t -> go (t :: acc)
    in
    let tuples = go [] in
    iter.close ();
    tuples

  (* One output tuple per input tuple, extended with [a := f tuple]. *)
  let extend ctx a f input =
    {
      next =
        (fun () ->
          match input.next () with
          | None -> None
          | Some tuple ->
            Counters.charge_tuple (counters ctx);
            Some (Relation.Tuple.insert (a, f tuple) tuple));
      close = input.close;
    }

  (* One output tuple per member of the set [f tuple]. *)
  let unnest ctx a f input =
    let pending = ref [] in
    let rec next () =
      match !pending with
      | t :: rest ->
        pending := rest;
        Counters.charge_tuple (counters ctx);
        Some t
      | [] -> (
        match input.next () with
        | None -> None
        | Some tuple ->
          (match f tuple with
          | Value.Set members ->
            pending :=
              List.map (fun v -> Relation.Tuple.insert (a, v) tuple) members
          | Value.Null -> pending := []
          | v -> error "flat operator produced non-set %s" (Value.to_string v));
          next ())
    in
    { next; close = input.close }

  (* memoized property read / method call of a tuple *)
  let prop_of ctx p a1 =
    let memo = Hashtbl.create 64 and read = read_prop ctx p in
    fun tuple -> memoized memo read (operand_value tuple (Restricted.ORef a1))

  let meth_of ctx m recv args =
    let memo = Hashtbl.create 64 and call = call_meth ctx m in
    fun tuple ->
      memoized memo call
        (receiver_value tuple recv, List.map (operand_value tuple) args)

  let rec open_plan ctx (plan : Plan.t) : iter =
    match plan with
    | Plan.Unit -> of_list [ [] ]
    | Plan.FullScan (a, cls) ->
      let oids =
        try Object_store.extent ctx.store cls
        with Invalid_argument msg -> error "%s" msg
      in
      let tuples =
        List.map
          (fun o ->
            Counters.charge_object_fetch (counters ctx);
            [ (a, Value.Obj o) ])
          oids
      in
      of_list tuples
    | Plan.IndexScan (a, cls, prop, key) -> (
      match ctx.probe_index ~cls ~prop key with
      | Some oids -> of_list (List.map (fun o -> [ (a, Value.Obj o) ]) oids)
      | None -> error "no index on %s.%s" cls prop)
    | Plan.RangeScan (a, cls, prop, lo, hi) -> (
      match ctx.probe_range ~cls ~prop ~lo ~hi with
      | Some oids -> of_list (List.map (fun o -> [ (a, Value.Obj o) ]) oids)
      | None -> error "no ordered index on %s.%s" cls prop)
    | Plan.MethodScan (a, cls, m, args) -> (
      match call_meth ctx m (Value.Cls cls, args) with
      | Value.Set members -> of_list (List.map (fun v -> [ (a, v) ]) members)
      | v ->
        error "method scan %s->%s produced non-set %s" cls m (Value.to_string v))
    | Plan.Filter (c, x, y, input) ->
      let input = open_plan ctx input in
      let rec next () =
        match input.next () with
        | None -> None
        | Some tuple ->
          if
            Value.truthy
              (eval_cmp c (operand_value tuple x) (operand_value tuple y))
          then (
            Counters.charge_tuple (counters ctx);
            Some tuple)
          else next ()
      in
      { next; close = input.close }
    | Plan.NestedLoop (pred, left, right) ->
      let left = open_plan ctx left in
      let right_tuples = lazy (drain (open_plan ctx right)) in
      let current = ref None in
      let remaining = ref [] in
      let rec next () =
        match !remaining with
        | rt :: rest -> (
          remaining := rest;
          match !current with
          | None -> next ()
          | Some lt ->
            let merged = Relation.Tuple.merge_sorted lt rt in
            let keep =
              match pred with
              | None -> true
              | Some (c, a1, a2) ->
                Value.truthy
                  (eval_cmp c
                     (operand_value merged (Restricted.ORef a1))
                     (operand_value merged (Restricted.ORef a2)))
            in
            if keep then (
              Counters.charge_tuple (counters ctx);
              Some merged)
            else next ())
        | [] -> (
          match left.next () with
          | None -> None
          | Some lt ->
            current := Some lt;
            remaining := Lazy.force right_tuples;
            next ())
      in
      { next; close = left.close }
    | Plan.HashJoin (a1, a2, left, right) ->
      (* equi-join: Null keys never match (DESIGN.md §7), so they are
         skipped on both the build and the probe side — mirroring the
         logical evaluator's hash equi-join fast path. *)
      let left = open_plan ctx left in
      let table =
        lazy
          (let tbl = Hashtbl.create 256 in
           List.iter
             (fun rt ->
               match operand_value rt (Restricted.ORef a2) with
               | Value.Null -> ()
               | key -> Hashtbl.add tbl key rt)
             (drain (open_plan ctx right));
           tbl)
      in
      let pending = ref [] in
      let rec next () =
        match !pending with
        | t :: rest ->
          pending := rest;
          Counters.charge_tuple (counters ctx);
          Some t
        | [] -> (
          match left.next () with
          | None -> None
          | Some lt ->
            (match operand_value lt (Restricted.ORef a1) with
            | Value.Null -> pending := []
            | key ->
              pending :=
                List.map
                  (fun rt -> Relation.Tuple.merge_sorted lt rt)
                  (Hashtbl.find_all (Lazy.force table) key));
            next ())
      in
      { next; close = left.close }
    | Plan.NaturalJoin (left_plan, right_plan) ->
      let left = open_plan ctx left_plan in
      let shared =
        List.filter
          (fun r -> List.mem r (Plan.refs right_plan))
          (Plan.refs left_plan)
      in
      let table =
        lazy
          (let tbl = Relation.KeyTbl.create 256 in
           List.iter
             (fun rt ->
               let key = Relation.Tuple.key shared rt in
               match Relation.KeyTbl.find_opt tbl key with
               | Some prev -> Relation.KeyTbl.replace tbl key (rt :: prev)
               | None -> Relation.KeyTbl.add tbl key [ rt ])
             (drain (open_plan ctx right_plan));
           tbl)
      in
      let pending = ref [] in
      let rec next () =
        match !pending with
        | t :: rest ->
          pending := rest;
          Counters.charge_tuple (counters ctx);
          Some t
        | [] -> (
          match left.next () with
          | None -> None
          | Some lt ->
            let key = Relation.Tuple.key shared lt in
            let matches =
              Option.value ~default:[]
                (Relation.KeyTbl.find_opt (Lazy.force table) key)
            in
            pending :=
              List.map (fun rt -> Relation.Tuple.merge_sorted lt rt) matches;
            next ())
      in
      { next; close = left.close }
    | Plan.Union (left, right) ->
      let left = open_plan ctx left in
      let right = lazy (open_plan ctx right) in
      let on_right = ref false in
      let rec next () =
        if !on_right then (Lazy.force right).next ()
        else
          match left.next () with
          | Some t -> Some t
          | None ->
            on_right := true;
            next ()
      in
      {
        next;
        close =
          (fun () ->
            left.close ();
            if Lazy.is_val right then (Lazy.force right).close ());
      }
    | Plan.Diff (left, right) ->
      let left = open_plan ctx left in
      let excluded =
        lazy
          (let tbl = Relation.Tbl.create 256 in
           List.iter
             (fun t -> Relation.Tbl.replace tbl t ())
             (drain (open_plan ctx right));
           tbl)
      in
      let rec next () =
        match left.next () with
        | None -> None
        | Some t ->
          if Relation.Tbl.mem (Lazy.force excluded) t then next () else Some t
      in
      { next; close = left.close }
    | Plan.MapProp (a, p, a1, input) ->
      extend ctx a (prop_of ctx p a1) (open_plan ctx input)
    | Plan.MapMeth (a, m, recv, args, input) ->
      extend ctx a (meth_of ctx m recv args) (open_plan ctx input)
    | Plan.FlatProp (a, p, a1, input) ->
      unnest ctx a (prop_of ctx p a1) (open_plan ctx input)
    | Plan.FlatMeth (a, m, recv, args, input) ->
      unnest ctx a (meth_of ctx m recv args) (open_plan ctx input)
    | Plan.MapOp (a, op, xs, input) ->
      extend ctx a
        (fun tuple -> eval_op op (List.map (operand_value tuple) xs))
        (open_plan ctx input)
    | Plan.FlatOp (a, op, xs, input) ->
      unnest ctx a
        (fun tuple -> eval_op op (List.map (operand_value tuple) xs))
        (open_plan ctx input)
    | Plan.Project (rs, input) ->
      let rs = List.sort_uniq String.compare rs in
      let input = open_plan ctx input in
      let seen = Relation.Tbl.create 256 in
      let rec next () =
        match input.next () with
        | None -> None
        | Some tuple ->
          let projected = Relation.Tuple.project rs tuple in
          if Relation.Tbl.mem seen projected then next ()
          else (
            Relation.Tbl.replace seen projected ();
            Counters.charge_tuple (counters ctx);
            Some projected)
      in
      { next; close = input.close }

  let run ctx plan =
    let iter = open_plan ctx plan in
    let tuples = drain iter in
    Relation.make ~refs:(Plan.refs plan) tuples
end

(* ------------------------------------------------------------------ *)
(* Batch path: rows are [Value.t array]s indexed by compile-time       *)
(* slots, produced a block at a time.  The per-row loops below do      *)
(* integer indexing and array blits only — every name was resolved     *)
(* when the plan was compiled.                                         *)
(* ------------------------------------------------------------------ *)

(* 128 rows per block: the largest power of two for which a block's
   backing array (rows + header) still fits OCaml's minor heap
   allocation limit (Max_young_wosize = 256 words).  Bigger blocks are
   allocated directly on the major heap, where every stored row pointer
   pays a write barrier and the block itself drives major-GC marking —
   measured at 2-3x the per-row cost of the whole kernel. *)
let block_size = 128

type biter = {
  next_block : unit -> Relation.Row.t array option;
  close_blocks : unit -> unit;
}

type node_stats = {
  node_rows : int array;
  node_blocks : int array;
  node_morsels : int array;
  node_partitions : int array;
  node_pages : int array;
  node_bytes : int array;
}

let make_stats c =
  let n = Plan.node_count c in
  {
    node_rows = Array.make n 0;
    node_blocks = Array.make n 0;
    node_morsels = Array.make n 0;
    node_partitions = Array.make n 0;
    node_pages = Array.make n 0;
    node_bytes = Array.make n 0;
  }

(* -- row kernels ---------------------------------------------------- *)

let insert_row (row : Value.t array) at v =
  let w = Array.length row in
  let out = Array.make (w + 1) v in
  Array.blit row 0 out 0 at;
  Array.blit row at out (at + 1) (w - at);
  out

(* [Array.make] + [Array.blit] cost ~30ns per row (C calls), an order of
   magnitude more than the cons cells the interpreted executor allocates
   inline.  Since every operator's input width is fixed at compile time,
   the hot small widths are specialized to array literals — inline
   allocation with initializing stores, no write barrier — and only wide
   rows fall back to the generic blit path. *)
let make_inserter ~at ~width : Relation.Row.t -> Value.t -> Relation.Row.t =
  match width, at with
  | 0, _ -> fun _ v -> [| v |]
  | 1, 0 -> fun r v -> [| v; r.(0) |]
  | 1, _ -> fun r v -> [| r.(0); v |]
  | 2, 0 -> fun r v -> [| v; r.(0); r.(1) |]
  | 2, 1 -> fun r v -> [| r.(0); v; r.(1) |]
  | 2, _ -> fun r v -> [| r.(0); r.(1); v |]
  | 3, 0 -> fun r v -> [| v; r.(0); r.(1); r.(2) |]
  | 3, 1 -> fun r v -> [| r.(0); v; r.(1); r.(2) |]
  | 3, 2 -> fun r v -> [| r.(0); r.(1); v; r.(2) |]
  | 3, _ -> fun r v -> [| r.(0); r.(1); r.(2); v |]
  | 4, 0 -> fun r v -> [| v; r.(0); r.(1); r.(2); r.(3) |]
  | 4, 1 -> fun r v -> [| r.(0); v; r.(1); r.(2); r.(3) |]
  | 4, 2 -> fun r v -> [| r.(0); r.(1); v; r.(2); r.(3) |]
  | 4, 3 -> fun r v -> [| r.(0); r.(1); r.(2); v; r.(3) |]
  | 4, _ -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); v |]
  | 5, 0 -> fun r v -> [| v; r.(0); r.(1); r.(2); r.(3); r.(4) |]
  | 5, 1 -> fun r v -> [| r.(0); v; r.(1); r.(2); r.(3); r.(4) |]
  | 5, 2 -> fun r v -> [| r.(0); r.(1); v; r.(2); r.(3); r.(4) |]
  | 5, 3 -> fun r v -> [| r.(0); r.(1); r.(2); v; r.(3); r.(4) |]
  | 5, 4 -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); v; r.(4) |]
  | 5, _ -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); r.(4); v |]
  | 6, 0 -> fun r v -> [| v; r.(0); r.(1); r.(2); r.(3); r.(4); r.(5) |]
  | 6, 1 -> fun r v -> [| r.(0); v; r.(1); r.(2); r.(3); r.(4); r.(5) |]
  | 6, 2 -> fun r v -> [| r.(0); r.(1); v; r.(2); r.(3); r.(4); r.(5) |]
  | 6, 3 -> fun r v -> [| r.(0); r.(1); r.(2); v; r.(3); r.(4); r.(5) |]
  | 6, 4 -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); v; r.(4); r.(5) |]
  | 6, 5 -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); r.(4); v; r.(5) |]
  | 6, _ -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); r.(4); r.(5); v |]
  | _ -> fun r v -> insert_row r at v

(* Replay a signed merge plan: [i >= 0] copies [l.(i)], [i < 0] copies
   [r.(-i - 1)] — see {!Relation.Layout.merge_plan}. *)
let merge_rows (plan : int array) (l : Value.t array) (r : Value.t array) =
  let w = Array.length plan in
  let out = Array.make w Value.Null in
  for i = 0 to w - 1 do
    let s = plan.(i) in
    out.(i) <- (if s >= 0 then l.(s) else r.(-s - 1))
  done;
  out

(* One side-resolved getter per output slot; widths up to 4 build the
   merged row as a literal. *)
let make_merger (plan : int array) =
  let g s : Relation.Row.t -> Relation.Row.t -> Value.t =
    if s >= 0 then fun l _ -> l.(s)
    else
      let j = -s - 1 in
      fun _ r -> r.(j)
  in
  match Array.map g plan with
  | [| a |] -> fun l r -> [| a l r |]
  | [| a; b |] -> fun l r -> [| a l r; b l r |]
  | [| a; b; c |] -> fun l r -> [| a l r; b l r; c l r |]
  | [| a; b; c; d |] -> fun l r -> [| a l r; b l r; c l r; d l r |]
  | [| a; b; c; d; e |] -> fun l r -> [| a l r; b l r; c l r; d l r; e l r |]
  | [| a; b; c; d; e; f |] ->
    fun l r -> [| a l r; b l r; c l r; d l r; e l r; f l r |]
  | [| a; b; c; d; e; f; g |] ->
    fun l r -> [| a l r; b l r; c l r; d l r; e l r; f l r; g l r |]
  | [| a; b; c; d; e; f; g; h |] ->
    fun l r -> [| a l r; b l r; c l r; d l r; e l r; f l r; g l r; h l r |]
  | _ -> fun l r -> merge_rows plan l r

let copy_row (srcs : int array) (row : Value.t array) =
  let w = Array.length srcs in
  if w = 0 then [||]
  else begin
    let out = Array.make w Value.Null in
    for i = 0 to w - 1 do
      out.(i) <- row.(srcs.(i))
    done;
    out
  end

let make_copier (srcs : int array) : Relation.Row.t -> Relation.Row.t =
  match srcs with
  | [||] -> fun _ -> [||]
  | [| a |] -> fun r -> [| r.(a) |]
  | [| a; b |] -> fun r -> [| r.(a); r.(b) |]
  | [| a; b; c |] -> fun r -> [| r.(a); r.(b); r.(c) |]
  | [| a; b; c; d |] -> fun r -> [| r.(a); r.(b); r.(c); r.(d) |]
  | [| a; b; c; d; e |] -> fun r -> [| r.(a); r.(b); r.(c); r.(d); r.(e) |]
  | [| a; b; c; d; e; f |] ->
    fun r -> [| r.(a); r.(b); r.(c); r.(d); r.(e); r.(f) |]
  | [| a; b; c; d; e; f; g |] ->
    fun r -> [| r.(a); r.(b); r.(c); r.(d); r.(e); r.(f); r.(g) |]
  | [| a; b; c; d; e; f; g; h |] ->
    fun r -> [| r.(a); r.(b); r.(c); r.(d); r.(e); r.(f); r.(g); r.(h) |]
  | _ -> fun r -> copy_row srcs r

(* Growable row buffer for kernels whose output cardinality is not
   known up front (joins, flattens). *)
module Rowbuf = struct
  type t = { mutable rows : Relation.Row.t array; mutable n : int }

  let create () = { rows = Array.make 64 [||]; n = 0 }

  let push b row =
    let cap = Array.length b.rows in
    if b.n = cap then begin
      let grown = Array.make (2 * cap) [||] in
      Array.blit b.rows 0 grown 0 b.n;
      b.rows <- grown
    end;
    b.rows.(b.n) <- row;
    b.n <- b.n + 1

  let contents b =
    if b.n = Array.length b.rows then b.rows else Array.sub b.rows 0 b.n
end

let slot_getter = function
  | Plan.SSlot i -> fun (row : Value.t array) -> row.(i)
  | Plan.SConst v -> fun _ -> v

let receiver_getter = function
  | Plan.RSlot i -> fun (row : Value.t array) -> row.(i)
  | Plan.RClassObj c ->
    let v = Value.Cls c in
    fun _ -> v

(* Build the operand list of a row without intermediate arrays. *)
let args_of getters (row : Relation.Row.t) =
  let rec go i =
    if i >= Array.length getters then [] else getters.(i) row :: go (i + 1)
  in
  go 0

(* Specialize an operator application at open time: the common arities
   dispatch straight to the kernel, skipping per-row operand lists. *)
let op_applier op (args : Plan.slot_operand array) : Relation.Row.t -> Value.t =
  let getters = Array.map slot_getter args in
  match op, getters with
  | Restricted.OpIdent, [| g |] -> g
  | Restricted.OpBin b, [| gx; gy |] ->
    fun row -> (
      try Runtime.eval_binop b (gx row) (gy row)
      with Runtime.Error msg -> error "%s" msg)
  | _ -> fun row -> eval_op op (args_of getters row)

(* A method call per row, receiver and arguments resolved at open time,
   memoized in worker [w]'s table. *)
let meth_applier ctx ~jobs m recv args =
  let memos = memo_tables ~jobs and call = call_meth ctx m in
  let grecv = receiver_getter recv in
  let getters = Array.map slot_getter args in
  fun w (row : Relation.Row.t) ->
    memoized memos.(w) call (grecv row, args_of getters row)

(* -- fused kernels --------------------------------------------------- *)

(* Compile a fused chain's steps into per-row register kernels: each
   step reads/writes the register buffer in place and reports whether
   the row survives (filters short-circuit the rest of the chain).
   Registers are plain [Value.t array]s, so the slot/receiver getters
   apply unchanged. *)
let fused_steps_of ctx ~jobs (f : Plan.fused) :
    (w:int -> Value.t array -> bool) array =
  Array.map
    (fun (step : Plan.fstep) ->
      match step with
      | Plan.FFilter (cmp, x, y) ->
        (* operands resolved at compile time: the hot slot/const shapes
           index the registers directly instead of paying an unknown
           getter call per operand per row *)
        (match x, y with
        | Plan.SSlot i, Plan.SSlot j ->
          fun ~w:_ regs -> Value.truthy (eval_cmp cmp regs.(i) regs.(j))
        | Plan.SSlot i, Plan.SConst v ->
          fun ~w:_ regs -> Value.truthy (eval_cmp cmp regs.(i) v)
        | Plan.SConst v, Plan.SSlot j ->
          fun ~w:_ regs -> Value.truthy (eval_cmp cmp v regs.(j))
        | Plan.SConst u, Plan.SConst v ->
          fun ~w:_ _ -> Value.truthy (eval_cmp cmp u v))
      | Plan.FProp (r, p, recv) ->
        let memos = memo_tables ~jobs and read = read_prop ctx p in
        fun ~w regs ->
          regs.(r) <- memoized memos.(w) read regs.(recv);
          true
      | Plan.FMeth (r, m, recv, args) ->
        let call = meth_applier ctx ~jobs m recv args in
        fun ~w regs ->
          regs.(r) <- call w regs;
          true
      | Plan.FOp (r, op, xs) ->
        (* same direct-indexing specialization for the common arities *)
        (match op, xs with
        | Restricted.OpIdent, [| Plan.SSlot i |] ->
          fun ~w:_ regs ->
            regs.(r) <- regs.(i);
            true
        | Restricted.OpIdent, [| Plan.SConst v |] ->
          fun ~w:_ regs ->
            regs.(r) <- v;
            true
        | Restricted.OpBin b, [| Plan.SSlot i; Plan.SSlot j |] ->
          fun ~w:_ regs ->
            regs.(r) <-
              (try Runtime.eval_binop b regs.(i) regs.(j)
               with Runtime.Error msg -> error "%s" msg);
            true
        | Restricted.OpBin b, [| Plan.SSlot i; Plan.SConst v |] ->
          fun ~w:_ regs ->
            regs.(r) <-
              (try Runtime.eval_binop b regs.(i) v
               with Runtime.Error msg -> error "%s" msg);
            true
        | Restricted.OpBin b, [| Plan.SConst v; Plan.SSlot j |] ->
          fun ~w:_ regs ->
            regs.(r) <-
              (try Runtime.eval_binop b v regs.(j)
               with Runtime.Error msg -> error "%s" msg);
            true
        | _ ->
          let apply = op_applier op xs in
          fun ~w:_ regs ->
            regs.(r) <- apply regs;
            true))
    f.Plan.fsteps

(* Whether the fused output row is the whole register file in order.
   True for every chain not topped by a projection (the output layout
   is a permutation of the registers; identity iff each map's sorted
   layout position happened to match its step order) — then the per-row
   register buffer doubles as the output row and there is no copy-out.
   For a pure selection chain ([fregs = fin_width]) it means surviving
   input rows pass through untouched. *)
let fused_out_is_regs (f : Plan.fused) =
  Array.length f.Plan.fout = f.Plan.fregs
  &&
  let ok = ref true in
  Array.iteri (fun i s -> if s <> i then ok := false) f.Plan.fout;
  !ok

(* Seed a fused chain's register file from the input row: registers
   0..fin_width-1 hold the row's slots, map targets start Null.  A
   fresh buffer per row, for the same reason [make_inserter] builds
   literals: a young block whose initializing stores skip the write
   barrier, so the steps' register stores all take the barrier's
   minor-heap quick path.  (The obvious alternative — one long-lived
   scratch buffer reused across rows — makes every register store an
   old-heap [caml_modify] that grows the remembered set, and measures
   ~40% slower than the unfused operators fusion replaces.)  Hot
   shapes are literals; wide register files fall back to
   [Array.make]/[Array.blit]. *)
let make_seeder ~fin_width ~fregs : Relation.Row.t -> Relation.Row.t =
  let o = Value.Null in
  match fin_width, fregs - fin_width with
  | _, 0 ->
    (* pure selection chain: no step writes, the row is the register
       file *)
    Fun.id
  | 1, 1 -> fun r -> [| r.(0); o |]
  | 1, 2 -> fun r -> [| r.(0); o; o |]
  | 1, 3 -> fun r -> [| r.(0); o; o; o |]
  | 1, 4 -> fun r -> [| r.(0); o; o; o; o |]
  | 1, 5 -> fun r -> [| r.(0); o; o; o; o; o |]
  | 1, 6 -> fun r -> [| r.(0); o; o; o; o; o; o |]
  | 2, 1 -> fun r -> [| r.(0); r.(1); o |]
  | 2, 2 -> fun r -> [| r.(0); r.(1); o; o |]
  | 2, 3 -> fun r -> [| r.(0); r.(1); o; o; o |]
  | 2, 4 -> fun r -> [| r.(0); r.(1); o; o; o; o |]
  | 3, 1 -> fun r -> [| r.(0); r.(1); r.(2); o |]
  | 3, 2 -> fun r -> [| r.(0); r.(1); r.(2); o; o |]
  | 3, 3 -> fun r -> [| r.(0); r.(1); r.(2); o; o; o |]
  | 4, 1 -> fun r -> [| r.(0); r.(1); r.(2); r.(3); o |]
  | 4, 2 -> fun r -> [| r.(0); r.(1); r.(2); r.(3); o; o |]
  | _ ->
    fun r ->
      let s = Array.make fregs o in
      Array.blit r 0 s 0 fin_width;
      s

(* Rejection marker for the row kernels: one static block, physically
   distinct from every row a kernel builds or passes through (zero-width
   rows included).  Returning it instead of [None] keeps the
   surviving-row path free of option boxing. *)
let rejected : Relation.Row.t = [| Value.Null |]

(* Top-level, not nested below: a nested [let rec] would capture its
   environment and heap-allocate one closure per row. *)
let rec run_steps (steps : (w:int -> Value.t array -> bool) array) ~w regs i n
    =
  i >= n || (steps.(i) ~w regs && run_steps steps ~w regs (i + 1) n)

(* Collapse the step array into one conjunction at open time: short
   chains — the common case — dispatch each step from a register of the
   caller, with no per-row array indexing or loop bookkeeping. *)
let step_runner (steps : (w:int -> Value.t array -> bool) array) :
    w:int -> Value.t array -> bool =
  match steps with
  | [| a |] -> a
  | [| a; b |] -> fun ~w regs -> a ~w regs && b ~w regs
  | [| a; b; c |] -> fun ~w regs -> a ~w regs && b ~w regs && c ~w regs
  | [| a; b; c; d |] ->
    fun ~w regs -> a ~w regs && b ~w regs && c ~w regs && d ~w regs
  | [| a; b; c; d; e |] ->
    fun ~w regs ->
      a ~w regs && b ~w regs && c ~w regs && d ~w regs && e ~w regs
  | [| a; b; c; d; e; f |] ->
    fun ~w regs ->
      a ~w regs && b ~w regs && c ~w regs && d ~w regs && e ~w regs
      && f ~w regs
  | _ -> fun ~w regs -> run_steps steps ~w regs 0 (Array.length steps)

(* -- block kernels --------------------------------------------------- *)

(* A kernel maps one block of input rows to its output rows.  [w] is
   the calling worker (0 under serial execution) and only selects memo
   tables, so the serial and parallel drivers below run the very same
   kernels. *)
type kernel = w:int -> Relation.Row.t array -> Relation.Row.t array

let pass ~w:_ x = x

(* Keep-subset kernel of filter, diff, fused chains and dedup: [f] maps
   each row to its output row or to [rejected]. *)
let keeping f : kernel =
 fun ~w rows ->
  let n = Array.length rows in
  let buf = Array.make n [||] in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let out = f ~w rows.(i) in
    if out != rejected then begin
      buf.(!k) <- out;
      incr k
    end
  done;
  if !k = n then buf else Array.sub buf 0 !k

(* One output row per member of the set [f w row], inserted via [ins]. *)
let flattening ins f : kernel =
 fun ~w rows ->
  let f = f w in
  let acc = Rowbuf.create () in
  for i = 0 to Array.length rows - 1 do
    let row = rows.(i) in
    match f row with
    | Value.Set members ->
      List.iter (fun v -> Rowbuf.push acc (ins row v)) members
    | Value.Null -> ()
    | v -> error "flat operator produced non-set %s" (Value.to_string v)
  done;
  Rowbuf.contents acc

(* The nested-loop kernel: every pair of a left row of the block and a
   right row, in left-major order, through [pair]. *)
let crossing pair (rrows : Relation.Row.t array) : kernel =
 fun ~w:_ lrows ->
  let acc = Rowbuf.create () in
  Array.iter
    (fun l ->
      Array.iter
        (fun r ->
          let merged = pair l r in
          if merged != rejected then Rowbuf.push acc merged)
        rrows)
    lrows;
  Rowbuf.contents acc

(* The two key shapes of the hash kernels: one column keyed by the
   value itself (the generic [Hashtbl]), or several keyed by a row.
   [hash] also picks a key's build partition. *)
module type KEYED = sig
  type key
  type 'a t

  val create : int -> 'a t
  val find_opt : 'a t -> key -> 'a option
  val replace : 'a t -> key -> 'a -> unit
  val mem : 'a t -> key -> bool
  val add : 'a t -> key -> 'a -> unit
  val hash : key -> int
end

module ValKeys = struct
  type key = Value.t
  type 'a t = (key, 'a) Hashtbl.t

  let create n : 'a t = Hashtbl.create n
  let find_opt = Hashtbl.find_opt
  let replace = Hashtbl.replace
  let mem = Hashtbl.mem
  let add = Hashtbl.add
  let hash = Hashtbl.hash
end

module RowKeys = struct
  include Relation.RowTbl

  let hash = Relation.Row.hash
end

(* How a materialized build side becomes hash tables: [partition rows
   hash build] returns one table per partition, each built by [build]
   from its rows in build-input order.  Serial execution builds one
   table; the parallel driver partitions large build sides. *)
type partitioner = {
  partition :
    'tbl.
    Relation.Row.t array ->
    (Relation.Row.t -> int) ->
    (Relation.Row.t array -> 'tbl) ->
    'tbl array;
}

let one_table = { partition = (fun rows _ build -> [| build rows |]) }

(* The partition of a key hash among [nparts] (a power of two).  Each
   partition's table buckets on the hash's low bits, so the partition
   must come from other bits, or every table would fill only
   1/[nparts] of its buckets: take bits 32 and up of a multiplicative
   (Fibonacci) mix, which depend on every hash bit below them. *)
let partition_of nparts h = ((h * 0x9E3779B97F4A7C1) lsr 32) land (nparts - 1)

(* Build [rows] into tables keyed by [key], leaving out rows whose key
   fails [valid]; return the partition count and the probe lookup.
   Match lists come out in build-input order (reverse iteration +
   prepend).  A single table is probed directly, so an unpartitioned
   probe hashes its key once. *)
let hash_build (type k) (module T : KEYED with type key = k) part
    ~(key : Relation.Row.t -> k) ~valid rows =
  let build rows =
    (* sized to the build side up front: growing a hashtable rehashes
       every entry, roughly doubling build cost *)
    let tbl = T.create (max 16 (Array.length rows)) in
    for i = Array.length rows - 1 downto 0 do
      let row = rows.(i) in
      let k = key row in
      if valid k then
        T.replace tbl k
          (row :: (match T.find_opt tbl k with Some prev -> prev | None -> []))
    done;
    tbl
  in
  let tables = part.partition rows (fun row -> T.hash (key row)) build in
  let find =
    match tables with
    | [| t |] -> fun k -> T.find_opt t k
    | _ ->
      let nparts = Array.length tables in
      fun k -> T.find_opt tables.(partition_of nparts (T.hash k)) k
  in
  (Array.length tables, find)

(* The equi- and natural-join kernel: each left row whose key is
   [valid] merges with its build-side matches in build-input order. *)
let hash_join (type k) (module T : KEYED with type key = k) ~key_l ~key_r
    ~valid merge part rrows : int * kernel =
  let parts, find = hash_build (module T) part ~key:key_r ~valid rrows in
  let merged_of = make_merger merge in
  ( parts,
    fun ~w:_ lrows ->
      let acc = Rowbuf.create () in
      for i = 0 to Array.length lrows - 1 do
        let lrow = lrows.(i) in
        let k = key_l lrow in
        if valid k then
          match find k with
          | None -> ()
          | Some matches ->
            List.iter (fun rrow -> Rowbuf.push acc (merged_of lrow rrow)) matches
      done;
      Rowbuf.contents acc )

(* -- operators ------------------------------------------------------- *)

(* What one compiled operator contributes, independent of the driver
   that runs it (serial block pull or parallel morsel push). *)
type op =
  | Leaf : {
      items : 'a list;
      row : 'a -> Relation.Row.t;
      fetch : bool;  (** charge one object fetch per item *)
    }
      -> op  (** scans: one row per item *)
  | Stream : {
      input : Plan.compiled;
      charge : bool;  (** outputs count as produced tuples *)
      run : kernel;
    }
      -> op  (** a per-block kernel over the input *)
  | Probe : {
      probe : Plan.compiled;
      build : Plan.compiled;
      charge : bool;
      prepare : partitioner -> Relation.Row.t array -> int * kernel;
          (** materialized build side -> (partitions, probe kernel) *)
    }
      -> op  (** joins and diff *)
  | Dedup : {
      input : Plan.compiled;
      fresh : unit -> kernel;  (** a kernel with its own, empty seen table *)
      merge : Relation.Row.t array -> Relation.Row.t array;
          (** dedup rows that [fresh] kernels emitted *)
    }
      -> op  (** projections and fused chains that drop duplicates *)
  | Cross : {
      left : Plan.compiled;
      right : Plan.compiled;
      pair : Relation.Row.t -> Relation.Row.t -> Relation.Row.t;
          (** the merged row, or [rejected] *)
    }
      -> op  (** nested loop; the right side is materialized *)
  | Concat : Plan.compiled * Plan.compiled -> op  (** union *)

(* First-occurrence dedup of the [srcs] columns of each input row — or,
   with [pre] (a fused chain), of each row [pre] does not reject.
   Merging kernel outputs in input order keeps exactly the first
   occurrences one table over the whole input would: the survivors and
   their order are the serial ones. *)
let dedup ~input ~pre (srcs : int array) =
  let first (type k) (module T : KEYED with type key = k) pre
      ~(key : Relation.Row.t -> k) ~out () =
    let seen = T.create 256 in
    let keep r =
      let k = key r in
      if T.mem seen k then rejected
      else begin
        (* [add], not [replace]: the membership check just ran *)
        T.add seen k ();
        out k
      end
    in
    match pre with
    | None -> keeping (fun ~w:_ row -> keep row)
    | Some pre ->
      keeping (fun ~w row ->
          let r = pre ~w row in
          if r == rejected then r else keep r)
  in
  match srcs with
  | [| src |] ->
    (* one column: keyed by the value itself, no per-row key array *)
    let out v = [| v |] in
    Dedup
      {
        input;
        fresh = first (module ValKeys) pre ~key:(fun r -> r.(src)) ~out;
        merge = first (module ValKeys) None ~key:(fun r -> r.(0)) ~out () ~w:0;
      }
  | _ ->
    Dedup
      {
        input;
        fresh = first (module RowKeys) pre ~key:(make_copier srcs) ~out:Fun.id;
        merge = first (module RowKeys) None ~key:Fun.id ~out:Fun.id () ~w:0;
      }

(* Open one operator: resolve its kernels (memo tables sized for [jobs]
   workers) and run its leaf access — extent, index probe, method scan
   — whose disk traffic lands in [stats]. *)
let op_of ~stats ctx ~jobs (c : Plan.compiled) : op =
  let cid = c.Plan.cid in
  let objects ~fetch oids =
    Leaf { items = oids; row = (fun o -> [| Value.Obj o |]); fetch }
  in
  (* per-row value functions, staged by worker: [f w] is applied once
     per block, so the per-row calls take one argument *)
  let prop p recv =
    let memos = memo_tables ~jobs and read = read_prop ctx p in
    fun w ->
      let tbl = memos.(w) in
      fun (row : Relation.Row.t) -> memoized tbl read row.(recv)
  in
  let apply_op o args =
    let apply = op_applier o args in
    fun _ -> apply
  in
  let inserter at (input : Plan.compiled) =
    make_inserter ~at ~width:(Relation.Layout.width input.Plan.layout)
  in
  let map at input f =
    let ins = inserter at input in
    Stream
      {
        input;
        charge = true;
        run =
          (fun ~w rows ->
            let f = f w in
            Array.map (fun row -> ins row (f row)) rows);
      }
  in
  let flat at input f =
    Stream { input; charge = true; run = flattening (inserter at input) f }
  in
  let join left right prepare =
    Probe { probe = left; build = right; charge = true; prepare }
  in
  match c.Plan.cop with
  | Plan.CUnit -> Leaf { items = [ () ]; row = (fun () -> [||]); fetch = false }
  | Plan.CFullScan cls ->
    let oids =
      try Object_store.extent ctx.store cls
      with Invalid_argument msg -> error "%s" msg
    in
    (* an attached disk store drives the scan's traffic model through
       its buffer pool (charging pool counters) and reports the pages
       touched and bytes decoded — whole pages for a row-slotted class,
       chunk metadata for a columnar one *)
    (match ctx.scan_cost ~cls, stats with
    | Some (pages, bytes), Some s ->
      s.node_pages.(cid) <- s.node_pages.(cid) + pages;
      s.node_bytes.(cid) <- s.node_bytes.(cid) + bytes
    | _ -> ());
    objects ~fetch:true oids
  | Plan.CIndexScan (cls, prop, key) -> (
    match ctx.probe_index ~cls ~prop key with
    | Some oids -> objects ~fetch:false oids
    | None -> error "no index on %s.%s" cls prop)
  | Plan.CRangeScan (cls, prop, lo, hi) -> (
    match ctx.probe_range ~cls ~prop ~lo ~hi with
    | Some oids -> objects ~fetch:false oids
    | None -> error "no ordered index on %s.%s" cls prop)
  | Plan.CMethodScan (cls, m, args) -> (
    match call_meth ctx m (Value.Cls cls, args) with
    | Value.Set members ->
      Leaf { items = members; row = (fun v -> [| v |]); fetch = false }
    | v ->
      error "method scan %s->%s produced non-set %s" cls m (Value.to_string v))
  | Plan.CFilter (cmp, x, y, input) ->
    let gx = slot_getter x and gy = slot_getter y in
    Stream
      {
        input;
        charge = true;
        run =
          keeping (fun ~w:_ row ->
              if Value.truthy (eval_cmp cmp (gx row) (gy row)) then row
              else rejected);
      }
  | Plan.CNestedLoop (pred, merge, left, right) ->
    let merged_of = make_merger merge in
    let pair =
      match pred with
      | None -> merged_of
      | Some (cmp, i, j) ->
        fun l r ->
          let merged = merged_of l r in
          if Value.truthy (eval_cmp cmp merged.(i) merged.(j)) then merged
          else rejected
    in
    Cross { left; right; pair }
  | Plan.CHashJoin (ls, rs, merge, left, right) ->
    (* Null keys never match (DESIGN.md §7): skipped on build and probe,
       exactly like the interpreted executor *)
    join left right
      (hash_join (module ValKeys)
         ~key_l:(fun r -> r.(ls))
         ~key_r:(fun r -> r.(rs))
         ~valid:(function Value.Null -> false | _ -> true)
         merge)
  | Plan.CNaturalJoin ([| il |], [| ir |], merge, left, right) ->
    (* one shared column: keyed by the value itself (structural match,
       so Nulls {e do} join — unlike the equi-join above) *)
    join left right
      (hash_join (module ValKeys)
         ~key_l:(fun r -> r.(il))
         ~key_r:(fun r -> r.(ir))
         ~valid:(fun _ -> true)
         merge)
  | Plan.CNaturalJoin (kl, kr, merge, left, right) ->
    (* structural match on the shared columns: Nulls {e do} match,
       mirroring KeyTbl-based natural join / intersection *)
    join left right
      (hash_join (module RowKeys) ~key_l:(make_copier kl)
         ~key_r:(make_copier kr) ~valid:(fun _ -> true) merge)
  | Plan.CUnion (left, right) -> Concat (left, right)
  | Plan.CDiff (left, right) ->
    Probe
      {
        probe = left;
        build = right;
        charge = false;
        prepare =
          (fun part rrows ->
            (* an empty exclusion set (constant-false restrictions are a
               common rewriting residue) makes diff a pass-through,
               skipping the per-row hash entirely *)
            if Array.length rrows = 0 then (0, pass)
            else
              let parts, find =
                hash_build (module RowKeys) part ~key:Fun.id
                  ~valid:(fun _ -> true)
                  rrows
              in
              ( parts,
                keeping (fun ~w:_ row ->
                    if Option.is_none (find row) then row else rejected) ));
      }
  | Plan.CMapProp (at, p, recv, input) -> map at input (prop p recv)
  | Plan.CMapMeth (at, m, recv, args, input) ->
    map at input (meth_applier ctx ~jobs m recv args)
  | Plan.CMapOp (at, o, args, input) -> map at input (apply_op o args)
  | Plan.CFlatProp (at, p, recv, input) -> flat at input (prop p recv)
  | Plan.CFlatMeth (at, m, recv, args, input) ->
    flat at input (meth_applier ctx ~jobs m recv args)
  | Plan.CFlatOp (at, o, args, input) -> flat at input (apply_op o args)
  | Plan.CProject (srcs, input) when Plan.keyed_projection srcs input ->
    (* the kept slots cover a key of the input, so rows are already
       distinct: copy-out only, no dedup table (DESIGN.md §9) *)
    let proj = make_copier srcs in
    Stream { input; charge = true; run = (fun ~w:_ rows -> Array.map proj rows) }
  | Plan.CProject (srcs, input) -> dedup ~input ~pre:None srcs
  | Plan.CFused (f, input) ->
    let run = step_runner (fused_steps_of ctx ~jobs f) in
    let seed = make_seeder ~fin_width:f.Plan.fin_width ~fregs:f.Plan.fregs in
    (* one row through the chain: a fresh register file (see
       [make_seeder]), steps run until a filter rejects *)
    if f.Plan.fdedup && not f.Plan.fkeyed then
      dedup ~input
        ~pre:
          (Some
             (fun ~w row ->
               let r = seed row in
               if run ~w r then r else rejected))
        f.Plan.fout
    else begin
      (* when the output is the whole register file it is emitted as-is:
         one allocation per surviving row *)
      let out_of =
        if fused_out_is_regs f then Fun.id else make_copier f.Plan.fout
      in
      Stream
        {
          input;
          charge = true;
          run =
            keeping (fun ~w row ->
                let r = seed row in
                if run ~w r then out_of r else rejected);
        }
    end

let drain_blocks b =
  let rec go acc =
    match b.next_block () with None -> acc | Some rows -> go (rows :: acc)
  in
  let blocks = List.rev (go []) in
  b.close_blocks ();
  blocks

(* ------------------------------------------------------------------ *)
(* Serial driver: a pull-based block iterator per operator, every      *)
(* kernel called with [w = 0].                                         *)
(* ------------------------------------------------------------------ *)

let open_compiled ?stats ctx (root : Plan.compiled) : biter =
  let cnt = counters ctx in
  (* Every emitted block is recorded against its operator's [cid]:
     the block counter always, per-node rows/blocks when an [--analyze]
     stats sink is attached. *)
  let record cid (rows : Relation.Row.t array) =
    Counters.charge_block cnt;
    (match stats with
    | Some s ->
      s.node_rows.(cid) <- s.node_rows.(cid) + Array.length rows;
      s.node_blocks.(cid) <- s.node_blocks.(cid) + 1
    | None -> ());
    Some rows
  in
  (* Emit blocks straight off a leaf's item list — the extent is never
     materialized as one big (major-heap) array. *)
  let scan_blocks cid ~fetch row items =
    let remaining = ref items in
    let next_block () =
      match !remaining with
      | [] -> None
      | items ->
        let buf = Array.make block_size [||] in
        let k = ref 0 in
        let rec take items =
          if !k = block_size then items
          else
            match items with
            | [] -> []
            | x :: rest ->
              if fetch then Counters.charge_object_fetch cnt;
              buf.(!k) <- row x;
              incr k;
              take rest
        in
        remaining := take items;
        let out = if !k = block_size then buf else Array.sub buf 0 !k in
        record cid out
    in
    { next_block; close_blocks = (fun () -> remaining := []) }
  in
  (* Pull input blocks, run each through [run], re-chunk the output
     into blocks of at most [block_size].  [charge] marks operators
     whose outputs count as produced tuples (parity with the
     interpreted executor's accounting). *)
  let expanding ~charge cid input (run : kernel) =
    let pending = ref [||] in
    let pos = ref 0 in
    let rec next_block () =
      let avail = Array.length !pending - !pos in
      if avail > 0 then begin
        let out =
          if !pos = 0 && avail <= block_size then begin
            let p = !pending in
            pending := [||];
            p
          end
          else begin
            let k = min block_size avail in
            let o = Array.sub !pending !pos k in
            pos := !pos + k;
            o
          end
        in
        if charge then Counters.charge_tuples cnt (Array.length out);
        record cid out
      end
      else
        match input.next_block () with
        | None -> None
        | Some rows ->
          pending := run ~w:0 rows;
          pos := 0;
          next_block ()
    in
    { next_block; close_blocks = input.close_blocks }
  in
  let rec go (c : Plan.compiled) : biter =
    let cid = c.Plan.cid in
    match op_of ~stats ctx ~jobs:1 c with
    | Leaf { items; row; fetch } -> scan_blocks cid ~fetch row items
    | Stream { input; charge; run } -> expanding ~charge cid (go input) run
    | Dedup { input; fresh; _ } -> expanding ~charge:true cid (go input) (fresh ())
    | Probe { probe; build; charge; prepare } ->
      (* the build side is drained when the first probe block arrives *)
      let input = go probe in
      let run =
        lazy (snd (prepare one_table (Array.concat (drain_blocks (go build)))))
      in
      expanding ~charge cid input (fun ~w rows -> (Lazy.force run) ~w rows)
    | Cross { left; right; pair } ->
      (* Direct block producer: a [block_size] output buffer is filled
         from the (left row, right row) cursor pair — no per-left-block
         materialization of the cross product. *)
      let right_rows = lazy (Array.concat (drain_blocks (go right))) in
      let left = go left in
      let lrows = ref [||] in
      let li = ref 0 in
      let ri = ref 0 in
      let done_ = ref false in
      let rec next_block () =
        if !done_ then None
        else begin
          let rrows = Lazy.force right_rows in
          let nr = Array.length rrows in
          let buf = Array.make block_size [||] in
          let k = ref 0 in
          let rec fill () =
            if !k >= block_size then ()
            else if !li >= Array.length !lrows then
              match left.next_block () with
              | None -> done_ := true
              | Some rows ->
                lrows := rows;
                li := 0;
                ri := 0;
                fill ()
            else if !ri >= nr then begin
              incr li;
              ri := 0;
              fill ()
            end
            else begin
              let merged = pair (!lrows).(!li) rrows.(!ri) in
              incr ri;
              if merged != rejected then begin
                buf.(!k) <- merged;
                incr k
              end;
              fill ()
            end
          in
          fill ();
          if !k = 0 then next_block ()
          else begin
            let out = if !k = block_size then buf else Array.sub buf 0 !k in
            Counters.charge_tuples cnt !k;
            record cid out
          end
        end
      in
      { next_block; close_blocks = left.close_blocks }
    | Concat (left, right) ->
      let left = go left in
      let right = lazy (go right) in
      let on_right = ref false in
      let rec next_block () =
        if !on_right then
          match (Lazy.force right).next_block () with
          | None -> None
          | Some rows -> record cid rows
        else
          match left.next_block () with
          | Some rows -> record cid rows
          | None ->
            on_right := true;
            next_block ()
      in
      {
        next_block;
        close_blocks =
          (fun () ->
            left.close_blocks ();
            if Lazy.is_val right then (Lazy.force right).close_blocks ());
      }
  in
  go root

(* ------------------------------------------------------------------ *)
(* Parallel driver: morsel pipelines.  A pipeline is a leaf's morsels  *)
(* pushed through the kernels of the streaming operators above it;     *)
(* workers claim morsels via an atomic cursor and write each output    *)
(* into its morsel's slot, so the concatenated output is row-for-row   *)
(* the serial one no matter which worker ran which morsel.  Only three *)
(* pieces are parallel-specific: partitioned build tables, per-morsel  *)
(* dedup merged in morsel order, and the morsel-order concatenation.   *)
(* ------------------------------------------------------------------ *)

(* 1024 rows per morsel: big enough that the atomic cursor and the
   per-morsel allocations are noise next to the kernel work (a morsel is
   8 blocks of the serial driver's dispatch unit), small enough that a
   3200-document scan still splits into enough morsels to keep four
   workers busy and to absorb skew from expensive rows (method calls). *)
let morsel_size = 1024

(* Partitions for the hash-join / diff build sides: the smallest power
   of two >= jobs, so [partition_of] spreads build work over all
   workers while keeping partition tables few and large. *)
let partition_count jobs =
  let rec go p = if p >= jobs then p else go (2 * p) in
  go 1

(* Ordered two-phase partitioning: phase A buckets each build morsel
   into [nparts] buffers; phase B concatenates partition [p]'s buckets
   in morsel order — recovering build-input order — and builds its
   table, one task per partition.  [parallel_for m f] runs [f 0 .. f
   (m-1)]; in the parallel driver the pool's joins publish the buckets
   to phase B and the tables to the probes.  A build side within one
   morsel gets one table, built on the caller. *)
let partition_build ~nparts ~parallel_for rows hash build =
  let n = Array.length rows in
  if nparts = 1 || n <= morsel_size then [| build rows |]
  else begin
    let m = (n + morsel_size - 1) / morsel_size in
    let buckets = Array.make m [||] in
    parallel_for m (fun i ->
        let bufs = Array.init nparts (fun _ -> Rowbuf.create ()) in
        for j = i * morsel_size to min n ((i + 1) * morsel_size) - 1 do
          Rowbuf.push bufs.(partition_of nparts (hash rows.(j))) rows.(j)
        done;
        buckets.(i) <- Array.map Rowbuf.contents bufs);
    let tables = Array.make nparts None in
    parallel_for nparts (fun p ->
        tables.(p) <- Some (build (Array.concat (List.init m (fun i -> buckets.(i).(p))))));
    Array.map Option.get tables
  end

(* [morsels] work units; [run ~w i] computes morsel [i]'s output rows on
   worker [w]. *)
type pipeline = { morsels : int; run : w:int -> int -> Relation.Row.t array }

let eval_parallel ?stats ctx ~jobs (root : Plan.compiled) :
    Relation.Row.t array =
  let pool = Pool.global () in
  let cnt = counters ctx in
  let nparts = partition_count jobs in
  let morsels_of n = (n + morsel_size - 1) / morsel_size in
  (* Workers record actuals into private sinks (plain int arrays must
     not be shared), folded into [stats] once the root has drained. *)
  let local =
    match stats with
    | Some _ -> Array.init (max 1 jobs) (fun _ -> make_stats root)
    | None -> [||]
  in
  (* Block accounting mirrors the serial driver: [n] output rows count
     as ceil(n / block_size) blocks. *)
  let record ~w cid ~morsels (rows : Relation.Row.t array) =
    let n = Array.length rows in
    let blocks = (n + block_size - 1) / block_size in
    Counters.charge_blocks cnt blocks;
    if Array.length local > 0 then begin
      let s = local.(w) in
      s.node_rows.(cid) <- s.node_rows.(cid) + n;
      s.node_blocks.(cid) <- s.node_blocks.(cid) + blocks;
      s.node_morsels.(cid) <- s.node_morsels.(cid) + morsels
    end;
    rows
  in
  (* Hand task ids [0, m) to the pool's workers via an atomic cursor. *)
  let parallel_for m (f : w:int -> int -> unit) =
    if m = 1 then f ~w:0 0
    else if m > 1 then begin
      let cursor = Atomic.make 0 in
      Pool.run pool ~jobs (fun w ->
          let rec claim () =
            let i = Atomic.fetch_and_add cursor 1 in
            if i < m then begin
              f ~w i;
              claim ()
            end
          in
          claim ())
    end
  in
  (* Run every morsel of [p]; outputs concatenate in morsel order (the
     determinism argument, DESIGN.md §10). *)
  let drain p =
    let out = Array.make p.morsels [||] in
    parallel_for p.morsels (fun ~w i -> out.(i) <- p.run ~w i);
    Array.concat (Array.to_list out)
  in
  let source items row =
    let n = Array.length items in
    {
      morsels = morsels_of n;
      run =
        (fun ~w:_ i ->
          let lo = i * morsel_size in
          Array.init (min morsel_size (n - lo)) (fun j -> row items.(lo + j)));
    }
  in
  let stage cid ~charge p (run : kernel) =
    {
      p with
      run =
        (fun ~w i ->
          let rows = run ~w (p.run ~w i) in
          if charge then Counters.charge_tuples cnt (Array.length rows);
          record ~w cid ~morsels:1 rows);
    }
  in
  let partitioner =
    {
      partition =
        (fun rows hash build ->
          partition_build ~nparts
            ~parallel_for:(fun m f -> parallel_for m (fun ~w:_ i -> f i))
            rows hash build);
    }
  in
  let rec pipeline (c : Plan.compiled) : pipeline =
    let cid = c.Plan.cid in
    match op_of ~stats ctx ~jobs c with
    | Leaf { items; row; fetch } ->
      let items = Array.of_list items in
      if fetch then Counters.charge_object_fetches cnt (Array.length items);
      stage cid ~charge:false (source items row) pass
    | Stream { input; charge; run } -> stage cid ~charge (pipeline input) run
    | Dedup { input; fresh; merge } ->
      (* per-morsel local dedup in parallel, then an in-order merge *)
      let p = pipeline input in
      let rows = merge (drain { p with run = (fun ~w i -> fresh () ~w (p.run ~w i)) }) in
      Counters.charge_tuples cnt (Array.length rows);
      source (record ~w:0 cid ~morsels:p.morsels rows) Fun.id
    | Probe { probe; build; charge; prepare } ->
      let rrows = drain (pipeline build) in
      let parts, run = prepare partitioner rrows in
      (match stats with
      | Some s when parts > 0 ->
        s.node_partitions.(cid) <- s.node_partitions.(cid) + parts;
        s.node_morsels.(cid) <-
          s.node_morsels.(cid) + morsels_of (Array.length rrows)
      | _ -> ());
      stage cid ~charge (pipeline probe) run
    | Cross { left; right; pair } ->
      let rrows = drain (pipeline right) in
      stage cid ~charge:true (pipeline left) (crossing pair rrows)
    | Concat (left, right) ->
      let l = pipeline left in
      let r = pipeline right in
      stage cid ~charge:false
        {
          morsels = l.morsels + r.morsels;
          run =
            (fun ~w i ->
              if i < l.morsels then l.run ~w i else r.run ~w (i - l.morsels));
        }
        pass
  in
  let rows = drain (pipeline root) in
  Option.iter
    (fun s ->
      Array.iter
        (fun l ->
          let add dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
          add s.node_rows l.node_rows;
          add s.node_blocks l.node_blocks;
          add s.node_morsels l.node_morsels)
        local)
    stats;
  rows

let compile ?fuse ctx plan =
  try Plan.compile ?fuse plan
  with Plan.Compile_error msg ->
    Counters.charge_slot_miss (counters ctx);
    error "%s" msg

(* Workers beyond the cores the host can actually run concurrently only
   add domain-handoff latency, and a plan whose every leaf extent fits in
   a single morsel degenerates to one work unit per operator — all
   spawn/join cost, zero overlap.  [effective_jobs] caps the request at
   [Domain.recommended_domain_count] and falls back to the serial block
   executor for such sub-morsel plans; [~clamp:false] bypasses both (the
   determinism tests exercise the parallel internals on small inputs). *)
let effective_jobs ctx jobs (c : Plan.compiled) =
  let jobs = min jobs (Domain.recommended_domain_count ()) in
  if jobs <= 1 then 1
  else
    let rec widest (c : Plan.compiled) =
      match c.Plan.cop with
      | Plan.CFullScan cls
      | Plan.CIndexScan (cls, _, _)
      | Plan.CRangeScan (cls, _, _, _)
      | Plan.CMethodScan (cls, _, _) -> (
        try Object_store.extent_size ctx.store cls with Not_found -> 0)
      | _ ->
        List.fold_left (fun m i -> max m (widest i)) 0 (Plan.compiled_inputs c)
    in
    if widest c <= morsel_size then 1 else jobs

let run_compiled ?stats ?(jobs = 1) ?(clamp = true) ctx (c : Plan.compiled) =
  let jobs = if clamp then effective_jobs ctx jobs c else jobs in
  let layout = c.Plan.layout in
  let tuples =
    if jobs > 1 then
      Array.to_list
        (Array.map
           (Relation.Layout.tuple_of_row layout)
           (eval_parallel ?stats ctx ~jobs c))
    else
      List.concat_map
        (fun rows ->
          Array.to_list (Array.map (Relation.Layout.tuple_of_row layout) rows))
        (drain_blocks (open_compiled ?stats ctx c))
  in
  Relation.make ~refs:(Relation.Layout.names layout) tuples

let run ?jobs ?clamp ctx plan = run_compiled ?jobs ?clamp ctx (compile ctx plan)
