(* The in-process workloads: one caller sends VQL strings straight to the
   engine in a closed loop (adhoc_mix and repeat_mix). *)

open Soqm_vml
open Soqm_core
open Metrics
module Relation = Soqm_algebra.Relation
module Search = Soqm_optimizer.Search
module Exec = Soqm_physical.Exec

(* A row-for-row fingerprint of a canonical result: refs, cardinality and
   every tuple's hash, in order.  Results are compared after the timed
   phase, so the loop keeps fingerprints rather than whole relations. *)
let fingerprint r =
  List.fold_left
    (fun h t -> (h * 1_000_003) + Relation.Tuple.hash t)
    (Hashtbl.hash (Relation.refs r, Relation.cardinality r))
    (Relation.tuples r)

type env = { db : Db.t; engine : Engine.t; ctx : Exec.ctx }

(* Per-query readings the traced run takes at the layer boundaries. *)
type layer = {
  parse : samples;
  search : samples;  (* plan-cache misses only *)
  compile : samples;  (* plan-cache misses only *)
  exec : samples;
  variants : samples;
  mutable truncated : int;
  mutable hits : int;
  mutable misses : int;
  tuples : samples;
  method_calls : samples;
  charged : samples;
  probes : samples;
}

let layer () =
  {
    parse = samples ();
    search = samples ();
    compile = samples ();
    exec = samples ();
    variants = samples ();
    truncated = 0;
    hits = 0;
    misses = 0;
    tuples = samples ();
    method_calls = samples ();
    charged = samples ();
    probes = samples ();
  }

(* The traced path makes the same calls [Engine.run_optimized] makes,
   one layer at a time, with a span around each. *)
let run_traced env tr ly ~req src =
  let counters = Db.counters env.db in
  span tr ~req ~parent:0 "query" @@ fun root ->
  let timed name f =
    let t0 = now () in
    let r = span tr ~req ~parent:root name (fun _ -> f ()) in
    (r, now () -. t0)
  in
  let logical, dt = timed "vql.parse" (fun () -> Engine.logical_of_query env.db src) in
  push ly.parse dt;
  let h0, m0 = Engine.cache_stats env.engine in
  let res, dt_search =
    timed "optimizer.search" (fun () -> Engine.optimize env.engine logical)
  in
  let h1, m1 = Engine.cache_stats env.engine in
  ly.hits <- ly.hits + (h1 - h0);
  ly.misses <- ly.misses + (m1 - m0);
  let miss = m1 > m0 in
  (* on a miss this compiles the new plan; on a hit it is one more cache
     lookup returning the cached compiled plan *)
  let (_, compiled), dt_compile =
    timed "physical.compile" (fun () -> Engine.optimize_compiled env.engine logical)
  in
  if miss then begin
    push ly.search dt_search;
    push ly.compile dt_compile;
    push ly.variants (float_of_int res.Search.variants_explored);
    if res.Search.truncated then ly.truncated <- ly.truncated + 1
  end;
  Counters.reset counters;
  let result, dt =
    timed "physical.exec" (fun () -> Exec.run_compiled ~jobs:1 env.ctx compiled)
  in
  push ly.exec dt;
  push ly.tuples (float_of_int (Counters.tuples_produced counters));
  push ly.method_calls (float_of_int (Counters.total_method_calls counters));
  push ly.charged (Counters.charged_cost counters);
  push ly.probes (float_of_int (Counters.index_probes counters));
  result

type phase = {
  latency : samples;  (* seconds per query *)
  prints : (int * int) list ref;  (* (stream index, fingerprint) *)
  mutable ops : int;
  mutable wall : float;
}

(* Closed loop from stream index [first] until [seconds] pass. *)
let loop ~seconds ~first ~next run =
  let ph = { latency = samples (); prints = ref []; ops = 0; wall = 0. } in
  let start = now () in
  let deadline = start +. seconds in
  let i = ref first in
  while now () < deadline do
    let q : Queries.query = next !i in
    let t0 = now () in
    let r = run ~req:(!i + 1) q.src in
    push ph.latency (now () -. t0);
    ph.prints := (!i, fingerprint r) :: !(ph.prints);
    ph.ops <- ph.ops + 1;
    incr i
  done;
  ph.wall <- now () -. start;
  ph

(* The untimed correctness pass over the fixed EXP-A mix: optimized and
   naive results must agree, and the charged cost of the chosen plan is
   set against the naive plan's per template. *)
let exp_a_check env table =
  List.fold_left
    (fun failed (q : Queries.query) ->
      let naive = Engine.run_naive env.db q.src in
      let opt = Engine.run_optimized env.engine q.src in
      add table ("optimizer.plan_cost_ratio." ^ q.family) "ratio"
        (Counters.total_cost opt.Engine.counters
        /. Counters.total_cost naive.Engine.counters);
      if Relation.equal naive.Engine.result opt.Engine.result then failed
      else begin
        Printf.printf "MISMATCH exp_a %s: optimized result differs from naive\n" q.family;
        failed + 1
      end)
    0 Queries.exp_a

(* Compare every fingerprint the timed loop kept against the naive
   evaluation of the same query; the oracle is computed here, after the
   timed phase.  [corrupt] perturbs one expected result, for the
   self-test. *)
let verify env ~next ~corrupt prints =
  let oracle = Hashtbl.create 256 in
  let corrupted = ref (not corrupt) in
  List.fold_left
    (fun failed (i, fp) ->
      let q : Queries.query = next i in
      let expected =
        match Hashtbl.find_opt oracle q.src with
        | Some e -> e
        | None ->
          let e = fingerprint (Engine.run_naive env.db q.src).Engine.result in
          Hashtbl.replace oracle q.src e;
          e
      in
      let expected = if !corrupted then expected else (corrupted := true; expected + 1) in
      if expected = fp then failed
      else begin
        if failed < 5 then
          Printf.printf "MISMATCH query %d (%s): result differs from naive\n" i q.family;
        failed + 1
      end)
    0 prints

type outcome = { attempted : int; failed : int }

let run ~env ~next ~seconds ~trace ~corrupt ~spans_path table =
  let failed = exp_a_check env table in
  Gc.compact ();
  start_peak_rss table;
  let untraced = loop ~seconds:(if trace then seconds /. 2. else seconds) ~first:0 ~next
      (fun ~req:_ src -> (Engine.run_optimized env.engine src).Engine.result)
  in
  let phases =
    if not trace then [ untraced ]
    else begin
      let tr = tracer () and ly = layer () in
      tr.on <- true;
      let c = Db.counters env.db in
      let reads0 = Counters.pages_read c and hits0 = Counters.pool_hits c
      and br0 = Counters.bytes_read c and vd0 = Counters.values_decoded c in
      let gc0 = Gc.quick_stat () in
      let ph =
        loop ~seconds:(seconds /. 2.) ~first:untraced.ops ~next (run_traced env tr ly)
      in
      let gc1 = Gc.quick_stat () in
      let reads = Counters.pages_read c - reads0
      and hits = Counters.pool_hits c - hits0 in
      let n = ph.ops in
      let per v = float_of_int v /. float_of_int (max 1 n) in
      let share = report_spans ~title:"layer" ~path:spans_path tr.spans in
      add table "vql.parse_us" "us" (mean ly.parse *. 1e6) ~n:(count ly.parse);
      add table "vql.parse_share" "ratio" (share "vql.parse");
      add table "optimizer.search_ms" "ms" (mean ly.search *. 1e3) ~n:(count ly.search);
      add table "optimizer.search_share" "ratio" (share "optimizer.search");
      add table "optimizer.variants" "count" (mean ly.variants) ~n:(count ly.variants);
      add table "optimizer.truncated_ratio" "ratio" (ratio ly.truncated ly.misses);
      add table "optimizer.cache_hit_ratio" "ratio" (ratio ly.hits (ly.hits + ly.misses))
        ~n:(ly.hits + ly.misses);
      add table "physical.compile_us" "us" (mean ly.compile *. 1e6) ~n:(count ly.compile);
      add table "physical.compile_share" "ratio" (share "physical.compile");
      add table "physical.exec_ms" "ms" (mean ly.exec *. 1e3) ~n:(count ly.exec);
      add table "physical.exec_share" "ratio" (share "physical.exec");
      add table "physical.tuples" "count" (mean ly.tuples) ~n;
      add table "physical.method_calls" "count" (mean ly.method_calls) ~n;
      add table "physical.charged_cost" "cost" (mean ly.charged) ~n;
      add table "storage.index_probes" "count" (mean ly.probes) ~n;
      add table "disk.pool_hit_ratio" "ratio" (ratio hits (hits + reads));
      add table "disk.pages_read" "count" (per reads) ~n;
      add table "disk.bytes_read" "B" (per (Counters.bytes_read c - br0)) ~n;
      add table "disk.values_decoded" "count" (per (Counters.values_decoded c - vd0)) ~n;
      add_gc table ~ops:n gc0 gc1;
      add_overhead table
        ~untraced:(untraced.wall, untraced.ops)
        ~traced:(ph.wall, ph.ops);
      [ untraced; ph ]
    end
  in
  add table "peak_rss_mb" "MiB" (peak_rss_mb ());
  let ops = List.fold_left (fun a p -> a + p.ops) 0 phases in
  let lat = untraced.latency in
  add table "query_p50_ms" "ms" (percentile lat 0.50 *. 1e3) ~n:(count lat);
  add table "query_p99_ms" "ms" (percentile lat 0.99 *. 1e3) ~n:(count lat);
  add table "throughput_ops_s" "1/s"
    (float_of_int untraced.ops /. untraced.wall)
    ~n:untraced.ops;
  let prints = List.concat_map (fun p -> !(p.prints)) phases in
  let failed = failed + verify env ~next ~corrupt prints in
  { attempted = ops + List.length Queries.exp_a; failed }
