(* The repository benchmark: one command per workload run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
     main.exe --self-test

   Prints the run's parameters, every metric by name with its unit and
   sample count, and as its last line one JSON object with [correct],
   [attempted], [failed] and the end-to-end metrics (--trace 0) or the
   per-layer metrics (--trace 1).  Exits non-zero when any result was
   wrong.  See README.md in this directory for the workloads and the
   metric map. *)

open Soqm_core
open Metrics

type workload = { name : string; n_docs : int; pool_pages : int; cache_capacity : int }

(* adhoc_mix fits the buffer pool and misses the plan cache; repeat_mix
   overflows the pool (400 docs are about 529 data pages) and hits the
   plan cache; serve_rw (100 docs) fits the pool. *)
let workloads =
  [
    { name = "adhoc_mix"; n_docs = 50; pool_pages = 256; cache_capacity = 128 };
    { name = "repeat_mix"; n_docs = 400; pool_pages = 256; cache_capacity = 128 };
    { name = "serve_rw"; n_docs = 100; pool_pages = 256; cache_capacity = 128 };
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("query_p50_ms", "ms");
    ("query_p99_ms", "ms");
    ("throughput_ops_s", "1/s");
    ("peak_rss_mb", "MiB");
  ]

(* Every layer metric, reported by every traced run; a layer a workload
   does not exercise reads 0. *)
let per_layer =
  [
    ("vql.parse_us", "us");
    ("vql.parse_share", "ratio");
    ("optimizer.search_ms", "ms");
    ("optimizer.search_share", "ratio");
    ("optimizer.variants", "count");
    ("optimizer.truncated_ratio", "ratio");
    ("optimizer.cache_hit_ratio", "ratio");
  ]
  @ List.map (fun f -> ("optimizer.plan_cost_ratio." ^ f, "ratio")) Queries.families
  @ [
      ("physical.compile_us", "us");
      ("physical.compile_share", "ratio");
      ("physical.exec_ms", "ms");
      ("physical.exec_share", "ratio");
      ("physical.tuples", "count");
      ("physical.method_calls", "count");
      ("physical.charged_cost", "cost");
      ("storage.index_probes", "count");
      ("disk.pool_hit_ratio", "ratio");
      ("disk.pages_read", "count");
      ("disk.bytes_read", "B");
      ("disk.values_decoded", "count");
      ("disk.fsyncs_per_commit", "ratio");
      ("disk.wal_records_per_commit", "count");
      ("disk.open_s", "s");
      ("maintenance.postings_touched", "count");
      ("maintenance.implication_updates", "count");
      ("maintenance.stats_deltas", "count");
      ("txn.conflict_ratio", "ratio");
      ("txn.commit_p50_ms", "ms");
      ("txn.commit_p99_ms", "ms");
      ("txn.write_p50_ms", "ms");
      ("txn.write_p99_ms", "ms");
    ]
  @ List.concat_map
      (fun k ->
        [
          (Printf.sprintf "server.rtt_us.%s.p50" k, "us");
          (Printf.sprintf "server.rtt_us.%s.p99" k, "us");
        ])
      [ "query"; "begin"; "get"; "update"; "commit" ]
  @ [
      ("server.start_s", "s");
      ("setup_wall_s", "s");
      ("gc.minor_words_per_op", "words");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("core.generate_s", "s");
      ("core.save_s", "s");
      ("core.engine_s", "s");
      ("trace.overhead_ratio", "ratio");
      ("failed_ratio", "ratio");
    ]

let out_dir = ".perfbench"

(* Set up, run the timed phase, check the results.  Returns the metric
   table and (attempted, failed). *)
let run_workload w ~seed ~seconds ~trace ~corrupt ~work =
  let table = Metrics.table () in
  let spans_path =
    Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed)
  in
  let setup_metrics setup_s setup_wall_s phases =
    add table "setup_s" "s" setup_s ~n:Setup.reps;
    add table "setup_wall_s" "s" setup_wall_s ~n:Setup.reps;
    List.iter (fun (name, v) -> add table name "s" v ~n:Setup.reps) phases
  in
  let outcome =
    match w.name with
    | "adhoc_mix" | "repeat_mix" ->
      let env, setup_s, setup_wall_s, phases =
        Setup.repeat ~work
          (fun ~dir phases ->
            let db =
              Setup.open_db ~dir ~n_docs:w.n_docs ~seed ~pool_pages:w.pool_pages phases
            in
            let engine =
              Setup.timed "core.engine_s"
                (fun () -> Engine.generate ~cache_capacity:w.cache_capacity db)
                phases
            in
            { Inproc.db; engine; ctx = Engine.exec_ctx db })
          (fun env -> Db.close env.Inproc.db)
      in
      setup_metrics setup_s setup_wall_s phases;
      let next =
        if w.name = "adhoc_mix" then Queries.adhoc ~seed ~n_docs:w.n_docs
        else Queries.repeat ()
      in
      Fun.protect
        ~finally:(fun () -> Db.close env.Inproc.db)
        (fun () -> Inproc.run ~env ~next ~seconds ~trace ~corrupt ~spans_path table)
    | "serve_rw" ->
      let inst, setup_s, setup_wall_s, phases =
        Setup.repeat ~work
          (Serve_rw.start ~n_docs:w.n_docs ~seed ~pool_pages:w.pool_pages)
          Serve_rw.stop
      in
      setup_metrics setup_s setup_wall_s phases;
      Fun.protect
        ~finally:(fun () -> Serve_rw.stop inst)
        (fun () ->
          Serve_rw.run inst ~work ~seed ~seconds ~trace ~corrupt ~spans_path table)
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  add table "failed_ratio" "ratio" (ratio outcome.Inproc.failed outcome.Inproc.attempted)
    ~n:outcome.attempted;
  if trace then
    List.iter
      (fun (name, unit_) ->
        if not (List.exists (fun (m : metric) -> m.name = name) table.rows) then
          add table name unit_ 0.)
      per_layer;
  (table, outcome)

let with_work_dir tag f =
  let work = Filename.concat out_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  Setup.rm_rf work;
  Setup.mkdir_p work;
  Fun.protect ~finally:(fun () -> Setup.rm_rf work) (fun () -> f work)

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

(* Every workload at tiny scale must pass its correctness check, and must
   fail it when one expected result is corrupted.  The metric names in
   BENCHMARK.json, when present, must be the ones this program emits. *)
let self_test () =
  let problems = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr problems
  in
  List.iter
    (fun w ->
      let w = { w with n_docs = (if w.name = "repeat_mix" then 30 else 16) } in
      List.iter
        (fun corrupt ->
          with_work_dir "selftest" @@ fun work ->
          let _, o = run_workload w ~seed:7 ~seconds:1.0 ~trace:true ~corrupt ~work in
          if corrupt then
            expect (w.name ^ " rejects a corrupted expected result") (o.failed > 0)
          else
            expect (w.name ^ " passes its correctness check")
              (o.failed = 0 && o.attempted > 0))
        [ false; true ])
    workloads;
  if Sys.file_exists "BENCHMARK.json" then begin
    let ic = open_in_bin "BENCHMARK.json" in
    let spec = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let declared = ref [] in
    let re = Str.regexp {|"name": *"\([^"]*\)"|} in
    let pos = ref 0 in
    (try
       while true do
         pos := Str.search_forward re spec !pos + 1;
         declared := Str.matched_group 1 spec :: !declared
       done
     with Not_found -> ());
    let emitted =
      List.map (fun w -> w.name) workloads @ List.map fst (end_to_end @ per_layer)
    in
    expect "BENCHMARK.json names the emitted workloads and metrics"
      (List.sort compare !declared = List.sort compare emitted)
  end;
  if !problems > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let arg flag =
  let rec go = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let required flag parse =
  match arg flag with
  | Some v -> (
    try parse v with _ -> invalid_arg (Printf.sprintf "bad value for %s: %s" flag v))
  | None -> invalid_arg ("missing " ^ flag)

let main () =
  Setup.mkdir_p out_dir;
  if Array.exists (( = ) "--self-test") Sys.argv then self_test ()
  else begin
    let name = required "--workload" Fun.id in
    let w =
      match List.find_opt (fun w -> w.name = name) workloads with
      | Some w -> w
      | None -> invalid_arg ("unknown workload " ^ name)
    in
    let seed = required "--seed" int_of_string in
    let seconds = required "--seconds" float_of_string in
    let trace =
      required "--trace" (function "0" -> false | "1" -> true | _ -> failwith "")
    in
    Printf.printf
      "# perfbench workload=%s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s commit=%s \
       n_docs=%d pool_pages=%d plan_cache=%d\n\
       %!"
      w.name seed seconds trace
      (Domain.recommended_domain_count ())
      Sys.ocaml_version
      (Option.value ~default:"unknown" (arg "--commit"))
      w.n_docs w.pool_pages w.cache_capacity;
    let table, o =
      with_work_dir "work" (fun work ->
          run_workload w ~seed ~seconds ~trace ~corrupt:false ~work)
    in
    print_rows table;
    let names = List.map fst (if trace then per_layer else end_to_end) in
    print_endline
      (result_line ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed table
         names);
    if o.failed > 0 then exit 1
  end

let () =
  (* a peer closing its socket must surface as EPIPE, not kill the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "--client" :: plan :: out :: _ -> Serve_rw.client_main plan out
  | _ -> (
    try main ()
    with e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 2)
