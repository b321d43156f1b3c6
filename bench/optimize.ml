(* Cold-optimization benchmark: what one optimizer search costs.

   Each query of the EXP-A mix and the conj1-4 conjunctions is optimized
   cold at n_docs=50: the engine's epoch source is bumped on every call,
   so every lookup misses the plan cache and runs the whole search.  Per
   query the table reports the median wall time over [reps] searches
   (after one warm-up), the variants explored, the best cost, and the
   minor-heap words allocated per explored variant.

   The allocation figure is the gate.  It is deterministic — the same
   search allocates the same words on any host — so it can be bounded
   tightly where wall time could not: a change that makes each search
   step allocate more than 10% over the committed baseline fails.  The
   variant count and the exact best cost must equal the baseline's, so
   a faster search must still explore and choose exactly what it did.

   Run with:     dune exec bench/optimize.exe
   Assert mode:  dune exec bench/optimize.exe -- --assert [--docs N]
                   [--seed N] [--json PATH] [--baseline PATH]
   (exit code 1 when a query's variants or best cost differ from the
   baseline's, or its minor words per variant exceed the baseline's by
   more than 10%; without [--baseline], or for a query the baseline
   lacks, the run only reports)

   bench/check_optimize.sh gates against the committed
   BENCH_optimize.json and replaces it only when the gate passes. *)

open Soqm_core
module Search = Soqm_optimizer.Search

let reps = 3
let max_words_growth = 1.10

let queries =
  [
    ( "worked",
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
       AND (p->document()).title == 'Query Optimization'" );
    ("title", "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization'");
    ("large", "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500");
    ( "join",
      "ACCESS [n: s.number, t: d.title] FROM s IN Section, d IN Document \
       WHERE s.document == d AND d.title == 'Query Optimization'" );
    ( "contains",
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation')" );
  ]
  @ List.map
      (fun n ->
        ( Printf.sprintf "conj%d" n,
          "ACCESS p FROM p IN Paragraph WHERE "
          ^ String.concat " AND "
              (List.init n (fun i -> Printf.sprintf "p.word_count > %d" (100 * (i + 1))))
        ))
      [ 1; 2; 3; 4 ]

type row = {
  name : string;
  ms : float;
  variants : int;
  truncated : bool;
  best_cost : float;
  words_per_variant : float;
}

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(Array.length a / 2)

let measure engine db (name, src) =
  let logical = Engine.logical_of_query db src in
  ignore (Engine.optimize engine logical);
  let runs =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let res = Engine.optimize engine logical in
        let dt = Unix.gettimeofday () -. t0 in
        (res, dt, Gc.minor_words () -. w0))
  in
  let res, _, _ = List.hd runs in
  let variants = res.Search.variants_explored in
  {
    name;
    ms = 1000. *. median (List.map (fun (_, dt, _) -> dt) runs);
    variants;
    truncated = res.Search.truncated;
    best_cost = res.Search.best_cost;
    words_per_variant =
      List.fold_left (fun m (_, _, w) -> Float.min m w) infinity runs
      /. float_of_int (max 1 variants);
  }

(* ------------------------------------------------------------------ *)
(* JSON (BENCH_optimize.json): one query per line, so the baseline can  *)
(* be read back with [Scanf]                                           *)
(* ------------------------------------------------------------------ *)

let entry_format =
  format_of_string
    "    {\"name\": %S, \"ms\": %.2f, \"variants\": %d, \"truncated\": %B, \
     \"best_cost\": %.6f, \"best_cost_hex\": %S, \"minor_words_per_variant\": %.1f}"

let write_json path ~n_docs ~seed ~cores rows =
  let oc = open_out path in
  let entry r =
    Printf.sprintf entry_format r.name r.ms r.variants r.truncated r.best_cost
      (Printf.sprintf "%h" r.best_cost)
      r.words_per_variant
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"optimize\",\n\
    \  \"n_docs\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"queries\": [\n%s\n  ]\n\
     }\n"
    n_docs seed cores reps
    (String.concat ",\n" (List.map entry rows));
  close_out oc

(* The baseline's rows (none when the file is missing); the hex best cost
   is read back exactly. *)
let read_baseline path =
  if not (Sys.file_exists path) then [] else
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
      match
        Scanf.sscanf line
          " {\"name\": %S, \"ms\": %f, \"variants\": %d, \"truncated\": %B, \
           \"best_cost\": %f, \"best_cost_hex\": %S, \"minor_words_per_variant\": %f}"
          (fun name ms variants truncated _ hex words_per_variant ->
            {
              name;
              ms;
              variants;
              truncated;
              best_cost = float_of_string hex;
              words_per_variant;
            })
      with
      | r -> go (r :: acc)
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> go acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let arg_value flag default parse =
  let rec go = function
    | f :: v :: _ when String.equal f flag -> parse v
    | _ :: rest -> go rest
    | [] -> default
  in
  go (Array.to_list Sys.argv)

let () =
  let assert_mode = Array.exists (String.equal "--assert") Sys.argv in
  let n_docs = arg_value "--docs" 50 int_of_string in
  let seed = arg_value "--seed" Datagen.default.Datagen.seed int_of_string in
  let json_path = arg_value "--json" "BENCH_optimize.json" Fun.id in
  let baseline = arg_value "--baseline" [] read_baseline in
  let db = Db.create ~params:{ Datagen.default with n_docs; seed } () in
  let engine = Engine.generate db in
  (* a fresh epoch on every lookup: each search runs cold *)
  let epoch = ref 0 in
  Engine.set_epoch_source engine (fun () ->
      incr epoch;
      !epoch);
  Printf.printf "cold optimization (n_docs=%d, seed %d, median of %d)\n" n_docs seed reps;
  Printf.printf "%-10s %10s %9s %10s %22s %14s\n" "query" "ms" "variants" "truncated"
    "best cost" "words/variant";
  let rows = List.map (measure engine db) queries in
  List.iter
    (fun r ->
      Printf.printf "%-10s %10.2f %9d %10b %22h %14.1f\n" r.name r.ms r.variants
        r.truncated r.best_cost r.words_per_variant)
    rows;
  write_json json_path ~n_docs ~seed ~cores:(Domain.recommended_domain_count ()) rows;
  Printf.printf "wrote %s\n" json_path;
  let failures =
    List.concat_map
      (fun r ->
        match List.find_opt (fun b -> String.equal b.name r.name) baseline with
        | None -> []
        | Some b ->
          List.filter_map Fun.id
            [
              (if r.variants <> b.variants then
                 Some (Printf.sprintf "%s: %d variants, baseline %d" r.name r.variants b.variants)
               else None);
              (if Int64.bits_of_float r.best_cost <> Int64.bits_of_float b.best_cost then
                 Some (Printf.sprintf "%s: best cost %h, baseline %h" r.name r.best_cost b.best_cost)
               else None);
              (if r.words_per_variant > max_words_growth *. b.words_per_variant then
                 Some
                   (Printf.sprintf "%s: %.1f minor words per variant, baseline %.1f (bound +10%%)"
                      r.name r.words_per_variant b.words_per_variant)
               else None);
            ])
      rows
  in
  List.iter (Printf.printf "FAIL: %s\n") failures;
  if baseline = [] then Printf.printf "no baseline given: nothing gated\n"
  else if failures = [] then
    Printf.printf "OK: variants and best costs match the baseline, words per variant within +10%%\n";
  if assert_mode && failures <> [] then exit 1
