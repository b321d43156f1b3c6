(* The serve_rw workload: an in-process server with 2 sessions on a
   disk-backed database, driven over the wire protocol by one client
   process holding 2 connections (one domain each) in closed loops.
   Half of each connection's operations are EXP-A queries; the other
   half rotate over three writes:

   - an auto-committed [Update] of the connection's private cell;
   - a [Begin]/[Get]/[Update]/[Commit] increment of one shared counter,
     retried on [Conflict];
   - a transaction swapping the [word_count] of a large (> 500) and a
     small paragraph of the connection's own partition — count-preserving,
     so every query's row count stays fixed, while the sorted index, the
     [largeParagraphs] implication set and the statistics deltas move. *)

open Soqm_vml
open Soqm_core
open Metrics
module Server = Soqm_server.Server
module Protocol = Soqm_server.Protocol

let connections = 2
let sessions = 2
let max_tries = 100

(* ------------------------------------------------------------------ *)
(* The plan: what the parent tells the client process                  *)
(* ------------------------------------------------------------------ *)

type plan = {
  port : int;
  seconds : float;
  trace : bool;
  seed : int;
  shared : int;  (* paragraph id of the shared counter *)
  own : (int * int) array;  (* per connection: private cell id, initial value *)
  large : int list array;  (* per-connection swap partition, wc > 500 *)
  small : int list array;
  expected : (string * int) list;  (* row count per EXP-A family *)
  spans_path : string;
}

(* Plan and report cross the process boundary by [Marshal]: both sides
   are this same executable. *)
let save path v =
  let oc = open_out_bin path in
  Marshal.to_channel oc v [];
  close_out oc

let load path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

let para id = Oid.make ~cls:"Paragraph" ~id

let kinds = [ "query"; "begin"; "get"; "update"; "commit"; "abort" ]

let kind_of = function
  | Protocol.Query _ -> "query"
  | Begin -> "begin"
  | Get _ -> "get"
  | Update _ -> "update"
  | Commit -> "commit"
  | Abort -> "abort"
  | _ -> "other"

(* One connection's readings for one phase. *)
type conn_phase = {
  mutable ops : int;
  mutable wall : float;
  q_lat : samples;
  w_lat : samples;
  rtt : (string * samples) list;
}

let conn_phase () =
  {
    ops = 0;
    wall = 0.;
    q_lat = samples ();
    w_lat = samples ();
    rtt = List.map (fun k -> (k, samples ())) kinds;
  }

type conn = {
  k : int;
  fd : Unix.file_descr;
  rng : Random.State.t;
  tr : tracer;
  mutable failed : int;
  mutable increments : int;  (* committed shared-counter increments *)
  mutable own_last : int;
  mutable notes : string list;
  large_ids : int array;
  small_ids : int array;
}

(* Failures are noted per connection and printed once both have ended,
   so the two domains never interleave their output. *)
let fail c fmt =
  Printf.ksprintf
    (fun msg ->
      if c.failed < 5 then
        c.notes <- Printf.sprintf "MISMATCH connection %d: %s" c.k msg :: c.notes;
      c.failed <- c.failed + 1)
    fmt

let rt c ph ~req ~parent r =
  span c.tr ~req ~parent ("server.rtt." ^ kind_of r) @@ fun _ ->
  let t0 = now () in
  let resp = Protocol.roundtrip c.fd r in
  push (List.assoc (kind_of r) ph.rtt) (now () -. t0);
  resp

exception Retry
exception Unexpected of string

(* Unwrap a reply: [Conflict] restarts the transaction, anything but the
   expected reply is a failure. *)
let reply what ok r =
  match r with
  | Protocol.Conflict _ -> raise Retry
  | Protocol.Error e -> raise (Unexpected (what ^ ": " ^ e))
  | r -> (
    match ok r with
    | Some v -> v
    | None -> raise (Unexpected (what ^ ": unexpected reply")))

let started = function Protocol.Started _ -> Some () | _ -> None
let done_ = function Protocol.Done -> Some () | _ -> None
let committed = function Protocol.Committed _ -> Some () | _ -> None
let int_value = function Protocol.Value (Value.Int v) -> Some v | _ -> None

(* Run [body] until it commits; a [Conflict] re-runs it from the start,
   up to [max_tries] times. *)
let transact c rt what body =
  let rec go tries =
    if tries >= max_tries then fail c "%s: retries exhausted" what
    else
      match body () with
      | () -> ()
      | exception Retry -> go (tries + 1)
      | exception Unexpected msg ->
        fail c "%s" msg;
        ignore (rt Protocol.Abort)
  in
  go 0

let write_names = [| "write.private"; "write.counter"; "write.swap" |]

let write_op c (p : plan) rt slot =
  match slot with
  | 0 ->
    let v = c.own_last + 1 in
    transact c rt "private update" (fun () ->
        let own = para (fst p.own.(c.k)) in
        reply "update" committed (rt (Protocol.Update (own, "number", Value.Int v)));
        c.own_last <- v)
  | 1 ->
    let shared = para p.shared in
    transact c rt "counter" (fun () ->
        reply "begin" started (rt Protocol.Begin);
        let v = reply "get" int_value (rt (Protocol.Get (shared, "number"))) in
        reply "update" done_ (rt (Protocol.Update (shared, "number", Value.Int (v + 1))));
        reply "commit" committed (rt Protocol.Commit);
        c.increments <- c.increments + 1)
  | _ ->
    let i = Random.State.int c.rng (Array.length c.large_ids)
    and j = Random.State.int c.rng (Array.length c.small_ids) in
    let a = para c.large_ids.(i) and b = para c.small_ids.(j) in
    transact c rt "swap" (fun () ->
        reply "begin" started (rt Protocol.Begin);
        let va = reply "get" int_value (rt (Protocol.Get (a, "word_count"))) in
        let vb = reply "get" int_value (rt (Protocol.Get (b, "word_count"))) in
        if va <= 500 || vb > 500 then raise (Unexpected "swap: partition out of step");
        reply "update" done_ (rt (Protocol.Update (a, "word_count", Value.Int vb)));
        reply "update" done_ (rt (Protocol.Update (b, "word_count", Value.Int va)));
        reply "commit" committed (rt Protocol.Commit);
        c.large_ids.(i) <- c.small_ids.(j);
        c.small_ids.(j) <- Oid.id a)

(* The query rotation: every EXP-A template, with [large] and [join]
   three times each.  Over the wire, title, worked and contains take
   0.03-0.13 ms, mostly the round trip, and large and join take 3-6 ms.
   With the five templates once each, the three fast ones made 60% of
   the queries and the median sat in the tail of contains, which follows
   host scheduling: its spread over ten seeds reached 0.26 on a 2-vCPU
   host.  With the fast ones at a third, the median sits at the first
   quartile of the slow ones. *)
let query_mix =
  let q f = List.find (fun (q : Queries.query) -> q.family = f) Queries.exp_a in
  Array.map q
    [| "worked"; "large"; "title"; "join"; "contains"; "large"; "join"; "large"; "join" |]

(* Even operations are queries, odd ones writes; each rotation has an odd
   length, so a median falls inside one kind's distribution. *)
let run_phase c (p : plan) ph ~seconds ~first =
  let start = now () in
  let deadline = start +. seconds in
  let j = ref first in
  while now () < deadline do
    let req = (c.k * 1_000_000_000) + !j + 1 in
    if !j mod 2 = 0 then begin
      let q = query_mix.(!j / 2 mod Array.length query_mix) in
      span c.tr ~req ~parent:0 "op.query" (fun root ->
          let t0 = now () in
          (match rt c ph ~req ~parent:root (Protocol.Query q.Queries.src) with
          | Protocol.Rows (_, rows) ->
            let want = List.assoc q.family p.expected in
            if List.length rows <> want then
              fail c "query %s returned %d rows, expected %d" q.family
                (List.length rows) want
          | Protocol.Error e -> fail c "query %s: %s" q.family e
          | _ -> fail c "query %s: unexpected reply" q.family);
          push ph.q_lat (now () -. t0))
    end
    else begin
      let slot = !j / 2 mod Array.length write_names in
      span c.tr ~req ~parent:0 ("op." ^ write_names.(slot)) (fun root ->
          let t0 = now () in
          write_op c p (rt c ph ~req ~parent:root) slot;
          push ph.w_lat (now () -. t0))
    end;
    ph.ops <- ph.ops + 1;
    incr j
  done;
  ph.wall <- now () -. start

(* What the client process sends back: per connection, the untraced
   phase and (when tracing) the traced one. *)
type report = {
  failed : int;
  increments : int;
  own_last : int array;
  phases : conn_phase list array;
}

let client_main plan_path out_path =
  let p : plan = load plan_path in
  let conns =
    Array.init connections (fun k ->
        {
          k;
          fd = Protocol.connect ~port:p.port ();
          rng = Random.State.make [| p.seed; k |];
          tr = tracer ~first:((k * 1_000_000_000) + 1) ();
          failed = 0;
          increments = 0;
          own_last = snd p.own.(k);
          notes = [];
          large_ids = Array.of_list p.large.(k);
          small_ids = Array.of_list p.small.(k);
        })
  in
  let half = if p.trace then p.seconds /. 2. else p.seconds in
  let drive c =
    let untraced = conn_phase () in
    run_phase c p untraced ~seconds:half ~first:0;
    if not p.trace then [ untraced ]
    else begin
      c.tr.on <- true;
      let traced = conn_phase () in
      run_phase c p traced ~seconds:half ~first:untraced.ops;
      [ untraced; traced ]
    end
  in
  let doms = Array.map (fun c -> Domain.spawn (fun () -> drive c)) conns in
  let phases = Array.map Domain.join doms in
  Array.iter (fun c -> Unix.close c.fd) conns;
  Array.iter (fun c -> List.iter print_endline (List.rev c.notes)) conns;
  save out_path
    {
      failed = Array.fold_left (fun a (c : conn) -> a + c.failed) 0 conns;
      increments = Array.fold_left (fun a (c : conn) -> a + c.increments) 0 conns;
      own_last = Array.map (fun (c : conn) -> c.own_last) conns;
      phases;
    };
  if p.trace then begin
    let spans = Array.fold_left (fun acc c -> List.rev_append c.tr.spans acc) [] conns in
    ignore (report_spans ~title:"client" ~path:p.spans_path spans : string -> float)
  end

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)
(* ------------------------------------------------------------------ *)

type instance = { db : Db.t; server : Server.t; serving : unit Domain.t }

let start ~dir ~n_docs ~seed ~pool_pages phases =
  let db = Setup.open_db ~dir ~n_docs ~seed ~pool_pages phases in
  Setup.timed "server.start_s"
    (fun () ->
      let server = Server.create ~sessions db in
      { db; server; serving = Domain.spawn (fun () -> Server.serve server) })
    phases

let stop i =
  Server.stop i.server;
  Domain.join i.serving;
  Db.close i.db

(* Wait for the client; kill it if it overruns its deadline. *)
let await pid ~deadline =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () > deadline ->
      Unix.kill pid Sys.sigkill;
      snd (Unix.waitpid [] pid)
    | 0, _ ->
      Unix.sleepf 0.05;
      go ()
    | _, status -> status
  in
  go ()

let int_prop db id prop =
  match Object_store.peek_prop db.Db.store (para id) prop with
  | Value.Int v -> v
  | _ -> min_int

let run i ~work ~seed ~seconds ~trace ~corrupt ~spans_path table =
  let db = i.db and engine = Server.engine i.server in
  let failed =
    ref (Inproc.exp_a_check { Inproc.db; engine; ctx = Engine.exec_ctx db } table)
  in
  let row_count (q : Queries.query) =
    Soqm_algebra.Relation.cardinality (Engine.run_naive db q.src).Engine.result
  in
  let expected =
    List.map (fun (q : Queries.query) -> (q.family, row_count q)) Queries.exp_a
  in
  let sent =
    if corrupt then List.mapi (fun k (f, n) -> (f, if k = 0 then n + 1 else n)) expected
    else expected
  in
  (* partition the paragraphs by document parity, one side per
     connection, so swaps never contend; the first three are the shared
     counter and the private cells *)
  let paras = List.map Oid.id (Object_store.extent db.Db.store "Paragraph") in
  let shared = List.nth paras 0 in
  let own =
    Array.init connections (fun k ->
        let id = List.nth paras (k + 1) in
        (id, int_prop db id "number"))
  in
  let large = Array.make connections [] and small = Array.make connections [] in
  List.iteri
    (fun n id ->
      if n > connections then begin
        let doc =
          match Object_store.peek_prop db.Db.store (para id) "section" with
          | Value.Obj s -> (
            match Object_store.peek_prop db.Db.store s "document" with
            | Value.Obj d -> Oid.id d
            | _ -> 0)
          | _ -> 0
        in
        let k = doc mod connections in
        if int_prop db id "word_count" > 500 then large.(k) <- id :: large.(k)
        else small.(k) <- id :: small.(k)
      end)
    paras;
  let shared_initial = int_prop db shared "number" in
  let plan_path = Filename.concat work "serve_plan.txt"
  and out_path = Filename.concat work "serve_report.txt" in
  save plan_path
    {
      port = Server.port i.server;
      seconds;
      trace;
      seed;
      shared;
      own;
      large;
      small;
      expected = sent;
      spans_path;
    };
  let c = Db.counters db in
  let snap () =
    ( [|
        Counters.pages_read c; Counters.pool_hits c; Counters.bytes_read c;
        Counters.values_decoded c; Counters.wal_commits c; Counters.wal_fsyncs c;
        Counters.wal_records c; Counters.postings_touched c;
        Counters.implication_updates c;
        Counters.stats_deltas c; Counters.txn_commits c; Counters.txn_conflicts c;
      |],
      Engine.cache_stats engine,
      Gc.quick_stat () )
  in
  Gc.compact ();
  start_peak_rss table;
  let before = snap () in
  flush stdout;
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--client"; plan_path; out_path |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let status = await pid ~deadline:(now () +. seconds +. 60.) in
  let after = snap () in
  add table "peak_rss_mb" "MiB" (peak_rss_mb ());
  if status <> Unix.WEXITED 0 then begin
    Printf.printf "MISMATCH client process did not exit cleanly (%s)\n"
      (match status with
      | Unix.WEXITED n -> Printf.sprintf "exit %d" n
      | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
      | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n);
    incr failed
  end;
  let r : report = load out_path in
  failed := !failed + r.failed;
  (* phase [i] (0 untraced, 1 traced) merged over the connections *)
  let phase i = List.filter_map (fun l -> List.nth_opt l i) (Array.to_list r.phases) in
  let ops i = List.fold_left (fun a (p : conn_phase) -> a + p.ops) 0 (phase i) in
  let wall i =
    List.fold_left (fun a (p : conn_phase) -> Float.max a p.wall) 0. (phase i)
  in
  let merged i f = concat (List.map f (phase i)) in
  let q i = merged i (fun p -> p.q_lat) and w i = merged i (fun p -> p.w_lat) in
  let check what ok =
    if not ok then begin
      Printf.printf "MISMATCH %s\n" what;
      incr failed
    end
  in
  check "shared counter = initial + committed increments"
    (int_prop db shared "number" = shared_initial + r.increments);
  Array.iteri
    (fun k (id, _) ->
      check (Printf.sprintf "private cell %d holds its last write" k)
        (int_prop db id "number" = r.own_last.(k)))
    own;
  let large_q = List.find (fun (q : Queries.query) -> q.family = "large") Queries.exp_a in
  check "large row count invariant under the swaps"
    (row_count large_q = List.assoc "large" expected);
  let ms s p = percentile s p *. 1e3 in
  add table "query_p50_ms" "ms" (ms (q 0) 0.50) ~n:(count (q 0));
  add table "query_p99_ms" "ms" (ms (q 0) 0.99) ~n:(count (q 0));
  add table "txn.write_p50_ms" "ms" (ms (w 0) 0.50) ~n:(count (w 0));
  add table "txn.write_p99_ms" "ms" (ms (w 0) 0.99) ~n:(count (w 0));
  add table "throughput_ops_s" "1/s" (float_of_int (ops 0) /. wall 0) ~n:(ops 0);
  if trace then begin
    let a0, (h0, m0), g0 = before and a1, (h1, m1), g1 = after in
    let d k = a1.(k) - a0.(k) in
    let queries = count (q 0) + count (q 1) and writes = count (w 0) + count (w 1) in
    let per n v = float_of_int v /. float_of_int (max 1 n) in
    let commit = merged 1 (fun p -> List.assoc "commit" p.rtt) in
    add table "optimizer.cache_hit_ratio" "ratio" (ratio (h1 - h0) (h1 - h0 + m1 - m0))
      ~n:(h1 - h0 + m1 - m0);
    add table "disk.pool_hit_ratio" "ratio" (ratio (d 1) (d 0 + d 1));
    add table "disk.pages_read" "count" (per queries (d 0)) ~n:queries;
    add table "disk.bytes_read" "B" (per queries (d 2)) ~n:queries;
    add table "disk.values_decoded" "count" (per queries (d 3)) ~n:queries;
    add table "disk.fsyncs_per_commit" "ratio" (ratio (d 5) (d 4)) ~n:(d 4);
    add table "disk.wal_records_per_commit" "count" (ratio (d 6) (d 4)) ~n:(d 4);
    add table "maintenance.postings_touched" "count" (per writes (d 7)) ~n:writes;
    add table "maintenance.implication_updates" "count" (per writes (d 8)) ~n:writes;
    add table "maintenance.stats_deltas" "count" (per writes (d 9)) ~n:writes;
    add table "txn.conflict_ratio" "ratio" (ratio (d 11) (d 10 + d 11)) ~n:(d 10 + d 11);
    add table "txn.commit_p50_ms" "ms" (ms commit 0.50) ~n:(count commit);
    add table "txn.commit_p99_ms" "ms" (ms commit 0.99) ~n:(count commit);
    List.iter
      (fun kind ->
        if kind <> "abort" then begin
          let s = merged 1 (fun p -> List.assoc kind p.rtt) in
          let us p = percentile s p *. 1e6 in
          add table (Printf.sprintf "server.rtt_us.%s.p50" kind) "us" (us 0.50) ~n:(count s);
          add table (Printf.sprintf "server.rtt_us.%s.p99" kind) "us" (us 0.99) ~n:(count s)
        end)
      kinds;
    add_gc table ~ops:(ops 0 + ops 1) g0 g1;
    add_overhead table ~untraced:(wall 0, ops 0) ~traced:(wall 1, ops 1)
  end;
  { Inproc.attempted = ops 0 + ops 1 + List.length Queries.exp_a; failed = !failed }
