(* Samples, percentiles, the metric table a run prints, and the span
   tracer the traced run records around each call into a layer. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

(* A growable float buffer: latencies are appended in the timed loop, so
   appending must not allocate a list cell per sample. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len

let concat l =
  let s = samples () in
  List.iter (fun x -> for i = 0 to x.len - 1 do push s x.data.(i) done) l;
  s

let mean s =
  let acc = ref 0. in
  for i = 0 to s.len - 1 do acc := !acc +. s.data.(i) done;
  if s.len = 0 then 0. else !acc /. float_of_int s.len

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. *)
let percentile s p =
  if s.len = 0 then 0.
  else begin
    let a = to_array s in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int s.len)) in
    a.(max 0 (min (s.len - 1) (rank - 1)))
  end

let median_of l =
  match List.sort Float.compare l with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* The metric table                                                    *)
(* ------------------------------------------------------------------ *)

(* [n] is the sample count behind a timing or a per-operation mean;
   0 for values that are not built from samples. *)
type metric = { name : string; value : float; unit_ : string; n : int }

type table = { mutable rows : metric list }

let table () = { rows = [] }
let add ?(n = 0) t name unit_ value = t.rows <- { name; value; unit_; n } :: t.rows
let rows t = List.rev t.rows

let print_rows t =
  List.iter
    (fun m ->
      if m.n > 0 then
        Printf.printf "  %-36s %14.4f %-6s (n=%d)\n" m.name m.value m.unit_ m.n
      else Printf.printf "  %-36s %14.4f %s\n" m.name m.value m.unit_)
    (rows t)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The result line: exactly [correct], [attempted], [failed] and the
   selected metrics, each as {value, unit}. *)
let result_line ~correct ~attempted ~failed t names =
  let metric name =
    match List.find_opt (fun m -> String.equal m.name name) t.rows with
    | Some m ->
      Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (json_escape name)
        (json_float m.value) (json_escape m.unit_)
    | None -> invalid_arg ("metric not measured: " ^ name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric names))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (* 0 for a request's root span *)
  req : int;  (* the request (query or write operation) it belongs to *)
  sname : string;
  start : float;
  stop : float;
}

(* One tracer per recording thread of control; spans stay in memory until
   the run ends.  A disabled tracer runs the wrapped call and records
   nothing. *)
type tracer = { mutable on : bool; mutable spans : span list; mutable next : int }

let tracer ?(first = 1) () = { on = false; spans = []; next = first }

let span tr ~req ~parent name f =
  if not tr.on then f 0
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let start = now () in
    let r = f id in
    tr.spans <- { id; parent; req; sname = name; start; stop = now () } :: tr.spans;
    r
  end

(* A layer's self time: its spans' durations minus the parts their child
   spans cover.  Returns (name, total self seconds, span count) sorted by
   name. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt acc s.sname) in
      Hashtbl.replace acc s.sname (t +. self, n + 1))
    spans;
  Hashtbl.fold (fun name (t, n) l -> (name, t, n) :: l) acc []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\": \"%s\", \"start\": %.6f, \"end\": %.6f, \"id\": %d, \
         \"parent\": %d, \"req\": %d}\n"
        (json_escape s.sname) s.start s.stop s.id s.parent s.req)
    (List.sort (fun a b -> Float.compare a.start b.start) spans);
  close_out oc

(* Print each span name's self time and share, write the spans to
   [path], and return the share of the total for one span name. *)
let report_spans ~title ~path spans =
  let selfs = self_times spans in
  let total = List.fold_left (fun a (_, t, _) -> a +. t) 0. selfs in
  Printf.printf "  %s self time (traced phase, %.3f s):\n" title total;
  List.iter
    (fun (name, t, k) ->
      Printf.printf "    %-22s %10.3f ms %6.1f%% (spans=%d)\n" name (t *. 1e3)
        (100. *. t /. total) k)
    selfs;
  write_spans path spans;
  Printf.printf "  wrote %d spans to %s\n%!" (List.length spans) path;
  fun name ->
    match List.find_opt (fun (n, _, _) -> String.equal n name) selfs with
    | Some (_, t, _) -> t /. total
    | None -> 0.

(* GC work between two readings, [ops] operations apart. *)
let add_gc t ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  add t "gc.minor_words_per_op" "words"
    ((g1.minor_words -. g0.minor_words) /. float_of_int (max 1 ops))
    ~n:ops;
  let delta a b = float_of_int (b - a) in
  add t "gc.minor_collections" "count" (delta g0.minor_collections g1.minor_collections);
  add t "gc.major_collections" "count" (delta g0.major_collections g1.major_collections)

(* Tracing overhead: mean time per operation traced over untraced, less 1. *)
let add_overhead t ~untraced:(w0, n0) ~traced:(w1, n1) =
  let per_op w n = w /. float_of_int (max 1 n) in
  add t "trace.overhead_ratio" "ratio" ((per_op w1 n1 /. per_op w0 n0) -. 1.)

(* ------------------------------------------------------------------ *)
(* Process-level readings                                              *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Start measuring [peak_rss_mb] from here: record the peak so far as
   [pre_timed.peak_rss_mb] (set-ups and the untimed correctness pass),
   then reset the high-water mark to the current resident set.  Where
   the kernel refuses the reset, [peak_rss_mb] covers the whole process
   and a note says so. *)
let start_peak_rss t =
  add t "pre_timed.peak_rss_mb" "MiB" (peak_rss_mb ());
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ ->
    print_endline "# peak_rss_mb: could not reset the high-water mark; it covers the whole process"
