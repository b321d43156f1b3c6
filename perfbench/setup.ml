(* Benchmark set-up: generate the corpus, save it as a paged database,
   cold-open it (restoring derived.idx), then build the engine or server
   on top.  Set-up runs several times per run and reports the median, so
   work moved into set-up shows in [setup_s] without one slow repetition
   deciding it.

   [setup_s] is the CPU time (user + system, every domain of the
   process) one set-up spends, not its wall time.  On ext4, truncating a
   non-empty file waits for a journal commit, and [Db.open_disk]
   truncates its lock file: that wait measured up to 95 ms per open, more
   than the rest of a 50-document set-up, and it follows the disk load
   of everything else on the host.  The wall time is still reported, as
   [setup_wall_s]. *)

open Soqm_core
open Metrics

let reps = 11

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* Phase timings of one set-up, in seconds, in the order they ran. *)
type phases = (string * float) list

let timed name f phases =
  let t0 = now () in
  let r = f () in
  phases := (name, now () -. t0) :: !phases;
  r

let open_db ~dir ~n_docs ~seed ~pool_pages phases =
  let mem =
    timed "core.generate_s" (fun () ->
        Db.create ~params:{ Datagen.default with Datagen.n_docs; seed } ())
    phases
  in
  timed "core.save_s" (fun () -> Db.save mem dir) phases;
  timed "disk.open_s" (fun () -> Db.open_disk ~pool_pages dir) phases

(* Run [make] [reps] times in fresh directories under [work]; [dispose]
   releases each instance but the last before the next is made, so only
   one is ever live.  Returns the last instance, the median set-up CPU
   time, the median set-up wall time and the median wall time of each
   phase. *)
let repeat ~work make dispose =
  let rec go i runs =
    Gc.compact ();
    let dir = Filename.concat work (Printf.sprintf "db%d" i) in
    rm_rf dir;
    let phases = ref [] in
    let c0 = cpu_time () and t0 = now () in
    let v = make ~dir phases in
    let run = (cpu_time () -. c0, now () -. t0, List.rev !phases) in
    if i + 1 < reps then begin
      dispose v;
      go (i + 1) (run :: runs)
    end
    else (v, run :: runs)
  in
  let last, runs = go 0 [] in
  let cpu = List.map (fun (c, _, _) -> c) runs
  and wall = List.map (fun (_, w, _) -> w) runs
  and phases = List.map (fun (_, _, ph) -> ph) runs in
  let phase_medians =
    List.map
      (fun (name, _) -> (name, median_of (List.map (List.assoc name) phases)))
      (List.hd phases)
  in
  (last, median_of cpu, median_of wall, phase_medians)
