(* The query shapes of the paper's experiments (EXP-A) and the seeded
   streams built from them. *)

open Soqm_core

type query = { family : string; src : string }

let worked ~title ~word =
  {
    family = "worked";
    src =
      Printf.sprintf
        "ACCESS p FROM p IN Paragraph WHERE p->contains_string('%s') AND \
         (p->document()).title == '%s'"
        word title;
  }

let title ~title =
  {
    family = "title";
    src = Printf.sprintf "ACCESS d FROM d IN Document WHERE d.title == '%s'" title;
  }

let large ~threshold =
  {
    family = "large";
    src =
      Printf.sprintf "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > %d" threshold;
  }

let join ~title =
  {
    family = "join";
    src =
      Printf.sprintf
        "ACCESS [n: s.number, t: d.title] FROM s IN Section, d IN Document WHERE \
         s.document == d AND d.title == '%s'"
        title;
  }

let contains ~word =
  {
    family = "contains";
    src =
      Printf.sprintf "ACCESS p FROM p IN Paragraph WHERE p->contains_string('%s')" word;
  }

let conj thresholds =
  {
    family = Printf.sprintf "conj%d" (List.length thresholds);
    src =
      "ACCESS p FROM p IN Paragraph WHERE "
      ^ String.concat " AND "
          (List.map (Printf.sprintf "p.word_count > %d") thresholds);
  }

(* The fixed EXP-A five-query mix, with the paper's constants. *)
let exp_a =
  let title_ = Datagen.query_title and word = Datagen.query_word in
  [
    worked ~title:title_ ~word;
    title ~title:title_;
    large ~threshold:500;
    join ~title:title_;
    contains ~word;
  ]

let families = List.map (fun q -> q.family) exp_a

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The adhoc stream: the five EXP-A templates followed by conjunctions of
   [word_count] predicates, a rotation of eleven.  Constants come from
   seeded permutations, so no key recurs within far more queries than
   the plan cache holds.

   - The conjunctions have 1, 2, 3, 3, 4 and 4 predicates.  Counting the
     3- and 4-predicate ones twice puts the median latency on an
     optimizer-bound template (3 predicates) rather than on the
     memory-bound scan of [large], whose speed drifts with the host's
     memory traffic; 4 predicates already reach the variant cap.
   - Each threshold stream walks a seeded permutation of 100 buckets of
     width 10 (with a seeded offset inside the bucket), so every 100
     rotations cover [0, 1000) once whatever the seed: result sizes, and
     with them latencies, are spread alike from seed to seed.
   - The rotation length is odd, so the median falls inside one
     template's distribution, not on the boundary between two. *)
let conj_sizes = [| 1; 2; 3; 3; 4; 4 |]
let rotation = 5 + Array.length conj_sizes
let buckets = 100

let adhoc ~seed ~n_docs =
  let rng = Random.State.make [| seed; 0xad |] in
  let titles =
    Array.map
      (fun d -> if d = 0 then Datagen.query_title else Printf.sprintf "Title %d" d)
      (permutation rng (max 1 n_docs))
  in
  let vocab = Datagen.default.Datagen.vocab_size in
  let words =
    Array.map
      (fun w -> if w = vocab then Datagen.query_word else Printf.sprintf "w%d" w)
      (permutation rng (vocab + 1))
  in
  (* one threshold stream for [large], then one per conjunct *)
  let first_stream = Array.make (Array.length conj_sizes) 1 in
  for k = 1 to Array.length conj_sizes - 1 do
    first_stream.(k) <- first_stream.(k - 1) + conj_sizes.(k - 1)
  done;
  let streams =
    Array.init (1 + Array.fold_left ( + ) 0 conj_sizes) (fun _ ->
        Array.map (fun b -> (b * 10) + Random.State.int rng 10) (permutation rng buckets))
  in
  let pick a k = a.(k mod Array.length a) in
  let thr c j = pick streams.(j) c in
  fun i ->
    let c = i / rotation in
    match i mod rotation with
    | 0 -> worked ~title:(pick titles c) ~word:(pick words c)
    | 1 -> title ~title:(pick titles (c + 17))
    | 2 -> large ~threshold:(thr c 0)
    | 3 -> join ~title:(pick titles (c + 31))
    | 4 -> contains ~word:(pick words (c + 101))
    | k ->
      let k = k - 5 in
      conj (List.init conj_sizes.(k) (fun j -> thr c (first_stream.(k) + j)))

(* The repeat stream: the EXP-A mix, verbatim, round and round. *)
let repeat () =
  let a = Array.of_list exp_a in
  fun i -> a.(i mod Array.length a)
