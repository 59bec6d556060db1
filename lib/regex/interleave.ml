(* Brute-force interleaving oracle. Everything here is deliberately naive
   and structural — no derivatives, no automata, no state exploration — so
   the fast paths (Deriv.deriv on Shuffle, the explored shuffle product
   Shuffle_nfa.on_the_fly, Glushkov dispatch) have an independent
   implementation to be differentially tested against. *)

let rec pairs u v =
  match u, v with
  | [], w | w, [] -> [ w ]
  | x :: u', y :: v' ->
    List.map (fun w -> x :: w) (pairs u' v) @ List.map (fun w -> y :: w) (pairs u v')

let shuffle_words u v = Trace.Set.of_list (pairs u v)

let add_all ws acc = List.fold_left (fun acc w -> Trace.Set.add w acc) acc ws

let shuffle_bounded ~max_len s1 s2 =
  Trace.Set.fold
    (fun u acc ->
      Trace.Set.fold
        (fun v acc ->
          if List.length u + List.length v > max_len then acc
          else add_all (pairs u v) acc)
        s2 acc)
    s1 Trace.Set.empty

let concat_bounded ~max_len s1 s2 =
  Trace.Set.fold
    (fun u acc ->
      Trace.Set.fold
        (fun v acc ->
          if List.length u + List.length v > max_len then acc
          else Trace.Set.add (u @ v) acc)
        s2 acc)
    s1 Trace.Set.empty

(* Least fixpoint of [X = {ε} ∪ base·X] within the length bound. Dropping ε
   from the base keeps every round strictly lengthening, so it terminates. *)
let star_bounded ~max_len base =
  let base = Trace.Set.remove [] base in
  let rec go acc frontier =
    let next =
      Trace.Set.diff (concat_bounded ~max_len base frontier) acc
    in
    if Trace.Set.is_empty next then acc else go (Trace.Set.union acc next) next
  in
  let init = Trace.Set.singleton [] in
  go init init

let rec words_upto ~max_len (r : Regex.t) =
  match r with
  | Empty -> Trace.Set.empty
  | Eps -> Trace.Set.singleton []
  | Sym a -> if max_len >= 1 then Trace.Set.singleton [ a ] else Trace.Set.empty
  | Seq (a, b) ->
    concat_bounded ~max_len (words_upto ~max_len a) (words_upto ~max_len b)
  | Alt (a, b) -> Trace.Set.union (words_upto ~max_len a) (words_upto ~max_len b)
  | Star a -> star_bounded ~max_len (words_upto ~max_len a)
  | Shuffle (a, b) ->
    shuffle_bounded ~max_len (words_upto ~max_len a) (words_upto ~max_len b)

let expand ~max_len r =
  Regex.alt_list (List.map Regex.word (Trace.Set.elements (words_upto ~max_len r)))
