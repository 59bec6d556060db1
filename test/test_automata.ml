open Testutil

let a = Regex.sym_of_name "a"
let b = Regex.sym_of_name "b"
let c = Regex.sym_of_name "c"
let ab_star = Regex.star (Regex.seq a b)
let paper_regex = Infer.infer Ir_examples.paper_loop

(* --- NFA basics -------------------------------------------------------------- *)

let test_nfa_symbol () =
  let nfa = Nfa.symbol (sym "a") in
  Alcotest.(check bool) "accepts a" true (Nfa.accepts nfa (tr [ "a" ]));
  Alcotest.(check bool) "rejects empty" false (Nfa.accepts nfa []);
  Alcotest.(check bool) "rejects aa" false (Nfa.accepts nfa (tr [ "a"; "a" ]))

let test_nfa_eps_closure () =
  let nfa =
    Nfa.create ~num_states:4 ~start:[ 0 ] ~accept:[ 3 ]
      ~transitions:[ (1, sym "a", 2) ]
      ~epsilons:[ (0, 1); (2, 3) ]
      ()
  in
  Alcotest.(check bool) "accepts via eps" true (Nfa.accepts nfa (tr [ "a" ]));
  Alcotest.(check int) "closure of start" 2
    (States.Set.cardinal (Nfa.initial_config nfa))

let test_nfa_eps_cycle () =
  (* ε-cycles must not loop the closure computation. *)
  let nfa =
    Nfa.create ~num_states:3 ~start:[ 0 ] ~accept:[ 2 ]
      ~transitions:[ (1, sym "a", 2) ]
      ~epsilons:[ (0, 1); (1, 0) ]
      ()
  in
  Alcotest.(check bool) "accepts" true (Nfa.accepts nfa (tr [ "a" ]))

let test_nfa_union () =
  let nfa = Nfa.union (Nfa.symbol (sym "a")) (Nfa.symbol (sym "b")) in
  Alcotest.(check bool) "a" true (Nfa.accepts nfa (tr [ "a" ]));
  Alcotest.(check bool) "b" true (Nfa.accepts nfa (tr [ "b" ]));
  Alcotest.(check bool) "ab" false (Nfa.accepts nfa (tr [ "a"; "b" ]))

let test_nfa_concat () =
  let nfa = Nfa.concat (Nfa.symbol (sym "a")) (Nfa.symbol (sym "b")) in
  Alcotest.(check bool) "ab" true (Nfa.accepts nfa (tr [ "a"; "b" ]));
  Alcotest.(check bool) "a" false (Nfa.accepts nfa (tr [ "a" ]))

let test_nfa_star () =
  let nfa = Nfa.star (Nfa.symbol (sym "a")) in
  Alcotest.(check bool) "empty" true (Nfa.accepts nfa []);
  Alcotest.(check bool) "aaa" true (Nfa.accepts nfa (tr [ "a"; "a"; "a" ]))

let test_nfa_shortest () =
  let nfa = Thompson.of_regex (Regex.seq (Regex.star a) (Regex.seq b c)) in
  Alcotest.(check (option trace)) "bc" (Some (tr [ "b"; "c" ])) (Nfa.shortest_accepted nfa)

let test_nfa_shortest_with_states () =
  let nfa = Thompson.of_regex (Regex.seq a b) in
  match Nfa.shortest_accepted_with_states nfa with
  | None -> Alcotest.fail "expected a witness"
  | Some (trace_found, path) ->
    Alcotest.check trace "trace" (tr [ "a"; "b" ]) trace_found;
    Alcotest.(check int) "path length = trace length + 1" 3 (List.length path)

let test_nfa_map_symbols_projection () =
  (* Erase b: language of (ab)* projects to a*. *)
  let nfa = Thompson.of_regex ab_star in
  let projected =
    Nfa.map_symbols (fun s -> if Symbol.equal s (sym "a") then Some s else None) nfa
  in
  Alcotest.(check bool) "aa accepted" true (Nfa.accepts projected (tr [ "a"; "a" ]));
  Alcotest.(check bool) "b gone" false (Nfa.accepts projected (tr [ "b" ]))

let test_nfa_self_loops () =
  let nfa = Nfa.add_self_loops (Symbol.Set.singleton (sym "x")) (Nfa.symbol (sym "a")) in
  Alcotest.(check bool) "xax accepted" true (Nfa.accepts nfa (tr [ "x"; "a"; "x" ]));
  Alcotest.(check bool) "bare x rejected" false (Nfa.accepts nfa (tr [ "x" ]))

let test_nfa_trim () =
  let nfa =
    Nfa.create ~num_states:5 ~start:[ 0 ] ~accept:[ 2 ]
      ~transitions:[ (0, sym "a", 2); (0, sym "a", 3); (4, sym "b", 2) ]
      ()
  in
  let trimmed = Nfa.trim nfa in
  (* States 1 (isolated), 3 (dead end), 4 (unreachable) disappear. *)
  Alcotest.(check int) "two live states" 2 (Nfa.num_states trimmed);
  Alcotest.(check bool) "language preserved" true (Nfa.accepts trimmed (tr [ "a" ]))

let test_nfa_trim_empty () =
  let nfa = Nfa.create ~num_states:3 ~start:[ 0 ] ~accept:[] ~transitions:[] () in
  Alcotest.(check bool) "empty language" true (Nfa.is_empty (Nfa.trim nfa))

let test_nfa_reverse () =
  let nfa = Thompson.of_regex (Regex.seq a b) in
  Alcotest.(check bool) "reverse accepts ba" true (Nfa.accepts (Nfa.reverse nfa) (tr [ "b"; "a" ]))

(* --- Constructions agree ------------------------------------------------------ *)

let constructions_agree r =
  let thompson = Thompson.of_regex r in
  let glushkov = Glushkov.of_regex r in
  let words = Enumerate.words_upto ~max_len:4 r in
  let words_t = Nfa.words_upto ~max_len:4 thompson in
  let words_g = Nfa.words_upto ~max_len:4 glushkov in
  Trace.Set.equal words words_t && Trace.Set.equal words words_g

let test_constructions_on_paper_regex () =
  Alcotest.(check bool) "paper loop regex" true (constructions_agree paper_regex)

let test_glushkov_eps_free () =
  let nfa = Glushkov.of_regex (Regex.star (Regex.alt a (Regex.seq b c))) in
  Alcotest.(check int) "no epsilons" 0 (List.length (Nfa.epsilons nfa))

let prop_constructions_agree =
  qtest "thompson & glushkov match enumeration" ~count:100 default_regex_gen
    ~print:regex_print constructions_agree

(* --- Determinization / DFA ----------------------------------------------------- *)

let dfa_of r = Determinize.determinize (Thompson.of_regex r)

let test_determinize_preserves () =
  let dfa = dfa_of ab_star in
  Alcotest.(check bool) "abab" true (Dfa.accepts dfa (tr [ "a"; "b"; "a"; "b" ]));
  Alcotest.(check bool) "empty" true (Dfa.accepts dfa []);
  Alcotest.(check bool) "aba" false (Dfa.accepts dfa (tr [ "a"; "b"; "a" ]))

let test_determinize_explicit_alphabet () =
  let dfa = Determinize.determinize ~alphabet:[ sym "a"; sym "b"; sym "z" ] (Nfa.symbol (sym "a")) in
  Alcotest.(check bool) "z rejected not error" false (Dfa.accepts dfa (tr [ "z" ]))

let test_dfa_complement () =
  let dfa = Dfa.complement (dfa_of ab_star) in
  Alcotest.(check bool) "empty now rejected" false (Dfa.accepts dfa []);
  Alcotest.(check bool) "aba accepted" true (Dfa.accepts dfa (tr [ "a"; "b"; "a" ]))

let test_dfa_product_ops () =
  let d1 = dfa_of (Regex.star (Regex.alt a b)) in
  let d2 =
    Determinize.determinize ~alphabet:[ sym "a"; sym "b" ] (Thompson.of_regex (Regex.star a))
  in
  let inter = Dfa.intersect d1 d2 in
  Alcotest.(check bool) "aa in both" true (Dfa.accepts inter (tr [ "a"; "a" ]));
  Alcotest.(check bool) "ab only in first" false (Dfa.accepts inter (tr [ "a"; "b" ]));
  let diff = Dfa.difference d1 d2 in
  Alcotest.(check bool) "ab in difference" true (Dfa.accepts diff (tr [ "a"; "b" ]));
  Alcotest.(check bool) "aa not in difference" false (Dfa.accepts diff (tr [ "a"; "a" ]))

let test_dfa_alphabet_mismatch_rejected () =
  let d1 = dfa_of a in
  let d2 = dfa_of b in
  Alcotest.check_raises "different alphabets"
    (Invalid_argument "Dfa: boolean operation on different alphabets") (fun () ->
      ignore (Dfa.intersect d1 d2))

let test_dfa_shortest_counterexample () =
  let impl = dfa_of (Regex.star (Regex.alt a b)) in
  let spec =
    Determinize.determinize ~alphabet:[ sym "a"; sym "b" ] (Thompson.of_regex (Regex.star a))
  in
  Alcotest.(check (option trace)) "shortest divergence" (Some (tr [ "b" ]))
    (Dfa.counterexample_inclusion impl spec)

let test_dfa_restrict_alphabet () =
  let dfa = dfa_of a in
  let wider = Dfa.restrict_alphabet ~alphabet:[ sym "a"; sym "q" ] dfa in
  Alcotest.(check bool) "a still accepted" true (Dfa.accepts wider (tr [ "a" ]));
  Alcotest.(check bool) "q rejected" false (Dfa.accepts wider (tr [ "q" ]))

(* --- Minimization --------------------------------------------------------------- *)

let test_minimize_paper_regex () =
  let dfa = dfa_of paper_regex in
  let min_h = Minimize.minimize_hopcroft dfa in
  let min_m = Minimize.minimize_moore dfa in
  Alcotest.(check bool) "equivalent to source" true (Dfa.equivalent dfa min_h);
  Alcotest.(check bool) "hopcroft = moore (isomorphic)" true (Minimize.isomorphic min_h min_m);
  Alcotest.(check bool) "no bigger than source" true
    (Dfa.num_states min_h <= States.Set.cardinal (Dfa.reachable_states dfa))

let test_minimize_collapses () =
  (* a + b over {a, b}: minimal DFA has 3 states (start, accept, sink). *)
  let dfa = dfa_of (Regex.alt a b) in
  let minimized = Minimize.minimize dfa in
  Alcotest.(check int) "three states" 3 (Dfa.num_states minimized)

let prop_minimizers_agree =
  qtest "hopcroft and moore give isomorphic DFAs" ~count:80 default_regex_gen
    ~print:regex_print (fun r ->
      let dfa = dfa_of r in
      let h = Minimize.minimize_hopcroft dfa in
      let m = Minimize.minimize_moore dfa in
      Minimize.isomorphic h m && Dfa.equivalent h dfa)

let prop_minimize_idempotent =
  qtest "minimize is idempotent" ~count:80 default_regex_gen ~print:regex_print
    (fun r ->
      let m = Minimize.minimize (dfa_of r) in
      Dfa.num_states (Minimize.minimize m) = Dfa.num_states m)

(* --- State elimination (round-trip) -------------------------------------------- *)

let test_state_elim_roundtrip_paper () =
  let nfa = Thompson.of_regex paper_regex in
  let back = State_elim.to_regex nfa in
  Alcotest.(check bool) "round-trip equivalent" true (Equiv.equivalent paper_regex back)

let prop_state_elim_roundtrip =
  qtest "regex -> NFA -> regex preserves language" ~count:60 default_regex_gen
    ~print:regex_print (fun r ->
      Equiv.equivalent r (State_elim.to_regex (Thompson.of_regex r)))

(* --- Language-level checks ------------------------------------------------------- *)

let test_language_inclusion () =
  let impl = Thompson.of_regex (Regex.star (Regex.seq a b)) in
  let spec = Thompson.of_regex (Regex.star (Regex.alt a b)) in
  Alcotest.(check bool) "(ab)* ⊆ (a+b)*" true (Language.included ~impl ~spec ());
  Alcotest.(check (option trace)) "reverse direction fails on shortest"
    (Some (tr [ "a" ]))
    (Language.inclusion_counterexample ~impl:spec ~spec:impl ())

let test_language_equivalence () =
  let n1 = Thompson.of_regex (Regex.alt a (Regex.seq a b)) in
  let n2 = Thompson.of_regex (Regex.seq a (Regex.opt b)) in
  Alcotest.(check bool) "factored form equivalent" true (Language.equivalent n1 n2)

let test_language_intersect () =
  let n1 = Thompson.of_regex (Regex.star (Regex.alt a b)) in
  let n2 = Thompson.of_regex (Regex.seq a (Regex.star b)) in
  let inter = Language.intersect n1 n2 in
  Alcotest.(check bool) "abb" true (Nfa.accepts inter (tr [ "a"; "b"; "b" ]));
  Alcotest.(check bool) "ba" false (Nfa.accepts inter (tr [ "b"; "a" ]));
  Alcotest.(check int) "no epsilons" 0 (List.length (Nfa.epsilons inter))

(* Two routes reach {1..8}: [a c] in one step set, [b c] as the union of
   {1..4} and {5..8}. Equal sets built in different orders differ in tree
   shape, so the product must intern configurations by value: 4 states,
   not 5. *)
let test_language_intersect_interns_by_value () =
  let a, b, c = (sym "a", sym "b", sym "c") in
  let nfa =
    Nfa.create ~num_states:12 ~start:[ 0 ] ~accept:[ 1 ]
      ~transitions:
        ([ (0, a, 11); (0, b, 9); (0, b, 10) ]
        @ List.init 8 (fun i -> (11, c, i + 1))
        @ List.init 4 (fun i -> (9, c, i + 1))
        @ List.init 4 (fun i -> (10, c, i + 5)))
      ()
  in
  let universal =
    Nfa.create ~num_states:1 ~start:[ 0 ] ~accept:[ 0 ]
      ~transitions:[ (0, a, 0); (0, b, 0); (0, c, 0) ]
      ()
  in
  let inter = Language.intersect nfa universal in
  Alcotest.(check int) "distinct configurations" 4 (Nfa.num_states inter);
  Alcotest.(check bool) "ac" true (Nfa.accepts inter (tr [ "a"; "c" ]));
  Alcotest.(check bool) "bc" true (Nfa.accepts inter (tr [ "b"; "c" ]))

let prop_language_counterexample_valid =
  qtest "inclusion counterexample is real" ~count:80
    QCheck2.Gen.(pair default_regex_gen default_regex_gen)
    ~print:(fun (r1, r2) -> regex_print r1 ^ " vs " ^ regex_print r2)
    (fun (r1, r2) ->
      let impl = Thompson.of_regex r1 in
      let spec = Thompson.of_regex r2 in
      match Language.inclusion_counterexample ~impl ~spec () with
      | None -> Equiv.included r1 r2
      | Some w -> Deriv.matches r1 w && not (Deriv.matches r2 w))

let prop_dfa_nfa_agree =
  qtest "DFA and NFA accept the same bounded language" ~count:80 default_regex_gen
    ~print:regex_print (fun r ->
      let nfa = Thompson.of_regex r in
      let dfa = Determinize.determinize nfa in
      Trace.Set.equal (Nfa.words_upto ~max_len:4 nfa) (Dfa.words_upto ~max_len:4 dfa))

(* --- The exploration core ----------------------------------------------------------- *)

module Ints = Explore.Make (Int)

(* A random deterministic transition system over states 0..n-1 with labels
   0..2 (at most one edge per state and label, as in every instance: each
   state stands for a whole configuration); successors are emitted in
   ascending label order. *)
let graph_gen =
  QCheck2.Gen.(
    int_range 1 7 >>= fun n ->
    list_size (int_range 0 16)
      (triple (int_range 0 (n - 1)) (int_range 0 2) (int_range 0 (n - 1)))
    >>= fun edges ->
    list_size (int_range 0 2) (int_range 0 (n - 1)) >>= fun goals ->
    let edges =
      List.sort_uniq (fun (s, l, _) (s', l', _) -> compare (s, l) (s', l')) edges
    in
    return (n, edges, goals))

let graph_print (n, edges, goals) =
  Printf.sprintf "n=%d edges=[%s] goals=[%s]" n
    (String.concat ";" (List.map (fun (s, l, d) -> Printf.sprintf "%d-%d->%d" s l d) edges))
    (String.concat ";" (List.map string_of_int goals))

let graph_succ edges s emit =
  List.iter (fun (s', l, d) -> if s' = s then emit l d) edges

let reachable edges =
  let rec close seen =
    let seen' =
      List.fold_left
        (fun acc (s, _, d) -> if List.mem s acc && not (List.mem d acc) then d :: acc else acc)
        seen edges
    in
    if List.length seen' = List.length seen then seen else close seen'
  in
  close [ 0 ]

let prop_reach_discovery_order =
  qtest "reach interns each reachable state once, in discovery order" ~count:300 graph_gen
    ~print:graph_print (fun (_, edges, _) ->
      let g = Ints.reach ~start:0 ~succ:(graph_succ edges) () in
      let states = Array.to_list g.states in
      let n = List.length states in
      let first_seen =
        List.fold_left
          (fun acc (_, _, d) -> if List.mem d acc then acc else acc @ [ d ])
          [ 0 ] g.edges
      in
      List.sort compare states = List.sort compare (reachable edges)
      (* Ids in order of first appearance as an edge target, sources expanded
         in id order, and every edge of a reachable state present. *)
      && first_seen = List.init n Fun.id
      &&
      let sources = List.map (fun (s, _, _) -> s) g.edges in
      sources = List.sort compare sources
      && List.map (fun (s, l, d) -> (g.states.(s), l, g.states.(d))) g.edges
         = List.concat_map (fun s -> List.filter (fun (s', _, _) -> s' = s) edges) states)

let prop_reach_spends_fuel_per_state =
  qtest "reach spends one unit of fuel per state" ~count:300 graph_gen ~print:graph_print
    (fun (_, edges, _) ->
      let n = List.length (reachable edges) in
      let run limit =
        Ints.reach ~fuel:(Limits.fuel ~resource:"test graph states" limit) ~start:0
          ~succ:(graph_succ edges) ()
      in
      Array.length (run n).states = n
      &&
      match run (n - 1) with
      | _ -> false
      | exception Limits.Budget_exceeded { resource; limit } ->
        resource = "test graph states" && limit = n - 1)

(* Words over {0,1,2} in shortlex order up to [max_len], run through the
   graph as a nondeterministic automaton. *)
let brute_shortest (n, edges, goals) =
  let step set l =
    List.sort_uniq compare
      (List.filter_map
         (fun (s, l', d) -> if l = l' && List.mem s set then Some d else None)
         edges)
  in
  let hits set = List.exists (fun g -> List.mem g set) goals in
  let rec level len words =
    if len > n then None
    else
      match List.find_opt (fun (_, set) -> hits set) words with
      | Some (w, _) -> Some (List.rev w)
      | None ->
        level (len + 1)
          (List.concat_map
             (fun (w, set) -> List.map (fun l -> (l :: w, step set l)) [ 0; 1; 2 ])
             words)
  in
  level 0 [ ([], [ 0 ]) ]

let prop_shortest_is_shortlex_least =
  qtest "shortest finds the shortlex-least witness" ~count:300 graph_gen ~print:graph_print
    (fun ((_, edges, goals) as graph) ->
      let goal s = List.mem s goals in
      let expected = brute_shortest graph in
      Ints.shortest ~goal ~start:0 ~succ:(graph_succ edges) () = expected
      && Ints.shortest
           ~arrive:(fun s -> if goal s then Explore.Found else Keep)
           ~start:0 ~succ:(graph_succ edges) ()
         = expected)

let prop_shortest_budget_keeps_counts =
  qtest "an exhausted shortest keeps its counts" ~count:300 graph_gen ~print:graph_print
    (fun (_, edges, _) ->
      let n = List.length (reachable edges) in
      let counts = Explore.counts () in
      let search limit =
        Ints.shortest ~fuel:(Limits.fuel ~resource:"test graph states" limit) ~counts ~start:0
          ~succ:(graph_succ edges) ()
      in
      match search (n - 1) with
      | _ -> false
      | exception Limits.Budget_exceeded { resource; _ } ->
        resource = "test graph states" && counts.states = n - 1
        &&
        let counts_full = Explore.counts () in
        Ints.shortest ~counts:counts_full ~start:0 ~succ:(graph_succ edges) () = None
        && counts_full.states = n
        (* Every edge leads to a state reached before, except the n - 1
           discovery edges. *)
        && counts_full.revisits
           = List.length (List.filter (fun (s, _, _) -> List.mem s (reachable edges)) edges)
             - (n - 1))

let () =
  Alcotest.run "automata"
    [
      ( "nfa",
        [
          Alcotest.test_case "symbol" `Quick test_nfa_symbol;
          Alcotest.test_case "eps closure" `Quick test_nfa_eps_closure;
          Alcotest.test_case "eps cycle" `Quick test_nfa_eps_cycle;
          Alcotest.test_case "union" `Quick test_nfa_union;
          Alcotest.test_case "concat" `Quick test_nfa_concat;
          Alcotest.test_case "star" `Quick test_nfa_star;
          Alcotest.test_case "shortest accepted" `Quick test_nfa_shortest;
          Alcotest.test_case "shortest with states" `Quick test_nfa_shortest_with_states;
          Alcotest.test_case "projection" `Quick test_nfa_map_symbols_projection;
          Alcotest.test_case "self loops" `Quick test_nfa_self_loops;
          Alcotest.test_case "trim" `Quick test_nfa_trim;
          Alcotest.test_case "trim empty" `Quick test_nfa_trim_empty;
          Alcotest.test_case "reverse" `Quick test_nfa_reverse;
        ] );
      ( "constructions",
        [
          Alcotest.test_case "paper regex" `Quick test_constructions_on_paper_regex;
          Alcotest.test_case "glushkov eps-free" `Quick test_glushkov_eps_free;
          prop_constructions_agree;
        ] );
      ( "dfa",
        [
          Alcotest.test_case "determinize preserves" `Quick test_determinize_preserves;
          Alcotest.test_case "explicit alphabet" `Quick test_determinize_explicit_alphabet;
          Alcotest.test_case "complement" `Quick test_dfa_complement;
          Alcotest.test_case "product ops" `Quick test_dfa_product_ops;
          Alcotest.test_case "alphabet mismatch" `Quick test_dfa_alphabet_mismatch_rejected;
          Alcotest.test_case "shortest counterexample" `Quick test_dfa_shortest_counterexample;
          Alcotest.test_case "restrict alphabet" `Quick test_dfa_restrict_alphabet;
          prop_dfa_nfa_agree;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "paper regex" `Quick test_minimize_paper_regex;
          Alcotest.test_case "collapses" `Quick test_minimize_collapses;
          prop_minimizers_agree;
          prop_minimize_idempotent;
        ] );
      ( "state-elim",
        [
          Alcotest.test_case "paper round-trip" `Quick test_state_elim_roundtrip_paper;
          prop_state_elim_roundtrip;
        ] );
      ( "language",
        [
          Alcotest.test_case "inclusion" `Quick test_language_inclusion;
          Alcotest.test_case "equivalence" `Quick test_language_equivalence;
          Alcotest.test_case "intersect" `Quick test_language_intersect;
          Alcotest.test_case "intersect interns by value" `Quick
            test_language_intersect_interns_by_value;
          prop_language_counterexample_valid;
        ] );
      ( "explore",
        [
          prop_reach_discovery_order;
          prop_reach_spends_fuel_per_state;
          prop_shortest_is_shortlex_least;
          prop_shortest_budget_keeps_counts;
        ] );
    ]
