module Configs = Explore.Make (States.Set)

let determinize ?(limits = Limits.default) ?alphabet nfa =
  Obs.with_span "determinize" @@ fun () ->
  let alphabet =
    match alphabet with
    | Some syms -> List.sort_uniq Symbol.compare syms
    | None -> Symbol.Set.elements (Nfa.alphabet nfa)
  in
  (* Discover all reachable ε-closed configurations, numbered densely; the
     empty configuration is the sink. *)
  let fuel =
    Limits.fuel ~within:limits ~resource:"determinization states" limits.Limits.max_states
  in
  let g =
    Configs.reach ~fuel ~start:(Nfa.initial_config nfa)
      ~succ:(fun config emit ->
        List.iter (fun sym -> emit sym (Nfa.step nfa config sym)) alphabet)
      ()
  in
  let count = Array.length g.states in
  Obs.count "determinize.calls" 1;
  Obs.count "determinize.states" count;
  Dfa.of_edges ~alphabet ~num_states:count ~start:0
    ~accept:(Configs.select g (Nfa.accepting_config nfa))
    g.edges
