(* Product states: pairs of ε-closed configurations of two NFAs run in
   lockstep. *)
module Pairs = Explore.Make (struct
  type t = States.Set.t * States.Set.t

  let compare (a1, a2) (b1, b2) =
    let c = States.Set.compare a1 b1 in
    if c <> 0 then c else States.Set.compare a2 b2
end)

(* [bad] spots a distinguishing pair when it is expanded; breadth-first
   order makes the witness shortest. *)
let find_witness ?(limits = Limits.default) ?alphabet ~bad n1 n2 =
  Obs.with_span "language.product" @@ fun () ->
  let alphabet =
    match alphabet with
    | Some set -> set
    | None -> Symbol.Set.union (Nfa.alphabet n1) (Nfa.alphabet n2)
  in
  let syms = Symbol.Set.elements alphabet in
  let fuel =
    Limits.fuel ~within:limits ~resource:"language-product configurations"
      limits.Limits.max_configs
  in
  let counts = Explore.counts () in
  let witness =
    Pairs.shortest ~fuel ~counts
      ~goal:(fun (c1, c2) -> bad (Nfa.accepting_config n1 c1) (Nfa.accepting_config n2 c2))
      ~start:(Nfa.initial_config n1, Nfa.initial_config n2)
      ~succ:(fun (c1, c2) emit ->
        List.iter (fun sym -> emit sym (Nfa.step n1 c1 sym, Nfa.step n2 c2 sym)) syms)
      ()
  in
  Obs.count "language.configs" counts.states;
  witness

let inclusion_counterexample ?limits ?alphabet ~impl ~spec () =
  find_witness ?limits ?alphabet ~bad:(fun a b -> a && not b) impl spec

let included ?limits ?alphabet ~impl ~spec () =
  Option.is_none (inclusion_counterexample ?limits ?alphabet ~impl ~spec ())

let equivalence_counterexample ?limits n1 n2 =
  find_witness ?limits ~bad:(fun a b -> a <> b) n1 n2

let equivalent ?limits n1 n2 = Option.is_none (equivalence_counterexample ?limits n1 n2)

(* Each reachable pair with both sides alive becomes one product state; the
   result is ε-free by construction. *)
let intersect ?(limits = Limits.default) n1 n2 =
  Obs.with_span "language.intersect" @@ fun () ->
  let syms = Symbol.Set.elements (Symbol.Set.inter (Nfa.alphabet n1) (Nfa.alphabet n2)) in
  let fuel =
    Limits.fuel ~within:limits ~resource:"intersection-product configurations"
      limits.Limits.max_configs
  in
  let g =
    Pairs.reach ~fuel
      ~start:(Nfa.initial_config n1, Nfa.initial_config n2)
      ~succ:(fun (c1, c2) emit ->
        List.iter
          (fun sym ->
            let d1 = Nfa.step n1 c1 sym in
            let d2 = Nfa.step n2 c2 sym in
            if not (States.Set.is_empty d1 || States.Set.is_empty d2) then emit sym (d1, d2))
          syms)
      ()
  in
  Nfa.create ~num_states:(Array.length g.states) ~start:[ 0 ]
    ~accept:
      (Pairs.select g (fun (c1, c2) ->
           Nfa.accepting_config n1 c1 && Nfa.accepting_config n2 c2))
    ~transitions:g.edges ()
