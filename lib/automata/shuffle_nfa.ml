(* On-the-fly shuffle product: configurations are tuples of per-branch
   ε-closed state sets, interned by the shared explorer as they are
   reached — the eager interleaving expansion (binomially many positions,
   see [Interleave.expand]) is never built. A symbol steps exactly ONE
   branch and leaves the others in place, and acceptance requires every
   branch to accept. Bounded by [Limits] under the "shuffle-product
   configurations" resource. *)

module Configs = Explore.Make (struct
  type t = States.Set.t list

  let compare = List.compare States.Set.compare
end)

let product ?(limits = Limits.default) branches =
  Obs.with_span "shuffle.product" @@ fun () ->
  let branches = Array.of_list branches in
  let alphabets = Array.map Nfa.alphabet branches in
  let fuel =
    Limits.fuel ~within:limits ~resource:"shuffle-product configurations"
      limits.Limits.max_configs
  in
  let g =
    Configs.reach ~fuel
      ~start:(Array.to_list (Array.map Nfa.initial_config branches))
      ~succ:(fun config emit ->
        let cells = Array.of_list config in
        Array.iteri
          (fun b cell ->
            Symbol.Set.iter
              (fun sym ->
                let next = Nfa.step branches.(b) cell sym in
                if not (States.Set.is_empty next) then begin
                  let cells' = Array.copy cells in
                  cells'.(b) <- next;
                  emit sym (Array.to_list cells')
                end)
              alphabets.(b))
          cells)
      ()
  in
  let count = Array.length g.states in
  Obs.count "shuffle.configs" count;
  Nfa.create ~num_states:count ~start:[ 0 ]
    ~accept:(Configs.select g (List.for_all2 Nfa.accepting_config (Array.to_list branches)))
    ~transitions:g.edges ()

let on_the_fly ?limits n1 n2 = product ?limits [ n1; n2 ]
