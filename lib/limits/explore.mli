(** Breadth-first exploration of a lazily generated finite state space.

    Every forward construction and witness search over automata in the
    pipeline is an instance of this one engine: subset construction,
    language products, the shuffle product, LTLf progression and tableau,
    entailment, and the derivative automaton of a regex. An instance
    supplies an ordered state type and a successor function; the explorer
    interns each reachable state once (by [compare], never by physical
    shape), visits states in breadth-first discovery order and spends one
    unit of an optional {!Limits.fuel} per new state.

    Successors are emitted through a callback, in the order the instance
    wants them explored. When a state emits each label at most once, in
    ascending order (a deterministic transition system, as every subset,
    product and derivative construction is), the first witness found is
    the shortlex-least one. *)

type counts = {
  mutable states : int;  (** Distinct states reached so far. *)
  mutable revisits : int;  (** Successors that were already reached. *)
}

val counts : unit -> counts
(** Fresh zero counts. *)

(** What {!Make.shortest} does with a state when it first reaches it. *)
type verdict =
  | Found  (** The path to this state is the witness; stop. *)
  | Keep  (** Expand it in turn. *)
  | Drop  (** Remember it, but never expand it. *)

module Make (S : Set.OrderedType) : sig
  type 'l graph = {
    states : S.t array;
        (** Every reachable state exactly once, in discovery order. A state's
            id is its index; the start state is id 0. *)
    edges : (int * 'l * int) list;
        (** [(src, label, dst)] ids, in the order they were emitted. *)
  }

  val reach :
    ?fuel:Limits.fuel ->
    ?arrive:(S.t -> unit) ->
    start:S.t ->
    succ:(S.t -> ('l -> S.t -> unit) -> unit) ->
    unit ->
    'l graph
  (** The whole reachable graph. On each new state, [reach] spends one unit
      of [fuel], then calls [arrive] (a place for size caps that raise).
      @raise Limits.Budget_exceeded when the fuel runs out. *)

  val select : 'l graph -> (S.t -> bool) -> int list
  (** The ids of the states satisfying the predicate, ascending. *)

  val shortest :
    ?fuel:Limits.fuel ->
    ?counts:counts ->
    ?goal:(S.t -> bool) ->
    ?arrive:(S.t -> verdict) ->
    start:S.t ->
    succ:(S.t -> ('l -> S.t -> unit) -> unit) ->
    unit ->
    'l list option
  (** The label path to the first state that satisfies [goal] when it is
      expanded, or that [arrive] calls [Found] when it is first reached;
      [None] if the reachable space holds neither. On each new state,
      [shortest] spends one unit of [fuel], calls [arrive] (default
      [Keep]) and counts the state in [counts]; a successor already reached
      counts as a revisit. [counts] stays readable after an exception.
      @raise Limits.Budget_exceeded when the fuel runs out. *)
end
