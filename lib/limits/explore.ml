type counts = {
  mutable states : int;
  mutable revisits : int;
}

let counts () = { states = 0; revisits = 0 }

type verdict =
  | Found
  | Keep
  | Drop

let spend = function
  | Some fuel -> Limits.spend fuel
  | None -> ()

(* The one breadth-first loop behind both entry points, over any seen-set:
   [fresh s] records [s] and says whether it was new. *)
let search (type s l) ~(fresh : s -> bool) ?fuel ?(counts = counts ())
    ?(goal = fun _ -> false) ?(arrive = fun _ -> Keep) ~start
    ~(succ : s -> (l -> s -> unit) -> unit) () =
  let exception Hit of l list in
  let queue = Queue.create () in
  let visit s rev_path =
    if not (fresh s) then counts.revisits <- counts.revisits + 1
    else begin
      spend fuel;
      let verdict = arrive s in
      counts.states <- counts.states + 1;
      match verdict with
      | Found -> raise (Hit (List.rev rev_path))
      | Keep -> Queue.add (s, rev_path) queue
      | Drop -> ()
    end
  in
  let rec loop () =
    match Queue.take_opt queue with
    | None -> None
    | Some (s, rev_path) ->
      if goal s then Some (List.rev rev_path)
      else begin
        succ s (fun label s' -> visit s' (label :: rev_path));
        loop ()
      end
  in
  try
    visit start [];
    loop ()
  with Hit path -> Some path

module Make (S : Set.OrderedType) = struct
  module Index = Map.Make (S)
  module Seen = Set.Make (S)

  type 'l graph = {
    states : S.t array;
    edges : (int * 'l * int) list;
  }

  (* [reach] is [search] with a seen-set that numbers states: [fresh] leaves
     in [last] the id of the state it looked at, the destination of the
     edge being recorded. Every state is kept and no goal holds, so states
     are expanded in id order and [src] counts them. *)
  let reach ?fuel ?(arrive = ignore) ~start ~succ () =
    let index = ref Index.empty in
    let order = ref [] in
    let count = ref 0 in
    let last = ref 0 in
    let fresh s =
      match Index.find_opt s !index with
      | Some i ->
        last := i;
        false
      | None ->
        last := !count;
        index := Index.add s !count !index;
        order := s :: !order;
        incr count;
        true
    in
    let src = ref (-1) in
    let edges = ref [] in
    let succ s visit =
      incr src;
      succ s (fun label s' ->
          visit label s';
          edges := (!src, label, !last) :: !edges)
    in
    ignore (search ~fresh ?fuel ~arrive:(fun s -> arrive s; Keep) ~start ~succ ());
    { states = Array.of_list (List.rev !order); edges = List.rev !edges }

  let select g p =
    List.filter (fun i -> p g.states.(i)) (List.init (Array.length g.states) Fun.id)

  let shortest ?fuel ?counts ?goal ?arrive ~start ~succ () =
    let seen = ref Seen.empty in
    (* [Set.add] returns its argument physically unchanged when [s] is
       already a member: one descent both tests and inserts. *)
    let fresh s =
      let seen' = Seen.add s !seen in
      seen' != !seen && (seen := seen'; true)
    in
    search ~fresh ?fuel ?counts ?goal ?arrive ~start ~succ ()
end
