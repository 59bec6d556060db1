(* Seeded corpus generators with planted answers.

   Every generated file carries the answer the checker must give on it: the
   exit code of `check`, the set of lint rule codes and the exit code of
   `lint`. The answer follows from how the file is built (which protocol
   step is left out, which claims are copies or weakenings of others),
   never from running the checker. The seed picks names, branch order and
   leak placement; the sizes that set the amount of work are fixed per
   workload, so two seeds give projects of the same cost. *)

type piece = {
  text : string;
  p_check : int;  (* planted `check` exit code of this class *)
  p_codes : string list;  (* planted lint rule codes of this class *)
  p_claims : int;
}

type file = {
  path : string;
  source : string;
  check_code : int;
  lint_codes : string list;  (* sorted, unique *)
  lint_code : int;
  classes : int;
  claims : int;
}

let rng seed salt = Random.State.make [| 0x5e11e7; seed; salt |]
let pick st xs = List.nth xs (Random.State.int st (List.length xs))

(* The lint exit code a set of codes implies: 1 when any planted code is an
   error-severity rule of the registry, else 0. *)
let lint_exit codes =
  if
    List.exists
      (fun c ->
        match Rules.find_code c with
        | Some r -> r.Rules.severity = Report.Error
        | None -> false)
      codes
  then 1
  else 0

let make_file ~path pieces =
  let codes = List.sort_uniq compare (List.concat_map (fun p -> p.p_codes) pieces) in
  {
    path;
    source = String.concat "\n\n" (List.map (fun p -> p.text) pieces) ^ "\n";
    check_code = List.fold_left (fun acc p -> max acc p.p_check) 0 pieces;
    lint_codes = codes;
    lint_code = lint_exit codes;
    classes = List.length pieces;
    claims = List.fold_left (fun acc p -> acc + p.p_claims) 0 pieces;
  }

let piece ?(check = 0) ?(codes = []) ?(claims = 0) text =
  { text; p_check = check; p_codes = codes; p_claims = claims }

let lines xs = String.concat "\n" xs
let indent n s = String.make n ' ' ^ s

(* --- The paper's Valve (Listing 2.1): a correct base class --------------- *)

let valve name =
  piece
    (lines
       [
         "@sys";
         "class " ^ name ^ ":";
         "    def __init__(self):";
         "        self.control = Pin(27, OUT)";
         "        self.clean = Pin(28, OUT)";
         "        self.status = Pin(29, IN)";
         "";
         "    @op_initial";
         "    def test(self):";
         "        if self.status.value():";
         "            return [\"open\"]";
         "        else:";
         "            return [\"clean\"]";
         "";
         "    @op";
         "    def open(self):";
         "        self.control.on()";
         "        return [\"close\"]";
         "";
         "    @op_final";
         "    def close(self):";
         "        self.control.off()";
         "        return [\"test\"]";
         "";
         "    @op_final";
         "    def clean(self):";
         "        self.clean.on()";
         "        return [\"test\"]";
       ])

(* One full valve cycle on [field] at [depth] spaces: test, then open+close
   or clean. With [leak] the open branch never closes, which leaves the
   valve in a non-final state: an invalid subsystem usage. *)
let cycle ?(leak = false) ?(swap = false) ~depth field =
  let open_case =
    [ "case [\"open\"]:"; "    self." ^ field ^ ".open()" ]
    @ if leak then [] else [ "    self." ^ field ^ ".close()" ]
  in
  let clean_case = [ "case [\"clean\"]:"; "    self." ^ field ^ ".clean()" ] in
  let cases = if swap then clean_case @ open_case else open_case @ clean_case in
  (indent depth ("match self." ^ field ^ ".test():")
  :: List.map (fun l -> indent (depth + 4) l) cases)

let decorator ~i ~n =
  if n = 1 then "@op_initial_final"
  else if i = 0 then "@op_initial"
  else if i = n - 1 then "@op_final"
  else "@op"

(* A composite of [n] operations chained in a line over [fields] valves;
   operation [i] drives field [i mod m]. Usage inclusion on it grows about
   quadratically in [n]. [leak] drops the close of the last operation's open
   branch (check exit 1). [dead] adds an operation nothing returns to
   (SY006 + SY101 warnings). *)
let chain st ~cls ~valve_cls ~fields ~n ?(leak = false) ?(dead = false)
    ?(claims = []) () =
  let op_prefix = pick st [ "step"; "phase"; "stage" ] in
  let op i = Printf.sprintf "%s%d" op_prefix i in
  let m = List.length fields in
  let field i = List.nth fields (i mod m) in
  let header =
    List.map (fun c -> Printf.sprintf "@claim(\"%s\")" c) claims
    @ [
        "@sys([" ^ String.concat ", " (List.map (Printf.sprintf "\"%s\"") fields) ^ "])";
        "class " ^ cls ^ ":";
        "    def __init__(self):";
      ]
    @ List.map (fun f -> Printf.sprintf "        self.%s = %s()" f valve_cls) fields
  in
  let body i =
    let next = if i = n - 1 then "[]" else Printf.sprintf "[\"%s\"]" (op (i + 1)) in
    [ ""; "    " ^ decorator ~i ~n; Printf.sprintf "    def %s(self):" (op i) ]
    @ cycle ~leak:(leak && i = n - 1) ~swap:(Random.State.bool st) ~depth:8 (field i)
    @ [ "        return " ^ next ]
  in
  let orphan =
    if not dead then []
    else
      [
        "";
        "    @op_final";
        "    def orphan(self):";
      ]
      @ cycle ~depth:8 (field 0)
      @ [ "        return []" ]
  in
  lines (header @ List.concat (List.init n body) @ orphan)

(* Nested loops and branches around valve cycles. [shape] lists the nest
   from the outside in: `W` is a while loop that runs a valve cycle and
   then the rest, `I` an if/else whose two arms repeat the rest. More than three nested loops exceeds the default
   star-height threshold, so SY108 fires. *)
let deep st ~cls ~valve_cls shape =
  let rec nest depth = function
    | [] -> cycle ~swap:(Random.State.bool st) ~depth "v"
    | `W :: rest ->
      (* A cycle before the inner nest keeps the loops from collapsing:
         (r* )* is r*, but (c r* )* has star height 2. *)
      (indent depth "while busy:" :: cycle ~swap:(Random.State.bool st) ~depth:(depth + 4) "v")
      @ nest (depth + 4) rest
    | `I :: rest ->
      (indent depth "if ready:" :: nest (depth + 4) rest)
      @ (indent depth "else:" :: nest (depth + 4) rest)
  in
  let loops = List.length (List.filter (( = ) `W) shape) in
  piece
    ~codes:(if loops > 3 then [ "SY108" ] else [])
    (lines
       ([
          "@sys([\"v\"])";
          "class " ^ cls ^ ":";
          "    def __init__(self):";
          Printf.sprintf "        self.v = %s()" valve_cls;
          "";
          "    @op_initial_final";
          "    def run(self):";
        ]
       @ nest 8 shape
       @ [ "        return []" ]))

(* --- Concurrency: Datalog sessions (samples/datalog.py) -------------------- *)

(* [race = true] is the sample itself: the spawned session can interleave
   between the foreground begin/end, so check fails and lint reports the
   race (SY112, a warning). [race = false] makes sessions single-shot and
   every interleaving safe. *)
let datalog ~log_cls ~cls ~race =
  let base =
    if race then
      [
        "@sys";
        "class " ^ log_cls ^ ":";
        "    def __init__(self):";
        "        self.cs = Pin(5, OUT)";
        "";
        "    @op_initial";
        "    def begin(self):";
        "        self.cs.on()";
        "        return [\"begin\", \"end\"]";
        "";
        "    @op_final";
        "    def end(self):";
        "        self.cs.off()";
        "        return [\"begin\"]";
      ]
    else
      [
        "@sys";
        "class " ^ log_cls ^ ":";
        "    def __init__(self):";
        "        self.cs = Pin(5, OUT)";
        "";
        "    @op_initial_final";
        "    def begin(self):";
        "        self.cs.on()";
        "        return [\"begin\"]";
      ]
  in
  let sampler =
    [
      "@sys([\"log\"])";
      "class " ^ cls ^ ":";
      "    def __init__(self):";
      "        self.log = " ^ log_cls ^ "()";
      "";
      "    @op_initial_final";
      "    async def sample(self):";
      "        uasyncio.create_task(self.log.begin())";
      "        self.log.begin()";
    ]
    @ (if race then [ "        self.log.end()" ] else [])
    @ [ "        return []" ]
  in
  [
    piece (lines ("import uasyncio" :: "" :: base));
    (if race then piece ~check:1 ~codes:[ "SY112" ] (lines sampler)
     else piece (lines sampler));
  ]

(* --- The paper's sectors (Listings 2.2 and the corrected version) ---------- *)

let bad_sector ~cls ~valve_cls =
  piece ~check:1 ~claims:1
    (lines
       [
         "@claim(\"(!a.open) W b.open\")";
         "@sys([\"a\", \"b\"])";
         "class " ^ cls ^ ":";
         "    def __init__(self):";
         "        self.a = " ^ valve_cls ^ "()";
         "        self.b = " ^ valve_cls ^ "()";
         "";
         "    @op_initial_final";
         "    def open_a(self):";
         "        match self.a.test():";
         "            case [\"open\"]:";
         "                self.a.open()";
         "                return [\"open_b\"]";
         "            case [\"clean\"]:";
         "                self.a.clean()";
         "                print(\"a failed\")";
         "                return []";
         "";
         "    @op_final";
         "    def open_b(self):";
         "        match self.b.test():";
         "            case [\"open\"]:";
         "                self.b.open()";
         "                self.a.close()";
         "                self.b.close()";
         "                return []";
         "            case [\"clean\"]:";
         "                self.b.clean()";
         "                print(\"b failed\")";
         "                self.a.close()";
         "                return []";
       ])

let good_sector ~cls ~valve_cls =
  piece ~claims:1
    (lines
       [
         "@claim(\"(!a.open) W b.open\")";
         "@sys([\"a\", \"b\"])";
         "class " ^ cls ^ ":";
         "    def __init__(self):";
         "        self.a = " ^ valve_cls ^ "()";
         "        self.b = " ^ valve_cls ^ "()";
         "";
         "    @op_initial";
         "    def start(self):";
         "        match self.b.test():";
         "            case [\"open\"]:";
         "                self.b.open()";
         "                return [\"open_a\", \"drain\"]";
         "            case [\"clean\"]:";
         "                self.b.clean()";
         "                return [\"abort\"]";
         "";
         "    @op";
         "    def open_a(self):";
         "        match self.a.test():";
         "            case [\"open\"]:";
         "                self.a.open()";
         "                return [\"shutdown\"]";
         "            case [\"clean\"]:";
         "                self.a.clean()";
         "                return [\"drain\"]";
         "";
         "    @op_final";
         "    def shutdown(self):";
         "        self.a.close()";
         "        self.b.close()";
         "        return [\"start\"]";
         "";
         "    @op_final";
         "    def drain(self):";
         "        self.b.close()";
         "        return [\"start\"]";
         "";
         "    @op_final";
         "    def abort(self):";
         "        return [\"start\"]";
       ])

(* --- Claim sets over multi-valve chains ------------------------------------

   Facts the planted answers rest on (claims are LTLf over the subsystem
   calls of complete usages; the empty usage is one of them):
   - "F f.open" fails on the empty usage and on the all-clean one, so the
     model violates it; over distinct fields these claims are independent.
   - A later exact copy of a claim, or a weakening "F (f.open || g.open)"
     of an earlier "F f.open", is implied on every trace (SY109).
   - "(!f.open) W f.test" holds on every usage (a valve is tested before it
     opens, and the empty usage satisfies W), so the usage language alone
     entails it (SY104).
   - "F f.open" and "G !f.open" are each satisfiable over the model but not
     together (SY110, an error). Declared first, the pair's unsatisfiable
     conjunction implies every later claim on every trace (SY109).
   - Any dropped claim makes the set minimizable (SY111).
   The lint sweep runs in reverse declaration order, so the earliest of
   equivalent claims is the one kept. *)

let claim_set st ~fields ~base ~dups ~weak ~sat ~contra =
  let open_ f = Printf.sprintf "F %s.open" f in
  let m = List.length fields in
  let field i = List.nth fields (i mod m) in
  let base_claims = List.init base (fun i -> open_ (field i)) in
  let dup_claims = List.init dups (fun _ -> pick st base_claims) in
  let weak_claims =
    List.init weak (fun i ->
        Printf.sprintf "F (%s.open || %s.open)" (field (i mod base)) (field ((i mod base) + 1)))
  in
  let sat_claims = List.init sat (fun i -> Printf.sprintf "(!%s.open) W %s.test" (field i) (field i)) in
  let claims, codes =
    if contra then
      let pair = [ open_ (field 0); "G !" ^ field 0 ^ ".open" ] in
      let rest = List.filteri (fun i _ -> i > 0) base_claims @ dup_claims @ weak_claims @ sat_claims in
      ( pair @ rest,
        "SY110" :: (if rest <> [] then [ "SY109"; "SY111" ] else []) )
    else
      ( base_claims @ dup_claims @ weak_claims @ sat_claims,
        (if dups + weak > 0 then [ "SY109" ] else [])
        @ (if sat > 0 then [ "SY104" ] else [])
        @ if dups + weak + sat > 0 then [ "SY111" ] else [] )
  in
  (claims, codes)

(* --- Projects ---------------------------------------------------------------- *)

let names st =
  let suffix = pick st [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H" ] in
  let fpre = pick st [ "v"; "w"; "u" ] in
  (suffix, fpre)

(* check-scale: usage inclusion does most of the work. *)
let check_scale seed =
  let st = rng seed 1 in
  let suffix, fpre = names st in
  let vcls = "Valve" ^ suffix in
  let chains =
    List.concat_map
      (fun n ->
        [
          make_file
            ~path:(Printf.sprintf "chain%02d.py" n)
            [
              valve vcls;
              piece
                (chain st ~cls:(Printf.sprintf "Chain%s%d" suffix n) ~valve_cls:vcls
                   ~fields:[ fpre ^ "1" ] ~n ());
            ];
          make_file
            ~path:(Printf.sprintf "leak%02d.py" n)
            [
              valve vcls;
              piece ~check:1
                (chain st ~cls:(Printf.sprintf "Leaky%s%d" suffix n) ~valve_cls:vcls
                   ~fields:[ fpre ^ "1" ] ~n ~leak:true ());
            ];
        ])
      [ 8; 16; 32; 48; 64 ]
  in
  let shapes = [ [ `W; `I; `W ]; [ `W; `W; `I; `W ]; [ `I; `W; `I; `W ]; [ `W; `W; `W; `W ] ] in
  let deeps =
    List.mapi
      (fun i shape ->
        make_file
          ~path:(Printf.sprintf "deep%d.py" i)
          [ valve vcls; deep st ~cls:(Printf.sprintf "Deep%s%d" suffix i) ~valve_cls:vcls shape ])
      shapes
  in
  let listings =
    [
      make_file ~path:"bad_sector.py"
        [ valve vcls; bad_sector ~cls:("BadSector" ^ suffix) ~valve_cls:vcls ];
      make_file ~path:"good_sector.py"
        [ valve vcls; good_sector ~cls:("GoodSector" ^ suffix) ~valve_cls:vcls ];
    ]
  in
  let asyncs =
    List.map
      (fun race ->
        make_file
          ~path:(Printf.sprintf "async_%s.py" (if race then "race" else "safe"))
          (datalog ~log_cls:("Datalog" ^ suffix) ~cls:("Sampler" ^ suffix) ~race))
      [ true; false ]
  in
  chains @ deeps @ listings @ asyncs

(* lint-claims: claim-set analysis (Entail) does most of the work. *)
let lint_claims seed =
  let st = rng seed 2 in
  let suffix, fpre = names st in
  let vcls = "Valve" ^ suffix in
  let fields k = List.init k (fun i -> Printf.sprintf "%s%d" fpre (i + 1)) in
  (* (n, fields, base, dups, weak, sat, contra): 4..16 claims each. Many
     classes of moderate cost, rather than a few large ones, keep the pool's
     dynamic dispatch from making the call's wall time bimodal, and a call
     short enough for about a thousand calls per run. *)
  let specs =
    [
      (8, 2, 2, 1, 1, 0, false);
      (8, 2, 2, 1, 0, 0, true);
      (8, 2, 2, 2, 1, 1, false);
      (8, 2, 2, 1, 1, 1, true);
      (8, 3, 3, 2, 2, 1, false);
      (8, 3, 3, 2, 1, 1, true);
      (8, 2, 2, 3, 2, 2, false);
      (8, 2, 2, 3, 1, 2, true);
      (12, 2, 2, 3, 1, 2, false);
      (12, 2, 2, 2, 1, 2, true);
      (8, 2, 2, 7, 4, 3, false);
      (8, 2, 2, 6, 4, 3, true);
    ]
  in
  let claim_files =
    List.mapi
      (fun i (n, k, base, dups, weak, sat, contra) ->
        let fields = fields k in
        let claims, codes = claim_set st ~fields ~base ~dups ~weak ~sat ~contra in
        make_file
          ~path:(Printf.sprintf "claims%02d.py" i)
          [
            valve vcls;
            piece ~check:1 ~codes ~claims:(List.length claims)
              (chain st ~cls:(Printf.sprintf "Spec%s%d" suffix i) ~valve_cls:vcls ~fields
                 ~n ~claims ());
          ])
      specs
  in
  let races =
    List.init 4 (fun i ->
        make_file
          ~path:(Printf.sprintf "race%d.py" i)
          (datalog
             ~log_cls:(Printf.sprintf "Datalog%s%d" suffix i)
             ~cls:(Printf.sprintf "Sampler%s%d" suffix i)
             ~race:true))
  in
  let dead =
    List.map
      (fun n ->
        make_file
          ~path:(Printf.sprintf "dead%02d.py" n)
          [
            valve vcls;
            piece ~codes:[ "SY006"; "SY101" ]
              (chain st ~cls:(Printf.sprintf "Idle%s%d" suffix n) ~valve_cls:vcls
                 ~fields:[ fpre ^ "1" ] ~n ~dead:true ());
          ])
      [ 16; 24 ]
  in
  (* Round-robin over the three kinds, so heavy and light files alternate. *)
  let rec interleave = function
    | [] -> []
    | [] :: rest -> interleave rest
    | (x :: xs) :: rest -> x :: interleave (rest @ [ xs ])
  in
  let half = List.length claim_files / 2 in
  let small = List.filteri (fun i _ -> i < half) claim_files in
  let large = List.rev (List.filteri (fun i _ -> i >= half) claim_files) in
  interleave [ interleave [ large; small ]; races; dead ]

(* serve-edit: small realistic files that a client edits and re-sends. Each
   slot holds one family; an edit swaps in one of the family's variants. *)
type family = {
  fam_name : string;
  variants : (string -> file) list;  (* path -> file *)
}

let families ~suffix =
  let vcls = "Valve" ^ suffix in
  let small ~leak path =
    make_file ~path
      [
        valve vcls;
        piece ~check:(if leak then 1 else 0)
          (chain (rng 0 3) ~cls:("Line" ^ suffix) ~valve_cls:vcls ~fields:[ "v" ] ~n:4 ~leak ());
      ]
  in
  let claims ~contra path =
    let fields = [ "a"; "b" ] in
    let claims, codes =
      claim_set (rng 0 4) ~fields ~base:2 ~dups:1 ~weak:0 ~sat:1 ~contra
    in
    make_file ~path
      [
        valve vcls;
        piece ~check:1 ~codes ~claims:(List.length claims)
          (chain (rng 0 5) ~cls:("Rig" ^ suffix) ~valve_cls:vcls ~fields ~n:2 ~claims ());
      ]
  in
  [
    {
      fam_name = "sector";
      variants =
        [
          (fun path ->
            make_file ~path [ valve vcls; good_sector ~cls:("Sector" ^ suffix) ~valve_cls:vcls ]);
          (fun path ->
            make_file ~path [ valve vcls; bad_sector ~cls:("Sector" ^ suffix) ~valve_cls:vcls ]);
        ];
    };
    {
      fam_name = "datalog";
      variants =
        List.map
          (fun race path ->
            make_file ~path
              (datalog ~log_cls:("Datalog" ^ suffix) ~cls:("Sampler" ^ suffix) ~race))
          [ false; true ];
    };
    { fam_name = "line"; variants = [ small ~leak:false; small ~leak:true ] };
    { fam_name = "claims"; variants = [ claims ~contra:false; claims ~contra:true ] };
    {
      fam_name = "valve";
      variants = [ (fun path -> make_file ~path [ valve vcls ]) ];
    };
  ]

(* An edited file: the variant's text plus a revision comment, so every edit
   is new content (a cache miss) whose answer is the variant's. *)
let with_revision (f : file) rev =
  { f with source = f.source ^ Printf.sprintf "# revision %d\n" rev }

(* Total source bytes of a project. *)
let source_bytes files = List.fold_left (fun acc f -> acc + String.length f.source) 0 files
