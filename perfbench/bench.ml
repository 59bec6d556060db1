(* The benchmark of `check`, `lint` and `serve`.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --work DIR

   Workloads (each a closed loop from this one process):
   - check-scale: Checker.check_files on one seeded project over a 2-worker
     pool (the `check -j 2` path). Usage inclusion dominates.
   - lint-claims: Checker.lint_files on one seeded project over a 2-worker
     pool, rendered as SARIF. Claim-set entailment dominates.
   - serve-edit: a forked Serve.serve daemon (2 workers, result cache in a
     fresh directory) answering check and `lint --format json` requests from
     two connections; a share of requests re-sends unchanged files (cache
     reads), the rest first rewrite one file (cache misses and stores).

   With --trace 0 the last stdout line is a JSON object holding every
   end-to-end metric; with --trace 1 it holds every per-layer metric, taken
   from an in-process replay that times each layer's public function from
   outside the program. Every operation's output is compared with the
   in-process jobs=1 output and with the answer planted by the generator. *)

let now = Sysconf.monotonic_time
let ms_since t0 = (now () -. t0) *. 1000.

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1)
    fmt

(* --- small plumbing ------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Reads to end of file, so it also works on /proc files, whose length
   reads as 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun e ->
      let s = Filename.concat src e and d = Filename.concat dst e in
      if Sys.is_directory s then copy_dir s d else write_file d (read_file s))
    (Sys.readdir src)

let rec waitpid_eintr pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

(* Nearest-rank quantile of a non-empty list. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile 0.5 xs

(* Least-squares slope of log y against log x. *)
let log_slope points =
  let pts = List.map (fun (x, y) -> (log x, log (Float.max y 1e-6))) points in
  let n = float_of_int (List.length pts) in
  let mx = List.fold_left (fun a (x, _) -> a +. x) 0. pts /. n in
  let my = List.fold_left (fun a (_, y) -> a +. y) 0. pts /. n in
  let sxy = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) *. (x -. mx))) 0. pts in
  sxy /. sxx

(* Resident-set high-water mark of a live process, in MiB. *)
let vm_hwm_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' status)

(* --- the corpus and its reference answers -------------------------------- *)

type reference = {
  file : Gen.file;
  check_out : string;  (* in-process jobs=1 rendering *)
  check_code : int;
  lint_res : Lint.file_result;
  undecided : int;  (* entailment queries that ran out of budget *)
  planted_ok : bool;  (* in-process answers equal the planted ones *)
}

let lint_codes (r : Lint.file_result) =
  List.sort_uniq compare (List.map (fun (d : Lint.diagnostic) -> d.Lint.rule) r.Lint.findings)

let undecided_of source =
  let program, _ = Mpy_parser.parse_program_tolerant source in
  List.fold_left
    (fun acc cls ->
      match Extract.extract_class cls with
      | e when e.Extract.model.Model.claims <> [] -> (
        match
          Lint_semantic.analyze_claims
            ~fuel:Lint_semantic.default_thresholds.Lint_semantic.entail_fuel
            ~limits:Limits.default e.Extract.model
        with
        | a -> acc + a.Lint_semantic.undecided
        | exception _ -> acc + 1)
      | _ -> acc
      | exception _ -> acc)
    0 program.Mpy_ast.prog_classes

let defects = ref []

let note_defect fmt = Printf.ksprintf (fun s -> defects := s :: !defects) fmt

(* The in-process jobs=1 answer for one file as it is on disk now. *)
let reference (f : Gen.file) =
  let v = List.hd (Checker.check_files ~jobs:1 [ f.Gen.path ]) in
  let lr = List.hd (Checker.lint_files ~jobs:1 [ f.Gen.path ]) in
  let codes = lint_codes lr in
  let lcode = Lint.exit_code [ lr ] in
  let planted_ok =
    v.Checker.code = f.Gen.check_code && codes = f.Gen.lint_codes && lcode = f.Gen.lint_code
  in
  if not planted_ok then
    note_defect "%s: planted check=%d lint=%d [%s], got check=%d lint=%d [%s]" f.Gen.path
      f.Gen.check_code f.Gen.lint_code
      (String.concat " " f.Gen.lint_codes)
      v.Checker.code lcode (String.concat " " codes);
  {
    file = f;
    check_out = v.Checker.output;
    check_code = v.Checker.code;
    lint_res = lr;
    undecided = undecided_of f.Gen.source;
    planted_ok;
  }

(* Run [f] in a forked child and return its result, with the defects it
   noted. The in-process reference pass costs more memory than the
   operations under test; run here it never raises this process's
   resident-set high-water mark, nor that of the pool workers and daemons
   later forked from this process. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    (match f () with
    | v -> Marshal.to_channel oc (Ok (v, !defects)) []
    | exception e -> Marshal.to_channel oc (Error (Printexc.to_string e)) []);
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let res =
      try (Marshal.from_channel ic : ('a * string list, string) result)
      with End_of_file -> Error "the child died without a result"
    in
    close_in ic;
    ignore (waitpid_eintr pid);
    match res with
    | Ok (v, ds) ->
      defects := ds;
      v
    | Error e -> fail "reference pass: %s" e)

let decided_check r = r.check_code <> 3 && r.undecided = 0
let decided_lint r = Lint.file_exit_code r.lint_res <> 3 && r.undecided = 0

let write_corpus files =
  List.iter
    (fun (f : Gen.file) ->
      mkdir_p (Filename.dirname f.Gen.path);
      write_file f.Gen.path f.Gen.source)
    files

(* --- run accounting ------------------------------------------------------ *)

type tally = {
  mutable lat : (float * float * int) list;
      (* per operation: completion time, latency in ms, files *)
  mutable attempted : int;
  mutable failed : int;
  mutable files : int;
  mutable files_correct : int;
  mutable files_decided : int;
}

let new_tally () =
  { lat = []; attempted = 0; failed = 0; files = 0; files_correct = 0; files_decided = 0 }

let tally_file t ~correct ~decided =
  t.files <- t.files + 1;
  if correct then t.files_correct <- t.files_correct + 1;
  if decided then t.files_decided <- t.files_decided + 1

(* --- pool operations (check-scale, lint-claims) --------------------------- *)

type mode = Check | Lint_sarif

(* One operation: one project-wide call on [pool] (in-process without one).
   Tallies each file against its reference and plant; returns the call's
   wall time in ms. *)
let pool_op ?pool mode refs t =
  let paths = List.map (fun r -> r.file.Gen.path) refs in
  let t0 = now () in
  match mode with
  | Check ->
    let vs = Checker.check_files ?pool paths in
    let dt = ms_since t0 in
    List.iter2
      (fun r (v : Checker.verdict) ->
        let same = v.Checker.code = r.check_code && String.equal v.Checker.output r.check_out in
        if not same then note_defect "%s: pool check output differs from jobs=1" r.file.Gen.path;
        let correct = r.planted_ok && same in
        tally_file t ~correct ~decided:(v.Checker.code <> 3 && decided_check r))
      refs vs;
    dt
  | Lint_sarif ->
    let rs = Checker.lint_files ?pool paths in
    ignore (Lint_render.sarif rs : string);
    let dt = ms_since t0 in
    List.iter2
      (fun r (lr : Lint.file_result) ->
        let same = lr = r.lint_res in
        if not same then note_defect "%s: pool lint result differs from jobs=1" r.file.Gen.path;
        let correct = r.planted_ok && same in
        tally_file t ~correct ~decided:(Lint.file_exit_code lr <> 3 && decided_lint r))
      refs rs;
    dt

let pool_rss pool =
  List.fold_left
    (fun acc pid -> Float.max acc (vm_hwm_mb pid))
    (vm_hwm_mb (Unix.getpid ()))
    (Checker.pool_worker_pids pool)

(* Pool events that mean some task of an operation failed, even when its
   retry then succeeded: a crashed, wedged or garbled worker (restart), a
   deadline kill, a task given up after its retry, a failed fork, or a task
   run in-process because the pool degraded. Planned recycles are not. *)
let faults (s : Supervisor.stats) =
  s.Supervisor.restarts + s.Supervisor.kills + s.Supervisor.poisoned
  + s.Supervisor.fork_failures + s.Supervisor.inline_tasks

(* --- the serve client ---------------------------------------------------- *)

type slot = {
  s_path : string;
  s_variants : reference array;
  mutable s_cur : int;
  mutable s_rev : int;
}

type request = {
  r_method : string;  (* "check" | "lint" | "metrics" | "health" *)
  r_slots : slot list;
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  rng : Random.State.t;
  slots : slot array;
  mutable n : int;
  mutable prev : request option;
  mutable pending : (request * int * float * (slot * int) list) option;
      (* request, id, send time, the variant each slot held when sent *)
}

(* Share of work requests that re-send the previous request unchanged. *)
let repeat_share = 0.4

(* Every [probe_every]-th request of a connection is a metrics or health
   probe instead of work. *)
let probe_every = 25

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go pos =
    if pos < Bytes.length b then go (pos + Unix.write fd b pos (Bytes.length b - pos))
  in
  go 0

(* Read until one full line is buffered; [None] on EOF or timeout. *)
let rec recv_line ?(timeout = 60.) fd buf =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with
  | Some i ->
    Buffer.clear buf;
    Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)
  | None -> (
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> None
    | _ -> (
      let chunk = Bytes.create 65536 in
      match Unix.read fd chunk 0 65536 with
      | 0 -> None
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        recv_line ~timeout fd buf)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv_line ~timeout fd buf)

let call socket line =
  match connect socket with
  | None -> None
  | Some fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        send_line fd line;
        recv_line fd (Buffer.create 1024))

let request_line ~id req =
  let params =
    match req.r_method with
    | "check" -> [ ("files", Jsonl.Arr (List.map (fun s -> Jsonl.Str s.s_path) req.r_slots)) ]
    | "lint" ->
      [
        ("files", Jsonl.Arr (List.map (fun s -> Jsonl.Str s.s_path) req.r_slots));
        ("format", Jsonl.Str "json");
      ]
    | _ -> []
  in
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("id", Jsonl.Num (float_of_int id));
         ("method", Jsonl.Str req.r_method);
         ("params", Jsonl.Obj params);
       ])

let expected_output req variants =
  match req.r_method with
  | "check" ->
    let code = List.fold_left (fun acc r -> max acc r.check_code) 0 variants in
    let out = String.concat "" (List.map (fun r -> r.check_out) variants) in
    ((if code = 0 then out ^ "OK: specification verified\n" else out), code)
  | _ ->
    let rs = List.map (fun r -> r.lint_res) variants in
    (Lint_render.json rs, Lint.exit_code rs)

let rewrite slot ~variant =
  slot.s_cur <- variant;
  slot.s_rev <- slot.s_rev + 1;
  write_file slot.s_path (Gen.with_revision slot.s_variants.(variant).file slot.s_rev).Gen.source

(* The next request of [c]: a periodic probe, a re-send of the previous
   request, or 1-3 slots of which the first is first rewritten with a
   seeded edit when [edits] is on. *)
let next_request ~edits ~methods c =
  c.n <- c.n + 1;
  if c.n mod probe_every = 0 then
    { r_method = (if c.n / probe_every mod 2 = 0 then "metrics" else "health"); r_slots = [] }
  else
    match c.prev with
    | Some prev when Random.State.float c.rng 1.0 < repeat_share -> prev
    | _ ->
      let k = 1 + Random.State.int c.rng 3 in
      let idx = Array.init (Array.length c.slots) Fun.id in
      for i = Array.length idx - 1 downto 1 do
        let j = Random.State.int c.rng (i + 1) in
        let t = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- t
      done;
      let chosen = List.init (min k (Array.length idx)) (fun i -> c.slots.(idx.(i))) in
      (if edits then
         let s = List.hd chosen in
         rewrite s ~variant:(Random.State.int c.rng (Array.length s.s_variants)));
      let m = List.nth methods (Random.State.int c.rng (List.length methods)) in
      let req = { r_method = m; r_slots = chosen } in
      c.prev <- Some req;
      req

type session = {
  tally : tally;
  mutable lines : string list;  (* a sample of response lines *)
  lat_by_id : (int, float) Hashtbl.t;
}

let next_id = ref 0

let send c req =
  incr next_id;
  let variants = List.map (fun s -> (s, s.s_cur)) req.r_slots in
  c.pending <- Some (req, !next_id, now (), variants);
  send_line c.fd (request_line ~id:!next_id req)

(* Check one response against the references of the variants sent. *)
let judge sess (req, _id, _t0, variants) line =
  let t = sess.tally in
  let resp = Jsonl.parse line in
  let result = Result.to_option resp |> Fun.flip Option.bind (Jsonl.member "result") in
  match (req.r_method, result) with
  | ("metrics" | "health"), Some _ -> ()
  | ("metrics" | "health"), None ->
    t.failed <- t.failed + 1;
    note_defect "%s probe failed: %s" req.r_method line
  | _, None ->
    t.failed <- t.failed + 1;
    note_defect "%s request failed: %s" req.r_method line;
    List.iter (fun _ -> tally_file t ~correct:false ~decided:false) variants
  | m, Some result ->
    let refs = List.map (fun (s, v) -> s.s_variants.(v)) variants in
    let out, code = expected_output req refs in
    let same =
      Jsonl.mem_str "output" result = Some out && Jsonl.mem_int "code" result = Some code
    in
    if not same then note_defect "served %s output differs from jobs=1 for %s" m
        (String.concat " " (List.map (fun (s, _) -> s.s_path) variants));
    List.iter
      (fun r ->
        let decided = if m = "check" then decided_check r else decided_lint r in
        tally_file t ~correct:(same && r.planted_ok) ~decided)
      refs

(* Drive [conns] in a closed loop for [seconds]: each connection sends its
   next request only after the previous response arrived. *)
let run_session ~seconds ~edits ~methods conns =
  let sess =
    { tally = new_tally (); lines = []; lat_by_id = Hashtbl.create 1024 }
  in
  let t = sess.tally in
  let t_end = now () +. seconds in
  Array.iter (fun c -> send c (next_request ~edits ~methods c)) conns;
  let waiting () = List.filter (fun c -> c.pending <> None) (Array.to_list conns) in
  let lost c =
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    note_defect "no response from the daemon";
    c.pending <- None
  in
  let receive c =
    match (recv_line ~timeout:60. c.fd c.buf, c.pending) with
    | None, _ | _, None -> lost c
    | Some line, Some ((req, id, t0, _) as p) ->
      let ms = ms_since t0 in
      c.pending <- None;
      if req.r_method = "check" || req.r_method = "lint" then begin
        t.lat <- (now (), ms, List.length req.r_slots) :: t.lat;
        Hashtbl.replace sess.lat_by_id id ms
      end;
      t.attempted <- t.attempted + 1;
      if t.attempted mod 7 = 0 && List.length sess.lines < 400 then
        sess.lines <- line :: sess.lines;
      judge sess p line;
      if now () < t_end then send c (next_request ~edits ~methods c)
  in
  let rec loop () =
    match waiting () with
    | [] -> ()
    | busy ->
      let fds = List.map (fun c -> c.fd) busy in
      (match Unix.select fds [] [] 60. with
      | [], _, _ -> List.iter lost busy
      | ready, _, _ -> List.iter (fun c -> if List.mem c.fd ready then receive c) busy
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
  in
  loop ();
  sess

type daemon = {
  pid : int;
  socket : string;
}

(* Fork a Serve.serve daemon and return once it accepts connections. *)
let start_daemon ?(traced = false) ~socket ~cache_dir () =
  rm_rf cache_dir;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let code =
      try
        if traced then Obs.enable () else Obs.disable ();
        let cache = Result.to_option (Cache.open_dir cache_dir) in
        Serve.serve ~socket ~jobs:2 ?cache
          ?metrics_out:(if traced then Some "daemon-metrics.json" else None)
          ?access_log:(if traced then Some "daemon-access.jsonl" else None)
          ()
      with _ -> 99
    in
    Unix._exit code
  | pid ->
    let deadline = now () +. 30. in
    let rec wait () =
      match connect socket with
      | Some fd -> Unix.close fd
      | None ->
        if now () > deadline then fail "daemon socket %s never accepted" socket;
        Unix.sleepf 0.0001;
        wait ()
    in
    wait ();
    { pid; socket }

let stop_daemon d =
  (match call d.socket "{\"id\":0,\"method\":\"shutdown\"}" with
  | Some _ -> ()
  | None -> note_defect "daemon did not acknowledge shutdown");
  match waitpid_eintr d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> note_defect "daemon did not exit cleanly"

let daemon_json d meth =
  match call d.socket (Printf.sprintf "{\"id\":0,\"method\":\"%s\"}" meth) with
  | None -> None
  | Some line -> (
    match Jsonl.parse line with
    | Ok j -> Jsonl.member "result" j
    | Error _ -> None)

let daemon_rss d =
  let workers =
    match daemon_json d "status" with
    | Some st -> (
      match Jsonl.member "workers" st |> Fun.flip Option.bind Jsonl.to_list with
      | Some ws -> List.filter_map (fun w -> Option.map int_of_float (Jsonl.to_num w)) ws
      | None -> [])
    | None -> []
  in
  List.fold_left (fun acc pid -> Float.max acc (vm_hwm_mb pid)) (vm_hwm_mb d.pid) workers

(* [faults] of the daemon's pool, from its status RPC. *)
let daemon_faults d =
  match Option.bind (daemon_json d "status") (Jsonl.mem_obj "pool") with
  | None ->
    note_defect "daemon status has no pool stats";
    0
  | Some pool ->
    List.fold_left
      (fun acc k ->
        acc + (Option.bind (List.assoc_opt k pool) Jsonl.to_num |> Option.fold ~none:0 ~some:int_of_float))
      0
      [ "restarts"; "kills"; "poisoned"; "fork_failures"; "inline_tasks" ]

let open_conns ~socket slot_sets seed =
  Array.mapi
    (fun i slots ->
      match connect socket with
      | None -> fail "cannot connect to the daemon"
      | Some fd ->
        {
          fd;
          buf = Buffer.create 4096;
          rng = Gen.rng seed (100 + i);
          slots;
          n = 0;
          prev = None;
          pending = None;
        })
    slot_sets

let close_conns conns = Array.iter (fun c -> Unix.close c.fd) conns

(* --- workload corpora ---------------------------------------------------- *)

let serve_slots ~seed ~conns ~per_conn =
  let st = Gen.rng seed 7 in
  let suffix, _ = Gen.names st in
  let fams = Array.of_list (Gen.families ~suffix) in
  Array.init conns (fun c ->
      Array.init per_conn (fun i ->
          let fam = fams.((i + c) mod Array.length fams) in
          let path = Printf.sprintf "c%d/%s%d.py" c fam.Gen.fam_name i in
          (path, List.map (fun mk -> mk path) fam.Gen.variants)))

(* Write every variant in turn and take its reference (in a child), then
   leave variant 0. *)
let reference_slots specs =
  let refs =
    in_child (fun () ->
        Array.map
          (Array.map (fun (path, variants) ->
               Array.of_list
                 (List.map
                    (fun (f : Gen.file) ->
                      mkdir_p (Filename.dirname path);
                      write_file path f.Gen.source;
                      reference f)
                    variants)))
          specs)
  in
  Array.map2
    (Array.map2 (fun (path, _) variants ->
         let slot = { s_path = path; s_variants = variants; s_cur = 0; s_rev = 0 } in
         rewrite slot ~variant:0;
         slot))
    specs refs

let project_files workload seed =
  match workload with
  | "check-scale" -> Gen.check_scale seed
  | "lint-claims" -> Gen.lint_claims seed
  | "serve-edit" ->
    (* The traced replay's project: every variant of every family. *)
    let st = Gen.rng seed 7 in
    let suffix, _ = Gen.names st in
    List.concat_map
      (fun (fam : Gen.family) ->
        List.mapi
          (fun i mk -> mk (Printf.sprintf "p/%s%d.py" fam.Gen.fam_name i))
          fam.Gen.variants)
      (Gen.families ~suffix)
  | w -> fail "unknown workload %s" w

(* --- input-size record -------------------------------------------------- *)

let input_record ~label files =
  Obs.enable ();
  let acc = Hashtbl.create 16 in
  let counts = Stage.zero_counts () in
  List.iter (fun (f : Gen.file) -> ignore (Stage.replay acc counts ~file:f.Gen.path f.Gen.source)) files;
  let c = Stage.counter in
  let record =
    Printf.sprintf
      "{\"workload\": \"%s\", \"files\": %d, \"source_kb\": %.1f, \"classes\": %d, \"claims\": %d, \
       \"max_regex_size\": %d, \"nfa_states\": %d, \"product_configs\": %d, \"entail_states\": %d}"
      label (List.length files)
      (float_of_int (Gen.source_bytes files) /. 1024.)
      (List.fold_left (fun a (f : Gen.file) -> a + f.Gen.classes) 0 files)
      (List.fold_left (fun a (f : Gen.file) -> a + f.Gen.claims) 0 files)
      counts.Stage.max_regex (c "usage.nfa_states") (c "language.configs") (c "entail.states")
  in
  Obs.disable ();
  record

(* --- results --------------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
          (if Float.is_finite v then Printf.sprintf "%.9g" v else "null")
          unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let report_defects () =
  List.iter (fun d -> Printf.printf "defect: %s\n" d) (List.rev !defects)

let ratio a b = if b = 0 then 1. else float_of_int a /. float_of_int b

let latencies t = List.map (fun (_, ms, _) -> ms) t.lat

(* The timed loop is cut into windows of [window_s] seconds by completion
   time; latency quantiles and throughput are computed per window and the
   median over windows is reported. A burst of interference from outside
   the program then moves a few windows, not the run's figures. A trailing
   partial window is dropped; a run shorter than one window is one window. *)
let window_s = 2.

let windowed ~t_start ~wall t =
  let n = max 1 (int_of_float (wall /. window_s)) in
  let width = if n = 1 then wall else window_s in
  let buckets = Array.make n [] in
  List.iter
    (fun ((done_at, _, _) as sample) ->
      let k = if n = 1 then 0 else int_of_float ((done_at -. t_start) /. width) in
      if k >= 0 && k < n then buckets.(k) <- sample :: buckets.(k))
    t.lat;
  let windows = List.filter (fun b -> b <> []) (Array.to_list buckets) in
  let over f = median (List.map f windows) in
  let lat b = List.map (fun (_, ms, _) -> ms) b in
  ( over (fun b -> median (lat b)),
    over (fun b -> quantile 0.9 (lat b)),
    over (fun b -> float_of_int (List.fold_left (fun a (_, _, f) -> a + f) 0 b) /. width) )

let end_to_end ~setup ~rss ~t_start ~wall t =
  let p50, p90, files_per_s = windowed ~t_start ~wall t in
  [
    ("latency_p50_ms", "ms", p50);
    ("latency_p90_ms", "ms", p90);
    ("files_per_s", "1/s", files_per_s);
    ("decided_ratio", "ratio", ratio t.files_decided t.files);
    ("correct_ratio", "ratio", ratio t.files_correct t.files);
    ("success_ratio", "ratio", 1. -. ratio t.failed (max 1 t.attempted));
    ("peak_rss_mb", "MB", rss);
    ("setup_s", "s", median setup);
  ]

let summary ~workload t =
  let lat = latencies t in
  let n = List.length lat in
  Printf.printf
    "%s: %d operations, %d files, %d failed (error_ratio %.4f), latency over %d samples \
     (%d beyond p90, %d beyond p99), p99 %.4g ms; deciles ms: %s\n"
    workload t.attempted t.files t.failed
    (ratio t.failed (max 1 t.attempted))
    n (n / 10) (n / 100) (quantile 0.99 lat)
    (String.concat " "
       (List.init 9 (fun i -> Printf.sprintf "%.3g" (quantile (float_of_int (i + 1) /. 10.) lat))))

(* --- untraced workloads -------------------------------------------------- *)

(* Set-up is repeated this many times per run and its median reported;
   runs shorter than 10 s (smoke runs) repeat it 3 times. *)
let setup_reps ~seconds = if seconds >= 10. then 25 else 3

let pool_workload ~workload ~mode ~seed ~seconds =
  let files = project_files workload seed in
  write_corpus files;
  let refs = in_child (fun () -> List.map reference files) in
  (* Set-up: corpus generation, pool start and the first cold operation,
     several times; the last pool is kept for the measured loop. *)
  let setup_reps = setup_reps ~seconds in
  let setup = ref [] in
  let pool = ref None in
  let first = ref None in
  for rep = 1 to setup_reps do
    Option.iter Checker.shutdown_pool !pool;
    let t0 = now () in
    let files = project_files workload seed in
    write_corpus files;
    let p = Checker.make_pool ~jobs:2 () in
    let paths = List.map (fun (f : Gen.file) -> f.Gen.path) files in
    let out =
      match mode with
      | Check ->
        `Check (Checker.check_files ~pool:p paths)
      | Lint_sarif ->
        let rs = Checker.lint_files ~pool:p paths in
        ignore (Lint_render.sarif rs : string);
        `Lint rs
    in
    setup := (now () -. t0) :: !setup;
    pool := Some p;
    if rep = setup_reps then first := Some out
  done;
  let pool = Option.get !pool in
  (* The set-up's cold operation must match the references too. *)
  (match !first with
  | Some (`Check vs) ->
    List.iter2
      (fun r (v : Checker.verdict) ->
        if v.Checker.output <> r.check_out then note_defect "%s: cold pool check differs" r.file.Gen.path)
      refs vs
  | Some (`Lint rs) ->
    List.iter2
      (fun r lr -> if lr <> r.lint_res then note_defect "%s: cold pool lint differs" r.file.Gen.path)
      refs rs
  | None -> ());
  let t = new_tally () in
  let t_start = now () in
  let t_end = t_start +. seconds in
  while now () < t_end do
    t.attempted <- t.attempted + 1;
    let before = faults (Checker.pool_stats pool) in
    match pool_op ~pool mode refs t with
    | ms ->
      t.lat <- (now (), ms, List.length refs) :: t.lat;
      if faults (Checker.pool_stats pool) > before then begin
        t.failed <- t.failed + 1;
        note_defect "operation %d: a worker crashed, timed out or was bypassed" t.attempted
      end
    | exception e ->
      t.failed <- t.failed + 1;
      note_defect "operation raised %s" (Printexc.to_string e)
  done;
  let wall = now () -. t_start in
  let rss = pool_rss pool in
  Checker.shutdown_pool pool;
  summary ~workload t;
  (t, end_to_end ~setup:!setup ~rss ~t_start ~wall t)

let serve_workload ~seed ~seconds =
  let socket = "serve.sock" and cache_dir = "serve-cache" in
  let slots = reference_slots (serve_slots ~seed ~conns:2 ~per_conn:6) in
  let setup = ref [] in
  let daemon = ref None in
  for _ = 1 to setup_reps ~seconds do
    Option.iter stop_daemon !daemon;
    let t0 = now () in
    let specs = serve_slots ~seed ~conns:2 ~per_conn:6 in
    Array.iter
      (Array.iter (fun (path, variants) ->
           mkdir_p (Filename.dirname path);
           write_file path (Gen.with_revision (List.hd variants) 0).Gen.source))
      specs;
    let d = start_daemon ~socket ~cache_dir () in
    let cold =
      Printf.sprintf "{\"id\":0,\"method\":\"check\",\"params\":{\"files\":[%s]}}"
        (String.concat ","
           (List.map (fun (p, _) -> "\"" ^ p ^ "\"") (Array.to_list (Array.sub specs.(0) 0 3))))
    in
    (match call socket cold with
    | Some _ -> ()
    | None -> note_defect "cold request failed");
    setup := (now () -. t0) :: !setup;
    daemon := Some d
  done;
  let d = Option.get !daemon in
  (* Leave every slot's file as its references expect: variant 0. *)
  Array.iter (Array.iter (fun s -> rewrite s ~variant:0)) slots;
  let conns = open_conns ~socket slots seed in
  let faults_before = daemon_faults d in
  let t_start = now () in
  let sess = run_session ~seconds ~edits:true ~methods:[ "check"; "check"; "lint" ] conns in
  let wall = now () -. t_start in
  close_conns conns;
  (* A worker fault inside the daemon still answers the request, with a
     fault report; count each as a failed operation. *)
  let pool_faults = daemon_faults d - faults_before in
  if pool_faults > 0 then begin
    sess.tally.failed <- sess.tally.failed + pool_faults;
    note_defect "%d worker faults in the daemon's pool" pool_faults
  end;
  let rss = daemon_rss d in
  stop_daemon d;
  summary ~workload:"serve-edit" sess.tally;
  (sess.tally, end_to_end ~setup:!setup ~rss ~t_start ~wall sess.tally)

(* --- the traced run -------------------------------------------------------- *)

let reps_median ~reps f = median (List.init reps (fun _ -> f ()))

let time_ms f =
  let t0 = now () in
  ignore (f ());
  ms_since t0

let traced ~workload ~seed ~seconds =
  let files = project_files workload seed in
  write_corpus files;
  let refs = List.map reference files in
  let ok = ref true in
  let untraced =
    List.map
      (fun r ->
        let f = r.file in
        ( Stage.render_reports (Pipeline.verify_source f.Gen.source).Pipeline.reports,
          Lint_render.json [ Lint.lint_source ~file:f.Gen.path f.Gen.source ] ))
      refs
  in
  (* 1. Staged replay, Obs on, three passes; stage times are the median pass. *)
  Obs.enable ();
  let passes = 3 in
  let per_pass = ref [] in
  let counts = ref (Stage.zero_counts ()) in
  let lint_results = ref [] in
  for pass = 1 to passes do
    let acc = Hashtbl.create 32 in
    let cnt = Stage.zero_counts () in
    let lint_rs =
      List.map2
        (fun r (check_out, lint_out) ->
          let f = r.file in
          let checked, linted = Stage.replay acc cnt ~file:f.Gen.path f.Gen.source in
          if not (String.equal checked check_out) then begin
            ok := false;
            note_defect "%s: staged check output differs from Pipeline.verify_source" f.Gen.path
          end;
          if not (String.equal (Lint_render.json [ linted ]) lint_out) then begin
            ok := false;
            note_defect "%s: staged lint output differs from Lint.lint_source" f.Gen.path
          end;
          linted)
        refs untraced
    in
    lint_results := lint_rs;
    per_pass := acc :: !per_pass;
    if pass = 1 then counts := cnt
  done;
  let work = Stage.pipeline_count !counts in
  let shuffle = work "shuffle.configs" and tableau = work "tableau.states" in
  let entail_states = work "entail.states" and memo_hits = work "entail.memo_hits" in
  let stage k =
    median
      (List.map (fun acc -> Option.value (Hashtbl.find_opt acc k) ~default:0.) !per_pass)
  in
  let lint_render_ms = reps_median ~reps:5 (fun () -> time_ms (fun () -> Lint_render.render Lint_render.Sarif !lint_results)) in
  (* 2. Untraced pipeline time, for coverage. *)
  Obs.disable ();
  let verify_ms =
    reps_median ~reps:passes (fun () ->
        time_ms (fun () -> List.iter (fun r -> ignore (Pipeline.verify_source r.file.Gen.source)) refs))
  in
  let staged_sum = List.fold_left (fun a k -> a +. stage k) 0. Stage.pipeline_stages in
  (* 3. Trace overhead and pool speed-up on the workload's own operation. *)
  let mode = if workload = "lint-claims" then Lint_sarif else Check in
  let scratch = new_tally () in
  let op ?pool () = pool_op ?pool mode refs scratch in
  let untraced_ms = ref [] and traced_ms = ref [] in
  for _ = 1 to 5 do
    untraced_ms := op () :: !untraced_ms;
    Obs.enable ();
    traced_ms := op () :: !traced_ms;
    Obs.disable ()
  done;
  let pool = Checker.make_pool ~jobs:2 () in
  ignore (op ~pool ());
  (* Enough operations that workers reach their task limit and recycle. *)
  let pool_ms = reps_median ~reps:20 (fun () -> op ~pool ()) in
  let ps = Checker.pool_stats pool in
  Checker.shutdown_pool pool;
  (* 4. Scaling families: inclusion and dead-operation time against chain
     length, claim analysis against claim count. *)
  let st = Gen.rng seed 9 in
  let chain_model n =
    let src =
      (Gen.valve "ValveS").Gen.text ^ "\n\n"
      ^ Gen.chain st ~cls:"Scale" ~valve_cls:"ValveS" ~fields:[ "v" ] ~n ()
    in
    let p, _ = Mpy_parser.parse_program_tolerant src in
    let ms = List.map (fun c -> (c, (Extract.extract_class c).Extract.model)) p.Mpy_ast.prog_classes in
    (List.map snd ms, List.nth ms 1)
  in
  let dead_rule =
    List.find (fun ((r : Rules.t), _) -> r.Rules.code = "SY101") Lint_semantic.rules |> snd
  in
  let incl_pts, dead_pts =
    List.split
      (List.map
         (fun n ->
           let models, (cls, m) = chain_model n in
           let acc = Hashtbl.create 4 in
           let incl =
             reps_median ~reps:5 (fun () ->
                 Hashtbl.reset acc;
                 Stage.automata acc (Stage.zero_counts ()) ~limits:Limits.default models;
                 Option.value (Hashtbl.find_opt acc "automata.inclusion") ~default:0.)
           in
           let env = Stage.env_of models in
           let dead =
             reps_median ~reps:5 (fun () ->
                 let ctx =
                   Lint_semantic.make_ctx ~limits:Limits.default
                     ~thresholds:Lint_semantic.default_thresholds ~env ~cls ~model:m
                 in
                 time_ms (fun () -> dead_rule ctx))
           in
           ((float_of_int n, incl), (float_of_int n, dead)))
         [ 8; 16; 32; 48; 64 ])
  in
  let claim_pts =
    List.map
      (fun (base, dups, weak, sat) ->
        let fields = [ "a1"; "a2"; "a3"; "a4" ] in
        let claims, _ = Gen.claim_set st ~fields ~base ~dups ~weak ~sat ~contra:false in
        let src =
          (Gen.valve "ValveS").Gen.text ^ "\n\n"
          ^ Gen.chain st ~cls:"Claims" ~valve_cls:"ValveS" ~fields ~n:12 ~claims ()
        in
        let p, _ = Mpy_parser.parse_program_tolerant src in
        let m = (Extract.extract_class (List.nth p.Mpy_ast.prog_classes 1)).Extract.model in
        let t =
          reps_median ~reps:3 (fun () ->
              time_ms (fun () ->
                  Lint_semantic.analyze_claims
                    ~fuel:Lint_semantic.default_thresholds.Lint_semantic.entail_fuel
                    ~limits:Limits.default m))
        in
        (float_of_int (List.length claims), t))
      [ (4, 0, 0, 0); (4, 2, 1, 1); (4, 3, 2, 3); (4, 4, 4, 4) ]
  in
  (* 5. A serve session with the daemon's Obs counters and access log on. *)
  let socket = "trace.sock" and cache_dir = "trace-cache" in
  (try Sys.remove "daemon-metrics.json" with Sys_error _ -> ());
  (try Sys.remove "daemon-access.jsonl" with Sys_error _ -> ());
  let d = start_daemon ~traced:true ~socket ~cache_dir () in
  let slot_sets, edits, methods =
    if workload = "serve-edit" then
      (reference_slots (serve_slots ~seed ~conns:2 ~per_conn:6), true, [ "check"; "check"; "lint" ])
    else
      let slots =
        Array.of_list
          (List.map (fun r -> { s_path = r.file.Gen.path; s_variants = [| r |]; s_cur = 0; s_rev = 0 }) refs)
      in
      ([| slots; slots |], false, [ (if mode = Check then "check" else "lint") ])
  in
  let conns = open_conns ~socket slot_sets seed in
  let sess = run_session ~seconds:(Float.min 5. (seconds /. 2.)) ~edits ~methods conns in
  close_conns conns;
  let metrics = daemon_json d "metrics" in
  stop_daemon d;
  let hist meth field =
    Option.bind metrics (fun m ->
        Option.bind (Jsonl.mem_obj "methods" m) (fun ms ->
            Option.bind (List.assoc_opt meth ms) (fun h ->
                Option.bind (Jsonl.member field h) (Jsonl.mem_num "p50"))))
    |> Option.value ~default:nan
  in
  let queue_p50 = hist (List.hd methods) "queue_ms" and exec_p50 = hist (List.hd methods) "exec_ms" in
  let transport =
    match read_file "daemon-access.jsonl" with
    | exception Sys_error _ -> []
    | log ->
      List.filter_map
        (fun line ->
          match Jsonl.parse line with
          | Error _ -> None
          | Ok j -> (
            match (Jsonl.mem_int "id" j, Jsonl.mem_num "queue_ms" j, Jsonl.mem_num "exec_ms" j) with
            | Some id, Some q, Some e ->
              Option.map (fun lat -> lat -. q -. e) (Hashtbl.find_opt sess.lat_by_id id)
            | _ -> None))
        (String.split_on_char '\n' log)
  in
  let daemon_counter name =
    match Jsonl.parse (read_file "daemon-metrics.json") with
    | Ok j ->
      Option.bind (Jsonl.member "counters" j) (Jsonl.mem_num name)
      |> Option.value ~default:0. |> int_of_float
    | Error _ -> 0
    | exception Sys_error _ -> 0
  in
  let hits = daemon_counter "cache.hits" and misses = daemon_counter "cache.misses" in
  let jsonl_us =
    let lines = sess.lines in
    let n = max 1 (List.length lines) in
    reps_median ~reps:5 (fun () ->
        time_ms (fun () ->
            List.iter
              (fun l ->
                match Jsonl.parse l with
                | Ok j -> ignore (Jsonl.to_string j)
                | Error _ -> ())
              lines))
    *. 1000. /. float_of_int n
  in
  (* 6. The cache layer alone, on a copy of the session's cache. *)
  let copy = "trace-cache-copy" in
  rm_rf copy;
  copy_dir cache_dir copy;
  let cache = match Cache.open_dir copy with Ok c -> c | Error e -> fail "cache: %s" e in
  let keys =
    Array.to_list slot_sets
    |> List.concat_map Array.to_list
    |> List.concat_map (fun s ->
           let src = read_file s.s_path in
           [
             Checker.check_cache_key ~path:s.s_path src;
             Checker.lint_cache_key ~path:s.s_path src;
           ])
  in
  let hit_keys = List.filter (fun k -> (Cache.find cache k : Obj.t option) <> None) keys in
  let per_op_us ks f =
    let n = List.length ks in
    if n = 0 then nan
    else reps_median ~reps:5 (fun () -> time_ms (fun () -> List.iter f ks)) *. 1000. /. float_of_int n
  in
  let miss_keys = List.init 200 (fun i -> Cache.key [ "absent"; string_of_int i ]) in
  let find_hit = per_op_us hit_keys (fun k -> ignore (Cache.find cache k : Obj.t option)) in
  let find_miss = per_op_us miss_keys (fun k -> ignore (Cache.find cache k : Obj.t option)) in
  let payload = String.make 2048 'x' in
  let store_n = ref 0 in
  let store =
    per_op_us (List.init 100 Fun.id) (fun _ ->
        incr store_n;
        Cache.store cache (Cache.key [ "store"; string_of_int !store_n ]) payload)
  in
  rm_rf copy;
  let c = !counts in
  let parse_ms = stage "micropython.parse" in
  let src_mb = float_of_int (Gen.source_bytes files) /. 1048576. in
  let rule_metrics =
    List.map
      (fun ((r : Rules.t), _) ->
        (Printf.sprintf "lint.%s_ms" r.Rules.name, "ms", stage ("lint." ^ r.Rules.name)))
      Lint_semantic.rules
  in
  let metrics =
    [
      ("micropython.parse_ms", "ms", parse_ms);
      ("micropython.parse_mb_per_s", "MB/s", src_mb /. (parse_ms /. 1000.));
      ("core.extract_ms", "ms", stage "core.extract");
      ("core.validate_ms", "ms", stage "core.validate");
      ("core.usage_ms", "ms", stage "core.usage");
      ("core.claims_ms", "ms", stage "core.claims");
      ("core.invocation_ms", "ms", stage "core.invocation");
      ("core.refine_ms", "ms", stage "core.refine");
      ("core.render_ms", "ms", stage "core.render");
      ("core.coverage_ratio", "ratio", staged_sum /. verify_ms);
      ("automata.expand_ms", "ms", stage "automata.expand");
      ("automata.expand_states", "count", float_of_int c.Stage.expand_states);
      ("automata.inclusion_ms", "ms", stage "automata.inclusion");
      ("automata.product_configs", "count", float_of_int c.Stage.product_configs);
      ("automata.determinize_ms", "ms", stage "automata.determinize");
      ("automata.dfa_states", "count", float_of_int c.Stage.dfa_states);
      ("automata.shuffle_configs", "count", float_of_int shuffle);
      ("automata.inclusion_exponent", "slope", log_slope incl_pts);
      ("ltl.analyze_claims_ms", "ms", stage "ltl.analyze_claims");
      ("ltl.entail_states", "count", float_of_int entail_states);
      ( "ltl.entail_memo_hit_ratio",
        "ratio",
        ratio memo_hits (memo_hits + entail_states) );
      ("ltl.tableau_states", "count", float_of_int tableau);
      ("ltl.undecided_queries", "count", float_of_int c.Stage.undecided);
      ("ltl.analyze_claims_exponent", "slope", log_slope claim_pts);
    ]
    @ rule_metrics
    @ [
        ("lint.dead_operation_exponent", "slope", log_slope dead_pts);
        ("lint.render_ms", "ms", lint_render_ms);
        ("cache.find_hit_us", "us", find_hit);
        ("cache.find_miss_us", "us", find_miss);
        ("cache.store_us", "us", store);
        ("cache.hit_ratio", "ratio", ratio hits (hits + misses));
        ("exec.pool_speedup", "ratio", median !untraced_ms /. pool_ms);
        ("exec.spawns", "count", float_of_int ps.Supervisor.spawns);
        ("exec.restarts", "count", float_of_int ps.Supervisor.restarts);
        ("exec.recycles", "count", float_of_int ps.Supervisor.recycles);
        ( "exec.tasks_per_batch",
          "ratio",
          float_of_int ps.Supervisor.tasks /. float_of_int (max 1 ps.Supervisor.batches) );
        ("exec.queue_ms_p50", "ms", queue_p50);
        ("exec.exec_ms_p50", "ms", exec_p50);
        ("exec.transport_ms_p50", "ms", median transport);
        ("exec.jsonl_us", "us", jsonl_us);
        ("obs.trace_overhead_ratio", "ratio", median !traced_ms /. median !untraced_ms);
      ]
  in
  Printf.printf "traced %s: staged outputs %s; %d served requests, %d failed\n" workload
    (if !ok then "equal the untraced pipeline byte for byte" else "DIFFER")
    sess.tally.attempted sess.tally.failed;
  let correct =
    !ok && !defects = [] && sess.tally.failed = 0
    && sess.tally.files_correct = sess.tally.files
  in
  (correct, (List.length refs * passes) + sess.tally.attempted, sess.tally.failed, metrics)

(* --- entry point ------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let work = ref "" and record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "check-scale | lint-claims | serve-edit");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
      ("--work", Arg.Set_string work, "DIR  scratch directory (created, then removed)");
      ("--inputs", Arg.Set record, " print the input-size record and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --work DIR";
  if not (List.mem !workload [ "check-scale"; "lint-claims"; "serve-edit" ]) then
    fail "unknown workload '%s'" !workload;
  if !work = "" then fail "--work DIR is required";
  (* Relative paths keep the daemon socket short whatever the checkout's
     location, and make report headers independent of it. *)
  rm_rf !work;
  mkdir_p !work;
  Sys.chdir !work;
  if !record then begin
    print_endline (input_record ~label:!workload (project_files !workload !seed));
    exit 0
  end;
  let correct, attempted, failed, metrics =
    if !trace = 1 then traced ~workload:!workload ~seed:!seed ~seconds:!seconds
    else
      let t, metrics =
        match !workload with
        | "serve-edit" -> serve_workload ~seed:!seed ~seconds:!seconds
        | w ->
          pool_workload ~workload:w
            ~mode:(if w = "lint-claims" then Lint_sarif else Check)
            ~seed:!seed ~seconds:!seconds
      in
      (!defects = [] && t.failed = 0 && t.files_correct = t.files, t.attempted, t.failed, metrics)
  in
  report_defects ();
  print_result ~correct ~attempted ~failed metrics
