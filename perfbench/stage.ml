(* The traced replay: one project, in-process, calling each layer's public
   function in turn and timing it from outside. The staged composition
   mirrors Pipeline.verify_source (check) and Lint.lint_source (lint); the
   replay renders both and the caller compares them byte for byte with the
   untraced entry points, so a stage that drifts from the pipeline fails the
   run instead of timing the wrong thing. *)

let now = Sysconf.monotonic_time

(* Accumulated milliseconds per stage name. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) key ms =
  Hashtbl.replace acc key (ms +. Option.value (Hashtbl.find_opt acc key) ~default:0.)

let timed acc key f =
  let t0 = now () in
  let r = f () in
  add acc key ((now () -. t0) *. 1000.);
  r

let counter name = Option.value (List.assoc_opt name (Obs.counters ())) ~default:0

(* Work counts read from the program's own Obs counters. *)
type counts = {
  mutable expand_states : int;
  mutable product_configs : int;
  mutable dfa_states : int;
  mutable undecided : int;
  mutable max_regex : int;
  mutable pipeline : (string * int) list;
      (* Obs counters spent by the staged check and lint alone *)
}

let zero_counts () =
  {
    expand_states = 0;
    product_configs = 0;
    dfa_states = 0;
    undecided = 0;
    max_regex = 0;
    pipeline = [];
  }

let pipeline_counters =
  [ "shuffle.configs"; "tableau.states"; "entail.states"; "entail.memo_hits" ]

let pipeline_count counts name = Option.value (List.assoc_opt name counts.pipeline) ~default:0

(* --- check: the stages of Pipeline.verify_program ------------------------- *)

let guard ~class_name ~check f =
  match f () with
  | reports -> reports
  | exception Limits.Budget_exceeded { resource; limit } ->
    [ Report.Resource_limit { class_name; check; resource; limit } ]
  | exception exn ->
    [ Report.Internal_error { class_name; check; message = Printexc.to_string exn } ]

let extract_all acc (program : Mpy_ast.program) =
  List.map
    (fun (cls : Mpy_ast.class_def) ->
      timed acc "core.extract" @@ fun () ->
      match Extract.extract_class cls with
      | extraction -> (cls, Ok extraction)
      | exception (Limits.Budget_exceeded { resource; limit }) ->
        (cls, Error (`Budget (resource, limit)))
      | exception exn -> (cls, Error (`Crash (Printexc.to_string exn))))
    program.Mpy_ast.prog_classes

let models_of extractions =
  List.filter_map
    (fun (_, ext) ->
      match ext with
      | Ok (e : Extract.result) -> Some e.Extract.model
      | Error _ -> None)
    extractions

let env_of models name =
  List.find_opt (fun (m : Model.t) -> String.equal m.Model.name name) models

let render_reports reports = Format.asprintf "%a" Report.pp_all reports

let staged_check acc ~limits ~diagnostics extractions =
  let models = models_of extractions in
  let env = env_of models in
  let per_class =
    List.concat_map
      (fun ((cls : Mpy_ast.class_def), ext) ->
        match ext with
        | Error (`Budget (resource, limit)) ->
          [
            Report.Resource_limit
              { class_name = cls.Mpy_ast.cls_name; check = "extract"; resource; limit };
          ]
        | Error (`Crash message) ->
          [
            Report.Internal_error
              { class_name = cls.Mpy_ast.cls_name; check = "extract"; message };
          ]
        | Ok (extraction : Extract.result) ->
          let model = extraction.Extract.model in
          let class_name = model.Model.name in
          let run stage check f = timed acc stage (fun () -> guard ~class_name ~check f) in
          extraction.Extract.diagnostics
          @ run "core.validate" "validate" (fun () -> Validate.check model)
          @ run "core.usage" "usage" (fun () -> Usage.check ~limits ~env model)
          @ run "core.claims" "claims" (fun () -> Claims.check ~limits model)
          @ run "core.invocation" "invocation" (fun () -> Invocation.check ~env ~model cls)
          @ run "core.refine" "refine" (fun () ->
                Refine.check_inheritance ~limits ~env cls model))
      extractions
  in
  let syntax =
    List.map
      (fun (d : Mpy_parser.diagnostic) ->
        Report.syntax_error ~line:d.Mpy_parser.diag_line ~col:d.Mpy_parser.diag_col
          d.Mpy_parser.diag_message)
      diagnostics
  in
  timed acc "core.render" (fun () -> render_reports (syntax @ per_class))

(* --- lint: the stages of Lint.lint_source --------------------------------- *)

let diag ?(line = 0) ?(class_name = "") ?severity (rule : Rules.t) ~file message =
  {
    Lint.rule = rule.Rules.code;
    rule_name = rule.Rules.name;
    severity = Option.value severity ~default:rule.Rules.severity;
    file;
    line;
    class_name;
    message;
  }

let guarded_rule ~file ~class_name (rule : Rules.t) f =
  match f () with
  | found -> List.map (fun (line, message) -> diag ?line ~class_name rule ~file message) found
  | exception Limits.Budget_exceeded { resource; limit } ->
    [
      diag ~class_name Rules.rule_resource_limit ~file
        (Printf.sprintf "lint rule %s (%s) exceeded its budget: %s (limit %d)"
           rule.Rules.code rule.Rules.name resource limit);
    ]
  | exception exn ->
    [
      diag ~class_name Rules.rule_internal_error ~file
        (Printf.sprintf "lint rule %s (%s) failed: %s" rule.Rules.code rule.Rules.name
           (Printexc.to_string exn));
    ]

let sort_diagnostics ds =
  List.stable_sort
    (fun (a : Lint.diagnostic) (b : Lint.diagnostic) ->
      let c = compare a.line b.line in
      if c <> 0 then c
      else
        let c = compare a.rule b.rule in
        if c <> 0 then c else compare a.message b.message)
    ds

let staged_lint acc ~limits ~file ~source ~diagnostics extractions =
  let thresholds = Lint_semantic.default_thresholds in
  let syntax =
    List.map
      (fun (d : Mpy_parser.diagnostic) ->
        diag ~line:d.Mpy_parser.diag_line Rules.syntax_error ~file
          (Printf.sprintf "syntax error (col %d): %s" d.Mpy_parser.diag_col
             d.Mpy_parser.diag_message))
      diagnostics
  in
  let env = env_of (models_of extractions) in
  let per_class =
    List.concat_map
      (fun ((cls : Mpy_ast.class_def), ext) ->
        match ext with
        | Error (`Budget (resource, limit)) ->
          [
            diag ~class_name:cls.Mpy_ast.cls_name Rules.rule_resource_limit ~file
              (Printf.sprintf "extraction exceeded its budget: %s (limit %d)" resource limit);
          ]
        | Error (`Crash message) ->
          [
            diag ~class_name:cls.Mpy_ast.cls_name Rules.rule_internal_error ~file
              (Printf.sprintf "extraction failed: %s" message);
          ]
        | Ok (extraction : Extract.result) ->
          let model = extraction.Extract.model in
          let class_name = model.Model.name in
          let extraction_diags =
            List.filter_map
              (fun (r : Report.t) ->
                match r with
                | Report.Structural { class_name; line; severity; message } ->
                  Some (diag ?line ~class_name ~severity Rules.annotation_error ~file message)
                | _ -> None)
              extraction.Extract.diagnostics
          in
          let structural =
            timed acc "lint.structural" (fun () ->
                List.map
                  (fun ((rule : Rules.t), line, message) ->
                    diag ?line ~class_name rule ~file message)
                  (Validate.diagnostics model))
          in
          let ctx = Lint_semantic.make_ctx ~limits ~thresholds ~env ~cls ~model in
          let semantic =
            List.concat_map
              (fun ((rule : Rules.t), run) ->
                timed acc ("lint." ^ rule.Rules.name) (fun () ->
                    guarded_rule ~file ~class_name rule (fun () -> run ctx)))
              Lint_semantic.rules
          in
          extraction_diags @ structural @ semantic)
      extractions
  in
  let sups = Mpy_parser.suppressions source in
  let governed =
    List.map
      (fun (s : Mpy_parser.suppression) ->
        ( (if s.Mpy_parser.sup_standalone then s.sup_line + 1 else s.sup_line),
          s.Mpy_parser.sup_codes ))
      sups
  in
  let unknown =
    List.concat_map
      (fun (s : Mpy_parser.suppression) ->
        List.filter_map
          (fun code ->
            if Rules.find_code code = None then
              Some
                (diag ~line:s.Mpy_parser.sup_line Rules.unknown_suppression ~file
                   (Printf.sprintf "suppression comment names unknown rule code '%s'" code))
            else None)
          s.Mpy_parser.sup_codes)
      sups
  in
  let suppressed_by (d : Lint.diagnostic) =
    d.line > 0
    && List.exists
         (fun (line, codes) -> line = d.line && (codes = [] || List.mem d.rule codes))
         governed
  in
  let suppressed, findings = List.partition suppressed_by (syntax @ per_class @ unknown) in
  {
    Lint.lint_file = file;
    findings = sort_diagnostics findings;
    suppressed = sort_diagnostics suppressed;
  }

(* --- automata and ltl sub-stages ------------------------------------------

   Usage.check and the claim rules each hide several automata steps; these
   are the same public functions called one at a time, so their time and
   work counts can be split out. *)

let automata acc counts ~limits models =
  let env = env_of models in
  List.iter
    (fun (m : Model.t) ->
      List.iter
        (fun op -> counts.max_regex <- max counts.max_regex (Regex.size (Model.behavior_of_op op)))
        m.Model.operations;
      (match
         timed acc "automata.determinize" (fun () ->
             Determinize.determinize ~limits (Depgraph.usage_nfa m))
       with
      | dfa -> counts.dfa_states <- counts.dfa_states + Dfa.num_states dfa
      | exception Limits.Budget_exceeded _ -> ());
      if m.Model.kind = `Composite then
        match timed acc "automata.expand" (fun () -> Usage.expanded_nfa ~limits m) with
        | exception Limits.Budget_exceeded _ -> ()
        | impl ->
          counts.expand_states <- counts.expand_states + Nfa.num_states impl;
          List.iter
            (fun field ->
              match Model.subsystem_class m field with
              | None -> ()
              | Some subsystem_class -> (
                match Usage.subsystem_spec_nfa ~env ~field ~subsystem_class with
                | None -> ()
                | Some spec ->
                  let alphabet = Symbol.Set.union (Nfa.alphabet impl) (Nfa.alphabet spec) in
                  let others =
                    Symbol.Set.filter
                      (fun sym ->
                        match Symbol.split_scope sym with
                        | Some (scope, _) -> not (String.equal scope field)
                        | None -> true)
                      alphabet
                  in
                  let spec = Nfa.add_self_loops others spec in
                  let before = counter "language.configs" in
                  (try
                     ignore
                       (timed acc "automata.inclusion" (fun () ->
                            Language.inclusion_counterexample ~limits ~alphabet ~impl ~spec ()))
                   with Limits.Budget_exceeded _ -> ());
                  counts.product_configs <-
                    counts.product_configs + counter "language.configs" - before))
            m.Model.declared_subsystems)
    models

let ltl acc counts ~limits models =
  List.iter
    (fun (m : Model.t) ->
      if m.Model.claims <> [] then
        match
          timed acc "ltl.analyze_claims" (fun () ->
              Lint_semantic.analyze_claims
                ~fuel:Lint_semantic.default_thresholds.Lint_semantic.entail_fuel ~limits m)
        with
        | a -> counts.undecided <- counts.undecided + a.Lint_semantic.undecided
        | exception Limits.Budget_exceeded _ -> ())
    models

(* One file through every stage. Returns the staged check rendering and lint
   result; the caller compares them with the untraced entry points. *)
let replay acc counts ~file source =
  let limits = Limits.default in
  let program, diagnostics =
    timed acc "micropython.parse" (fun () -> Mpy_parser.parse_program_tolerant source)
  in
  let before = List.map counter pipeline_counters in
  let extractions = extract_all acc program in
  let checked = staged_check acc ~limits ~diagnostics extractions in
  let linted = staged_lint acc ~limits ~file ~source ~diagnostics extractions in
  counts.pipeline <-
    List.map2
      (fun name b -> (name, pipeline_count counts name + counter name - b))
      pipeline_counters before;
  let models = models_of extractions in
  automata acc counts ~limits models;
  ltl acc counts ~limits models;
  (checked, linted)

(* The stages that together make up Pipeline.verify_source. *)
let pipeline_stages =
  [
    "micropython.parse";
    "core.extract";
    "core.validate";
    "core.usage";
    "core.claims";
    "core.invocation";
    "core.refine";
  ]
