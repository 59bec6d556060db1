type result = {
  models : Model.t list;
  reports : Report.t list;
}

(* Bumped whenever the meaning or wording of a verification result changes
   (new checks, reworded reports, different exit-code mapping). The result
   cache folds this into every key, so entries written by an older pipeline
   can never replay as current verdicts. *)
(* 7: the concurrency extension — shuffled behaviors from async/create_task,
   interleaving-aware usage automata, SY112. *)
(* 8: LTLf progression also caps the summed size of its obligations, so a
   claim with a runaway obligation closure reports RESOURCE LIMIT EXCEEDED. *)
let semantics_version = "8"

let env_of result name =
  List.find_opt (fun (m : Model.t) -> String.equal m.Model.name name) result.models

let find_model = env_of

(* Exception barrier around one check of one class: a blown budget or an
   unexpected exception becomes a report, and every other check still runs. *)
let guard ~class_name ~check f =
  match f () with
  | reports -> reports
  | exception Limits.Budget_exceeded { resource; limit } ->
    [ Report.Resource_limit { class_name; check; resource; limit } ]
  | exception exn ->
    [ Report.Internal_error { class_name; check; message = Printexc.to_string exn } ]

(* [guard] plus a span per (check, class) and per-phase fuel attribution:
   diffing the budget ledger around the check turns cumulative fuel
   accounting into fuel-consumed-by-this-check counters. *)
let spanned ~limits ~class_name ~check f =
  Obs.with_span ~args:[ ("class", class_name) ] check @@ fun () ->
  let before = if Obs.enabled () then Limits.snapshot limits else [] in
  let reports = guard ~class_name ~check f in
  if Obs.enabled () then
    List.iter
      (fun (resource, d) -> Obs.count (Printf.sprintf "fuel.%s.%s" check resource) d)
      (Limits.consumed limits ~before);
  reports

let verify_program ?(extra_env = fun _ -> None) ?(limits = Limits.default)
    (program : Mpy_ast.program) =
  let extractions =
    List.map
      (fun (cls : Mpy_ast.class_def) ->
        Obs.with_span ~args:[ ("class", cls.Mpy_ast.cls_name) ] "extract" @@ fun () ->
        match Extract.extract_class cls with
        | extraction -> (cls, Ok extraction)
        | exception Limits.Budget_exceeded { resource; limit } ->
          ( cls,
            Error
              (Report.Resource_limit
                 { class_name = cls.Mpy_ast.cls_name; check = "extract"; resource; limit })
          )
        | exception exn ->
          ( cls,
            Error
              (Report.Internal_error
                 {
                   class_name = cls.Mpy_ast.cls_name;
                   check = "extract";
                   message = Printexc.to_string exn;
                 }) ))
      program.Mpy_ast.prog_classes
  in
  let models =
    List.filter_map
      (fun (_, ext) ->
        match ext with
        | Ok (e : Extract.result) -> Some e.Extract.model
        | Error _ -> None)
      extractions
  in
  Obs.count "models.extracted" (List.length models);
  let env name =
    match List.find_opt (fun (m : Model.t) -> String.equal m.Model.name name) models with
    | Some _ as found -> found
    | None -> extra_env name
  in
  let reports =
    List.concat_map
      (fun ((cls : Mpy_ast.class_def), ext) ->
        match ext with
        | Error report -> [ report ]
        | Ok (extraction : Extract.result) ->
          let model = extraction.Extract.model in
          let class_name = model.Model.name in
          let run check f = spanned ~limits ~class_name ~check f in
          extraction.Extract.diagnostics
          @ run "validate" (fun () -> Validate.check model)
          @ run "usage" (fun () -> Usage.check ~limits ~env model)
          @ run "claims" (fun () -> Claims.check ~limits model)
          @ run "invocation" (fun () -> Invocation.check ~env ~model cls)
          @ run "refine" (fun () -> Refine.check_inheritance ~limits ~env cls model))
      extractions
  in
  { models; reports }

let verify_source ?extra_env ?limits source =
  let program, diagnostics = Mpy_parser.parse_program_tolerant source in
  let result = verify_program ?extra_env ?limits program in
  let syntax_reports =
    List.map
      (fun (d : Mpy_parser.diagnostic) ->
        Report.syntax_error ~line:d.Mpy_parser.diag_line ~col:d.Mpy_parser.diag_col
          d.Mpy_parser.diag_message)
      diagnostics
  in
  { result with reports = syntax_reports @ result.reports }

let verify_source_exn ?extra_env ?limits source =
  verify_program ?extra_env ?limits (Mpy_parser.parse_program source)

let verified result = Report.errors result.reports = []
