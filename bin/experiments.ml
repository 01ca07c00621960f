(* experiments — regenerate the paper's Table 1 and Table 2 over all
   fourteen workloads, plus the DESIGN.md ablations (--ablation) and
   optional-pass selections (--passes). *)

open Cmdliner

let run_tables only quick passes ablation speculate list_passes =
  if list_passes then begin
    print_string (Driver.Pass_manager.list_text ());
    0
  end
  else
    try
      let wls =
        match only with
        | [] -> Workloads.Registry.all
        | names ->
            List.filter
              (fun w -> List.mem w.Workloads.Workload.name names)
              Workloads.Registry.all
      in
      let ablation = Driver.Variant.resolve ?speculate ablation in
      let config =
        { Harness.Pipeline.specs = Driver.Pass_manager.parse_specs passes;
          ablation;
          hli_cache = Harness.Pipeline.hli_cache_env ();
          hli_cache_max = Harness.Pipeline.hli_cache_max_env ();
          remote = None;
          pipeline = 1;
          shm = false }
      in
      let fuel = if quick then 20_000_000 else 400_000_000 in
      let rows =
        List.map
          (fun w ->
            Fmt.epr "running %s...@." w.Workloads.Workload.name;
            Harness.Tables.run_workload ~fuel ~config w)
          wls
      in
      print_string (Harness.Tables.print_tables rows);
      0
    with Diagnostics.Diagnostic d ->
      Fmt.epr "%a@." Diagnostics.pp d;
      Diagnostics.exit_code d

let only_arg =
  Arg.(value & opt_all string [] & info [ "only" ] ~docv:"NAME" ~doc:"run only this workload (repeatable)")

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"cap simulation fuel for a fast pass")

let passes_arg =
  Arg.(
    value & opt string ""
    & info [ "passes" ] ~docv:"SPEC"
        ~doc:"optional passes to run, e.g. $(b,cse,licm,unroll=4)")

let ablation_arg =
  Arg.(
    value & opt string "baseline"
    & info [ "ablation" ] ~docv:"NAME" ~doc:"ablation configuration")

let speculate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "speculate" ] ~docv:"THRESH"
        ~doc:
          "speculative scheduling threshold in per mille (0..1000); \
           composes with $(b,--ablation)")

let list_passes_flag =
  Arg.(
    value & flag
    & info [ "list-passes" ]
        ~doc:"list the optional passes and the span order, and exit")

let cmd =
  let doc = "reproduce the paper's Tables 1 and 2" in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(
      const run_tables $ only_arg $ quick_flag $ passes_arg $ ablation_arg
      $ speculate_arg $ list_passes_flag)

let () = exit (Cmd.eval' cmd)
