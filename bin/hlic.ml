(* hlic — the full compiler driver.

   Compiles a mini-C source file through the whole pipeline: front-end
   analysis, HLI generation, GCC-like lowering, HLI import, the
   optional passes selected with --passes, basic-block scheduling, and
   (optionally) execution on one of the simulated machines.

   Errors are structured diagnostics: rendered as
   file:line:col: severity[CODE]: message, with the process exit code
   keyed to the failing phase (1 I/O, 2 lex/parse, 3 typecheck,
   4 compile, 5 simulation, 6 driver misuse). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_hlic src_path use_hli machine run emit_hli dump_rtl passes ablation
    speculate list_passes jobs stats stats_json hli_cache hli_cache_max remote
    pipeline shm =
  if list_passes then begin
    print_string (Driver.Pass_manager.list_text ());
    0
  end
  else
    match src_path with
    | None ->
        Fmt.epr "error[E1000]: no source file (see hlic --help)@.";
        6
    | Some src_path -> (
    (* open the --stats-json file before compiling: an unwritable path
       then fails before any work, as in bench tables and hlid *)
    match
      match stats_json with
      | Some path when path <> "-" -> Some (path, open_out_bin path)
      | _ -> None
    with
    | exception Sys_error msg ->
        Fmt.epr "error[E0001]: %s@." msg;
        1
    | stats_file -> (
        (* a compile that ends in a diagnostic leaves no empty dump *)
        let discard_stats () =
          Option.iter
            (fun (path, oc) ->
              close_out_noerr oc;
              try Sys.remove path with Sys_error _ -> ())
            stats_file
        in
        let pool = if jobs > 1 then Some (Pool.create ~jobs) else None in
        let tm = Harness.Telemetry.create () in
        Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool)
        @@ fun () ->
        try
          let src = read_file src_path in
          let ablation = Driver.Variant.resolve ?speculate ablation in
          let config =
            {
              Harness.Pipeline.specs = Driver.Pass_manager.parse_specs passes;
              ablation;
              hli_cache =
                (match hli_cache with
                | Some dir -> Some dir
                | None -> Harness.Pipeline.hli_cache_env ());
              hli_cache_max =
                (match hli_cache_max with
                | Some n when n > 0 -> Some n
                | Some _ -> None
                | None -> Harness.Pipeline.hli_cache_max_env ());
              remote;
              pipeline = max 1 pipeline;
              shm;
            }
          in
          let c =
            Harness.Pipeline.compile ~config ~src_file:src_path ?pool ~tm src
          in
          (match emit_hli with
          | Some out ->
              Hli_core.Serialize.write_file out c.Harness.Pipeline.hli;
              Fmt.pr "wrote %s (%d bytes)@." out
                (Hli_core.Serialize.container_bytes c.Harness.Pipeline.hli)
          | None -> ());
          let v =
            {
              Driver.Variant.alias =
                (if use_hli then Backend.Ddg.With_hli else Backend.Ddg.Gcc_only);
              machine = (if machine = "r4600" then Driver.Variant.R4600 else R10000);
            }
          in
          let scheduled = Harness.Pipeline.scheduled_of c v in
          if dump_rtl then
            List.iter
              (fun fn -> Fmt.pr "%a@." Backend.Rtl.pp_fn fn)
              scheduled.Driver.Pass.s_rtl.Backend.Rtl.fns;
          List.iter
            (fun n ->
              Fmt.pr "%s: %s@." n.Driver.Pass.n_pass n.Driver.Pass.n_text)
            (Harness.Pipeline.pass_notes c);
          if c.Harness.Pipeline.map_dropped > 0 then
            Fmt.epr "warning[E0801]: %d HLI unit(s) had no RTL function@."
              c.Harness.Pipeline.map_dropped;
          let s = c.Harness.Pipeline.stats in
          Fmt.pr
            "dependence queries: total=%d gcc_yes=%d hli_yes=%d combined_yes=%d@."
            s.Backend.Ddg.total s.Backend.Ddg.gcc_yes s.Backend.Ddg.hli_yes
            s.Backend.Ddg.combined_yes;
          if ablation.Driver.Variant.speculate <> None then
            Fmt.pr "speculation: edges_dropped=%d checks=%d@."
              s.Backend.Ddg.spec_edges_dropped s.Backend.Ddg.spec_checks;
          if run then begin
            let r =
              try
                Driver.Pass_manager.simulate
                  (Driver.Pass.ctx ~spanf:(Harness.Pipeline.spanf ~tm ()) ~variant:v ~ablation ())
                  scheduled
              with
              | Machine.Exec.Runtime_error msg ->
                  Diagnostics.error ~code:"E0902" ~phase:Diagnostics.Sim "runtime error: %s" msg
              | Machine.Exec.Out_of_fuel ->
                  Diagnostics.error ~code:"E0903" ~phase:Diagnostics.Sim "out of fuel"
            in
            let name = Machine.Simulate.machine_name (Driver.Variant.sim_machine v.machine) in
            Fmt.pr "%s" r.Machine.Simulate.output;
            Fmt.pr "[%s] %d cycles, %d instructions, L1 %d/%d hits/misses@." name
              r.Machine.Simulate.cycles r.Machine.Simulate.dyn_insns
              r.Machine.Simulate.l1_hits r.Machine.Simulate.l1_misses;
            if r.Machine.Simulate.misspeculations > 0 then
              Fmt.pr "[%s] %d misspeculation(s) recovered@." name
                r.Machine.Simulate.misspeculations
          end;
          if stats then begin
            Fmt.pr "== per-stage telemetry ==@.%a" Harness.Telemetry.pp_table tm;
            Fmt.pr "== HLI queries by kind ==@.";
            List.iter
              (fun (name, v) -> Fmt.pr "%-16s %12d@." name v)
              (Hli_core.Query.query_counters ())
          end;
          (match stats_json with
          | None -> ()
          | Some path ->
              let b = Buffer.create 512 in
              let shm_json =
                if shm then Hli_server.Client.shm_stats_json () else "null"
              in
              Buffer.add_string b
                (Printf.sprintf
                   "{\"schema\":\"%s\",\"file\":\"%s\",\"shm\":%s,\"hli_queries\":{"
                   Harness.Telemetry.schema_version
                   (Harness.Telemetry.json_escape src_path)
                   shm_json);
              List.iteri
                (fun i (name, v) ->
                  if i > 0 then Buffer.add_char b ',';
                  Buffer.add_string b (Printf.sprintf "\"%s\":%d" name v))
                (Hli_core.Query.query_counters ());
              Buffer.add_string b "},";
              Buffer.add_string b (Harness.Telemetry.json_fragment tm);
              Buffer.add_char b '}';
              match stats_file with
              | None -> print_endline (Buffer.contents b)
              | Some (_, oc) ->
                  Fun.protect
                    ~finally:(fun () -> close_out oc)
                    (fun () -> output_string oc (Buffer.contents b));
                  Fmt.pr "wrote telemetry to %s@." path);
          0
        with
        | Diagnostics.Diagnostic d ->
            discard_stats ();
            (* source-phase diagnostics get the file path; driver
               misuse (bad --passes/--ablation) is not about the file *)
            let d =
              match (d.Diagnostics.file, d.Diagnostics.phase) with
              | None, (Diagnostics.Driver | Diagnostics.Io | Diagnostics.Net) ->
                  d
              | None, _ -> Diagnostics.with_file src_path d
              | Some _, _ -> d
            in
            Fmt.epr "%a@." Diagnostics.pp d;
            Diagnostics.exit_code d
        | Sys_error msg ->
            discard_stats ();
            Fmt.epr "error[E0001]: %s@." msg;
            1))

let src_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"mini-C source file")

let hli_flag =
  Arg.(value & opt bool true & info [ "use-hli" ] ~doc:"use HLI in the scheduler (default true)")

let machine_arg =
  Arg.(value & opt (enum [ ("r4600", "r4600"); ("r10000", "r10000") ]) "r10000"
       & info [ "machine" ] ~doc:"target machine model")

let run_flag = Arg.(value & flag & info [ "run" ] ~doc:"execute on the simulator")

let emit_arg =
  Arg.(value & opt (some string) None & info [ "emit-hli" ] ~docv:"OUT" ~doc:"write the HLI file")

let dump_flag = Arg.(value & flag & info [ "dump-rtl" ] ~doc:"print the scheduled RTL")

let passes_arg =
  Arg.(
    value & opt string ""
    & info [ "passes" ] ~docv:"SPEC"
        ~doc:
          "comma-separated optional passes to run, in order, e.g. \
           $(b,cse,licm,unroll=4); see $(b,--list-passes)")

let ablation_arg =
  Arg.(
    value & opt string "baseline"
    & info [ "ablation" ] ~docv:"NAME"
        ~doc:"ablation configuration (baseline, merge-off, \
              routine-regions, hli-only, lsq-off)")

let speculate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "speculate" ] ~docv:"THRESH"
        ~doc:
          "speculative scheduling: drop maybe-class store-to-load \
           dependences whose HLI confidence is below $(docv) per mille \
           (0..1000) from the DDG, inserting run-time checks with \
           recovery; composes with $(b,--ablation).  Unset keeps \
           schedules byte-identical to the non-speculative compiler")

let list_passes_flag =
  Arg.(
    value & flag
    & info [ "list-passes" ]
        ~doc:"list the optional passes and the span order, and exit")

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "domain-pool size for the four pipeline variants (default: \
           \\$(b,HLI_JOBS) env, else the recommended domain count; 1 is \
           fully sequential)")

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"print per-stage telemetry and HLI query counters")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"PATH"
        ~doc:"write the telemetry JSON dump to $(docv) (\"-\" for stdout)")

let remote_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"SOCKET"
        ~doc:
          "hlid Unix-domain socket; the With_hli variants open one session \
           on it and import, query and maintain HLI over the wire instead \
           of in-process (tables stay byte-identical)")

let pipeline_arg =
  Arg.(
    value
    & opt int 1
    & info [ "pipeline" ] ~docv:"N"
        ~doc:
          "with $(b,--remote): keep up to $(docv) request frames in flight \
           per server session (1 = strict request/reply); answers stay \
           byte-identical, round-trips overlap")

let shm_flag =
  Arg.(
    value & flag
    & info [ "shm" ]
        ~doc:
          "with $(b,--remote): map the HLIX index segments the server \
           publishes (hlid $(b,--shm-dir)) and answer read-only queries \
           from shared memory, falling back to the wire per query when a \
           segment is missing, mid-rebuild or a maintenance transaction \
           is open; tables stay byte-identical")

let hli_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "hli-cache" ] ~docv:"DIR"
        ~doc:
          "cache serialized front-end HLI output under $(docv) keyed by \
           source hash, ablation and format version (default: \
           \\$(b,HLI_CACHE) env; unset disables caching)")

let hli_cache_max_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "hli-cache-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "size cap for the $(b,--hli-cache) directory: after each store, \
           least-recently-used entries (by mtime) are trimmed until the \
           cache fits $(docv) bytes (default: \\$(b,HLI_CACHE_MAX) env; \
           unset or non-positive means unbounded)")

let cmd =
  let doc = "compile mini-C with High-Level Information support" in
  Cmd.v (Cmd.info "hlic" ~doc)
    Term.(
      const run_hlic $ src_arg $ hli_flag $ machine_arg $ run_flag $ emit_arg
      $ dump_flag $ passes_arg $ ablation_arg $ speculate_arg
      $ list_passes_flag $ jobs_arg $ stats_flag $ stats_json_arg
      $ hli_cache_arg $ hli_cache_max_arg $ remote_arg $ pipeline_arg
      $ shm_flag)

let () = exit (Cmd.eval' cmd)
