(* hlid — the persistent HLI query daemon.

   Loads nothing at startup: each client session ships an HLI file
   (Open_hli, or Open_delta against entries an earlier session
   shipped), then issues the back end's equiv, equiv-prob, REF/MOD
   and hoist-target queries and its maintenance notifications over
   the framed wire protocol (lib/server/protocol.ml; DESIGN.md has
   the byte-level spec).  The server is event-driven: one poller domain
   reads and decodes frames in place over per-connection reused
   buffers and dispatches requests to a worker pool, so any number of
   (possibly pipelined) sessions share -j worker domains.
   SIGINT/SIGTERM shut down gracefully: in-flight sessions drain,
   telemetry is flushed, and the socket file is removed.  Exit codes
   follow the diagnostics scheme (7 = net). *)

open Cmdliner

let run_hlid socket jobs max_frame timeout shm_dir store_cap stats stats_json =
  (* open the --stats-json file before binding the socket: an
     unwritable path then fails at startup, not at shutdown after a
     whole serving life whose telemetry it was meant to keep *)
  match
    match stats_json with
    | Some path when path <> "-" -> Some (open_out_bin path)
    | _ -> None
  with
  | exception Sys_error msg ->
      Fmt.epr "hlid: cannot write --stats-json: %s@." msg;
      1
  | stats_oc -> (
      let cfg =
        {
          (Hli_server.Server.default_config ~socket_path:socket) with
          jobs;
          max_frame;
          request_timeout = timeout;
          shm_dir;
          store_cap;
        }
      in
      match Hli_server.Server.create cfg with
      | exception Diagnostics.Diagnostic d ->
          Fmt.epr "%a@." Diagnostics.pp d;
          Diagnostics.exit_code d
      | srv ->
          let shutdown _ = Hli_server.Server.initiate_shutdown srv in
          Sys.set_signal Sys.sigint (Sys.Signal_handle shutdown);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle shutdown);
          (match shm_dir with
          | Some d -> Fmt.epr "hlid: publishing HLIX segments under %s@." d
          | None -> ());
          Fmt.epr "hlid: listening on %s (%d jobs)@." socket jobs;
          Hli_server.Server.run srv;
          let json = Hli_server.Server.stats_json srv in
          if stats then Fmt.pr "== hlid server telemetry ==@.%s@." json;
          (match stats_json with
          | None -> ()
          | Some path -> (
              let payload =
                Printf.sprintf "{\"schema\":\"%s\",\"server\":%s}"
                  Harness.Telemetry.schema_version json
              in
              match stats_oc with
              | None -> print_endline payload
              | Some oc ->
                  Fun.protect
                    ~finally:(fun () -> close_out oc)
                    (fun () -> output_string oc payload);
                  Fmt.epr "hlid: wrote telemetry to %s@." path));
          0)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on (stale files are removed)")

let jobs_arg =
  Arg.(
    value
    & opt int (max 8 (Pool.default_jobs ()))
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "worker-pool size; $(docv) - 1 worker domains run request \
           handlers for the event loop — size for CPU parallelism, not \
           for a session cap (default: at least 8)")

let max_frame_arg =
  Arg.(
    value
    & opt int Hli_server.Protocol.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES"
        ~doc:
          "largest accepted request payload; oversized frames are rejected \
           with E1104 before allocation")

let timeout_arg =
  Arg.(
    value
    & opt float Hli_server.Protocol.default_timeout
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"per-request progress timeout; a stalled frame answers E1109")

let shm_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "shm-dir" ] ~docv:"DIR"
        ~doc:
          "enable the shared-memory fast path: publish one mmap-able HLIX \
           index segment per opened unit under $(docv)/sess-<id>/, \
           advertised to clients in the Hello response and rebuilt under \
           the seqlock protocol at every Refresh barrier; co-located \
           clients connecting with --shm answer read-only queries \
           straight off the mapping")

let store_cap_arg =
  Arg.(
    value
    & opt int (Hli_server.Server.default_config ~socket_path:"").store_cap
    & info [ "store-cap" ] ~docv:"BYTES"
        ~doc:
          "byte bound on the cross-session entry store backing delta \
           uploads (Open_delta): a session re-opening after an edit \
           ships only the entries the store lacks; oldest entries are \
           evicted past $(docv) (default 256 MiB)")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"print server telemetry at shutdown")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"PATH"
        ~doc:
          (Printf.sprintf
             "write the %s server telemetry to $(docv) at shutdown (\"-\" \
              for stdout)"
             Harness.Telemetry.schema_version))

let cmd =
  let doc = "persistent HLI query service over a Unix-domain socket" in
  Cmd.v
    (Cmd.info "hlid" ~doc)
    Term.(
      const run_hlid $ socket_arg $ jobs_arg $ max_frame_arg $ timeout_arg
      $ shm_dir_arg $ store_cap_arg $ stats_flag $ stats_json_arg)

let () = exit (Cmd.eval' cmd)
