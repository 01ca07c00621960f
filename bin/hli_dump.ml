(* hli_dump — inspect a serialized HLI file (an HLI3 container).

   Prints the line table and region tables of every program unit;
   --verify checks the binary round-trip, --check runs the structural
   validator (lib/core/validate.ml) and reports every issue instead of
   dumping.  --entry NAME narrows either mode to one function's entry
   and also prints its content hash — the per-entry digest the HLI
   cache and the delta-upload protocol key on, for debugging cache
   misses.  Decode failures (bad magic, truncation, CRC mismatch, ...)
   are structured diagnostics with E06xx codes. *)

open Cmdliner

let run path verify check entry =
  try
    (* --check reports the full issue list itself, so read without the
       on-load validator (which stops at the first issue) *)
    let f = Hli_core.Serialize.read_file ~validate:(not check) path in
    match entry with
    | Some name -> begin
        match Hli_core.Tables.find_entry f name with
        | None ->
            Fmt.epr "%s: no unit named %s (has: %s)@." path name
              (String.concat ", "
                 (List.map
                    (fun e -> e.Hli_core.Tables.unit_name)
                    f.Hli_core.Tables.entries));
            1
        | Some e ->
            let hash = Digest.to_hex (Hli_core.Serialize.entry_hash e) in
            if check then begin
              match Hli_core.Validate.check_entry e with
              | [] ->
                  Fmt.pr "%s: %s: OK (%d region(s), entry hash %s)@." path
                    name
                    (List.length e.Hli_core.Tables.regions)
                    hash;
                  0
              | issues ->
                  List.iter
                    (fun i ->
                      Fmt.epr "%s: error%s@." path
                        (Hli_core.Validate.issue_to_string i))
                    issues;
                  Fmt.epr "%s: %s: %d structural issue(s)@." path name
                    (List.length issues);
                  2
            end
            else begin
              Fmt.pr "%a@." Hli_core.Tables.pp_entry e;
              Fmt.pr "entry hash: %s@." hash;
              0
            end
      end
    | None ->
    if check then begin
      match Hli_core.Validate.check_file f with
      | [] ->
          Fmt.pr "%s: OK (%d unit(s), %d region(s), %d container bytes)@."
            path
            (List.length f.Hli_core.Tables.entries)
            (List.fold_left
               (fun acc e -> acc + List.length e.Hli_core.Tables.regions)
               0 f.Hli_core.Tables.entries)
            (Hli_core.Serialize.container_bytes f);
          0
      | issues ->
          List.iter
            (fun i ->
              Fmt.epr "%s: error%s@." path
                (Hli_core.Validate.issue_to_string i))
            issues;
          Fmt.epr "%s: %d structural issue(s)@." path (List.length issues);
          2
    end
    else begin
      print_string (Hli_core.Serialize.to_text f);
      if verify then begin
        let bytes = Hli_core.Serialize.to_bytes f in
        let f2 = Hli_core.Serialize.of_bytes bytes in
        if f = f2 then Fmt.pr "round-trip: OK (%d bytes)@." (String.length bytes)
        else begin
          Fmt.epr "round-trip: MISMATCH@.";
          exit 2
        end
      end;
      0
    end
  with
  | Diagnostics.Diagnostic d ->
      Fmt.epr "%a@." Diagnostics.pp d;
      1
  | Hli_core.Serialize.Corrupt c ->
      Fmt.epr "corrupt HLI file: %s@." (Hli_core.Serialize.corruption_to_string c);
      1
  | Sys_error msg ->
      Fmt.epr "error: %s@." msg;
      1

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"HLI file")

let verify_flag =
  Arg.(value & flag & info [ "verify" ] ~doc:"check binary round-trip")

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "run the structural validator and report every issue instead of \
           dumping; exits 2 when issues are found")

let entry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "entry" ] ~docv:"NAME"
        ~doc:
          "restrict to the named function's entry: dump (or, with \
           $(b,--check), validate) just that entry and print its content \
           hash — the digest the HLI cache and delta uploads key on")

let cmd =
  let doc = "dump a High-Level Information file" in
  Cmd.v (Cmd.info "hli_dump" ~doc)
    Term.(const run $ path_arg $ verify_flag $ check_flag $ entry_arg)

let () = exit (Cmd.eval' cmd)
