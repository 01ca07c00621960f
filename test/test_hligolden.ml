(* HLI golden (golden_hli.txt).

   One line per TBLCONST option set x workload pins the md5 of the
   HLI3 container ([Serialize.to_bytes]) and Table 1's size, the HLI1
   length ([Serialize.size_bytes]).  The container holds every
   equivalence-class description, so a description that changes text
   but not length still fails here, where Table 1's sizes alone would
   pass it.  The option sets are the default, the per-space merge off
   and routine-only regions.  Nothing is compiled past TBLCONST, so
   every row runs under runtest.

     test_hligolden.exe           check every row
     test_hligolden.exe --write   print a fresh golden on stdout *)

module Tc = Hligen.Tblconst

let golden_file = "golden_hli.txt"
let header = "# options program hli3_md5 size_bytes"

let all_programs = List.map (fun w -> w.Workloads.Workload.name) Workloads.Registry.all

(* (option-set name, options), in file order *)
let groups =
  [
    ("default", Tc.default_options);
    ( "merge_parent_classes=false",
      { Tc.default_options with merge_parent_classes = false } );
    ( "routine_only_regions=true",
      { Tc.default_options with routine_only_regions = true } );
  ]

let line name opts prog =
  let w = Option.get (Workloads.Registry.find prog) in
  let tast = Srclang.Typecheck.program_of_string w.Workloads.Workload.source in
  let hli =
    { Hli_core.Tables.entries = Harness.Pipeline.build_hli_entries ~opts tast }
  in
  Printf.sprintf "%s %s %s %d" name prog
    (Digest.to_hex (Digest.string (Hli_core.Serialize.to_bytes hli)))
    (Hli_core.Serialize.size_bytes hli)

let cases () =
  let golden = Golden.read golden_file in
  List.concat_map
    (fun (name, opts) ->
      List.map
        (fun prog ->
          Alcotest.test_case (name ^ " " ^ prog) `Quick (fun () ->
              Alcotest.(check (list string))
                "hli" (Golden.rows golden ~config:name ~prog)
                [ line name opts prog ]))
        all_programs)
    groups

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write" ] ->
      print_endline header;
      List.iter
        (fun (name, opts) ->
          List.iter (fun p -> print_endline (line name opts p)) all_programs)
        groups
  | _ -> Alcotest.run "hligolden" [ ("rows", cases ()) ]
