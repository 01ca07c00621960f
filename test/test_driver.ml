(* Driver-layer tests: --passes spec parsing and round-tripping, the
   --ablation/--speculate resolver, the optional-pass table and the
   telemetry span names, the front end's spans and HLI-cache counters,
   the shape of a compile (one back-end prefix and one DDG build per
   alias mode, scheduled for both machines, each dependence pair
   queried once, E1010 when a prefix context is asked for its machine),
   and a golden check that the default pipeline's Table 1/2 output is
   byte-identical to the output recorded before the pass-manager
   refactor (test/golden_tables.txt). *)

let diag_code f =
  match f () with
  | exception Diagnostics.Diagnostic d -> Some d.Diagnostics.code
  | _ -> None

let check_code name expected f =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (option string)) name (Some expected) (diag_code f))

let roundtrip s = Driver.Pass_manager.(specs_to_string (parse_specs s))

let spec_tests =
  [
    Alcotest.test_case "round-trip canonical spec" `Quick (fun () ->
        Alcotest.(check string)
          "same" "cse,licm,unroll=4"
          (roundtrip "cse,licm,unroll=4"));
    Alcotest.test_case "round-trip normalizes whitespace" `Quick (fun () ->
        Alcotest.(check string) "trimmed" "cse,licm" (roundtrip " cse , licm "));
    Alcotest.test_case "empty spec is the default pipeline" `Quick (fun () ->
        Alcotest.(check int)
          "no specs" 0
          (List.length (Driver.Pass_manager.parse_specs "")));
    Alcotest.test_case "unroll default arg survives round-trip" `Quick
      (fun () ->
        (* a bare "unroll" keeps sp_arg = None (the factor defaults to
           4 at run time), so it prints back without "=N" *)
        Alcotest.(check string) "bare" "unroll" (roundtrip "unroll"));
    check_code "unknown pass is E1001" "E1001" (fun () ->
        Driver.Pass_manager.parse_specs "cse,frobnicate");
    Alcotest.test_case "structural pass not selectable (E1002)" `Quick
      (fun () ->
        (* every fixed-pipeline step, front end to simulator *)
        List.iter
          (fun n ->
            Alcotest.(check (option string))
              n (Some "E1002")
              (diag_code (fun () -> Driver.Pass_manager.parse_specs n)))
          [
            "parse_typecheck";
            "analysis";
            "tblconst";
            "serialize";
            "lower";
            "hli_import";
            "ddg_schedule";
            "simulate";
          ]);
    check_code "argument on argless pass (E1002)" "E1002" (fun () ->
        Driver.Pass_manager.parse_specs "cse=3");
    check_code "non-integer argument (E1002)" "E1002" (fun () ->
        Driver.Pass_manager.parse_specs "unroll=x");
    check_code "unroll factor < 2 (E1002)" "E1002" (fun () ->
        Driver.Pass_manager.parse_specs "unroll=1");
    check_code "duplicate pass (E1003)" "E1003" (fun () ->
        Driver.Pass_manager.parse_specs "cse,cse");
    check_code "unroll before cse violates ordering (E1004)" "E1004" (fun () ->
        Driver.Pass_manager.parse_specs "unroll=4,cse");
    check_code "licm before cse violates ordering (E1004)" "E1004" (fun () ->
        Driver.Pass_manager.parse_specs "licm,cse");
    check_code "unknown ablation is E1006" "E1006" (fun () ->
        Driver.Variant.resolve "frobnicate");
    Alcotest.test_case "speculate threshold outside 0..1000 is E1006" `Quick
      (fun () ->
        List.iter
          (fun t ->
            Alcotest.(check (option string))
              (string_of_int t) (Some "E1006")
              (diag_code (fun () ->
                   Driver.Variant.resolve ~speculate:t "baseline")))
          [ -1; 1001 ]);
    Alcotest.test_case "speculate composes onto an ablation" `Quick (fun () ->
        let ab = Driver.Variant.resolve ~speculate:500 "merge-off" in
        Alcotest.(check string)
          "name" "merge-off+speculate=500" ab.Driver.Variant.ab_name;
        Alcotest.(check (option int))
          "threshold" (Some 500) ab.Driver.Variant.speculate;
        Alcotest.(check bool) "merge off" false ab.Driver.Variant.merge_classes);
  ]

let registry_tests =
  [
    Alcotest.test_case "telemetry stage order is derived" `Quick (fun () ->
        Alcotest.(check (list string))
          "same list" Driver.Pass_manager.span_names
          Harness.Telemetry.stage_order);
    Alcotest.test_case "span = prefix.name for every pass" `Quick (fun () ->
        List.iter
          (fun span ->
            Alcotest.(check bool)
              (span ^ " namespaced") true (String.contains span '.'))
          Driver.Pass_manager.span_names;
        Alcotest.(check int)
          "eleven spans" 11
          (List.length Driver.Pass_manager.span_names));
    Alcotest.test_case "list-passes names every pass" `Quick (fun () ->
        let text = Driver.Pass_manager.list_text () in
        let has_sub s sub =
          let n = String.length s and k = String.length sub in
          let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
          go 0
        in
        List.iter
          (fun n -> Alcotest.(check bool) n true (has_sub text n))
          (List.map (fun p -> p.Driver.Pass_manager.name)
             Driver.Pass_manager.optional
          @ Driver.Pass_manager.span_names));
    Alcotest.test_case "all four ablations are registered" `Quick (fun () ->
        List.iter
          (fun n ->
            Alcotest.(check bool) n true
              (Driver.Variant.find_ablation n <> None))
          [ "merge-off"; "routine-regions"; "hli-only"; "lsq-off" ];
        Alcotest.(check bool) "baseline" true
          (Driver.Variant.find_ablation "baseline" <> None));
    Alcotest.test_case "variant matrix is machine-major" `Quick (fun () ->
        Alcotest.(check (list string))
          "order"
          [ "gcc/r4600"; "hli/r4600"; "gcc/r10000"; "hli/r10000" ]
          (List.map Driver.Variant.name Driver.Variant.matrix));
  ]

let tiny = "int main() { return 0; }"
let uncached = { Harness.Pipeline.default_config with hli_cache = None }
let frontend src = Harness.Pipeline.frontend ~config:uncached src

let pipeline_tests =
  [
    Alcotest.test_case "frontend runs without a variant" `Quick (fun () ->
        let h = frontend tiny in
        Alcotest.(check bool) "entries" true (h.Driver.Pass.h_entries <> []);
        Alcotest.(check bool) "serialized" true (h.Driver.Pass.h_bytes > 0));
    check_code "backend without a variant is E1010" "E1010" (fun () ->
        Driver.Pass_manager.run_prefix (Driver.Pass.ctx ()) [] (frontend tiny));
    check_code "a prefix context asking for the machine is E1010" "E1010"
      (fun () ->
        Driver.Pass.the_machine (Driver.Pass.ctx ~alias:Backend.Ddg.With_hli ()));
    check_code "simulating in a prefix context is E1010" "E1010" (fun () ->
        let ctx = Driver.Pass.ctx ~alias:Backend.Ddg.With_hli () in
        Driver.Pass_manager.(
          List.map (fun (_, s) -> simulate ctx s)
            (run_schedule ctx (run_prefix ctx [] (frontend tiny)))));
    Alcotest.test_case "the back-end prefix runs once per alias mode" `Quick
      (fun () ->
        (* lower, the optional passes and the scheduler once per alias
           mode, the HLI import once (With_hli only) *)
        let tm = Harness.Telemetry.create () in
        let w = Option.get (Workloads.Registry.find "wc") in
        ignore
          (Harness.Pipeline.compile
             ~config:
               {
                 (Harness.Pipeline.config_of_passes "cse,licm,unroll=4") with
                 hli_cache = None;
               }
             ~tm w.Workloads.Workload.source);
        List.iter
          (fun (span, n) ->
            Alcotest.(check int) span n (Harness.Telemetry.span_count tm span))
          [
            ("backend.lower", 2);
            ("backend.hli_import", 1);
            ("backend.cse", 2);
            ("backend.licm", 2);
            ("backend.unroll", 2);
            ("backend.ddg_schedule", 2);
          ]);
    Alcotest.test_case "each dependence pair is queried once per alias mode"
      `Quick (fun () ->
        (* every pair of mapped memory references the With_hli build
           counts in Table 2 asks the HLI exactly once, not once per
           machine *)
        let equiv_acc () =
          List.assoc "equiv_acc" (Hli_core.Query.query_counters ())
        in
        List.iter
          (fun w ->
            let before = equiv_acc () in
            let c =
              Harness.Pipeline.compile
                ~config:{ Harness.Pipeline.default_config with hli_cache = None }
                w.Workloads.Workload.source
            in
            Alcotest.(check int) w.Workloads.Workload.name
              c.Harness.Pipeline.stats.Backend.Ddg.total
              (equiv_acc () - before))
          Workloads.Registry.all);
    Alcotest.test_case "diagnostics carry the source file name" `Quick
      (fun () ->
        match
          Harness.Pipeline.frontend ~config:uncached ~src_file:"bad.c"
            "int f() { return nope; }"
        with
        | exception Diagnostics.Diagnostic d ->
            Alcotest.(check (option string)) "file" (Some "bad.c")
              d.Diagnostics.file;
            Alcotest.(check string) "code" "E0301" d.Diagnostics.code
        | _ -> Alcotest.fail "expected a typecheck diagnostic");
  ]

(* The front end's spans and HLI-cache counters over one compile of a
   four-function program: uncached, cold, warm, and after an edit to one
   function that leaves the others' fingerprints alone. *)
let four_funcs mid =
  "int g;\n"
  ^ Printf.sprintf "int leaf(int n) { g = g + n; return n + %d; }\n" mid
  ^ "int caller(int n) { return leaf(n) + 1; }\n"
  ^ "int lone(int n) { return n * 7; }\n"
  ^ "int main() { return caller(2) + lone(3); }\n"

let frontend_counts ?dir src =
  let tm = Harness.Telemetry.create () in
  ignore
    (Harness.Pipeline.compile ~config:{ uncached with hli_cache = dir } ~tm src);
  List.map
    (fun n -> (n, Harness.Telemetry.span_count tm n))
    [
      "frontend.parse_typecheck";
      "hli.fingerprint";
      "hli.cache";
      "frontend.analysis";
      "hligen.tblconst";
      "hli.serialize";
    ]
  @ List.map
      (fun n -> (n, Harness.Telemetry.counter tm n))
      [ "hli_cache_hits"; "hli_cache_misses"; "hli_cache_partial_hits" ]

let check_counts name expected actual =
  Alcotest.(check (list (pair string int)))
    name
    (List.combine (List.map fst actual) expected)
    actual

let with_cache_dir f =
  let dir = Filename.temp_file "hli-driver-test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun e -> Sys.remove (Filename.concat dir e))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let frontend_tests =
  [
    Alcotest.test_case "uncached: each front-end step runs once" `Quick
      (fun () ->
        check_counts "uncached"
          [ 1; 0; 0; 1; 1; 1; 0; 0; 0 ]
          (frontend_counts (four_funcs 1)));
    Alcotest.test_case "cache: cold, warm and a one-function edit" `Quick
      (fun () ->
        with_cache_dir (fun dir ->
            check_counts "cold"
              [ 1; 1; 1; 1; 1; 1; 0; 4; 0 ]
              (frontend_counts ~dir (four_funcs 1));
            check_counts "warm: no analysis or TBLCONST"
              [ 1; 1; 1; 0; 0; 1; 4; 0; 0 ]
              (frontend_counts ~dir (four_funcs 1));
            check_counts "edit: one partial hit"
              [ 1; 1; 1; 1; 1; 1; 3; 1; 1 ]
              (frontend_counts ~dir (four_funcs 2))));
    Alcotest.test_case "a compile records exactly the listed spans" `Quick
      (fun () ->
        let tm = Harness.Telemetry.create () in
        let c =
          Harness.Pipeline.compile
            ~config:
              {
                (Harness.Pipeline.config_of_passes "cse,licm,unroll=4") with
                hli_cache = None;
              }
            ~tm (four_funcs 1)
        in
        ignore (Harness.Pipeline.measure ~tm c);
        Alcotest.(check (list string))
          "spans" Driver.Pass_manager.span_names
          (Harness.Telemetry.span_names tm));
  ]

(* Byte-identity of the default pipeline against the output recorded
   before the refactor (same two workloads and fuel the @smoke alias
   uses). *)
let golden_tests =
  [
    Alcotest.test_case "default-pipeline tables match the recorded golden"
      `Slow (fun () ->
        let golden =
          let ic = open_in_bin "golden_tables.txt" in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let ws =
          List.map
            (fun n -> Option.get (Workloads.Registry.find n))
            [ "wc"; "129.compress" ]
        in
        let rows = Harness.Tables.run_all ~fuel:100_000_000 ws in
        Alcotest.(check string)
          "byte-identical" golden
          (Harness.Tables.print_tables rows));
  ]

let () =
  Alcotest.run "driver"
    [
      ("specs", spec_tests);
      ("registry", registry_tests);
      ("pipeline", pipeline_tests);
      ("frontend", frontend_tests);
      ("golden", golden_tests);
    ]
