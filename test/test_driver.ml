(* Driver-layer tests: --passes spec parsing and round-tripping, the
   --ablation resolver, the optional-pass table and the
   telemetry span names, the front end's spans and HLI-cache counters,
   the shape of a compile (one back-end prefix and one DDG build per
   alias mode, scheduled for both machines, each dependence pair
   queried once, E1010 when a prefix context is asked for its machine,
   E0901 when any variant's output differs from the first's), E0901
   from a group's static check and address oracle on hand-built
   schedules and for a schedule that is not a permutation of its
   prefix, the helper domain that walks a group's members (reports
   equal to lone simulations, its join however a run stops), and a
   golden check that the default pipeline's Table 1/2 output is
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
    Alcotest.test_case "E0901 compares every variant with the first" `Quick
      (fun () ->
        (* a variant's RTL swapped for another program's stands for a
           schedule that changed the output; swapping both r10000
           variants alike must be caught too, since each machine has
           its own schedule *)
        let compile src = Harness.Pipeline.compile ~config:uncached src in
        let a = compile "int main() { print_int(1); return 0; }"
        and b = compile "int main() { print_int(2); return 0; }" in
        let swap vs =
          {
            a with
            Harness.Pipeline.variants =
              List.map
                (fun (v, s) ->
                  (v, if List.mem v vs then List.assoc v b.Harness.Pipeline.variants else s))
                a.Harness.Pipeline.variants;
          }
        in
        let v alias machine = { Driver.Variant.alias; machine } in
        List.iter
          (fun (vs, message) ->
            match Harness.Pipeline.measure (swap vs) with
            | exception Diagnostics.Diagnostic d ->
                Alcotest.(check (pair string string))
                  message ("E0901", message)
                  (d.Diagnostics.code, d.Diagnostics.message)
            | _ -> Alcotest.fail ("no E0901: " ^ message))
          [
            ( [ v Backend.Ddg.With_hli Driver.Variant.R4600 ],
              "schedule changed program output (hli/r4600 differs from gcc/r4600)" );
            ( [
                v Backend.Ddg.Gcc_only Driver.Variant.R10000;
                v Backend.Ddg.With_hli Driver.Variant.R10000;
              ],
              "schedule changed program output (gcc/r10000 differs from gcc/r4600)" );
          ]);
  ]

(* Hand-built groups: [v]'s schedule of [main] with instruction [y]
   moved to just before [x], for the first pair of a block that [pick]
   accepts ([x] ahead of [y]).  The other variants keep their
   schedules, so the edited one still joins their group, whose checks
   must catch it. *)
let reschedule (c : Harness.Pipeline.compiled) v pick =
  let s = List.assoc v c.Harness.Pipeline.variants in
  let found = ref None in
  let edit (b : Backend.Rtl.block) =
    let a = Array.of_list b.Backend.Rtl.insns in
    let n = Array.length a in
    for j = n - 1 downto 0 do
      for k = n - 1 downto j + 1 do
        if pick a.(j) a.(k) then found := Some (b.Backend.Rtl.bid, a.(j), a.(k))
      done
    done;
    match !found with
    | Some (bid, x, y) when bid = b.Backend.Rtl.bid ->
        let rest = List.filter (fun i -> i != y) b.Backend.Rtl.insns in
        {
          b with
          Backend.Rtl.insns = List.concat_map (fun i -> if i == x then [ y; x ] else [ i ]) rest;
        }
    | _ -> b
  in
  let fns =
    List.map
      (fun (f : Backend.Rtl.fn) ->
        if f.Backend.Rtl.fname <> "main" || !found <> None then f
        else
          let blocks = Array.map edit f.Backend.Rtl.blocks in
          if !found = None then f else { f with Backend.Rtl.blocks })
      s.Driver.Pass.s_rtl.Backend.Rtl.fns
  in
  match !found with
  | None -> Alcotest.fail "no such pair in main"
  | Some (_, x, y) ->
      let s = { s with Driver.Pass.s_rtl = { s.Driver.Pass.s_rtl with Backend.Rtl.fns } } in
      ( {
          c with
          Harness.Pipeline.variants =
            List.map (fun (w, t) -> (w, if w = v then s else t)) c.Harness.Pipeline.variants;
        },
        x,
        y )

let hli_r4600 = { Driver.Variant.alias = Backend.Ddg.With_hli; machine = Driver.Variant.R4600 }

(* [pick] a pair in [src]'s hli/r4600 schedule, invert it, and expect
   E0901 naming the variant, both instructions and what [check] found *)
let caught name src pick ~check =
  Alcotest.test_case name `Quick (fun () ->
      let c = Harness.Pipeline.compile ~config:uncached src in
      let c, x, y = reschedule c hli_r4600 pick in
      let named (i : Backend.Rtl.insn) =
        Printf.sprintf "uid %d (line %d)" i.Backend.Rtl.uid i.Backend.Rtl.line
      in
      let has sub m =
        let n = String.length m and k = String.length sub in
        let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
        go 0
      in
      match Harness.Pipeline.measure c with
      | exception Diagnostics.Diagnostic d ->
          let m = d.Diagnostics.message in
          Alcotest.(check string) "code" "E0901" d.Diagnostics.code;
          List.iter
            (fun sub -> Alcotest.(check bool) (sub ^ " in: " ^ m) true (has sub m))
            [ "hli/r4600 "; named x; named y; check ]
      | _ -> Alcotest.fail "no E0901")

let group_tests =
  [
    caught "a member that swaps a RAW register pair is caught"
      "int g;\nint main() {\n  int a;\n  a = g * 3;\n  print_int(a + g);\n  return 0;\n}\n"
      (fun x y ->
        match Backend.Rtl.def x with
        | Some r -> List.mem r (Backend.Rtl.uses y)
        | None -> false)
      ~check:"breaks a register dependence in main";
    caught "a member that swaps a store and a load of one address is caught"
      "int g;\nint main() {\n  g = 5;\n  print_int(g);\n  return 0;\n}\n"
      (fun x y ->
        Backend.Rtl.is_store x && Backend.Rtl.is_load y
        && Backend.Rtl.mem_of_insn x = Backend.Rtl.mem_of_insn y)
      ~check:"reorders overlapping accesses in main";
    caught "a member that hoists a load above a call storing to it is caught"
      "int g;\nvoid set() {\n  g = 7;\n}\nint main() {\n  int a;\n  set();\n  a = g;\n  print_int(a);\n  return 0;\n}\n"
      (fun x y ->
        (match x.Backend.Rtl.desc with Backend.Rtl.Call ("set", _, _) -> true | _ -> false)
        && Backend.Rtl.is_load y)
      ~check:"moves an access across a call that overlaps it in main";
    Alcotest.test_case "a member that is not a permutation of its prefix is E0901"
      `Quick (fun () ->
        (* hli/r4600's first instruction of main under a fresh uid: the
           same program, so the same output, but no longer a reordering
           of the prefix's blocks *)
        let c =
          Harness.Pipeline.compile ~config:uncached
            "int g;\nint main() {\n  g = 5;\n  print_int(g);\n  return 0;\n}\n"
        in
        let s = List.assoc hli_r4600 c.Harness.Pipeline.variants in
        let renumber (f : Backend.Rtl.fn) =
          if f.Backend.Rtl.fname <> "main" then f
          else
            let blocks = Array.copy f.Backend.Rtl.blocks in
            (match blocks.(f.Backend.Rtl.entry).Backend.Rtl.insns with
            | i :: rest ->
                blocks.(f.Backend.Rtl.entry) <-
                  {
                    (blocks.(f.Backend.Rtl.entry)) with
                    Backend.Rtl.insns = { i with Backend.Rtl.uid = i.Backend.Rtl.uid + 1000 } :: rest;
                  }
            | [] -> Alcotest.fail "main's entry block is empty");
            { f with Backend.Rtl.blocks }
        in
        let rtl = s.Driver.Pass.s_rtl in
        let s =
          { s with Driver.Pass.s_rtl = { rtl with Backend.Rtl.fns = List.map renumber rtl.Backend.Rtl.fns } }
        in
        let c =
          {
            c with
            Harness.Pipeline.variants =
              List.map (fun (w, t) -> (w, if w = hli_r4600 then s else t)) c.Harness.Pipeline.variants;
          }
        in
        match Harness.Pipeline.measure c with
        | exception Diagnostics.Diagnostic d ->
            Alcotest.(check (pair string string))
              "diagnostic"
              ("E0901", "hli/r4600 schedule is not a permutation of its prefix")
              (d.Diagnostics.code, d.Diagnostics.message)
        | _ -> Alcotest.fail "no E0901");
  ]

(* A group's walks on a helper domain.  Each loop iteration ends a
   block instance, and so appends at least one trace event:
   [long_kernel]'s 25,000 iterations fill a trace chunk often enough for
   the ring to wrap three times ([trace_fills] counts the fills),
   [sum_kernel]'s 10,000 fill one before its last block, which the
   oracle case inverts. *)
let long_kernel =
  "int a[1000];\nint b[1000];\nint main() {\n  int i;\n  int j;\n  int s;\n  s = 0;\n\
  \  for (j = 0; j < 25; j = j + 1)\n    for (i = 0; i < 1000; i = i + 1) {\n\
  \      a[i] = a[i] + b[i] * j + i;\n      b[i] = b[i] + a[i] % 7;\n      s = s + a[i];\n    }\n\
  \  print_int(s);\n  return 0;\n}\n"

let sum_kernel =
  "int a[1000];\nint g;\nint main() {\n  int i;\n  int j;\n  int s;\n  s = 0;\n\
  \  for (j = 0; j < 10; j = j + 1)\n    for (i = 0; i < 1000; i = i + 1)\n      s = s + a[i] * j;\n\
  \  g = s;\n  print_int(g);\n  return 0;\n}\n"

(* Where no core is spare, group runs walk every member on their own
   domain; say so, as these cases then test that path only. *)
let helper_note () =
  if Domain.recommended_domain_count () = 1 then
    print_endline "note: Domain.recommended_domain_count () = 1, so no helper domain started"

(* How many times the trace fills in a run of [c]'s program: the
   chunks a memberless group publishes, less the run's last.  Every
   group of the program records the same events. *)
let trace_fills (c : Harness.Pipeline.compiled) =
  let _, s = List.hd c.Harness.Pipeline.variants in
  let code = Machine.Exec.decode s.Driver.Pass.s_rtl in
  let g = Machine.Exec.make_group code ~members:[] ~pairs:[] ~moved:[] in
  ignore (Machine.Exec.run_code ~model:(Machine.Exec.Group g) code);
  g.Machine.Exec.chunks - 1

(* Reports compare structurally, as in test_random; the fields are
   spelled out only when they differ. *)
let check_reports what (a : Machine.Simulate.report) (b : Machine.Simulate.report) =
  let show (r : Machine.Simulate.report) =
    Printf.sprintf
      "%s cycles %d dyn_insns %d ret %d l1_hits %d l1_misses %d lsq_stalls %d \
       misspeculations %d output %S"
      (Machine.Simulate.machine_name r.machine)
      r.cycles r.dyn_insns r.ret r.l1_hits r.l1_misses r.lsq_stalls r.misspeculations r.output
  in
  if a <> b then Alcotest.failf "%s: reports differ\n  %s\n  %s" what (show a) (show b)

(* [Threads:] of /proc/self/status, or [None] without procfs *)
let os_threads () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | l when String.starts_with ~prefix:"Threads:" l ->
                Scanf.sscanf l "Threads: %d" Option.some
            | _ -> go ()
            | exception End_of_file -> None
          in
          go ())

(* The count once it holds still for 20 ms: a joined domain's threads
   exit just after [Domain.join] returns. *)
let settled_threads () =
  let deadline = Unix.gettimeofday () +. 2. in
  let rec go n =
    Unix.sleepf 0.02;
    let m = os_threads () in
    if m = n || Unix.gettimeofday () > deadline then m else go m
  in
  go (os_threads ())

(* [run ()] raises what [expected] accepts, and leaves the process the
   threads it found.  The first domain a process spawns leaves the main
   domain a backup thread for good, so one is spawned first. *)
let stops_cleanly run expected =
  Domain.join (Domain.spawn ignore);
  let before = settled_threads () in
  (match run () with
  | exception e when expected e -> ()
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "ran to the end");
  Alcotest.(check (option int)) "Threads: as before the run" before (settled_threads ())

(* [measure c] reports what each variant simulated alone does *)
let measure_equals_alone (c : Harness.Pipeline.compiled) =
  let measured = (Harness.Pipeline.measure c).Harness.Pipeline.reports in
  List.iter
    (fun (v, s) ->
      let alone = Driver.Pass_manager.simulate (Driver.Pass.ctx ~variant:v ()) s in
      check_reports (Driver.Variant.name v) alone (List.assoc v measured))
    c.Harness.Pipeline.variants

let helper_tests =
  [
    Alcotest.test_case "measure equals per-variant simulation over ten trace fills" `Quick
      (fun () ->
        helper_note ();
        let c = Harness.Pipeline.compile ~config:uncached long_kernel in
        let fills = trace_fills c in
        if fills < 10 then Alcotest.failf "the trace fills %d times, not ten" fills;
        if fills < 3 * Machine.Exec.trace_chunks then
          Alcotest.failf "the trace ring of %d chunks wraps %d times, not three"
            Machine.Exec.trace_chunks (fills / Machine.Exec.trace_chunks);
        measure_equals_alone c);
    Alcotest.test_case "out of fuel mid-run: raised, and the helper joined" `Quick (fun () ->
        helper_note ();
        let c = Harness.Pipeline.compile ~config:uncached long_kernel in
        stops_cleanly
          (fun () -> Harness.Pipeline.measure ~fuel:200_000 c)
          (function Machine.Exec.Out_of_fuel -> true | _ -> false));
    Alcotest.test_case "the oracle after the helper started: E0901, and the helper joined"
      `Quick (fun () ->
        helper_note ();
        let c = Harness.Pipeline.compile ~config:uncached sum_kernel in
        let fills = trace_fills c in
        if fills < 2 then Alcotest.failf "the trace fills %d times, not twice" fills;
        let c, _, _ =
          reschedule c hli_r4600 (fun x y ->
              Backend.Rtl.is_store x && Backend.Rtl.is_load y
              && Backend.Rtl.mem_of_insn x = Backend.Rtl.mem_of_insn y)
        in
        stops_cleanly
          (fun () -> Harness.Pipeline.measure c)
          (function
            | Diagnostics.Diagnostic d ->
                d.Diagnostics.code = "E0901"
                && String.starts_with ~prefix:"hli/r4600 reorders overlapping accesses in main"
                     d.Diagnostics.message
            | _ -> false));
    Alcotest.test_case "twenty measures on one domain report alike" `Quick (fun () ->
        helper_note ();
        let c = Harness.Pipeline.compile ~config:uncached sum_kernel in
        let first = (Harness.Pipeline.measure c).Harness.Pipeline.reports in
        for k = 2 to 20 do
          List.iter2
            (fun (v, a) (_, b) ->
              check_reports (Printf.sprintf "measure %d, %s" k (Driver.Variant.name v)) a b)
            first (Harness.Pipeline.measure c).Harness.Pipeline.reports
        done);
    Alcotest.test_case "with no core spare, measure equals per-variant simulation" `Quick
      (fun () ->
        (* the run's domain walks every member, on any machine *)
        let rec take n = if Pool.take_core () then take (n + 1) else n in
        let taken = take 0 in
        Fun.protect
          ~finally:(fun () ->
            for _ = 1 to taken do
              Pool.give_core ()
            done)
          (fun () -> measure_equals_alone (Harness.Pipeline.compile ~config:uncached long_kernel)));
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
      ("group", group_tests @ helper_tests);
      ("frontend", frontend_tests);
      ("golden", golden_tests);
    ]
