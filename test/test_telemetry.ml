(* Tests for the telemetry subsystem: span/counter accounting, the
   JSON dump (validated by the bundled structural checker), and the
   per-kind HLI query counters threaded through Hli_core.Query. *)

let has_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

let telemetry_tests =
  [
    Alcotest.test_case "spans accumulate ns and count" `Quick (fun () ->
        let tm = Harness.Telemetry.create () in
        let v =
          Harness.Telemetry.span ~tm "backend.lower" (fun () ->
              Sys.opaque_identity (List.init 1000 Fun.id) |> List.length)
        in
        Alcotest.(check int) "span returns f ()" 1000 v;
        ignore (Harness.Telemetry.span ~tm "backend.lower" (fun () -> ()));
        Alcotest.(check int) "count" 2
          (Harness.Telemetry.span_count tm "backend.lower");
        Alcotest.(check bool) "ns nonnegative" true
          (Harness.Telemetry.span_ns tm "backend.lower" >= 0L);
        Alcotest.(check int) "absent stage" 0
          (Harness.Telemetry.span_count tm "machine.simulate"));
    Alcotest.test_case "span charges time even when f raises" `Quick (fun () ->
        let tm = Harness.Telemetry.create () in
        (try
           Harness.Telemetry.span ~tm "backend.passes" (fun () ->
               failwith "boom")
         with Failure _ -> ());
        Alcotest.(check int) "counted" 1
          (Harness.Telemetry.span_count tm "backend.passes"));
    Alcotest.test_case "counters accumulate" `Quick (fun () ->
        let tm = Harness.Telemetry.create () in
        Harness.Telemetry.count ~tm "widgets";
        Harness.Telemetry.count ~tm ~n:3 "widgets";
        Alcotest.(check int) "total" 4 (Harness.Telemetry.counter tm "widgets"));
    Alcotest.test_case "no-tm span is transparent" `Quick (fun () ->
        Alcotest.(check int) "passthrough" 7
          (Harness.Telemetry.span "anything" (fun () -> 7)));
    Alcotest.test_case "stage names come back in pipeline order" `Quick
      (fun () ->
        let tm = Harness.Telemetry.create () in
        ignore (Harness.Telemetry.span ~tm "machine.simulate" (fun () -> ()));
        ignore (Harness.Telemetry.span ~tm "backend.lower" (fun () -> ()));
        ignore (Harness.Telemetry.span ~tm "zz.custom" (fun () -> ()));
        Alcotest.(check (list string))
          "order"
          [ "backend.lower"; "machine.simulate"; "zz.custom" ]
          (Harness.Telemetry.span_names tm));
  ]

let json_tests =
  [
    Alcotest.test_case "to_json validates" `Quick (fun () ->
        let tm = Harness.Telemetry.create () in
        ignore (Harness.Telemetry.span ~tm "backend.lower" (fun () -> ()));
        Harness.Telemetry.count ~tm "needs \"escaping\"\n";
        match Harness.Telemetry.validate_json (Harness.Telemetry.to_json tm) with
        | Ok () -> ()
        | Error (msg, pos) -> Alcotest.failf "invalid at %d: %s" pos msg);
    Alcotest.test_case "validator accepts JSON shapes" `Quick (fun () ->
        List.iter
          (fun s ->
            match Harness.Telemetry.validate_json s with
            | Ok () -> ()
            | Error (msg, pos) -> Alcotest.failf "%s: invalid at %d: %s" s pos msg)
          [
            "{}";
            "[]";
            "null";
            "-12.5e+3";
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\u00e9\"}";
          ]);
    Alcotest.test_case "validator rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s ->
            match Harness.Telemetry.validate_json s with
            | Ok () -> Alcotest.failf "accepted malformed: %s" s
            | Error _ -> ())
          [
            "";
            "{";
            "{\"a\":}";
            "{\"a\":1,}";
            "[1,2";
            "\"unterminated";
            "{\"a\":1} trailing";
            "{'a':1}";
          ]);
    Alcotest.test_case "stats_json for a workload row validates" `Quick
      (fun () ->
        let w = Option.get (Workloads.Registry.find "wc") in
        (* fuel-starved on purpose: exercises the failure annotation in
           the JSON too, cheaply *)
        let r = Harness.Tables.run_workload ~fuel:100 w in
        let json = Harness.Tables.stats_json [ r ] in
        (match Harness.Telemetry.validate_json json with
        | Ok () -> ()
        | Error (msg, pos) -> Alcotest.failf "invalid at %d: %s" pos msg);
        Alcotest.(check bool) "has schema" true
          (has_sub json
             (Printf.sprintf "\"schema\":\"%s\""
                Harness.Telemetry.schema_version));
        Alcotest.(check bool) "schema is v10" true
          (Harness.Telemetry.schema_version = "hli-telemetry-v10");
        (* v10: no speculation object *)
        Alcotest.(check bool) "no speculation" false (has_sub json "speculation");
        (* v5: the server object is present, null for in-process runs *)
        Alcotest.(check bool) "has null server" true
          (has_sub json "\"server\":null");
        (* v6: the shm object is present, null for non-shm runs *)
        Alcotest.(check bool) "has null shm" true
          (has_sub json "\"shm\":null");
        Alcotest.(check bool) "has query_cache" true
          (has_sub json "\"query_cache\":{");
        Alcotest.(check bool) "has hli_cache" true
          (has_sub json "\"hli_cache\":{\"hits\":");
        Alcotest.(check bool) "has duplicates" true
          (has_sub json "\"duplicates\":0");
        Alcotest.(check bool) "has dropped" true
          (has_sub json "\"dropped\":0");
        Alcotest.(check bool) "has failure" true
          (has_sub json "\"failure\":\"out of fuel\""));
    Alcotest.test_case "schema gate rejects a v1 dump specifically" `Quick
      (fun () ->
        (* v1 is the oldest dump; v9 is the one just before this
           binary's *)
        List.iter
          (fun old ->
            let dump =
              Printf.sprintf "{\"schema\":\"%s\",\"workloads\":[]}" old
            in
            match Harness.Telemetry.check_schema dump with
            | Ok () -> Alcotest.failf "%s dump accepted" old
            | Error msg ->
                Alcotest.(check bool) "names the found version" true
                  (has_sub msg old);
                Alcotest.(check bool) "names the expected version" true
                  (has_sub msg Harness.Telemetry.schema_version))
          [ "hli-telemetry-v1"; "hli-telemetry-v9" ];
        (* current dumps and non-telemetry JSON pass the gate *)
        (match
           Harness.Telemetry.check_schema
             (Printf.sprintf "{\"schema\":\"%s\"}"
                Harness.Telemetry.schema_version)
         with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "current dump rejected: %s" msg);
        (* servbench.sh passes its hli-servbench-v2 artifact to
           --validate-json *)
        (match
           Harness.Telemetry.check_schema
             "{\"schema\":\"hli-servbench-v2\",\"workloads\":[]}"
         with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "servbench schema rejected: %s" msg);
        match Harness.Telemetry.check_schema "{\"a\":1}" with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "schema-less JSON rejected: %s" msg);
  ]

let query_counter_tests =
  [
    Alcotest.test_case "HLI variants bump equiv_acc; kinds are counted"
      `Quick (fun () ->
        Hli_core.Query.reset_query_counters ();
        let src =
          {|
double a[64];
int main()
{
  int i;
  for (i = 1; i < 64; i++)
  {
    a[i] = a[i] + a[i-1];
  }
  return 0;
}
|}
        in
        ignore (Harness.Pipeline.compile src);
        let counters = Hli_core.Query.query_counters () in
        Alcotest.(check int) "five kinds" 5 (List.length counters);
        Alcotest.(check bool) "equiv_acc issued" true
          (List.assoc "equiv_acc" counters > 0));
    Alcotest.test_case "reset zeroes every kind" `Quick (fun () ->
        Hli_core.Query.reset_query_counters ();
        List.iter
          (fun (name, v) -> Alcotest.(check int) name 0 v)
          (Hli_core.Query.query_counters ()));
    Alcotest.test_case "cache counters track builds, hits and misses" `Quick
      (fun () ->
        let src =
          {|
double a[8];
int main()
{
  a[0] = a[1] + a[2];
  return 0;
}
|}
        in
        let prog = Srclang.Typecheck.program_of_string src in
        let entries = Harness.Pipeline.build_hli_entries prog in
        let e = List.hd entries in
        Hli_core.Query.reset_cache_counters ();
        let idx = Hli_core.Query.build e in
        let get k = List.assoc k (Hli_core.Query.cache_counters ()) in
        Alcotest.(check int) "one build counted" 1 (get "index_builds");
        (match Hli_core.Tables.all_items e with
        | a :: b :: _ ->
            ignore (Hli_core.Query.get_equiv_acc idx a b);
            Alcotest.(check int) "first ask misses" 1 (get "equiv_memo_misses");
            Alcotest.(check int) "no hit yet" 0 (get "equiv_memo_hits");
            (* swapped order must hit: the memo key is unordered *)
            ignore (Hli_core.Query.get_equiv_acc idx b a);
            Alcotest.(check int) "swapped ask hits" 1 (get "equiv_memo_hits");
            Alcotest.(check int) "still one miss" 1 (get "equiv_memo_misses")
        | _ -> Alcotest.fail "expected at least two items");
        Hli_core.Query.invalidate idx;
        Alcotest.(check int) "invalidation counted" 1
          (get "memo_invalidations");
        Alcotest.(check int) "memo emptied" 0 (Hli_core.Query.memo_size idx);
        Hli_core.Query.reset_cache_counters ();
        List.iter
          (fun (name, v) -> Alcotest.(check int) name 0 v)
          (Hli_core.Query.cache_counters ()));
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("telemetry", telemetry_tests);
      ("json", json_tests);
      ("hli-query-counters", query_counter_tests);
    ]
