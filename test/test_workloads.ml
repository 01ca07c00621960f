(* Per-workload integration tests: every benchmark compiles, its HLI
   maps completely onto the RTL, serializes round-trip, and all four
   scheduled variants compute identical output. *)

let workload_case (w : Workloads.Workload.t) =
  Alcotest.test_case w.Workloads.Workload.name `Slow (fun () ->
      let c = Harness.Pipeline.compile w.Workloads.Workload.source in
      (* mapping must be total: the ITEMGEN/lowering contract *)
      Alcotest.(check int) "unmapped refs" 0 c.Harness.Pipeline.map_unmapped;
      (* the HLI file survives the container round-trip *)
      let bytes = Hli_core.Serialize.to_bytes c.Harness.Pipeline.hli in
      Alcotest.(check bool) "roundtrip" true
        (Hli_core.Serialize.of_bytes bytes = c.Harness.Pipeline.hli);
      Alcotest.(check int) "container size accounted" (String.length bytes)
        (Hli_core.Serialize.container_bytes c.Harness.Pipeline.hli);
      (* Table 1's size metric is size_bytes, not the container length *)
      Alcotest.(check int) "size accounted"
        (Hli_core.Serialize.size_bytes c.Harness.Pipeline.hli)
        c.Harness.Pipeline.hli_bytes;
      (* query accounting invariants (Figure 5) *)
      let s = c.Harness.Pipeline.stats in
      Alcotest.(check bool) "queries issued" true (s.Backend.Ddg.total > 0);
      Alcotest.(check bool) "combined <= gcc" true
        (s.Backend.Ddg.combined_yes <= s.Backend.Ddg.gcc_yes);
      Alcotest.(check bool) "combined <= hli" true
        (s.Backend.Ddg.combined_yes <= s.Backend.Ddg.hli_yes);
      (* all four scheduled variants agree on the program's output *)
      let out rtl = (Machine.Exec.run rtl).Machine.Exec.output in
      let o1 = out (Harness.Pipeline.rtl_gcc_r4600 c) in
      Alcotest.(check bool) "produces output" true (String.length o1 > 0);
      Alcotest.(check string) "hli r4600" o1 (out (Harness.Pipeline.rtl_hli_r4600 c));
      Alcotest.(check string) "gcc r10000" o1 (out (Harness.Pipeline.rtl_gcc_r10000 c));
      Alcotest.(check string) "hli r10000" o1 (out (Harness.Pipeline.rtl_hli_r10000 c)))

let registry_tests =
  [
    Alcotest.test_case "fourteen workloads, names unique" `Quick (fun () ->
        Alcotest.(check int) "count" 14 (List.length Workloads.Registry.all);
        let names =
          List.map (fun w -> w.Workloads.Workload.name) Workloads.Registry.all
        in
        Alcotest.(check int) "unique" 14 (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "suite split matches the paper" `Quick (fun () ->
        let int_ws, fp_ws =
          List.partition
            (fun w -> not (Workloads.Workload.is_fp w.Workloads.Workload.suite))
            Workloads.Registry.all
        in
        Alcotest.(check int) "4 integer programs" 4 (List.length int_ws);
        Alcotest.(check int) "10 floating-point programs" 10 (List.length fp_ws));
    Alcotest.test_case "sources are non-trivial" `Quick (fun () ->
        List.iter
          (fun w ->
            Alcotest.(check bool)
              (w.Workloads.Workload.name ^ " has enough lines")
              true
              (Workloads.Workload.line_count w > 60))
          Workloads.Registry.all);
    Alcotest.test_case "template expansion leaves no holes" `Quick (fun () ->
        List.iter
          (fun w ->
            Alcotest.(check bool)
              (w.Workloads.Workload.name ^ " expanded")
              false
              (String.contains w.Workloads.Workload.source '@'))
          Workloads.Registry.all);
  ]

let () =
  Alcotest.run "workloads"
    [
      ("registry", registry_tests);
      ("end-to-end", List.map workload_case Workloads.Registry.all);
    ]
