(* Tests for the harness domain pool: ordering determinism, the
   sequential ~jobs:1 reference path, exception propagation, nested
   (re-entrant) batches, the core budget a live pool holds, and
   end-to-end parallel-vs-sequential equality of a table row. *)

let with_pool jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let ints = Alcotest.(list int)

let pool_tests =
  [
    Alcotest.test_case "map preserves input order" `Quick (fun () ->
        with_pool 4 (fun p ->
            let xs = List.init 100 Fun.id in
            let expected = List.map (fun i -> i * i) xs in
            Alcotest.check ints "ordered" expected
              (Pool.map p (fun i -> i * i) xs)));
    Alcotest.test_case "map is deterministic across runs" `Quick (fun () ->
        with_pool 4 (fun p ->
            let xs = List.init 64 Fun.id in
            let f i = (i * 7919) mod 101 in
            let r1 = Pool.map p f xs in
            let r2 = Pool.map p f xs in
            Alcotest.check ints "same" r1 r2;
            Alcotest.check ints "matches List.map" (List.map f xs) r1));
    Alcotest.test_case "jobs=1 runs strictly sequentially" `Quick (fun () ->
        with_pool 1 (fun p ->
            Alcotest.(check int) "no extra domains" 1 (Pool.size p);
            let order = ref [] in
            let r =
              Pool.map p
                (fun i ->
                  order := i :: !order;
                  i + 1)
                [ 3; 1; 4; 1; 5 ]
            in
            Alcotest.check ints "results" [ 4; 2; 5; 2; 6 ] r;
            (* side effects happened left-to-right *)
            Alcotest.check ints "evaluation order" [ 3; 1; 4; 1; 5 ]
              (List.rev !order)));
    Alcotest.test_case "jobs=1 equals parallel results" `Quick (fun () ->
        let xs = List.init 50 (fun i -> i - 25) in
        let f i = (i * i) - (3 * i) in
        let seq = with_pool 1 (fun p -> Pool.map p f xs) in
        let par = with_pool 6 (fun p -> Pool.map p f xs) in
        Alcotest.check ints "equal" seq par);
    Alcotest.test_case "exception propagates to the submitter" `Quick
      (fun () ->
        with_pool 4 (fun p ->
            Alcotest.check_raises "boom" (Failure "boom") (fun () ->
                ignore
                  (Pool.map p
                     (fun i -> if i = 37 then failwith "boom" else i)
                     (List.init 64 Fun.id)))));
    Alcotest.test_case "first exception (submission order) wins" `Quick
      (fun () ->
        with_pool 4 (fun p ->
            Alcotest.check_raises "first" (Failure "first") (fun () ->
                ignore
                  (Pool.map p
                     (fun i ->
                       if i = 5 then failwith "first"
                       else if i = 40 then failwith "second"
                       else i)
                     (List.init 64 Fun.id)))));
    Alcotest.test_case "siblings still run when one raises" `Quick (fun () ->
        with_pool 4 (fun p ->
            let ran = Atomic.make 0 in
            (try
               ignore
                 (Pool.map p
                    (fun i ->
                      Atomic.incr ran;
                      if i = 0 then failwith "boom")
                    (List.init 32 Fun.id))
             with Failure _ -> ());
            Alcotest.(check int) "all ran" 32 (Atomic.get ran)));
    Alcotest.test_case "nested maps do not deadlock" `Quick (fun () ->
        with_pool 2 (fun p ->
            let outer =
              Pool.map p
                (fun i ->
                  let inner =
                    Pool.map p (fun j -> (i * 10) + j)
                      (List.init 4 Fun.id)
                  in
                  List.fold_left ( + ) 0 inner)
                (List.init 4 Fun.id)
            in
            Alcotest.check ints "sums" [ 6; 46; 86; 126 ] outer));
    Alcotest.test_case "map_opt None is List.map" `Quick (fun () ->
        Alcotest.check ints "plain" [ 2; 4; 6 ]
          (Pool.map_opt None (fun i -> 2 * i) [ 1; 2; 3 ]));
    Alcotest.test_case "HLI_JOBS drives default_jobs" `Quick (fun () ->
        Unix.putenv "HLI_JOBS" "3";
        Alcotest.(check int) "env wins" 3 (Pool.default_jobs ());
        Unix.putenv "HLI_JOBS" "not-a-number";
        Alcotest.(check bool) "garbage falls back" true
          (Pool.default_jobs () >= 1);
        Unix.putenv "HLI_JOBS" "");
    Alcotest.test_case "malformed HLI_JOBS warns with E1012" `Quick (fun () ->
        Fun.protect
          ~finally:(fun () -> Unix.putenv "HLI_JOBS" "")
          (fun () ->
            Unix.putenv "HLI_JOBS" "not-a-number";
            let jobs, warning = Pool.default_jobs_checked () in
            Alcotest.(check bool) "usable fallback" true (jobs >= 1);
            (match warning with
            | Some d ->
                Alcotest.(check string) "code" "E1012" d.Diagnostics.code;
                Alcotest.(check bool)
                  "warning severity" true
                  (d.Diagnostics.severity = Diagnostics.Warning)
            | None -> Alcotest.fail "expected an E1012 warning");
            Unix.putenv "HLI_JOBS" "0";
            (match Pool.default_jobs_checked () with
            | _, Some d ->
                Alcotest.(check string) "zero warns" "E1012" d.Diagnostics.code
            | _, None -> Alcotest.fail "HLI_JOBS=0 should warn");
            (* well-formed and empty (unset-by-convention) stay silent *)
            Unix.putenv "HLI_JOBS" "4";
            Alcotest.(check bool)
              "valid is silent" true
              (Pool.default_jobs_checked () = (4, None));
            Unix.putenv "HLI_JOBS" "";
            Alcotest.(check bool)
              "empty is silent" true
              (snd (Pool.default_jobs_checked ()) = None)));
    Alcotest.test_case "a pool holding every core leaves none spare" `Quick (fun () ->
        let spare () =
          Pool.take_core ()
          && begin
               Pool.give_core ();
               true
             end
        in
        let cores = Domain.recommended_domain_count () in
        Alcotest.(check bool) "a spare core before" (cores > 1) (spare ());
        with_pool cores (fun _ -> Alcotest.(check bool) "none while it lives" false (spare ()));
        Alcotest.(check bool) "the spare core is back" (cores > 1) (spare ()));
    Alcotest.test_case "submit runs fire-and-forget jobs" `Quick (fun () ->
        (* jobs=1: inline, synchronous *)
        with_pool 1 (fun p ->
            let hit = ref false in
            Pool.submit p (fun () -> hit := true);
            Alcotest.(check bool) "inline" true !hit);
        (* jobs>1: all jobs run, and a raising job kills neither the
           worker nor its siblings *)
        with_pool 4 (fun p ->
            let ran = Atomic.make 0 in
            let done_ = Atomic.make 0 in
            for i = 0 to 31 do
              Pool.submit p (fun () ->
                  Atomic.incr ran;
                  Atomic.incr done_;
                  if i mod 7 = 0 then failwith "dropped")
            done;
            let deadline = Unix.gettimeofday () +. 5.0 in
            while Atomic.get done_ < 32 && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            Alcotest.(check int) "all ran" 32 (Atomic.get ran)));
  ]

(* The acceptance property at workload granularity: a row computed
   through a pool renders byte-identically to the sequential one. *)
let integration_tests =
  [
    Alcotest.test_case "parallel row == sequential row" `Slow (fun () ->
        let w = Option.get (Workloads.Registry.find "wc") in
        let seq = Harness.Tables.run_workload w in
        let par =
          with_pool 4 (fun p -> Harness.Tables.run_workload ~pool:p w)
        in
        Alcotest.(check string)
          "table1" (Harness.Tables.table1_row seq)
          (Harness.Tables.table1_row par);
        Alcotest.(check string)
          "table2" (Harness.Tables.table2_row seq)
          (Harness.Tables.table2_row par));
    Alcotest.test_case "out-of-fuel yields an annotated partial row" `Quick
      (fun () ->
        let w = Option.get (Workloads.Registry.find "wc") in
        let r = Harness.Tables.run_workload ~fuel:100 w in
        (match r.Harness.Tables.failure with
        | Some "out of fuel" -> ()
        | Some other -> Alcotest.failf "unexpected annotation: %s" other
        | None -> Alcotest.fail "expected a failure annotation");
        (* compile-side columns survive; the printed row is annotated *)
        Alcotest.(check bool) "hli bytes" true (r.Harness.Tables.hli_bytes > 0);
        let line = Harness.Tables.table2_row r in
        Alcotest.(check bool) "annotated" true
          (String.length line > 0
          && String.length line <> String.length ""
          &&
          let has_sub sub =
            let n = String.length line and m = String.length sub in
            let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
            go 0
          in
          has_sub "out of fuel"));
  ]

let () =
  Alcotest.run "pool"
    [ ("pool", pool_tests); ("integration", integration_tests) ]
