(* Unit tests for the end-to-end benchmark's helpers: order statistics,
   the regression verdicts, JSON, and reference.txt (cross-checked
   against test/golden_tables.txt).  Fast; part of `dune runtest`. *)

open E2e_lib

let floats = Alcotest.(array (float 1e-12))
let close = Alcotest.float 1e-9
let range a b = Array.init (b - a + 1) (fun i -> float_of_int (a + i))

let test_percentiles () =
  let xs = range 1 100 in
  Alcotest.check close "p50" 50. (Stats.percentile 0.5 xs);
  Alcotest.check close "p90" 90. (Stats.percentile 0.9 xs);
  Alcotest.check close "p99" 99. (Stats.percentile 0.99 xs);
  Alcotest.check close "p100" 100. (Stats.percentile 1.0 xs);
  Alcotest.check close "unsorted input" 3. (Stats.median [| 5.; 1.; 3.; 4.; 2. |]);
  Alcotest.check close "even count takes the lower middle" 2.
    (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check int) "100 samples leave 10 beyond p90" 10 (Stats.samples_beyond 0.9 100);
  Alcotest.(check int) "99 samples leave 9 beyond p90" 9 (Stats.samples_beyond 0.9 99);
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Stats.samples_beyond 0.99 1000);
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.median [||]))

(* expected values from Python's statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let q xs =
    let a, b, c = Stats.quartiles xs in
    [| a; b; c |]
  in
  Alcotest.check floats "1..10" [| 2.75; 5.5; 8.25 |] (q (range 1 10));
  Alcotest.check floats "1..4" [| 1.25; 2.5; 3.75 |] (q (range 1 4));
  Alcotest.check floats "three" [| 1.; 2.; 3. |] (q [| 3.; 1.; 2. |]);
  Alcotest.check floats "two extrapolate" [| 0.; 3.; 6. |] (q [| 5.; 1. |]);
  Alcotest.check floats "unsorted" [| 1.875; 4.; 8.375 |]
    (q [| 1.5; 2.25; 9.0; 4.0; 7.75 |]);
  Alcotest.check close "iqr" 5.5 (Stats.iqr (range 1 10));
  Alcotest.check close "constant sample has no spread" 0. (Stats.rel_iqr [| 7.; 7.; 7. |])

let verdict = Alcotest.testable (Fmt.of_to_string Stats.verdict_name) ( = )

let test_verdicts () =
  let base = [| 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100. |] in
  let scale k = Array.map (fun x -> x *. k) base in
  let v ?(direction = Stats.Lower) ?(bound = 0.1) change =
    Stats.verdict ~direction ~bound ~base ~change
  in
  Alcotest.check verdict "identical runs" Stats.Same (v base);
  Alcotest.check verdict "20% faster, every pair" Stats.Better (v (scale 0.8));
  Alcotest.check verdict "20% slower" Stats.Worse (v (scale 1.2));
  Alcotest.check verdict "5% slower is within a 10% bound" Stats.Same (v (scale 1.05));
  Alcotest.check verdict "higher is better: 20% lower is worse" Stats.Worse
    (v ~direction:Stats.Higher (scale 0.8));
  Alcotest.check verdict "an exact metric may not move" Stats.Worse
    (v ~bound:0. (Array.map (fun x -> x +. 0.001) base));
  (* a change whose own spread exceeds the bound cannot be called same *)
  let noisy = [| 70.; 130.; 80.; 120.; 100.; 75.; 125.; 90.; 110.; 100. |] in
  Alcotest.check verdict "spread wider than the bound" Stats.Unresolved (v noisy);
  (* 8 of 10 pair wins is not enough for a gain *)
  let mostly = Array.mapi (fun i x -> if i < 2 then x *. 1.01 else x *. 0.8) base in
  Alcotest.check verdict "8/10 wins" Stats.Same (v mostly)

let test_json () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\n\t\001");
        ("n", Json.Num 0.1);
        ("i", Json.Num 42.);
        ("neg", Json.Num (-1.5e-7));
        ("l", Json.Arr [ Json.Bool true; Json.Null; Json.Obj [] ]);
      ]
  in
  let s = Json.to_string doc in
  Alcotest.(check bool) "emitted JSON validates" true
    (Harness.Telemetry.validate_json s = Ok ());
  Alcotest.(check bool) "round trip" true (Json.parse s = doc);
  Alcotest.(check string) "shortest float" "0.1" (Json.num_to_string 0.1);
  Alcotest.(check string) "integers print without a point" "42" (Json.num_to_string 42.);
  Alcotest.check close "path" 2.
    (Json.to_num (Json.path [ "a"; "b" ] (Json.parse {| {"a": {"b": 2}} |})));
  Alcotest.(check bool) "trailing garbage is an error" true
    (match Json.parse "{} x" with _ -> false | exception Json.Error _ -> true)

let read path = In_channel.with_open_bin path In_channel.input_all

(* reference.txt pins the simulator cycle-exactly; its 2-decimal
   speedups must agree with the golden tables, and its sums with the
   Table 2 numbers the benchmark reports *)
let test_reference () =
  let pins = Reference.parse (read "reference.txt") in
  let cycles prog variant = float_of_int (List.assoc (prog, variant) pins).Reference.cycles in
  let speedup prog m = cycles prog ("gcc/" ^ m) /. cycles prog ("hli/" ^ m) in
  let golden =
    String.split_on_char '\n' (read "../../test/golden_tables.txt")
    |> List.filter (fun l -> String.starts_with ~prefix:"129.compress" l)
    |> List.rev |> List.hd
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
    |> List.rev
  in
  (match golden with
  | r10000 :: r4600 :: _ ->
      Alcotest.(check string) "compress R4600" r4600
        (Printf.sprintf "%.2f" (speedup "129.compress" "r4600"));
      Alcotest.(check string) "compress R10000" r10000
        (Printf.sprintf "%.2f" (speedup "129.compress" "r10000"))
  | _ -> Alcotest.fail "no 129.compress row in the golden tables");
  let progs = List.sort_uniq compare (List.map (fun ((p, _), _) -> p) pins) in
  Alcotest.(check int) "four programs x four variants" 16 (List.length pins);
  let sum f = List.fold_left (fun a p -> a +. f p) 0. progs in
  let geo m = exp (sum (fun p -> log (speedup p m)) /. float_of_int (List.length progs)) in
  Alcotest.(check string) "sim_mcycles_r4600" "45.22"
    (Printf.sprintf "%.2f" (sum (fun p -> cycles p "hli/r4600") /. 1e6));
  Alcotest.(check string) "sim_mcycles_r10000" "17.16"
    (Printf.sprintf "%.2f" (sum (fun p -> cycles p "hli/r10000") /. 1e6));
  Alcotest.(check string) "sim_speedup_r4600" "1.034" (Printf.sprintf "%.3f" (geo "r4600"));
  Alcotest.(check string) "sim_speedup_r10000" "1.055" (Printf.sprintf "%.3f" (geo "r10000"));
  List.iter
    (fun v ->
      Alcotest.(check int) ("dyn_insns per pass, " ^ v) 24_506_515
        (List.fold_left
           (fun a ((_, v'), (x : Reference.pin)) -> if v = v' then a + x.dyn_insns else a)
           0 pins))
    [ "gcc/r4600"; "hli/r4600"; "gcc/r10000"; "hli/r10000" ]

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick test_quartiles;
          Alcotest.test_case "bound verdicts" `Quick test_verdicts;
        ] );
      ("json", [ Alcotest.test_case "emit, validate, parse" `Quick test_json ]);
      ("reference", [ Alcotest.test_case "pins agree with the goldens" `Quick test_reference ]);
    ]
