(* Cycle-exact simulator golden (golden_sim.txt).

   One line per configuration x workload x variant pins the program
   output digest and every simulated statistic: cycles, dynamic
   instructions, L1 hits and misses, LSQ stall cycles and
   misspeculations.  The rows cover all 14 workloads under the paper
   configuration, the two workloads that carry speculable edges at
   [--speculate 1000], and one workload with the LSQ rule off.

     test_simgolden.exe           the cheap subset (runtest)
     test_simgolden.exe --full    every row (dune build @simgolden)
     test_simgolden.exe --write   print a fresh golden on stdout *)

module P = Harness.Pipeline
module V = Driver.Variant
module R = Machine.Simulate

let golden_file = "golden_sim.txt"

let header =
  "# config program variant output_md5 cycles dyn_insns l1_hits l1_misses \
   lsq_stalls misspeculations"

(* (ablation, programs), in file order *)
let groups =
  [
    (V.baseline, List.map (fun w -> w.Workloads.Workload.name) Workloads.Registry.all);
    (V.with_speculate 1000 V.baseline, [ "034.mdljdp2"; "077.mdljsp2" ]);
    (Option.get (V.find_ablation "lsq-off"), [ "023.eqntott" ]);
  ]

let cheap = [ "023.eqntott"; "077.mdljsp2"; "141.apsi" ]

(* Compile [prog] under [ab], simulate all four variants at full fuel,
   and render one line per variant. *)
let lines ?pool (ab : V.ablation) prog =
  let w = Option.get (Workloads.Registry.find prog) in
  let config = { P.default_config with ablation = ab; hli_cache = None } in
  let c = P.compile ~config w.Workloads.Workload.source in
  let m = P.measure ?pool c in
  List.map
    (fun (v, (r : R.report)) ->
      Printf.sprintf "%s %s %s %s %d %d %d %d %d %d" ab.V.ab_name prog (V.name v)
        (Digest.to_hex (Digest.string r.R.output))
        r.R.cycles r.R.dyn_insns r.R.l1_hits r.R.l1_misses r.R.lsq_stalls
        r.R.misspeculations)
    m.P.reports

let cases ~full =
  let golden = Golden.read golden_file in
  List.concat_map
    (fun (ab, progs) ->
      List.filter_map
        (fun prog ->
          if full || List.mem prog cheap then
            Some
              (Alcotest.test_case
                 (ab.V.ab_name ^ " " ^ prog)
                 `Slow
                 (fun () ->
                   Alcotest.(check (list string))
                     "cycle-exact"
                     (Golden.rows golden ~config:ab.V.ab_name ~prog)
                     (lines ab prog)))
          else None)
        progs)
    groups

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write" ] ->
      let pool = Pool.create ~jobs:2 in
      print_endline header;
      List.iter
        (fun (ab, progs) ->
          List.iter (fun p -> List.iter print_endline (lines ~pool ab p)) progs)
        groups;
      Pool.shutdown pool
  | [ exe; "--full" ] ->
      Alcotest.run ~argv:[| exe |] "simgolden" [ ("rows", cases ~full:true) ]
  | _ -> Alcotest.run "simgolden" [ ("rows", cases ~full:false) ]
