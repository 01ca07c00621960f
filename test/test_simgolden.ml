(* Cycle-exact simulator golden (golden_sim.txt).

   One line per configuration x workload x variant pins the program
   output digest and every simulated statistic: cycles, dynamic
   instructions, L1 hits and misses and LSQ stall cycles.  The rows cover all 14 workloads under the paper
   configuration, one workload with the LSQ rule off, and all 14
   workloads again with the cse,licm,unroll=4 optional passes.

     test_simgolden.exe           the cheap subset (runtest)
     test_simgolden.exe --full    every row (dune build @simgolden)
     test_simgolden.exe --write   print a fresh golden on stdout *)

module P = Harness.Pipeline
module V = Driver.Variant
module R = Machine.Simulate

let golden_file = "golden_sim.txt"

let header =
  "# config program variant output_md5 cycles dyn_insns l1_hits l1_misses \
   lsq_stalls"

let all_programs = List.map (fun w -> w.Workloads.Workload.name) Workloads.Registry.all

let with_ablation ab = { P.default_config with ablation = ab; hli_cache = None }

(* (config name, config, programs), in file order *)
let groups =
  [
    ("baseline", with_ablation V.baseline, all_programs);
    ("lsq-off", with_ablation (Option.get (V.find_ablation "lsq-off")), [ "023.eqntott" ]);
    ( "cse,licm,unroll=4",
      { (P.config_of_passes "cse,licm,unroll=4") with hli_cache = None },
      all_programs );
  ]

let cheap = [ "023.eqntott"; "077.mdljsp2"; "141.apsi" ]

(* Compile [prog] under [config], simulate all four variants at full
   fuel, and render one line per variant. *)
let lines name config prog =
  let w = Option.get (Workloads.Registry.find prog) in
  let c = P.compile ~config w.Workloads.Workload.source in
  let m = P.measure c in
  List.map
    (fun (v, (r : R.report)) ->
      Printf.sprintf "%s %s %s %s %d %d %d %d %d" name prog (V.name v)
        (Digest.to_hex (Digest.string r.R.output))
        r.R.cycles r.R.dyn_insns r.R.l1_hits r.R.l1_misses r.R.lsq_stalls)
    m.P.reports

let cases ~full =
  let golden = Golden.read golden_file in
  List.concat_map
    (fun (name, config, progs) ->
      List.filter_map
        (fun prog ->
          if full || List.mem prog cheap then
            Some
              (Alcotest.test_case (name ^ " " ^ prog) `Slow (fun () ->
                   Alcotest.(check (list string))
                     "cycle-exact"
                     (Golden.rows golden ~config:name ~prog)
                     (lines name config prog)))
          else None)
        progs)
    groups

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write" ] ->
      let pool = Pool.create ~jobs:2 in
      print_endline header;
      List.concat_map (fun (name, config, progs) -> List.map (fun p -> (name, config, p)) progs) groups
      |> Pool.map pool (fun (name, config, p) -> lines name config p)
      |> List.iter (List.iter print_endline);
      Pool.shutdown pool
  | [ exe; "--full" ] ->
      Alcotest.run ~argv:[| exe |] "simgolden" [ ("rows", cases ~full:true) ]
  | _ -> Alcotest.run "simgolden" [ ("rows", cases ~full:false) ]
