(* Schedule golden (golden_sched.txt).

   One line per configuration x workload x variant pins the md5 of the
   scheduled RTL (every function through [Rtl.pp_fn], which prints the
   speculative-load marks) and the six DDG query counters.  The rows
   cover all 14 workloads under the paper configuration, with the
   cse,licm,unroll=4 optional passes and under the hli-only ablation,
   plus the two workloads that carry speculable edges at
   [--speculate 1000].  The cse,licm,unroll=4 and speculate=1000 groups
   run a second time with their HLI served over the wire (an hlid on
   its own domain, pipeline 8; speculation sends Q_prob queries), and
   a third time with the equiv and call queries answered off the
   hlid's shm segments; each of those rows must equal the local line, and the shm
   leg must have mapped a segment.  Every compile also passes the
   static order check that a simulated group runs
   ([Simulate.check_order]: each schedule keeps its prefix's register
   dependences, branches and calls in order).
   Nothing is simulated, so every row runs under runtest.

     test_schedgolden.exe           check every row
     test_schedgolden.exe --write   print a fresh golden on stdout *)

module P = Harness.Pipeline
module V = Driver.Variant
module D = Backend.Ddg

let golden_file = "golden_sched.txt"

let header =
  "# config program variant rtl_md5 total gcc_yes hli_yes combined_yes \
   spec_edges_dropped spec_checks"

let all_programs = List.map (fun w -> w.Workloads.Workload.name) Workloads.Registry.all

(* (config name, config, programs), in file order *)
let groups =
  [
    ("baseline", { P.default_config with hli_cache = None }, all_programs);
    ( "cse,licm,unroll=4",
      { (P.config_of_passes "cse,licm,unroll=4") with hli_cache = None },
      all_programs );
    ( "hli-only",
      {
        P.default_config with
        ablation = Option.get (V.find_ablation "hli-only");
        hli_cache = None;
      },
      all_programs );
    ( "speculate=1000",
      {
        P.default_config with
        ablation = V.with_speculate 1000 V.baseline;
        hli_cache = None;
      },
      [ "034.mdljdp2"; "077.mdljsp2" ] );
  ]

(* the groups also compiled against an hlid *)
let wire_groups = [ "cse,licm,unroll=4"; "speculate=1000" ]

let rtl_md5 (p : Backend.Rtl.program) =
  List.map (Fmt.str "%a@." Backend.Rtl.pp_fn) p.Backend.Rtl.fns
  |> String.concat "" |> Digest.string |> Digest.to_hex

(* Compile [prog] under [config], check every schedule's order against
   its prefix, and render one line per variant. *)
let lines name config prog =
  let w = Option.get (Workloads.Registry.find prog) in
  let c = P.compile ~config w.Workloads.Workload.source in
  List.map
    (fun (v, (s : Driver.Pass.scheduled)) ->
      (match Machine.Simulate.check_order ~prefix:s.Driver.Pass.s_prefix s.Driver.Pass.s_rtl with
      | () -> ()
      | exception Machine.Simulate.Violation x ->
          failwith (V.name v ^ " " ^ Machine.Simulate.describe x));
      let st = s.Driver.Pass.s_stats in
      Printf.sprintf "%s %s %s %s %d %d %d %d %d %d" name prog (V.name v)
        (rtl_md5 s.Driver.Pass.s_rtl)
        st.D.total st.D.gcc_yes st.D.hli_yes st.D.combined_yes
        st.D.spec_edges_dropped st.D.spec_checks)
    c.P.variants

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

(* An hlid on its own domain for the wire rows, publishing its shm
   segments into a temporary directory; both are removed after [f]. *)
let with_server f =
  let tmp name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hli-schedgolden-%d.%s" (Unix.getpid ()) name)
  in
  let socket = tmp "sock" and shm_dir = tmp "shm" in
  Unix.mkdir shm_dir 0o755;
  let srv =
    Hli_server.Server.create
      {
        (Hli_server.Server.default_config ~socket_path:socket) with
        jobs = 1;
        idle_timeout = 0.005;
        shm_dir = Some shm_dir;
      }
  in
  let d = Domain.spawn (fun () -> Hli_server.Server.run srv) in
  Fun.protect
    ~finally:(fun () ->
      Hli_server.Server.initiate_shutdown srv;
      Domain.join d;
      (try Sys.remove socket with Sys_error _ -> ());
      try rm_rf shm_dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f socket)

let cases ~socket =
  let golden = Golden.read golden_file in
  let case label name config prog =
    Alcotest.test_case (label ^ " " ^ prog) `Quick (fun () ->
        Alcotest.(check (list string))
          "schedule"
          (Golden.rows golden ~config:name ~prog)
          (lines name config prog))
  in
  List.concat_map
    (fun (name, config, progs) ->
      List.map (case name name config) progs
      @
      if not (List.mem name wire_groups) then []
      else
        let remote = { config with P.remote = Some socket; pipeline = 8 } in
        List.map (case ("remote " ^ name) name remote) progs
        @ List.map (case ("shm " ^ name) name { remote with shm = true }) progs)
    groups

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write" ] ->
      print_endline header;
      List.iter
        (fun (name, config, progs) ->
          List.iter (fun p -> List.iter print_endline (lines name config p)) progs)
        groups
  | _ ->
      with_server (fun socket ->
          Alcotest.run ~and_exit:false "schedgolden" [ ("rows", cases ~socket) ]);
      if (Hli_server.Client.shm_stats ()).maps = 0 then begin
        prerr_endline "schedgolden: the shm rows mapped no segment";
        exit 1
      end
