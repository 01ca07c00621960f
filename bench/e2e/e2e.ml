(* The end-to-end benchmark (README.md).

   Four workloads drive the public compile/measure entry points in a
   closed loop, one op at a time on one domain.  An untraced run gives
   the end-to-end metrics; a separate traced run gives the per-layer
   ones.

     e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--ops N]
         one run of one workload in this process; the last stdout line
         is {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
     e2e.exe run [--seed N] [--seconds S] [--runs N] [--sets K] [--out F]
         every workload, untraced then traced, each in a fresh child;
         prints every metric and writes the runs to F
     e2e.exe compare A.json[:SET] B.json[:SET] [--benchmark BENCHMARK.json]
         judge B against A per (workload, end-to-end metric)
     e2e.exe check [--benchmark BENCHMARK.json]
         one op per workload and trace mode, every correctness check,
         metric names checked against BENCHMARK.json
     e2e.exe reference
         print reference.txt from a fresh simulation *)

module J = E2e_lib.Json
module S = E2e_lib.Stats
module P = Harness.Pipeline
module T = Harness.Telemetry
module V = Driver.Variant
module R = Machine.Simulate
module Ref = E2e_lib.Reference

(* sockets and span dumps; relative, so everything stays under the
   directory the benchmark is run from *)
let scratch_dir = "_e2e"

(* the default run length of `run`; BENCHMARK.json's run_seconds *)
let default_seconds = 20.

(* set-up is repeated this many times in an untraced run and its
   median reported, so a one-off stall does not read as a regression *)
let setup_reps = 5

let now_ns () = Int64.to_float (T.now_ns ())

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  programs : string list;
  passes : string;  (** optional back-end passes, [--passes] syntax *)
  remote : bool;  (** HLI served by a child hlid process *)
  simulate : bool;  (** each op also simulates all four variants *)
}

(* eqntott and compress are the speedup-1.00 controls; mdljdp2 is the
   largest HLI win of the suite and the only one with
   speculation-eligible edges; apsi is a mid-size fp win *)
let table2_programs = [ "023.eqntott"; "129.compress"; "034.mdljdp2"; "141.apsi" ]

let every_program =
  List.map (fun (w : Workloads.Workload.t) -> w.name) Workloads.Registry.all

let workloads =
  [
    { name = "table2-sim"; programs = table2_programs; passes = "";
      remote = false; simulate = true };
    { name = "compile-read"; programs = every_program; passes = "";
      remote = false; simulate = false };
    { name = "compile-maintain"; programs = every_program;
      passes = "cse,licm,unroll=4"; remote = false; simulate = false };
    { name = "remote-maintain"; programs = every_program;
      passes = "cse,licm,unroll=4"; remote = true; simulate = false };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "e2e: unknown workload %s (one of: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2

let config_of w ~remote =
  {
    P.default_config with
    specs = Driver.Pass_manager.parse_specs w.passes;
    hli_cache = None;
    hli_cache_max = None;
    remote;
    pipeline = (if remote = None then 1 else 8);
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* (name, unit) in BENCHMARK.json order *)
let end_to_end_metrics =
  [
    ("setup_s", "s");
    ("prog_per_s", "ops/s");
    ("prog_ms_p50", "ms");
    ("prog_ms_p90", "ms");
    ("peak_rss_mb", "MB");
    ("ddg_edge_reduction_pct", "%");
  ]

(* telemetry span -> per-layer metric (median per op, microseconds) *)
let layer_spans =
  [
    "frontend.parse_typecheck"; "frontend.analysis"; "hligen.tblconst";
    "hli.serialize"; "backend.lower"; "backend.hli_import";
    "backend.ddg_schedule"; "backend.cse"; "backend.licm"; "backend.unroll";
  ]

let per_layer_metrics =
  List.map (fun s -> (s ^ "_us", "us")) layer_spans
  @ [
      ("backend.dep_queries", "count");
      ("core.query.equiv_acc", "count");
      ("core.query.call_acc", "count");
      ("core.query.memo_hit_ratio", "ratio");
      ("core.index_builds", "count");
      ("core.memo_invalidations", "count");
      ("harness.op_us_p50", "us");
      ("harness.unspanned_us", "us");
      ("harness.minor_words_per_op", "words");
      ("machine.r4600.ns_per_insn", "ns");
      ("machine.r10000.ns_per_insn", "ns");
      ("machine.r4600.minor_words_per_insn", "words");
      ("machine.r10000.minor_words_per_insn", "words");
      ("machine.major_words_per_insn", "words");
      ("machine.dyn_insns", "count");
      ("machine.r4600.l1_miss_ratio", "ratio");
      ("machine.r10000.l1_miss_ratio", "ratio");
      ("machine.r10000.lsq_stall_cycles", "cycles");
      ("machine.misspeculations", "count");
      ("sim_speedup_r4600", "x");
      ("sim_speedup_r10000", "x");
      ("sim_mcycles_r4600", "Mcycles");
      ("sim_mcycles_r10000", "Mcycles");
      ("server.sessions_per_op", "count");
      ("server.frames_per_op", "count");
      ("server.queries_per_op", "count");
      ("server.maintenance_ops_per_op", "count");
      ("server.service_us_p50", "us");
      ("server.service_us_p99", "us");
      ("server.delta_reuse_ratio", "ratio");
      ("server.rss_mb", "MB");
    ]

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Reference outputs and cycle-exact pins (reference.txt)              *)
(* ------------------------------------------------------------------ *)

let pin_of (r : R.report) =
  {
    Ref.output_md5 = Digest.to_hex (Digest.string r.R.output);
    cycles = r.R.cycles;
    dyn_insns = r.R.dyn_insns;
    l1_hits = r.R.l1_hits;
    l1_misses = r.R.l1_misses;
    lsq_stalls = r.R.lsq_stalls;
    misspeculations = r.R.misspeculations;
  }

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)
(* ------------------------------------------------------------------ *)

(* peak resident set (VmHWM) of a process, in MiB *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:"VmHWM:" l then
               Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float kb /. 1024.))
             else None)
      |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

(* ------------------------------------------------------------------ *)
(* The hlid child of remote-maintain                                   *)
(* ------------------------------------------------------------------ *)

(* `e2e.exe serve SOCKET`: one hlid instance in poller-inline mode
   (jobs = 1, so the two processes fit the two cores).  Drains on
   SIGTERM, and also when its stdin reaches EOF, so the server ends
   even when the benchmark process is killed outright. *)
let serve socket =
  let srv =
    Hli_server.Server.create
      { (Hli_server.Server.default_config ~socket_path:socket) with jobs = 1 }
  in
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Hli_server.Server.initiate_shutdown srv));
  print_string "READY\n";
  flush stdout;
  Unix.dup2 Unix.stderr Unix.stdout;
  ignore
    (Thread.create
       (fun () ->
         (try ignore (Unix.read Unix.stdin (Bytes.create 1) 0 1)
          with Unix.Unix_error _ -> ());
         Hli_server.Server.initiate_shutdown srv)
       ());
  Hli_server.Server.run srv

type server = {
  pid : int;
  socket : string;
  lifeline : Unix.file_descr;  (** the child's stdin; closing it stops it *)
  stats_cl : Hli_server.Client.t;  (** the set-up's first connect *)
}

let live_servers : server list ref = ref []

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let stop_server s =
  live_servers := List.filter (fun x -> x.pid <> s.pid) !live_servers;
  Hli_server.Client.close s.stats_cl;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try Unix.close s.lifeline with Unix.Unix_error _ -> ());
  ignore (waitpid s.pid)

let () = at_exit (fun () -> List.iter stop_server !live_servers)

let mkdir_scratch () =
  try Unix.mkdir scratch_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let start_server =
  let n = ref 0 in
  fun () ->
    mkdir_scratch ();
    incr n;
    let socket =
      Filename.concat scratch_dir
        (Printf.sprintf "hlid-%d-%d.sock" (Unix.getpid ()) !n)
    in
    let in_r, lifeline = Unix.pipe ~cloexec:true () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let exe = Sys.executable_name in
    let pid =
      Unix.create_process exe [| exe; "serve"; socket |] in_r out_w Unix.stderr
    in
    Unix.close in_r;
    Unix.close out_w;
    let ic = Unix.in_channel_of_descr out_r in
    let ready = In_channel.input_line ic in
    close_in ic;
    if ready <> Some "READY" then begin
      Unix.close lifeline;
      ignore (waitpid pid);
      failwith "the hlid child did not come up"
    end;
    let stats_cl = Hli_server.Client.connect socket in
    let s = { pid; socket; lifeline; stats_cl } in
    live_servers := s :: !live_servers;
    s

let server_stats s = J.parse (Hli_server.Client.server_stats s.stats_cl)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* What every op of a program must reproduce: the in-process compile
   made during set-up. *)
type expect = { stats : Backend.Ddg.stats; hli_bytes : int; rtl_md5 : string }

let rtl_md5 (c : P.compiled) =
  let b = Buffer.create 65536 in
  List.iter
    (fun (v, (s : Driver.Pass.scheduled)) ->
      Buffer.add_string b (V.name v);
      List.iter
        (fun f -> Buffer.add_string b (Fmt.str "%a" Backend.Rtl.pp_fn f))
        s.Driver.Pass.s_rtl.Backend.Rtl.fns)
    c.P.variants;
  Digest.to_hex (Digest.string (Buffer.contents b))

type cx = {
  w : workload;
  config : P.config;
  sources : (string * string) array;  (** program name, source *)
  expect : (string, expect) Hashtbl.t;
  refs : ((string * string) * Ref.pin) list;
  server : server option;
}

(* ------------------------------------------------------------------ *)
(* One op                                                              *)
(* ------------------------------------------------------------------ *)

(* Recorded spans of a traced run, kept in memory and written at exit:
   one per op, and one per simulated variant whose [op] is its parent. *)
type span = { s_name : string; s_start : float; s_end : float; s_op : int }

type machine_acc = {
  mutable sim_ns : float;
  mutable insns : int;
  mutable minor_words : float;
  mutable major_words : float;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable lsq_stalls : int;
  mutable misspec : int;
}

type tracer = {
  mutable spans : span list;
  r4600 : machine_acc;
  r10000 : machine_acc;
}

let machine_acc () =
  { sim_ns = 0.; insns = 0; minor_words = 0.; major_words = 0.; l1_hits = 0;
    l1_misses = 0; lsq_stalls = 0; misspec = 0 }

let acc_of tr = function V.R4600 -> tr.r4600 | V.R10000 -> tr.r10000

(* per-op data of the traced run *)
type op_trace = {
  op_wall : float;
  layer_ns : (string * float) list;
  op_minor_words : float;
}

(* one op's results, checked and then dropped *)
type sample = {
  prog : string;
  wall_ns : float;
  stats : Backend.Ddg.stats;
  reports : (V.t * R.report) list;
  trace : op_trace option;
}

let simulate_traced cx tr ~tm ~op_id (v, s) =
  let ctx =
    Driver.Pass.ctx ~spanf:(P.spanf ~tm ()) ~variant:v
      ~ablation:cx.config.P.ablation ()
  in
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let r = Driver.Pass_manager.simulate ctx s in
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  let a = acc_of tr v.V.machine in
  a.sim_ns <- a.sim_ns +. (t1 -. t0);
  a.insns <- a.insns + r.R.dyn_insns;
  a.minor_words <- a.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  a.major_words <- a.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
  a.l1_hits <- a.l1_hits + r.R.l1_hits;
  a.l1_misses <- a.l1_misses + r.R.l1_misses;
  a.lsq_stalls <- a.lsq_stalls + r.R.lsq_stalls;
  a.misspec <- a.misspec + r.R.misspeculations;
  tr.spans <-
    { s_name = "simulate " ^ V.name v; s_start = t0; s_end = t1; s_op = op_id }
    :: tr.spans;
  (v, r)

(* The timed part of an op: compile, plus the four simulations on
   table2-sim.  Everything a check needs is returned, and checked
   after the clock stops. *)
let run_op cx tracer ~op_id (prog, src) =
  match tracer with
  | None ->
      let t0 = now_ns () in
      let c = P.compile ~config:cx.config src in
      let reports = if cx.w.simulate then (P.measure c).P.reports else [] in
      let t1 = now_ns () in
      (c, { prog; wall_ns = t1 -. t0; stats = c.P.stats; reports; trace = None })
  | Some tr ->
      let tm = T.create () in
      let g0 = Gc.quick_stat () in
      let t0 = now_ns () in
      let c = P.compile ~config:cx.config ~tm src in
      let reports =
        if cx.w.simulate then
          List.map (simulate_traced cx tr ~tm ~op_id) c.P.variants
        else []
      in
      let t1 = now_ns () in
      let g1 = Gc.quick_stat () in
      tr.spans <-
        { s_name = "op " ^ prog; s_start = t0; s_end = t1; s_op = op_id }
        :: tr.spans;
      let layer_ns =
        List.map (fun n -> (n, Int64.to_float (T.span_ns tm n))) (T.span_names tm)
      in
      ( c,
        {
          prog;
          wall_ns = t1 -. t0;
          stats = c.P.stats;
          reports;
          trace =
            Some
              {
                op_wall = t1 -. t0;
                layer_ns;
                op_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
              };
        } )

(* [Some reason] when the op's result is wrong *)
let check cx (c : P.compiled) (s : sample) =
  let e = Hashtbl.find cx.expect s.prog in
  let sim_check () =
    match s.reports with
    | [] -> None
    | (_, r0) :: _ ->
        if List.length s.reports <> List.length V.matrix then
          Some "not every variant was simulated"
        else if
          List.exists (fun (_, r) -> r.R.output <> r0.R.output) s.reports
        then Some "variants disagree on program output"
        else
          List.find_map
            (fun (v, r) ->
              match List.assoc_opt (s.prog, V.name v) cx.refs with
              | None -> Some ("no reference.txt line for " ^ V.name v)
              | Some x when x <> pin_of r ->
                  Some
                    (Printf.sprintf "%s differs from reference.txt: got %s"
                       (V.name v)
                       (Ref.line ~prog:s.prog ~variant:(V.name v) (pin_of r)))
              | Some _ -> None)
            s.reports
  in
  if c.P.stats <> e.stats then Some "Table 2 stats differ from the set-up compile"
  else if c.P.hli_bytes <> e.hli_bytes then
    Some (Printf.sprintf "hli_bytes %d, set-up compile %d" c.P.hli_bytes e.hli_bytes)
  else if rtl_md5 c <> e.rtl_md5 then
    Some "scheduled RTL differs from the set-up compile"
  else if cx.w.simulate && s.reports = [] then Some "no simulation reports"
  else
    match s.trace with
    | Some t
      when List.fold_left (fun acc (_, ns) -> acc +. ns) 0. t.layer_ns > s.wall_ns ->
        Some "telemetry spans sum to more than the op's wall time"
    | _ -> sim_check ()

let describe_exn = function
  | Diagnostics.Diagnostic d -> Diagnostics.to_string d
  | e -> Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Set-up, continued                                                   *)
(* ------------------------------------------------------------------ *)

(* Process state up to the first timed op: the reference pins, the
   programs' sources, the in-process compile every op is checked
   against, the hlid child and its first connect (remote), and one
   untimed warm-up pass (compile workloads).  Returns the context and
   the number of set-up steps whose result was wrong. *)
let setup w =
  let refs = Ref.parse Reference_data.text in
  let sources =
    Array.of_list
      (List.map
         (fun p ->
           match Workloads.Registry.find p with
           | Some wl -> (p, wl.Workloads.Workload.source)
           | None -> failwith ("no workload program " ^ p))
         w.programs)
  in
  let local = config_of w ~remote:None in
  let expect = Hashtbl.create 16 in
  Array.iter
    (fun (p, src) ->
      let c = P.compile ~config:local src in
      Hashtbl.replace expect p
        { stats = c.P.stats; hli_bytes = c.P.hli_bytes; rtl_md5 = rtl_md5 c })
    sources;
  let server = if w.remote then Some (start_server ()) else None in
  let config =
    config_of w ~remote:(Option.map (fun s -> s.socket) server)
  in
  let cx = { w; config; sources; expect; refs; server } in
  let bad = ref 0 in
  if not w.simulate then
    Array.iter
      (fun ps ->
        match run_op cx None ~op_id:0 ps with
        | c, s -> if check cx c s <> None then incr bad
        | exception _ -> incr bad)
      sources;
  (cx, !bad)

(* ------------------------------------------------------------------ *)
(* A run                                                               *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Closed loop over whole passes (every program once, in a seeded
   order) until the next pass would overrun [seconds]; at least one
   pass, at most [max_ops] ops.  Whole passes keep the program mix, and
   so every per-op statistic, independent of speed. *)
(* What a run keeps.  Memory must not grow with the op count, or a
   faster compiler would read as a peak-RSS regression: op times go to
   a flat float array, and only each program's last op is kept whole. *)
type measured = {
  walls : float array;  (** every op's wall time, ns *)
  pass_rates : float array;  (** programs per second of op time, per pass *)
  last : sample list;  (** each program's last op, in program order *)
  traces : op_trace array;  (** every op, traced runs only *)
  dep_queries : int;  (** Table 2 tests, summed over every op *)
  attempted : int;
  failed : int;
}

let measure_ops cx tracer ~seed ~seconds ~max_ops ~after_op =
  let rng = Random.State.make [| seed |] in
  let order = Array.copy cx.sources in
  let walls = ref (Array.make 1024 0.) and n = ref 0 in
  let pass_rates = ref [] and traces = ref [] and dep_queries = ref 0 in
  let last = Hashtbl.create 16 in
  let attempted = ref 0 and failed = ref 0 in
  let t_start = now_ns () in
  let rec pass k =
    shuffle rng order;
    let n0 = !n in
    Array.iter
      (fun ps ->
        if !attempted < max_ops then begin
          incr attempted;
          (* a simulated op frees the previous op's 32 MiB images first,
             so its peak RSS does not depend on the program order *)
          if cx.w.simulate then Gc.full_major ();
          (match run_op cx tracer ~op_id:!attempted ps with
          | c, s ->
              (match check cx c s with
              | None -> ()
              | Some why ->
                  incr failed;
                  Printf.eprintf "e2e: %s op %d (%s) failed its check: %s\n%!"
                    cx.w.name !attempted (fst ps) why);
              if !n = Array.length !walls then
                walls := Array.append !walls (Array.make !n 0.);
              !walls.(!n) <- s.wall_ns;
              incr n;
              dep_queries := !dep_queries + s.stats.Backend.Ddg.total;
              Option.iter (fun t -> traces := t :: !traces) s.trace;
              Hashtbl.replace last s.prog { s with trace = None }
          | exception e ->
              incr failed;
              Printf.eprintf "e2e: %s op %d (%s) raised: %s\n%!" cx.w.name
                !attempted (fst ps) (describe_exn e));
          after_op ((now_ns () -. t_start) /. 1e9)
        end)
      order;
    let op_s = Array.fold_left ( +. ) 0. (Array.sub !walls n0 (!n - n0)) /. 1e9 in
    if !n > n0 then pass_rates := (float_of_int (!n - n0) /. op_s) :: !pass_rates;
    let el = (now_ns () -. t_start) /. 1e9 in
    if !attempted < max_ops && el +. (el /. float_of_int k) <= seconds then
      pass (k + 1)
  in
  pass 1;
  {
    walls = Array.sub !walls 0 !n;
    pass_rates = Array.of_list !pass_rates;
    last =
      List.filter_map (fun (p, _) -> Hashtbl.find_opt last p) (Array.to_list cx.sources);
    traces = Array.of_list (List.rev !traces);
    dep_queries = !dep_queries;
    attempted = !attempted;
    failed = !failed;
  }

let end_to_end_values ~setup_s m =
  let ms = Array.map (fun ns -> ns /. 1e6) m.walls in
  [
    ("setup_s", setup_s);
    ("prog_per_s", S.median m.pass_rates);
    ("prog_ms_p50", S.percentile 0.5 ms);
    ("prog_ms_p90", S.percentile 0.9 ms);
    ("peak_rss_mb", vm_hwm_mb "self");
    (* Table 2's mean row, over programs in a fixed order so the sum is
       bit-identical whatever order the seed ran them in *)
    ( "ddg_edge_reduction_pct",
      100.
      *. S.mean
           (Array.of_list (List.map (fun s -> Harness.Tables.reduction s.stats) m.last)) );
  ]

let counter_delta before after name =
  float_of_int (List.assoc name after - List.assoc name before)

let per_layer_values tr m ~passes ~queries ~caches =
  let q0, q1 = queries and c0, c1 = caches in
  let per_pass x = x /. passes in
  let med f = S.median (Array.map f m.traces) in
  let layer name t = Option.value ~default:0. (List.assoc_opt name t.layer_ns) in
  let spans =
    List.map (fun n -> (n ^ "_us", med (fun t -> layer n t /. 1e3))) layer_spans
  in
  let unspanned t = t.op_wall -. List.fold_left (fun a (_, ns) -> a +. ns) 0. t.layer_ns in
  let hits = counter_delta c0 c1 "equiv_memo_hits" +. counter_delta c0 c1 "call_memo_hits" in
  let misses =
    counter_delta c0 c1 "equiv_memo_misses" +. counter_delta c0 c1 "call_memo_misses"
  in
  let m4 = tr.r4600 and m10 = tr.r10000 in
  let insns = float_of_int (m4.insns + m10.insns) in
  (* Table 2's speedup columns, from each program's last simulation *)
  let finals = List.filter_map (fun s -> if s.reports = [] then None else Some s.reports) m.last in
  let cycles alias machine reports =
    float_of_int (List.assoc { V.alias; machine } reports).R.cycles
  in
  let speedup machine =
    if finals = [] then 0.
    else
      S.geomean
        (Array.of_list
           (List.map
              (fun r ->
                cycles Backend.Ddg.Gcc_only machine r
                /. cycles Backend.Ddg.With_hli machine r)
              finals))
  in
  let mcycles machine =
    List.fold_left (fun a r -> a +. cycles Backend.Ddg.With_hli machine r) 0. finals
    /. 1e6
  in
  spans
  @ [
      ("backend.dep_queries", per_pass (float_of_int m.dep_queries));
      ("core.query.equiv_acc", per_pass (counter_delta q0 q1 "equiv_acc"));
      ("core.query.call_acc", per_pass (counter_delta q0 q1 "call_acc"));
      ("core.query.memo_hit_ratio", ratio hits (hits +. misses));
      ("core.index_builds", per_pass (counter_delta c0 c1 "index_builds"));
      ("core.memo_invalidations", per_pass (counter_delta c0 c1 "memo_invalidations"));
      ("harness.op_us_p50", med (fun t -> t.op_wall /. 1e3));
      ("harness.unspanned_us", med (fun t -> unspanned t /. 1e3));
      ("harness.minor_words_per_op", med (fun t -> t.op_minor_words));
      ("machine.r4600.ns_per_insn", ratio m4.sim_ns (float_of_int m4.insns));
      ("machine.r10000.ns_per_insn", ratio m10.sim_ns (float_of_int m10.insns));
      ("machine.r4600.minor_words_per_insn", ratio m4.minor_words (float_of_int m4.insns));
      ("machine.r10000.minor_words_per_insn", ratio m10.minor_words (float_of_int m10.insns));
      ("machine.major_words_per_insn", ratio (m4.major_words +. m10.major_words) insns);
      (* every variant executes the same instructions *)
      ("machine.dyn_insns", per_pass insns /. float_of_int (List.length V.matrix));
      ( "machine.r4600.l1_miss_ratio",
        ratio (float_of_int m4.l1_misses) (float_of_int (m4.l1_hits + m4.l1_misses)) );
      ( "machine.r10000.l1_miss_ratio",
        ratio (float_of_int m10.l1_misses) (float_of_int (m10.l1_hits + m10.l1_misses)) );
      ("machine.r10000.lsq_stall_cycles", per_pass (float_of_int m10.lsq_stalls));
      ("machine.misspeculations", per_pass (float_of_int (m4.misspec + m10.misspec)));
      ("sim_speedup_r4600", speedup V.R4600);
      ("sim_speedup_r10000", speedup V.R10000);
      ("sim_mcycles_r4600", mcycles V.R4600);
      ("sim_mcycles_r10000", mcycles V.R10000);
    ]

(* hlid's counters over the measured ops.  [a] and [b] are back-to-back
   snapshots taken before the ops and [c] one after; b - a is what
   taking a snapshot adds to the next one. *)
let server_values srv ~ops (a, b) c =
  let n keys j = J.to_num (J.path keys j) in
  let d keys = n keys c -. n keys b -. (n keys b -. n keys a) in
  let reused = d [ "delta"; "entries_reused" ] in
  [
    ("server.sessions_per_op", d [ "sessions" ] /. ops);
    ("server.frames_per_op", d [ "frames" ] /. ops);
    ("server.queries_per_op", d [ "queries"; "total" ] /. ops);
    ("server.maintenance_ops_per_op", d [ "maintenance_ops" ] /. ops);
    ("server.service_us_p50", n [ "latency_ns"; "p50" ] c /. 1e3);
    ("server.service_us_p99", n [ "latency_ns"; "p99" ] c /. 1e3);
    ("server.delta_reuse_ratio", ratio reused (reused +. d [ "delta"; "entries_filled" ]));
    ("server.rss_mb", vm_hwm_mb (string_of_int srv.pid));
  ]

let write_spans w ~seed (tr : tracer) =
  mkdir_scratch ();
  let path = Filename.concat scratch_dir (Printf.sprintf "spans-%s.json" w.name) in
  let span s =
    J.Obj
      [
        ("name", J.Str s.s_name);
        ("start_ns", J.Num s.s_start);
        ("end_ns", J.Num s.s_end);
        ("op", J.Num (float_of_int s.s_op));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("workload", J.Str w.name);
                ("seed", J.Num (float_of_int seed));
                ("spans", J.Arr (List.rev_map span tr.spans));
              ])))

let bench ~w ~seed ~seconds ~trace ~max_ops =
  let timed_setup () =
    let t0 = now_ns () in
    let cx, bad = setup w in
    ((now_ns () -. t0) /. 1e9, cx, bad)
  in
  let dt0, cx, bad0 = timed_setup () in
  (* An untraced run sets up [setup_reps] times and reports the median.
     The spare set-ups are spread over the run, between ops, because the
     machine's slow spells last hundreds of milliseconds: back to back,
     one spell would slow them all.  Traced runs set up once; spare
     set-ups would pollute the engine counters they read. *)
  let times = ref [ dt0 ] and setup_bad = ref bad0 in
  let spares = ref (if trace then 0 else setup_reps - 1) in
  let spare_setup () =
    decr spares;
    let dt, spare, bad = timed_setup () in
    Option.iter stop_server spare.server;
    times := dt :: !times;
    setup_bad := !setup_bad + bad
  in
  let after_op elapsed =
    let due = float_of_int (setup_reps - !spares) *. seconds /. float_of_int setup_reps in
    if !spares > 0 && elapsed >= due then spare_setup ()
  in
  let tracer =
    if trace then
      Some { spans = []; r4600 = machine_acc (); r10000 = machine_acc () }
    else None
  in
  let q0 = Hli_core.Query.query_counters () and c0 = Hli_core.Query.cache_counters () in
  (* a snapshot's own cost, seen by the next one, is taken out below *)
  let snaps =
    match (tracer, cx.server) with
    | Some _, Some srv ->
        let a = server_stats srv in
        Some (a, server_stats srv)
    | _ -> None
  in
  let t_meas = now_ns () in
  let m = measure_ops cx tracer ~seed ~seconds ~max_ops ~after_op in
  let measured_s = (now_ns () -. t_meas) /. 1e9 in
  while !spares > 0 do
    spare_setup ()
  done;
  let setup_s = S.median (Array.of_list !times) and setup_bad = !setup_bad in
  let q1 = Hli_core.Query.query_counters () and c1 = Hli_core.Query.cache_counters () in
  let values =
    if Array.length m.walls = 0 then []
    else
      match tracer with
      | None -> end_to_end_values ~setup_s m
      | Some tr ->
          let ops = float_of_int (Array.length m.walls) in
          write_spans w ~seed tr;
          per_layer_values tr m
            ~passes:(ops /. float_of_int (Array.length cx.sources))
            ~queries:(q0, q1) ~caches:(c0, c1)
          @
          match (snaps, cx.server) with
          | Some ab, Some srv -> server_values srv ~ops ab (server_stats srv)
          | _ ->
              List.filter_map
                (fun (n, _) ->
                  if String.starts_with ~prefix:"server." n then Some (n, 0.) else None)
                per_layer_metrics
  in
  Option.iter stop_server cx.server;
  let units = if trace then per_layer_metrics else end_to_end_metrics in
  Printf.printf "e2e %s seed=%d trace=%d: %d ops in %.1f s (%d beyond p90), %d failed%s\n"
    w.name seed (Bool.to_int trace) m.attempted measured_s
    (S.samples_beyond 0.9 (Array.length m.walls)) m.failed
    (if setup_bad > 0 then Printf.sprintf ", %d set-up checks failed" setup_bad else "");
  let metrics =
    List.filter_map
      (fun (name, unit) ->
        Option.map
          (fun v ->
            Printf.printf "  %-38s %14.6g %s\n" name v unit;
            (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
          (List.assoc_opt name values))
      units
  in
  let correct =
    m.failed = 0 && setup_bad = 0 && List.length metrics = List.length units
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int m.attempted));
            ("failed", J.Num (float_of_int m.failed));
            ("metrics", J.Obj metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* run / check: one child process per workload and trace mode          *)
(* ------------------------------------------------------------------ *)

(* Run [e2e.exe args] and return its result line; its other output
   goes to stderr as progress. *)
let child args : J.t =
  let exe = Sys.executable_name in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let lines =
    In_channel.input_all ic |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  close_in ic;
  let st = waitpid pid in
  let progress, result =
    match List.rev lines with
    | last :: rest -> (List.rev rest, Some last)
    | [] -> ([], None)
  in
  List.iter prerr_endline progress;
  match (st, result) with
  | Unix.WEXITED 0, Some last -> J.parse last
  | _ ->
      Printf.eprintf "e2e: `%s` failed\n" (String.concat " " args);
      exit 1

let child_args w ~seed ~seconds ~trace =
  [ "--workload"; w.name; "--seed"; string_of_int seed;
    "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]

let metric_value r name = J.to_num (J.path [ "metrics"; name; "value" ] r)

(* One run of every workload, untraced then traced, as the artifact's
   per-workload object: every metric of both runs plus the op counts
   and the tracing overhead. *)
let run_once ~seed ~seconds =
  List.map
    (fun w ->
      let u = child (child_args w ~seed ~seconds ~trace:false) in
      let t = child (child_args w ~seed ~seconds ~trace:true) in
      let ops = J.to_num (J.member "attempted" u) in
      let failed = J.to_num (J.member "failed" u) in
      let m v unit = J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ] in
      let fields r = match J.member "metrics" r with J.Obj l -> l | _ -> [] in
      let overhead =
        100. *. ((metric_value t "harness.op_us_p50" /. 1e3 /. metric_value u "prog_ms_p50") -. 1.)
      in
      ( w.name,
        J.Obj
          [
            ( "correct",
              J.Bool (J.to_bool (J.member "correct" u) && J.to_bool (J.member "correct" t)) );
            ( "metrics",
              J.Obj
                (fields u @ fields t
                @ [
                    ("ops", m ops "count");
                    ("ops_failed", m failed "count");
                    ("fail_ratio", m (failed /. ops) "ratio");
                    ("trace.overhead_pct", m overhead "%");
                  ]) );
          ] ))
    workloads

let print_run ~seed (ws : (string * J.t) list) =
  Printf.printf "== e2e run, seed %d ==\n%-18s %-38s %14s  %s\n" seed "workload" "metric"
    "value" "unit";
  List.iter
    (fun (name, j) ->
      match J.member "metrics" j with
      | J.Obj l ->
          List.iter
            (fun (m, v) ->
              Printf.printf "%-18s %-38s %14.6g  %s\n" name m
                (J.to_num (J.member "value" v))
                (J.to_str (J.member "unit" v)))
            l
      | _ -> ())
    ws;
  flush stdout

let run_cmd ~seed ~seconds ~runs ~sets ~out =
  let set () =
    J.Obj
      [
        ( "runs",
          J.Arr
            (List.init runs (fun i ->
                 let seed = seed + i in
                 let ws = run_once ~seed ~seconds in
                 print_run ~seed ws;
                 J.Obj [ ("seed", J.Num (float_of_int seed)); ("workloads", J.Obj ws) ])) );
      ]
  in
  let sets = List.init sets (fun _ -> set ()) in
  let doc =
    J.Obj
      [
        ("schema", J.Str "hli-e2e-v1");
        ("seconds", J.Num seconds);
        ("sets", J.Arr sets);
      ]
  in
  let dir = Filename.dirname out in
  if dir <> "." && not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Out_channel.with_open_bin out (fun oc -> output_string oc (J.to_string doc ^ "\n"));
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* "FILE" or "FILE:SET" -> that set's runs *)
let load_runs spec =
  let file, idx =
    match String.rindex_opt spec ':' with
    | Some i -> (
        match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
        | Some k -> (String.sub spec 0 i, k)
        | None -> (spec, 0))
    | None -> (spec, 0)
  in
  let sets = J.to_list (J.member "sets" (J.read_file file)) in
  match List.nth_opt sets idx with
  | Some s -> J.to_list (J.member "runs" s)
  | None ->
      Printf.eprintf "e2e: %s has no set %d\n" file idx;
      exit 2

let read_benchmark path =
  let b = J.read_file path in
  let names key = List.map (fun m -> (J.to_str (J.member "name" m), m)) (J.to_list (J.member key b)) in
  (names "workloads", names "end_to_end", names "per_layer")

(* Every workload in the runs gets a row; only those BENCHMARK.json
   tracks count toward the exit status (README.md says why
   remote-maintain is not tracked). *)
let compare_cmd ~benchmark a b =
  let tracked, e2e, _ = read_benchmark benchmark in
  let base = load_runs a and change = load_runs b in
  let present =
    match base with
    | r :: _ -> List.map fst (match J.member "workloads" r with J.Obj l -> l | _ -> [])
    | [] -> []
  in
  let wls = List.filter (fun w -> List.mem w.name present) workloads in
  let values runs w m =
    Array.of_list
      (List.map (fun r -> J.to_num (J.path [ "workloads"; w; "metrics"; m; "value" ] r)) runs)
  in
  Printf.printf "%-18s %-24s %12s %12s %12s %8s %6s %6s  %s\n" "workload" "metric"
    "base p50" "base IQR" "change p50" "gap%" "wins" "bound" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      let is_tracked = List.mem_assoc w.name tracked in
      List.iter
        (fun (m, spec) ->
          let direction = S.direction_of_string (J.to_str (J.member "better" spec)) in
          let bound = J.to_num (J.member "bound" spec) in
          let bv = values base w.name m and cv = values change w.name m in
          let v = S.verdict ~direction ~bound ~base:bv ~change:cv in
          let wins, pairs = S.pair_wins ~direction ~base:bv ~change:cv in
          let mb = S.median bv and mc = S.median cv in
          Printf.printf "%-18s %-24s %12.6g %12.6g %12.6g %+8.2f %3d/%-2d %6.4g  %s%s\n" w.name
            m mb (S.iqr bv) mc
            (100. *. ratio (mc -. mb) (Float.abs mb))
            wins pairs bound (S.verdict_name v)
            (if is_tracked then "" else " (untracked)");
          if is_tracked && (v = S.Worse || v = S.Unresolved) then incr bad)
        e2e)
    wls;
  if !bad > 0 then begin
    Printf.printf "%d metric(s) worse or unresolved\n" !bad;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd ~benchmark =
  let wls, e2e, layers = read_benchmark benchmark in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun w -> w.name = name) workloads) then
        err "BENCHMARK.json lists an unknown workload %s" name)
    wls;
  List.iter
    (fun w ->
      let name = w.name in
      List.iter
        (fun (trace, declared) ->
          let r =
            child (child_args w ~seed:1 ~seconds:0. ~trace @ [ "--ops"; "1" ])
          in
          if not (J.to_bool (J.member "correct" r)) then err "%s: not correct" name;
          if J.to_num (J.member "attempted" r) <> 1. then err "%s: attempted <> 1" name;
          let got = match J.member "metrics" r with J.Obj l -> l | _ -> [] in
          List.iter
            (fun (m, spec) ->
              match List.assoc_opt m got with
              | None -> err "%s trace=%b: metric %s missing" name trace m
              | Some v ->
                  if J.member "unit" v <> J.member "unit" spec then
                    err "%s: metric %s has another unit than BENCHMARK.json" name m)
            declared;
          if List.length got <> List.length declared then
            err "%s trace=%b: %d metrics, BENCHMARK.json lists %d" name trace
              (List.length got) (List.length declared))
        [ (false, e2e); (true, layers) ])
    workloads;
  match !errors with
  | [] ->
      Printf.printf
        "e2e-check: OK (%d workloads, %d tracked; %d end-to-end + %d per-layer metrics)\n"
        (List.length workloads) (List.length wls) (List.length e2e) (List.length layers)
  | es ->
      List.iter (Printf.eprintf "e2e-check: %s\n") (List.rev es);
      exit 1

(* ------------------------------------------------------------------ *)
(* reference                                                           *)
(* ------------------------------------------------------------------ *)

let reference_cmd () =
  print_endline Ref.header;
  List.iter
    (fun p ->
      let src = (Option.get (Workloads.Registry.find p)).Workloads.Workload.source in
      let m = P.measure (P.compile ~config:(config_of (find_workload "table2-sim") ~remote:None) src) in
      List.iter
        (fun (v, r) -> print_endline (Ref.line ~prog:p ~variant:(V.name v) (pin_of r)))
        m.P.reports)
    table2_programs

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--ops N]\n\
    \       e2e.exe run [--seed N] [--seconds S] [--runs N] [--sets K] [--out FILE]\n\
    \       e2e.exe compare A.json[:SET] B.json[:SET] [--benchmark FILE]\n\
    \       e2e.exe check [--benchmark FILE]\n\
    \       e2e.exe reference";
  exit 2

(* --key value pairs and positional arguments *)
let parse_args args =
  let rec go opts pos = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: opts) pos rest
    | k :: [] when String.starts_with ~prefix:"--" k -> usage ()
    | a :: rest -> go opts (a :: pos) rest
    | [] -> (opts, List.rev pos)
  in
  go [] [] args

let () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  let args = List.tl (Array.to_list Sys.argv) in
  let opts, pos = parse_args (match args with c :: rest when not (String.starts_with ~prefix:"--" c) -> rest | _ -> args) in
  let known = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--ops"; "--runs"; "--sets"; "--out"; "--benchmark" ] in
  List.iter (fun (k, _) -> if not (List.mem k known) then usage ()) opts;
  let opt k d = Option.value ~default:d (List.assoc_opt k opts) in
  let num k d f = match f (opt k d) with Some v -> v | None -> usage () in
  let int k d = num k d int_of_string_opt in
  let seed = int "--seed" "1" in
  let seconds = num "--seconds" (Printf.sprintf "%g" default_seconds) float_of_string_opt in
  let benchmark = opt "--benchmark" "BENCHMARK.json" in
  match (args, pos) with
  | "serve" :: _, [ socket ] -> serve socket
  | "run" :: _, [] ->
      run_cmd ~seed ~seconds ~runs:(int "--runs" "1") ~sets:(int "--sets" "1")
        ~out:(opt "--out" (Filename.concat scratch_dir "run.json"))
  | "compare" :: _, [ a; b ] -> compare_cmd ~benchmark a b
  | "check" :: _, [] -> check_cmd ~benchmark
  | [ "reference" ], [] -> reference_cmd ()
  | _ :: _, [] when List.mem_assoc "--workload" opts ->
      let trace =
        match opt "--trace" "0" with "0" -> false | "1" -> true | _ -> usage ()
      in
      bench ~w:(find_workload (opt "--workload" "")) ~seed ~seconds ~trace
        ~max_ops:(int "--ops" (string_of_int max_int))
  | _ -> usage ()
