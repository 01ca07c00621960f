(* Benchmark harness.

   Reproductions — regenerate every table of the paper's evaluation
   (Table 1: HLI sizes; Table 2: dependence-query counts, reductions
   and machine speedups), plus the ablations DESIGN.md calls out
   (class-merging aggressiveness, the R10000 LSQ blocking rule, and the
   HLI-vs-no-HLI behaviour of the CSE/LICM passes) — and the benches
   behind the committed BENCH_*.json artifacts.  Per-layer timings are
   bench/e2e's job.

   Run with: dune exec bench/main.exe            (tables)
             dune exec bench/main.exe -- tables  (the same)
             dune exec bench/main.exe -- emit-hli
                                                 (write each workload's HLI
                                                 file under --out DIR, for
                                                 hli_dump --check sweeps)
             dune exec bench/main.exe -- servbench
                                                 (hlid query throughput per
                                                 path x clients x batch,
                                                 BENCH_servbench.json)
             dune exec bench/main.exe -- editstorm
                                                 (mutate a fraction of the
                                                 suite's functions, recompile
                                                 through a warm per-function
                                                 HLI cache; the incremental
                                                 recompile curve,
                                                 BENCH_editstorm.json)

   Flags (tables mode):
     -j N                 domain-pool size (default: HLI_JOBS env, else
                          Domain.recommended_domain_count; -j 1 is the
                          sequential reference path): workloads run on
                          a pool of min N and their count, one
                          workload per task
     --workloads a,b,c    run only the named workloads (skips ablations;
                          also selects the other modes' workloads)
     --fuel N             per-run simulation budget, 0 = unlimited
                          (exhaustion annotates the row, see Tables)
     --passes SPEC        optional passes for every workload, e.g.
                          cse,licm,unroll=4 (see --list-passes)
     --ablation NAME      run under a DESIGN.md §5 ablation config
                          (baseline, merge-off, routine-regions,
                          hli-only, lsq-off)
     --list-passes        list the optional passes and the span order, exit
     --hli-cache DIR      on-disk HLI cache directory for the compile
                          stage (default: HLI_CACHE env; unset disables
                          caching; also editstorm's cache directory)
     --stats              print the per-stage telemetry table
     --stats-json PATH    write the hli-telemetry-v10 JSON dump ("-" for
                          stdout)
     --remote SOCKET      hlid socket: With_hli variants import, query
                          and maintain HLI over the wire (tables stay
                          byte-identical to the in-process run); also
                          the server for servbench / remote-probe
     --pipeline N         remote-session frame window: keep up to N
                          request frames in flight per hlid session
                          (1 = strict request/reply); also adds the
                          pipelined rows to the servbench matrix
     --shm                with --remote: map the HLIX index segments a
                          co-located hlid (--shm-dir) publishes and
                          answer read-only queries from shared memory,
                          falling back to the wire per query when a
                          segment is missing, mid-rebuild or a
                          maintenance transaction is open (tables stay
                          byte-identical); servbench additionally runs
                          an shm copy of the matrix (path column)
     --validate-json PATH check a JSON dump: telemetry schema version
                          first (a dump at any other hli-telemetry
                          version is rejected, naming both versions),
                          then the structural JSON check; exit 1 on
                          either (used by bench/smoke.sh)
     --out PATH           servbench / editstorm output file
                          (default its BENCH_*.json) / emit-hli output
                          directory (default _hli) *)

let fuel = 100_000_000

type cfg = {
  mode : string;
  jobs : int;
  fuel : int;
  stats : bool;
  stats_json : string option;
  workloads : string list option;
  passes : string;
  ablation : string;
  out : string option;
  hli_cache : string option;
  hli_cache_max : int option;  (** cache size cap (--hli-cache-max-bytes) *)
  remote : string option;  (** hlid socket for --remote / servbench *)
  pipeline : int;  (** remote-session frame window (--pipeline) *)
  shm : bool;  (** map published HLIX segments (--shm) *)
  batch : int;  (** queries per frame (servbench-child only) *)
  repeat : int;  (** stream replay count (servbench-child only) *)
}

let usage () =
  prerr_endline
    "usage: main.exe \
     [tables|servbench|remote-probe|emit-hli|editstorm] \
     [-j N] [--fuel N] [--workloads a,b,c] [--passes SPEC] [--ablation NAME] \
     [--list-passes] [--stats] [--stats-json PATH] \
     [--validate-json PATH] [--hli-cache DIR] [--out PATH] [--remote SOCKET] \
     [--pipeline N] [--shm]";
  exit 2

(* --------------------------------------------------------------- *)
(* Cleanup: an exit before a file is complete, and SIGINT/SIGTERM,  *)
(* remove partially-written files (a half-dumped --stats-json, an   *)
(* artifact's .tmp, a servbench socket), so a failed or interrupted *)
(* run never leaves corrupt output behind; a signal exits with the  *)
(* conventional 128+signal code.                                    *)
(* --------------------------------------------------------------- *)

let cleanup_mutex = Mutex.create ()
let cleanup_files : string list ref = ref []
let cleanup_hooks : (unit -> unit) list ref = ref []

let with_cleanup_lock f =
  Mutex.lock cleanup_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cleanup_mutex) f

let register_cleanup p = with_cleanup_lock (fun () -> cleanup_files := p :: !cleanup_files)

let unregister_cleanup p =
  with_cleanup_lock (fun () ->
      cleanup_files := List.filter (fun q -> q <> p) !cleanup_files)

let register_cleanup_hook h =
  with_cleanup_lock (fun () -> cleanup_hooks := h :: !cleanup_hooks)

let run_cleanups () =
  let files, hooks =
    with_cleanup_lock (fun () ->
        let r = (!cleanup_files, !cleanup_hooks) in
        cleanup_files := [];
        cleanup_hooks := [];
        r)
  in
  List.iter (fun h -> try h () with _ -> ()) hooks;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) files

let install_cleanups () =
  at_exit run_cleanups;
  let handle signum _ = Stdlib.exit (128 + signum) in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle (handle 2))
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle (handle 15))
  with Invalid_argument _ | Sys_error _ -> ()

(* The --out artifact of servbench and editstorm.  A mode
   opens it before its run, so an unwritable path fails before any
   work.  The JSON is validated, written to <out>.tmp and renamed over
   <out>, so a failed or interrupted run leaves the committed
   BENCH_*.json untouched.  Returns the writer for the finished JSON. *)
let open_artifact cfg ~mode ~default =
  let out = Option.value ~default cfg.out in
  let tmp = out ^ ".tmp" in
  let oc =
    try open_out_bin tmp
    with Sys_error msg ->
      Printf.eprintf "--out: %s\n" msg;
      exit 1
  in
  register_cleanup tmp;
  fun json ->
    (match Harness.Telemetry.validate_json json with
    | Ok () -> ()
    | Error (msg, pos) ->
        Printf.eprintf "%s: generated malformed JSON at byte %d: %s\n" mode pos
          msg;
        exit 1);
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc json);
    (try Sys.rename tmp out
     with Sys_error msg ->
       Printf.eprintf "--out: %s\n" msg;
       exit 1);
    unregister_cleanup tmp;
    Printf.eprintf "wrote %s\n" out

let parse_args () =
  let cfg =
    ref
      {
        mode = "tables";
        jobs = Pool.default_jobs ();
        fuel;
        stats = false;
        stats_json = None;
        workloads = None;
        passes = "";
        ablation = "baseline";
        out = None;
        hli_cache = Harness.Pipeline.hli_cache_env ();
        hli_cache_max = Harness.Pipeline.hli_cache_max_env ();
        remote = None;
        pipeline = 1;
        shm = false;
        batch = 64;
        repeat = 1;
      }
  in
  let rec loop = function
    | [] -> ()
    | ( "tables" | "servbench" | "servbench-child" | "remote-probe" | "emit-hli"
      | "editstorm" ) as m
      :: rest ->
        cfg := { !cfg with mode = m };
        loop rest
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            cfg := { !cfg with jobs = j };
            loop rest
        | _ -> usage ())
    | "--fuel" :: n :: rest -> (
        (* simulation budget per run; 0 = unlimited.  A workload that
           exhausts it yields an annotated partial row, not an abort. *)
        match int_of_string_opt n with
        | Some f when f >= 0 ->
            cfg := { !cfg with fuel = f };
            loop rest
        | _ -> usage ())
    | "--stats" :: rest ->
        cfg := { !cfg with stats = true };
        loop rest
    | "--stats-json" :: path :: rest ->
        cfg := { !cfg with stats_json = Some path };
        loop rest
    | "--workloads" :: names :: rest ->
        cfg := { !cfg with workloads = Some (String.split_on_char ',' names) };
        loop rest
    | "--passes" :: spec :: rest ->
        cfg := { !cfg with passes = spec };
        loop rest
    | "--ablation" :: name :: rest ->
        cfg := { !cfg with ablation = name };
        loop rest
    | "--list-passes" :: _ ->
        print_string (Driver.Pass_manager.list_text ());
        exit 0
    | "--out" :: path :: rest ->
        cfg := { !cfg with out = Some path };
        loop rest
    | "--hli-cache" :: dir :: rest ->
        cfg := { !cfg with hli_cache = (if dir = "" then None else Some dir) };
        loop rest
    | "--hli-cache-max-bytes" :: n :: rest -> (
        match int_of_string_opt n with
        | Some b ->
            cfg := { !cfg with hli_cache_max = (if b > 0 then Some b else None) };
            loop rest
        | _ -> usage ())
    | "--remote" :: sock :: rest ->
        cfg := { !cfg with remote = Some sock };
        loop rest
    | "--shm" :: rest ->
        cfg := { !cfg with shm = true };
        loop rest
    | "--batch" :: n :: rest -> (
        (* servbench-child only: queries per Batch frame *)
        match int_of_string_opt n with
        | Some b when b >= 1 ->
            cfg := { !cfg with batch = b };
            loop rest
        | _ -> usage ())
    | "--repeat" :: n :: rest -> (
        (* servbench-child only: replay the query stream N times, so a
           cell's wall time is tens of milliseconds and not at the
           mercy of process wake-up skew *)
        match int_of_string_opt n with
        | Some r when r >= 1 ->
            cfg := { !cfg with repeat = r };
            loop rest
        | _ -> usage ())
    | "--pipeline" :: n :: rest -> (
        match int_of_string_opt n with
        | Some p when p >= 1 ->
            cfg := { !cfg with pipeline = p };
            loop rest
        | _ -> usage ())
    | "--validate-json" :: path :: _ ->
        let ic =
          try open_in_bin path
          with Sys_error msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
        in
        let s =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        (* reject dumps from another telemetry schema generation first,
           so an old v1 file gets a version message rather than a
           (misleading) structural verdict *)
        (match Harness.Telemetry.check_schema s with
        | Error msg ->
            Printf.eprintf "%s: %s\n" path msg;
            exit 1
        | Ok () -> ());
        (match Harness.Telemetry.validate_json s with
        | Ok () ->
            print_endline "valid JSON";
            exit 0
        | Error (msg, pos) ->
            Printf.eprintf "%s: malformed JSON at byte %d: %s\n" path pos msg;
            exit 1)
    | _ -> usage ()
  in
  loop (List.tl (Array.to_list Sys.argv));
  !cfg

(* ------------------------------------------------------------------ *)
(* Table reproductions                                                 *)
(* ------------------------------------------------------------------ *)

(* resolve --passes/--ablation into a pipeline config; exits with the
   diagnostic's code on a bad spec or name *)
let pipeline_config cfg =
  try
    let ablation = Driver.Variant.resolve cfg.ablation in
    { Harness.Pipeline.specs = Driver.Pass_manager.parse_specs cfg.passes;
      ablation;
      hli_cache = cfg.hli_cache;
      hli_cache_max = cfg.hli_cache_max;
      remote = cfg.remote;
      pipeline = cfg.pipeline;
      shm = cfg.shm }
  with Diagnostics.Diagnostic d ->
    Fmt.epr "%a@." Diagnostics.pp d;
    exit (Diagnostics.exit_code d)

(* --workloads, in the given order; an unknown name is skipped with a
   warning *)
let selected_workloads cfg =
  match cfg.workloads with
  | None -> Workloads.Registry.all
  | Some names ->
      List.filter_map
        (fun n ->
          match Workloads.Registry.find n with
          | Some w -> Some w
          | None ->
              Fmt.epr "warning: unknown workload %s (skipped)@." n;
              None)
        names

(* a workload a mode cannot run without: unknown is fatal *)
let workload_of_name ~mode name =
  match Workloads.Registry.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "%s: unknown workload %s\n" mode name;
      exit 1

(* [f] over a pool for mapping [n] workloads, one per task: min -j n
   domains, or none at all when that is one, so a lone workload's group
   simulations find the spare core for their walks *)
let with_pool cfg n f =
  let jobs = min cfg.jobs n in
  if jobs <= 1 then f None
  else begin
    let pool = Pool.create ~jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f (Some pool))
  end

let reproduce_tables cfg =
  let config = pipeline_config cfg in
  (* fail fast on an unwritable --stats-json path, before the (long) run *)
  let stats_oc =
    match cfg.stats_json with
    | None | Some "-" -> None
    | Some path -> (
        try
          let oc = open_out_bin path in
          (* interruption must not leave a half-written dump behind *)
          register_cleanup path;
          Some oc
        with Sys_error msg ->
          Printf.eprintf "--stats-json: %s\n" msg;
          exit 1)
  in
  let ws = selected_workloads cfg in
  if cfg.ablation <> "baseline" then
    Fmt.epr "ablation: %s (%s)@." config.Harness.Pipeline.ablation.Driver.Variant.ab_name
      config.Harness.Pipeline.ablation.Driver.Variant.ab_doc;
  let rows =
    with_pool cfg (List.length ws) (fun pool ->
        Harness.Tables.run_all ~fuel:cfg.fuel ~config ?pool
          ~progress:(fun w -> Fmt.epr "running %s...@." w.Workloads.Workload.name)
          ws)
  in
  print_string (Harness.Tables.print_tables rows);
  if cfg.stats then print_string ("\n" ^ Harness.Tables.stats_table rows);
  (* a --remote run embeds the server's own telemetry (v5 "server"
     object) in the dump, fetched over a short dedicated session; a
     --shm run additionally embeds the client-side shm counters (v6
     "shm" object) accumulated across the run's sessions *)
  let server =
    match (cfg.stats_json, cfg.remote) with
    | Some _, Some sock -> (
        try
          let cl = Hli_server.Client.connect sock in
          Fun.protect
            ~finally:(fun () -> Hli_server.Client.close cl)
            (fun () -> Some (Hli_server.Client.server_stats cl))
        with Diagnostics.Diagnostic _ -> None)
    | _ -> None
  in
  let shm =
    if cfg.shm then Some (Hli_server.Client.shm_stats_json ()) else None
  in
  (match (cfg.stats_json, stats_oc) with
  | Some "-", _ -> print_endline (Harness.Tables.stats_json ?server ?shm rows)
  | Some path, Some oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Harness.Tables.stats_json ?server ?shm rows));
      unregister_cleanup path;
      Fmt.epr "wrote telemetry to %s@." path
  | _ -> ())

(* The DESIGN.md §5 ablations are {!Driver.Variant.ablations} configs;
   a full-table run under any of them is `--ablation NAME`.  The
   default run prints one compact comparison section per ablation on a
   small workload subset: the compile-side knobs (merge-off,
   routine-regions) move HLI size and edge reduction, the
   simulation-side knobs (hli-only, lsq-off) move the speedups. *)

let find_ablation name =
  match Driver.Variant.find_ablation name with
  | Some a -> a
  | None -> invalid_arg ("find_ablation: " ^ name)

let ablated_config name =
  { Harness.Pipeline.default_config with ablation = find_ablation name }

(* compiles only, a few milliseconds each: no pool *)
let ablation_compile_section name workloads =
  let ab = find_ablation name in
  Printf.printf "\n== Ablation: %s — %s ==\n" ab.Driver.Variant.ab_name
    ab.Driver.Variant.ab_doc;
  Printf.printf "%-14s %12s %12s %10s %10s\n" "Benchmark" "HLI(B) base"
    "HLI(B) abl" "red% base" "red% abl";
  let red s = 100.0 *. Harness.Tables.reduction s in
  List.iter
    (fun wname ->
      let w = Option.get (Workloads.Registry.find wname) in
      let src = w.Workloads.Workload.source in
      let c1 = Harness.Pipeline.compile src in
      let c2 = Harness.Pipeline.compile ~config:(ablated_config name) src in
      Printf.printf "%-14s %12d %12d %9.0f%% %9.0f%%\n" wname
        c1.Harness.Pipeline.hli_bytes c2.Harness.Pipeline.hli_bytes
        (red c1.Harness.Pipeline.stats)
        (red c2.Harness.Pipeline.stats))
    workloads

let ablation_sim_section cfg name workloads =
  let ab = find_ablation name in
  Printf.printf "\n== Ablation: %s — %s ==\n" ab.Driver.Variant.ab_name
    ab.Driver.Variant.ab_doc;
  Printf.printf "%-14s %12s %12s %12s %12s\n" "Benchmark" "R4600 base"
    "R4600 abl" "R10000 base" "R10000 abl";
  let ws = List.map (fun n -> Option.get (Workloads.Registry.find n)) workloads in
  let base, abl =
    with_pool cfg (List.length ws) (fun pool ->
        let base = Harness.Tables.run_all ~fuel:cfg.fuel ?pool ws in
        (base, Harness.Tables.run_all ~fuel:cfg.fuel ~config:(ablated_config name) ?pool ws))
  in
  List.iter2
    (fun (r1 : Harness.Tables.row) (r2 : Harness.Tables.row) ->
      Printf.printf "%-14s %12.3f %12.3f %12.3f %12.3f\n"
        r1.Harness.Tables.w.Workloads.Workload.name
        r1.Harness.Tables.sp_r4600 r2.Harness.Tables.sp_r4600
        r1.Harness.Tables.sp_r10000 r2.Harness.Tables.sp_r10000)
    base abl

(* Ablation 3: the CSE and LICM passes with and without HLI (Figure 4
   and the loop-invariant-removal discussion of Section 3.2.2). *)
let ablation_passes () =
  print_endline "\n== Ablation: optimization passes with and without HLI ==";
  Printf.printf "%-14s %18s %18s\n" "Benchmark" "CSE loads (-/+)" "LICM loads (-/+)";
  List.iter
    (fun name ->
      let w = Option.get (Workloads.Registry.find name) in
      let prog = Srclang.Typecheck.program_of_string w.Workloads.Workload.source in
      let entries = Harness.Pipeline.build_hli_entries prog in
      let variant use_hli =
        let rtl = Backend.Lower.lower_program prog in
        let cse_total = ref 0 and licm_total = ref 0 in
        List.iter
          (fun fn ->
            let entry =
              List.find
                (fun (e : Hli_core.Tables.hli_entry) ->
                  e.Hli_core.Tables.unit_name = fn.Backend.Rtl.fname)
                entries
            in
            let m = Backend.Hli_import.map_unit entry fn in
            let hli = if use_hli then Some m else None in
            let s1 = Backend.Cse.run_fn ?hli fn in
            cse_total := !cse_total + s1.Backend.Cse.loads_eliminated;
            let s2 = Backend.Licm.run_fn ?hli fn in
            licm_total := !licm_total + s2.Backend.Licm.hoisted_loads)
          rtl.Backend.Rtl.fns;
        (!cse_total, !licm_total)
      in
      let c1, l1 = variant false in
      let c2, l2 = variant true in
      Printf.printf "%-14s %11d/%-6d %11d/%-6d\n" name c1 c2 l1 l2)
    [ "015.doduc"; "101.tomcatv"; "052.alvinn" ]

(* ------------------------------------------------------------------ *)
(* emit-hli: one HLI file per workload (for hli_dump --check sweeps)   *)
(* ------------------------------------------------------------------ *)

let emit_hli cfg =
  let dir = Option.value ~default:"_hli" cfg.out in
  Harness.Pipeline.mkdir_p dir;
  let ws =
    match cfg.workloads with
    | None -> Workloads.Registry.all
    | Some names -> List.map (workload_of_name ~mode:"emit-hli") names
  in
  List.iter
    (fun w ->
      let prog =
        Srclang.Typecheck.program_of_string w.Workloads.Workload.source
      in
      let entries = Harness.Pipeline.build_hli_entries prog in
      let f = { Hli_core.Tables.entries } in
      let path = Filename.concat dir (w.Workloads.Workload.name ^ ".hli") in
      Hli_core.Serialize.write_file path f;
      Printf.printf "%s\n" path)
    ws

(* ------------------------------------------------------------------ *)
(* Edit storm (BENCH_editstorm.json)                                   *)
(* ------------------------------------------------------------------ *)

(* The incremental-compile headline: mutate a fraction of the suite's
   functions, then re-run the HLI-production phase of every workload
   through a warm per-function cache.  Mutations are in-place
   integer-constant tweaks — they change no line numbers, no pointer
   constraints and no access skeleton, so only the edited function's
   fingerprint moves and callers replay from cache.  Only the touched
   functions should miss, and the recompile wall time should scale
   roughly linearly with the touched fraction.  Emits
   BENCH_editstorm.json (hli-editstorm-v1); EDITSTORM_FLOOR (set by
   bench/editstorm.sh) gates the smallest fraction's cold/edit
   speedup. *)

let es_fractions = [ 0.01; 0.05; 0.25; 1.0 ]

(* Top-level function body spans of a mini-C source: (name, lo, hi)
   byte ranges in source order.  The workloads are written in Allman
   style ('{' alone on its line), which is all this scanner supports;
   [editstorm] cross-checks the scan against the typechecked AST and
   aborts on any disagreement rather than silently skewing the
   selection. *)
let es_function_spans (src : string) : (string * int * int) list =
  let is_id c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let name_of_header h =
    match String.index_opt h '(' with
    | None -> None
    | Some p ->
        let e = ref p in
        while !e > 0 && not (is_id h.[!e - 1]) do
          decr e
        done;
        let s = ref !e in
        while !s > 0 && is_id h.[!s - 1] do
          decr s
        done;
        if !s < !e then Some (String.sub h !s (!e - !s)) else None
  in
  let spans = ref [] in
  let depth = ref 0 in
  let header = ref "" in
  let cur = ref None in
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    let j =
      match String.index_from_opt src !i '\n' with Some j -> j | None -> n
    in
    let line = String.sub src !i (j - !i) in
    let t = String.trim line in
    if !depth = 0 && t = "{" then
      Option.iter (fun f -> cur := Some (f, !i)) (name_of_header !header);
    String.iter
      (fun c ->
        if c = '{' then incr depth
        else if c = '}' then begin
          decr depth;
          if !depth = 0 then
            Option.iter
              (fun (f, lo) ->
                spans := (f, lo, j) :: !spans;
                cur := None)
              !cur
        end)
      line;
    if !depth = 0 && t <> "" && t <> "{" then header := t;
    i := j + 1
  done;
  List.rev !spans

(* Candidate mutation points inside [lo, hi): the last digit of each
   integer literal (not an identifier tail, not adjacent to a '.'),
   then — for float-only function bodies — the last fractional digit
   of each float literal.  Mutating bumps that digit in place — same
   byte length, so every span and every line number survives. *)
let es_candidates src lo hi =
  let is_digit c = c >= '0' && c <= '9' in
  let is_idc c = is_digit c || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let ints = ref [] and fracs = ref [] in
  let i = ref lo in
  while !i < hi do
    if is_digit src.[!i] && (!i = 0 || not (is_idc src.[!i - 1])) then begin
      let from_dot = !i > 0 && src.[!i - 1] = '.' in
      let e = ref !i in
      while !e < hi && is_digit src.[!e] do
        incr e
      done;
      let trailing_idc = !e < String.length src && is_idc src.[!e] in
      let into_dot = !e < String.length src && src.[!e] = '.' in
      if not trailing_idc then
        if from_dot then fracs := (!e - 1) :: !fracs
        else if not into_dot then ints := (!e - 1) :: !ints;
      i := !e
    end
    else incr i
  done;
  List.rev !ints @ List.rev !fracs

let es_apply src pos =
  let b = Bytes.of_string src in
  let c = Bytes.get b pos in
  Bytes.set b pos (if c = '9' then '8' else Char.chr (Char.code c + 1));
  Bytes.to_string b

(* (function name, interprocedural fingerprint) for every function of
   [src], or None if the mutated text no longer typechecks. *)
let es_fp_table src =
  match Srclang.Typecheck.program_of_string src with
  | exception _ -> None
  | prog ->
      let fps = Analysis.Fingerprint.of_program prog in
      Some
        (List.map
           (fun (f : Srclang.Tast.func) ->
             ( f.Srclang.Tast.name,
               Analysis.Fingerprint.func fps f.Srclang.Tast.name ))
           prog.Srclang.Tast.funcs)

(* Apply one verified tweak to [fname]: a candidate is kept only if the
   program still typechecks and exactly [fname]'s fingerprint differs
   from [src]'s — a tweak with caller fan-in is rejected and the next
   literal is tried.  [None] = the body holds no mutable constant at
   all (e.g. a one-line wrapper), and the storm substitutes another
   function. *)
let es_mutate src (spans : (string * int * int) list) fname : string option =
  let base =
    match es_fp_table src with
    | Some t -> t
    | None -> failwith "editstorm: base source does not typecheck"
  in
  match List.find_opt (fun (n, _, _) -> n = fname) spans with
  | None -> None
  | Some (_, lo, hi) ->
      let rec try_cands = function
        | [] -> None
        | pos :: rest -> (
            let trial = es_apply src pos in
            match es_fp_table trial with
            | None -> try_cands rest
            | Some fps ->
                let changed =
                  List.filter_map
                    (fun (n, d) ->
                      match List.assoc_opt n base with
                      | Some d0 when d0 <> d -> Some n
                      | _ -> None)
                    fps
                in
                if changed = [ fname ] then Some trial else try_cands rest)
      in
      try_cands (es_candidates src lo hi)

let es_fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "editstorm: FAIL — %s\n" msg;
      exit 1)
    fmt

let editstorm cfg =
  let names =
    match cfg.workloads with
    | Some ns -> ns
    | None ->
        List.map (fun w -> w.Workloads.Workload.name) Workloads.Registry.all
  in
  (* per workload: source, function spans, AST-confirmed function list *)
  let wls =
    List.map
      (fun name ->
        let w = workload_of_name ~mode:"editstorm" name in
        let src = w.Workloads.Workload.source in
        let spans = es_function_spans src in
        let funcs =
          match es_fp_table src with
          | Some t -> List.map fst t
          | None -> es_fail "%s does not typecheck" name
        in
        if List.sort compare (List.map (fun (n, _, _) -> n) spans)
           <> List.sort compare funcs
        then
          es_fail "%s: span scanner found [%s] but the AST has [%s]" name
            (String.concat " " (List.map (fun (n, _, _) -> n) spans))
            (String.concat " " funcs);
        (name, src, spans, funcs))
      names
  in
  let universe =
    List.concat_map (fun (w, _, _, funcs) -> List.map (fun f -> (w, f)) funcs) wls
  in
  let total = List.length universe in
  let base_dir =
    match cfg.hli_cache with
    | Some d -> d
    | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "hli-editstorm-%d" (Unix.getpid ()))
  in
  let write_artifact =
    open_artifact cfg ~mode:"editstorm" ~default:"BENCH_editstorm.json"
  in
  let now = Harness.Telemetry.now_ns in
  Printf.printf "== Edit storm: %d workloads, %d functions ==\n"
    (List.length wls) total;
  Printf.printf "%9s %8s %11s %9s %9s %9s %9s\n" "fraction" "mutated"
    "reanalyzed" "cold ms" "warm ms" "edit ms" "speedup";
  let rows =
    List.map
      (fun frac ->
        (* a fresh cache per fraction: stale entries from an earlier
           fraction's identical tweaks would turn planned misses into
           hits *)
        let dir =
          Filename.concat base_dir
            (Printf.sprintf "f%04d" (int_of_float (frac *. 1000.)))
        in
        (try
           Array.iter
             (fun f ->
               if Filename.check_suffix f ".hlie" then
                 Sys.remove (Filename.concat dir f))
             (Sys.readdir dir)
         with Sys_error _ -> ());
        let config =
          { Harness.Pipeline.default_config with
            hli_cache = Some dir;
            hli_cache_max = cfg.hli_cache_max }
        in
        let k =
          min total
            (max 1 (int_of_float (Float.round (frac *. float_of_int total))))
        in
        (* spread the k targets evenly over the suite; a function with
           no mutable constant (a bare wrapper) is substituted by the
           next unselected one, so the storm always touches exactly k *)
        let targets = List.init k (fun i -> List.nth universe (i * total / k)) in
        let attempts =
          targets @ List.filter (fun wf -> not (List.mem wf targets)) universe
        in
        let cur_srcs = Hashtbl.create 16 in
        let cur_mutated = Hashtbl.create 16 in
        List.iter
          (fun (name, src, _, _) ->
            Hashtbl.replace cur_srcs name src;
            Hashtbl.replace cur_mutated name [])
          wls;
        let successes = ref 0 in
        List.iter
          (fun (w, f) ->
            if !successes < k then
              let _, _, spans, _ =
                List.find (fun (n, _, _, _) -> n = w) wls
              in
              match es_mutate (Hashtbl.find cur_srcs w) spans f with
              | None -> ()
              | Some src' ->
                  Hashtbl.replace cur_srcs w src';
                  Hashtbl.replace cur_mutated w
                    (f :: Hashtbl.find cur_mutated w);
                  incr successes)
          attempts;
        let mutated_total = !successes in
        if mutated_total = 0 then es_fail "no storm target could be mutated";
        if mutated_total < k then
          (* only reachable when the fallback exhausted the whole
             universe, i.e. k approaches the count of functions that
             hold any constant at all *)
          Printf.eprintf
            "editstorm: note: %d of %d targets mutable (constant-free \
             bodies skipped)\n"
            mutated_total k;
        let storm =
          List.map
            (fun (name, src, _, _) ->
              ( name,
                src,
                Hashtbl.find cur_srcs name,
                List.rev (Hashtbl.find cur_mutated name) ))
            wls
        in
        let run srcs =
          let tm = Harness.Telemetry.create () in
          let t0 = now () in
          List.iter
            (fun src ->
              ignore (Harness.Pipeline.frontend ~config ~tm src))
            srcs;
          let wall = Int64.sub (now ()) t0 in
          ( wall,
            Harness.Telemetry.counter tm "hli_cache_hits",
            Harness.Telemetry.counter tm "hli_cache_misses",
            Harness.Telemetry.counter tm "hli_cache_partial_hits" )
        in
        let cold_ns, h0, m0, _ = run (List.map (fun (_, s, _, _) -> s) storm) in
        if h0 <> 0 || m0 <> total then
          es_fail "cold run expected 0/%d hits/misses, got %d/%d" total h0 m0;
        let warm_ns, h1, m1, _ = run (List.map (fun (_, s, _, _) -> s) storm) in
        if h1 <> total || m1 <> 0 then
          es_fail "warm run expected %d/0 hits/misses, got %d/%d" total h1 m1;
        (* the edit recompile pays only for files the storm touched — an
           unchanged file is skipped by its content hash before any
           parse, as in any build system — and, within a touched file,
           re-analyzes only the functions whose fingerprints moved *)
        let touched = List.filter (fun (_, s, s', _) -> s' <> s) storm in
        let touched_funcs =
          List.fold_left
            (fun acc (name, _, _, _) ->
              acc
              + List.length
                  (List.filter (fun (w, _) -> w = name) universe))
            0 touched
        in
        let edit_ns, h2, m2, p2 =
          run (List.map (fun (_, _, s', _) -> s') touched)
        in
        if m2 <> mutated_total then
          es_fail "%d functions mutated but %d re-analyzed" mutated_total m2;
        if h2 <> touched_funcs - mutated_total then
          es_fail "edit run expected %d hits, got %d"
            (touched_funcs - mutated_total) h2;
        (* byte-identity: the spliced-cache HLI of every edited workload
           must match an uncached compile of the same mutated source *)
        List.iter
          (fun (name, _, src', mutated) ->
            if mutated <> [] then begin
              let cached = Harness.Pipeline.frontend ~config src' in
              let fresh =
                Harness.Pipeline.frontend
                  ~config:{ config with Harness.Pipeline.hli_cache = None }
                  src'
              in
              if
                Hli_core.Serialize.to_bytes
                  { Hli_core.Tables.entries = cached.Driver.Pass.h_entries }
                <> Hli_core.Serialize.to_bytes
                     { Hli_core.Tables.entries = fresh.Driver.Pass.h_entries }
              then es_fail "%s: warm-spliced HLI differs from a cold build" name
            end)
          storm;
        let ms ns = Int64.to_float ns /. 1e6 in
        let speedup =
          if Int64.compare edit_ns 0L <= 0 then 0.0
          else Int64.to_float cold_ns /. Int64.to_float edit_ns
        in
        Printf.printf "%8.1f%% %8d %11d %9.2f %9.2f %9.2f %8.2fx\n"
          (100.0 *. frac) mutated_total m2 (ms cold_ns) (ms warm_ns)
          (ms edit_ns) speedup;
        (frac, mutated_total, m2, p2, cold_ns, warm_ns, edit_ns, speedup))
      es_fractions
  in
  (* acceptance: a ~1% storm must not re-analyze more than the larger
     of its own size and 5% of the suite (it mutates at least one
     function, which is over 5% of a suite under 20), and must beat the
     cold build by EDITSTORM_FLOOR when the gate is armed
     (bench/editstorm.sh sets it) *)
  (match rows with
  | (frac, mutated, re, _, _, _, _, speedup) :: _ ->
      if frac <= 0.011 && re * 20 > max (mutated * 20) total then
        es_fail "a %.0f%% storm re-analyzed %d/%d functions (> 5%%)"
          (100.0 *. frac) re total;
      (match Sys.getenv_opt "EDITSTORM_FLOOR" with
      | Some s -> (
          match float_of_string_opt s with
          | Some floor when floor > 0.0 ->
              if speedup < floor then
                es_fail "1%% storm speedup %.2fx is under the %.1fx floor"
                  speedup floor
          | _ -> es_fail "EDITSTORM_FLOOR=%S is not a positive number" s)
      | None -> ())
  | [] -> ());
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"hli-editstorm-v1\",\"workloads\":[%s],\"functions\":%d,\
        \"rows\":["
       (String.concat ","
          (List.map
             (fun (n, _, _, _) ->
               "\"" ^ Harness.Telemetry.json_escape n ^ "\"")
             wls))
       total);
  List.iteri
    (fun i (frac, mutated, re, partial, cold_ns, warm_ns, edit_ns, speedup) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"fraction\":%.3f,\"mutated\":%d,\"reanalyzed\":%d,\
            \"partial_hits\":%d,\"cold_ns\":%Ld,\"warm_ns\":%Ld,\
            \"edit_ns\":%Ld,\"speedup\":%.2f}"
           frac mutated re partial cold_ns warm_ns edit_ns speedup))
    rows;
  Buffer.add_string b "]}";
  write_artifact (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Server benchmark (servbench) and the remote-probe fault client      *)
(* ------------------------------------------------------------------ *)

module SP = Hli_server.Protocol

(* A deterministic batched query stream over one unit, sized for
   round-trips: every query crosses the wire, so the quadratic parts
   are capped.  It holds only kinds the back end sends: all-pairs equiv
   over the unit's first [sb_item_cap] items, then call REF/MOD of its
   first [sb_call_cap] calls against those items. *)
let sb_item_cap = 40
let sb_call_cap = 16

let sb_queries_of_entry (e : Hli_core.Tables.hli_entry) : SP.query list =
  let u = e.Hli_core.Tables.unit_name in
  let first k l = List.filteri (fun i _ -> i < k) l in
  let items = first sb_item_cap (Hli_core.Tables.all_items e) in
  let calls =
    first sb_call_cap
      (List.concat_map
         (fun (le : Hli_core.Tables.line_entry) ->
           List.filter_map
             (fun (it : Hli_core.Tables.item_entry) ->
               if it.Hli_core.Tables.acc = Hli_core.Tables.Acc_call then
                 Some it.Hli_core.Tables.item_id
               else None)
             le.Hli_core.Tables.items)
         e.Hli_core.Tables.line_table)
  in
  List.concat_map
    (fun a -> List.map (fun b -> SP.Q_equiv { u; a; b }) items)
    items
  @ List.concat_map
      (fun call -> List.map (fun mem -> SP.Q_call { u; call; mem }) items)
      calls

let rec sb_batches b = function
  | [] -> []
  | qs ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | q :: rest -> take (k - 1) (q :: acc) rest
      in
      let batch, rest = take b [] qs in
      batch :: sb_batches b rest

(* in-process baseline: the same stream against a local index *)
let sb_local_run idxs (qs : SP.query list) =
  let idx_of u = List.assoc u idxs in
  List.iter
    (fun q ->
      match q with
      | SP.Q_equiv { u; a; b } ->
          ignore (Hli_core.Query.get_equiv_acc (idx_of u) a b)
      | SP.Q_call { u; call; mem } ->
          ignore (Hli_core.Query.get_call_acc (idx_of u) ~call ~mem)
      | SP.Q_hoist_target _ -> ())
    qs

let sb_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* one client session: replay the batches, timing each frame.  With
   [pipeline > 1] frames are sent in windows of that size and the
   per-frame latency is amortized over the window (individual frames
   overlap on the wire, so only the window wall time is observable).
   With [shm] each query of a frame is answered off the unit's mapped
   HLIX segment, and the frame's misses (torn windows, a withdrawn
   segment) go over the wire as one remainder batch — the wire window
   never applies, shm lookups are synchronous loads.  [barrier] is
   called once the session is open, so the harness can line every
   client up and time only the query phase — domain spawn and session
   setup cost milliseconds, which would otherwise dominate a
   multi-client wall at these rates.  Returns the frame latencies and
   the timestamp of the last collected reply. *)
let sb_client ?(pipeline = 1) ?(shm = false) ?(barrier = fun () -> ()) socket
    bytes batches =
  let cl = Hli_server.Client.connect ~pipeline ~shm socket in
  Fun.protect
    ~finally:(fun () -> Hli_server.Client.close cl)
    (fun () ->
      ignore (Hli_server.Client.open_hli_bytes cl bytes);
      barrier ();
      let now = Harness.Telemetry.now_ns in
      let lats =
        if shm then
          Array.of_list
            (List.map
               (fun batch ->
                 let t0 = now () in
                 let misses =
                   List.filter
                     (fun q ->
                       Option.is_none (Hli_server.Client.shm_query cl q))
                     batch
                 in
                 (match misses with
                 | [] -> ()
                 | ms -> ignore (Hli_server.Client.query_batch cl ms));
                 Int64.to_float (Int64.sub (now ()) t0))
               batches)
        else if pipeline <= 1 then
          Array.of_list
            (List.map
               (fun batch ->
                 let t0 = now () in
                 ignore (Hli_server.Client.query_batch cl batch);
                 Int64.to_float (Int64.sub (now ()) t0))
               batches)
        else begin
          let lats = ref [] in
          List.iter
            (fun window ->
              let k = List.length window in
              let t0 = now () in
              ignore (Hli_server.Client.query_batches cl window);
              let per =
                Int64.to_float (Int64.sub (now ()) t0) /. float_of_int k
              in
              for _ = 1 to k do
                lats := per :: !lats
              done)
            (sb_batches pipeline batches);
          Array.of_list !lats
        end
      in
      (lats, now ()))

(* Workload setup shared by the servbench parent and its client
   children: names, HLI entries/bytes and the deterministic query
   stream.  Children rebuild it from the workload names, so parent and
   child streams are identical by construction. *)
let sb_setup cfg =
  let names =
    match cfg.workloads with
    | Some ns -> ns
    | None -> [ "101.tomcatv"; "015.doduc" ]
  in
  let entries =
    (* qualify unit names by workload: different workloads may both
       define e.g. [main], and the combined file must keep them apart *)
    List.concat_map
      (fun name ->
        let w = workload_of_name ~mode:"servbench" name in
        let prog =
          Srclang.Typecheck.program_of_string w.Workloads.Workload.source
        in
        List.map
          (fun (e : Hli_core.Tables.hli_entry) ->
            { e with
              Hli_core.Tables.unit_name =
                name ^ "/" ^ e.Hli_core.Tables.unit_name })
          (Harness.Pipeline.build_hli_entries prog))
      names
  in
  let bytes = Hli_core.Serialize.to_bytes { Hli_core.Tables.entries } in
  let queries = List.concat_map sb_queries_of_entry entries in
  (names, entries, bytes, queries)

(* servbench-child: one real client process for the servbench matrix.
   A domain-per-client harness shares the server's OCaml runtime, so
   every client participates in its stop-the-world pauses and the
   multi-client rows measure GC barrier scaling, not the server.  Real
   hlid clients are separate processes; so are these.  Protocol on
   stdio: print READY once the session is open, start on GO, then
   report "END <last-reply-ns>" and the frame latencies. *)
let sb_child cfg =
  let socket =
    match cfg.remote with
    | Some s -> s
    | None ->
        prerr_endline "servbench-child: --remote SOCKET is required";
        exit 2
  in
  let _, _, bytes, queries = sb_setup cfg in
  let batches =
    List.concat (List.init cfg.repeat (fun _ -> sb_batches cfg.batch queries))
  in
  let lats, t_end =
    sb_client ~pipeline:cfg.pipeline ~shm:cfg.shm
      ~barrier:(fun () ->
        (* shed the compile-phase garbage: the measured phase should
           touch only the session buffers and the query stream, not
           drag a dead compiler heap through the cache on every
           context switch *)
        Gc.compact ();
        print_string "READY\n";
        flush Stdlib.stdout;
        match input_line Stdlib.stdin with
        | "GO" -> ()
        | _ | (exception End_of_file) -> exit 2)
      socket bytes batches
  in
  Printf.printf "END %Ld\n" t_end;
  Array.iter (fun l -> Printf.printf "%.1f " l) lats;
  print_newline ();
  exit 0

(* [clients] concurrent sessions against [socket]: spawn one child
   process per session, wait until every session is open, release them
   together, and time from the release to the last session's final
   reply (CLOCK_MONOTONIC is comparable across processes).  [repeat]
   comes from the caller's per-cell wall-time calibration (see
   [sb_calibrate]): the raw stream is only ~66 frames at batch 64, a
   wall of a couple of milliseconds where scheduler wake-up skew
   across the children is a double-digit share of the measurement. *)
let sb_run ~clients ~pipeline ~batch ~shm ~repeat ~names socket =
  let prog = Sys.executable_name in
  (* children get a deliberately small minor heap: the server wants a
     large one (OCAMLRUNPARAM=s=... on the parent), but N clients each
     inheriting it would cycle N oversized nurseries through the
     shared cache and measure memory pressure instead of the server *)
  let child_env =
    let keep =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv ->
             not (String.length kv >= 13
                  && String.sub kv 0 13 = "OCAMLRUNPARAM"))
    in
    Array.of_list (keep @ [ "OCAMLRUNPARAM=s=256k" ])
  in
  let spawn () =
    let gi, go_w = Unix.pipe () in
    let out_r, oo = Unix.pipe () in
    let argv =
      [
        prog; "servbench-child"; "--remote"; socket;
        "--batch"; string_of_int batch;
        "--pipeline"; string_of_int pipeline;
        "--repeat"; string_of_int repeat;
        "--workloads"; String.concat "," names;
      ]
      @ (if shm then [ "--shm" ] else [])
    in
    let pid =
      Unix.create_process_env prog (Array.of_list argv) child_env gi oo
        Unix.stderr
    in
    Unix.close gi;
    Unix.close oo;
    (pid, Unix.out_channel_of_descr go_w, Unix.in_channel_of_descr out_r)
  in
  let kids = Array.init clients (fun _ -> spawn ()) in
  let fail : 'a. string -> 'a = fun msg ->
    Array.iter (fun (pid, _, _) -> try Unix.kill pid Sys.sigkill with _ -> ())
      kids;
    Printf.eprintf "servbench: %s\n" msg;
    exit 1
  in
  Array.iter
    (fun (_, _, ic) ->
      match input_line ic with
      | "READY" -> ()
      | l -> fail ("child sent " ^ String.escaped l ^ " instead of READY")
      | exception End_of_file -> fail "child died before READY")
    kids;
  let t0 = Harness.Telemetry.now_ns () in
  Array.iter
    (fun (_, oc, _) ->
      output_string oc "GO\n";
      flush oc)
    kids;
  let parts =
    Array.map
      (fun (pid, oc, ic) ->
        let result =
          match input_line ic with
          | exception End_of_file -> Error "child died before END"
          | endl -> (
              match Scanf.sscanf_opt endl "END %Ld" (fun x -> x) with
              | None -> Error ("child sent " ^ String.escaped endl)
              | Some t_end -> (
                  match input_line ic with
                  | exception End_of_file -> Error "child died mid-report"
                  | line ->
                      let lats =
                        String.split_on_char ' ' line
                        |> List.filter (fun s -> s <> "")
                        |> List.map float_of_string
                        |> Array.of_list
                      in
                      Ok (lats, t_end)))
        in
        close_out_noerr oc;
        close_in_noerr ic;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> fail "child exited abnormally");
        match result with Ok r -> r | Error msg -> fail msg)
      kids
  in
  let t_end =
    Array.fold_left (fun acc (_, e) -> max acc e) Int64.min_int parts
  in
  let lats = Array.concat (Array.to_list (Array.map fst parts)) in
  (lats, Int64.to_float (Int64.sub t_end t0))

(* Per-cell wall-time target: every matrix cell replays the stream
   enough times that its wall clock approaches 100 ms, calibrated per
   (path, pipeline, batch) with one in-process probe session.  A fixed
   frame count can't serve both paths: at shm rates it is over in a
   couple of milliseconds (scheduler skew dominates), at batch-1 wire
   rates it would take seconds per cell. *)
let sb_target_cell_ns = 100e6

let sb_calibrate ~pipeline ~shm ~batch socket bytes queries =
  let batches = sb_batches batch queries in
  let t0 = ref 0L in
  let _, t_end =
    sb_client ~pipeline ~shm
      ~barrier:(fun () -> t0 := Harness.Telemetry.now_ns ())
      socket bytes batches
  in
  let wall = Int64.to_float (Int64.sub t_end !t0) in
  max 1 (min 512 (int_of_float (ceil (sb_target_cell_ns /. max 1.0 wall))))

(* servbench: queries/sec and frame latency for 1..8 concurrent client
   sessions at several batch sizes, against the in-process baseline.
   Uses --remote SOCKET when given; otherwise starts an in-process
   server on a temp socket.  With --shm the whole matrix runs twice —
   once over the wire, once answering off the published HLIX segments
   (the "path" column) — against the same server. *)
let servbench cfg =
  let names, entries, bytes, queries = sb_setup cfg in
  let nq = List.length queries in
  let write_artifact =
    open_artifact cfg ~mode:"servbench" ~default:"BENCH_servbench.json"
  in
  (* server: external via --remote, or in-process on a temp socket *)
  let socket, shutdown =
    match cfg.remote with
    | Some s -> (s, fun () -> ())
    | None ->
        let path =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "hli-servbench-%d.sock" (Unix.getpid ()))
        in
        let shm_dir =
          if cfg.shm then
            Some
              (Filename.concat
                 (Filename.get_temp_dir_name ())
                 (Printf.sprintf "hli-servbench-shm-%d" (Unix.getpid ())))
          else None
        in
        let srv =
          Hli_server.Server.create
            { (Hli_server.Server.default_config ~socket_path:path) with
              (* size the worker pool to the machine: on a small box
                 extra domains only add context switches between the
                 poller, the workers, and the client domains.  A
                 single-core host gets poller-inline mode (jobs = 1),
                 which skips the cross-domain handoff entirely. *)
              jobs = Pool.default_jobs ();
              shm_dir }
        in
        register_cleanup path;
        let d = Domain.spawn (fun () -> Hli_server.Server.run srv) in
        register_cleanup_hook (fun () ->
            Hli_server.Server.initiate_shutdown srv);
        ( path,
          fun () ->
            Hli_server.Server.initiate_shutdown srv;
            Domain.join d;
            Option.iter (fun dir -> try Unix.rmdir dir with Unix.Unix_error _ -> ()) shm_dir;
            unregister_cleanup path )
  in
  Fun.protect ~finally:shutdown @@ fun () ->
  (* in-process baseline: same stream, local indexes, no wire *)
  let idxs =
    List.map
      (fun (e : Hli_core.Tables.hli_entry) ->
        (e.Hli_core.Tables.unit_name, Hli_core.Query.build e))
      entries
  in
  let now = Harness.Telemetry.now_ns in
  let t0 = now () in
  sb_local_run idxs queries;
  let local_ns = Int64.to_float (Int64.sub (now ()) t0) in
  Printf.printf "== servbench: hlid over %s ==\n" socket;
  Printf.printf "%d queries per client session (%s)\n" nq
    (String.concat ", " names);
  let local_qps =
    if local_ns <= 0.0 then 0.0 else float_of_int nq /. (local_ns /. 1e9)
  in
  Printf.printf "in-process baseline: %.0f q/s\n" local_qps;
  Printf.printf "%6s %8s %6s %9s %12s %12s %12s\n" "path" "clients" "batch"
    "pipeline" "q/s" "p50 (us)" "p99 (us)";
  let rows = ref [] in
  let paths = if cfg.shm then [ "wire"; "shm" ] else [ "wire" ] in
  List.iter
    (fun path ->
      let shm = String.equal path "shm" in
      List.iter
        (fun pipeline ->
          List.iter
            (fun batch ->
              let repeat =
                sb_calibrate ~pipeline ~shm ~batch socket bytes queries
              in
              if shm && (Hli_server.Client.shm_stats ()).Hli_server.Client.maps = 0
              then
                Printf.eprintf
                  "servbench: warning: --shm but no segment was mapped (is \
                   the server running with --shm-dir?)\n%!";
              List.iter
                (fun clients ->
                  let lats, wall_ns =
                    sb_run ~clients ~pipeline ~batch ~shm ~repeat ~names
                      socket
                  in
                  Array.sort compare lats;
                  let qps =
                    if wall_ns <= 0.0 then 0.0
                    else
                      float_of_int (clients * nq * repeat) /. (wall_ns /. 1e9)
                  in
                  let p50 = sb_percentile lats 0.50 /. 1e3
                  and p99 = sb_percentile lats 0.99 /. 1e3 in
                  rows := (path, clients, batch, pipeline, qps, p50, p99) :: !rows;
                  Printf.printf "%6s %8d %6d %9d %12.0f %12.1f %12.1f\n" path
                    clients batch pipeline qps p50 p99)
                [ 1; 2; 4; 8 ])
            [ 1; 8; 64 ])
        (List.sort_uniq compare [ 1; 8; max 1 cfg.pipeline ]))
    paths;
  (* the bench trajectory artifact: one row per matrix cell (v2 added
     the per-row "path": "wire" | "shm") *)
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"hli-servbench-v2\",\"workloads\":[%s],\
        \"queries_per_session\":%d,\"local_qps\":%.0f,\"rows\":["
       (String.concat ","
          (List.map
             (fun n -> "\"" ^ Harness.Telemetry.json_escape n ^ "\"")
             names))
       nq local_qps);
  List.iteri
    (fun i (path, clients, batch, pipeline, qps, p50, p99) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"path\":\"%s\",\"clients\":%d,\"batch\":%d,\"pipeline\":%d,\
            \"qps\":%.0f,\"p50_us\":%.1f,\"p99_us\":%.1f}"
           path clients batch pipeline qps p50 p99))
    (List.rev !rows);
  Buffer.add_string b "]}";
  write_artifact (Buffer.contents b);
  if cfg.stats then begin
    try
      let cl = Hli_server.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Hli_server.Client.close cl)
        (fun () ->
          Printf.printf "server telemetry: %s\n"
            (Hli_server.Client.server_stats cl))
    with Diagnostics.Diagnostic _ -> ()
  end

(* remote-probe: loop batched queries against --remote SOCKET until a
   protocol fault surfaces, then exit through the diagnostic path.
   servbench.sh kills the server mid-probe and asserts that the client
   reports a precise E11xx code and a nonzero exit instead of hanging. *)
let remote_probe cfg =
  let socket =
    match cfg.remote with
    | Some s -> s
    | None ->
        prerr_endline "remote-probe: --remote SOCKET is required";
        exit 2
  in
  let w = workload_of_name ~mode:"remote-probe" "101.tomcatv" in
  let prog = Srclang.Typecheck.program_of_string w.Workloads.Workload.source in
  let entries = Harness.Pipeline.build_hli_entries prog in
  let bytes = Hli_core.Serialize.to_bytes { Hli_core.Tables.entries } in
  let batches =
    sb_batches 16 (List.concat_map sb_queries_of_entry entries)
  in
  try
    let cl = Hli_server.Client.connect socket in
    ignore (Hli_server.Client.open_hli_bytes cl bytes);
    prerr_endline "remote-probe: session open, querying";
    while true do
      List.iter (fun b -> ignore (Hli_server.Client.query_batch cl b)) batches
    done
  with Diagnostics.Diagnostic d ->
    Fmt.epr "%a@." Diagnostics.pp d;
    exit (Diagnostics.exit_code d)

let () =
  let cfg = parse_args () in
  install_cleanups ();
  match cfg.mode with
  | "servbench" -> servbench cfg
  | "servbench-child" -> sb_child cfg
  | "remote-probe" -> remote_probe cfg
  | "emit-hli" -> emit_hli cfg
  | "editstorm" -> editstorm cfg
  | _ ->
      reproduce_tables cfg;
      (* ablations use fixed workload subsets; skip them when the run
         was narrowed with --workloads (e.g. the smoke alias) or is
         itself an ablated run *)
      if cfg.workloads = None && cfg.ablation = "baseline" then begin
        ablation_compile_section "merge-off"
          [ "101.tomcatv"; "102.swim"; "034.mdljdp2"; "129.compress" ];
        ablation_compile_section "routine-regions"
          [ "101.tomcatv"; "102.swim"; "129.compress" ];
        ablation_sim_section cfg "hli-only" [ "101.tomcatv"; "034.mdljdp2" ];
        ablation_sim_section cfg "lsq-off" [ "034.mdljdp2"; "077.mdljsp2"; "102.swim" ];
        ablation_passes ()
      end
