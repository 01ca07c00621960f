(** The full compilation pipeline, front end to simulator.

    [compile] mirrors Figure 3 of the paper: the front end ({!frontend}:
    parse/typecheck → analysis → TBLCONST → serialize) runs once; the
    machine-independent back-end prefix (lower → [hli_import] →
    optional passes, {!Driver.Pass_manager.run_prefix}) runs once per
    alias mode; and [ddg_schedule] runs once per alias mode too, in the
    prefix's context: it builds each block's DDG once and
    list-schedules it for every machine, giving every variant of
    {!Driver.Variant.matrix}.  With a {!Pool} the two alias modes build
    and schedule concurrently, each on its own domain.  Each step runs
    in its telemetry span ({!Driver.Pass_manager.span_names}).

    Sharing the prefix and the DDG is sound because neither can tell
    the machines apart: their context carries the alias mode but no
    machine (a pass asking for one fails with E1010), and DDG edges
    carry either a fixed latency or "the producer's", which each
    machine's list scheduler resolves.  The HLI the build queries is
    final once the prefix ends.  Each machine's program gets fresh
    function and block records over the prefix's instruction records,
    which nothing writes after the build.

    Errors are {!Diagnostics.Diagnostic} values throughout — the table
    harness turns them into annotated partial rows, [bin/hlic] renders
    them with source locations and exits with a per-phase code. *)

(** Per-run configuration: which optional passes run (in order, with
    arguments), which ablation knobs are flipped, and where (if
    anywhere) front-end HLI output is cached on disk. *)
type config = {
  specs : Driver.Pass_manager.spec list;
  ablation : Driver.Variant.ablation;
  hli_cache : string option;
      (** cache directory ([--hli-cache] / [HLI_CACHE]); [None]
          disables caching *)
  hli_cache_max : int option;
      (** size cap in bytes for the cache directory
          ([--hli-cache-max-bytes] / [HLI_CACHE_MAX]); least-recently
          used entries (by mtime) are trimmed on write; [None] means
          unbounded *)
  remote : string option;
      (** hlid socket path; when set, the [With_hli] alias mode opens
          one server session per compile and imports/queries/maintains
          HLI over the wire instead of in-process *)
  pipeline : int;
      (** remote-session frame window ([--pipeline]); 1 = strict
          request/reply, >1 lets the client keep that many frames in
          flight (deferred maintenance acks, overlapped batches) *)
  shm : bool;
      (** with [remote]: map the server's published HLIX segments
          ([--shm]) and answer read-only queries from shared memory,
          falling back to the wire per query when a segment is
          unavailable or mid-rebuild *)
}

(** Default cache directory: the [HLI_CACHE] environment variable (an
    empty value disables it, like an absent one). *)
let hli_cache_env () =
  match Sys.getenv_opt "HLI_CACHE" with
  | None | Some "" -> None
  | Some dir -> Some dir

(** Default cache size cap: the [HLI_CACHE_MAX] environment variable,
    in bytes (absent, empty or non-positive values mean unbounded). *)
let hli_cache_max_env () =
  match Sys.getenv_opt "HLI_CACHE_MAX" with
  | None | Some "" -> None
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n > 0 -> Some n
      | _ -> None)

let default_config =
  {
    specs = [];
    ablation = Driver.Variant.baseline;
    hli_cache = hli_cache_env ();
    hli_cache_max = hli_cache_max_env ();
    remote = None;
    pipeline = 1;
    shm = false;
  }

(** [passes] shorthand: parse a [--passes] spec string into a config. *)
let config_of_passes ?(ablation = Driver.Variant.baseline) passes =
  { default_config with specs = Driver.Pass_manager.parse_specs passes; ablation }

(* ------------------------------------------------------------------ *)
(* On-disk HLI cache                                                   *)
(* ------------------------------------------------------------------ *)

(* The cache is per {e function}: each entry is a single-entry HLI
   container keyed by the function's interprocedural fingerprint
   ({!Analysis.Fingerprint} — body digest + transitive-callee REF/MOD
   fingerprints + the program's pointer-constraint digest) plus the
   TBLCONST options and the container format revision (a format bump
   must invalidate every old entry).  Only the TBLCONST options enter
   the key: an ablation or [--speculate] that changes only the back end
   shares the entries of the paper configuration.  An edit to one
   function therefore re-analyzes only that function and the callers
   whose fingerprints it feeds; every other function's entry is spliced
   back from disk byte-identically.

   The optional-pass spec ([--passes]) is deliberately NOT part of the
   key: every selectable pass is a back-end pass (fixed-pipeline
   names are rejected by [parse_specs]), runs strictly after the
   cached front-end output is produced, and mutates only per-alias-mode
   copies of the entries — so two configurations differing only in
   [--passes] share cache entries by construction.  [test_hli.ml]
   holds a regression test pinning this. *)

let cache_key ~(opts : Hligen.Tblconst.options) (fp : Digest.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Hli_core.Serialize.format_version;
            string_of_bool opts.Hligen.Tblconst.merge_parent_classes;
            string_of_bool opts.Hligen.Tblconst.routine_only_regions;
            fp;
          ]))

let cache_path dir ~opts fp = Filename.concat dir (cache_key ~opts fp ^ ".hlie")

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* A hit must decode and validate cleanly and carry exactly the one
   unit it was keyed for; anything else (stale format, truncation,
   bit-rot, races with a concurrent writer) is a miss that regeneration
   will overwrite.  Hits are touched (mtime) so the size-cap trim below
   evicts least-recently-used entries rather than oldest-written.
   Counted per function into the workload's telemetry record
   ([hli_cache_hits]/[hli_cache_misses], surfaced by --stats and the
   hli-telemetry-v9 JSON dump). *)
let cache_lookup ?tm dir ~opts ~unit_name fp =
  let path = cache_path dir ~opts fp in
  match
    if Sys.file_exists path then
      match Hli_core.Serialize.read_file path with
      | { Hli_core.Tables.entries = [ e ] }
        when e.Hli_core.Tables.unit_name = unit_name ->
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
          Some e
      | _ -> None
      | exception (Diagnostics.Diagnostic _ | Sys_error _) -> None
    else None
  with
  | Some e ->
      Telemetry.count ?tm "hli_cache_hits";
      Some e
  | None ->
      Telemetry.count ?tm "hli_cache_misses";
      None

(* Best-effort store: written to a temp file then renamed, so readers
   (including pool domains compiling concurrently) never observe a torn
   file; any I/O failure just means the next run regenerates. *)
let cache_store dir ~opts fp entry =
  try
    mkdir_p dir;
    let path = cache_path dir ~opts fp in
    let tmp = Filename.temp_file ~temp_dir:dir "hli-cache" ".tmp" in
    Hli_core.Serialize.write_file tmp { Hli_core.Tables.entries = [ entry ] };
    Sys.rename tmp path
  with Sys_error _ -> ()

(* Size cap: after a compile stores new entries, evict cache files by
   ascending mtime until the directory fits the cap.  Freshly written
   and freshly hit entries carry the newest mtimes, so a trim removes
   the least-recently-used fingerprints — the ones an ongoing edit
   storm has moved past.  mtime has 1s granularity on some
   filesystems, so an edit storm's worth of entries tie; ties break on
   the path (ascending) so eviction order is deterministic, not
   whatever readdir happened to return.  Concurrent trims over the
   same directory race stat/unlink: a file another trim already
   removed still counts as freed space (it is gone either way) but not
   as an eviction of ours.  Evictions are counted
   ([hli_cache_trims]).  Only [.hlie] cache entries count toward the
   cap or are evicted: any other file in the directory, such as an
   emitted [.hli], is left alone. *)
let cache_trim ?tm dir ~max_bytes =
  match max_bytes with
  | None -> ()
  | Some cap -> (
      try
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".hlie")
          |> List.filter_map (fun f ->
                 let path = Filename.concat dir f in
                 match Unix.stat path with
                 | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
                     Some (path, st_mtime, st_size)
                 | _ -> None
                 | exception Unix.Unix_error _ -> None)
          |> List.sort (fun (pa, ma, _) (pb, mb, _) ->
                 match compare ma mb with 0 -> compare pa pb | c -> c)
        in
        let total =
          List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 files
        in
        ignore
          (List.fold_left
             (fun total (path, _, sz) ->
               if total > cap then begin
                 (match Unix.unlink path with
                 | () -> Telemetry.count ?tm "hli_cache_trims"
                 | exception Unix.Unix_error _ -> ());
                 total - sz
               end
               else total)
             total files)
      with Sys_error _ -> ())

type compiled = {
  prog : Srclang.Tast.program;
  hli : Hli_core.Tables.hli_file;
  hli_bytes : int;
  config : config;
  variants : (Driver.Variant.t * Driver.Pass.scheduled) list;
      (** scheduled per variant, in {!Driver.Variant.matrix} order *)
  stats : Backend.Ddg.stats;  (** query counts from the stats variant *)
  map_unmapped : int;  (** memory refs the mapping could not cover *)
  map_duplicates : int;  (** duplicate HLI item ids found while indexing *)
  map_dropped : int;  (** HLI entries whose unit has no RTL function *)
}

let scheduled_of (c : compiled) (v : Driver.Variant.t) : Driver.Pass.scheduled =
  match List.assoc_opt v c.variants with
  | Some s -> s
  | None ->
      Diagnostics.error ~code:"E1011" ~phase:Diagnostics.Driver
        "no variant %s in this compilation" (Driver.Variant.name v)

let rtl_of c v = (scheduled_of c v).Driver.Pass.s_rtl

(* named accessors for the four paper variants (the seed's record
   fields, now just points of the matrix) *)
let variant ~alias ~machine = { Driver.Variant.alias; machine }

let rtl_gcc_r4600 c =
  rtl_of c (variant ~alias:Backend.Ddg.Gcc_only ~machine:Driver.Variant.R4600)

let rtl_hli_r4600 c =
  rtl_of c (variant ~alias:Backend.Ddg.With_hli ~machine:Driver.Variant.R4600)

let rtl_gcc_r10000 c =
  rtl_of c (variant ~alias:Backend.Ddg.Gcc_only ~machine:Driver.Variant.R10000)

let rtl_hli_r10000 c =
  rtl_of c (variant ~alias:Backend.Ddg.With_hli ~machine:Driver.Variant.R10000)

(** Notes emitted by the optional passes of the stats variant (what CSE
    eliminated, what LICM hoisted, ...). *)
let pass_notes c =
  (scheduled_of c Driver.Variant.stats_variant).Driver.Pass.s_notes

let spanf ?tm () =
  { Driver.Pass.spanf = (fun name f -> Telemetry.span ?tm name f) }

(** Analysis and TBLCONST: one HLI entry per function of [prog], in
    program order.  [cached], one option per function, holds the
    entries the HLI cache supplied; only the others are built, and
    each is passed to [store]. *)
let build_hli_entries ?(opts = Hligen.Tblconst.default_options) ?tm ?cached
    ?(store = fun _ _ -> ()) (prog : Srclang.Tast.program) =
  let funcs = prog.Srclang.Tast.funcs in
  let cached =
    match cached with Some c -> c | None -> List.map (fun _ -> None) funcs
  in
  let ctx =
    Telemetry.span ?tm "frontend.analysis" (fun () ->
        Hligen.Tblconst.make_context ~opts prog)
  in
  Telemetry.span ?tm "hligen.tblconst" (fun () ->
      List.map2
        (fun f cached ->
          match cached with
          | Some e -> e
          | None ->
              let e, _, _ = Hligen.Tblconst.build_unit ctx f in
              store f e;
              e)
        funcs cached)

(* The per-function cache in front of analysis and TBLCONST: each
   function's entry is replayed from disk on a fingerprint hit.  A fully
   warm compile skips the analysis fixpoints; a partial hit runs them
   once and builds only the stale functions, splicing the cached entries
   back in program order. *)
let cached_entries ?tm dir ~max_bytes ~opts (prog : Srclang.Tast.program) =
  let fps =
    Telemetry.span ?tm "hli.fingerprint" (fun () ->
        Analysis.Fingerprint.of_program prog)
  in
  let fp (f : Srclang.Tast.func) =
    Analysis.Fingerprint.func fps f.Srclang.Tast.name
  in
  let cached =
    Telemetry.span ?tm "hli.cache" (fun () ->
        List.map
          (fun (f : Srclang.Tast.func) ->
            cache_lookup ?tm dir ~opts ~unit_name:f.Srclang.Tast.name (fp f))
          prog.Srclang.Tast.funcs)
  in
  if List.for_all Option.is_some cached then List.map Option.get cached
  else begin
    if List.exists Option.is_some cached then
      Telemetry.count ?tm "hli_cache_partial_hits";
    let entries =
      build_hli_entries ~opts ?tm ~cached
        ~store:(fun f e -> cache_store dir ~opts (fp f) e)
        prog
    in
    cache_trim ?tm dir ~max_bytes;
    entries
  end

(** The front end, what an incremental recompile pays per edited file:
    parse/typecheck, analysis and TBLCONST (behind the per-function
    cache when [config.hli_cache] is set), and Table 1's size.  The
    back end consumes the result identically whether it was replayed or
    rebuilt, so the edit-storm benchmark times exactly this function.
    Diagnostics get [src_file] attached. *)
let frontend ?(config = default_config) ?src_file ?tm (src : string) :
    Driver.Pass.hli =
  let opts = Driver.Variant.tblconst_options config.ablation in
  try
    let prog =
      Telemetry.span ?tm "frontend.parse_typecheck" (fun () ->
          Srclang.Typecheck.program_of_string src)
    in
    let entries =
      match config.hli_cache with
      | None -> build_hli_entries ~opts ?tm prog
      | Some dir ->
          cached_entries ?tm dir ~max_bytes:config.hli_cache_max ~opts prog
    in
    let h_bytes =
      Telemetry.span ?tm "hli.serialize" (fun () ->
          Hli_core.Serialize.size_bytes { Hli_core.Tables.entries })
    in
    { Driver.Pass.h_prog = prog; h_entries = entries; h_bytes }
  with Diagnostics.Diagnostic d
    when src_file <> None && d.Diagnostics.file = None ->
    raise (Diagnostics.Diagnostic
             (Diagnostics.with_file (Option.get src_file) d))

(* One hlid session for the duration of [f].  [wire] is the HLI
   container the session opens. *)
let with_session config socket wire f =
  let cl =
    Hli_server.Client.connect ~pipeline:config.pipeline ~shm:config.shm socket
  in
  Fun.protect
    ~finally:(fun () -> Hli_server.Client.close cl)
    (fun () ->
      f (Remote.hooks_of_client cl (Hli_server.Client.open_hli_bytes cl wire)))

(** Compile a source program into all matrix variants.

    Only the [With_hli] variants import the HLI and issue (counted)
    queries — the [Gcc_only] baselines never touch HLI lookups, and
    Table 2's measurement stream comes from exactly one pass (the
    {!Driver.Variant.stats_variant}, whose [stats] this record
    carries). *)
let compile ?(config = default_config) ?src_file ?pool ?tm (src : string) :
    compiled =
  let spanf = spanf ?tm () in
  let h = frontend ~config ?src_file ?tm src in
  let hli = { Hli_core.Tables.entries = h.Driver.Pass.h_entries } in
  (* one alias mode: its prefix, then one DDG build per block scheduled
     for every machine *)
  let backend alias =
    let run ?remote () =
      let ctx =
        Driver.Pass.ctx ~spanf ~alias ~ablation:config.ablation ?remote ()
      in
      Driver.Pass_manager.(run_schedule ctx (run_prefix ctx config.specs h))
      |> List.map (fun (machine, s) -> ({ Driver.Variant.alias; machine }, s))
    in
    match (config.remote, alias) with
    | Some socket, Backend.Ddg.With_hli ->
        (* the session opens the container of the locally produced
           HLI, so the server answers over the same tables as a local
           compile *)
        with_session config socket (Hli_core.Serialize.to_bytes hli)
          (fun remote -> run ~remote ())
    | _ -> run ()
  in
  let scheduled =
    List.concat (Pool.map_opt pool backend Driver.Variant.aliases)
  in
  let variants =
    List.map (fun v -> (v, List.assoc v scheduled)) Driver.Variant.matrix
  in
  let stats_s =
    match List.assoc_opt Driver.Variant.stats_variant variants with
    | Some s -> s
    | None -> assert false (* the matrix always contains the stats variant *)
  in
  {
    prog = h.Driver.Pass.h_prog;
    hli;
    hli_bytes = h.Driver.Pass.h_bytes;
    config;
    variants;
    stats = stats_s.Driver.Pass.s_stats;
    map_unmapped = stats_s.Driver.Pass.s_unmapped;
    map_duplicates = stats_s.Driver.Pass.s_duplicates;
    map_dropped = stats_s.Driver.Pass.s_dropped;
  }

type measured = {
  reports : (Driver.Variant.t * Machine.Simulate.report) list;
      (** in {!Driver.Variant.matrix} order *)
}

let report_of (m : measured) (v : Driver.Variant.t) : Machine.Simulate.report =
  match List.assoc_opt v m.reports with
  | Some r -> r
  | None ->
      Diagnostics.error ~code:"E1011" ~phase:Diagnostics.Driver
        "no variant %s in this measurement" (Driver.Variant.name v)

let r4600_gcc m =
  report_of m (variant ~alias:Backend.Ddg.Gcc_only ~machine:Driver.Variant.R4600)

let r4600_hli m =
  report_of m (variant ~alias:Backend.Ddg.With_hli ~machine:Driver.Variant.R4600)

let r10000_gcc m =
  report_of m (variant ~alias:Backend.Ddg.Gcc_only ~machine:Driver.Variant.R10000)

let r10000_hli m =
  report_of m (variant ~alias:Backend.Ddg.With_hli ~machine:Driver.Variant.R10000)

(* A pool task of [measure]: a group's one interpretation, or a lone
   variant. *)
type task =
  | Group of Driver.Pass_manager.group
  | Lone of Driver.Variant.t * Driver.Pass.scheduled

(* Group the variants by prefix, in matrix order.  A variant's group is
   that of the first prefix whose blocks hold its own prefix's
   instructions in the same order (so the gcc and hli prefixes merge
   when identical); it joins if {!Machine.Simulate.member} admits it,
   and runs alone otherwise.  A group of one runs alone. *)
let tasks ctx (c : compiled) =
  let prefixes = ref [] in
  let group_prefix own =
    match List.find_opt (fun p -> p == own || Machine.Simulate.same_blocks p own) !prefixes with
    | Some p -> p
    | None ->
        prefixes := !prefixes @ [ own ];
        own
  in
  let entries =
    List.map
      (fun (v, (s : Driver.Pass.scheduled)) ->
        let p = group_prefix s.Driver.Pass.s_prefix in
        (p, v, s, Driver.Pass_manager.member ctx ~prefix:p v s))
      c.variants
  in
  List.concat_map
    (fun p ->
      let mine = List.filter (fun (q, _, _, _) -> q == p) entries in
      let lone (_, v, s, _) = Lone (v, s) in
      match List.filter_map (fun (_, v, _, m) -> Option.map (fun m -> (v, m)) m) mine with
      | _ :: _ :: _ as joined ->
          Group { Driver.Pass_manager.g_prefix = p; g_members = joined }
          :: List.map lone (List.filter (fun (_, _, _, m) -> Option.is_none m) mine)
      | _ -> List.map lone mine)
    !prefixes

(** Simulate every variant ([pool]: concurrently, one task per group or
    lone variant).  Schedules of one prefix are timed together in one
    interpretation, whose static check and address oracle stand in for
    an output comparison inside the group; across groups and lone
    variants, checks that every variant's binary produces byte-identical
    output — across alias modes and machines alike, since each machine
    gets its own schedule (scheduling must not change semantics). *)
let measure ?(fuel = 400_000_000) ?pool ?tm (c : compiled) : measured =
  let spanf = spanf ?tm () in
  let ctx = Driver.Pass.ctx ~spanf ~ablation:c.config.ablation ~fuel () in
  let run = function
    | Group g -> Driver.Pass_manager.simulate_group ctx g
    | Lone (v, s) ->
        let ctx =
          Driver.Pass.ctx ~spanf ~variant:v ~ablation:c.config.ablation ~fuel ()
        in
        [ (v, Driver.Pass_manager.simulate ctx s) ]
  in
  let by_variant = List.concat (Pool.map_opt pool run (tasks ctx c)) in
  let reports = List.map (fun (v, _) -> (v, List.assoc v by_variant)) c.variants in
  (match reports with
  | [] -> ()
  | (v0, r0) :: rest ->
      List.iter
        (fun (v, (r : Machine.Simulate.report)) ->
          if r.Machine.Simulate.output <> r0.Machine.Simulate.output then
            Diagnostics.error ~code:"E0901" ~phase:Diagnostics.Sim
              "schedule changed program output (%s differs from %s)"
              (Driver.Variant.name v) (Driver.Variant.name v0))
        rest);
  { reports }

(** [base] cycles over [opt] cycles; a degenerate run on either side
    (0 cycles, e.g. after an aborted simulation) reports a neutral
    1.0 rather than a bogus 0× "slowdown". *)
let speedup ~(base : Machine.Simulate.report) ~(opt : Machine.Simulate.report) =
  if base.Machine.Simulate.cycles = 0 || opt.Machine.Simulate.cycles = 0 then 1.0
  else
    float_of_int base.Machine.Simulate.cycles
    /. float_of_int opt.Machine.Simulate.cycles
