(** Experiment drivers reproducing the paper's Table 1 and Table 2.

    {!run_workload} is robust: a workload whose simulation runs out of
    fuel (hits a runtime error, or raises a compile-phase
    {!Diagnostics.Diagnostic}) yields a partial row carrying a failure
    annotation instead of aborting the whole reproduction run; for a
    simulation failure its compile-side columns are still valid.
    {!run_all} fans the workloads out across an optional {!Pool}, the
    harness's one level of parallelism — the row list (and thus the
    printed tables) is byte-identical to a sequential run. *)

type row = {
  w : Workloads.Workload.t;
  lines : int;
  hli_bytes : int;
  stats : Backend.Ddg.stats;
  sp_r4600 : float;
  sp_r10000 : float;
  dyn_insns : int;
  unmapped : int;  (** memory refs the HLI mapping could not cover *)
  duplicates : int;  (** duplicate HLI item ids found while indexing *)
  dropped : int;  (** HLI entries whose unit has no RTL function *)
  failure : string option;
      (** [Some reason] when compilation or simulation aborted;
          speedups are then 1.0 placeholders and excluded from the
          mean rows *)
  tm : Telemetry.t;  (** per-stage spans/counters for this workload *)
}

let run_workload ?(fuel = 400_000_000) ?(config = Pipeline.default_config)
    ?tm (w : Workloads.Workload.t) : row =
  let tm = match tm with Some t -> t | None -> Telemetry.create () in
  let base =
    {
      w;
      lines = Workloads.Workload.line_count w;
      hli_bytes = 0;
      stats = Backend.Ddg.fresh_stats ();
      sp_r4600 = 1.0;
      sp_r10000 = 1.0;
      dyn_insns = 0;
      unmapped = 0;
      duplicates = 0;
      dropped = 0;
      failure = None;
      tm;
    }
  in
  match Pipeline.compile ~config ~tm w.Workloads.Workload.source with
  | exception Diagnostics.Diagnostic d ->
      { base with failure = Some (Diagnostics.to_string d) }
  | c -> (
      let base =
        {
          base with
          hli_bytes = c.Pipeline.hli_bytes;
          stats = c.Pipeline.stats;
          unmapped = c.Pipeline.map_unmapped;
          duplicates = c.Pipeline.map_duplicates;
          dropped = c.Pipeline.map_dropped;
        }
      in
      match Pipeline.measure ~fuel ~tm c with
      | m ->
          {
            base with
            sp_r4600 =
              Pipeline.speedup ~base:(Pipeline.r4600_gcc m)
                ~opt:(Pipeline.r4600_hli m);
            sp_r10000 =
              Pipeline.speedup ~base:(Pipeline.r10000_gcc m)
                ~opt:(Pipeline.r10000_hli m);
            dyn_insns = (Pipeline.r4600_gcc m).Machine.Simulate.dyn_insns;
          }
      | exception Machine.Exec.Out_of_fuel ->
          { base with failure = Some "out of fuel" }
      | exception Machine.Exec.Runtime_error msg ->
          { base with failure = Some ("runtime error: " ^ msg) }
      | exception Diagnostics.Diagnostic d ->
          { base with failure = Some (Diagnostics.to_string d) })

(** Run a list of workloads, optionally fanning them out across
    [pool], one workload per task; results come back in input order.
    [progress] is called as each workload starts (on the running domain,
    so under a pool the call order is nondeterministic — keep it on
    stderr). *)
let run_all ?fuel ?config ?pool
    ?(progress = fun (_ : Workloads.Workload.t) -> ())
    (ws : Workloads.Workload.t list) : row list =
  Pool.map_opt pool
    (fun w ->
      progress w;
      run_workload ?fuel ?config w)
    ws

let reduction (s : Backend.Ddg.stats) =
  if s.Backend.Ddg.gcc_yes = 0 then 0.0
  else
    float_of_int (s.Backend.Ddg.gcc_yes - s.Backend.Ddg.combined_yes)
    /. float_of_int s.Backend.Ddg.gcc_yes

let pct n total = if total = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int total

(* ------------------------------------------------------------------ *)
(* Formatting                                                          *)
(* ------------------------------------------------------------------ *)

let table1_header =
  Printf.sprintf "%-14s %-7s %10s %9s %13s" "Benchmark" "Suite" "Code(lines)"
    "HLI(KB)" "HLI/line(B)"

let table1_row (r : row) =
  Printf.sprintf "%-14s %-7s %10d %9.1f %13.1f%s" r.w.Workloads.Workload.name
    (Workloads.Workload.suite_name r.w.Workloads.Workload.suite)
    r.lines
    (float_of_int r.hli_bytes /. 1024.0)
    (float_of_int r.hli_bytes /. float_of_int (max 1 r.lines))
    ((if r.unmapped > 0 then
        Printf.sprintf "  !! %d unmapped refs" r.unmapped
      else "")
    ^ (if r.duplicates > 0 then
         Printf.sprintf "  !! %d duplicate HLI items" r.duplicates
       else "")
    ^
    if r.dropped > 0 then
      Printf.sprintf "  !! %d dropped HLI units" r.dropped
    else "")

let table2_header =
  Printf.sprintf "%-14s %7s %9s %12s %12s %12s %6s %8s %8s" "Benchmark" "Tests"
    "per line" "GCC yes" "HLI yes" "Comb yes" "Red%" "R4600" "R10000"

let table2_row (r : row) =
  let s = r.stats in
  let prefix =
    Printf.sprintf "%-14s %7d %9.2f %6d (%2.0f%%) %6d (%2.0f%%) %6d (%2.0f%%) %5.0f%%"
      r.w.Workloads.Workload.name s.Backend.Ddg.total
      (float_of_int s.Backend.Ddg.total /. float_of_int (max 1 r.lines))
      s.Backend.Ddg.gcc_yes
      (pct s.Backend.Ddg.gcc_yes s.Backend.Ddg.total)
      s.Backend.Ddg.hli_yes
      (pct s.Backend.Ddg.hli_yes s.Backend.Ddg.total)
      s.Backend.Ddg.combined_yes
      (pct s.Backend.Ddg.combined_yes s.Backend.Ddg.total)
      (100.0 *. reduction s)
  in
  match r.failure with
  | None -> Printf.sprintf "%s %8.2f %8.2f" prefix r.sp_r4600 r.sp_r10000
  | Some reason -> Printf.sprintf "%s %8s %8s  !! %s" prefix "-" "-" reason

(* geometric mean of speedups, arithmetic means of percentages, as the
   paper's "mean" rows do; rows whose simulation failed are excluded *)
let mean_row name (rows : row list) =
  let rows = List.filter (fun r -> r.failure = None) rows in
  let n = max 1 (List.length rows) in
  let fn = float_of_int n in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. fn in
  let geo f =
    exp (List.fold_left (fun acc r -> acc +. log (f r)) 0.0 rows /. fn)
  in
  Printf.sprintf
    "%-14s %7s %9.2f %12s %12s %12s %5.0f%% %8.2f %8.2f" name "-"
    (avg (fun r -> float_of_int r.stats.Backend.Ddg.total /. float_of_int (max 1 r.lines)))
    (Printf.sprintf "- (%2.0f%%)" (avg (fun r -> pct r.stats.Backend.Ddg.gcc_yes r.stats.Backend.Ddg.total)))
    (Printf.sprintf "- (%2.0f%%)" (avg (fun r -> pct r.stats.Backend.Ddg.hli_yes r.stats.Backend.Ddg.total)))
    (Printf.sprintf "- (%2.0f%%)" (avg (fun r -> pct r.stats.Backend.Ddg.combined_yes r.stats.Backend.Ddg.total)))
    (100.0 *. avg (fun r -> reduction r.stats))
    (geo (fun r -> r.sp_r4600))
    (geo (fun r -> r.sp_r10000))

let mean_row_t1 name (rows : row list) =
  let n = max 1 (List.length rows) in
  let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. float_of_int n in
  Printf.sprintf "%-14s %-7s %10s %9s %13.1f" name "-" "-" "-"
    (avg (fun r -> float_of_int r.hli_bytes /. float_of_int (max 1 r.lines)))

let print_tables (rows : row list) =
  let int_rows, fp_rows =
    List.partition
      (fun r -> not (Workloads.Workload.is_fp r.w.Workloads.Workload.suite))
      rows
  in
  let buf = Buffer.create 4096 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  line "== Table 1: benchmark characteristics ==";
  line table1_header;
  List.iter (fun r -> line (table1_row r)) int_rows;
  line (mean_row_t1 "mean (int)" int_rows);
  List.iter (fun r -> line (table1_row r)) fp_rows;
  line (mean_row_t1 "mean (fp)" fp_rows);
  line "";
  line "== Table 2: dependence tests and speedups ==";
  line table2_header;
  List.iter (fun r -> line (table2_row r)) int_rows;
  line (mean_row "mean (int)" int_rows);
  List.iter (fun r -> line (table2_row r)) fp_rows;
  line (mean_row "mean (fp)" fp_rows);
  let failed = List.filter (fun r -> r.failure <> None) rows in
  if failed <> [] then begin
    line "";
    line
      (Printf.sprintf
         "!! %d workload(s) aborted during simulation; mean rows exclude them"
         (List.length failed))
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Telemetry reports (--stats / --stats-json)                          *)
(* ------------------------------------------------------------------ *)

(** Human-readable per-workload, per-stage timing table, followed by
    the process-wide per-kind HLI query counters. *)
let stats_table (rows : row list) =
  let buf = Buffer.create 4096 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  line "== Telemetry: per-stage wall-clock (ms) per workload ==";
  let stages =
    List.filter
      (fun s -> List.exists (fun r -> Telemetry.span_count r.tm s > 0) rows)
      Telemetry.stage_order
  in
  let short s =
    match String.rindex_opt s '.' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  line
    (String.concat ""
       (Printf.sprintf "%-14s" "Benchmark"
       :: List.map (fun s -> Printf.sprintf " %14s" (short s)) stages));
  List.iter
    (fun r ->
      line
        (String.concat ""
           (Printf.sprintf "%-14s" r.w.Workloads.Workload.name
           :: List.map
                (fun s ->
                  Printf.sprintf " %14.2f"
                    (Telemetry.ms_of_ns (Telemetry.span_ns r.tm s)))
                stages)))
    rows;
  line "";
  line "== Telemetry: HLI queries by kind (process-wide) ==";
  List.iter
    (fun (name, v) -> line (Printf.sprintf "%-16s %12d" name v))
    (Hli_core.Query.query_counters ());
  line "";
  line "== Telemetry: HLI query cache (process-wide) ==";
  let cc = Hli_core.Query.cache_counters () in
  let get k = try List.assoc k cc with Not_found -> 0 in
  List.iter
    (fun (name, v) -> line (Printf.sprintf "%-20s %12d" name v))
    cc;
  let rate hits misses =
    let total = hits + misses in
    if total = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int total
  in
  line
    (Printf.sprintf "%-20s %11.1f%%" "equiv_hit_rate"
       (rate (get "equiv_memo_hits") (get "equiv_memo_misses")));
  line
    (Printf.sprintf "%-20s %11.1f%%" "call_hit_rate"
       (rate (get "call_memo_hits") (get "call_memo_misses")));
  line "";
  line "== Telemetry: on-disk HLI cache ==";
  let sum name =
    List.fold_left (fun acc r -> acc + Telemetry.counter r.tm name) 0 rows
  in
  line (Printf.sprintf "%-20s %12d" "hli_cache_hits" (sum "hli_cache_hits"));
  line (Printf.sprintf "%-20s %12d" "hli_cache_misses" (sum "hli_cache_misses"));
  line
    (Printf.sprintf "%-20s %12d" "hli_cache_partial"
       (sum "hli_cache_partial_hits"));
  line (Printf.sprintf "%-20s %12d" "hli_cache_trims" (sum "hli_cache_trims"));
  Buffer.contents buf

(** Machine-readable dump, schema {!Telemetry.schema_version} (its doc
    lists what each version added).  Per workload: failure annotation,
    unmapped, duplicate and dropped counts, dependence-query stats and
    the {!Telemetry} spans/counters.  Process
    wide: the per-kind HLI query counters, the [query_cache] counters,
    the aggregate [hli_cache] object (zeros without a cache directory),
    [server] — the hlid telemetry JSON of a [--remote] run, given as
    [?server] — and [shm] — the fast-path counters of a [--shm] run,
    given as [?shm]; both are [null] otherwise. *)
let stats_json ?server ?shm (rows : row list) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"%s\",\"server\":%s,\"shm\":%s,\"hli_queries\":{"
       Telemetry.schema_version
       (match server with Some s -> s | None -> "null")
       (match shm with Some s -> s | None -> "null"));
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" name v))
    (Hli_core.Query.query_counters ());
  Buffer.add_string b "},\"query_cache\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" name v))
    (Hli_core.Query.cache_counters ());
  let sum name =
    List.fold_left (fun acc r -> acc + Telemetry.counter r.tm name) 0 rows
  in
  Buffer.add_string b
    (Printf.sprintf
       "},\"hli_cache\":{\"hits\":%d,\"misses\":%d,\"partial_hits\":%d,\"trims\":%d"
       (sum "hli_cache_hits") (sum "hli_cache_misses")
       (sum "hli_cache_partial_hits") (sum "hli_cache_trims"));
  Buffer.add_string b "},\"workloads\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      let s = r.stats in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"failure\":%s,\"unmapped\":%d,\"duplicates\":%d,\"dropped\":%d,\"dep_queries\":{\"total\":%d,\"gcc_yes\":%d,\"hli_yes\":%d,\"combined_yes\":%d},%s}"
           (Telemetry.json_escape r.w.Workloads.Workload.name)
           (match r.failure with
           | None -> "null"
           | Some f -> "\"" ^ Telemetry.json_escape f ^ "\"")
           r.unmapped r.duplicates r.dropped s.Backend.Ddg.total
           s.Backend.Ddg.gcc_yes
           s.Backend.Ddg.hli_yes s.Backend.Ddg.combined_yes
           (Telemetry.json_fragment r.tm)))
    rows;
  Buffer.add_string b "]}";
  Buffer.contents b
