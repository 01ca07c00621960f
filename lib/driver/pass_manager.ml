(** Pass registry, pipeline assembly, CLI pass-spec parsing and the
    typed pipeline runner.

    The registry is the single source of truth for pass names, their
    telemetry spans ([Pass.span_name]), their payload stages and their
    ordering constraints; [Telemetry.stage_order], [--list-passes] and
    pipeline validation are all derived from it. *)

open Pass

(* ------------------------------------------------------------------ *)
(* Pass implementations                                                *)
(* ------------------------------------------------------------------ *)

let run_parse _ctx ~arg:_ (s : source) : Srclang.Tast.program =
  Srclang.Typecheck.program_of_string s.src

let run_analysis ctx ~arg:_ (prog : Srclang.Tast.program) : analyzed =
  let opts = Variant.tblconst_options ctx.ablation in
  { a_prog = prog; a_ctx = Hligen.Tblconst.make_context ~opts prog }

let run_tblconst _ctx ~arg:_ (a : analyzed) : hli =
  let entries =
    List.map
      (fun f ->
        let e, _, _ = Hligen.Tblconst.build_unit a.a_ctx f in
        e)
      a.a_prog.Srclang.Tast.funcs
  in
  { h_prog = a.a_prog; h_entries = entries; h_bytes = 0 }

let run_serialize _ctx ~arg:_ (h : hli) : hli =
  {
    h with
    h_bytes = Hli_core.Serialize.size_bytes { Hli_core.Tables.entries = h.h_entries };
  }

let run_lower _ctx ~arg:_ (h : hli) : mapped =
  {
    m_entries = h.h_entries;
    m_rtl = Backend.Lower.lower_program h.h_prog;
    m_maps = Hashtbl.create 16;
    m_unmapped = 0;
    m_duplicates = 0;
    m_dropped = 0;
    m_notes = [];
  }

let run_hli_import ctx ~arg:_ (m : mapped) : mapped =
  let unmapped = ref 0 and duplicates = ref 0 and dropped = ref 0 in
  List.iter
    (fun (e : Hli_core.Tables.hli_entry) ->
      match Backend.Rtl.find_fn m.m_rtl e.Hli_core.Tables.unit_name with
      | Some fn ->
          let mp =
            match
              Option.bind ctx.remote (fun r ->
                  r.remote_unit e.Hli_core.Tables.unit_name)
            with
            | Some ru ->
                (* remote back end: the line table and duplicate list
                   come over the wire; queries route to the session *)
                Backend.Hli_import.map_unit_lines
                  ~source:(Backend.Hli_import.Remote ru.ru_source)
                  ~dups:ru.ru_dups
                  ~line_table:(ru.ru_line_table ())
                  fn
            | None -> Backend.Hli_import.map_unit e fn
          in
          unmapped := !unmapped + mp.Backend.Hli_import.unmapped_insns;
          duplicates := !duplicates + List.length mp.Backend.Hli_import.dup_items;
          Hashtbl.replace m.m_maps e.Hli_core.Tables.unit_name mp
      | None ->
          (* an HLI entry with no RTL function: its items can never be
             mapped — count it instead of dropping it silently *)
          incr dropped)
    m.m_entries;
  { m with m_unmapped = !unmapped; m_duplicates = !duplicates; m_dropped = !dropped }

(* Fold an optimization step over every function.  On HLI variants each
   function gets a maintenance session watching its imported query
   index (so no pass can observe a stale memoized answer), and after
   the step the committed entry and its fresh index replace the old
   ones — both in the map table and in the payload's entry list, so a
   later pass maintains the already-edited entry, not the original.

   On a remote back end the server owns all of that state: the pass
   sees the session's maintenance hooks, and the end-of-step commit
   becomes a Refresh barrier (the server rebuilds the unit's index
   from the maintained entry). *)
let fold_maintained ctx (m : mapped)
    (apply :
      hli:Backend.Hli_import.t option ->
      maintain:Backend.Hli_import.maint option ->
      Backend.Rtl.fn ->
      Backend.Rtl.fn) : mapped =
  let use_hli = the_alias ctx = Backend.Ddg.With_hli in
  let entries = ref m.m_entries in
  let fns =
    List.map
      (fun (fn : Backend.Rtl.fn) ->
        let fname = fn.Backend.Rtl.fname in
        let hli = if use_hli then Hashtbl.find_opt m.m_maps fname else None in
        let remote =
          if use_hli then
            Option.bind ctx.remote (fun r -> r.remote_unit fname)
          else None
        in
        match remote with
        | Some ru ->
            let fn = apply ~hli ~maintain:(Some ru.ru_maint) fn in
            ru.ru_refresh ();
            fn
        | None ->
            let index =
              match hli with
              | Some { Backend.Hli_import.source = Local index; _ } ->
                  Some index
              | _ -> None
            in
            let maintain =
              if use_hli then
                Option.map
                  (Hli_core.Maintain.start ?index)
                  (List.find_opt
                     (fun (e : Hli_core.Tables.hli_entry) ->
                       e.Hli_core.Tables.unit_name = fname)
                     !entries)
              else None
            in
            (match (maintain, index) with
            | Some mt, Some index -> Hli_core.Maintain.watch mt index
            | _ -> ());
            let fn =
              apply ~hli
                ~maintain:(Option.map Backend.Hli_import.local_maint maintain)
                fn
            in
            (match maintain with
            | Some mt ->
                let entry', index = Hli_core.Maintain.commit mt in
                (match Hashtbl.find_opt m.m_maps fname with
                | Some mp ->
                    Hashtbl.replace m.m_maps fname
                      {
                        mp with
                        Backend.Hli_import.source =
                          Backend.Hli_import.Local index;
                      }
                | None -> ());
                entries :=
                  List.map
                    (fun (e : Hli_core.Tables.hli_entry) ->
                      if e.Hli_core.Tables.unit_name = fname then entry' else e)
                    !entries
            | None -> ());
            fn)
      m.m_rtl.Backend.Rtl.fns
  in
  { m with m_rtl = { m.m_rtl with Backend.Rtl.fns = fns }; m_entries = !entries }

let add_note (m : mapped) n_pass n_text =
  { m with m_notes = m.m_notes @ [ { n_pass; n_text } ] }

let run_cse ctx ~arg:_ (m : mapped) : mapped =
  let t = Backend.Cse.fresh_stats () in
  let m =
    fold_maintained ctx m (fun ~hli ~maintain fn ->
        let s = Backend.Cse.run_fn ?hli ?maintain fn in
        t.Backend.Cse.alu_eliminated <-
          t.Backend.Cse.alu_eliminated + s.Backend.Cse.alu_eliminated;
        t.Backend.Cse.loads_eliminated <-
          t.Backend.Cse.loads_eliminated + s.Backend.Cse.loads_eliminated;
        t.Backend.Cse.call_purges <-
          t.Backend.Cse.call_purges + s.Backend.Cse.call_purges;
        t.Backend.Cse.call_survivals <-
          t.Backend.Cse.call_survivals + s.Backend.Cse.call_survivals;
        fn)
  in
  add_note m "cse"
    (Fmt.str "alu=%d loads=%d call_purges=%d call_survivals=%d"
       t.Backend.Cse.alu_eliminated t.Backend.Cse.loads_eliminated
       t.Backend.Cse.call_purges t.Backend.Cse.call_survivals)

let run_licm ctx ~arg:_ (m : mapped) : mapped =
  let t = Backend.Licm.fresh_stats () in
  let m =
    fold_maintained ctx m (fun ~hli ~maintain fn ->
        let s = Backend.Licm.run_fn ?hli ?maintain fn in
        t.Backend.Licm.hoisted_loads <-
          t.Backend.Licm.hoisted_loads + s.Backend.Licm.hoisted_loads;
        t.Backend.Licm.hoisted_alu <-
          t.Backend.Licm.hoisted_alu + s.Backend.Licm.hoisted_alu;
        t.Backend.Licm.blocked_by_alias <-
          t.Backend.Licm.blocked_by_alias + s.Backend.Licm.blocked_by_alias;
        fn)
  in
  add_note m "licm"
    (Fmt.str "hoisted_loads=%d hoisted_alu=%d blocked_by_alias=%d"
       t.Backend.Licm.hoisted_loads t.Backend.Licm.hoisted_alu
       t.Backend.Licm.blocked_by_alias)

let run_unroll ctx ~arg (m : mapped) : mapped =
  let factor = Option.value ~default:4 arg in
  let t = Backend.Unroll.fresh_stats () in
  let m =
    fold_maintained ctx m (fun ~hli:_ ~maintain fn ->
        let fn, s = Backend.Unroll.run_fn ?maintain ~factor fn in
        t.Backend.Unroll.unrolled <-
          t.Backend.Unroll.unrolled + s.Backend.Unroll.unrolled;
        t.Backend.Unroll.copies_made <-
          t.Backend.Unroll.copies_made + s.Backend.Unroll.copies_made;
        fn)
  in
  add_note m "unroll"
    (Fmt.str "factor=%d unrolled=%d copies=%d" factor
       t.Backend.Unroll.unrolled t.Backend.Unroll.copies_made)

(* One DDG build per block for the context's alias mode, scheduled for
   every machine ({!Backend.Sched.schedule_program}).  The prefix's
   instruction records are shared by both machines' programs: nothing
   writes them after the build. *)
let run_ddg_schedule ctx ~arg:_ (m : mapped) : schedules =
  let alias = the_alias ctx in
  let mds =
    List.map
      (fun machine -> Variant.machdesc_of ctx.ablation { Variant.alias; machine })
      Variant.machines
  in
  let rtls, stats =
    Backend.Sched.schedule_program ~mode:alias
      ~combine_gcc:ctx.ablation.Variant.combine_gcc
      ?speculate:ctx.ablation.Variant.speculate
      ~hli_of_fn:(Hashtbl.find_opt m.m_maps) ~mds m.m_rtl
  in
  List.map2
    (fun machine rtl ->
      ( machine,
        {
          s_rtl = rtl;
          s_stats = stats;
          s_unmapped = m.m_unmapped;
          s_duplicates = m.m_duplicates;
          s_dropped = m.m_dropped;
          s_notes = m.m_notes;
        } ))
    Variant.machines rtls

let run_simulate ctx ~arg:_ (s : scheduled) : Machine.Simulate.report =
  let v = the_variant ctx in
  let md = Variant.machdesc_of ctx.ablation v in
  Machine.Simulate.run ~fuel:ctx.fuel ~md (Variant.sim_machine v.machine)
    s.s_rtl

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(** All passes, in canonical pipeline order.  This order doubles as the
    telemetry stage order (see [Telemetry.stage_order]). *)
let registry : Pass.t list =
  [
    P
      {
        name = "parse_typecheck";
        prefix = "frontend";
        doc = "parse and type-check the source";
        structural = true;
        takes_arg = false;
        default_arg = None;
        after = [];
        maintains_hli = false;
        input = Source;
        output = Tast;
        run = run_parse;
      };
    P
      {
        name = "analysis";
        prefix = "frontend";
        doc = "points-to, REF/MOD and dependence analysis";
        structural = true;
        takes_arg = false;
        default_arg = None;
        after = [];
        maintains_hli = false;
        input = Tast;
        output = Analyzed;
        run = run_analysis;
      };
    P
      {
        name = "tblconst";
        prefix = "hligen";
        doc = "build the HLI tables (ITEMGEN + TBLCONST)";
        structural = true;
        takes_arg = false;
        default_arg = None;
        after = [];
        maintains_hli = false;
        input = Analyzed;
        output = Hli;
        run = run_tblconst;
      };
    P
      {
        name = "serialize";
        prefix = "hli";
        doc = "serialize the HLI file (Table 1's size column)";
        structural = true;
        takes_arg = false;
        default_arg = None;
        after = [];
        maintains_hli = false;
        input = Hli;
        output = Hli;
        run = run_serialize;
      };
    P
      {
        name = "lower";
        prefix = "backend";
        doc = "lower the typed AST to RTL";
        structural = true;
        takes_arg = false;
        default_arg = None;
        after = [];
        maintains_hli = false;
        input = Hli;
        output = Mapped;
        run = run_lower;
      };
    P
      {
        name = "hli_import";
        prefix = "backend";
        doc = "map HLI items onto RTL insns (With_hli alias mode)";
        structural = true;
        takes_arg = false;
        default_arg = None;
        after = [ "lower" ];
        maintains_hli = false;
        input = Mapped;
        output = Mapped;
        run = run_hli_import;
      };
    P
      {
        name = "cse";
        prefix = "backend";
        doc = "local CSE with HLI-aided call handling";
        structural = false;
        takes_arg = false;
        default_arg = None;
        after = [ "hli_import" ];
        maintains_hli = true;
        input = Mapped;
        output = Mapped;
        run = run_cse;
      };
    P
      {
        name = "licm";
        prefix = "backend";
        doc = "loop-invariant code motion with HLI disambiguation";
        structural = false;
        takes_arg = false;
        default_arg = None;
        after = [ "hli_import"; "cse" ];
        maintains_hli = true;
        input = Mapped;
        output = Mapped;
        run = run_licm;
      };
    P
      {
        name = "unroll";
        prefix = "backend";
        doc = "loop unrolling with HLI item duplication";
        structural = false;
        takes_arg = true;
        default_arg = Some 4;
        after = [ "hli_import"; "cse"; "licm" ];
        maintains_hli = true;
        input = Mapped;
        output = Mapped;
        run = run_unroll;
      };
    P
      {
        name = "ddg_schedule";
        prefix = "backend";
        doc = "build DDGs (counting queries), schedule each machine";
        structural = true;
        takes_arg = false;
        default_arg = None;
        after = [ "lower" ];
        maintains_hli = false;
        input = Mapped;
        output = Schedules;
        run = run_ddg_schedule;
      };
    P
      {
        name = "simulate";
        prefix = "machine";
        doc = "run the scheduled program on the variant's timing model";
        structural = true;
        takes_arg = false;
        default_arg = None;
        after = [ "ddg_schedule" ];
        maintains_hli = false;
        input = Scheduled;
        output = Simulated;
        run = run_simulate;
      };
  ]

(** Telemetry span names in canonical order, derived from the registry
    (the seed hand-maintained this list in [telemetry.ml]). *)
let span_names = List.map Pass.span_name registry

let find n = List.find_opt (fun p -> Pass.name p = n) registry

let derr fmt = Diagnostics.error ~code:"E1001" ~phase:Diagnostics.Driver fmt

let find_exn n =
  match find n with
  | Some p -> p
  | None -> derr "unknown pass %S (see --list-passes)" n

(** Human-readable pass listing for [--list-passes]. *)
let list_text () =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "registered passes (in pipeline order; * = structural, always runs):\n";
  List.iter
    (fun p ->
      Buffer.add_string b
        (Fmt.str "  %c %-12s %-9s -> %-10s %-55s span=%s%s\n"
           (if Pass.is_structural p then '*' else ' ')
           (Pass.name p ^ if Pass.takes_arg p then "[=N]" else "")
           (Pass.input_stage_name p) (Pass.output_stage_name p) (Pass.doc p)
           (Pass.span_name p)
           (match Pass.after p with
           | [] -> ""
           | l -> " after=" ^ String.concat "," l)))
    registry;
  Buffer.add_string b
    "optional passes are selected with --passes NAME[,NAME=N...], e.g. \
     --passes cse,licm,unroll=4\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Pass specs (the --passes CLI syntax)                                *)
(* ------------------------------------------------------------------ *)

type spec = { sp_pass : string; sp_arg : int option }

let spec ?arg name = { sp_pass = name; sp_arg = arg }

let specs_to_string specs =
  String.concat ","
    (List.map
       (fun s ->
         match s.sp_arg with
         | None -> s.sp_pass
         | Some n -> Fmt.str "%s=%d" s.sp_pass n)
       specs)

(* Ordering constraints: every pass named in [after p] that is also
   selected must appear earlier in the list. *)
let validate_order names_of_list =
  List.iteri
    (fun i (n, after) ->
      List.iter
        (fun dep ->
          List.iteri
            (fun j (n', _) ->
              if n' = dep && j > i then
                Diagnostics.error ~code:"E1004" ~phase:Diagnostics.Driver
                  "pass %s must run after %s (reorder your --passes list)" n
                  dep)
            names_of_list)
        after)
    names_of_list

let validate_specs specs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.sp_pass then
        Diagnostics.error ~code:"E1003" ~phase:Diagnostics.Driver
          "pass %s listed twice in --passes" s.sp_pass;
      Hashtbl.replace seen s.sp_pass ())
    specs;
  validate_order
    (List.map (fun s -> (s.sp_pass, Pass.after (find_exn s.sp_pass))) specs)

(** Parse a [--passes] argument ("cse,licm,unroll=4") into validated
    specs; raises driver diagnostics (code E10xx) on unknown passes,
    structural passes, malformed or out-of-range arguments, duplicates
    and ordering violations. *)
let parse_specs (s : string) : spec list =
  let toks =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  let specs =
    List.map
      (fun tok ->
        let name, arg =
          match String.index_opt tok '=' with
          | None -> (tok, None)
          | Some i ->
              let name = String.sub tok 0 i in
              let a = String.sub tok (i + 1) (String.length tok - i - 1) in
              let n =
                match int_of_string_opt a with
                | Some n -> n
                | None ->
                    Diagnostics.error ~code:"E1002" ~phase:Diagnostics.Driver
                      "pass argument %S in %S is not an integer" a tok
              in
              (name, Some n)
        in
        let p = find_exn name in
        if Pass.is_structural p then
          Diagnostics.error ~code:"E1002" ~phase:Diagnostics.Driver
            "pass %s is structural: it always runs and cannot be selected"
            name;
        (match arg with
        | Some _ when not (Pass.takes_arg p) ->
            Diagnostics.error ~code:"E1002" ~phase:Diagnostics.Driver
              "pass %s takes no argument" name
        | Some n when n < 2 ->
            Diagnostics.error ~code:"E1002" ~phase:Diagnostics.Driver
              "pass %s: argument must be >= 2 (got %d)" name n
        | _ -> ());
        { sp_pass = name; sp_arg = arg })
      toks
  in
  validate_specs specs;
  specs

(* ------------------------------------------------------------------ *)
(* Pipelines                                                           *)
(* ------------------------------------------------------------------ *)

type step = { pass : Pass.t; arg : int option }

let step ?arg name = { pass = find_exn name; arg }

(** The variant-independent front half: source to serialized HLI. *)
let frontend_pipeline () : step list =
  [ step "parse_typecheck"; step "analysis"; step "tblconst"; step "serialize" ]

(** The machine-independent back-end prefix, run once per alias mode.
    [Gcc_only] never imports the HLI (the baselines must not touch — or
    count — HLI lookups); optional passes come from the validated
    [specs], in spec order.  [ddg_schedule] then runs once over its
    output, for every machine ({!run_schedule}). *)
let prefix_pipeline ~(alias : Backend.Ddg.mode) (specs : spec list) :
    step list =
  [ step "lower" ]
  @ (match alias with
    | Backend.Ddg.With_hli -> [ step "hli_import" ]
    | Backend.Ddg.Gcc_only -> [])
  @ List.map (fun s -> step ?arg:s.sp_arg s.sp_pass) specs

(** Check a pipeline: payload stages must chain, no pass runs twice,
    and every ordering constraint holds. *)
let validate_pipeline (steps : step list) =
  let rec chain = function
    | { pass = P a; _ } :: ({ pass = P b; _ } :: _ as rest) ->
        (match Pass.stage_eq a.output b.input with
        | Some Eq -> ()
        | None ->
            Diagnostics.error ~code:"E1005" ~phase:Diagnostics.Driver
              "pass %s produces %s but pass %s consumes %s" a.name
              (Pass.stage_name a.output) b.name (Pass.stage_name b.input));
        chain rest
    | [ _ ] | [] -> ()
  in
  chain steps;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun st ->
      let n = Pass.name st.pass in
      if Hashtbl.mem seen n then
        Diagnostics.error ~code:"E1003" ~phase:Diagnostics.Driver
          "pass %s appears twice in the pipeline" n;
      Hashtbl.replace seen n ())
    steps;
  validate_order
    (List.map (fun st -> (Pass.name st.pass, Pass.after st.pass)) steps)

(* ------------------------------------------------------------------ *)
(* Typed runner                                                        *)
(* ------------------------------------------------------------------ *)

type packed = B : 'a Pass.stage * 'a -> packed

let run_step ctx (B (st, v)) { pass = P p; arg } : packed =
  match Pass.stage_eq st p.input with
  | None ->
      Diagnostics.error ~code:"E1005" ~phase:Diagnostics.Driver
        "pass %s expects a %s payload but the pipeline carries %s" p.name
        (Pass.stage_name p.input) (Pass.stage_name st)
  | Some Eq ->
      let out =
        ctx.span.spanf (p.prefix ^ "." ^ p.name) (fun () -> p.run ctx ~arg v)
      in
      B (p.output, out)

let run_pipeline ctx (steps : step list) (init : packed) : packed =
  validate_pipeline steps;
  List.fold_left (run_step ctx) init steps

let expect : type a. a Pass.stage -> packed -> a =
 fun st (B (st', v)) ->
  match Pass.stage_eq st' st with
  | Some Eq -> v
  | None ->
      Diagnostics.error ~code:"E1005" ~phase:Diagnostics.Driver
        "pipeline produced a %s payload where %s was expected"
        (Pass.stage_name st') (Pass.stage_name st)

(** Run the front half over a source file.  Diagnostics raised while a
    source file name is known get it attached. *)
let run_frontend ctx (s : source) : hli =
  try expect Hli (run_pipeline ctx (frontend_pipeline ()) (B (Source, s)))
  with Diagnostics.Diagnostic d when s.src_file <> None && d.Diagnostics.file = None ->
    raise (Diagnostics.Diagnostic
             (Diagnostics.with_file (Option.get s.src_file) d))

(** Run only the parse/typecheck pass.  The warm-start path of the
    harness's on-disk HLI cache needs the TAST (the back end lowers it)
    without re-running analysis + TBLCONST. *)
let run_parse_typecheck ctx (s : source) : Srclang.Tast.program =
  try expect Tast (run_pipeline ctx [ step "parse_typecheck" ] (B (Source, s)))
  with Diagnostics.Diagnostic d
    when s.src_file <> None && d.Diagnostics.file = None ->
    raise (Diagnostics.Diagnostic
             (Diagnostics.with_file (Option.get s.src_file) d))

(** Run the back-end prefix for the context's alias mode.  The
    context carries no machine: the result is shared by every machine's
    schedule ({!run_schedule}). *)
let run_prefix ctx (specs : spec list) (h : hli) : mapped =
  let alias = the_alias ctx in
  expect Mapped (run_pipeline ctx (prefix_pipeline ~alias specs) (B (Hli, h)))

(** Run [ddg_schedule] over a prefix's output, in the same context: one
    DDG build per block, scheduled for every machine.  The prefix's
    blocks keep their order. *)
let run_schedule ctx (m : mapped) : schedules =
  expect Schedules (run_pipeline ctx [ step "ddg_schedule" ] (B (Mapped, m)))

(** Run the [simulate] pass over a scheduled variant. *)
let simulate ctx (s : scheduled) : Machine.Simulate.report =
  expect Simulated (run_pipeline ctx [ step "simulate" ] (B (Scheduled, s)))
