(** The back end of the fixed pipeline as direct calls, and the table
    of optional passes.

    [run_prefix] lowers the program, imports the HLI in the [With_hli]
    alias mode, then runs the selected optional passes in spec order;
    [run_schedule] builds each block's DDG once and schedules it for
    every machine; [simulate] runs one variant.  Each step runs in its
    telemetry span; {!span_names} lists every span of the pipeline, in
    order, and [Telemetry.stage_order] is that list. *)

open Pass

let lower (h : hli) : mapped =
  {
    m_entries = h.h_entries;
    m_rtl = Backend.Lower.lower_program h.h_prog;
    m_maps = Hashtbl.create 16;
    m_unmapped = 0;
    m_duplicates = 0;
    m_dropped = 0;
    m_notes = [];
  }

let hli_import ctx (m : mapped) : mapped =
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

(* ------------------------------------------------------------------ *)
(* Optional passes                                                     *)
(* ------------------------------------------------------------------ *)

type optional = {
  name : string;  (** also the span, ["backend." ^ name] *)
  doc : string;
  takes_arg : bool;  (** accepts [name=N], N >= 2 *)
  after : string list;  (** passes that must come earlier when co-selected *)
  run : ctx -> arg:int option -> mapped -> mapped;
}

(** The optional passes, selected with [--passes].  They run between
    [hli_import] and [ddg_schedule]. *)
let optional =
  [
    {
      name = "cse";
      doc = "local CSE with HLI-aided call handling";
      takes_arg = false;
      after = [];
      run = run_cse;
    };
    {
      name = "licm";
      doc = "loop-invariant code motion with HLI disambiguation";
      takes_arg = false;
      after = [ "cse" ];
      run = run_licm;
    };
    {
      name = "unroll";
      doc = "loop unrolling with HLI item duplication (N defaults to 4)";
      takes_arg = true;
      after = [ "cse"; "licm" ];
      run = run_unroll;
    };
  ]

(** Telemetry span names in pipeline order: the front end's four, the
    back-end prefix's, [ddg_schedule] and [simulate]. *)
let span_names =
  [
    "frontend.parse_typecheck";
    "frontend.analysis";
    "hligen.tblconst";
    "hli.serialize";
    "backend.lower";
    "backend.hli_import";
  ]
  @ List.map (fun p -> "backend." ^ p.name) optional
  @ [ "backend.ddg_schedule"; "machine.simulate" ]

(** The [--list-passes] text. *)
let list_text () =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "optional passes (--passes NAME[,NAME=N...], e.g. --passes \
     cse,licm,unroll=4):\n";
  List.iter
    (fun p ->
      Buffer.add_string b
        (Fmt.str "  %-12s %s%s\n"
           (p.name ^ if p.takes_arg then "[=N]" else "")
           p.doc
           (match p.after with
           | [] -> ""
           | l -> " (after " ^ String.concat "," l ^ ")")))
    optional;
  Buffer.add_string b "spans, in pipeline order:\n";
  List.iter (fun s -> Buffer.add_string b ("  " ^ s ^ "\n")) span_names;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Pass specs (the --passes CLI syntax)                                *)
(* ------------------------------------------------------------------ *)

type spec = { sp_pass : string; sp_arg : int option }

let specs_to_string specs =
  String.concat ","
    (List.map
       (fun s ->
         match s.sp_arg with
         | None -> s.sp_pass
         | Some n -> Fmt.str "%s=%d" s.sp_pass n)
       specs)

let derr code fmt = Diagnostics.error ~code ~phase:Diagnostics.Driver fmt

let find_optional name =
  match List.find_opt (fun p -> p.name = name) optional with
  | Some p -> p
  | None when List.exists (String.ends_with ~suffix:("." ^ name)) span_names ->
      derr "E1002" "pass %s is part of the fixed pipeline and cannot be selected"
        name
  | None -> derr "E1001" "unknown pass %S (see --list-passes)" name

(** Parse a [--passes] argument ("cse,licm,unroll=4") into validated
    specs; raises driver diagnostics on an unknown pass (E1001), a
    fixed-pipeline pass or a bad argument (E1002), a duplicate (E1003)
    and a pass out of order (E1004). *)
let parse_specs (s : string) : spec list =
  let specs =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
    |> List.map (fun tok ->
           let name, arg =
             match String.index_opt tok '=' with
             | None -> (tok, None)
             | Some i -> (
                 let a = String.sub tok (i + 1) (String.length tok - i - 1) in
                 match int_of_string_opt a with
                 | Some n -> (String.sub tok 0 i, Some n)
                 | None ->
                     derr "E1002" "pass argument %S in %S is not an integer" a
                       tok)
           in
           let p = find_optional name in
           (match arg with
           | Some _ when not p.takes_arg ->
               derr "E1002" "pass %s takes no argument" name
           | Some n when n < 2 ->
               derr "E1002" "pass %s: argument must be >= 2 (got %d)" name n
           | _ -> ());
           { sp_pass = name; sp_arg = arg })
  in
  let names = List.map (fun s -> s.sp_pass) specs in
  List.iteri
    (fun i n ->
      if List.mem n (List.filteri (fun j _ -> j < i) names) then
        derr "E1003" "pass %s listed twice in --passes" n)
    names;
  List.iteri
    (fun i n ->
      let later = List.filteri (fun j _ -> j > i) names in
      List.iter
        (fun dep ->
          if List.mem dep later then
            derr "E1004"
              "pass %s must run after %s (reorder your --passes list)" n dep)
        (find_optional n).after)
    names;
  specs

(* ------------------------------------------------------------------ *)
(* The back end                                                        *)
(* ------------------------------------------------------------------ *)

(** The machine-independent back-end prefix for the context's alias
    mode: [lower], [hli_import] ([With_hli] only: the [Gcc_only]
    baselines must not touch, or count, HLI lookups), then the optional
    passes of [specs] in spec order.  The context carries no machine:
    the result is shared by every machine's schedule ({!run_schedule}). *)
let run_prefix ctx (specs : spec list) (h : hli) : mapped =
  let alias = the_alias ctx in
  let span name f = ctx.span.spanf ("backend." ^ name) f in
  let m = span "lower" (fun () -> lower h) in
  let m =
    match alias with
    | Backend.Ddg.With_hli -> span "hli_import" (fun () -> hli_import ctx m)
    | Backend.Ddg.Gcc_only -> m
  in
  List.fold_left
    (fun m s ->
      let p = find_optional s.sp_pass in
      span p.name (fun () -> p.run ctx ~arg:s.sp_arg m))
    m specs

(** [ddg_schedule] over a prefix's output, in the same context: one DDG
    build per block for the alias mode, scheduled for every machine
    ({!Backend.Sched.schedule_program}).  The prefix's blocks keep their
    order, and its instruction records are shared by both machines'
    programs: nothing writes them after the build. *)
let run_schedule ctx (m : mapped) : schedules =
  ctx.span.spanf "backend.ddg_schedule" (fun () ->
      let alias = the_alias ctx in
      let mds =
        List.map
          (fun machine ->
            Variant.machdesc_of ctx.ablation { Variant.alias; machine })
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
        Variant.machines rtls)

(** Run a scheduled variant on the context's timing model. *)
let simulate ctx (s : scheduled) : Machine.Simulate.report =
  ctx.span.spanf "machine.simulate" (fun () ->
      let v = the_variant ctx in
      let md = Variant.machdesc_of ctx.ablation v in
      Machine.Simulate.run ~fuel:ctx.fuel ~md (Variant.sim_machine v.machine)
        s.s_rtl)
