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
    m_rtl = Backend.Lower.lower_program h.h_prog;
    m_maps = Hashtbl.create 16;
    m_unmapped = 0;
    m_duplicates = 0;
    m_dropped = 0;
    m_notes = [];
  }

let hli_import ctx (h : hli) (m : mapped) : mapped =
  let unmapped = ref 0 and duplicates = ref 0 and dropped = ref 0 in
  List.iter
    (fun (e : Hli_core.Tables.hli_entry) ->
      let u = e.Hli_core.Tables.unit_name in
      match Backend.Rtl.find_fn m.m_rtl u with
      | Some fn ->
          let mp =
            match Option.bind ctx.remote (fun r -> r u fn) with
            | Some mp -> mp
            | None -> Backend.Hli_import.map_unit e fn
          in
          unmapped := !unmapped + mp.Backend.Hli_import.unmapped_insns;
          duplicates := !duplicates + List.length mp.Backend.Hli_import.dup_items;
          Hashtbl.replace m.m_maps u mp
      | None ->
          (* an HLI entry with no RTL function: its items can never be
             mapped — count it instead of dropping it silently *)
          incr dropped)
    h.h_entries;
  { m with m_unmapped = !unmapped; m_duplicates = !duplicates; m_dropped = !dropped }

(* Fold an optimization step over every function, giving it the
   function's imported HLI (none in the [Gcc_only] mode, which imports
   nothing), then end the pass at the session's barrier: the next pass
   queries the structure this one maintained. *)
let fold_maintained (m : mapped)
    (apply : hli:Backend.Hli_import.t option -> Backend.Rtl.fn -> Backend.Rtl.fn)
    : mapped =
  let fns =
    List.map
      (fun (fn : Backend.Rtl.fn) ->
        match Hashtbl.find_opt m.m_maps fn.Backend.Rtl.fname with
        | Some h ->
            let fn = apply ~hli:(Some h) fn in
            h.Backend.Hli_import.session.barrier ();
            fn
        | None -> apply ~hli:None fn)
      m.m_rtl.Backend.Rtl.fns
  in
  { m with m_rtl = { m.m_rtl with Backend.Rtl.fns = fns } }

let add_note (m : mapped) n_pass n_text =
  { m with m_notes = m.m_notes @ [ { n_pass; n_text } ] }

let run_cse ~arg:_ (m : mapped) : mapped =
  let t = Backend.Cse.fresh_stats () in
  let m =
    fold_maintained m (fun ~hli fn ->
        let s = Backend.Cse.run_fn ?hli fn in
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

let run_licm ~arg:_ (m : mapped) : mapped =
  let t = Backend.Licm.fresh_stats () in
  let m =
    fold_maintained m (fun ~hli fn ->
        let s = Backend.Licm.run_fn ?hli fn in
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

let run_unroll ~arg (m : mapped) : mapped =
  let factor = Option.value ~default:4 arg in
  let t = Backend.Unroll.fresh_stats () in
  let m =
    fold_maintained m (fun ~hli fn ->
        let fn, s = Backend.Unroll.run_fn ?hli ~factor fn in
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
  run : arg:int option -> mapped -> mapped;
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
    | Backend.Ddg.With_hli -> span "hli_import" (fun () -> hli_import ctx h m)
    | Backend.Ddg.Gcc_only -> m
  in
  List.fold_left
    (fun m s ->
      let p = find_optional s.sp_pass in
      span p.name (fun () -> p.run ~arg:s.sp_arg m))
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
          ~hli_of_fn:(Hashtbl.find_opt m.m_maps) ~mds m.m_rtl
      in
      List.map2
        (fun machine rtl ->
          ( machine,
            {
              s_rtl = rtl;
              s_prefix = m.m_rtl;
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

(** A group of variants timed in one interpretation of [prefix]: their
    schedules as {!Machine.Simulate.member}s. *)
type group = {
  g_prefix : Backend.Rtl.program;
  g_members : (Variant.t * Machine.Simulate.member) list;
}

(** [s] as a member of a group over [prefix] in the context's ablation.
    A schedule whose blocks are not permutations of the prefix's raises
    E0901 naming its variant. *)
let member ctx ~prefix (v : Variant.t) (s : scheduled) =
  match
    Machine.Simulate.member ~prefix
      ~md:(Variant.machdesc_of ctx.ablation v)
      (Variant.sim_machine v.machine) s.s_rtl
  with
  | m -> m
  | exception Invalid_argument _ ->
      Diagnostics.error ~code:"E0901" ~phase:Diagnostics.Sim
        "%s schedule is not a permutation of its prefix" (Variant.name v)

(** Simulate a group in one interpretation, in one [machine.simulate]
    span: one report per member, in order.  A schedule that breaks an
    order of the prefix (the static check) or inverts an overlapping
    access pair (the address oracle) raises E0901 naming its variant. *)
let simulate_group ctx (g : group) : (Variant.t * Machine.Simulate.report) list =
  ctx.span.spanf "machine.simulate" (fun () ->
      match
        Machine.Simulate.run_group ~fuel:ctx.fuel ~prefix:g.g_prefix (List.map snd g.g_members)
      with
      | reports -> List.map2 (fun (v, _) r -> (v, r)) g.g_members reports
      | exception Machine.Simulate.Violation x ->
          Diagnostics.error ~code:"E0901" ~phase:Diagnostics.Sim "%s %s"
            (Variant.name (fst (List.nth g.g_members x.Machine.Simulate.member)))
            (Machine.Simulate.describe x))
