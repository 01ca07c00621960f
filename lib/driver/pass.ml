(** The payloads of the fixed pipeline (the paper's Figure 3) and the
    context its back-end steps run in.

    {v
    source --parse_typecheck, analysis, tblconst, serialize--> hli
           --lower, hli_import, cse/licm/unroll--> mapped
           --ddg_schedule--> schedules
    scheduled (one of the schedules) --simulate--> report
    v}

    The front half is [Harness.Pipeline.frontend]; the back-end steps
    are plain functions of {!Pass_manager}. *)

type hli = {
  h_prog : Srclang.Tast.program;
  h_entries : Hli_core.Tables.hli_entry list;
  h_bytes : int;  (** Table 1's size ([Serialize.size_bytes]) *)
}

(** A human-readable per-pass result note (e.g. CSE elimination counts),
    accumulated so drivers can report what the optional passes did. *)
type note = { n_pass : string; n_text : string }

type mapped = {
  m_entries : Hli_core.Tables.hli_entry list;
      (** current entries — maintenance passes replace edited ones *)
  m_rtl : Backend.Rtl.program;
  m_maps : (string, Backend.Hli_import.t) Hashtbl.t;  (** by unit name *)
  m_unmapped : int;  (** memory refs the line mapping could not cover *)
  m_duplicates : int;  (** duplicate HLI item ids found while indexing *)
  m_dropped : int;  (** HLI entries whose unit has no RTL function *)
  m_notes : note list;
}

type scheduled = {
  s_rtl : Backend.Rtl.program;
  s_stats : Backend.Ddg.stats;
  s_unmapped : int;
  s_duplicates : int;
  s_dropped : int;
  s_notes : note list;
}

(** One alias mode's schedules, one per machine of {!Variant.machines},
    in that order. *)
type schedules = (Variant.machine * scheduled) list

(** Hooks giving the back end a remote HLI session (hlid) for one
    unit.  The closures route to Batch/Notify_* wire frames; the
    driver layer stays ignorant of the protocol. *)
type remote_unit = {
  ru_source : Backend.Hli_import.query_source;
  ru_maint : Backend.Hli_import.maint;
  ru_refresh : unit -> unit;
      (** end-of-pass barrier: the server replays [Maintain.commit]'s
          index replacement so the next pass queries fresh structure *)
  ru_line_table : unit -> Hli_core.Tables.line_table;
  ru_dups : int list;  (** duplicate item ids, from the server's open *)
}

(** A remote HLI back end: [remote_unit] answers [None] when the
    server session has no such unit (the import falls back to the
    local entry). *)
type remote = { remote_unit : string -> remote_unit option }

(** Execution context of the back-end steps.  [spanf] is the
    telemetry hook — the harness supplies [Telemetry.span], so the
    driver layer never depends on the harness.

    The variant is split in two because the back end is: everything up
    to and including [ddg_schedule] runs once per alias mode, in a
    context without a machine ([ddg_schedule] builds each block's DDG
    once and list-schedules it for every machine), and only [simulate]
    runs once per variant.  A pass of the shared prefix that starts
    reading the machine fails ({!the_machine}) instead of having its
    result silently shared by both machines. *)
type ctx = {
  span : spanf;
  alias : Backend.Ddg.mode option;  (** [None] without a variant *)
  machine : Variant.machine option;
      (** [None] in the machine-independent back end, [ddg_schedule]
          included *)
  ablation : Variant.ablation;
  fuel : int;  (** simulation fuel budget *)
  remote : remote option;
      (** when set, the [With_hli] back end imports/queries/maintains
          HLI over a hlid session instead of in-process indexes *)
}

and spanf = { spanf : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { spanf = (fun _ f -> f ()) }

(** [?variant] sets both halves; [?alias] alone makes a back-end
    prefix context. *)
let ctx ?(spanf = no_span) ?variant ?alias ?(ablation = Variant.baseline)
    ?(fuel = 400_000_000) ?remote () =
  let alias =
    match variant with Some v -> Some v.Variant.alias | None -> alias
  in
  let machine = Option.map (fun v -> v.Variant.machine) variant in
  { span = spanf; alias; machine; ablation; fuel; remote }

let no_context what =
  Diagnostics.error ~code:"E1010" ~phase:Diagnostics.Driver
    "%s-dependent pass run without %s context" what what

(** The alias mode of a back-end context; raises a driver diagnostic in
    a context without one (a driver bug, not a user error). *)
let the_alias c =
  match c.alias with Some a -> a | None -> no_context "alias"

(** The machine of a per-variant context; raises the same diagnostic
    in the shared back end. *)
let the_machine c =
  match c.machine with Some m -> m | None -> no_context "machine"

let the_variant c = { Variant.alias = the_alias c; machine = the_machine c }
