(** Typed compilation passes.

    A pass is a named, registered stage with a typed payload.  The
    payload chain mirrors the paper's Figure 3 pipeline:

    {v
    Source --parse_typecheck--> Tast --analysis--> Analyzed
           --tblconst--> Hli --serialize--> Hli
           --lower--> Mapped --hli_import--> Mapped
           --cse/licm/unroll--> Mapped --ddg_schedule--> Schedules
    Scheduled (one of the Schedules) --simulate--> Simulated
    v}

    Stages are a GADT so a pipeline is checked — statically where the
    pass list is literal, dynamically (with a {!Diagnostics} error, not
    a [Match_failure]) where it is assembled from CLI specs.  The pass
    manager derives each pass's telemetry span as
    [prefix ^ "." ^ name], which is how the hand-maintained span
    strings of the seed's [pipeline.ml] became derived data. *)

type source = { src : string; src_file : string option }

type analyzed = {
  a_prog : Srclang.Tast.program;
  a_ctx : Hligen.Tblconst.context;
}

type hli = {
  h_prog : Srclang.Tast.program;
  h_entries : Hli_core.Tables.hli_entry list;
  h_bytes : int;  (** serialized size; 0 until the [serialize] pass runs *)
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

type _ stage =
  | Source : source stage
  | Tast : Srclang.Tast.program stage
  | Analyzed : analyzed stage
  | Hli : hli stage
  | Mapped : mapped stage
  | Schedules : schedules stage
  | Scheduled : scheduled stage
  | Simulated : Machine.Simulate.report stage

let stage_name : type a. a stage -> string = function
  | Source -> "source"
  | Tast -> "tast"
  | Analyzed -> "analyzed"
  | Hli -> "hli"
  | Mapped -> "mapped"
  | Schedules -> "schedules"
  | Scheduled -> "scheduled"
  | Simulated -> "simulated"

type (_, _) eq = Eq : ('a, 'a) eq

let stage_eq : type a b. a stage -> b stage -> (a, b) eq option =
 fun a b ->
  match (a, b) with
  | Source, Source -> Some Eq
  | Tast, Tast -> Some Eq
  | Analyzed, Analyzed -> Some Eq
  | Hli, Hli -> Some Eq
  | Mapped, Mapped -> Some Eq
  | Schedules, Schedules -> Some Eq
  | Scheduled, Scheduled -> Some Eq
  | Simulated, Simulated -> Some Eq
  | _ -> None

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

(** Execution context threaded through every pass.  [spanf] is the
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
  alias : Backend.Ddg.mode option;
      (** [None] while running the alias-independent front end *)
  machine : Variant.machine option;
      (** [None] in the front end and in the machine-independent
          back end, [ddg_schedule] included *)
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
    a front-end context (an internal pipeline-assembly bug, not a user
    error). *)
let the_alias c =
  match c.alias with Some a -> a | None -> no_context "alias"

(** The machine of a per-variant context; raises the same diagnostic
    in the front end and in the shared back end. *)
let the_machine c =
  match c.machine with Some m -> m | None -> no_context "machine"

let the_variant c = { Variant.alias = the_alias c; machine = the_machine c }

type t =
  | P : {
      name : string;
      prefix : string;  (** telemetry namespace; span = prefix ^ "." ^ name *)
      doc : string;
      structural : bool;
          (** part of the fixed pipeline skeleton — always runs, not
              selectable via [--passes] *)
      takes_arg : bool;  (** accepts [name=N] in a pass spec *)
      default_arg : int option;
      after : string list;
          (** passes that must run earlier when co-selected *)
      maintains_hli : bool;
          (** edits HLI entries through {!Hli_core.Maintain} *)
      input : 'i stage;
      output : 'o stage;
      run : ctx -> arg:int option -> 'i -> 'o;
    }
      -> t

let name (P p) = p.name
let doc (P p) = p.doc
let span_name (P p) = p.prefix ^ "." ^ p.name
let is_structural (P p) = p.structural
let takes_arg (P p) = p.takes_arg
let default_arg (P p) = p.default_arg
let after (P p) = p.after
let maintains_hli (P p) = p.maintains_hli
let input_stage_name (P p) = stage_name p.input
let output_stage_name (P p) = stage_name p.output
