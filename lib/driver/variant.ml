(** The compile-variant matrix and the ablation configurations.

    A variant is one point of the (alias analysis × machine) product
    the paper's Tables 1/2 are measured over; the seed hardwired the
    four points as record fields, here they are generated from the two
    axes so adding a machine or an alias mode extends the matrix
    instead of rewriting a record type.

    An {!ablation} bundles the configuration toggles behind DESIGN.md
    §5's ablation studies; [baseline] is the paper's configuration and
    each named ablation flips exactly one knob. *)

type machine = R4600 | R10000

let machines = [ R4600; R10000 ]
let machine_name = function R4600 -> "r4600" | R10000 -> "r10000"

let machdesc = function
  | R4600 -> Backend.Machdesc.r4600
  | R10000 -> Backend.Machdesc.r10000

let sim_machine = function
  | R4600 -> Machine.Simulate.R4600
  | R10000 -> Machine.Simulate.R10000

let aliases = [ Backend.Ddg.Gcc_only; Backend.Ddg.With_hli ]

let alias_name = function
  | Backend.Ddg.Gcc_only -> "gcc"
  | Backend.Ddg.With_hli -> "hli"

type t = { alias : Backend.Ddg.mode; machine : machine }

let name v = alias_name v.alias ^ "/" ^ machine_name v.machine

(** All variants, machine-major: gcc/r4600, hli/r4600, gcc/r10000,
    hli/r10000 — the canonical order every matrix consumer (pipeline,
    tables, CLI) relies on. *)
let matrix =
  List.concat_map
    (fun machine -> List.map (fun alias -> { alias; machine }) aliases)
    machines

(** The variant whose query stream backs Table 2: exactly one pass
    issues counted HLI queries (see DESIGN.md). *)
let stats_variant = { alias = Backend.Ddg.With_hli; machine = R10000 }

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §5)                                            *)
(* ------------------------------------------------------------------ *)

type ablation = {
  ab_name : string;
  ab_doc : string;
  merge_classes : bool;
      (** TBLCONST merges same-variable classes into parent regions *)
  routine_only_regions : bool;
      (** flatten the region tree to the unit region (drops loop
          regions and with them every LCDD table) *)
  combine_gcc : bool;
      (** DDG edge decision is [gcc && hli]; [false] trusts the HLI
          answer alone *)
  lsq_blocking : bool;  (** R10000 LSQ load-blocking rule *)
  speculate : int option;
      (** per-mille speculation threshold ([--speculate]): maybe-class
          store-to-load dependences with HLI confidence below it are
          dropped from the DDG, with check/recovery at run time
          ({!Backend.Ddg.build}).  [None] — the default everywhere —
          keeps schedules and simulations byte-identical to the
          non-speculative compiler *)
}

let baseline =
  {
    ab_name = "baseline";
    ab_doc = "paper configuration (no ablation)";
    merge_classes = true;
    routine_only_regions = false;
    combine_gcc = true;
    lsq_blocking = true;
    speculate = None;
  }

let ablations =
  [
    {
      baseline with
      ab_name = "merge-off";
      ab_doc = "no parent-class merging in TBLCONST (HLI size vs precision)";
      merge_classes = false;
    };
    {
      baseline with
      ab_name = "routine-regions";
      ab_doc = "routine-only regions: no loop regions, no LCDD tables";
      routine_only_regions = true;
    };
    {
      baseline with
      ab_name = "hli-only";
      ab_doc = "scheduler trusts the HLI answer alone (no GCC AND)";
      combine_gcc = false;
    };
    {
      baseline with
      ab_name = "lsq-off";
      ab_doc = "R10000 LSQ load-blocking rule disabled";
      lsq_blocking = false;
    };
  ]

(** [ab] with speculative scheduling at per-mille threshold [t] — the
    [--speculate] CLI flag composes this onto whatever ablation is
    selected. *)
let with_speculate t ab =
  {
    ab with
    ab_name = (if ab.ab_name = "baseline" then "" else ab.ab_name ^ "+")
              ^ Printf.sprintf "speculate=%d" t;
    speculate = Some t;
  }

let find_ablation n =
  List.find_opt (fun a -> a.ab_name = n) (baseline :: ablations)

let ablation_names = List.map (fun a -> a.ab_name) ablations

(** TBLCONST options this ablation implies. *)
let tblconst_options ab =
  {
    Hligen.Tblconst.merge_parent_classes = ab.merge_classes;
    routine_only_regions = ab.routine_only_regions;
  }

(** Machine description for [v] with the ablation's LSQ knob applied
    (only the R10000 has an LSQ to disable). *)
let machdesc_of ab v =
  let md = machdesc v.machine in
  if ab.lsq_blocking then md else { md with Backend.Machdesc.lsq_blocking = false }
