(** The High-Level Information (HLI) format — logical schema.

    Follows Section 2 of the paper exactly.  An HLI {e file} holds one
    {e entry} per program unit; each entry has a {b line table} (mapping
    source lines to memory/call items, in back-end instruction order) and
    a {b region table} (per-region equivalent-access, alias, loop-carried
    data dependence and call REF/MOD sub-tables).

    Everything here is deliberately independent of both the front end and
    the back end: items, classes and regions are plain integers, and the
    only strings are unit names, callee names and optional human-readable
    descriptors.  That independence is the paper's central design claim —
    the same file can serve any front-end/back-end pair. *)

(** Access type of an item (paper: "load, store, function call, etc."). *)
type access_type = Acc_load | Acc_store | Acc_call

(** Equivalence strength of a class (Section 2.2.1): [Definitely] means
    all member accesses touch the same location; [Maybe] means the front
    end merged possibly-overlapping accesses to keep the HLI small. *)
type equiv_kind = Definitely | Maybe

(** Dependence strength in the LCDD table. *)
type dep_type = Dep_definite | Dep_maybe

(* ------------------------------------------------------------------ *)
(* Line table                                                          *)
(* ------------------------------------------------------------------ *)

type item_entry = {
  item_id : int;  (** unique within the program unit *)
  acc : access_type;
}

type line_entry = {
  line_no : int;
  items : item_entry list;
      (** in the exact order the back end's instruction list contains
          the corresponding memory references (Section 2.1) *)
}

type line_table = line_entry list
(** sorted by [line_no] *)

(* ------------------------------------------------------------------ *)
(* Region table                                                        *)
(* ------------------------------------------------------------------ *)

(** A member of an equivalence class: either an item immediately enclosed
    by the region, or a whole class of an immediate sub-region. *)
type member =
  | Member_item of int
  | Member_subclass of { sub_region : int; cls : int }

type eq_class = {
  class_id : int;
      (** drawn from the same id space as items, per the paper ("each
          equivalent access class has a unique item ID") *)
  kind : equiv_kind;
  members : member list;
  desc : string;  (** human-readable location, e.g. ["b[0..9]"] *)
}

type alias_entry = {
  alias_classes : int list;
      (** ids of classes of this region that may overlap at run time *)
  alias_prob : int option;
      (** HLI3 probability section: likelihood the classes really do
          overlap at run time, in per-mille (0..1000), derived from
          points-to set cardinalities.  [None] = no estimate (no
          evidence was available); consumers treat absence as
          "assume the alias" *)
}

type lcdd_entry = {
  lcdd_src : int;  (** class id at the earlier iteration *)
  lcdd_dst : int;  (** class id at the later iteration *)
  lcdd_dep : dep_type;
  lcdd_distance : int option;
      (** iteration distance, normalized forward ('>'); [None] = unknown *)
  lcdd_prob : int option;
      (** HLI3 probability section: likelihood the dependence is real,
          in per-mille (0..1000), derived from affine-test slack
          (GCD/Banerjee margins).  [None] = no estimate *)
}

(** Key of a call REF/MOD entry: a call item immediately enclosed by the
    region, or a sub-region standing for all calls within it. *)
type call_key = Key_call_item of int | Key_sub_region of int

type callrefmod_entry = {
  call_key : call_key;
  ref_classes : int list;
  mod_classes : int list;
  (* When true, the call's effect could not be bounded: it may touch any
     memory (e.g. pointers laundered through memory). *)
  refmod_all : bool;
}

type region_type = Region_unit | Region_loop

type region_entry = {
  region_id : int;  (** the unit region is 1 *)
  rtype : region_type;
  parent : int option;
  first_line : int;
  last_line : int;
  eq_classes : eq_class list;
  aliases : alias_entry list;
  lcdds : lcdd_entry list;
  callrefmods : callrefmod_entry list;
}

(* ------------------------------------------------------------------ *)
(* File                                                                *)
(* ------------------------------------------------------------------ *)

type hli_entry = {
  unit_name : string;  (** function name *)
  line_table : line_table;
  regions : region_entry list;  (** preorder; head is the unit region *)
}

type hli_file = { entries : hli_entry list }

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let find_entry file name =
  List.find_opt (fun e -> e.unit_name = name) file.entries

let find_region entry rid =
  List.find_opt (fun r -> r.region_id = rid) entry.regions

let find_class region cid =
  List.find_opt (fun c -> c.class_id = cid) region.eq_classes

let items_of_line entry line =
  match List.find_opt (fun le -> le.line_no = line) entry.line_table with
  | Some le -> le.items
  | None -> []

(** All item ids of a unit, in line-table order. *)
let all_items entry =
  List.concat_map (fun le -> List.map (fun it -> it.item_id) le.items) entry.line_table

let acc_to_string = function
  | Acc_load -> "load"
  | Acc_store -> "store"
  | Acc_call -> "call"

let pp_member ppf = function
  | Member_item id -> Fmt.pf ppf "i%d" id
  | Member_subclass { sub_region; cls } -> Fmt.pf ppf "R%d.c%d" sub_region cls

let pp_class ppf c =
  Fmt.pf ppf "c%d%s \"%s\" = {@[<h>%a@]}" c.class_id
    (match c.kind with Definitely -> "" | Maybe -> "?")
    c.desc
    Fmt.(list ~sep:comma pp_member)
    c.members

(** Render a per-mille probability as a compact decimal, e.g. 850 ->
    ["0.85"]; integer arithmetic only, so output is deterministic. *)
let prob_to_string p =
  if p mod 10 = 0 then
    if p mod 100 = 0 then Printf.sprintf "%d.%d" (p / 1000) (p mod 1000 / 100)
    else Printf.sprintf "%d.%02d" (p / 1000) (p mod 1000 / 10)
  else Printf.sprintf "%d.%03d" (p / 1000) (p mod 1000)

let pp_prob ppf = function
  | None -> ()
  | Some p -> Fmt.pf ppf ", p=%s" (prob_to_string p)

let pp_lcdd ppf l =
  Fmt.pf ppf "c%d -> c%d (%s, d=%s%a)" l.lcdd_src l.lcdd_dst
    (match l.lcdd_dep with Dep_definite -> "definite" | Dep_maybe -> "maybe")
    (match l.lcdd_distance with Some d -> string_of_int d | None -> "?")
    pp_prob l.lcdd_prob

let pp_region ppf r =
  Fmt.pf ppf "@[<v 2>region %d (%s, lines %d-%d%s):@,classes: @[<v>%a@]@,aliases: @[<h>%a@]@,lcdd: @[<v>%a@]@,calls: %d entries@]"
    r.region_id
    (match r.rtype with Region_unit -> "unit" | Region_loop -> "loop")
    r.first_line r.last_line
    (match r.parent with Some p -> Fmt.str ", parent %d" p | None -> "")
    Fmt.(list ~sep:cut pp_class)
    r.eq_classes
    Fmt.(
      list ~sep:semi (fun ppf a ->
          pf ppf "{%a%a}" (list ~sep:comma int) a.alias_classes pp_prob
            a.alias_prob))
    r.aliases
    Fmt.(list ~sep:cut pp_lcdd)
    r.lcdds
    (List.length r.callrefmods)

let pp_entry ppf e =
  Fmt.pf ppf "@[<v 2>unit %s:@,%d lines, %d items, %d regions@,%a@]" e.unit_name
    (List.length e.line_table)
    (List.length (all_items e))
    (List.length e.regions)
    Fmt.(list ~sep:cut pp_region)
    e.regions
