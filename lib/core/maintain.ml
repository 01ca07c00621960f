(** HLI maintenance functions (paper Section 3.2.3).

    As the back end optimizes, memory references are deleted (CSE), moved
    (loop-invariant removal) or duplicated (unrolling); these functions
    keep the HLI tables consistent with such changes so later passes can
    still query it.  A {!t} is the one HLI session of a program unit —
    the in-process back end and hlid both keep one per unit.

    Queries read {!queried}, the index as of the last end-of-pass
    {!barrier}: edits change the maintained entry at once, but a pass
    keeps reading the structure it started with (its memo tables are
    emptied by every edit).  The barrier moves the queries to the
    maintained entry's index, built at most once per edited pass; a
    pass that edits nothing keeps its index, memos included. *)

open Tables

type t = {
  mutable entry : hli_entry;
  (* the query index of [entry]; [None] from an edit until something
     needs it again *)
  mutable index : Query.index option;
  (* the index queries read; the entry is unedited since the last
     barrier exactly when [index] is still this one *)
  mutable queried : Query.index;
}

(** A session on [entry].  [index], when given, must be an index of
    [entry] (the unit's current one); without it one is built. *)
let start ?index entry =
  let queried =
    match index with Some idx -> idx | None -> Query.build entry
  in
  { entry; index = Some queried; queried }

(** The index queries read: the start index until the first
    {!barrier} after an edit. *)
let queried m = m.queried

(* after every edit: the index no longer describes the entry, and the
   queried index may have memoized an answer the edit changed *)
let edited m =
  m.index <- None;
  Query.invalidate m.queried

let index m =
  match m.index with
  | Some idx -> idx
  | None ->
      let idx = Query.build m.entry in
      m.index <- Some idx;
      idx

(** The maintained entry and its index. *)
let commit m = (m.entry, index m)

(** The end-of-pass barrier: after an edit, queries move to the
    maintained entry's index and the result is [true]; with no edit
    since the last barrier nothing changes and the result is
    [false]. *)
let barrier m =
  match m.index with
  | Some idx when idx == m.queried -> false
  | _ ->
      m.queried <- index m;
      true

(** The LICM hoist decision: the parent of [item]'s region in the
    maintained entry. *)
let hoist_target m item =
  match Query.get_region_of_item (index m) item with
  | Some rid -> Option.bind (find_region m.entry rid) (fun r -> r.parent)
  | None -> None

let next_free_id m =
  let from_items =
    List.fold_left
      (fun acc le -> List.fold_left (fun a it -> max a it.item_id) acc le.items)
      0 m.entry.line_table
  in
  let from_classes =
    List.fold_left
      (fun acc r -> List.fold_left (fun a c -> max a c.class_id) acc r.eq_classes)
      0 m.entry.regions
  in
  1 + max from_items from_classes

(* map over all regions *)
let update_regions m f =
  m.entry <- { m.entry with regions = List.map f m.entry.regions }

let update_line_table m f = m.entry <- { m.entry with line_table = f m.entry.line_table }

(* ------------------------------------------------------------------ *)
(* Deleting an item (e.g. a load removed by CSE)                       *)
(* ------------------------------------------------------------------ *)

(** Remove [item] from the line table and from every equivalence class.
    Classes left empty are dropped, along with alias/LCDD/REFMOD rows
    that referenced them. *)
let delete_item m item =
  update_line_table m (fun lt ->
      List.filter_map
        (fun le ->
          let items = List.filter (fun it -> it.item_id <> item) le.items in
          if items = [] then None else Some { le with items })
        lt);
  (* remove membership *)
  update_regions m (fun r ->
      {
        r with
        eq_classes =
          List.map
            (fun c ->
              {
                c with
                members =
                  List.filter
                    (fun mbr ->
                      match mbr with
                      | Member_item id -> id <> item
                      | Member_subclass _ -> true)
                    c.members;
              })
            r.eq_classes;
      });
  (* drop empty classes, cascading through subclass references *)
  let rec drop_empties () =
    let empty_ids = ref [] in
    update_regions m (fun r ->
        let keep, dead =
          List.partition (fun c -> c.members <> []) r.eq_classes
        in
        List.iter (fun c -> empty_ids := (r.region_id, c.class_id) :: !empty_ids) dead;
        { r with eq_classes = keep });
    match !empty_ids with
    | [] -> ()
    | dead ->
        update_regions m (fun r ->
            let drop_cls cid = List.exists (fun (_, d) -> d = cid) dead in
            let member_dead = function
              | Member_subclass { sub_region; cls } ->
                  List.exists (fun (rr, dd) -> rr = sub_region && dd = cls) dead
              | Member_item _ -> false
            in
            {
              r with
              eq_classes =
                List.map
                  (fun c ->
                    { c with members = List.filter (fun mb -> not (member_dead mb)) c.members })
                  r.eq_classes;
              aliases =
                List.filter_map
                  (fun a ->
                    let cs = List.filter (fun c -> not (drop_cls c)) a.alias_classes in
                    if List.length cs >= 2 then Some { alias_classes = cs }
                    else None)
                  r.aliases;
              lcdds =
                List.filter
                  (fun l -> not (drop_cls l.lcdd_src || drop_cls l.lcdd_dst))
                  r.lcdds;
              callrefmods =
                List.map
                  (fun e ->
                    {
                      e with
                      ref_classes = List.filter (fun c -> not (drop_cls c)) e.ref_classes;
                      mod_classes = List.filter (fun c -> not (drop_cls c)) e.mod_classes;
                    })
                  r.callrefmods;
            });
        drop_empties ()
  in
  drop_empties ();
  edited m

(* ------------------------------------------------------------------ *)
(* Generating and inheriting items                                     *)
(* ------------------------------------------------------------------ *)

let insert_in_line_table lt ~line ~item ~acc =
  let rec go = function
    | [] -> [ { line_no = line; items = [ { item_id = item; acc } ] } ]
    | le :: rest ->
        if le.line_no = line then
          { le with items = le.items @ [ { item_id = item; acc } ] } :: rest
        else if le.line_no > line then
          { line_no = line; items = [ { item_id = item; acc } ] } :: le :: rest
        else le :: go rest
  in
  go lt

(** Create a new item that inherits the attributes (access type and
    equivalence class) of [like], placed on [line].  Returns the new
    item id.  This is the generate+inherit primitive used by unrolling
    and rematerialization. *)
let gen_item m ~like ~line =
  let idx = index m in
  let acc = Option.value ~default:Acc_load (Query.access_type idx like) in
  let id = next_free_id m in
  update_line_table m (fun lt -> insert_in_line_table lt ~line ~item:id ~acc);
  (match Flatindex.direct_class idx.Query.image like with
  | Some (rid, cid) ->
      update_regions m (fun r ->
          if r.region_id <> rid then r
          else
            {
              r with
              eq_classes =
                List.map
                  (fun c ->
                    if c.class_id = cid then
                      { c with members = c.members @ [ Member_item id ] }
                    else c)
                  r.eq_classes;
            })
  | None -> ());
  edited m;
  id

(** Make [item] a member of the class that represents it in [target_rid]
    instead of its current (inner) class — the loop-invariant-removal
    move: the reference now executes in the outer region. *)
let move_item_outward m ~item ~target_rid =
  let idx = index m in
  match
    (Flatindex.direct_class idx.Query.image item, Query.class_at idx ~rid:target_rid item)
  with
  | Some (cur_rid, cur_cid), Some target_cid when cur_rid <> target_rid ->
      (* remove from the inner class *)
      update_regions m (fun r ->
          if r.region_id = cur_rid then
            {
              r with
              eq_classes =
                List.map
                  (fun c ->
                    if c.class_id = cur_cid then
                      {
                        c with
                        members =
                          List.filter
                            (fun mb -> mb <> Member_item item)
                            c.members;
                      }
                    else c)
                  r.eq_classes;
            }
          else if r.region_id = target_rid then
            {
              r with
              eq_classes =
                List.map
                  (fun c ->
                    if c.class_id = target_cid then
                      { c with members = c.members @ [ Member_item item ] }
                    else c)
                  r.eq_classes;
            }
          else r);
      edited m;
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Loop unrolling (paper Figure 6)                                     *)
(* ------------------------------------------------------------------ *)

(** Result of unrolling region [rid] by [factor]: for every original
    item the ids of its copies (copy 0 is the original), and the updated
    entry.  The LCDD table of the unrolled loop is recomputed from the
    original distances: a dependence with distance [d] from copy [i]
    lands on copy [(i + d) mod factor] at new distance [(i + d) /
    factor]; dependences that land within the same unrolled body
    ([i + d < factor]) become same-iteration alias entries. *)
type unroll_result = {
  copies : (int * int array) list;  (** original item id -> per-copy ids *)
  new_classes : (int * int array) list;  (** original class -> per-copy class ids *)
}

let unroll m ~rid ~factor =
  if factor < 2 then
    Diagnostics.error ~code:"E0701" ~phase:(Diagnostics.Opt "unroll")
      "unroll: factor must be >= 2 (got %d)" factor;
  let entry = m.entry in
  let r =
    match find_region entry rid with
    | Some r -> r
    | None ->
        Diagnostics.error ~code:"E0702" ~phase:(Diagnostics.Opt "unroll")
          "unroll: no region %d in unit %s" rid entry.unit_name
  in
  let idx = index m in
  (* items directly in classes of this region (not via subclasses) *)
  let direct_items =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun mb -> match mb with Member_item id -> Some id | Member_subclass _ -> None)
          c.members)
      r.eq_classes
  in
  let next = ref (next_free_id m) in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let copies =
    List.map
      (fun it ->
        let arr = Array.init factor (fun k -> if k = 0 then it else fresh ()) in
        (it, arr))
      direct_items
  in
  (* copy classes: class C -> C_0 .. C_{factor-1}; C_0 reuses the id *)
  let new_classes =
    List.map
      (fun c ->
        let arr = Array.init factor (fun k -> if k = 0 then c.class_id else fresh ()) in
        (c.class_id, arr))
      r.eq_classes
  in
  let class_copy cid k =
    match List.assoc_opt cid new_classes with
    | Some arr -> arr.(k)
    | None -> cid
  in
  (* new line-table entries for the copies, on the item's original line *)
  update_line_table m (fun lt ->
      List.fold_left
        (fun lt (orig, arr) ->
          let line = Option.value ~default:0 (Query.line_of_item idx orig) in
          let acc = Option.value ~default:Acc_load (Query.access_type idx orig) in
          let lt = ref lt in
          Array.iteri
            (fun k id ->
              if k > 0 then lt := insert_in_line_table !lt ~line ~item:id ~acc)
            arr;
          !lt)
        lt copies)
  ;
  (* rebuild the region: per-copy classes, remapped LCDD, widened
     aliases *)
  let unrolled_classes =
    List.concat_map
      (fun c ->
        List.init factor (fun k ->
            let members =
              List.filter_map
                (fun mb ->
                  match mb with
                  | Member_item id -> (
                      match List.assoc_opt id copies with
                      | Some arr -> Some (Member_item arr.(k))
                      | None -> None)
                  | Member_subclass _ as s ->
                      (* sub-loop contents are not duplicated per copy 0 *)
                      if k = 0 then Some s else None)
                c.members
            in
            {
              class_id = class_copy c.class_id k;
              kind = c.kind;
              desc = (if k = 0 then c.desc else Printf.sprintf "%s.u%d" c.desc k);
              members;
            }))
      r.eq_classes
    |> List.filter (fun c -> c.members <> [])
  in
  let new_lcdds = ref [] and new_aliases = ref (r.aliases) in
  List.iter
    (fun l ->
      match l.lcdd_distance with
      | None ->
          (* Unknown distance: it may be any d >= 1, so besides keeping a
             maybe-LCDD between every pair of copies, copies of different
             original iterations that now share one unrolled iteration
             may touch the same location — record cross-copy aliases. *)
          for i = 0 to factor - 1 do
            for j = 0 to factor - 1 do
              new_lcdds :=
                {
                  lcdd_src = class_copy l.lcdd_src i;
                  lcdd_dst = class_copy l.lcdd_dst j;
                  lcdd_dep = Dep_maybe;
                  lcdd_distance = None;
                }
                :: !new_lcdds;
              if i <> j then
                new_aliases :=
                  {
                    alias_classes =
                      [ class_copy l.lcdd_src i; class_copy l.lcdd_dst j ];
                  }
                  :: !new_aliases
            done
          done
      | Some d ->
          for i = 0 to factor - 1 do
            let target = i + d in
            if target < factor then
              (* lands inside the same unrolled body: now a
                 same-iteration relation *)
              new_aliases :=
                {
                  alias_classes =
                    [ class_copy l.lcdd_src i; class_copy l.lcdd_dst target ];
                }
                :: !new_aliases
            else
              new_lcdds :=
                {
                  lcdd_src = class_copy l.lcdd_src i;
                  lcdd_dst = class_copy l.lcdd_dst (target mod factor);
                  lcdd_dep = l.lcdd_dep;
                  lcdd_distance = Some (target / factor);
                }
                :: !new_lcdds
          done)
    r.lcdds;
  (* existing alias entries apply to every copy pair of the involved
     classes (conservative widening) *)
  let widened_aliases =
    List.concat_map
      (fun a ->
        List.init factor (fun k ->
            { alias_classes = List.map (fun c -> class_copy c k) a.alias_classes }))
      !new_aliases
  in
  update_regions m (fun reg ->
      if reg.region_id <> rid then reg
      else
        {
          reg with
          eq_classes = unrolled_classes;
          lcdds = List.rev !new_lcdds;
          aliases = widened_aliases;
        });
  edited m;
  { copies; new_classes }
