(** Slow reference oracle for the HLI query engine.

    This is the pre-index implementation of {!Hli_core.Query}, kept
    verbatim as a differential-testing oracle: it answers each query by
    walking subclass links with [List.assoc]/[List.mem_assoc] and by
    linearly scanning [entry.regions] for line containment, with no
    precomputation beyond the base hash tables and no memoization.

    It deliberately shares {!Hli_core.Query}'s result types and bumps
    the same per-kind counters, so a query stream replayed against both
    engines must produce identical answers {e and} identical counter
    totals (see [test_query_equiv.ml]).  It lives with the tests, its
    only callers. *)

open Hli_core
open Tables

type index = {
  entry : hli_entry;
  region_by_id : (int, region_entry) Hashtbl.t;
  (* innermost class containing each item: item id -> (region, class) *)
  direct_class : (int, int * int) Hashtbl.t;
  (* subclass links: (sub_region, class) -> (region, class) of parent *)
  class_up : (int * int, int * int) Hashtbl.t;
  acc_of_item : (int, access_type) Hashtbl.t;
  line_of_item : (int, int) Hashtbl.t;
}

let build (entry : hli_entry) : index =
  let region_by_id = Hashtbl.create 16 in
  let direct_class = Hashtbl.create 64 in
  let class_up = Hashtbl.create 64 in
  let acc_of_item = Hashtbl.create 64 in
  let line_of_item = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace region_by_id r.region_id r) entry.regions;
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          List.iter
            (fun m ->
              match m with
              | Member_item id -> Hashtbl.replace direct_class id (r.region_id, c.class_id)
              | Member_subclass { sub_region; cls } ->
                  Hashtbl.replace class_up (sub_region, cls) (r.region_id, c.class_id))
            c.members)
        r.eq_classes)
    entry.regions;
  List.iter
    (fun le ->
      List.iter
        (fun it ->
          Hashtbl.replace acc_of_item it.item_id it.acc;
          Hashtbl.replace line_of_item it.item_id le.line_no)
        le.items)
    entry.line_table;
  { entry; region_by_id; direct_class; class_up; acc_of_item; line_of_item }

(* ------------------------------------------------------------------ *)
(* Basic queries                                                       *)
(* ------------------------------------------------------------------ *)

let region idx rid = Hashtbl.find_opt idx.region_by_id rid

let access_type idx item = Hashtbl.find_opt idx.acc_of_item item

let line_of_item idx item = Hashtbl.find_opt idx.line_of_item item

let get_region_of_item idx item =
  Query.count_query Query.Q_region_of_item;
  Option.map fst (Hashtbl.find_opt idx.direct_class item)

(** The class representing [item] in region [rid], walking subclass
    links upward from the item's innermost region. *)
let class_at idx ~rid item =
  let rec walk (r, c) =
    if r = rid then Some c
    else
      match Hashtbl.find_opt idx.class_up (r, c) with
      | Some up -> walk up
      | None -> None
  in
  Option.bind (Hashtbl.find_opt idx.direct_class item) walk

let class_chain idx item =
  let rec walk acc rc =
    let acc = rc :: acc in
    match Hashtbl.find_opt idx.class_up rc with
    | Some up -> walk acc up
    | None -> List.rev acc
  in
  match Hashtbl.find_opt idx.direct_class item with
  | Some rc -> walk [] rc
  | None -> []

let class_kind idx ~rid cid =
  match region idx rid with
  | None -> None
  | Some r -> Option.map (fun c -> c.kind) (find_class r cid)

let classes_aliased (r : region_entry) a b =
  List.exists
    (fun ae -> List.mem a ae.alias_classes && List.mem b ae.alias_classes)
    r.aliases

let get_equiv_acc idx item_a item_b : Query.equiv_result =
  Query.count_query Query.Q_equiv_acc;
  let chain_a = class_chain idx item_a and chain_b = class_chain idx item_b in
  if chain_a = [] || chain_b = [] then Query.Equiv_unknown
  else begin
    (* find the innermost region present in both chains *)
    let common =
      List.find_opt (fun (r, _) -> List.mem_assoc r chain_b) chain_a
    in
    match common with
    | None -> Query.Equiv_unknown
    | Some (rid, ca) -> (
        let cb = List.assoc rid chain_b in
        if ca = cb then
          match class_kind idx ~rid ca with
          | Some k -> Query.Equiv_same k
          | None -> Query.Equiv_unknown
        else
          match region idx rid with
          | Some r ->
              if classes_aliased r ca cb then Query.Equiv_alias
              else Query.Equiv_none
          | None -> Query.Equiv_unknown)
  end

let get_alias idx ~rid cls_a cls_b =
  Query.count_query Query.Q_alias;
  match region idx rid with
  | None -> false
  | Some r -> classes_aliased r cls_a cls_b

let get_lcdd idx ~rid item_a item_b =
  Query.count_query Query.Q_lcdd;
  match (region idx rid, class_at idx ~rid item_a, class_at idx ~rid item_b) with
  | Some r, Some ca, Some cb ->
      Some
        (List.filter
           (fun l ->
             (l.lcdd_src = ca && l.lcdd_dst = cb)
             || (l.lcdd_src = cb && l.lcdd_dst = ca))
           r.lcdds)
  | _ -> None

let get_call_acc idx ~call ~mem : Query.call_acc_result =
  Query.count_query Query.Q_call_acc;
  (* Find a region whose callrefmod table covers this call, preferring
     the innermost region that also represents [mem]. *)
  let covering (r : region_entry) =
    List.find_opt
      (fun e ->
        match e.call_key with
        | Key_call_item id -> id = call
        | Key_sub_region sr -> (
            (* the call is inside sub-region sr *)
            match Hashtbl.find_opt idx.region_by_id sr with
            | Some sub -> (
                match line_of_item idx call with
                | Some ln -> ln >= sub.first_line && ln <= sub.last_line
                | None -> false)
            | None -> false))
      r.callrefmods
  in
  let rec regions_up rid acc =
    match region idx rid with
    | None -> List.rev acc
    | Some r -> (
        match r.parent with
        | None -> List.rev (r :: acc)
        | Some p -> regions_up p (r :: acc))
  in
  match line_of_item idx call with
  | None -> Query.Call_unknown
  | Some call_line -> (
      (* innermost region containing the call line *)
      let innermost =
        List.fold_left
          (fun best r ->
            if call_line >= r.first_line && call_line <= r.last_line then
              match best with
              | Some b
                when r.last_line - r.first_line < b.last_line - b.first_line ->
                  Some r
              | None -> Some r
              | _ -> best
            else best)
          None idx.entry.regions
      in
      match innermost with
      | None -> Query.Call_unknown
      | Some r0 ->
          let rec search = function
            | [] -> Query.Call_unknown
            | r :: rest -> (
                match (covering r, class_at idx ~rid:r.region_id mem) with
                | Some e, Some mc ->
                    if e.refmod_all then Query.Call_refmod
                    else begin
                      match
                        (List.mem mc e.ref_classes, List.mem mc e.mod_classes)
                      with
                      | false, false -> Query.Call_none
                      | true, false -> Query.Call_ref
                      | false, true -> Query.Call_mod
                      | true, true -> Query.Call_refmod
                    end
                | Some e, None ->
                    (* call covered but mem not representable here *)
                    if e.refmod_all then Query.Call_refmod else search rest
                | None, _ -> search rest)
          in
          search (regions_up r0.region_id []))

(* ------------------------------------------------------------------ *)
(* Derived queries                                                     *)
(* ------------------------------------------------------------------ *)

let proves_independent idx item_a item_b =
  match get_equiv_acc idx item_a item_b with
  | Query.Equiv_none -> true
  | Query.Equiv_same _ | Query.Equiv_alias | Query.Equiv_unknown -> false

let call_independent idx ~call ~mem =
  match get_call_acc idx ~call ~mem with
  | Query.Call_none -> true
  | Query.Call_ref | Query.Call_mod | Query.Call_refmod | Query.Call_unknown ->
      false
