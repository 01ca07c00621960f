(** Structural validation of HLI files.

    The serializer ({!Serialize}) guarantees that what was decoded is
    the byte stream that was written — it says nothing about whether
    the decoded tables make {e sense}.  An HLI file is an interface
    between independent compilers, so the consumer must also check the
    {e references} inside it before building query indexes over them:
    a region that names a missing parent, an alias row over unknown
    class ids or an unsorted line table would otherwise surface much
    later as silently-wrong dependence answers.

    {!check_file} returns every problem found as an {!issue} (one
    E06xx code each, so tools can filter); {!validate} raises the first
    as a {!Diagnostics.Diagnostic}.  [Serialize.read_file] runs
    {!validate} on load by default; [hli_dump --check] prints the full
    issue list.

    Checks (codes):
    - E0621 line table not sorted by strictly increasing line number
    - E0622 duplicate region id / duplicate class id within a region
    - E0623 region line range inverted, or outside its parent's range
    - E0624 region parent unresolved, self-referential or cyclic
    - E0625 class member names an unknown sub-region or class
    - E0626 alias entry names an unknown class of its region
    - E0627 LCDD endpoint names an unknown class of its region
    - E0628 call REF/MOD entry names an unknown region or class
    - E0629 duplicate unit name in the file
    - E0637 item, region or class id or line number outside
      0..0xfffffffe, the range of the query image's u32 fields *)

open Tables

type issue = {
  i_code : string;  (** E06xx *)
  i_unit : string;  (** unit name, [""] for file-level issues *)
  i_msg : string;
}

let issue_to_string i =
  if i.i_unit = "" then Printf.sprintf "[%s] %s" i.i_code i.i_msg
  else Printf.sprintf "[%s] unit %s: %s" i.i_code i.i_unit i.i_msg

(* ------------------------------------------------------------------ *)
(* Per-entry checks                                                    *)
(* ------------------------------------------------------------------ *)

let check_entry (e : hli_entry) : issue list =
  let issues = ref [] in
  let add code fmt =
    Fmt.kstr
      (fun m -> issues := { i_code = code; i_unit = e.unit_name; i_msg = m } :: !issues)
      fmt
  in
  (* every id and line number must fit the query image ({!Flatindex}) *)
  let u32 what v =
    if v < 0 || v >= 0xffffffff then add "E0637" "%s %d outside 0..0xfffffffe" what v
  in
  List.iter
    (fun le ->
      u32 "line" le.line_no;
      List.iter (fun it -> u32 "item id" it.item_id) le.items)
    e.line_table;
  List.iter
    (fun r ->
      u32 "region id" r.region_id;
      u32 "line" r.first_line;
      u32 "line" r.last_line;
      List.iter
        (fun c ->
          u32 "class id" c.class_id;
          List.iter
            (function Member_item id -> u32 "item id" id | Member_subclass _ -> ())
            c.members)
        r.eq_classes;
      List.iter
        (fun cm ->
          match cm.call_key with
          | Key_call_item id -> u32 "item id" id
          | Key_sub_region _ -> ())
        r.callrefmods)
    e.regions;
  (* line table: strictly increasing line numbers *)
  let rec check_lines = function
    | a :: (b :: _ as rest) ->
        if b.line_no <= a.line_no then
          add "E0621" "line table not sorted: line %d follows line %d"
            b.line_no a.line_no;
        check_lines rest
    | [ _ ] | [] -> ()
  in
  check_lines e.line_table;
  (* region id table; duplicate ids make every later reference ambiguous *)
  let rtbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem rtbl r.region_id then
        add "E0622" "duplicate region id %d" r.region_id
      else Hashtbl.replace rtbl r.region_id r)
    e.regions;
  let region_exists rid = Hashtbl.mem rtbl rid in
  (* parent links: resolved, non-self, acyclic *)
  List.iter
    (fun r ->
      match r.parent with
      | None -> ()
      | Some p when p = r.region_id ->
          add "E0624" "region %d is its own parent" r.region_id
      | Some p when not (region_exists p) ->
          add "E0624" "region %d names missing parent %d" r.region_id p
      | Some _ -> ())
    e.regions;
  (* cycle check over the resolved parent links: walk up from every
     region; more steps than regions means a loop *)
  let n_regions = List.length e.regions in
  List.iter
    (fun r ->
      let rec walk rid steps =
        if steps > n_regions then
          add "E0624" "parent chain of region %d is cyclic" r.region_id
        else
          match Hashtbl.find_opt rtbl rid with
          | Some { parent = Some p; _ } when p <> rid && region_exists p ->
              walk p (steps + 1)
          | _ -> ()
      in
      walk r.region_id 0)
    e.regions;
  (* line ranges: well-ordered, and nested within the parent's range *)
  List.iter
    (fun r ->
      if r.last_line < r.first_line then
        add "E0623" "region %d has inverted line range %d-%d" r.region_id
          r.first_line r.last_line;
      match r.parent with
      | Some p when p <> r.region_id -> (
          match Hashtbl.find_opt rtbl p with
          | Some pr
            when r.first_line < pr.first_line || r.last_line > pr.last_line ->
              add "E0623"
                "region %d (lines %d-%d) escapes parent %d (lines %d-%d)"
                r.region_id r.first_line r.last_line p pr.first_line
                pr.last_line
          | _ -> ())
      | _ -> ())
    e.regions;
  (* per-region class tables, then every intra-region reference *)
  List.iter
    (fun r ->
      let ctbl = Hashtbl.create 16 in
      List.iter
        (fun c ->
          if Hashtbl.mem ctbl c.class_id then
            add "E0622" "region %d: duplicate class id %d" r.region_id
              c.class_id
          else Hashtbl.replace ctbl c.class_id ())
        r.eq_classes;
      let class_exists cid = Hashtbl.mem ctbl cid in
      let sub_class_exists ~sub_region ~cls =
        match Hashtbl.find_opt rtbl sub_region with
        | None -> false
        | Some sr -> List.exists (fun c -> c.class_id = cls) sr.eq_classes
      in
      List.iter
        (fun c ->
          List.iter
            (fun m ->
              match m with
              | Member_item _ -> ()
              | Member_subclass { sub_region; cls } ->
                  if not (region_exists sub_region) then
                    add "E0625"
                      "region %d class %d: member names missing sub-region %d"
                      r.region_id c.class_id sub_region
                  else if not (sub_class_exists ~sub_region ~cls) then
                    add "E0625"
                      "region %d class %d: member names missing class %d of \
                       sub-region %d"
                      r.region_id c.class_id cls sub_region)
            c.members)
        r.eq_classes;
      List.iter
        (fun a ->
          List.iter
            (fun cid ->
              if not (class_exists cid) then
                add "E0626" "region %d: alias entry names unknown class %d"
                  r.region_id cid)
            a.alias_classes)
        r.aliases;
      List.iter
        (fun l ->
          if not (class_exists l.lcdd_src) then
            add "E0627" "region %d: LCDD source names unknown class %d"
              r.region_id l.lcdd_src;
          if not (class_exists l.lcdd_dst) then
            add "E0627" "region %d: LCDD target names unknown class %d"
              r.region_id l.lcdd_dst)
        r.lcdds;
      List.iter
        (fun cm ->
          (match cm.call_key with
          | Key_call_item _ -> ()
          | Key_sub_region sr ->
              if not (region_exists sr) then
                add "E0628"
                  "region %d: call REF/MOD key names missing sub-region %d"
                  r.region_id sr);
          List.iter
            (fun cid ->
              if not (class_exists cid) then
                add "E0628"
                  "region %d: call REF/MOD entry names unknown class %d"
                  r.region_id cid)
            (cm.ref_classes @ cm.mod_classes))
        r.callrefmods)
    e.regions;
  List.rev !issues

(* ------------------------------------------------------------------ *)
(* File-level checks                                                   *)
(* ------------------------------------------------------------------ *)

let check_file (f : hli_file) : issue list =
  let seen = Hashtbl.create 8 in
  let dup_issues =
    List.filter_map
      (fun e ->
        if Hashtbl.mem seen e.unit_name then
          Some
            {
              i_code = "E0629";
              i_unit = e.unit_name;
              i_msg = "duplicate unit name";
            }
        else begin
          Hashtbl.replace seen e.unit_name ();
          None
        end)
      f.entries
  in
  dup_issues @ List.concat_map check_entry f.entries

(** Raise the first structural issue (annotated with how many more were
    found) as a {!Diagnostics.Diagnostic}; no-op on a clean file. *)
let validate ?file (f : hli_file) : unit =
  match check_file f with
  | [] -> ()
  | first :: rest ->
      let more =
        match List.length rest with
        | 0 -> ""
        | n -> Printf.sprintf " (and %d more issue%s)" n (if n = 1 then "" else "s")
      in
      let msg =
        if first.i_unit = "" then first.i_msg
        else Printf.sprintf "unit %s: %s" first.i_unit first.i_msg
      in
      raise
        (Diagnostics.Diagnostic
           (Diagnostics.make ?file ~code:first.i_code
              ~phase:Diagnostics.Hligen ~severity:Diagnostics.Error
              (msg ^ more)))
