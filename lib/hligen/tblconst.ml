(** TBLCONST — HLI table construction (paper Section 3.1.2).

    Traverses each function's region tree bottom-up.  For every region it
    partitions the memory items (and sub-region classes) into equivalence
    classes, derives the alias table and — for loop regions — the LCDD
    table from the dependence tests, and fills the call REF/MOD table
    from the interprocedural analysis.  The result is the complete
    {!Hli_core.Tables.hli_entry} for the unit.

    Options:
    - [merge_parent_classes] (default true): merge same-variable classes
      when propagating to the parent region, which is what keeps the HLI
      small (Figure 2's single [b\[0..9\]] class in Region 1).  Turning
      it off is the precision/size ablation of DESIGN.md.
    - [routine_only_regions] (default false): flatten each unit's region
      tree to the routine region before building tables — no loop
      regions, hence no LCDDs (DESIGN.md §5's region-granularity
      ablation). *)

open Srclang
open Analysis
module T = Hli_core.Tables

type options = {
  merge_parent_classes : bool;
  routine_only_regions : bool;
}

let default_options =
  { merge_parent_classes = true; routine_only_regions = false }

type context = {
  opts : options;
  pointsto : Pointsto.result;
  refmod : Refmod.t;
  prog : Tast.program;
}

let make_context ?(opts = default_options) (prog : Tast.program) : context =
  let pointsto = Pointsto.analyze prog in
  let refmod = Refmod.analyze prog pointsto in
  { opts; pointsto; refmod; prog }

(* ------------------------------------------------------------------ *)
(* Scalar modification sets                                            *)
(* ------------------------------------------------------------------ *)

(* Scalar symbols assigned anywhere within the region subtree (including
   loop induction updates).  A symbol NOT in this set has a single value
   throughout one execution of the region, so it may cancel in symbolic
   subscript comparisons. *)
let modified_scalars (r : Frontir.Region.t) : Symbol.Set.t =
  let add_stmt acc (st : Tast.stmt) =
    match st.Tast.sdesc with
    | Tast.Sassign ({ ldesc = Tast.Lvar s; _ }, _) -> Symbol.Set.add s acc
    | _ -> acc
  in
  let rec gather acc (reg : Frontir.Region.t) =
    let acc = List.fold_left add_stmt acc reg.Frontir.Region.stmts in
    let acc =
      (* for-loop headers update their induction variables *)
      match reg.Frontir.Region.kind with
      | Frontir.Region.Loop_region { ivar = Some iv; _ } -> Symbol.Set.add iv acc
      | _ -> acc
    in
    List.fold_left gather acc reg.Frontir.Region.subs
  in
  gather Symbol.Set.empty r

(* Symbols that a function call within the region may modify: symbolic
   subscripts involving them cannot cancel across a call... we fold this
   into the modified set conservatively. *)
let call_modified (ctx : context) (r : Frontir.Region.t) (items : Frontir.Itemgen.item list)
    : Symbol.Set.t option =
  (* None = a call may modify anything *)
  List.fold_left
    (fun acc it ->
      match (acc, it.Frontir.Itemgen.kind) with
      | None, _ -> None
      | Some set, Frontir.Itemgen.Call_item callee -> (
          match (Refmod.call_effect ctx.refmod callee).Refmod.mods with
          | Refmod.All -> None
          | Refmod.Syms s -> Some (Symbol.Set.union set s))
      | Some _, Frontir.Itemgen.Mem_item _ -> acc)
    (Some Symbol.Set.empty)
    (List.filter
       (fun it ->
         it.Frontir.Itemgen.line >= r.Frontir.Region.first_line
         && it.Frontir.Itemgen.line <= r.Frontir.Region.last_line)
       items)

(* ------------------------------------------------------------------ *)
(* Loop context for dependence tests                                   *)
(* ------------------------------------------------------------------ *)

let loop_ctx_of_region (r : Frontir.Region.t) : Deptest.loop_ctx option =
  match r.Frontir.Region.kind with
  | Frontir.Region.Unit_region -> None
  | Frontir.Region.Loop_region li -> (
      match li.Frontir.Region.ivar with
      | None -> None
      | Some iv ->
          let aff e = Option.bind e Affine.of_expr in
          let inner_ivars =
            List.concat_map
              (fun s -> Frontir.Region.enclosing_ivars s)
              r.Frontir.Region.subs
            |> List.filter (fun v -> not (Symbol.equal v iv))
          in
          Some
            (Deptest.loop_ctx ~inner_ivars ~ivar:iv
               ?lower:(aff li.Frontir.Region.lower)
               ?upper:(aff li.Frontir.Region.upper)
               ~inclusive:li.Frontir.Region.inclusive
               ?step:li.Frontir.Region.step ()))

(* ------------------------------------------------------------------ *)
(* Class formation                                                     *)
(* ------------------------------------------------------------------ *)

(* Merge atom [b] into [a] (same location); the result keeps [a]'s
   description. *)
let merge_atoms (a : Atom.t) (b : Atom.t) ~kind : Atom.t =
  {
    a with
    members = a.Atom.members @ b.Atom.members;
    kind;
    has_load = a.Atom.has_load || b.Atom.has_load;
    has_store = a.Atom.has_store || b.Atom.has_store;
    reprs = a.Atom.reprs @ b.Atom.reprs;
    section = Section.join a.Atom.section b.Atom.section;
  }

let weaken k1 k2 =
  match (k1, k2) with T.Definitely, T.Definitely -> T.Definitely | _ -> T.Maybe

(* Description section of a merged or widened atom: unlike an item
   atom's, a [Whole] section prints as the bare space name. *)
let desc_section = function Section.Whole -> None | sec -> Some sec

(* Group atoms into classes: same-space atoms merge when provably the
   same location. *)
let form_classes ~invariant (atoms : Atom.t list) : Atom.t list =
  List.fold_left
    (fun classes atom ->
      let rec place = function
        | [] -> [ atom ]
        | c :: rest ->
            if Atom.space_equal c.Atom.space atom.Atom.space then begin
              match Atom.same_location ~invariant c atom with
              | Deptest.Same ->
                  merge_atoms c atom ~kind:(weaken c.Atom.kind atom.Atom.kind) :: rest
              | Deptest.Different | Deptest.Maybe_same -> c :: place rest
            end
            else c :: place rest
      in
      place classes)
    [] atoms

(* Merge all same-space classes into one Maybe class (used when
   propagating to the parent with [merge_parent_classes]). *)
let merge_per_space (atoms : Atom.t list) : Atom.t list =
  List.fold_left
    (fun classes atom ->
      let rec place = function
        | [] -> [ atom ]
        | c :: rest ->
            if Atom.space_equal c.Atom.space atom.Atom.space then begin
              let kind =
                match Atom.same_location ~invariant:(fun _ -> false) c atom with
                | Deptest.Same -> weaken c.Atom.kind atom.Atom.kind
                | _ -> T.Maybe
              in
              let merged = merge_atoms c atom ~kind in
              { merged with desc_section = desc_section merged.Atom.section }
              :: rest
            end
            else c :: place rest
      in
      place classes)
    [] atoms

(* ------------------------------------------------------------------ *)
(* Alias analysis between classes                                      *)
(* ------------------------------------------------------------------ *)

let spaces_may_overlap (ctx : context) s1 s2 =
  match (s1, s2) with
  | Atom.Space_sym a, Atom.Space_sym b -> Symbol.equal a b
  | Atom.Space_ptr p, Atom.Space_sym s | Atom.Space_sym s, Atom.Space_ptr p ->
      Pointsto.may_point_at ctx.pointsto p s
  | Atom.Space_ptr p, Atom.Space_ptr q ->
      if Symbol.equal p q then true else Pointsto.ptrs_may_alias ctx.pointsto p q
  | Atom.Space_any, (Atom.Space_sym _ | Atom.Space_ptr _ | Atom.Space_any)
  | (Atom.Space_sym _ | Atom.Space_ptr _), Atom.Space_any ->
      true
  | Atom.Space_abi_out i, Atom.Space_abi_out j -> i = j
  | Atom.Space_abi_in i, Atom.Space_abi_in j -> i = j
  | (Atom.Space_abi_out _ | Atom.Space_abi_in _), _
  | _, (Atom.Space_abi_out _ | Atom.Space_abi_in _) ->
      false

(* Points-to evidence for a cross-space pair, per-mille; [None] when
   the pair is not pointer-based (no cardinality evidence exists). *)
let space_overlap_prob (ctx : context) (a : Atom.t) (b : Atom.t) : int option =
  match (a.Atom.space, b.Atom.space) with
  | Atom.Space_ptr p, Atom.Space_sym s | Atom.Space_sym s, Atom.Space_ptr p ->
      Some (Pointsto.may_point_at_prob ctx.pointsto p s)
  | Atom.Space_ptr p, Atom.Space_ptr q when not (Symbol.equal p q) ->
      Some (Pointsto.ptrs_alias_prob ctx.pointsto p q)
  | Atom.Space_any, _ | _, Atom.Space_any -> Some Pointsto.universe_prob
  | _ -> None

(* The alias-table entry of two classes, [None] when they cannot touch
   a common location within one iteration.  Its per-mille likelihood
   (the HLI3 probability section) is points-to cardinality evidence for
   cross-space pairs (whose sections are not comparable); same-space
   pairs that are provably the same location get certainty, other
   same-space pairs carry no estimate (subscript overlap is not a
   cardinality question). *)
let alias_entry ~invariant ctx (ida, (a : Atom.t)) (idb, (b : Atom.t)) :
    T.alias_entry option =
  let entry alias_prob = Some { T.alias_classes = [ ida; idb ]; alias_prob } in
  if not (spaces_may_overlap ctx a.Atom.space b.Atom.space) then None
  else if Atom.space_equal a.Atom.space b.Atom.space then begin
    match Atom.same_location ~invariant a b with
    | Deptest.Different -> None
    | Deptest.Same -> entry (Some 1000)
    | Deptest.Maybe_same -> entry None
  end
  else entry (space_overlap_prob ctx a b)

(* ------------------------------------------------------------------ *)
(* Loop-carried dependences between classes                            *)
(* ------------------------------------------------------------------ *)

(* Does a section-level pair overlap across iterations (some distance
   d >= 1)?  Conservative: overlap unless bounds prove separation that
   grows monotonically with the ivar. *)
let section_carried ~lctx (a : Atom.t) (b : Atom.t) : bool =
  match (a.Atom.section, b.Atom.section) with
  | Section.Whole, _ | _, Section.Whole -> true
  | (Section.Dims _ as sa), (Section.Dims _ as sb) ->
      (* Same-iteration disjointness does not imply cross-iteration
         disjointness in general; only when the sections do not depend on
         the ivar at all can we reuse the same-iteration answer. *)
      let mentions_ivar (s : Section.t) iv =
        match s with
        | Section.Whole -> true
        | Section.Dims dims ->
            List.exists
              (fun { Section.lo; hi } ->
                let f = function
                  | None -> true
                  | Some aff -> Affine.coeff_of aff iv <> 0
                in
                f lo || f hi)
              dims
      in
      let iv = lctx.Deptest.ivar in
      if (not (mentions_ivar sa iv)) && not (mentions_ivar sb iv) then
        not (Section.disjoint sa sb)
      else begin
        (* bounds affine in ivar: separated across all d >= 1 when, per
           some dimension, hi_a(i) < lo_b(i + d) and hi_b(i) < lo_a(i + d)
           for all d >= 1 under the loop's step direction *)
        let step = Option.value ~default:1 lctx.Deptest.step in
        let separated_dim (da : Section.dim) (db : Section.dim) =
          let lt_shifted hi lo =
            (* hi(i) < lo(i + d*step) for all d >= 1 *)
            match (hi, lo) with
            | Some h, Some l ->
                let c_l = Affine.coeff_of l iv in
                let diff = Affine.sub (Affine.subst l iv Affine.zero) (Affine.subst h iv Affine.zero) in
                let c_h = Affine.coeff_of h iv in
                (* lo(i+ds) - hi(i) = (c_l - c_h)*i + c_l*ds + diff; need
                   > 0 for all d>=1 and all i: require c_l = c_h and
                   c_l*step + const(diff) > 0 with diff constant *)
                c_l = c_h
                && (match Affine.const_value diff with
                   | Some c -> (c_l * step) + c > 0 && c >= 0
                   | None -> false)
            | _ -> false
          in
          lt_shifted da.Section.hi db.Section.lo && lt_shifted db.Section.hi da.Section.lo
        in
        match (sa, sb) with
        | Section.Dims da, Section.Dims db when List.length da = List.length db ->
            not (List.exists2 separated_dim da db)
        | _ -> true
      end

(* LCDD outcomes between two classes for a recognized loop.

   Exact distances and section reasoning compare subscripts, which is
   only meaningful against a common base: within one space, or between a
   pointer space and a symbol space would require offset knowledge the
   points-to analysis does not track (a mid-array pointer shifts every
   subscript).  Cross-space pairs therefore get a conservative
   maybe-dependence.

   Each outcome is paired with its per-mille likelihood (the HLI3
   probability section): affine-test slack for exact pairs, points-to
   evidence for cross-space pairs, the uninformative midpoint where the
   deciding test left nothing measurable. *)
let class_lcdd ~ctx ~lctx ~invariant (a : Atom.t) (b : Atom.t) :
    (Deptest.outcome * int) list =
  if not (Atom.space_equal a.Atom.space b.Atom.space) then begin
    if a.Atom.has_store || b.Atom.has_store then
      let p =
        Option.value ~default:Deptest.default_dep_prob
          (space_overlap_prob ctx a b)
      in
      [ (Deptest.Dependent { distance = None; definite = false }, p) ]
    else []
  end
  else
  let exact_possible =
    a.Atom.reprs <> [] && b.Atom.reprs <> []
    && List.length a.Atom.reprs = List.length a.Atom.members
    && List.length b.Atom.reprs = List.length b.Atom.members
  in
  if exact_possible then begin
    (* pairwise over representatives, keeping store-involving pairs *)
    let outcomes = ref [] in
    List.iter
      (fun ra ->
        List.iter
          (fun rb ->
            if ra.Frontir.Access.is_store || rb.Frontir.Access.is_store then
              outcomes :=
                Deptest.carried_with_prob ~ctx:lctx ~invariant ra rb
                :: !outcomes)
          b.Atom.reprs)
      a.Atom.reprs;
    !outcomes
  end
  else if a.Atom.has_store || b.Atom.has_store then
    if section_carried ~lctx a b then
      [ ( Deptest.Dependent { distance = None; definite = false },
          Deptest.default_dep_prob )
      ]
    else [ (Deptest.Independent, 0) ]
  else []

(* ------------------------------------------------------------------ *)
(* Region processing                                                   *)
(* ------------------------------------------------------------------ *)

type built_region = {
  entry : T.region_entry;
  (* class atoms of this region, for consumption by the parent *)
  class_atoms : (int * Atom.t) list;  (* class id, atom *)
}

(* Widen a class atom of sub-region [sub] for use in the parent:
   substitute the sub-loop's induction range into the sections and wrap
   the members as a subclass reference. *)
let atom_for_parent ~parent_invariant (sub : Frontir.Region.t) (cid, (atom : Atom.t)) : Atom.t =
  let widened =
    match sub.Frontir.Region.kind with
    | Frontir.Region.Unit_region -> atom.Atom.section
    | Frontir.Region.Loop_region li -> (
        match li.Frontir.Region.ivar with
        | None -> Section.Whole
        | Some iv ->
            let bound e = Option.bind e Affine.of_expr in
            let iv_lo = bound li.Frontir.Region.lower in
            let iv_hi =
              match (bound li.Frontir.Region.upper, li.Frontir.Region.inclusive) with
              | Some u, true -> Some u
              | Some u, false -> Some (Affine.add u (Affine.const (-1)))
              | None, _ -> None
            in
            Section.widen_over ~ivar:iv ~iv_lo ~iv_hi atom.Atom.section)
  in
  (* degrade bounds whose symbols the parent cannot treat as stable *)
  let widened =
    match widened with
    | Section.Whole -> Section.Whole
    | Section.Dims dims ->
        Section.Dims
          (List.map
             (fun { Section.lo; hi } ->
               let ok = function
                 | None -> None
                 | Some f ->
                     if Affine.for_all_symbols parent_invariant f then Some f else None
               in
               { Section.lo = ok lo; hi = ok hi })
             dims)
  in
  let scalar_whole =
    widened = Section.Whole
    &&
    match atom.Atom.space with
    | Atom.Space_sym s -> Types.is_scalar s.Symbol.ty
    | Atom.Space_abi_out _ | Atom.Space_abi_in _ -> true
    | Atom.Space_ptr _ | Atom.Space_any -> false
  in
  let kind =
    if
      (Atom.is_degenerate_section widened || scalar_whole)
      && atom.Atom.kind = T.Definitely
    then T.Definitely
    else T.Maybe
  in
  {
    atom with
    Atom.members =
      [ T.Member_subclass { sub_region = sub.Frontir.Region.rid; cls = cid } ];
    section = widened;
    kind;
    reprs = [];
    desc_section = desc_section widened;
  }

let dep_outcomes_to_lcdds ~src ~dst (outcomes : (Deptest.outcome * int) list) :
    T.lcdd_entry list =
  let exact = ref [] and maybe = ref false and maybe_definite = ref false in
  (* the one maybe entry summarizes all non-exact pair outcomes, so it
     carries the largest likelihood any of them produced *)
  let maybe_prob = ref 0 in
  List.iter
    (fun (o, p) ->
      match o with
      | Deptest.Independent -> ()
      | Deptest.Dependent { distance = Some d; definite } ->
          if definite then begin
            if not (List.mem d !exact) then exact := d :: !exact
          end
          else begin
            maybe := true;
            maybe_prob := max !maybe_prob p;
            ignore d
          end
      | Deptest.Dependent { distance = None; definite } ->
          maybe := true;
          maybe_prob := max !maybe_prob p;
          if definite then maybe_definite := true
      | Deptest.Unknown ->
          maybe := true;
          maybe_prob := max !maybe_prob p)
    outcomes;
  let exact_entries =
    List.map
      (fun d ->
        {
          T.lcdd_src = src;
          lcdd_dst = dst;
          lcdd_dep = T.Dep_definite;
          lcdd_distance = Some d;
          lcdd_prob = Some 1000;
        })
      (List.sort compare !exact)
  in
  if !maybe then
    exact_entries
    @ [
        {
          T.lcdd_src = src;
          lcdd_dst = dst;
          lcdd_dep = (if !maybe_definite then T.Dep_definite else T.Dep_maybe);
          lcdd_distance = None;
          lcdd_prob =
            (if !maybe_definite then Some 1000 else Some !maybe_prob);
        };
      ]
  else exact_entries

(* Process one region bottom-up.  [next_id] allocates class ids from the
   shared item/class id space. *)
let rec build_region (ctx : context) (u : Frontir.Itemgen.unit_items)
    (next_id : int ref) (r : Frontir.Region.t) : built_region list =
  (* children first *)
  let built_subs = List.concat_map (build_region ctx u next_id) r.Frontir.Region.subs in
  let sub_of rid =
    List.find (fun s -> s.Frontir.Region.rid = rid) r.Frontir.Region.subs
  in
  let own_built_subs =
    List.filter
      (fun b ->
        List.exists
          (fun s -> s.Frontir.Region.rid = b.entry.T.region_id)
          r.Frontir.Region.subs)
      built_subs
  in
  (* invariance within this region: scalars not assigned in the subtree
     and not clobbered by calls.  The region's own recognized induction
     variable is constant within one iteration, which is the granularity
     all same-iteration comparisons (classes, aliases) use; the
     dependence tests handle its cross-iteration variation explicitly. *)
  let mods = modified_scalars r in
  let mods =
    match r.Frontir.Region.kind with
    | Frontir.Region.Loop_region { ivar = Some iv; _ } -> Symbol.Set.remove iv mods
    | _ -> mods
  in
  let call_mods = call_modified ctx r u.Frontir.Itemgen.items in
  let invariant (s : Symbol.t) =
    (not (Symbol.Set.mem s mods))
    && (not s.Symbol.addr_taken)
    && (match call_mods with
       | None -> not (Symbol.is_global s)
       | Some cm -> not (Symbol.Set.mem s cm))
  in
  (* atoms: immediate memory items + widened sub-region classes *)
  let imm_items = Frontir.Itemgen.immediate_items u r in
  let item_atoms =
    List.filter_map
      (fun it ->
        match it.Frontir.Itemgen.kind with
        | Frontir.Itemgen.Mem_item a -> Some (Atom.of_item it a)
        | Frontir.Itemgen.Call_item _ -> None)
      imm_items
  in
  let sub_atoms =
    List.concat_map
      (fun b ->
        let sub = sub_of b.entry.T.region_id in
        List.map (atom_for_parent ~parent_invariant:invariant sub) b.class_atoms)
      own_built_subs
  in
  (* Form classes among immediate items with exact comparisons.  Classes
     arriving from sub-regions are merged per space first (the size
     optimization of Section 2.2.1) and then unified with the immediate
     classes only where provably the same location (e.g. a scalar, or
     a\[i\] against a sub-loop's a\[i..i\]). *)
  let imm_classes = form_classes ~invariant item_atoms in
  let sub_merged =
    if ctx.opts.merge_parent_classes then merge_per_space sub_atoms else sub_atoms
  in
  let classes = form_classes ~invariant (imm_classes @ sub_merged) in
  (* allocate ids *)
  let class_atoms =
    List.map
      (fun a ->
        let id = !next_id in
        incr next_id;
        (id, a))
      classes
  in
  (* alias table *)
  let aliases =
    let rec pairs = function
      | [] -> []
      | a :: rest -> List.filter_map (alias_entry ~invariant ctx a) rest @ pairs rest
    in
    pairs class_atoms
  in
  (* LCDD table (loops only) *)
  let lcdds =
    match r.Frontir.Region.kind with
    | Frontir.Region.Unit_region -> []
    | Frontir.Region.Loop_region _ -> (
        match loop_ctx_of_region r with
        | Some lctx ->
            List.concat_map
              (fun (ida, a) ->
                List.concat_map
                  (fun (idb, b) ->
                    if spaces_may_overlap ctx a.Atom.space b.Atom.space then
                      dep_outcomes_to_lcdds ~src:ida ~dst:idb
                        (class_lcdd ~ctx ~lctx ~invariant a b)
                    else [])
                  class_atoms)
              class_atoms
        | None ->
            (* unrecognized loop: conservative maybe-dependence between
               any store-involving overlapping classes *)
            List.concat_map
              (fun (ida, a) ->
                List.filter_map
                  (fun (idb, b) ->
                    if
                      (a.Atom.has_store || b.Atom.has_store)
                      && spaces_may_overlap ctx a.Atom.space b.Atom.space
                    then
                      Some
                        {
                          T.lcdd_src = ida;
                          lcdd_dst = idb;
                          lcdd_dep = T.Dep_maybe;
                          lcdd_distance = None;
                          (* unrecognized loop: nothing to estimate from *)
                          lcdd_prob = None;
                        }
                    else None)
                  class_atoms)
              class_atoms)
  in
  (* call REF/MOD table *)
  let class_of_syms (target : Refmod.target) =
    match target with
    | Refmod.All -> `All
    | Refmod.Syms set ->
        `Classes
          (List.filter_map
             (fun (id, a) ->
               match a.Atom.space with
               | Atom.Space_sym s when Symbol.Set.mem s set -> Some id
               | Atom.Space_ptr p -> (
                   match Pointsto.points_to ctx.pointsto p with
                   | Pointsto.Universe -> Some id
                   | Pointsto.Syms ps ->
                       if Symbol.Set.is_empty (Symbol.Set.inter ps set) then None
                       else Some id)
               | Atom.Space_any -> Some id
               | _ -> None)
             class_atoms)
  in
  let entry_for_effect key (eff : Refmod.summary) =
    match (class_of_syms eff.Refmod.refs, class_of_syms eff.Refmod.mods) with
    | `All, _ | _, `All ->
        { T.call_key = key; ref_classes = []; mod_classes = []; refmod_all = true }
    | `Classes refs, `Classes mods ->
        { T.call_key = key; ref_classes = refs; mod_classes = mods; refmod_all = false }
  in
  let imm_call_entries =
    List.filter_map
      (fun it ->
        match it.Frontir.Itemgen.kind with
        | Frontir.Itemgen.Call_item callee ->
            Some
              (entry_for_effect
                 (T.Key_call_item it.Frontir.Itemgen.id)
                 (Refmod.call_effect ctx.refmod callee))
        | Frontir.Itemgen.Mem_item _ -> None)
      imm_items
  in
  let sub_call_entries =
    List.filter_map
      (fun (s : Frontir.Region.t) ->
        let calls =
          List.filter_map
            (fun it ->
              match it.Frontir.Itemgen.kind with
              | Frontir.Itemgen.Call_item callee -> Some callee
              | Frontir.Itemgen.Mem_item _ -> None)
            (Frontir.Itemgen.items_within u s)
        in
        if calls = [] then None
        else
          let eff =
            List.fold_left
              (fun acc callee ->
                Refmod.summary_union acc (Refmod.call_effect ctx.refmod callee))
              Refmod.empty_summary calls
          in
          Some (entry_for_effect (T.Key_sub_region s.Frontir.Region.rid) eff))
      r.Frontir.Region.subs
  in
  let entry =
    {
      T.region_id = r.Frontir.Region.rid;
      rtype =
        (match r.Frontir.Region.kind with
        | Frontir.Region.Unit_region -> T.Region_unit
        | Frontir.Region.Loop_region _ -> T.Region_loop);
      parent = Option.map (fun p -> p.Frontir.Region.rid) r.Frontir.Region.parent;
      first_line = r.Frontir.Region.first_line;
      last_line = r.Frontir.Region.last_line;
      eq_classes =
        List.map
          (fun (id, a) ->
            {
              T.class_id = id;
              kind = a.Atom.kind;
              members = a.Atom.members;
              desc = Atom.desc a;
            })
          class_atoms;
      aliases;
      lcdds;
      callrefmods = imm_call_entries @ sub_call_entries;
    }
  in
  built_subs @ [ { entry; class_atoms } ]

(* ------------------------------------------------------------------ *)
(* Whole units and programs                                            *)
(* ------------------------------------------------------------------ *)

let line_table_of_items (u : Frontir.Itemgen.unit_items) : T.line_table =
  List.map
    (fun (line, items) ->
      {
        T.line_no = line;
        items =
          List.map
            (fun (it : Frontir.Itemgen.item) ->
              {
                T.item_id = it.Frontir.Itemgen.id;
                acc =
                  (match it.Frontir.Itemgen.kind with
                  | Frontir.Itemgen.Call_item _ -> T.Acc_call
                  | Frontir.Itemgen.Mem_item a ->
                      if a.Frontir.Access.is_store then T.Acc_store else T.Acc_load);
              })
            items;
      })
    (Frontir.Itemgen.by_line u)

(** Build the HLI entry of one function. *)
let build_unit (ctx : context) (f : Tast.func) : T.hli_entry * Frontir.Itemgen.unit_items * Frontir.Region.t =
  let u, next = Frontir.Itemgen.of_func f in
  let region = Frontir.Region.of_func f in
  let region =
    if ctx.opts.routine_only_regions then Frontir.Region.routine_only region
    else region
  in
  let next_id = ref next in
  let built = build_region ctx u next_id region in
  let regions =
    (* preorder: unit region first *)
    let by_id = List.map (fun b -> (b.entry.T.region_id, b.entry)) built in
    List.filter_map
      (fun (r : Frontir.Region.t) -> List.assoc_opt r.Frontir.Region.rid by_id)
      (Frontir.Region.all region)
  in
  ( { T.unit_name = f.Tast.name; line_table = line_table_of_items u; regions },
    u,
    region )

(** Build the HLI file for a whole program. *)
let build_program ?(opts = default_options) (prog : Tast.program) : T.hli_file =
  let ctx = make_context ~opts prog in
  {
    T.entries =
      List.map
        (fun f ->
          let entry, _, _ = build_unit ctx f in
          entry)
        prog.Tast.funcs;
  }
