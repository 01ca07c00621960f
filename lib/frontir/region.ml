(** Hierarchical region structure (paper Section 2.2).

    A region is either a whole program unit (function) or a loop; loops
    nest.  Every region gets an id unique within its program unit.  The
    region tree is the scaffold on which the equivalent-access, alias,
    LCDD and call-REF/MOD tables hang. *)

open Srclang

(** Description of a recognized counted loop, in the normalized form
    [for (ivar = lower; ivar </<= upper; ivar += step)].  Loops the
    front end cannot normalize (while loops, non-unit conditions) still
    form regions but carry no bounds, which degrades dependence tests to
    "unknown range" — the same graceful degradation SUIF exhibits. *)
type loop_info = {
  ivar : Symbol.t option;  (** induction variable, if recognized *)
  lower : Tast.expr option;  (** initial value *)
  upper : Tast.expr option;  (** loop-invariant bound *)
  inclusive : bool;  (** [<=] vs [<] bound *)
  step : int option;  (** constant additive step *)
}

type kind =
  | Unit_region  (** the whole function *)
  | Loop_region of loop_info

type t = {
  rid : int;  (** unique within the program unit; the unit region is 1 *)
  kind : kind;
  parent : t option;
  mutable subs : t list;  (** immediate sub-regions, in source order *)
  mutable first_line : int;
  mutable last_line : int;
  mutable stmts : Tast.stmt list;
      (** leaf statements (assignments, expression statements, returns)
          immediately enclosed: inside this region, possibly under [if]s,
          but not inside any sub-loop *)
}

let is_loop r = match r.kind with Loop_region _ -> true | Unit_region -> false

let loop_info r =
  match r.kind with Loop_region li -> Some li | Unit_region -> None

(** Induction variables of [r] and all enclosing loops, innermost first. *)
let rec enclosing_ivars r =
  let own =
    match r.kind with
    | Loop_region { ivar = Some iv; _ } -> [ iv ]
    | Loop_region _ | Unit_region -> []
  in
  match r.parent with None -> own | Some p -> own @ enclosing_ivars p

(** Depth of loop nesting: the unit region is 0. *)
let rec depth r = match r.parent with None -> 0 | Some p -> 1 + depth p

let rec unit_region r =
  match r.parent with None -> r | Some p -> unit_region p

(** All regions in the subtree rooted at [r], preorder. *)
let rec all r = r :: List.concat_map all r.subs

(** Is [inner] equal to or nested (transitively) inside [outer]? *)
let rec is_within ~outer inner =
  inner.rid = outer.rid
  ||
  match inner.parent with
  | None -> false
  | Some p -> is_within ~outer p

(** Lowest common ancestor of two regions of the same unit. *)
let lca a b =
  let rec ancestors r = r :: (match r.parent with None -> [] | Some p -> ancestors p) in
  let bs = ancestors b in
  let rec go = function
    | [] -> unit_region a
    | r :: rest -> if List.exists (fun x -> x.rid = r.rid) bs then r else go rest
  in
  go (ancestors a)

(** Collapse a region tree to its unit region alone: every leaf
    statement of every (transitive) sub-loop is re-attributed to the
    routine region and the loop regions vanish.  This is the
    "routine-only regions" ablation of DESIGN.md §5 — an HLI built on
    the result has a single region per unit, hence no LCDD tables and
    no per-loop equivalence refinement. *)
let routine_only (root : t) : t =
  let rec leaf_stmts r = r.stmts @ List.concat_map leaf_stmts r.subs in
  { root with subs = []; stmts = leaf_stmts root }

let pp ppf r =
  let kind =
    match r.kind with
    | Unit_region -> "unit"
    | Loop_region { ivar = Some iv; _ } -> Fmt.str "loop(%a)" Symbol.pp iv
    | Loop_region _ -> "loop(?)"
  in
  Fmt.pf ppf "R%d[%s %d-%d]" r.rid kind r.first_line r.last_line

let rec pp_tree ppf r =
  Fmt.pf ppf "@[<v 2>%a%a@]" pp r
    (fun ppf subs ->
      List.iter (fun s -> Fmt.pf ppf "@,%a" pp_tree s) subs)
    r.subs

(* ------------------------------------------------------------------ *)
(* Construction from the typed AST                                     *)
(* ------------------------------------------------------------------ *)

(* Recognize [for (i = lo; i < hi; i = i + step)] over a scalar int local
   that is not address-taken and is not reassigned in the body. *)
let recognize_for init cond step body =
  let ivar_of_init =
    match init with
    | Some { Tast.sdesc = Tast.Sassign ({ ldesc = Tast.Lvar s; _ }, lo); _ }
      when Types.equal s.Symbol.ty Types.Tint && not s.Symbol.addr_taken ->
        Some (s, lo)
    | _ -> None
  in
  match ivar_of_init with
  | None -> { ivar = None; lower = None; upper = None; inclusive = false; step = None }
  | Some (iv, lo) ->
      let upper, inclusive =
        match cond with
        | Some { Tast.desc = Tast.Binop (op, { desc = Tast.Lval { ldesc = Tast.Lvar s; _ }; _ }, hi); _ }
          when Symbol.equal s iv -> (
            match op with
            | Ast.Lt -> (Some hi, false)
            | Ast.Le -> (Some hi, true)
            | _ -> (None, false))
        | _ -> (None, false)
      in
      let step_k =
        match step with
        | Some
            {
              Tast.sdesc =
                Tast.Sassign
                  ( { ldesc = Tast.Lvar s; _ },
                    {
                      desc =
                        Tast.Binop
                          ( op,
                            { desc = Tast.Lval { ldesc = Tast.Lvar s2; _ }; _ },
                            { desc = Tast.Const_int k; _ } );
                      _;
                    } );
              _;
            }
          when Symbol.equal s iv && Symbol.equal s2 iv -> (
            match op with Ast.Add -> Some k | Ast.Sub -> Some (-k) | _ -> None)
        | _ -> None
      in
      (* reject if the body reassigns the induction variable *)
      let reassigned =
        Tast.fold_stmts
          (fun acc st ->
            acc
            ||
            match st.Tast.sdesc with
            | Tast.Sassign ({ ldesc = Tast.Lvar s; _ }, _) -> Symbol.equal s iv
            | _ -> false)
          false body
      in
      if reassigned then
        { ivar = None; lower = None; upper = None; inclusive = false; step = None }
      else { ivar = Some iv; lower = Some lo; upper; inclusive; step = step_k }

(** Build the region tree of one function.  Region ids are assigned in
    preorder starting at 1 (the unit region). *)
let of_func (f : Tast.func) : t =
  let next_id = ref 0 in
  let fresh_id () =
    incr next_id;
    !next_id
  in
  let root =
    {
      rid = fresh_id ();
      kind = Unit_region;
      parent = None;
      subs = [];
      first_line = f.Tast.loc.Loc.line;
      last_line = f.Tast.loc.Loc.line;
      stmts = [];
    }
  in
  let grow r line =
    if line > 0 then begin
      if r.first_line = 0 || line < r.first_line then r.first_line <- line;
      if line > r.last_line then r.last_line <- line
    end
  in
  let rec touch_lines r (stmts : Tast.stmt list) =
    List.iter
      (fun st ->
        grow r st.Tast.sloc.Loc.line;
        match st.Tast.sdesc with
        | Tast.Sexpr _ | Tast.Sassign _ | Tast.Sreturn _ -> ()
        | Tast.Sif (_, a, b) ->
            touch_lines r a;
            touch_lines r b
        | Tast.Swhile (_, body) | Tast.Sblock body -> touch_lines r body
        | Tast.Sfor (_, _, _, body) -> touch_lines r body)
      stmts
  in
  let rec walk r stmts =
    List.iter
      (fun st ->
        grow r st.Tast.sloc.Loc.line;
        match st.Tast.sdesc with
        | Tast.Sexpr _ | Tast.Sassign _ | Tast.Sreturn _ ->
            r.stmts <- r.stmts @ [ st ]
        | Tast.Sif (_, a, b) ->
            walk r a;
            walk r b
        | Tast.Sblock body -> walk r body
        | Tast.Swhile (_, body) ->
            let sub = make_loop r st { ivar = None; lower = None; upper = None; inclusive = false; step = None } in
            touch_lines sub body;
            walk sub body
        | Tast.Sfor (init, cond, step, body) ->
            let li = recognize_for init cond step body in
            let sub = make_loop r st li in
            touch_lines sub body;
            walk sub body)
      stmts
  and make_loop parent st li =
    let sub =
      {
        rid = fresh_id ();
        kind = Loop_region li;
        parent = Some parent;
        subs = [];
        first_line = st.Tast.sloc.Loc.line;
        last_line = st.Tast.sloc.Loc.line;
        stmts = [];
      }
    in
    parent.subs <- parent.subs @ [ sub ];
    sub
  in
  walk root f.Tast.body;
  (* widen ancestors so every sub-region's span is contained *)
  let rec widen r =
    List.iter widen r.subs;
    List.iter
      (fun s ->
        grow r s.first_line;
        grow r s.last_line)
      r.subs
  in
  widen root;
  root
