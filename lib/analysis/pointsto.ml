(** Flow-insensitive, context-insensitive points-to analysis
    (Andersen-style inclusion constraints).

    This provides the alias information the paper's front end feeds into
    the HLI alias tables: for each pointer variable, the set of named
    variables it may point into.  Pointers laundered through memory (a
    pointer stored in an array, then reloaded) degrade to [Universe],
    which downstream turns into maximal alias entries — safe, and the
    same conservatism the paper reports as an implementation limit. *)

open Srclang

type target = Universe | Syms of Symbol.Set.t

let empty_target = Syms Symbol.Set.empty

let target_union a b =
  match (a, b) with
  | Universe, _ | _, Universe -> Universe
  | Syms x, Syms y -> Syms (Symbol.Set.union x y)

let target_subset a b =
  match (a, b) with
  | _, Universe -> true
  | Universe, Syms _ -> false
  | Syms x, Syms y -> Symbol.Set.subset x y

type result = {
  pts : (int, target) Hashtbl.t;  (** keyed by pointer symbol id *)
  ret_pts : (string, target) Hashtbl.t;  (** pointer-returning functions *)
  escaped : Symbol.Set.t ref;
      (** symbols whose address was stored into memory *)
}

let points_to res (p : Symbol.t) : target =
  Option.value ~default:empty_target (Hashtbl.find_opt res.pts p.Symbol.id)

(** May pointer [p] point at (into) symbol [s]? *)
let may_point_at res p s =
  match points_to res p with
  | Universe -> true
  | Syms set -> Symbol.Set.mem s set

(** May two pointers reference overlapping memory? *)
let ptrs_may_alias res p q =
  match (points_to res p, points_to res q) with
  | Universe, _ | _, Universe -> true
  | Syms a, Syms b -> not (Symbol.Set.is_empty (Symbol.Set.inter a b))

let escaped res s = Symbol.Set.mem s !(res.escaped)

(* ------------------------------------------------------------------ *)
(* Constraint generation                                               *)
(* ------------------------------------------------------------------ *)

(* The abstract "sources" a pointer-valued expression may draw from. *)
type source =
  | Src_base of Symbol.t  (** &s or array decay: points at s *)
  | Src_copy of Symbol.t  (** value of pointer variable p *)
  | Src_ret of string  (** return value of function *)
  | Src_univ  (** loaded from memory / unanalyzable *)

let rec sources (e : Tast.expr) : source list =
  match e.Tast.desc with
  | Tast.Const_int _ | Tast.Const_float _ -> []
  | Tast.Addr lv -> (
      match Tast.root_symbol lv with
      | Some s -> [ Src_base s ]
      | None -> (
          (* &p[i]: points wherever p points *)
          match Tast.via_pointer lv with
          | Some p -> [ Src_copy p ]
          | None -> [ Src_univ ]))
  | Tast.Lval lv -> (
      if not (Types.is_pointer e.Tast.ty) then []
      else
        match lv.Tast.ldesc with
        | Tast.Lvar p -> [ Src_copy p ]
        | Tast.Lindex _ | Tast.Lderef _ -> [ Src_univ ])
  | Tast.Binop (_, a, b) -> sources a @ sources b
  | Tast.Unop (_, a) | Tast.Cast (_, a) -> sources a
  | Tast.Call (name, _) ->
      if Types.is_pointer e.Tast.ty then [ Src_ret name ] else []

type constr =
  | Cbase of Symbol.t * Symbol.t  (** pts(p) ∋ s *)
  | Ccopy of Symbol.t * Symbol.t  (** pts(p) ⊇ pts(q) *)
  | Cret of Symbol.t * string  (** pts(p) ⊇ ret(f) *)
  | Cuniv of Symbol.t  (** pts(p) = Universe *)
  | Cret_base of string * Symbol.t  (** ret(f) ∋ s *)
  | Cret_copy of string * Symbol.t  (** ret(f) ⊇ pts(q) *)
  | Cret_univ of string

let constraints_for_ptr p srcs acc =
  List.fold_left
    (fun acc src ->
      match src with
      | Src_base s -> Cbase (p, s) :: acc
      | Src_copy q -> Ccopy (p, q) :: acc
      | Src_ret f -> Cret (p, f) :: acc
      | Src_univ -> Cuniv p :: acc)
    acc srcs

let gather_program (prog : Tast.program) : constr list * Symbol.Set.t =
  let escaped = ref Symbol.Set.empty in
  let acc = ref [] in
  let note_escape srcs =
    List.iter
      (fun src ->
        match src with
        | Src_base s -> escaped := Symbol.Set.add s !escaped
        | Src_copy _ | Src_ret _ | Src_univ -> ())
      srcs
  in
  let handle_assign (lv : Tast.lvalue) (rhs : Tast.expr) =
    if Types.is_pointer lv.Tast.lty then begin
      match lv.Tast.ldesc with
      | Tast.Lvar p -> acc := constraints_for_ptr p (sources rhs) !acc
      | Tast.Lindex _ | Tast.Lderef _ ->
          (* a pointer stored into memory: its targets escape *)
          note_escape (sources rhs)
    end
  in
  let handle_call f_opt name (args : Tast.expr list) =
    ignore f_opt;
    match List.find_opt (fun (g : Tast.func) -> g.Tast.name = name) prog.Tast.funcs with
    | None ->
        (* builtin: no pointer parameters in our builtin set *)
        ()
    | Some callee ->
        List.iteri
          (fun i param ->
            if Types.is_pointer param.Symbol.ty then
              match List.nth_opt args i with
              | Some arg -> acc := constraints_for_ptr param (sources arg) !acc
              | None -> ())
          callee.Tast.params
  in
  let handle_expr fname (e : Tast.expr) =
    match e.Tast.desc with
    | Tast.Call (name, args) -> handle_call fname name args
    | _ -> ()
  in
  List.iter
    (fun (f : Tast.func) ->
      Tast.fold_exprs (fun () e -> handle_expr f.Tast.name e) () f.Tast.body;
      Tast.fold_stmts
        (fun () st ->
          match st.Tast.sdesc with
          | Tast.Sassign (lv, rhs) -> handle_assign lv rhs
          | Tast.Sreturn (Some e) when Types.is_pointer e.Tast.ty ->
              List.iter
                (fun src ->
                  match src with
                  | Src_base s -> acc := Cret_base (f.Tast.name, s) :: !acc
                  | Src_copy q -> acc := Cret_copy (f.Tast.name, q) :: !acc
                  | Src_ret _ | Src_univ -> acc := Cret_univ f.Tast.name :: !acc)
                (sources e)
          | _ -> ())
        () f.Tast.body)
    prog.Tast.funcs;
  (!acc, !escaped)

(* ------------------------------------------------------------------ *)
(* Fixpoint solver                                                     *)
(* ------------------------------------------------------------------ *)

let analyze (prog : Tast.program) : result =
  let constrs, escaped0 = gather_program prog in
  let res =
    { pts = Hashtbl.create 64; ret_pts = Hashtbl.create 16; escaped = ref escaped0 }
  in
  let get p = Option.value ~default:empty_target (Hashtbl.find_opt res.pts p) in
  let get_ret f = Option.value ~default:empty_target (Hashtbl.find_opt res.ret_pts f) in
  let changed = ref true in
  let update p t =
    let old = get p.Symbol.id in
    if not (target_subset t old) then begin
      Hashtbl.replace res.pts p.Symbol.id (target_union old t);
      changed := true
    end
  in
  let update_ret f t =
    let old = get_ret f in
    if not (target_subset t old) then begin
      Hashtbl.replace res.ret_pts f (target_union old t);
      changed := true
    end
  in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        match c with
        | Cbase (p, s) -> update p (Syms (Symbol.Set.singleton s))
        | Ccopy (p, q) -> update p (get q.Symbol.id)
        | Cret (p, f) -> update p (get_ret f)
        | Cuniv p -> update p Universe
        | Cret_base (f, s) -> update_ret f (Syms (Symbol.Set.singleton s))
        | Cret_copy (f, q) -> update_ret f (get q.Symbol.id)
        | Cret_univ f -> update_ret f Universe)
      constrs
  done;
  res
