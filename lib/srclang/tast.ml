(** Typed abstract syntax.

    The type checker ({!Typecheck}) elaborates the raw {!Ast} into this
    representation: names are resolved to {!Symbol.t}s, every expression
    carries its type, implicit [int]/[double] conversions are explicit
    {!Cast} nodes, and lvalues are a dedicated syntactic class so that
    memory accesses are structurally identifiable — the property both the
    ITEMGEN phase (front end) and the lowering pass (back end) rely on to
    enumerate memory references in the same order. *)

type expr = { desc : desc; ty : Types.t; loc : Loc.t }

and desc =
  | Const_int of int
  | Const_float of float
  | Lval of lvalue
      (** rvalue use of an lvalue; a memory load when the root is
          memory-resident *)
  | Addr of lvalue  (** [&lv], or an array name decaying to a pointer *)
  | Binop of Ast.binop * expr * expr
  | Unop of Ast.unop * expr
  | Call of string * expr list
  | Cast of Types.t * expr  (** explicit or inserted conversion *)

and lvalue = { ldesc : ldesc; lty : Types.t; lloc : Loc.t }

and ldesc =
  | Lvar of Symbol.t  (** a scalar or whole-aggregate variable *)
  | Lindex of lvalue * expr
      (** [base\[i\]] where [base] has array or pointer type; for a pointer
          base the address is the pointer's value plus the scaled index *)
  | Lderef of expr  (** [*e] for a computed pointer expression *)

type stmt = { sdesc : sdesc; sloc : Loc.t }

and sdesc =
  | Sexpr of expr
  | Sassign of lvalue * expr
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sfor of stmt option * expr option * stmt option * stmt list
  | Sreturn of expr option
  | Sblock of stmt list

type func = {
  name : string;
  ret : Types.t;
  params : Symbol.t list;
  locals : Symbol.t list;  (** every local declared anywhere in the body *)
  body : stmt list;
  loc : Loc.t;
}

(** Constant initializer for a global variable. *)
type ginit = Ginit_int of int | Ginit_float of float

type program = {
  globals : (Symbol.t * ginit option) list;
  funcs : func list;
}

(** Root symbol of an lvalue, if it is a named variable (possibly
    subscripted).  [None] for computed-pointer targets. *)
let rec root_symbol lv =
  match lv.ldesc with
  | Lvar s -> Some s
  | Lindex (base, _) -> (
      (* A subscripted pointer accesses the pointee, not the pointer
         variable itself. *)
      match base.lty with
      | Types.Tptr _ -> None
      | _ -> root_symbol base)
  | Lderef _ -> None

(** The pointer variable through which an lvalue indirects, if any:
    [p[i]] and [*p] both indirect through [p]. *)
let rec via_pointer lv =
  match lv.ldesc with
  | Lvar _ -> None
  | Lindex (base, _) -> (
      match (base.lty, base.ldesc) with
      | Types.Tptr _, Lvar p -> Some p
      | Types.Tptr _, _ -> None
      | _ -> via_pointer base)
  | Lderef e -> (
      match e.desc with
      | Lval { ldesc = Lvar p; _ } -> Some p
      | _ -> None)

(** Subscript expressions of an lvalue, outermost dimension first. *)
let subscripts lv =
  let rec go lv acc =
    match lv.ldesc with
    | Lvar _ | Lderef _ -> acc
    | Lindex (base, idx) -> go base (idx :: acc)
  in
  go lv []

let find_func program name =
  List.find_opt (fun f -> f.name = name) program.funcs

(** Fold [f] over every statement in the list, recursively (pre-order). *)
let rec fold_stmts f acc stmts = List.fold_left (fold_stmt f) acc stmts

and fold_stmt f acc stmt =
  let acc = f acc stmt in
  match stmt.sdesc with
  | Sexpr _ | Sassign _ | Sreturn _ -> acc
  | Sif (_, a, b) -> fold_stmts f (fold_stmts f acc a) b
  | Swhile (_, body) | Sblock body -> fold_stmts f acc body
  | Sfor (init, _, step, body) ->
      let acc = Option.fold ~none:acc ~some:(fold_stmt f acc) init in
      let acc = Option.fold ~none:acc ~some:(fold_stmt f acc) step in
      fold_stmts f acc body

(** Fold [f] over every expression (and the expressions inside lvalues)
    reachable from the statement list, in evaluation order. *)
let rec fold_exprs f acc stmts = List.fold_left (fold_expr_stmt f) acc stmts

and fold_expr_stmt f acc stmt =
  match stmt.sdesc with
  | Sexpr e -> fold_expr f acc e
  | Sassign (lv, e) -> fold_expr f (fold_lvalue f acc lv) e
  | Sif (c, a, b) -> fold_exprs f (fold_exprs f (fold_expr f acc c) a) b
  | Swhile (c, body) -> fold_exprs f (fold_expr f acc c) body
  | Sfor (init, cond, step, body) ->
      let acc = Option.fold ~none:acc ~some:(fold_expr_stmt f acc) init in
      let acc = Option.fold ~none:acc ~some:(fold_expr f acc) cond in
      let acc = Option.fold ~none:acc ~some:(fold_expr_stmt f acc) step in
      fold_exprs f acc body
  | Sreturn e -> Option.fold ~none:acc ~some:(fold_expr f acc) e
  | Sblock body -> fold_exprs f acc body

and fold_expr f acc e =
  let acc = f acc e in
  match e.desc with
  | Const_int _ | Const_float _ -> acc
  | Lval lv | Addr lv -> fold_lvalue f acc lv
  | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Unop (_, a) | Cast (_, a) -> fold_expr f acc a
  | Call (_, args) -> List.fold_left (fold_expr f) acc args

and fold_lvalue f acc lv =
  match lv.ldesc with
  | Lvar _ -> acc
  | Lindex (base, idx) -> fold_expr f (fold_lvalue f acc base) idx
  | Lderef e -> fold_expr f acc e

(* ------------------------------------------------------------------ *)
(* Pretty printing (for debugging and golden tests)                    *)
(* ------------------------------------------------------------------ *)

let rec pp_expr ppf e =
  match e.desc with
  | Const_int n -> Fmt.int ppf n
  | Const_float f -> Fmt.float ppf f
  | Lval lv -> pp_lvalue ppf lv
  | Addr lv -> Fmt.pf ppf "&%a" pp_lvalue lv
  | Binop (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_expr a (Ast.binop_to_string op) pp_expr b
  | Unop (op, a) -> Fmt.pf ppf "%s%a" (Ast.unop_to_string op) pp_expr a
  | Call (name, args) ->
      Fmt.pf ppf "%s(%a)" name Fmt.(list ~sep:comma pp_expr) args
  | Cast (ty, a) -> Fmt.pf ppf "(%a)%a" Types.pp ty pp_expr a

and pp_lvalue ppf lv =
  match lv.ldesc with
  | Lvar s -> Symbol.pp ppf s
  | Lindex (base, idx) -> Fmt.pf ppf "%a[%a]" pp_lvalue base pp_expr idx
  | Lderef e -> Fmt.pf ppf "*(%a)" pp_expr e
